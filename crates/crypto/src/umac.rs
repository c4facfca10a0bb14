//! A UMAC-style message authentication code.
//!
//! The paper uses UMAC32 [Black et al., CRYPTO '99]: a *universal-hash* MAC
//! whose cost is dominated by an extremely fast multiply-accumulate hash
//! (NH), with a block cipher applied only to the short hash output. This is
//! why the paper can say "the cost of MAC computation is negligible" — the
//! per-byte work is a fraction of MD5's.
//!
//! This module implements the same construction shape:
//!
//! 1. **NH hash**: the message is processed in 1024-byte blocks; each block
//!    is hashed with `NH(K, M) = Σ (M_2i +₃₂ K_2i) · (M_2i+1 +₃₂ K_2i+1)`
//!    over `u64`, where `+₃₂` is addition mod 2³².
//! 2. **Polynomial combination** of the per-block NH outputs over the prime
//!    field 2⁶⁴−59, so arbitrarily long messages reduce to one 64-bit value.
//! 3. **Pad**: the final value is XORed with a pad keyed by the session key
//!    and the 64-bit nonce, producing an 8-byte tag. As in BFT, the
//!    (nonce, tag) pair is what travels in messages; BFT counts 16 bytes per
//!    authenticator entry.
//!
//! The pad and the key material come from AES-128 under the session key,
//! as in UMAC (RFC 4418). Every AES input is a 16-byte block
//! `[domain, 0 × 7, i as u64 LE]`, and the domain byte keeps the three
//! uses apart:
//!
//! - tag pad: the first 8 bytes of `AES_K(0, nonce)`, over all 64 nonce
//!   bits;
//! - NH key: `AES_K(1, i)` for `i` in `0..66`, 1 056 bytes;
//! - polynomial key: the first 8 bytes of `AES_K(2, 0)`, clamped into the
//!   field.

use crate::aes::Aes128;

/// Bytes hashed per NH block (UMAC's L1 key length).
const NH_BLOCK: usize = 1024;
/// NH key words per block: one u32 per 4 message bytes.
const NH_KEY_WORDS: usize = NH_BLOCK / 4;
/// Prime modulus 2^64 - 59 for the polynomial hash.
const P64: u128 = 0xffff_ffff_ffff_ffc5;

/// `x mod P64`. 2⁶⁴ ≡ 59 (mod P64), so the high word folds down as
/// `hi·59 + lo`; two folds leave a value below `2·P64` and one conditional
/// subtract finishes. A `%` on `u128` is a library call per MAC.
fn reduce(x: u128) -> u64 {
    const LOW: u128 = u64::MAX as u128;
    let x = (x >> 64) * 59 + (x & LOW); // < 60·2⁶⁴
    let x = (x >> 64) * 59 + (x & LOW); // < 2⁶⁴ + 59²
    (if x >= P64 { x - P64 } else { x }) as u64
}

/// Domain bytes of the AES inputs: tag pads, NH key, polynomial key.
const PAD: u8 = 0;
const KDF_NH: u8 = 1;
const KDF_POLY: u8 = 2;

/// The AES input `[domain, 0 × 7, i as u64 LE]`.
fn prf_input(domain: u8, i: u64) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[0] = domain;
    block[8..].copy_from_slice(&i.to_le_bytes());
    block
}

/// The first 8 bytes of an AES output, little-endian.
fn first_half(block: [u8; 16]) -> u64 {
    u64::from_le_bytes(block[..8].try_into().expect("8 bytes"))
}

/// An 8-byte MAC tag plus the nonce it was computed with.
///
/// BFT messages carry the tag and nonce; the receiver recomputes the tag
/// under the shared session key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Mac {
    /// Sender-chosen nonce; BFT uses a per-key counter.
    pub nonce: u64,
    /// The 8-byte tag.
    pub tag: [u8; 8],
}

impl Mac {
    /// Total wire size of a MAC entry (nonce + tag), as accounted by the
    /// network model.
    pub const WIRE_BYTES: usize = 16;
}

/// A 128-bit symmetric session key with its derived NH key material.
///
/// # Example
///
/// ```
/// use bft_crypto::umac::MacKey;
/// let key = MacKey::from_bytes([3; 16]);
/// let mac = key.mac(b"commit", 1);
/// assert!(key.verify(b"commit", 1, &mac.tag));
/// ```
#[derive(Clone)]
pub struct MacKey {
    cipher: Aes128,
    /// NH key, derived once at construction (UMAC's KDF output).
    nh_key: Box<[u32; NH_KEY_WORDS + 8]>,
    /// Polynomial key for combining block hashes, reduced into the field.
    poly_key: u64,
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MacKey(…)")
    }
}

impl PartialEq for MacKey {
    fn eq(&self, other: &Self) -> bool {
        // Key equality is decided by derived material; sufficient for tests
        // and session-key bookkeeping.
        self.poly_key == other.poly_key && self.nh_key[..] == other.nh_key[..]
    }
}

impl Eq for MacKey {}

impl MacKey {
    /// Derives a MAC key from 16 bytes of session-key material.
    pub fn from_bytes(key: [u8; 16]) -> MacKey {
        let cipher = Aes128::new(key);
        let mut nh_key = Box::new([0u32; NH_KEY_WORDS + 8]);
        for (i, words) in nh_key.chunks_exact_mut(4).enumerate() {
            let block = cipher.encrypt(prf_input(KDF_NH, i as u64));
            for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
            }
        }
        let poly_raw = first_half(cipher.encrypt(prf_input(KDF_POLY, 0)));
        // Clamp into the field and avoid the degenerate zero key.
        let poly_key = (poly_raw % (P64 as u64 - 1)) + 1;
        MacKey {
            cipher,
            nh_key,
            poly_key,
        }
    }

    /// Computes the MAC of `msg` under `nonce`.
    ///
    /// Nonces must not repeat for a given key if confidentiality of the pad
    /// matters; BFT uses a monotone counter per session key (managed by
    /// [`crate::keychain::KeyChain`]).
    pub fn mac(&self, msg: &[u8], nonce: u64) -> Mac {
        let hash = self.universal_hash(msg);
        let pad = first_half(self.cipher.encrypt(prf_input(PAD, nonce)));
        let tag = (hash ^ pad).to_le_bytes();
        Mac { nonce, tag }
    }

    /// Verifies a tag. Constant-time in the tag comparison.
    pub fn verify(&self, msg: &[u8], nonce: u64, tag: &[u8; 8]) -> bool {
        let expect = self.mac(msg, nonce);
        let acc = expect
            .tag
            .iter()
            .zip(tag)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        acc == 0
    }

    /// NH + polynomial universal hash of the whole message.
    fn universal_hash(&self, msg: &[u8]) -> u64 {
        // Include the length so messages that are prefixes of each other
        // hash differently (UMAC appends the length in its L2 phase).
        let mut acc = reduce(msg.len() as u128 + 1);
        if msg.is_empty() {
            return self.poly_step(acc, 0);
        }
        for block in msg.chunks(NH_BLOCK) {
            acc = self.poly_step(acc, self.nh_block(block));
        }
        acc
    }

    /// One Horner step of the polynomial hash: `acc·k + h` in the field.
    fn poly_step(&self, acc: u64, h: u64) -> u64 {
        reduce(acc as u128 * self.poly_key as u128 + h as u128)
    }

    /// The NH inner hash of one ≤1024-byte block.
    fn nh_block(&self, block: &[u8]) -> u64 {
        let mut acc = 0u64;
        let mut i = 0usize;
        let mut words = block.chunks_exact(8);
        for pair in &mut words {
            let m0 = u32::from_le_bytes(pair[..4].try_into().expect("4 bytes"));
            let m1 = u32::from_le_bytes(pair[4..].try_into().expect("4 bytes"));
            let a = m0.wrapping_add(self.nh_key[i]) as u64;
            let b = m1.wrapping_add(self.nh_key[i + 1]) as u64;
            acc = acc.wrapping_add(a.wrapping_mul(b));
            i += 2;
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            // Zero-pad the trailing partial 8-byte group.
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            let m0 = u32::from_le_bytes(last[..4].try_into().expect("4 bytes"));
            let m1 = u32::from_le_bytes(last[4..].try_into().expect("4 bytes"));
            let a = m0.wrapping_add(self.nh_key[i]) as u64;
            let b = m1.wrapping_add(self.nh_key[i + 1]) as u64;
            acc = acc.wrapping_add(a.wrapping_mul(b));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn key(byte: u8) -> MacKey {
        MacKey::from_bytes([byte; 16])
    }

    /// The tag, straight from the definition: software AES, NH over bytes
    /// assembled by hand, and `%` for every reduction. Shares nothing with
    /// `MacKey` but the AES key schedule.
    fn mac_reference(key: [u8; 16], msg: &[u8], nonce: u64) -> [u8; 8] {
        let aes = Aes128::new(key);
        let prf = |domain: u8, i: u64| {
            let mut block = [0u8; 16];
            block[0] = domain;
            for b in 0..8 {
                block[8 + b] = (i >> (8 * b)) as u8;
            }
            aes.encrypt_soft(block)
        };
        let le = |bytes: &[u8]| -> u64 {
            bytes
                .iter()
                .rev()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
        };
        let nh_key: Vec<u64> = (0..66)
            .flat_map(|i| {
                let block = prf(1, i);
                (0..4).map(move |w| le(&block[4 * w..4 * w + 4]))
            })
            .collect();
        let poly_key = u128::from(le(&prf(2, 0)[..8])) % (P64 - 1) + 1;
        let mut acc = (msg.len() as u128 + 1) % P64;
        let blocks: Vec<&[u8]> = if msg.is_empty() {
            vec![&[]]
        } else {
            msg.chunks(NH_BLOCK).collect()
        };
        for block in blocks {
            let mut padded = block.to_vec();
            padded.resize(block.len().div_ceil(8) * 8, 0);
            let mut nh = 0u64;
            for (j, pair) in padded.chunks(8).enumerate() {
                let a = (le(&pair[..4]) + nh_key[2 * j]) % (1 << 32);
                let b = (le(&pair[4..]) + nh_key[2 * j + 1]) % (1 << 32);
                nh = nh.wrapping_add(a * b);
            }
            acc = (acc * poly_key + u128::from(nh)) % P64;
        }
        let pad = le(&prf(0, nonce)[..8]);
        (acc as u64 ^ pad).to_le_bytes()
    }

    #[test]
    fn mac_equals_the_reference() {
        let raw = [7u8; 16];
        let k = MacKey::from_bytes(raw);
        let message = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + 7) as u8).collect() };
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 1023, 1024, 1025, 4096, 5000] {
            let msg = message(len);
            let nonce = len as u64 + 3;
            assert_eq!(
                k.mac(&msg, nonce).tag,
                mac_reference(raw, &msg, nonce),
                "len {len}"
            );
        }
        let mut rng = StdRng::seed_from_u64(4418);
        for _ in 0..1_000 {
            let mut raw = [0u8; 16];
            rng.fill_bytes(&mut raw);
            let mut msg = vec![0u8; rng.next_u64() as usize % 5000];
            rng.fill_bytes(&mut msg);
            let nonce = rng.next_u64();
            assert_eq!(
                MacKey::from_bytes(raw).mac(&msg, nonce).tag,
                mac_reference(raw, &msg, nonce),
                "len {}, nonce {nonce:#x}",
                msg.len()
            );
        }
    }

    #[test]
    fn a_tag_verifies_under_its_own_nonce_only() {
        let k = key(5);
        for nonce in [5u64, 0, u64::MAX] {
            let m = k.mac(b"commit", nonce);
            assert!(k.verify(b"commit", nonce, &m.tag));
            for bit in 0..64 {
                let flipped = nonce ^ (1 << bit);
                assert!(
                    !k.verify(b"commit", flipped, &m.tag),
                    "nonce {nonce:#x}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn reduce_equals_the_remainder() {
        let p = P64;
        let mut cases = vec![
            0,
            1,
            58,
            59,
            p - 1,
            p,
            p + 1,
            (1 << 64) - 1,
            1 << 64,
            (1 << 64) + 59 * 59,
            2 * p - 1,
            2 * p,
            (p - 1) * (p - 1) + (u64::MAX as u128),
            u128::MAX - 1,
            u128::MAX,
        ];
        // Random u128, plus values with a random high word over a low
        // word that sits at the edge of the second fold.
        let mut rng = StdRng::seed_from_u64(59);
        for _ in 0..100_000 {
            let (hi, lo) = (rng.next_u64() as u128, rng.next_u64() as u128);
            cases.push(hi << 64 | lo);
            cases.push(hi << 64 | (u64::MAX as u128 - lo % 4096));
        }
        for x in cases {
            assert_eq!(reduce(x) as u128, x % p, "x = {x:#x}");
        }
    }

    /// Pinned tags. They changed when the pad function went from XTEA to
    /// AES-128, and were taken after `mac_equals_the_reference` agreed
    /// with `MacKey::mac` on every length and on 1 000 random messages.
    #[test]
    fn tags_are_unchanged() {
        let k = key(7);
        let golden: [(usize, [u8; 8]); 8] = [
            (0, [226, 222, 58, 99, 197, 77, 249, 32]),
            (1, [195, 116, 60, 69, 80, 204, 66, 173]),
            (16, [197, 109, 37, 2, 57, 113, 47, 207]),
            (1023, [134, 231, 140, 189, 87, 27, 78, 250]),
            (1024, [0, 204, 13, 253, 12, 17, 108, 158]),
            (1025, [20, 21, 44, 200, 140, 207, 214, 77]),
            (4096, [103, 75, 41, 14, 68, 143, 225, 208]),
            (5000, [108, 68, 217, 138, 42, 70, 220, 112]),
        ];
        for (len, tag) in golden {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(k.mac(&msg, len as u64 + 3).tag, tag, "len {len}");
        }
    }

    #[test]
    fn mac_roundtrip() {
        let k = key(1);
        let m = k.mac(b"pre-prepare body", 99);
        assert!(k.verify(b"pre-prepare body", 99, &m.tag));
    }

    #[test]
    fn rejects_tampered_message() {
        let k = key(1);
        let m = k.mac(b"payload", 5);
        assert!(!k.verify(b"payloaD", 5, &m.tag));
    }

    #[test]
    fn rejects_wrong_nonce() {
        let k = key(1);
        let m = k.mac(b"payload", 5);
        assert!(!k.verify(b"payload", 6, &m.tag));
    }

    #[test]
    fn rejects_wrong_key() {
        let m = key(1).mac(b"payload", 5);
        assert!(!key(2).verify(b"payload", 5, &m.tag));
    }

    #[test]
    fn empty_message_has_tag() {
        let k = key(7);
        let m = k.mac(b"", 0);
        assert!(k.verify(b"", 0, &m.tag));
        assert!(!k.verify(b"x", 0, &m.tag));
    }

    #[test]
    fn prefix_extension_changes_tag() {
        let k = key(7);
        let short = k.mac(b"abc", 3);
        let long = k.mac(b"abc\0", 3);
        assert_ne!(short.tag, long.tag);
    }

    #[test]
    fn block_boundary_lengths() {
        let k = key(4);
        for len in [
            0usize,
            1,
            7,
            8,
            9,
            NH_BLOCK - 1,
            NH_BLOCK,
            NH_BLOCK + 1,
            3 * NH_BLOCK + 5,
        ] {
            let msg = vec![0x5au8; len];
            let m = k.mac(&msg, len as u64);
            assert!(k.verify(&msg, len as u64, &m.tag), "len {len}");
            if len > 0 {
                let mut bad = msg.clone();
                bad[len / 2] ^= 1;
                assert!(!k.verify(&bad, len as u64, &m.tag), "len {len}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = key(9).mac(b"same", 11);
        let b = key(9).mac(b"same", 11);
        assert_eq!(a, b);
    }

    #[test]
    fn tag_distribution_sanity() {
        // Tags over distinct nonces should not collide for a small sample.
        let k = key(2);
        let mut tags = std::collections::HashSet::new();
        for nonce in 0..256u64 {
            tags.insert(k.mac(b"msg", nonce).tag);
        }
        assert_eq!(tags.len(), 256);
    }
}
