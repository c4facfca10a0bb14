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
//! 3. **Pad derivation**: the final value is XOR-encrypted with an
//!    XTEA-generated pad keyed by the session key and the 64-bit nonce,
//!    producing an 8-byte tag. As in BFT, the (nonce, tag) pair is what
//!    travels in messages; BFT counts 16 bytes per authenticator entry.
//!
//! The NH key is derived from the 128-bit session key via XTEA in counter
//! mode, mirroring UMAC's KDF.

use crate::xtea::Xtea;

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
    cipher: Xtea,
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
        let cipher = Xtea::new(key);
        let mut raw = vec![0u8; (NH_KEY_WORDS + 8) * 4];
        // Domain-separated nonce space for the KDF (top bit set) so the
        // same cipher can also generate tag pads (top bit clear).
        cipher.keystream(1 << 63, &mut raw);
        let mut nh_key = Box::new([0u32; NH_KEY_WORDS + 8]);
        for (i, chunk) in raw.chunks_exact(4).enumerate() {
            nh_key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut poly_raw = [0u8; 8];
        cipher.keystream((1 << 63) | 1, &mut poly_raw);
        // Clamp into the field and avoid the degenerate zero key.
        let poly_key = (u64::from_le_bytes(poly_raw) % (P64 as u64 - 1)) + 1;
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
        let mut pad = [0u8; 8];
        self.cipher.keystream(nonce & !(1 << 63), &mut pad);
        let tag = (hash ^ u64::from_le_bytes(pad)).to_le_bytes();
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

    /// Tags computed with the `% P64` reduction this module used to have.
    #[test]
    fn tags_are_unchanged() {
        let k = key(7);
        let golden: [(usize, [u8; 8]); 8] = [
            (0, [134, 223, 49, 47, 22, 94, 149, 107]),
            (1, [148, 18, 159, 222, 135, 80, 62, 75]),
            (16, [79, 71, 37, 50, 137, 108, 230, 90]),
            (1023, [152, 208, 67, 80, 152, 142, 134, 247]),
            (1024, [2, 23, 43, 252, 243, 17, 13, 255]),
            (1025, [168, 133, 18, 213, 212, 224, 84, 240]),
            (4096, [226, 40, 78, 240, 58, 248, 77, 193]),
            (5000, [215, 127, 159, 219, 132, 202, 104, 184]),
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
