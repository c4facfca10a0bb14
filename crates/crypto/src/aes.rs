//! AES-128 encryption (FIPS-197), the block cipher UMAC specifies.
//!
//! UMAC needs a pseudo-random function to turn the universal-hash output
//! into a tag and to derive its own key material; RFC 4418 uses AES-128
//! for both. Only the forward direction is needed, so there is no
//! decryption.
//!
//! The key is expanded once, in software. [`Aes128::encrypt`] then runs
//! the ten rounds with the AES-NI instructions when the CPU reports them
//! (`is_x86_feature_detected!("aes")` on `x86_64`), and otherwise with
//! [`Aes128::encrypt_soft`], a plain byte-wise transcription of the
//! standard that is also the tests' reference. Both paths consume the same
//! round keys and produce the same ciphertext; the CPU picks the path.

/// Rounds of AES-128.
const ROUNDS: usize = 10;

/// `a · x` in GF(2⁸) modulo the AES polynomial x⁸ + x⁴ + x³ + x + 1.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 }
}

/// `a · b` in GF(2⁸).
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// The S-box (FIPS-197 §5.1.1): the multiplicative inverse `x²⁵⁴`
/// followed by the affine map, computed at compile time rather than
/// transcribed.
const SBOX: [u8; 256] = {
    let mut sbox = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        // x²⁵⁴ = x² · x⁴ · … · x¹²⁸; 0 maps to 0.
        let (mut square, mut inv) = (x as u8, 1u8);
        let mut i = 0;
        while i < 7 {
            square = gmul(square, square);
            inv = gmul(inv, square);
            i += 1;
        }
        sbox[x] = inv
            ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63;
        x += 1;
    }
    sbox
};

/// An expanded AES-128 key: the eleven round keys, as the bytes of
/// `w[4r..4r+4]` (FIPS-197 §5.2) in order.
#[derive(Clone)]
pub(crate) struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes128(…)")
    }
}

impl Aes128 {
    /// Expands a 128-bit key (FIPS-197 §5.2).
    pub(crate) fn new(key: [u8; 16]) -> Aes128 {
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        round_keys[0] = key;
        let mut rcon = 1u8;
        for r in 1..=ROUNDS {
            let prev = round_keys[r - 1];
            // temp = SubWord(RotWord(w[i-1])) ⊕ Rcon for the first word of
            // each round key, then w[i] = w[i-4] ⊕ w[i-1] along the row.
            let mut temp = [prev[13], prev[14], prev[15], prev[12]].map(|b| SBOX[b as usize]);
            temp[0] ^= rcon;
            rcon = xtime(rcon);
            let mut next = [0u8; 16];
            for word in 0..4 {
                for byte in 0..4 {
                    temp[byte] ^= prev[4 * word + byte];
                    next[4 * word + byte] = temp[byte];
                }
            }
            round_keys[r] = next;
        }
        Aes128 { round_keys }
    }

    /// Encrypts one block: with AES-NI when the CPU has it, otherwise in
    /// software.
    #[inline]
    pub(crate) fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("aes") {
            // SAFETY: `encrypt_ni` only requires the `aes` target feature,
            // and `is_x86_feature_detected!("aes")` just reported that
            // this CPU has it.
            let out = unsafe { encrypt_ni(&self.round_keys, u128::from_le_bytes(block)) };
            return out.to_le_bytes();
        }
        self.encrypt_soft(block)
    }

    /// Encrypts one block with the byte-wise cipher of FIPS-197 §5.1.
    pub(crate) fn encrypt_soft(&self, block: [u8; 16]) -> [u8; 16] {
        let mut state = block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round_key in &self.round_keys[1..ROUNDS] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, round_key);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
    }
}

// The state is column-major, as in FIPS-197 §3.4: byte `r + 4c` is row
// `r` of column `c`.

fn add_round_key(state: &mut [u8; 16], round_key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(round_key) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

/// Row `r` rotates left by `r` columns.
fn shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for c in 0..4 {
        for r in 0..4 {
            state[r + 4 * c] = old[r + 4 * ((c + r) % 4)];
        }
    }
}

/// Each column is multiplied by `{03}x³ + {01}x² + {01}x + {02}`.
fn mix_columns(state: &mut [u8; 16]) {
    for column in state.chunks_exact_mut(4) {
        let a = [column[0], column[1], column[2], column[3]];
        let all = a[0] ^ a[1] ^ a[2] ^ a[3];
        for r in 0..4 {
            column[r] = a[r] ^ all ^ xtime(a[r] ^ a[(r + 1) % 4]);
        }
    }
}

/// The ten rounds with AES-NI: one `aesenc` per middle round and
/// `aesenclast` for the last, over the software-expanded round keys.
///
/// The block goes in and out as a `u128`, in registers. The caller has
/// just built it, so reading it from memory with one 16-byte load would
/// stall on the narrower stores that wrote it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes")]
fn encrypt_ni(round_keys: &[[u8; 16]; ROUNDS + 1], block: u128) -> u128 {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_loadu_si128,
        _mm_set_epi64x, _mm_unpackhi_epi64, _mm_xor_si128,
    };
    // SAFETY: `_mm_loadu_si128` reads 16 bytes with no alignment
    // requirement, and every pointer here is to a `[u8; 16]`.
    let load = |bytes: &[u8; 16]| unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
    let block = _mm_set_epi64x((block >> 64) as i64, block as i64);
    let mut state = _mm_xor_si128(block, load(&round_keys[0]));
    for round_key in &round_keys[1..ROUNDS] {
        state = _mm_aesenc_si128(state, load(round_key));
    }
    state = _mm_aesenclast_si128(state, load(&round_keys[ROUNDS]));
    let lo = _mm_cvtsi128_si64(state) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(state, state)) as u64;
    u128::from(hi) << 64 | u128::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn hex(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit pair");
        }
        out
    }

    /// `(key, plaintext, ciphertext)` from FIPS-197 Appendix B and C.1.
    const KNOWN_ANSWERS: [(&str, &str, &str); 2] = [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
    ];

    fn hardware_path() -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("aes") {
            return true;
        }
        false
    }

    #[test]
    fn sbox_matches_the_standard() {
        // FIPS-197 Figure 7, spot values including both ends.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        let mut seen = [false; 256];
        for &s in &SBOX {
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "the S-box is a permutation");
    }

    #[test]
    fn key_expansion_matches_appendix_a1() {
        let aes = Aes128::new(hex(KNOWN_ANSWERS[0].0));
        assert_eq!(aes.round_keys[1], hex("a0fafe1788542cb123a339392a6c7605"));
        assert_eq!(
            aes.round_keys[ROUNDS],
            hex("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
    }

    #[test]
    fn known_answers_on_both_paths() {
        for (key, plain, cipher) in KNOWN_ANSWERS {
            let aes = Aes128::new(hex(key));
            assert_eq!(
                aes.encrypt_soft(hex(plain)),
                hex(cipher),
                "software, key {key}"
            );
            assert_eq!(aes.encrypt(hex(plain)), hex(cipher), "encrypt, key {key}");
        }
    }

    #[test]
    fn hardware_and_software_paths_agree() {
        if !hardware_path() {
            println!("no AES-NI on this CPU: compared the software path with itself");
        }
        let mut rng = StdRng::seed_from_u64(197);
        for _ in 0..10_000 {
            let (mut key, mut block) = ([0u8; 16], [0u8; 16]);
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            let aes = Aes128::new(key);
            assert_eq!(aes.encrypt(block), aes.encrypt_soft(block), "key {key:?}");
        }
    }

    #[test]
    fn debug_hides_key() {
        let aes = Aes128::new([0xff; 16]);
        assert_eq!(format!("{aes:?}"), "Aes128(…)");
    }
}
