//! Property-based tests for the crypto substrate.

use bft_crypto::bignum::UBig;
use bft_crypto::md5::{digest, Md5};
use bft_crypto::umac::MacKey;
use proptest::prelude::*;

proptest! {
    /// Incremental MD5 must equal one-shot MD5 for any chunking, at a
    /// random length and at every length where the padding changes shape
    /// (empty, one short of / exactly / past the 56-byte length slot, each
    /// side of a block boundary, and again one block on).
    #[test]
    fn md5_incremental_matches_oneshot(
        data in proptest::collection::vec(any::<u8>(), 4096..4097),
        len in 0usize..4096,
        splits in proptest::collection::vec(0usize..4097, 0..8),
    ) {
        for len in [len, 0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 4096] {
            let data = &data[..len];
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (len + 1)).collect();
            cuts.sort_unstable();
            let mut ctx = Md5::new();
            let mut prev = 0;
            for &cut in &cuts {
                ctx.update(&data[prev..cut]);
                prev = cut;
            }
            ctx.update(&data[prev..]);
            prop_assert_eq!(ctx.finish(), digest(data), "length {}", len);
        }
    }

    /// Distinct inputs virtually never collide (sanity, not a proof).
    #[test]
    fn md5_distinguishes_appended_byte(data in proptest::collection::vec(any::<u8>(), 0..512), extra in any::<u8>()) {
        let mut longer = data.clone();
        longer.push(extra);
        prop_assert_ne!(digest(&data), digest(&longer));
    }

    /// A MAC verifies for the exact message and fails for any bit flip.
    #[test]
    fn umac_detects_any_single_bit_flip(
        key in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..512),
        nonce in any::<u64>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let k = MacKey::from_bytes(key);
        let mac = k.mac(&msg, nonce);
        prop_assert!(k.verify(&msg, nonce, &mac.tag));
        let mut tampered = msg.clone();
        let i = flip_byte % tampered.len();
        tampered[i] ^= 1 << flip_bit;
        prop_assert!(!k.verify(&tampered, nonce, &mac.tag));
    }

    /// MACs under different keys do not verify.
    #[test]
    fn umac_rejects_other_keys(
        k1 in any::<[u8; 16]>(),
        k2 in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        nonce in any::<u64>(),
    ) {
        prop_assume!(k1 != k2);
        let mac = MacKey::from_bytes(k1).mac(&msg, nonce);
        prop_assert!(!MacKey::from_bytes(k2).verify(&msg, nonce, &mac.tag));
    }

    /// Bignum arithmetic agrees with u128 where both are defined.
    #[test]
    fn bignum_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (ba, bb) = (UBig::from(a), UBig::from(b));
        // add
        let sum = a as u128 + b as u128;
        prop_assert_eq!(ba.add(&bb).to_bytes_be(), u128_bytes(sum));
        // mul
        let prod = a as u128 * b as u128;
        prop_assert_eq!(ba.mul(&bb).to_bytes_be(), u128_bytes(prod));
        // div/rem
        if let (Some(q_ref), Some(r_ref)) = (a.checked_div(b), a.checked_rem(b)) {
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q.to_bytes_be(), u128_bytes(q_ref as u128));
            prop_assert_eq!(r.to_bytes_be(), u128_bytes(r_ref as u128));
        }
        // sub (ordered)
        if a >= b {
            prop_assert_eq!(ba.sub(&bb).to_bytes_be(), u128_bytes((a - b) as u128));
        }
    }

    /// Byte-string round trip is the identity (modulo leading zeros).
    #[test]
    fn bignum_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = UBig::from_bytes_be(&bytes);
        let out = n.to_bytes_be();
        let mut trimmed = bytes.clone();
        while trimmed.first() == Some(&0) {
            trimmed.remove(0);
        }
        prop_assert_eq!(out, trimmed);
    }

    /// Shifts are inverses and match u128 semantics.
    #[test]
    fn bignum_shifts(a in any::<u64>(), shift in 0usize..48) {
        let n = UBig::from(a);
        prop_assert_eq!(n.shl(shift).shr(shift).to_bytes_be(), n.to_bytes_be());
        let shifted = (a as u128) << shift;
        prop_assert_eq!(n.shl(shift).to_bytes_be(), u128_bytes(shifted));
    }

    /// mod_pow matches a naive implementation for small operands.
    #[test]
    fn bignum_mod_pow_matches_naive(base in 0u64..1000, exp in 0u64..40, modulus in 2u64..10_000) {
        let want = naive_mod_pow(base as u128, exp, modulus as u128);
        let got = UBig::from(base).mod_pow(&UBig::from(exp), &UBig::from(modulus));
        prop_assert_eq!(got.to_bytes_be(), u128_bytes(want));
    }
}

fn u128_bytes(v: u128) -> Vec<u8> {
    let bytes = v.to_be_bytes().to_vec();
    let mut out = bytes;
    while out.first() == Some(&0) {
        out.remove(0);
    }
    out
}

fn naive_mod_pow(mut base: u128, exp: u64, modulus: u128) -> u128 {
    let mut result = 1u128 % modulus;
    base %= modulus;
    for _ in 0..exp {
        result = result * base % modulus;
    }
    result
}
