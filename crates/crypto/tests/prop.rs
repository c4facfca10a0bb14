//! Property-based tests for the crypto substrate.

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
}
