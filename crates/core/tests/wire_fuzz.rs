//! Decoder totality fuzz: every `Wire` decoder, fed arbitrary untrusted
//! bytes, must return `Ok` or `Err` — never panic. This is the dynamic
//! counterpart of the `bft-lint` `decode-panic` rule: the lint proves no
//! panicking *construct* appears in a decode path; this test hammers the
//! decoders with garbage to catch anything the syntactic rule can't see
//! (arithmetic overflow, huge length prefixes, recursion).
//!
//! Every type with an `impl Wire` in `wire.rs` and `messages.rs` is
//! listed here; adding a decoder without covering it should fail review.

use bft_core::messages::*;
use bft_core::wire::Wire;
use bft_crypto::md5::Digest;
use bft_crypto::umac::Mac;
use proptest::prelude::*;

/// Decodes `bytes` as `T` and returns whether it parsed. The value of a
/// successful parse is dropped; the property under test is "no panic,
/// and failure is reported through `Err`".
fn decode_is_total<T: Wire>(bytes: &[u8]) -> bool {
    T::from_bytes(bytes).is_ok()
}

macro_rules! fuzz_decoders {
    ($bytes:expr => $($ty:ty),+ $(,)?) => {
        $(let _ = decode_is_total::<$ty>($bytes);)+
    };
}

proptest! {
    /// Arbitrary bytes through every primitive and composite decoder in
    /// `wire.rs`.
    #[test]
    fn wire_primitives_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        fuzz_decoders!(&bytes =>
            u8, u32, u64, bool,
            Vec<u8>, Vec<u32>, Vec<Vec<u8>>,
            Option<u32>, Option<Vec<u8>>,
            (u32, u64), (u64, Digest),
            Digest, Mac,
        );
    }

    /// Arbitrary bytes through every protocol-message decoder in
    /// `messages.rs`, including the top-level `Msg` envelope a replica
    /// decodes straight off the (simulated) network.
    #[test]
    fn message_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        fuzz_decoders!(&bytes =>
            AuthTag, Request, BatchEntry,
            PrePrepare, Prepare, Commit,
            ReplyBody, Reply,
            Checkpoint, PreparedInfo, ViewChange, NewView,
            FetchState, StateMeta, FetchParts, PartData,
            FetchBatch, FetchRequests, RequestData, BatchData,
            Status, CommittedBatch, NewKey,
            Recover, RecoverAttest,
            Lease, LeaseRenew, LeaseRevoke, Busy,
            Msg,
        );
    }

    /// Truncating a *valid* encoding at every possible point must yield a
    /// clean `Err`, never a panic and never a bogus `Ok` that consumed
    /// the whole prefix as if it were complete.
    #[test]
    fn truncated_valid_encodings_fail_cleanly(
        client in any::<u32>(),
        timestamp in any::<u64>(),
        op in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<usize>(),
    ) {
        let msg = Msg::Request(Request {
            client,
            timestamp,
            op,
            read_only: false,
            replier: 0,
            auth: AuthTag::Mac(Mac { nonce: 7, tag: [9; 8] }),
        });
        let full = msg.to_bytes();
        prop_assert!(Msg::from_bytes(&full).is_ok(), "round trip must hold");
        let cut = cut % full.len(); // strictly less than full.len()
        prop_assert!(
            Msg::from_bytes(&full[..cut]).is_err(),
            "a strict prefix ({cut} of {} bytes) must not decode",
            full.len()
        );
    }

    /// Flipping one byte of a valid encoding must not panic (it may still
    /// decode — MACs, not the codec, reject tampering).
    #[test]
    fn corrupted_valid_encodings_never_panic(
        seed_ts in any::<u64>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let msg = Msg::Commit(Commit {
            view: 3,
            seq: seed_ts,
            batch_digest: Digest([0xAB; 16]),
            replica: 2,
        });
        let mut bytes = msg.to_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        let _ = Msg::from_bytes(&bytes);
    }
}

/// `Vec<u8>` moves its bytes in bulk; the wire bytes must be exactly the
/// per-item encoding (length prefix, then each `u8` encoded on its own),
/// `wire_len` must agree, and the bulk decoder must stay total: every
/// strict prefix is a clean `Truncated`, the whole decodes back.
#[test]
fn bulk_byte_strings_match_the_per_item_encoding() {
    for len in [0usize, 1, 4096] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let mut per_item = Vec::new();
        (len as u64).encode(&mut per_item);
        for b in &bytes {
            b.encode(&mut per_item);
        }
        let bulk = bytes.to_bytes();
        assert_eq!(bulk, per_item, "length {len}");
        assert_eq!(bytes.wire_len(), per_item.len(), "length {len}");
        assert_eq!(Vec::<u8>::from_bytes(&bulk), Ok(bytes), "length {len}");
        for cut in 0..bulk.len() {
            assert_eq!(
                Vec::<u8>::from_bytes(&bulk[..cut]),
                Err(bft_core::wire::WireError::Truncated),
                "length {len} cut at {cut}"
            );
        }
    }
}
