//! Property-based tests: wire-codec round trips for arbitrary protocol
//! messages, batch-digest behaviour, and log/certificate invariants under
//! arbitrary event orders.

use bft_core::checkpoint::CheckpointTracker;
use bft_core::log::Log;
use bft_core::messages::*;
use bft_core::service::{RestoreError, Service};
use bft_core::types::{ClientId, Quorums};
use bft_core::wire::Wire;
use bft_crypto::md5::Digest;
use bft_crypto::umac::Mac;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 16]>().prop_map(Digest)
}

fn arb_mac() -> impl Strategy<Value = Mac> {
    (any::<u64>(), any::<[u8; 8]>()).prop_map(|(nonce, tag)| Mac { nonce, tag })
}

fn arb_auth() -> impl Strategy<Value = AuthTag> {
    prop_oneof![
        Just(AuthTag::None),
        arb_mac().prop_map(AuthTag::Mac),
        proptest::collection::vec((any::<u32>(), arb_mac()), 0..5).prop_map(|entries| {
            AuthTag::Vector(bft_crypto::keychain::Authenticator {
                entries: entries.into(),
            })
        }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..300),
        any::<bool>(),
        any::<u32>(),
        arb_auth(),
    )
        .prop_map(
            |(client, timestamp, op, read_only, replier, auth)| Request {
                client,
                timestamp,
                op,
                read_only,
                replier,
                auth,
            },
        )
}

fn arb_entry() -> impl Strategy<Value = BatchEntry> {
    prop_oneof![
        arb_request().prop_map(BatchEntry::Full),
        (any::<u32>(), any::<u64>(), arb_digest()).prop_map(|(client, timestamp, digest)| {
            BatchEntry::Ref {
                client,
                timestamp,
                digest,
            }
        }),
    ]
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_request().prop_map(Msg::Request),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_entry(), 0..4),
            arb_digest(),
            proptest::collection::vec((any::<u64>(), arb_digest()), 0..3),
        )
            .prop_map(|(view, seq, entries, batch_digest, piggy_commits)| {
                Msg::PrePrepare(PrePrepare {
                    view,
                    seq,
                    entries,
                    batch_digest,
                    piggy_commits,
                })
            }),
        (any::<u64>(), any::<u64>(), arb_digest(), any::<u32>()).prop_map(
            |(view, seq, batch_digest, replica)| Msg::Prepare(Prepare {
                view,
                seq,
                batch_digest,
                replica,
                piggy_commits: vec![],
            })
        ),
        (any::<u64>(), any::<u64>(), arb_digest(), any::<u32>()).prop_map(
            |(view, seq, batch_digest, replica)| Msg::Commit(Commit {
                view,
                seq,
                batch_digest,
                replica,
            })
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..200).prop_map(ReplyBody::Full),
                arb_digest().prop_map(ReplyBody::Digest),
            ],
        )
            .prop_map(|(view, timestamp, client, replica, tentative, body)| {
                Msg::Reply(Reply {
                    view,
                    timestamp,
                    client,
                    replica,
                    tentative,
                    body,
                })
            }),
        (any::<u64>(), arb_digest(), any::<u32>()).prop_map(|(seq, state_digest, replica)| {
            Msg::Checkpoint(Checkpoint {
                seq,
                state_digest,
                replica,
            })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            arb_digest(),
            proptest::collection::vec(
                (any::<u64>(), any::<u64>(), arb_digest()).prop_map(|(seq, view, batch_digest)| {
                    PreparedInfo {
                        seq,
                        view,
                        batch_digest,
                    }
                }),
                0..4,
            ),
            any::<u32>(),
        )
            .prop_map(
                |(new_view, last_stable, stable_digest, prepared, replica)| {
                    Msg::ViewChange(ViewChange {
                        new_view,
                        last_stable,
                        stable_digest,
                        prepared,
                        replica,
                    })
                }
            ),
        any::<u64>().prop_map(|seq| Msg::FetchState(FetchState { seq })),
        (any::<u64>(), proptest::collection::vec(arb_digest(), 0..6))
            .prop_map(|(seq, leaves)| Msg::StateMeta(StateMeta { seq, leaves })),
        (any::<u64>(), proptest::collection::vec(any::<u32>(), 0..6))
            .prop_map(|(seq, parts)| Msg::FetchParts(FetchParts { seq, parts })),
        (
            any::<u64>(),
            proptest::collection::vec(
                (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..100)),
                0..4
            )
        )
            .prop_map(|(seq, parts)| Msg::PartData(PartData { seq, parts })),
        (any::<u64>(), arb_digest())
            .prop_map(|(seq, batch_digest)| Msg::FetchBatch(FetchBatch { seq, batch_digest })),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(view, last_stable, last_executed)| {
                Msg::Status(Status {
                    view,
                    last_stable,
                    last_executed,
                })
            }
        ),
        (
            any::<u64>(),
            arb_digest(),
            proptest::collection::vec(arb_entry(), 0..3)
        )
            .prop_map(
                |(seq, batch_digest, entries)| Msg::CommittedBatch(CommittedBatch {
                    seq,
                    batch_digest,
                    entries,
                })
            ),
        proptest::collection::vec(arb_digest(), 0..4)
            .prop_map(|digests| Msg::FetchRequests(FetchRequests { digests })),
        proptest::collection::vec(arb_request(), 0..3)
            .prop_map(|requests| Msg::RequestData(RequestData { requests })),
        (any::<u32>(), any::<u64>())
            .prop_map(|(replica, epoch)| Msg::NewKey(NewKey { replica, epoch })),
    ]
}

proptest! {
    /// Every message survives an encode/decode round trip byte-exactly.
    #[test]
    fn msg_roundtrip(msg in arb_msg()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(Msg::from_bytes(&bytes).expect("decodes"), msg);
    }

    /// Decoding never panics on arbitrary bytes (it may error).
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Msg::from_bytes(&bytes);
    }

    /// Truncating a valid encoding is always detected.
    #[test]
    fn truncation_always_detected(msg in arb_msg(), cut in any::<usize>()) {
        let bytes = msg.to_bytes();
        prop_assume!(bytes.len() > 1);
        let cut = 1 + cut % (bytes.len() - 1);
        let result = Msg::from_bytes(&bytes[..cut]);
        // Either an error, or (rarely) a prefix that happens to decode to
        // a *different* message; it must never equal the original.
        if let Ok(decoded) = result {
            prop_assert_ne!(decoded, msg);
        }
    }

    /// The batch digest commits to content and order.
    #[test]
    fn batch_digest_commits_to_order(entries in proptest::collection::vec(arb_entry(), 2..6)) {
        let d = batch_digest(&entries);
        let mut rotated = entries.clone();
        rotated.rotate_left(1);
        if rotated != entries {
            prop_assert_ne!(batch_digest(&rotated), d);
        }
        prop_assert_eq!(batch_digest(&entries), d, "deterministic");
    }

    /// Full and Ref forms of the same request produce the same digest.
    #[test]
    fn entry_forms_agree(req in arb_request()) {
        let full = BatchEntry::Full(req.clone());
        let by_ref = BatchEntry::Ref {
            client: req.client,
            timestamp: req.timestamp,
            digest: req.digest(),
        };
        prop_assert_eq!(batch_digest(&[full]), batch_digest(&[by_ref]));
    }
}

// ---------------------------------------------------------------------
// Incremental partitioned checkpoint digests
// ---------------------------------------------------------------------

/// A partition-aware test service: eight `u64` registers, one per
/// partition, with full undo, snapshot/restore, and dirty tracking.
#[derive(Debug, Clone, Default)]
struct ShardedKv {
    slots: [u64; 8],
    dirty: std::collections::BTreeSet<u32>,
    undo: Vec<(usize, u64)>,
}

impl ShardedKv {
    fn slot_digest(p: u32, value: u64) -> Digest {
        bft_crypto::md5::digest_parts(&[b"KV", &p.to_le_bytes(), &value.to_le_bytes()])
    }
}

impl Service for ShardedKv {
    fn execute(&mut self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        let slot = usize::from(op.first().copied().unwrap_or(0)) % 8;
        let val = u64::from(op.get(1).copied().unwrap_or(0));
        self.undo.push((slot, self.slots[slot]));
        self.slots[slot] = self.slots[slot].wrapping_mul(31).wrapping_add(val);
        self.dirty.insert(slot as u32);
        Vec::new()
    }

    fn execute_read_only(&self, _client: ClientId, _op: &[u8]) -> Vec<u8> {
        Vec::new()
    }

    fn is_read_only(&self, _op: &[u8]) -> bool {
        false
    }

    fn state_digest(&self) -> Digest {
        CheckpointTracker::root_of(&(0..8).map(|p| self.partition_digest(p)).collect::<Vec<_>>())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.slots.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        if snapshot.len() != 64 {
            return Err(RestoreError("bad length".into()));
        }
        for (i, chunk) in snapshot.chunks_exact(8).enumerate() {
            self.slots[i] = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        self.undo.clear();
        self.dirty = (0..8).collect();
        Ok(())
    }

    fn commit_prefix(&mut self, ops: usize) {
        let n = ops.min(self.undo.len());
        self.undo.drain(..n);
    }

    fn rollback_suffix(&mut self, ops: usize) {
        for _ in 0..ops {
            let Some((slot, prev)) = self.undo.pop() else {
                break;
            };
            self.slots[slot] = prev;
            self.dirty.insert(slot as u32);
        }
    }

    fn partition_count(&self) -> u32 {
        8
    }

    fn partition_digest(&self, p: u32) -> Digest {
        Self::slot_digest(p, self.slots[p as usize])
    }

    fn partition_snapshot(&self, p: u32) -> Vec<u8> {
        self.slots[p as usize].to_le_bytes().to_vec()
    }

    fn take_dirty_partitions(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    fn restore_partition(
        &mut self,
        p: u32,
        bytes: &[u8],
        expect: &Digest,
    ) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad length".into()))?;
        let value = u64::from_le_bytes(arr);
        if Self::slot_digest(p, value) != *expect {
            return Err(RestoreError("partition digest mismatch".into()));
        }
        self.slots[p as usize] = value;
        self.dirty.insert(p);
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum KvEvent {
    Exec { slot: u8, val: u8 },
    Commit(usize),
    Rollback(usize),
    CacheByte(u8),
    Refresh,
    SnapshotRestore,
    PartitionTransfer { p: u32 },
}

fn arb_kv_event() -> impl Strategy<Value = KvEvent> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(slot, val)| KvEvent::Exec { slot, val }),
        1 => (0usize..4).prop_map(KvEvent::Commit),
        1 => (0usize..4).prop_map(KvEvent::Rollback),
        1 => any::<u8>().prop_map(KvEvent::CacheByte),
        2 => Just(KvEvent::Refresh),
        1 => Just(KvEvent::SnapshotRestore),
        1 => (0u32..8).prop_map(|p| KvEvent::PartitionTransfer { p }),
    ]
}

proptest! {
    /// The incrementally maintained partitioned digest tree always agrees
    /// with a from-scratch recompute, under arbitrary interleavings of
    /// execution, rollback, snapshot/restore, partition transfer, and
    /// reply-cache changes.
    #[test]
    fn incremental_digest_matches_full_recompute(
        events in proptest::collection::vec(arb_kv_event(), 0..80),
    ) {
        let mut svc = ShardedKv::default();
        let mut donor = ShardedKv::default();
        donor.execute(1, &[3, 200]);
        let mut cache: Vec<u8> = Vec::new();
        svc.take_dirty_partitions();
        let mut tracker = CheckpointTracker::new(&svc, &cache);
        prop_assert_eq!(tracker.partition_count(), 8);
        for ev in events {
            match ev {
                KvEvent::Exec { slot, val } => {
                    svc.execute(1, &[slot, val]);
                }
                KvEvent::Commit(n) => svc.commit_prefix(n),
                KvEvent::Rollback(n) => svc.rollback_suffix(n),
                KvEvent::CacheByte(b) => cache.push(b),
                KvEvent::SnapshotRestore => {
                    let snap = svc.snapshot();
                    svc.restore(&snap).expect("own snapshot restores");
                }
                KvEvent::PartitionTransfer { p } => {
                    let bytes = donor.partition_snapshot(p);
                    svc.restore_partition(p, &bytes, &donor.partition_digest(p))
                        .expect("verified partition restores");
                }
                KvEvent::Refresh => {
                    let stats = tracker.refresh(&mut svc, &cache);
                    let fresh = CheckpointTracker::new(&svc, &cache);
                    prop_assert_eq!(tracker.root(), fresh.root(), "incremental == full");
                    prop_assert_eq!(stats.root, tracker.root());
                    prop_assert_eq!(tracker.leaves(), fresh.leaves());
                }
            }
        }
        // Whatever the trailing events were, one refresh reconverges.
        tracker.refresh(&mut svc, &cache);
        let fresh = CheckpointTracker::new(&svc, &cache);
        prop_assert_eq!(tracker.root(), fresh.root());
        // And a second refresh with nothing dirty re-digests nothing.
        let stats = tracker.refresh(&mut svc, &cache);
        prop_assert_eq!(stats.dirty_parts, 0);
    }
}

// ---------------------------------------------------------------------
// Log / certificate invariants
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LogEvent {
    Prepare { seq: u64, replica: u32, tag: u8 },
    Commit { seq: u64, replica: u32, tag: u8 },
    PrePrepare { seq: u64, tag: u8 },
    Gc { to: u64 },
}

fn arb_log_event() -> impl Strategy<Value = LogEvent> {
    prop_oneof![
        (1u64..40, 0u32..4, 0u8..3).prop_map(|(seq, replica, tag)| LogEvent::Prepare {
            seq,
            replica,
            tag
        }),
        (1u64..40, 0u32..4, 0u8..3).prop_map(|(seq, replica, tag)| LogEvent::Commit {
            seq,
            replica,
            tag
        }),
        (1u64..40, 0u8..3).prop_map(|(seq, tag)| LogEvent::PrePrepare { seq, tag }),
        (0u64..60).prop_map(|to| LogEvent::Gc { to }),
    ]
}

proptest! {
    /// Under any event order: prepared/committed only ever hold with a
    /// matching pre-prepare; GC never resurrects slots; committed ⊆
    /// prepared; a slot's votes hold one digest per sender, the latest,
    /// and iterate in sender order.
    #[test]
    fn log_invariants_under_arbitrary_orders(events in proptest::collection::vec(arb_log_event(), 0..120)) {
        let q = Quorums::minimal(1);
        let mut log = Log::new(256);
        let d = |t: u8| bft_crypto::digest(&[t]);
        for ev in events {
            match ev {
                LogEvent::PrePrepare { seq, tag } => {
                    if log.in_window(seq) {
                        let slot = log.slot_mut(seq);
                        if slot.digest.is_none() {
                            slot.digest = Some(d(tag));
                            slot.requests = Some(vec![]);
                        }
                    }
                }
                LogEvent::Prepare { seq, replica, tag } => {
                    if log.in_window(seq) {
                        let votes = &mut log.slot_mut(seq).prepares;
                        votes.insert(replica, d(tag));
                        prop_assert!(votes.iter().any(|v| v == (replica, d(tag))), "the latest vote stands");
                    }
                }
                LogEvent::Commit { seq, replica, tag } => {
                    if log.in_window(seq) {
                        let votes = &mut log.slot_mut(seq).commits;
                        votes.insert(replica, d(tag));
                        prop_assert!(votes.iter().any(|v| v == (replica, d(tag))), "the latest vote stands");
                    }
                }
                LogEvent::Gc { to } => drop(log.collect_garbage(to)),
            }
            // Invariants after every step.
            for (seq, slot) in log.iter() {
                prop_assert!(log.in_window(seq));
                for votes in [&slot.prepares, &slot.commits] {
                    let senders: Vec<u32> = votes.iter().map(|(r, _)| r).collect();
                    prop_assert!(senders.windows(2).all(|w| w[0] < w[1]), "one vote per sender, in order");
                    prop_assert_eq!(senders.len(), votes.len());
                    prop_assert!(senders.iter().all(|&r| r < q.n));
                }
                if slot.committed(&q) {
                    prop_assert!(slot.prepared(&q), "committed implies prepared");
                }
                if slot.prepared(&q) {
                    prop_assert!(slot.digest.is_some(), "prepared implies pre-prepare");
                    let d = slot.digest.expect("checked");
                    let primary = q.primary(slot.view);
                    let matching = slot
                        .prepares
                        .iter()
                        .filter(|&(r, pd)| r != primary && pd == d)
                        .count();
                    prop_assert!(matching >= 2, "2f matching prepares");
                    prop_assert_eq!(matching, slot.prepares.count(Some(primary), |pd| *pd == d));
                }
            }
        }
    }

    /// Two logs fed the same events in the same order agree exactly.
    #[test]
    fn log_is_deterministic(events in proptest::collection::vec(arb_log_event(), 0..60)) {
        let apply = |events: &[LogEvent]| {
            let mut log = Log::new(256);
            let d = |t: u8| bft_crypto::digest(&[t]);
            for ev in events {
                match *ev {
                    LogEvent::PrePrepare { seq, tag } => {
                        if log.in_window(seq) {
                            log.slot_mut(seq).digest.get_or_insert(d(tag));
                        }
                    }
                    LogEvent::Prepare { seq, replica, tag } => {
                        if log.in_window(seq) {
                            log.slot_mut(seq).prepares.insert(replica, d(tag));
                        }
                    }
                    LogEvent::Commit { seq, replica, tag } => {
                        if log.in_window(seq) {
                            log.slot_mut(seq).commits.insert(replica, d(tag));
                        }
                    }
                    LogEvent::Gc { to } => drop(log.collect_garbage(to)),
                }
            }
            (log.low(), log.len())
        };
        prop_assert_eq!(apply(&events), apply(&events));
    }
}
