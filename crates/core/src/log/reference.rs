//! The log the replica had before the slot ring and the vote table — a
//! `BTreeMap` of slots keyed by sequence number, each with two
//! `BTreeMap<ReplicaId, Digest>` vote sets — kept as the model the log is
//! held to.
//!
//! Only what decides certificates and batch bookkeeping is kept: the
//! slot fields the predicates and the window operations read or write,
//! the predicates themselves, and every window operation. The
//! differential test drives this log and [`super::Log`] with one random
//! sequence of pre-prepares, votes and window moves and requires the same
//! slots, the same certificates and the same released batches after
//! every step.

#![cfg(test)]

use super::RequestRef;
use crate::messages::Request;
use crate::types::{Quorums, ReplicaId, SeqNum, View};
use bft_crypto::md5::Digest;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Protocol state for one sequence number, votes in ordered maps.
#[derive(Debug, Clone, Default)]
pub(super) struct Slot {
    pub view: View,
    pub digest: Option<Digest>,
    pub requests: Option<Vec<Arc<Request>>>,
    pub entries: Option<Vec<RequestRef>>,
    pub prepares: BTreeMap<ReplicaId, Digest>,
    pub commits: BTreeMap<ReplicaId, Digest>,
    pub executed_tentative: bool,
    pub executed_final: bool,
    pub is_null: bool,
    pub force_committed: bool,
    pub fast_committed: bool,
}

impl Slot {
    pub fn has_pre_prepare(&self) -> bool {
        self.digest.is_some()
    }

    pub fn prepared(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        let primary = q.primary(self.view);
        let matching = self
            .prepares
            .iter()
            .filter(|&(&r, &pd)| r != primary && pd == d)
            .count();
        matching >= q.prepare_quorum()
    }

    pub fn committed(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        if self.force_committed || self.fast_committed {
            return true;
        }
        if !self.prepared(q) {
            return false;
        }
        let matching = self.commits.values().filter(|&&cd| cd == d).count();
        matching >= q.commit_quorum()
    }

    pub fn take_batch(&mut self) -> Option<Vec<RequestRef>> {
        self.requests = None;
        self.entries.take()
    }

    fn fast_votes(&self, q: &Quorums) -> usize {
        let Some(d) = self.digest else { return 0 };
        let primary = q.primary(self.view);
        1 + self
            .prepares
            .iter()
            .filter(|&(&r, &pd)| r != primary && pd == d)
            .count()
    }

    pub fn fast_quorum_complete(&self, q: &Quorums) -> bool {
        self.fast_votes(q) >= q.fast_quorum()
    }

    pub fn fast_quorum_unreachable(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        let primary = q.primary(self.view);
        let conflicting = self
            .prepares
            .iter()
            .filter(|&(&r, &pd)| r != primary && pd != d)
            .count();
        q.n as usize - conflicting < q.fast_quorum()
    }
}

/// Slots between the low water mark (exclusive) and `low + window`.
#[derive(Debug, Clone)]
pub(super) struct Log {
    slots: BTreeMap<SeqNum, Slot>,
    low: SeqNum,
    window: u64,
}

impl Log {
    pub fn new(window: u64) -> Log {
        Log {
            slots: BTreeMap::new(),
            low: 0,
            window,
        }
    }

    pub fn low(&self) -> SeqNum {
        self.low
    }

    pub fn in_window(&self, seq: SeqNum) -> bool {
        seq > self.low && seq <= self.low + self.window
    }

    pub fn slot_mut(&mut self, seq: SeqNum) -> &mut Slot {
        assert!(self.in_window(seq), "seq {seq} outside the window");
        self.slots.entry(seq).or_default()
    }

    pub fn slot(&self, seq: SeqNum) -> Option<&Slot> {
        self.slots.get(&seq)
    }

    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, &Slot)> {
        self.slots.iter().map(|(&s, slot)| (s, slot))
    }

    pub fn collect_garbage(&mut self, new_low: SeqNum) -> Vec<(SeqNum, Vec<RequestRef>)> {
        if new_low <= self.low {
            return Vec::new();
        }
        self.low = new_low;
        let kept = self.slots.split_off(&(new_low + 1));
        let dropped = std::mem::replace(&mut self.slots, kept);
        dropped
            .into_iter()
            .filter_map(|(seq, slot)| slot.entries.map(|e| (seq, e)))
            .collect()
    }

    pub fn reset_for_view(&mut self) {
        for slot in self.slots.values_mut() {
            slot.digest = None;
            slot.prepares.clear();
            slot.commits.clear();
            slot.force_committed = false;
            slot.fast_committed = false;
        }
    }

    pub fn void_batches(&mut self) -> Vec<(SeqNum, Vec<RequestRef>)> {
        self.slots
            .iter_mut()
            .filter(|(_, slot)| slot.digest.is_none())
            .filter_map(|(&seq, slot)| slot.take_batch().map(|e| (seq, e)))
            .collect()
    }

    pub fn clear_executed_above(&mut self, seq: SeqNum) {
        for (&s, slot) in self.slots.iter_mut() {
            if s > seq {
                slot.executed_tentative = false;
                slot.executed_final = false;
            }
        }
    }

    pub fn reset_keep_certs(&mut self, low: SeqNum) -> Vec<(SeqNum, Vec<RequestRef>)> {
        let mut gone = Vec::new();
        self.slots.retain(|&s, slot| {
            let keep = s > low && slot.has_pre_prepare();
            if !keep {
                gone.extend(slot.take_batch().map(|e| (s, e)));
            }
            keep
        });
        for (&s, slot) in self.slots.iter_mut() {
            let batch_ok = slot.is_null
                || slot.entries.as_deref().is_some_and(|entries| {
                    Some(RequestRef::batch_digest(entries)) == slot.digest
                        && slot
                            .requests
                            .iter()
                            .flatten()
                            .zip(entries)
                            .all(|(r, e)| r.digest() == e.digest)
                });
            if !batch_ok {
                gone.extend(slot.take_batch().map(|e| (s, e)));
            }
        }
        self.low = low;
        gone
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }
}

mod differential {
    use super::super::tests::body;
    use super::super::{Log, RequestRef};
    use crate::types::{Quorums, ReplicaId, SeqNum, View};
    use bft_crypto::md5::Digest;
    use proptest::prelude::*;

    /// The window the differential runs in: small, so the operations
    /// below move it often.
    const WINDOW: u64 = 8;

    /// One step applied to both logs. Sequence numbers are offsets from
    /// the low water mark, so most steps land in the window whatever
    /// moved it: offset 0 is the low water mark itself, offsets above
    /// [`WINDOW`] are past the high one.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Accept a pre-prepare at `seq` in `view` unless one is accepted:
        /// a one-request batch whose references and body are `batch`'s,
        /// under a digest that matches them unless `wrong_digest`, with
        /// the body known unless `no_body`, or another client's body if
        /// `wrong_body`; or a null batch.
        PrePrepare {
            seq: SeqNum,
            view: View,
            batch: u8,
            null: bool,
            wrong_digest: bool,
            no_body: bool,
            wrong_body: bool,
        },
        /// Replica `from` votes `tag` at `seq` — a prepare or a commit.
        Vote {
            seq: SeqNum,
            from: ReplicaId,
            tag: u8,
            commit: bool,
        },
        /// Execution and fast-path markers a replica sets on a slot.
        Mark {
            seq: SeqNum,
            executed: bool,
            fast_committed: bool,
            force_committed: bool,
        },
        /// Garbage-collect this far above the low water mark.
        Gc(SeqNum),
        ResetForView,
        VoidBatches,
        ClearExecutedAbove(SeqNum),
        /// Restart the window this far below (`true`) or above the low
        /// water mark.
        ResetKeepCerts(bool, SeqNum),
    }

    fn arb_op() -> BoxedStrategy<Op> {
        let seq = || 0..WINDOW + 3;
        let vote = || {
            (seq(), 0u32..7, 0u8..3, any::<bool>())
                .prop_map(|(seq, from, tag, commit)| Op::Vote {
                    seq,
                    from,
                    tag,
                    commit,
                })
                .boxed()
        };
        let pre_prepare = || {
            (seq(), 0u64..3, 0u8..3, 0u8..8, 0u8..8)
                .prop_map(|(seq, view, batch, a, b)| Op::PrePrepare {
                    seq,
                    view,
                    batch,
                    null: a == 0,
                    wrong_digest: a == 1,
                    no_body: b == 0,
                    wrong_body: b == 1,
                })
                .boxed()
        };
        // Arms are drawn uniformly: repeating one weights it.
        prop_oneof![
            pre_prepare(),
            pre_prepare(),
            vote(),
            vote(),
            vote(),
            vote(),
            vote(),
            vote(),
            (seq(), any::<bool>(), 0u8..4, 0u8..8).prop_map(|(seq, executed, fast, force)| {
                Op::Mark {
                    seq,
                    executed,
                    fast_committed: fast == 0,
                    force_committed: force == 0,
                }
            }),
            (0..WINDOW / 2).prop_map(Op::Gc),
            Just(Op::ResetForView),
            Just(Op::VoidBatches),
            seq().prop_map(Op::ClearExecutedAbove),
            (any::<bool>(), 0..WINDOW / 2).prop_map(|(below, by)| Op::ResetKeepCerts(below, by)),
        ]
        .boxed()
    }

    fn tag_digest(tag: u8) -> Digest {
        bft_crypto::digest(&[tag])
    }

    /// Applies `op` to `log` — either log: the two share every name the
    /// replica uses — and returns the batches it released, if it is an
    /// operation that releases any. Votes from outside the group are not
    /// sent: the replica drops them before they reach a slot.
    macro_rules! apply {
        ($log:expr, $op:expr, $q:expr) => {{
            let log = &mut $log;
            let low = log.low();
            match $op {
                Op::PrePrepare {
                    seq,
                    view,
                    batch,
                    null,
                    wrong_digest,
                    no_body,
                    wrong_body,
                } => {
                    let seq = low + seq;
                    if log.in_window(seq) && !log.slot_mut(seq).has_pre_prepare() {
                        let slot = log.slot_mut(seq);
                        slot.view = view;
                        slot.entries = None;
                        slot.requests = None;
                        if null {
                            slot.is_null = true;
                            slot.digest = Some(crate::messages::NULL_DIGEST);
                        } else {
                            let (entry, req) = body(u64::from(batch));
                            let entries = vec![entry];
                            slot.digest = Some(if wrong_digest {
                                tag_digest(batch)
                            } else {
                                RequestRef::batch_digest(&entries)
                            });
                            slot.entries = Some(entries);
                            slot.requests = if no_body {
                                None
                            } else if wrong_body {
                                Some(vec![body(u64::from(batch) + 100).1])
                            } else {
                                Some(vec![req])
                            };
                        }
                    }
                    None
                }
                Op::Vote {
                    seq,
                    from,
                    tag,
                    commit,
                } => {
                    let seq = low + seq;
                    if log.in_window(seq) && from < $q.n {
                        let slot = log.slot_mut(seq);
                        // Tag 0 is the batch the slot holds, when it holds
                        // one; the others conflict with it.
                        let d = match (tag, slot.digest) {
                            (0, Some(d)) => d,
                            _ => tag_digest(tag),
                        };
                        if commit {
                            slot.commits.insert(from, d);
                        } else {
                            slot.prepares.insert(from, d);
                        }
                    }
                    None
                }
                Op::Mark {
                    seq,
                    executed,
                    fast_committed,
                    force_committed,
                } => {
                    let seq = low + seq;
                    if log.in_window(seq) {
                        let slot = log.slot_mut(seq);
                        slot.executed_tentative = executed;
                        slot.executed_final = executed;
                        slot.fast_committed |= fast_committed;
                        slot.force_committed |= force_committed;
                    }
                    None
                }
                Op::Gc(by) => Some(log.collect_garbage(low + by)),
                Op::ResetForView => {
                    log.reset_for_view();
                    None
                }
                Op::VoidBatches => Some(log.void_batches()),
                Op::ClearExecutedAbove(seq) => {
                    log.clear_executed_above(low + seq);
                    None
                }
                Op::ResetKeepCerts(below, by) => Some(log.reset_keep_certs(if below {
                    low.saturating_sub(by)
                } else {
                    low + by
                })),
            }
        }};
    }

    /// Everything the replica reads back from one slot.
    #[derive(Debug, PartialEq)]
    struct SlotView {
        seq: SeqNum,
        view: View,
        digest: Option<Digest>,
        entries: Option<Vec<RequestRef>>,
        bodies: bool,
        executed: (bool, bool),
        prepares: Vec<(ReplicaId, Digest)>,
        commits: Vec<(ReplicaId, Digest)>,
        prepared: bool,
        committed: bool,
        fast_complete: bool,
        fast_unreachable: bool,
    }

    macro_rules! slot_view {
        ($seq:expr, $slot:expr, $q:expr, $votes:expr) => {{
            let slot = $slot;
            SlotView {
                seq: $seq,
                view: slot.view,
                digest: slot.digest,
                entries: slot.entries.clone(),
                bodies: slot.requests.is_some(),
                executed: (slot.executed_tentative, slot.executed_final),
                prepares: $votes(&slot.prepares),
                commits: $votes(&slot.commits),
                prepared: slot.prepared($q),
                committed: slot.committed($q),
                fast_complete: slot.fast_quorum_complete($q),
                fast_unreachable: slot.fast_quorum_unreachable($q),
            }
        }};
    }

    fn view_of(log: &Log, q: &Quorums) -> Vec<SlotView> {
        let votes = |v: &super::super::Votes| v.iter().collect::<Vec<_>>();
        log.iter()
            .map(|(seq, slot)| slot_view!(seq, slot, q, votes))
            .collect()
    }

    fn view_of_reference(log: &super::Log, q: &Quorums) -> Vec<SlotView> {
        let votes = |v: &std::collections::BTreeMap<ReplicaId, Digest>| {
            v.iter().map(|(&r, &d)| (r, d)).collect::<Vec<_>>()
        };
        log.iter()
            .map(|(seq, slot)| slot_view!(seq, slot, q, votes))
            .collect()
    }

    proptest! {
        /// Any sequence of pre-prepares, votes (repeated, conflicting,
        /// the primary's own) and window moves (garbage collection, a new
        /// view, voided batches, re-execution, a recovery's restart at a
        /// low water mark above or below the current one) leaves the ring
        /// and the B-tree log with the same slots, the same votes and
        /// certificates, and releases the same batches in the same order.
        #[test]
        fn ring_log_matches_the_btree_log(
            f in 1u32..3,
            ops in proptest::collection::vec(arb_op(), 1..300),
        ) {
            let q = Quorums::minimal(f);
            let mut ring = Log::new(WINDOW);
            let mut reference = super::Log::new(WINDOW);
            for (step, op) in ops.into_iter().enumerate() {
                let released = apply!(ring, op, q);
                let expected = apply!(reference, op, q);
                prop_assert_eq!(&released, &expected, "step {}: {:?} released", step, op);
                prop_assert_eq!(ring.low(), reference.low(), "step {}: {:?}", step, op);
                prop_assert_eq!(ring.len(), reference.len(), "step {}: {:?}", step, op);
                prop_assert_eq!(ring.is_empty(), reference.len() == 0);
                prop_assert_eq!(
                    view_of(&ring, &q),
                    view_of_reference(&reference, &q),
                    "step {}: {:?}",
                    step,
                    op
                );
                for seq in reference.low().saturating_sub(2)..reference.low() + 2 * WINDOW {
                    prop_assert_eq!(
                        ring.slot(seq).is_some(),
                        reference.slot(seq).is_some(),
                        "step {}: slot {} after {:?}",
                        step,
                        seq,
                        op
                    );
                }
            }
        }
    }
}
