//! The replica message log: per-sequence-number slots accumulating
//! pre-prepare/prepare/commit certificates within the water marks.
//!
//! The log is indexed, not searched. Its slots are a ring addressed by
//! `seq − h − 1` (paper §2: a window of `L` slots above the low water
//! mark `h`), and each slot's prepares and commits are a [`Votes`]
//! table addressed by sender. A certificate check is a handful of digest
//! comparisons, and nothing in a slot allocates.

use crate::messages::{batch_digest_of, BatchEntry, PreparedInfo, Request, NULL_DIGEST};
use crate::types::{ClientId, Quorums, ReplicaId, SeqNum, Timestamp, View};
use bft_crypto::md5::Digest;
use std::collections::VecDeque;
use std::sync::Arc;

mod reference;

/// The most replicas a group may have: the width of a [`Votes`] table.
/// [`crate::config::Config::validate`] rejects larger groups.
pub const MAX_REPLICAS: u32 = 16;

/// The votes of one phase at one slot: at most one digest per replica,
/// a later vote replacing an earlier one. A bitmask of who voted plus a
/// digest per replica, so recording and counting a vote touch no heap.
#[derive(Clone, Copy, Default)]
pub struct Votes {
    cast: u16,
    digests: [Digest; MAX_REPLICAS as usize],
}

impl Votes {
    /// Records `sender`'s vote for `d`, replacing any earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not below [`MAX_REPLICAS`]: the replica
    /// drops votes from outside the group before they reach a slot.
    pub fn insert(&mut self, sender: ReplicaId, d: Digest) {
        self.digests[sender as usize] = d;
        self.cast |= 1 << sender;
    }

    /// Number of senders that voted.
    pub fn len(&self) -> usize {
        self.cast.count_ones() as usize
    }

    /// True if nobody voted.
    pub fn is_empty(&self) -> bool {
        self.cast == 0
    }

    /// Forgets every vote.
    pub fn clear(&mut self) {
        self.cast = 0;
    }

    /// The votes in sender order.
    pub fn iter(&self) -> impl Iterator<Item = (ReplicaId, Digest)> + '_ {
        senders(self.cast).map(|r| (r, self.digests[r as usize]))
    }

    /// Number of votes, not counting `skip`'s, whose digest satisfies
    /// `pred`.
    pub fn count(&self, skip: Option<ReplicaId>, pred: impl Fn(&Digest) -> bool) -> usize {
        let skip = skip.map_or(0, |r| 1u16.checked_shl(r).unwrap_or(0));
        senders(self.cast & !skip)
            .filter(|&r| pred(&self.digests[r as usize]))
            .count()
    }
}

/// The senders whose bits are set in `cast`, lowest first.
fn senders(mut cast: u16) -> impl Iterator<Item = ReplicaId> {
    std::iter::from_fn(move || {
        let r = cast.trailing_zeros();
        cast &= cast.wrapping_sub(1);
        (r < u16::BITS).then_some(r)
    })
}

impl std::fmt::Debug for Votes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One request of an ordered batch as a slot records it: who issued it
/// and the digest its body must hash to. Exactly what
/// [`BatchEntry::Ref`] carries — the body, when known, is in
/// [`Slot::requests`] at the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef {
    /// Issuing client.
    pub client: ClientId,
    /// The client's timestamp.
    pub timestamp: Timestamp,
    /// The request digest.
    pub digest: Digest,
}

impl RequestRef {
    /// The request `entry` names, whose digest the caller already
    /// computed (an inline entry is not hashed again).
    pub fn new(entry: &BatchEntry, digest: Digest) -> RequestRef {
        let (client, timestamp) = entry.identity();
        RequestRef {
            client,
            timestamp,
            digest,
        }
    }

    /// The batch digest of `entries`.
    pub fn batch_digest(entries: &[RequestRef]) -> Digest {
        batch_digest_of(entries.iter().map(|e| &e.digest))
    }
}

/// Protocol state for one sequence number.
#[derive(Debug, Clone, Default)]
pub struct Slot {
    /// View of the accepted pre-prepare.
    pub view: View,
    /// Batch digest from the accepted pre-prepare.
    pub digest: Option<Digest>,
    /// The batch's request bodies in batch order, shared with the
    /// replica's body table — present once every one of them is known.
    pub requests: Option<Vec<Arc<Request>>>,
    /// The batch as ordered: one reference per request, no bodies. Known
    /// from the pre-prepare on, so before `requests` whenever a body
    /// that travelled separately is still missing.
    pub entries: Option<Vec<RequestRef>>,
    /// Prepares received, by sender, with the digest each vouched for.
    pub prepares: Votes,
    /// Commits received, by sender.
    pub commits: Votes,
    /// Whether this replica already multicast its prepare.
    pub prepare_sent: bool,
    /// Whether this replica already multicast (or queued) its commit.
    pub commit_sent: bool,
    /// Whether the batch has been executed tentatively.
    pub executed_tentative: bool,
    /// Whether the batch has been executed with a committed certificate.
    pub executed_final: bool,
    /// True for null batches installed by a new view.
    pub is_null: bool,
    /// Set when `f+1` peers asserted this batch committed (backfill); the
    /// committed predicate then holds without local certificates.
    pub force_committed: bool,
}

impl Slot {
    /// True once a pre-prepare (or new-view equivalent) is accepted.
    pub fn has_pre_prepare(&self) -> bool {
        self.digest.is_some()
    }

    /// True once the request bodies needed for execution are available.
    pub fn executable(&self) -> bool {
        self.is_null || self.requests.is_some()
    }

    /// The *prepared* predicate: an accepted pre-prepare plus `2f`
    /// matching prepares from replicas other than the view's primary.
    pub fn prepared(&self, q: &Quorums) -> bool {
        self.backup_prepares(q) >= q.prepare_quorum()
    }

    /// Prepares from replicas other than the view's primary that match
    /// the accepted digest; none before a pre-prepare is accepted.
    fn backup_prepares(&self, q: &Quorums) -> usize {
        let Some(d) = self.digest else { return 0 };
        let primary = q.primary(self.view);
        self.prepares.count(Some(primary), |pd| *pd == d)
    }

    /// The *committed-local* predicate: prepared plus `2f+1` matching
    /// commits (own commit included once sent), or a backfill assertion.
    pub fn committed(&self, q: &Quorums) -> bool {
        let Some(d) = self.digest else { return false };
        if self.force_committed {
            return true;
        }
        if !self.prepared(q) {
            return false;
        }
        self.commits.count(None, |cd| *cd == d) >= q.commit_quorum()
    }

    /// The batch as it travels in a pre-prepare or a backfill: a body
    /// inline where `inline` says so, by reference otherwise. `None`
    /// until the bodies are known.
    pub fn wire_entries(&self, inline: impl Fn(&Request) -> bool) -> Option<Vec<BatchEntry>> {
        let (entries, requests) = (self.entries.as_ref()?, self.requests.as_ref()?);
        let wire = entries.iter().zip(requests).map(|(e, req)| {
            if inline(req) {
                BatchEntry::Full(Request::clone(req))
            } else {
                BatchEntry::Ref {
                    client: e.client,
                    timestamp: e.timestamp,
                    digest: e.digest,
                }
            }
        });
        Some(wire.collect())
    }

    /// Drops the batch (references and bodies), returning the references
    /// so the caller can tell the body table what this slot stopped
    /// holding.
    pub fn take_batch(&mut self) -> Option<Vec<RequestRef>> {
        self.requests = None;
        self.entries.take()
    }
}

/// The log: slots between the low water mark `h` (exclusive) and
/// `h + L` (inclusive).
#[derive(Debug, Clone)]
pub struct Log {
    /// `slots[i]` is the slot of sequence number `low + 1 + i`, `None`
    /// where nothing was recorded. It grows to the highest slot touched,
    /// so at most `window` long (longer only after a recovery restarted
    /// the window below the slots it kept), and garbage collection drains
    /// its front.
    slots: VecDeque<Option<Slot>>,
    low: SeqNum,
    window: u64,
}

impl Log {
    /// Creates an empty log with low water mark 0.
    pub fn new(window: u64) -> Log {
        Log {
            slots: VecDeque::new(),
            low: 0,
            window,
        }
    }

    /// The low water mark `h` (the last stable checkpoint).
    pub fn low(&self) -> SeqNum {
        self.low
    }

    /// The high water mark `H = h + L`.
    pub fn high(&self) -> SeqNum {
        self.low + self.window
    }

    /// True if `seq` is within `(h, H]`.
    pub fn in_window(&self, seq: SeqNum) -> bool {
        seq > self.low && seq <= self.high()
    }

    /// The slot for `seq`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is outside the water marks.
    pub fn slot_mut(&mut self, seq: SeqNum) -> &mut Slot {
        assert!(
            self.in_window(seq),
            "seq {seq} outside ({}, {}]",
            self.low,
            self.high()
        );
        let i = (seq - self.low - 1) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(Slot::default)
    }

    /// The slot for `seq` if it exists.
    pub fn slot(&self, seq: SeqNum) -> Option<&Slot> {
        let i = seq.checked_sub(self.low + 1)?;
        self.slots.get(usize::try_from(i).ok()?)?.as_ref()
    }

    /// Iterates over populated slots in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, &Slot)> {
        let seqs = self.low + 1..;
        seqs.zip(&self.slots)
            .filter_map(|(seq, slot)| Some((seq, slot.as_ref()?)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (SeqNum, &mut Slot)> {
        let seqs = self.low + 1..;
        seqs.zip(&mut self.slots)
            .filter_map(|(seq, slot)| Some((seq, slot.as_mut()?)))
    }

    /// Removes the slots at or below `seq` from the front of the ring,
    /// returning the batches they held. The low water mark is the
    /// caller's to move.
    fn drain_through(&mut self, seq: SeqNum) -> Vec<(SeqNum, Vec<RequestRef>)> {
        let first = self.low + 1;
        let n = seq.saturating_sub(self.low).min(self.slots.len() as u64);
        (first..)
            .zip(self.slots.drain(..n as usize))
            .filter_map(|(seq, slot)| Some((seq, slot?.entries?)))
            .collect()
    }

    /// Advances the low water mark to a new stable checkpoint, discarding
    /// everything at or below it. Returns the batches that went with the
    /// discarded slots, for the body table to release.
    pub fn collect_garbage(&mut self, new_low: SeqNum) -> Vec<(SeqNum, Vec<RequestRef>)> {
        if new_low <= self.low {
            return Vec::new();
        }
        let gone = self.drain_through(new_low);
        self.low = new_low;
        gone
    }

    /// `(seq, view, digest)` of each prepared non-null batch above the
    /// low water mark — the `P` set for a view-change message.
    pub fn prepared_infos(&self, q: &Quorums) -> Vec<PreparedInfo> {
        let batch = |slot: &Slot| slot.digest.filter(|&d| d != NULL_DIGEST);
        self.iter()
            .filter(|(_, slot)| batch(slot).is_some() && slot.prepared(q))
            .map(|(seq, slot)| PreparedInfo {
                seq,
                view: slot.view,
                batch_digest: batch(slot).expect("filtered on digest"),
            })
            .collect()
    }

    /// Resets certificate state for a new view, preserving the batches
    /// (the new view re-adopts those its NEW-VIEW re-proposes; the caller
    /// voids the rest) and execution flags.
    pub fn reset_for_view(&mut self) {
        for (_, slot) in self.iter_mut() {
            slot.digest = None;
            slot.prepares.clear();
            slot.commits.clear();
            slot.prepare_sent = false;
            slot.commit_sent = false;
            slot.force_committed = false;
            // requests/entries retained; executed_* retained.
        }
    }

    /// Takes the batch out of every slot that accepted nothing in the
    /// current view (what [`Log::reset_for_view`] cleared and the new
    /// view did not assign again), returning what each stopped holding.
    pub fn void_batches(&mut self) -> Vec<(SeqNum, Vec<RequestRef>)> {
        self.iter_mut()
            .filter(|(_, slot)| slot.digest.is_none())
            .filter_map(|(seq, slot)| slot.take_batch().map(|e| (seq, e)))
            .collect()
    }

    /// Clears execution markers on every slot above `seq`. Adopting a
    /// fetched checkpoint can move execution *backwards* (a recovery
    /// audit targets the group's stable point, which may trail what this
    /// replica executed while the fetch was in flight); slots above the
    /// adopted state must then re-execute, and a stale tentative marker
    /// would otherwise wedge the execution loop in `finalize_tentative`.
    pub fn clear_executed_above(&mut self, seq: SeqNum) {
        for (_, slot) in self.iter_mut().filter(|&(s, _)| s > seq) {
            slot.executed_tentative = false;
            slot.executed_final = false;
        }
    }

    /// Restarts the window at `low` for a proactive recovery, keeping
    /// every slot above it that accepted a pre-prepare — certificates
    /// and all. Recovery must not forget certificate state: a batch this
    /// replica *finalized* is client-visible (a view change racing the
    /// recovery would otherwise find no prepared certificate anywhere
    /// and legally re-order that sequence number), and a batch it merely
    /// *prepared* may be exactly the certificate protecting someone
    /// else's commit — PBFT's commit safety counts on every honest
    /// preparer reporting it in the next view change. Batches are
    /// re-verified against the accepted digest, every retained body
    /// against its reference (null batches carry nothing to check); a
    /// mismatch strips just the batch — the certificate survives and the
    /// bodies are re-fetched from peers before execution. Returns the
    /// batches that went, with their slot or without it, for the body
    /// table to release: first those of the dropped slots, then those
    /// stripped, each in sequence order.
    ///
    /// `low` may be below the current low water mark: the kept slots then
    /// sit further from the front of the ring, and some may lie above the
    /// new high water mark until the window catches up with them.
    pub fn reset_keep_certs(&mut self, low: SeqNum) -> Vec<(SeqNum, Vec<RequestRef>)> {
        let mut gone = self.drain_through(low);
        if low < self.low && !self.slots.is_empty() {
            for _ in low..self.low {
                self.slots.push_front(None);
            }
        }
        self.low = low;
        for (seq, entry) in (low + 1..).zip(self.slots.iter_mut()) {
            if entry.as_ref().is_some_and(|slot| !slot.has_pre_prepare()) {
                gone.extend(entry.take().and_then(|slot| slot.entries).map(|e| (seq, e)));
            }
        }
        for (s, slot) in self.iter_mut() {
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
        gone
    }

    /// Number of populated slots (diagnostics).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// True if no slots are populated.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn q() -> Quorums {
        Quorums::minimal(1)
    }

    fn digest(tag: u8) -> Digest {
        bft_crypto::digest(&[tag])
    }

    fn accepted_slot(view: View, d: Digest) -> Slot {
        Slot {
            view,
            digest: Some(d),
            requests: Some(vec![]),
            ..Slot::default()
        }
    }

    #[test]
    fn prepared_needs_2f_matching_from_non_primary() {
        let mut slot = accepted_slot(0, digest(1));
        assert!(!slot.prepared(&q()));
        // Primary of view 0 is replica 0; its prepare must not count.
        slot.prepares.insert(0, digest(1));
        slot.prepares.insert(1, digest(1));
        assert!(!slot.prepared(&q()), "one backup prepare is not enough");
        slot.prepares.insert(2, digest(1));
        assert!(slot.prepared(&q()));
    }

    #[test]
    fn mismatched_prepare_digests_do_not_count() {
        let mut slot = accepted_slot(0, digest(1));
        slot.prepares.insert(1, digest(2));
        slot.prepares.insert(2, digest(2));
        slot.prepares.insert(3, digest(2));
        assert!(!slot.prepared(&q()), "prepares for a different digest");
    }

    #[test]
    fn committed_needs_prepared_plus_quorum() {
        let mut slot = accepted_slot(1, digest(1));
        // Primary of view 1 is replica 1.
        slot.prepares.insert(0, digest(1));
        slot.prepares.insert(2, digest(1));
        slot.commits.insert(0, digest(1));
        slot.commits.insert(2, digest(1));
        assert!(!slot.committed(&q()), "2 commits < 2f+1");
        slot.commits.insert(3, digest(1));
        assert!(slot.committed(&q()));
    }

    #[test]
    fn commit_without_prepared_is_not_committed() {
        let mut slot = accepted_slot(0, digest(1));
        for r in 0..4 {
            slot.commits.insert(r, digest(1));
        }
        assert!(!slot.committed(&q()), "no prepared certificate");
    }

    #[test]
    fn window_bounds() {
        let mut log = Log::new(256);
        assert!(log.in_window(1));
        assert!(log.in_window(256));
        assert!(!log.in_window(0));
        assert!(!log.in_window(257));
        log.collect_garbage(128);
        assert!(!log.in_window(128));
        assert!(log.in_window(384));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn slot_outside_window_panics() {
        let mut log = Log::new(256);
        log.slot_mut(1000);
    }

    /// A request of client 1 and the reference a slot would record.
    pub(crate) fn body(ts: u64) -> (RequestRef, Arc<Request>) {
        let req = Request {
            client: 1,
            timestamp: ts,
            op: vec![7; 300],
            read_only: false,
            replier: crate::messages::REPLIER_ALL,
            auth: crate::messages::AuthTag::None,
        };
        let entry = RequestRef {
            client: 1,
            timestamp: ts,
            digest: req.digest(),
        };
        (entry, Arc::new(req))
    }

    #[test]
    fn reset_keep_certs_retains_certificates_and_verified_bodies() {
        let (entry, req) = body(1);
        let entries = vec![entry];
        let d = RequestRef::batch_digest(&entries);
        let mut log = Log::new(256);
        // Below the checkpoint: goes, and its batch is reported.
        {
            let s = log.slot_mut(48);
            s.digest = Some(d);
            s.entries = Some(entries.clone());
        }
        // Finalized, digest-verified: survives whole.
        {
            let s = log.slot_mut(49);
            s.digest = Some(d);
            s.entries = Some(entries.clone());
            s.requests = Some(vec![req.clone()]);
            s.executed_final = true;
            s.prepares.insert(1, d);
        }
        // Stored batch no longer matches its digest: the certificate
        // survives but the batch is stripped for re-fetch.
        {
            let s = log.slot_mut(50);
            s.digest = Some(digest(2));
            s.entries = Some(entries.clone());
            s.prepares.insert(1, digest(2));
            s.prepares.insert(3, digest(2));
        }
        // Prepared but never committed: survives — this certificate may
        // be what protects a partitioned peer's commit at the next view
        // change.
        {
            let s = log.slot_mut(51);
            s.digest = Some(d);
            s.entries = Some(entries.clone());
            s.prepares.insert(1, digest(1));
        }
        // The references add up but a retained body does not hash to
        // its own: stripped like a batch mismatch.
        {
            let s = log.slot_mut(52);
            s.digest = Some(d);
            s.entries = Some(entries.clone());
            s.requests = Some(vec![body(2).1]);
        }
        let gone = log.reset_keep_certs(48);
        assert_eq!(log.low(), 48);
        let seqs: Vec<SeqNum> = gone.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, [48, 50, 52], "the batches no slot holds any more");
        assert!(gone.iter().all(|(_, e)| *e == entries));
        let kept = log.slot(49).expect("finalized slot survives recovery");
        assert!(kept.executed_final);
        assert!(kept.requests.is_some() && kept.entries.is_some());
        assert_eq!(kept.prepares.len(), 1, "certificates survive with it");
        let stripped = log.slot(50).expect("certificate survives mismatch");
        assert!(stripped.entries.is_none(), "corrupt batches are stripped");
        assert!(stripped.requests.is_none());
        assert_eq!(stripped.prepares.len(), 2);
        assert!(log.slot(51).is_some(), "prepared-only slots survive");
        let rehashed = log.slot(52).expect("certificate survives a bad body");
        assert!(rehashed.entries.is_none() && rehashed.requests.is_none());
    }

    #[test]
    fn reset_keep_certs_drops_everything_at_or_below_checkpoint() {
        let mut log = Log::new(256);
        log.slot_mut(5).digest = Some(digest(1));
        log.slot_mut(48).digest = Some(digest(2));
        log.reset_keep_certs(48);
        assert!(log.is_empty());
        assert_eq!(log.low(), 48);
    }

    #[test]
    fn gc_discards_old_slots() {
        let mut log = Log::new(256);
        log.slot_mut(1).digest = Some(digest(1));
        log.slot_mut(128).digest = Some(digest(2));
        log.slot_mut(129).digest = Some(digest(3));
        let (entry, _) = body(1);
        log.slot_mut(2).entries = Some(vec![entry]);
        log.slot_mut(130).entries = Some(vec![entry]);
        let gone = log.collect_garbage(128);
        assert_eq!(gone, [(2, vec![entry])], "the batches that went with them");
        assert!(log.slot(1).is_none());
        assert!(log.slot(128).is_none());
        assert!(log.slot(129).is_some());
        // GC never regresses.
        assert!(log.collect_garbage(1).is_empty());
        assert_eq!(log.low(), 128);
    }

    #[test]
    fn prepared_infos_reports_p_set() {
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(5);
            s.view = 0;
            s.digest = Some(digest(7));
            s.requests = Some(vec![]);
            s.prepares.insert(1, digest(7));
            s.prepares.insert(2, digest(7));
        }
        log.slot_mut(6).digest = Some(digest(8)); // not prepared
        let infos = log.prepared_infos(&q());
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].seq, 5);
        assert_eq!(infos[0].batch_digest, digest(7));
    }

    #[test]
    fn reset_for_view_clears_certificates_keeps_bodies() {
        let mut log = Log::new(256);
        {
            let s = log.slot_mut(3);
            s.digest = Some(digest(1));
            s.entries = Some(vec![]);
            s.requests = Some(vec![]);
            s.prepares.insert(1, digest(1));
            s.prepare_sent = true;
            s.executed_final = true;
        }
        log.reset_for_view();
        let s = log.slot(3).expect("slot kept");
        assert!(s.digest.is_none());
        assert!(s.prepares.is_empty());
        assert!(!s.prepare_sent);
        assert!(s.requests.is_some(), "bodies survive view changes");
        assert!(s.executed_final, "execution state survives");
    }

    #[test]
    fn wire_entries_inline_or_name_each_body_and_hash_to_the_batch_digest() {
        use crate::messages::batch_digest;
        let (e1, r1) = body(1);
        let (e2, r2) = body(2);
        let mut slot = Slot {
            entries: Some(vec![e1, e2]),
            ..Slot::default()
        };
        assert!(slot.wire_entries(|_| true).is_none(), "no bodies yet");
        slot.requests = Some(vec![r1.clone(), r2]);
        let wire = slot
            .wire_entries(|req| req.timestamp == 1)
            .expect("resolved");
        assert_eq!(wire[0], BatchEntry::Full(Request::clone(&r1)));
        assert!(matches!(wire[1], BatchEntry::Ref { digest, .. } if digest == e2.digest));
        // However the bodies travel, it is the same batch.
        assert_eq!(batch_digest(&wire), RequestRef::batch_digest(&[e1, e2]));
    }

    #[test]
    fn void_batches_empties_exactly_the_slots_without_a_digest() {
        let (e1, r1) = body(1);
        let mut log = Log::new(256);
        for seq in [3, 4] {
            let s = log.slot_mut(seq);
            s.digest = Some(digest(seq as u8));
            s.entries = Some(vec![e1]);
            s.requests = Some(vec![r1.clone()]);
            s.executed_final = true;
        }
        log.reset_for_view();
        log.slot_mut(4).digest = Some(digest(4)); // the new view re-adopts 4
        assert_eq!(log.void_batches(), [(3, vec![e1])]);
        let voided = log.slot(3).expect("the slot itself stays");
        assert!(voided.entries.is_none() && voided.requests.is_none());
        assert!(voided.executed_final, "execution state survives");
        assert!(log.slot(4).expect("kept").requests.is_some());
        assert!(log.void_batches().is_empty());
    }

    #[test]
    fn null_slot_is_executable_without_requests() {
        let slot = Slot {
            is_null: true,
            digest: Some(NULL_DIGEST),
            ..Slot::default()
        };
        assert!(slot.executable());
    }
}
