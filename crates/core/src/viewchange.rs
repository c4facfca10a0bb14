//! The view change (DESIGN.md §5.3). When backups suspect the primary
//! they multicast VIEW-CHANGE messages; the primary of the next view
//! collects `2f+1` of them, recomputes the ordering decisions that must
//! survive (the `O` set), and multicasts a NEW-VIEW. Backups *re-derive*
//! `O` from the included view-change messages and refuse the new view if
//! the primary computed it wrong.
//!
//! [`ViewChanges`] is the protocol as a state machine whose only I/O is
//! its timer. It owns every view-change field, is told the replica facts
//! its rules read, and returns the message to send; authentication,
//! sending, CPU charges, counters and trace events stay with the replica,
//! as does installing a new view's log, bodies and checkpoint.

use crate::checkpoint::CheckpointSet;
use crate::config::Config;
use crate::log::{Log, RequestRef};
use crate::messages::{BatchEntry, NewView, PreparedInfo, ViewChange, NULL_DIGEST};
use crate::types::{Quorums, ReplicaId, SeqNum, View};
use bft_crypto::md5::Digest;
use bft_sim::{Context, TimerId};
use std::collections::{BTreeMap, BTreeSet};

/// The view-change timer's token.
pub(crate) const TIMER_VIEW_CHANGE: u64 = 2;

/// The most request bytes a NEW-VIEW carries: enough to spare backups a
/// fetch, small enough to survive congested links. Backups recover any
/// other body through the fetch path.
const MAX_ATTACHED_BYTES: usize = 32 * 1024;

/// The deterministic new-view computation shared by the new primary
/// (building) and the backups (validating).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewViewPlan {
    /// `min-s`: the highest stable checkpoint among the view changes.
    pub min_s: SeqNum,
    /// Digest of that checkpoint (asserted by the vote that carried it).
    pub min_s_digest: Digest,
    /// `max-s`: the highest prepared sequence number.
    pub max_s: SeqNum,
    /// The `O` set: `(seq, digest)` for each `min_s < seq <= max_s`, with
    /// [`NULL_DIGEST`] where no vote carried a prepared certificate.
    pub pre_prepares: Vec<(SeqNum, Digest)>,
}

/// Computes the new-view plan from a quorum of view-change messages.
pub fn compute_plan(view_changes: &[ViewChange], q: &Quorums) -> NewViewPlan {
    let (min_s, min_s_digest) = view_changes
        .iter()
        .map(|vc| (vc.last_stable, vc.stable_digest))
        .max_by_key(|&(s, _)| s)
        .unwrap_or((0, Digest::ZERO));

    // For each sequence number above min_s, the certificate from the
    // highest view wins (certificates for the same (view, seq) cannot
    // conflict among correct replicas); the first one in wins a tie.
    let mut best: BTreeMap<SeqNum, PreparedInfo> = BTreeMap::new();
    let mut adopt = |info: PreparedInfo| {
        if best.get(&info.seq).is_none_or(|cur| cur.view < info.view) {
            best.insert(info.seq, info);
        }
    };
    let prepared = view_changes.iter().flat_map(|vc| &vc.prepared);
    prepared
        .filter(|info| info.seq > min_s)
        .for_each(|&info| adopt(info));

    // Fast-path candidates: a batch backed by `f+1` *distinct* replicas'
    // matching fast-vote reports is adopted like a prepared certificate.
    // A fast-committed batch always clears this bar — all `n` replicas
    // voted for it, so any `2f+1` view-change quorum carries at least
    // `f+1` correct matching reports — while a conflicting candidate at
    // the same view cannot: correct replicas vote once per (view, seq),
    // so a second digest can only be backed by the `≤ f` Byzantine
    // replicas. Candidates that merely gathered votes without
    // fast-committing are safe to adopt too (they are valid proposals
    // from the old view; the reply cache deduplicates re-execution).
    // Classic certificates win ties at the same view: a classically
    // committed batch is only guaranteed a certificate reporter — not
    // `f+1` fast-vote reporters — in a worst-case quorum, so the
    // certificate must not be outvoted by a bare-vote candidate.
    let mut support: BTreeMap<(SeqNum, View, Digest), BTreeSet<ReplicaId>> = BTreeMap::new();
    for vc in view_changes {
        for info in &vc.fast_votes {
            if info.seq <= min_s {
                continue;
            }
            support
                .entry((info.seq, info.view, info.batch_digest))
                .or_default()
                .insert(vc.replica);
        }
    }
    for (&(seq, view, batch_digest), reporters) in &support {
        if reporters.len() >= q.witness_quorum() {
            adopt(PreparedInfo {
                seq,
                view,
                batch_digest,
            });
        }
    }
    let max_s = best.keys().next_back().copied().unwrap_or(min_s);
    let pre_prepares = (min_s + 1..=max_s)
        .map(|seq| (seq, best.get(&seq).map_or(NULL_DIGEST, |i| i.batch_digest)))
        .collect();
    NewViewPlan {
        min_s,
        min_s_digest,
        max_s,
        pre_prepares,
    }
}

/// Validation failures for a NEW-VIEW message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewViewError {
    /// Fewer than `2f+1` distinct view-change votes.
    InsufficientVotes,
    /// A vote targets a different view.
    MixedViews,
    /// The `O` set does not match the deterministic recomputation.
    WrongComputation,
}

impl std::fmt::Display for NewViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NewViewError::InsufficientVotes => write!(f, "insufficient view-change votes"),
            NewViewError::MixedViews => write!(f, "view-change votes for mixed views"),
            NewViewError::WrongComputation => write!(f, "new-view O set was computed incorrectly"),
        }
    }
}

impl std::error::Error for NewViewError {}

/// Validates a NEW-VIEW against the deterministic recomputation.
///
/// # Errors
///
/// Returns the first [`NewViewError`] found.
pub fn validate_new_view(nv: &NewView, q: &Quorums) -> Result<NewViewPlan, NewViewError> {
    let mut voters: Vec<ReplicaId> = nv.view_changes.iter().map(|vc| vc.replica).collect();
    voters.sort_unstable();
    voters.dedup();
    if voters.len() < q.view_change_quorum() {
        return Err(NewViewError::InsufficientVotes);
    }
    if nv.view_changes.iter().any(|vc| vc.new_view != nv.view) {
        return Err(NewViewError::MixedViews);
    }
    let plan = compute_plan(&nv.view_changes, q);
    if plan.pre_prepares != nv.pre_prepares {
        return Err(NewViewError::WrongComputation);
    }
    Ok(plan)
}

/// One replica's view change.
#[derive(Debug)]
pub(crate) struct ViewChanges {
    id: ReplicaId,
    quorums: Quorums,
    /// [`Config::fast_path`]: our VIEW-CHANGE reports fast votes.
    fast_path: bool,
    base_timeout_ns: u64,
    max_timeout_ns: u64,
    /// Least gap between two NEW-VIEW retransmissions to one replica.
    retransmit_gap_ns: u64,
    /// The view we are trying to move to, while a view change runs.
    changing_to: Option<View>,
    /// Votes per target view; ordered maps, so every replica walks them
    /// in the same order.
    votes: BTreeMap<View, BTreeMap<ReplicaId, ViewChange>>,
    timer: Option<TimerId>,
    /// Doubled on each start, capped, reset when a view is installed: it
    /// is the base outside a view change.
    timeout_ns: u64,
    /// The NEW-VIEW that installed the current view, the proof sent to
    /// replicas found in an earlier view (e.g. an ex-primary healed from
    /// a partition, which has no other way to learn the group moved on).
    last_new_view: Option<NewView>,
    /// Per-destination earliest time of the next NEW-VIEW retransmission.
    retransmit_after_ns: BTreeMap<ReplicaId, u64>,
}

impl ViewChanges {
    /// Replica `id`'s view-change state, in view 0.
    pub(crate) fn new(id: ReplicaId, cfg: &Config) -> ViewChanges {
        ViewChanges {
            id,
            quorums: cfg.quorums,
            fast_path: cfg.fast_path,
            base_timeout_ns: cfg.view_change_timeout_ns,
            max_timeout_ns: cfg.view_change_timeout_max_ns,
            retransmit_gap_ns: cfg.resend_interval_ns.max(20_000_000),
            changing_to: None,
            votes: BTreeMap::new(),
            timer: None,
            timeout_ns: cfg.view_change_timeout_ns,
            last_new_view: None,
            retransmit_after_ns: BTreeMap::new(),
        }
    }

    /// True while a view change is in progress.
    pub(crate) fn changing(&self) -> bool {
        self.changing_to.is_some()
    }

    /// Arms the timer, unless it runs, we are the primary or a view
    /// change is in progress: a backup with outstanding work times its
    /// primary.
    pub(crate) fn arm<M>(&mut self, ctx: &mut Context<'_, M>, primary: bool) {
        if self.timer.is_none() && !primary && self.changing_to.is_none() {
            self.timer = Some(ctx.set_timer(self.timeout_ns, TIMER_VIEW_CHANGE));
        }
    }

    fn disarm<M>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// After execution, outside a view change: quiet the timer when no
    /// work is `pending`, restart it on `progress` — it measures how long
    /// the oldest outstanding work has been stuck, not how long the
    /// system has been busy.
    pub(crate) fn after_execution<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        primary: bool,
        pending: bool,
        progress: bool,
    ) {
        if self.changing_to.is_none() && (!pending || progress) {
            self.disarm(ctx);
            if pending {
                self.arm(ctx, primary);
            }
        }
    }

    /// The timer fired: its handle is spent, so [`Self::arm`] may set it
    /// again.
    pub(crate) fn fired(&mut self) {
        self.timer = None;
    }

    /// The timer fired on a running replica. Returns the view to change
    /// to — past a new primary that never produced a valid NEW-VIEW, or
    /// past the primary of `view` while work is `pending`.
    pub(crate) fn expired(&mut self, view: View, pending: bool) -> Option<View> {
        self.fired();
        match self.changing_to {
            Some(target) => Some(target + 1),
            None => pending.then_some(view + 1),
        }
    }

    /// Starts a change from `view` to `target`, unless `target` is not
    /// above the view we are in or changing to: records and returns our
    /// VIEW-CHANGE. The caller sends it, then calls [`Self::escalate`].
    pub(crate) fn start(
        &mut self,
        target: View,
        view: View,
        checkpoints: &CheckpointSet,
        log: &Log,
    ) -> Option<ViewChange> {
        if target <= view || self.changing_to.is_some_and(|p| target <= p) {
            return None;
        }
        self.changing_to = Some(target);
        let (last_stable, stable_digest) = checkpoints.stable_proof();
        let vc = ViewChange {
            new_view: target,
            last_stable,
            stable_digest,
            prepared: log.prepared_infos(&self.quorums),
            // `f+1` matching fast-vote reports prove a fast-committed
            // batch into the new view.
            fast_votes: if self.fast_path {
                log.fast_vote_infos(self.id, &self.quorums)
            } else {
                Vec::new()
            },
            replica: self.id,
        };
        self.record(vc.clone());
        Some(vc)
    }

    /// Waits for the new view with a doubled timeout, capped so that after
    /// a heal the next election starts within the configured ceiling.
    pub(crate) fn escalate<M>(&mut self, ctx: &mut Context<'_, M>) {
        self.timeout_ns = self.timeout_ns.saturating_mul(2).min(self.max_timeout_ns);
        self.disarm(ctx);
        self.timer = Some(ctx.set_timer(self.timeout_ns, TIMER_VIEW_CHANGE));
    }

    /// A later vote from the same replica for the same view replaces the
    /// earlier one.
    fn record(&mut self, vc: ViewChange) {
        let voters = self.votes.entry(vc.new_view).or_default();
        voters.insert(vc.replica, vc);
    }

    /// Records a peer's vote for a view above `view`. Returns the view to
    /// join: the lowest one above the view we are in or changing to that
    /// `f+1` replicas vote for (the liveness rule).
    pub(crate) fn on_vote(&mut self, vc: ViewChange, view: View) -> Option<View> {
        self.record(vc);
        let current = self.changing_to.unwrap_or(view);
        let witnesses = self.quorums.witness_quorum();
        let mut joinable = self.votes.range(current + 1..);
        joinable
            .find(|(_, voters)| voters.len() >= witnesses)
            .map(|(&v, _)| v)
    }

    /// As the primary of `target`, once `2f+1` votes for it are in: the
    /// NEW-VIEW to multicast, with the bodies `log` holds for it, and the
    /// plan to install — none when `forge` (a `BadNewView` primary)
    /// appended a bogus assignment to the recomputable part.
    pub(crate) fn build_new_view(
        &mut self,
        target: View,
        log: &Log,
        forge: bool,
    ) -> Option<(NewView, Option<NewViewPlan>)> {
        // Changing to `target` means our own vote for it is in: only
        // `start` records this replica's vote.
        if self.quorums.primary(target) != self.id || self.changing_to != Some(target) {
            return None;
        }
        let quorum = self.quorums.view_change_quorum();
        let voters = self.votes.get(&target).filter(|v| v.len() >= quorum)?;
        // The lowest replica ids: every replica derives the same set.
        let votes: Vec<ViewChange> = voters.values().take(quorum).cloned().collect();
        let plan = compute_plan(&votes, &self.quorums);
        let mut nv = NewView {
            view: target,
            view_changes: votes,
            pre_prepares: plan.pre_prepares.clone(),
            batches: attached_bodies(&plan, log),
        };
        if forge {
            let forged = (plan.max_s + 1, bft_crypto::digest(b"forged"));
            nv.pre_prepares.push(forged);
            return Some((nv, None));
        }
        self.last_new_view = Some(nv.clone());
        Some((nv, Some(plan)))
    }

    /// Validates a NEW-VIEW from the primary of its view; an accepted one
    /// becomes the proof sent to laggards.
    pub(crate) fn accept(&mut self, nv: &NewView) -> Result<NewViewPlan, NewViewError> {
        let plan = validate_new_view(nv, &self.quorums)?;
        self.last_new_view = Some(nv.clone());
        Ok(plan)
    }

    /// View `view` is installed: the change ends, votes through it go,
    /// and the timeout and timer reset.
    pub(crate) fn installed<M>(&mut self, ctx: &mut Context<'_, M>, view: View) {
        self.changing_to = None;
        self.votes = self.votes.split_off(&(view + 1));
        self.timeout_ns = self.base_timeout_ns;
        self.disarm(ctx);
    }

    /// The NEW-VIEW that installed `view`, for replica `to` seen in an
    /// earlier view, at most once a gap per destination. Without it a
    /// replica cut off while the group changed views (an isolated primary
    /// that clients still reach) escalates solo view changes forever.
    pub(crate) fn proof_for(&mut self, to: ReplicaId, view: View, now: u64) -> Option<NewView> {
        let current = |nv: &&NewView| nv.view == view && to != self.id;
        let nv = self.last_new_view.as_ref().filter(current)?;
        let gate = self.retransmit_after_ns.entry(to).or_insert(0);
        if now < *gate {
            return None;
        }
        *gate = now + self.retransmit_gap_ns;
        Some(nv.clone())
    }
}

/// The bodies of the plan's re-proposed batches that `log` holds, up to
/// [`MAX_ATTACHED_BYTES`].
fn attached_bodies(plan: &NewViewPlan, log: &Log) -> Vec<(SeqNum, Vec<BatchEntry>)> {
    let mut attached = 0usize;
    let mut batches = Vec::new();
    for &(seq, d) in &plan.pre_prepares {
        if d == NULL_DIGEST {
            continue;
        }
        let Some(slot) = log.slot(seq) else { continue };
        let Some(reqs) = &slot.requests else { continue };
        let holds = slot.digest == Some(d)
            || slot.entries.as_deref().map(RequestRef::batch_digest) == Some(d);
        let size: usize = reqs.iter().map(|r| r.op.len() + 64).sum();
        if !holds || attached + size > MAX_ATTACHED_BYTES {
            continue;
        }
        attached += size;
        batches.extend(slot.wire_entries(|_| true).map(|b| (seq, b)));
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Quorums {
        Quorums::minimal(1)
    }

    /// A distinct digest per tag (no hashing: the model checks call this
    /// millions of times).
    fn d(tag: u8) -> Digest {
        Digest([tag; 16])
    }

    fn vc(
        replica: ReplicaId,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedInfo>,
    ) -> ViewChange {
        ViewChange {
            new_view,
            last_stable,
            stable_digest: d(last_stable as u8),
            prepared,
            fast_votes: vec![],
            replica,
        }
    }

    fn vcf(
        replica: ReplicaId,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedInfo>,
        fast_votes: Vec<PreparedInfo>,
    ) -> ViewChange {
        ViewChange {
            fast_votes,
            ..vc(replica, new_view, last_stable, prepared)
        }
    }

    fn pi(seq: SeqNum, view: View, tag: u8) -> PreparedInfo {
        PreparedInfo {
            seq,
            view,
            batch_digest: d(tag),
        }
    }

    fn changes(id: ReplicaId) -> ViewChanges {
        ViewChanges::new(id, &Config::new(1))
    }

    /// A genesis checkpoint set and an empty log: what `start` reads.
    fn genesis() -> (CheckpointSet, Log) {
        let own = crate::checkpoint::OwnCheckpoint::new(vec![Digest::ZERO], Vec::new(), None);
        (CheckpointSet::new(q(), own), Log::new(16))
    }

    fn voters(nv: &NewView) -> Vec<ReplicaId> {
        nv.view_changes.iter().map(|vc| vc.replica).collect()
    }

    #[test]
    fn start_needs_a_target_above_the_view_and_the_current_target() {
        let (cps, log) = genesis();
        let mut r = changes(0);
        assert!(r.start(0, 0, &cps, &log).is_none());
        let own = r.start(2, 0, &cps, &log).expect("above the view");
        assert_eq!((own.new_view, own.replica), (2, 0));
        assert!(r.changing());
        assert!(r.start(2, 0, &cps, &log).is_none());
        assert!(r.start(1, 0, &cps, &log).is_none());
        assert!(r.start(3, 0, &cps, &log).is_some());
    }

    #[test]
    fn new_view_waits_for_a_quorum_of_distinct_voters() {
        let (cps, log) = genesis();
        let mut r1 = changes(1);
        r1.start(1, 0, &cps, &log).expect("starts");
        assert!(r1.build_new_view(1, &log, false).is_none());
        assert_eq!(r1.on_vote(vc(3, 1, 0, vec![]), 0), None, "already there");
        // A repeated vote does not inflate the count.
        r1.on_vote(vc(3, 1, 0, vec![]), 0);
        assert!(r1.build_new_view(1, &log, false).is_none());
        r1.on_vote(vc(0, 1, 0, vec![]), 0);
        let (nv, plan) = r1.build_new_view(1, &log, false).expect("quorum");
        assert_eq!(voters(&nv), vec![0, 1, 3]);
        assert!(plan.is_some());
        // Only the new view's primary builds it.
        let mut r2 = changes(2);
        r2.start(1, 0, &cps, &log).expect("starts");
        for r in [0, 1, 3] {
            r2.on_vote(vc(r, 1, 0, vec![]), 0);
        }
        assert!(r2.build_new_view(1, &log, false).is_none());
    }

    #[test]
    fn quorum_is_the_lowest_voters_in_any_arrival_order() {
        let (cps, log) = genesis();
        let mut a = changes(1);
        let mut b = changes(1);
        a.start(1, 0, &cps, &log).expect("starts");
        b.start(1, 0, &cps, &log).expect("starts");
        for r in [3, 2, 0] {
            a.on_vote(vc(r, 1, 0, vec![]), 0);
        }
        for r in [0, 3, 2] {
            b.on_vote(vc(r, 1, 0, vec![]), 0);
        }
        let a = a.build_new_view(1, &log, false).expect("quorum").0;
        assert_eq!(voters(&a), vec![0, 1, 2]);
        assert_eq!(a, b.build_new_view(1, &log, false).expect("quorum").0);
    }

    #[test]
    fn join_needs_f_plus_one_above_the_view_we_are_changing_to() {
        let (cps, log) = genesis();
        let mut r = changes(0);
        assert_eq!(r.on_vote(vc(1, 3, 0, vec![]), 0), None);
        assert_eq!(r.on_vote(vc(2, 3, 0, vec![]), 0), Some(3));
        r.start(3, 0, &cps, &log).expect("joins");
        assert_eq!(r.on_vote(vc(3, 3, 0, vec![]), 0), None, "not above");
        r.on_vote(vc(1, 5, 0, vec![]), 0);
        assert_eq!(r.on_vote(vc(2, 5, 0, vec![]), 0), Some(5));
    }

    #[test]
    fn expiry_moves_past_the_target_or_suspects_the_primary() {
        let (cps, log) = genesis();
        let mut r = changes(1);
        assert_eq!(r.expired(0, false), None, "no work, no suspicion");
        assert_eq!(r.expired(0, true), Some(1));
        r.start(2, 0, &cps, &log).expect("starts");
        assert_eq!(r.expired(0, false), Some(3));
    }

    #[test]
    fn a_forged_new_view_is_sent_but_neither_installed_nor_kept() {
        let (cps, log) = genesis();
        let mut r1 = changes(1);
        r1.start(1, 0, &cps, &log).expect("starts");
        r1.on_vote(vc(0, 1, 0, vec![pi(1, 0, 7)]), 0);
        r1.on_vote(vc(2, 1, 0, vec![]), 0);
        let (nv, plan) = r1.build_new_view(1, &log, true).expect("quorum");
        assert!(plan.is_none());
        assert_eq!(
            nv.pre_prepares.len(),
            2,
            "the plan's entry and a forged one"
        );
        assert_eq!(
            validate_new_view(&nv, &q()),
            Err(NewViewError::WrongComputation)
        );
        assert!(r1.proof_for(3, 1, 0).is_none());
    }

    #[test]
    fn the_proof_of_the_view_goes_once_a_gap_to_each_laggard() {
        let votes = vec![
            vc(0, 1, 0, vec![]),
            vc(1, 1, 0, vec![]),
            vc(2, 1, 0, vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        let nv = NewView {
            view: 1,
            view_changes: votes,
            pre_prepares: plan.pre_prepares.clone(),
            batches: vec![],
        };
        let mut r2 = changes(2);
        assert_eq!(r2.accept(&nv), Ok(plan));
        let gap = r2.retransmit_gap_ns;
        assert_eq!(r2.proof_for(3, 1, 10), Some(nv.clone()));
        assert_eq!(r2.proof_for(3, 1, 10 + gap - 1), None, "within the gap");
        assert!(r2.proof_for(0, 1, 11).is_some(), "per destination");
        assert_eq!(r2.proof_for(2, 1, 11), None, "not to ourselves");
        assert_eq!(r2.proof_for(0, 2, 11 + gap), None, "only for its view");
        assert!(r2.proof_for(3, 1, 10 + gap).is_some());
    }

    /// A node that drives one [`ViewChanges`] through its timer: each
    /// injected message is one action, each firing is logged.
    struct Probe {
        vc: ViewChanges,
        fired_ns: Vec<u64>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Act {
        Arm,
        Start(View),
        Install(View),
    }

    impl bft_sim::Node<Act> for Probe {
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Act>,
            _: bft_sim::NodeId,
            act: Act,
            _: usize,
        ) {
            let (cps, log) = genesis();
            match act {
                Act::Arm => self.vc.arm(ctx, false),
                Act::Start(v) => {
                    self.vc.start(v, 0, &cps, &log).expect("a higher view");
                    self.vc.escalate(ctx);
                }
                Act::Install(v) => self.vc.installed(ctx, v),
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Act>, token: u64) {
            assert_eq!(token, TIMER_VIEW_CHANGE);
            self.vc.fired();
            self.fired_ns.push(ctx.now().nanos());
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Runs `acts` one a second from a fresh probe; returns each firing's
    /// delay after the action before it, in whole seconds.
    fn timer_delays_s(acts: &[Act]) -> Vec<u64> {
        let mut sim = bft_sim::Simulation::new(1, bft_sim::NetConfig::SWITCHED_100MBPS);
        let probe = Probe {
            vc: changes(1),
            fired_ns: Vec::new(),
        };
        let id = sim.add_node(Box::new(probe));
        let mut acted_ns = Vec::new();
        for &act in acts {
            sim.inject(id, id, act, 0);
            let delivered = sim.now().nanos() + 1_000;
            sim.run_until(bft_sim::SimTime(delivered));
            acted_ns.push(delivered);
            let next = sim.now().nanos() + 1_000_000_000;
            sim.run_until(bft_sim::SimTime(next));
        }
        sim.run_until(bft_sim::SimTime(sim.now().nanos() + 60_000_000_000));
        let fired = &sim.node_as::<Probe>(id).fired_ns;
        let last_act = |&t: &u64| acted_ns.iter().rev().find(|&&a| a <= t).copied();
        fired
            .iter()
            .map(|t| (t - last_act(t).expect("after an act") + 500_000_000) / 1_000_000_000)
            .collect()
    }

    #[test]
    fn the_timeout_doubles_on_each_start_up_to_its_cap_and_resets_on_install() {
        use Act::*;
        // 2 s base, 16 s cap (`Config::new`'s defaults).
        assert_eq!(timer_delays_s(&[Arm]), vec![2]);
        assert_eq!(timer_delays_s(&[Start(1)]), vec![4]);
        // Each start re-arms: only the last one fires.
        assert_eq!(timer_delays_s(&[Start(1), Start(2), Start(3)]), vec![16]);
        let capped = [Start(1), Start(2), Start(3), Start(4)];
        assert_eq!(timer_delays_s(&capped), vec![16]);
        // Install cancels the timer and resets the timeout.
        assert_eq!(
            timer_delays_s(&[Start(1), Start(2), Install(2), Arm]),
            vec![2]
        );
        assert_eq!(timer_delays_s(&[Start(1), Install(1)]), Vec::<u64>::new());
        // Arming is idempotent and waits out the running timer.
        assert_eq!(timer_delays_s(&[Arm, Arm]), vec![1]);
    }

    #[test]
    fn install_drops_the_votes_through_its_view_and_keeps_the_rest() {
        let mut r0 = changes(0);
        for view in [1, 2, 5] {
            assert_eq!(r0.on_vote(vc(1, view, 0, vec![]), 0), None);
        }
        let mut sim = bft_sim::Simulation::new(1, bft_sim::NetConfig::SWITCHED_100MBPS);
        let probe = Probe {
            vc: r0,
            fired_ns: Vec::new(),
        };
        let id = sim.add_node(Box::new(probe));
        sim.inject(id, id, Act::Install(2), 0);
        sim.run_until(bft_sim::SimTime(1_000_000));
        let r0 = &mut sim.node_as_mut::<Probe>(id).vc;
        assert!(!r0.changing());
        assert_eq!(r0.votes.keys().copied().collect::<Vec<_>>(), vec![5]);
        // The kept vote still counts towards the f+1 join.
        assert_eq!(r0.on_vote(vc(2, 5, 0, vec![]), 2), Some(5));
    }

    #[test]
    fn plan_spans_min_to_max_with_nulls() {
        let votes = [
            vc(0, 1, 128, vec![pi(130, 0, 7)]),
            vc(1, 1, 100, vec![pi(132, 0, 9)]),
            vc(2, 1, 128, vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.min_s, 128);
        assert_eq!(plan.max_s, 132);
        assert_eq!(
            plan.pre_prepares,
            vec![
                (129, NULL_DIGEST),
                (130, d(7)),
                (131, NULL_DIGEST),
                (132, d(9)),
            ]
        );
    }

    #[test]
    fn higher_view_certificate_wins() {
        let votes = [
            vc(0, 2, 0, vec![pi(1, 0, 7)]),
            vc(1, 2, 0, vec![pi(1, 1, 9)]),
            vc(2, 2, 0, vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.pre_prepares, vec![(1, d(9))]);
    }

    #[test]
    fn fast_candidate_with_witness_support_is_adopted() {
        // No prepared certificate anywhere, but f+1 = 2 distinct replicas
        // report having voted for the same batch: the plan must carry it
        // (this is how a fast-committed batch survives the view change).
        let votes = [
            vcf(0, 1, 0, vec![], vec![pi(1, 0, 7)]),
            vcf(1, 1, 0, vec![], vec![pi(1, 0, 7)]),
            vcf(2, 1, 0, vec![], vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.pre_prepares, vec![(1, d(7))]);
    }

    #[test]
    fn fast_candidate_below_witness_support_is_ignored() {
        let votes = [
            vcf(0, 1, 0, vec![], vec![pi(1, 0, 7)]),
            vcf(1, 1, 0, vec![], vec![]),
            vcf(2, 1, 0, vec![], vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert!(
            plan.pre_prepares.is_empty(),
            "a single report may be Byzantine; it must not enter the plan"
        );
    }

    #[test]
    fn classic_certificate_beats_fast_candidate_at_same_view() {
        // An equivocating primary left a prepared certificate for d(7)
        // and a victim's lone-plus-Byzantine fast votes for d(9) in the
        // same view. The certificate must win: d(7) may be classically
        // committed, while d(9) provably never fast-committed (a fast
        // commit would have made every correct replica vote d(9)).
        let votes = [
            vcf(0, 1, 0, vec![pi(1, 0, 7)], vec![pi(1, 0, 9)]),
            vcf(1, 1, 0, vec![], vec![pi(1, 0, 9)]),
            vcf(2, 1, 0, vec![], vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.pre_prepares, vec![(1, d(7))]);
    }

    #[test]
    fn higher_view_fast_candidate_beats_older_certificate() {
        let votes = [
            vcf(0, 2, 0, vec![pi(1, 0, 7)], vec![]),
            vcf(1, 2, 0, vec![], vec![pi(1, 1, 9)]),
            vcf(2, 2, 0, vec![], vec![pi(1, 1, 9)]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.pre_prepares, vec![(1, d(9))]);
    }

    #[test]
    fn duplicate_fast_reports_from_one_replica_do_not_inflate_support() {
        // A Byzantine replica lists the same candidate twice in one
        // message: support counts distinct reporters, so it stays at 1.
        let votes = [
            vcf(0, 1, 0, vec![], vec![pi(1, 0, 7), pi(1, 0, 7)]),
            vcf(1, 1, 0, vec![], vec![]),
            vcf(2, 1, 0, vec![], vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert!(plan.pre_prepares.is_empty());
    }

    #[test]
    fn fast_votes_below_min_s_are_dropped() {
        let votes = [
            vcf(0, 1, 128, vec![], vec![pi(100, 0, 7)]),
            vcf(1, 1, 128, vec![], vec![pi(100, 0, 7)]),
            vcf(2, 1, 128, vec![], vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.max_s, 128);
        assert!(plan.pre_prepares.is_empty());
    }

    #[test]
    fn certificates_below_min_s_are_dropped() {
        let votes = [
            vc(0, 1, 128, vec![pi(100, 0, 7)]),
            vc(1, 1, 128, vec![]),
            vc(2, 1, 128, vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        assert_eq!(plan.max_s, 128);
        assert!(plan.pre_prepares.is_empty());
    }

    #[test]
    fn empty_votes_plan_is_empty() {
        let plan = compute_plan(&[], &q());
        assert_eq!(plan.min_s, 0);
        assert!(plan.pre_prepares.is_empty());
    }

    #[test]
    fn validate_accepts_correct_new_view() {
        let votes = vec![
            vc(0, 1, 0, vec![pi(1, 0, 7)]),
            vc(1, 1, 0, vec![]),
            vc(2, 1, 0, vec![]),
        ];
        let plan = compute_plan(&votes, &q());
        let nv = NewView {
            view: 1,
            view_changes: votes,
            pre_prepares: plan.pre_prepares.clone(),
            batches: vec![],
        };
        assert_eq!(validate_new_view(&nv, &q()), Ok(plan));
    }

    #[test]
    fn validate_rejects_wrong_o_set() {
        let votes = vec![
            vc(0, 1, 0, vec![pi(1, 0, 7)]),
            vc(1, 1, 0, vec![]),
            vc(2, 1, 0, vec![]),
        ];
        let nv = NewView {
            view: 1,
            view_changes: votes,
            pre_prepares: vec![(1, d(9))], // forged digest
            batches: vec![],
        };
        assert_eq!(
            validate_new_view(&nv, &q()),
            Err(NewViewError::WrongComputation)
        );
    }

    #[test]
    fn validate_rejects_thin_or_mixed_quorums() {
        let votes = vec![vc(0, 1, 0, vec![]), vc(1, 1, 0, vec![])];
        let nv = NewView {
            view: 1,
            view_changes: votes,
            pre_prepares: vec![],
            batches: vec![],
        };
        assert_eq!(
            validate_new_view(&nv, &q()),
            Err(NewViewError::InsufficientVotes)
        );

        let votes = vec![
            vc(0, 1, 0, vec![]),
            vc(1, 2, 0, vec![]),
            vc(2, 1, 0, vec![]),
        ];
        let nv = NewView {
            view: 1,
            view_changes: votes,
            pre_prepares: vec![],
            batches: vec![],
        };
        assert_eq!(validate_new_view(&nv, &q()), Err(NewViewError::MixedViews));
    }

    #[test]
    fn duplicate_voters_rejected() {
        let votes = vec![
            vc(0, 1, 0, vec![]),
            vc(0, 1, 0, vec![]),
            vc(1, 1, 0, vec![]),
        ];
        let nv = NewView {
            view: 1,
            view_changes: votes,
            pre_prepares: vec![],
            batches: vec![],
        };
        assert_eq!(
            validate_new_view(&nv, &q()),
            Err(NewViewError::InsufficientVotes)
        );
    }

    // ------------------------------------------------------------------
    // The rules over every input of a small scope
    // ------------------------------------------------------------------

    const A: u8 = 1;
    const B: u8 = 2;

    /// A `(view, digest tag)` report at one sequence number.
    type Report = (View, u8);

    /// A batch committed at one sequence number: prepared in `view` with
    /// digest `digest` by every replica but `outsider`.
    #[derive(Debug, Clone, Copy)]
    struct Commit {
        view: View,
        digest: u8,
        outsider: ReplicaId,
    }

    /// One sender's reports at one sequence number.
    #[derive(Debug, Clone, Default)]
    struct Sender {
        prepared: Option<Report>,
        fast: Vec<Report>,
    }

    /// What the three senders report at one sequence number, under its
    /// history.
    type Column = (Option<Commit>, [Sender; 3]);

    /// A correct replica's highest prepared certificate under `history`:
    /// the committed batch's, from its view on, if it prepared it; if
    /// not, none, an older one, or the committed digest (quorum
    /// intersection rules out another digest prepared from that view on).
    fn may_prepare(history: Option<Commit>, r: ReplicaId, p: Option<Report>) -> bool {
        let Some(c) = history else { return true };
        match p {
            None => r == c.outsider,
            Some((w, t)) if r == c.outsider => w < c.view || t == c.digest,
            Some((w, t)) => w >= c.view && t == c.digest,
        }
    }

    /// A correct replica's fast vote under `history`: older than the
    /// commit, for its digest, or — an equivocating primary's doing — for
    /// another digest in its view from the replica that did not prepare.
    fn may_vote(history: Option<Commit>, r: ReplicaId, (w, t): Report) -> bool {
        history.is_none_or(|c| w < c.view || t == c.digest || (w == c.view && r == c.outsider))
    }

    /// Every column for new view `target` with Byzantine replica `byz`
    /// (3: outside the quorum); only prepared certificates if `classic`.
    fn columns(target: View, byz: ReplicaId, classic: bool) -> Vec<Column> {
        let reports: Vec<Report> = (0..target).flat_map(|w| [(w, A), (w, B)]).collect();
        let subsets: Vec<Vec<Report>> = (0..1u32 << reports.len())
            .map(|m| {
                (0..reports.len())
                    .filter(|i| m >> i & 1 == 1)
                    .map(|i| reports[i])
                    .collect()
            })
            .collect();
        let mut histories = vec![None];
        for &(view, digest) in &reports {
            histories.extend((0..4).map(|outsider| {
                Some(Commit {
                    view,
                    digest,
                    outsider,
                })
            }));
        }
        let mut out = Vec::new();
        for h in histories {
            let options = |r: ReplicaId| -> Vec<Sender> {
                let fast: Vec<Vec<Report>> = if classic {
                    vec![vec![]]
                } else if r == byz {
                    subsets.clone()
                } else {
                    let votes = reports.iter().filter(|&&f| may_vote(h, r, f));
                    std::iter::once(vec![])
                        .chain(votes.map(|&f| vec![f]))
                        .collect()
                };
                let prepared = std::iter::once(None).chain(reports.iter().copied().map(Some));
                prepared
                    // A Byzantine sender may also omit its certificate.
                    .filter(|&p| may_prepare(h, r, p) || (r == byz && p.is_none()))
                    .flat_map(|prepared| {
                        let fast = fast.clone();
                        fast.into_iter().map(move |fast| Sender { prepared, fast })
                    })
                    .collect()
            };
            let (o0, o1, o2) = (options(0), options(1), options(2));
            for s0 in &o0 {
                for s1 in &o1 {
                    for s2 in &o2 {
                        let senders = [s0.clone(), s1.clone(), s2.clone()];
                        let certs: Vec<Report> =
                            senders.iter().filter_map(|s| s.prepared).collect();
                        // No two certificates for one view differ.
                        let agree = certs
                            .iter()
                            .all(|a| certs.iter().all(|b| a.0 != b.0 || a.1 == b.1));
                        if agree {
                            out.push((h, senders));
                        }
                    }
                }
            }
        }
        out
    }

    /// The plan's `O` set and every one-entry change of it: a digest
    /// swapped, the last entry dropped, an entry appended.
    fn o_sets(o: &[(SeqNum, Digest)]) -> Vec<Vec<(SeqNum, Digest)>> {
        let mut out = vec![o.to_vec()];
        for i in 0..o.len() {
            for alt in [NULL_DIGEST, d(A), d(B)]
                .into_iter()
                .filter(|&a| a != o[i].1)
            {
                let mut changed = o.to_vec();
                changed[i].1 = alt;
                out.push(changed);
            }
        }
        if let Some((_, shorter)) = o.split_last() {
            out.push(shorter.to_vec());
        }
        let mut longer = o.to_vec();
        longer.push((o.len() as SeqNum + 1, d(A)));
        out.push(longer);
        out
    }

    /// Both checks on the votes `cols` make for sequence numbers 1 and 2.
    /// Returns how many committed batches it checked.
    fn check(target: View, cols: [&Column; 2]) -> usize {
        let votes: Vec<ViewChange> = (0..3)
            .map(|i| {
                let mut vote = vc(i as ReplicaId, target, 0, vec![]);
                for (seq, (_, senders)) in (1..).zip(cols) {
                    let s = &senders[i];
                    vote.prepared.extend(s.prepared.map(|(w, t)| pi(seq, w, t)));
                    vote.fast_votes
                        .extend(s.fast.iter().map(|&(w, t)| pi(seq, w, t)));
                }
                vote
            })
            .collect();
        let plan = compute_plan(&votes, &q());
        let mut committed = 0;
        for (seq, (history, _)) in (1..).zip(cols) {
            if let Some(c) = history {
                let entry = (seq, d(c.digest));
                assert!(
                    plan.pre_prepares.contains(&entry),
                    "{c:?} at {seq} is lost: {votes:?} plan to {plan:?}"
                );
                committed += 1;
            }
        }
        let mut nv = NewView {
            view: target,
            view_changes: votes,
            pre_prepares: vec![],
            batches: vec![],
        };
        for o in o_sets(&plan.pre_prepares) {
            let exact = o == plan.pre_prepares;
            nv.pre_prepares = o;
            let verdict = validate_new_view(&nv, &q());
            if exact {
                assert_eq!(verdict, Ok(plan.clone()));
            } else {
                assert_eq!(verdict, Err(NewViewError::WrongComputation), "{nv:?}");
            }
        }
        committed
    }

    /// PBFT's view-change rules over every input of a small scope: n = 4
    /// (f = 1), sequence numbers 1 and 2, digests `A` and `B`, new views 1
    /// and 2 (certificates from views 0 and 1), one Byzantine replica. The
    /// NEW-VIEW carries the votes of replicas 0, 1 and 2 (the lowest ids,
    /// as `build_new_view` picks them); the Byzantine replica is one of
    /// them or replica 3.
    ///
    /// At each sequence number a history says whether a batch committed
    /// there (prepared by three replicas), and correct senders report only
    /// what it allows ([`may_prepare`], [`may_vote`]). The Byzantine
    /// sender's fast votes are any set; its prepared certificates are any
    /// a correct sender could report, or none — a forged certificate is
    /// the documented gap of summary view changes (DESIGN.md §5.7).
    ///
    /// Every column is checked at each sequence number with the other
    /// silent, and every pair of classic columns (no fast votes) at both.
    /// Check 1: a committed batch is in the plan's `O` set with its
    /// digest. Check 2: `validate_new_view` accepts exactly the `O` set
    /// the plan computes, among it and its one-entry changes.
    #[test]
    fn every_input_of_a_small_scope_keeps_committed_batches_and_validates_exactly() {
        let silent: Column = (None, Default::default());
        let (mut inputs, mut committed) = (0usize, 0usize);
        for target in 1..=2 {
            for byz in 0..4 {
                for col in &columns(target, byz, false) {
                    committed += check(target, [col, &silent]) + check(target, [&silent, col]);
                    inputs += 2;
                }
                let classic = columns(target, byz, true);
                for c1 in &classic {
                    for c2 in &classic {
                        committed += check(target, [c1, c2]);
                        inputs += 1;
                    }
                }
            }
        }
        // The scope, pinned: a change that shrinks it fails here.
        assert_eq!((inputs, committed), (642_052, 504_944));
    }
}
