//! Proactive recovery state (Castro & Liskov's follow-up to the paper:
//! recover replicas *before* they are known faulty, so faults do not
//! accumulate past `f` over the system's lifetime).
//!
//! The [`RecoveryManager`] tracks two things:
//!
//! - **Our own recovery** as a small state machine: `Idle` →
//!   `AwaitingAttestation` (fresh keys announced, collecting `f+1`
//!   matching stable-checkpoint attestations — the recovering replica
//!   trusts *nothing* it holds locally, including its own checkpoint
//!   store) → `Auditing` (state audited partition-by-partition against
//!   the attested Merkle root, mismatches re-fetched) → `Idle`.
//! - **Peer recovery leases**: when a peer announces RECOVER we remember
//!   a lease expiry; our own watchdog defers while any lease is live, so
//!   at most one replica is in-recovery at a time (for f = 1) even
//!   though every replica runs its own staggered timer — the same
//!   budget discipline the chaos planner applies to injected faults.
//!
//! The attestation threshold is [`Quorums::witness_quorum`] (`f+1`):
//! MAC-authenticated attestations are not transferable certificates, so
//! the recovering replica acts only on matching claims from enough
//! distinct peers that at least one is correct.

use crate::types::{Quorums, ReplicaId, SeqNum};
use bft_crypto::md5::Digest;
use std::collections::BTreeMap;

/// Where this replica is in its own recovery.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RecoveryStage {
    /// Not recovering.
    #[default]
    Idle,
    /// RECOVER multicast; collecting stable-checkpoint attestations.
    AwaitingAttestation {
        /// Per-peer (stable seq, Merkle root) claims, in replica order.
        votes: BTreeMap<ReplicaId, (SeqNum, Digest)>,
    },
    /// Attested root obtained; auditing state against it (re-fetching
    /// mismatched partitions through the state-transfer path).
    Auditing {
        /// The attested stable checkpoint being audited against.
        seq: SeqNum,
    },
}

/// Recovery bookkeeping for one replica: its own stage plus peer leases.
#[derive(Debug, Default)]
pub struct RecoveryManager {
    stage: RecoveryStage,
    /// Lease expiry (ns) per recovering peer. A lease is granted on
    /// RECOVER and released early by RECOVER(done) or by expiry.
    leases: BTreeMap<ReplicaId, u64>,
}

impl RecoveryManager {
    /// A manager with no recovery in progress and no leases.
    pub fn new() -> RecoveryManager {
        RecoveryManager::default()
    }

    /// True while our own recovery is running (any non-idle stage). A
    /// replica in this state must not serve read-only replies: its state
    /// is suspect until the audit completes (arXiv:2107.11144 makes the
    /// read-only path the liveness-critical one under degraded replicas).
    pub fn in_progress(&self) -> bool {
        self.stage != RecoveryStage::Idle
    }

    /// The current stage.
    pub fn stage(&self) -> &RecoveryStage {
        &self.stage
    }

    /// Starts our own recovery: begins collecting attestations.
    pub fn begin(&mut self) {
        self.stage = RecoveryStage::AwaitingAttestation {
            votes: BTreeMap::new(),
        };
    }

    /// Records a peer's stable-checkpoint attestation. Ignored unless we
    /// are awaiting attestations; a peer's latest claim wins.
    pub fn note_vote(&mut self, from: ReplicaId, seq: SeqNum, digest: Digest) {
        if let RecoveryStage::AwaitingAttestation { votes } = &mut self.stage {
            votes.insert(from, (seq, digest));
        }
    }

    /// The highest (seq, digest) attested by a witness quorum of distinct
    /// peers, if any. `f+1` matching claims contain at least one correct
    /// replica, so the root is trustworthy even though we trust nothing
    /// local.
    pub fn attested(&self, q: &Quorums) -> Option<(SeqNum, Digest)> {
        let RecoveryStage::AwaitingAttestation { votes } = &self.stage else {
            return None;
        };
        let mut counts: BTreeMap<(SeqNum, Digest), usize> = BTreeMap::new();
        for &claim in votes.values() {
            *counts.entry(claim).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n >= q.witness_quorum())
            .map(|(claim, _)| claim)
            .max_by_key(|&(seq, _)| seq)
    }

    /// Moves from attestation-collecting to auditing against `seq`.
    pub fn start_audit(&mut self, seq: SeqNum) {
        self.stage = RecoveryStage::Auditing { seq };
    }

    /// The checkpoint under audit, if auditing.
    pub fn auditing_seq(&self) -> Option<SeqNum> {
        match &self.stage {
            RecoveryStage::Auditing { seq } => Some(*seq),
            _ => None,
        }
    }

    /// Completes our own recovery.
    pub fn finish(&mut self) {
        self.stage = RecoveryStage::Idle;
    }

    /// Grants (or extends) a peer's recovery lease until `until_ns`.
    pub fn grant_lease(&mut self, replica: ReplicaId, until_ns: u64) {
        let entry = self.leases.entry(replica).or_insert(0);
        *entry = (*entry).max(until_ns);
    }

    /// Releases a peer's lease (its RECOVER(done) arrived).
    pub fn release_lease(&mut self, replica: ReplicaId) {
        self.leases.remove(&replica);
    }

    /// If another replica holds a live recovery lease at `now_ns`,
    /// returns the latest such expiry — our own watchdog defers until
    /// then. Expired leases are pruned as a side effect, so a recovering
    /// replica that crashed before sending RECOVER(done) only blocks
    /// peers for the bounded lease duration.
    pub fn lease_blocking(&mut self, me: ReplicaId, now_ns: u64) -> Option<u64> {
        self.leases.retain(|_, &mut until| until > now_ns);
        self.leases
            .iter()
            .filter(|&(&r, _)| r != me)
            .map(|(_, &until)| until)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Quorums {
        Quorums::minimal(1)
    }

    fn digest(tag: u8) -> Digest {
        bft_crypto::digest(&[tag])
    }

    #[test]
    fn attestation_needs_a_witness_quorum() {
        let mut rm = RecoveryManager::new();
        rm.begin();
        assert!(rm.in_progress());
        rm.note_vote(1, 128, digest(1));
        assert_eq!(rm.attested(&q()), None, "one claim is not enough");
        rm.note_vote(2, 128, digest(1));
        assert_eq!(rm.attested(&q()), Some((128, digest(1))));
    }

    #[test]
    fn mismatched_attestations_do_not_combine() {
        let mut rm = RecoveryManager::new();
        rm.begin();
        rm.note_vote(1, 128, digest(1));
        rm.note_vote(2, 128, digest(2));
        rm.note_vote(3, 64, digest(1));
        assert_eq!(rm.attested(&q()), None, "claims must match exactly");
    }

    #[test]
    fn highest_attested_checkpoint_wins() {
        let mut rm = RecoveryManager::new();
        rm.begin();
        rm.note_vote(0, 64, digest(1));
        rm.note_vote(1, 64, digest(1));
        rm.note_vote(2, 128, digest(2));
        rm.note_vote(3, 128, digest(2));
        assert_eq!(
            rm.attested(&q()),
            Some((128, digest(2))),
            "with two attested checkpoints, adopt the most recent"
        );
    }

    #[test]
    fn a_peers_latest_claim_replaces_its_earlier_one() {
        let mut rm = RecoveryManager::new();
        rm.begin();
        rm.note_vote(1, 64, digest(1));
        rm.note_vote(1, 128, digest(2));
        rm.note_vote(2, 128, digest(2));
        assert_eq!(rm.attested(&q()), Some((128, digest(2))));
    }

    #[test]
    fn stage_transitions() {
        let mut rm = RecoveryManager::new();
        assert!(!rm.in_progress());
        rm.begin();
        rm.start_audit(128);
        assert_eq!(rm.auditing_seq(), Some(128));
        assert!(rm.in_progress());
        rm.finish();
        assert!(!rm.in_progress());
        assert_eq!(rm.auditing_seq(), None);
    }

    #[test]
    fn leases_block_until_expiry_or_release() {
        let mut rm = RecoveryManager::new();
        assert_eq!(rm.lease_blocking(0, 100), None);
        rm.grant_lease(2, 500);
        assert_eq!(rm.lease_blocking(0, 100), Some(500));
        // Our own lease never blocks us.
        assert_eq!(rm.lease_blocking(2, 100), None);
        // Expiry prunes.
        assert_eq!(rm.lease_blocking(0, 500), None);
        // Early release.
        rm.grant_lease(3, 900);
        rm.release_lease(3);
        assert_eq!(rm.lease_blocking(0, 100), None);
    }

    #[test]
    fn lease_extensions_never_shorten() {
        let mut rm = RecoveryManager::new();
        rm.grant_lease(1, 800);
        rm.grant_lease(1, 300);
        assert_eq!(rm.lease_blocking(0, 0), Some(800));
    }
}
