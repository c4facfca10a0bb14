//! Core protocol identifiers and quorum arithmetic.

/// A replica index in `0..n`.
pub type ReplicaId = u32;

/// A client identifier. In the simulation, clients use node ids `>= n`.
pub type ClientId = u32;

/// A view number. The primary of view `v` is replica `v mod n`.
pub type View = u64;

/// A protocol sequence number (one per batch).
pub type SeqNum = u64;

/// Client-local request timestamp (monotonically increasing per client).
pub type Timestamp = u64;

/// Group size / fault-threshold arithmetic for a group of `n = 3f + 1`
/// replicas.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quorums {
    /// Number of replicas.
    pub n: u32,
    /// Maximum number of faulty replicas tolerated.
    pub f: u32,
}

impl Quorums {
    /// Creates quorum parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 3f + 1` and `f >= 1`.
    pub fn new(n: u32, f: u32) -> Quorums {
        assert!(f >= 1, "f must be at least 1");
        assert!(n > 3 * f, "need n >= 3f+1 (n={n}, f={f})");
        Quorums { n, f }
    }

    /// The smallest group tolerating `f` faults: `n = 3f + 1`.
    pub fn minimal(f: u32) -> Quorums {
        Quorums::new(3 * f + 1, f)
    }

    /// The primary of view `v`.
    pub fn primary(&self, v: View) -> ReplicaId {
        (v % self.n as u64) as ReplicaId
    }

    /// Prepares needed (besides the pre-prepare) for a prepared
    /// certificate: `2f`.
    pub fn prepare_quorum(&self) -> usize {
        2 * self.f as usize
    }

    /// Commits needed for a committed certificate: `2f + 1`.
    pub fn commit_quorum(&self) -> usize {
        2 * self.f as usize + 1
    }

    /// Matching replies a client needs for a *committed* result: `f + 1`.
    pub fn reply_quorum(&self) -> usize {
        self.f as usize + 1
    }

    /// Matching replies a client needs for a *tentative* or read-only
    /// result: `2f + 1`.
    pub fn tentative_reply_quorum(&self) -> usize {
        2 * self.f as usize + 1
    }

    /// Checkpoint messages needed for a stable checkpoint: `2f + 1`.
    pub fn checkpoint_quorum(&self) -> usize {
        2 * self.f as usize + 1
    }

    /// View-change messages needed to install a new view: `2f + 1`.
    pub fn view_change_quorum(&self) -> usize {
        2 * self.f as usize + 1
    }

    /// Revoke acks the primary needs before the write fence lifts: all
    /// `n − 1` backups (arXiv:2107.11144).
    ///
    /// The threshold is every holder, not a quorum: a lease is granted to
    /// each backup individually, and any *one* un-revoked correct holder
    /// could keep serving reads from pre-write state while the write
    /// commits. Waiting for a mere quorum of acks would leave that
    /// straggler leased. Unreachable holders cannot block writes forever,
    /// though — the fence also lifts when the last grant's conservative
    /// expiry passes, so `n − 1` acks is purely the fast lift.
    pub fn lease_revoke_quorum(&self) -> usize {
        self.n as usize - 1
    }

    /// Fresh liveness reports from distinct backups a primary needs
    /// before granting (or renewing) a read lease: `2f`.
    ///
    /// With the primary's own vote that is a majority-intersecting
    /// `2f + 1` view: any later view change's `2f + 1` quorum overlaps
    /// it in a correct replica, so a deposed primary — which by
    /// definition lost contact with some view-change participant —
    /// stops meeting this bar within one evidence window and its
    /// outstanding grants drain by expiry before the new view orders
    /// writes.
    pub fn lease_evidence_quorum(&self) -> usize {
        2 * self.f as usize
    }

    /// Matching assertions from `f + 1` *distinct* replicas are
    /// guaranteed to include one from a correct replica — the bound for
    /// joining an in-progress view change and for trusting peer claims
    /// that a batch committed (backfill).
    pub fn witness_quorum(&self) -> usize {
        self.f as usize + 1
    }

    /// All replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        0..self.n
    }

    /// All replica ids except `me`.
    pub fn others(&self, me: ReplicaId) -> Vec<ReplicaId> {
        (0..self.n).filter(|&r| r != me).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_group_sizes() {
        let q = Quorums::minimal(1);
        assert_eq!(q.n, 4);
        assert_eq!(q.prepare_quorum(), 2);
        assert_eq!(q.commit_quorum(), 3);
        assert_eq!(q.reply_quorum(), 2);
        assert_eq!(q.tentative_reply_quorum(), 3);
        assert_eq!(q.lease_revoke_quorum(), 3);

        let q2 = Quorums::minimal(2);
        assert_eq!(q2.n, 7);
        assert_eq!(q2.commit_quorum(), 5);
        assert_eq!(q2.lease_revoke_quorum(), 6);
    }

    #[test]
    fn primary_rotates() {
        let q = Quorums::minimal(1);
        assert_eq!(q.primary(0), 0);
        assert_eq!(q.primary(1), 1);
        assert_eq!(q.primary(4), 0);
        assert_eq!(q.primary(7), 3);
    }

    #[test]
    fn overprovisioned_group() {
        // n may exceed 3f+1; quorums depend only on f.
        let q = Quorums::new(5, 1);
        assert_eq!(q.commit_quorum(), 3);
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn undersized_group_rejected() {
        Quorums::new(3, 1);
    }

    #[test]
    fn others_excludes_self() {
        let q = Quorums::minimal(1);
        assert_eq!(q.others(2), vec![0, 1, 3]);
    }

    #[test]
    fn quorum_intersection_invariant() {
        // Any two commit quorums intersect in at least f+1 replicas, so at
        // least one correct replica is in both — the core safety argument.
        for f in 1..5u32 {
            let q = Quorums::minimal(f);
            let overlap = 2 * q.commit_quorum() as i64 - q.n as i64;
            assert!(overlap > q.f as i64, "f={f}");
        }
    }
}
