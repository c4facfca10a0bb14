//! Checkpoint management: periodic state digests, stability proofs, and
//! garbage-collection triggers.
//!
//! Every `K` sequence numbers a replica digests its state and, once the
//! checkpoint's batch commits, multicasts a CHECKPOINT message. When it
//! holds `2f+1` matching claims for a sequence number, that checkpoint is
//! *stable*: the log below it can be discarded and the low water mark
//! advances.
//!
//! # Incremental hierarchical digests
//!
//! The checkpoint digest is the root of a Merkle tree whose leaves are
//! the service's partition digests plus one leaf for the reply cache
//! (Section 4's hierarchical state partitions). [`CheckpointTracker`]
//! keeps that tree alive between checkpoints: producing the next
//! checkpoint digest only re-hashes the partitions the service reports
//! dirty and folds them up the tree — `O(dirty · log P)` instead of
//! `O(state)`.
//!
//! Checkpoints are also *lazy*: a local checkpoint records the leaf
//! digests and the reply cache, but partition bytes are serialized only
//! if the service cannot retain a copy-on-write version itself
//! ([`crate::service::Service::retain_checkpoint`] returns `false`).
//! Nothing is encoded until a lagging peer actually fetches state.

use crate::messages::{Checkpoint, Ctx};
use crate::service::Service;
use crate::types::{Quorums, ReplicaId, SeqNum};
use bft_crypto::md5::Digest;
use bft_crypto::merkle::MerkleTree;
use bft_sim::cost::CostModel;
use bft_sim::CostKind;
use std::collections::{BTreeMap, BTreeSet};

/// A checkpoint this replica produced locally.
#[derive(Debug, Clone)]
pub struct OwnCheckpoint {
    /// Checkpoint digest: the Merkle root over `leaves`.
    pub digest: Digest,
    /// Partition digests (`partition_count()` service leaves followed by
    /// the reply-cache leaf), the raw values under [`Self::digest`].
    pub leaves: Vec<Digest>,
    /// Encoded reply cache at this checkpoint (always materialized — it
    /// is small and changes with every reply).
    pub cache_bytes: Vec<u8>,
    /// Eagerly serialized partition bytes, kept only when the service
    /// could not retain a copy-on-write version (`None` means partition
    /// bytes are served lazily via `Service::retained_partition`).
    pub parts: Option<Vec<Vec<u8>>>,
    /// Whether the CHECKPOINT message has been multicast yet (it is held
    /// until the checkpoint's batch commits).
    pub announced: bool,
}

impl OwnCheckpoint {
    /// Builds a checkpoint from its leaf digests; the checkpoint digest
    /// is the Merkle root they commit to. `parts`, when present, are the
    /// eagerly serialized partition bytes (one entry per *service*
    /// partition, i.e. `leaves.len() - 1`).
    pub fn new(
        leaves: Vec<Digest>,
        cache_bytes: Vec<u8>,
        parts: Option<Vec<Vec<u8>>>,
    ) -> OwnCheckpoint {
        OwnCheckpoint {
            digest: MerkleTree::root_of(&leaves),
            leaves,
            cache_bytes,
            parts,
            announced: false,
        }
    }
}

/// What a [`CheckpointTracker::refresh`] actually re-hashed, so the
/// simulation can charge digest CPU proportional to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshStats {
    /// Service partitions that were re-digested (excludes the cache
    /// leaf).
    pub dirty_parts: u32,
    /// Total encoded bytes re-hashed (dirty partitions + reply cache).
    pub dirty_bytes: u64,
    /// The resulting checkpoint digest (Merkle root).
    pub root: Digest,
}

/// A live Merkle tree over the service's partition digests plus the
/// reply-cache leaf. Kept between checkpoints so each checkpoint only
/// pays for the partitions dirtied since the previous one.
#[derive(Debug, Clone)]
pub struct CheckpointTracker {
    tree: MerkleTree,
    parts: u32,
}

impl CheckpointTracker {
    /// Builds the tree from scratch, digesting every partition. Used at
    /// construction and after wholesale state replacement.
    pub fn new<S: Service + ?Sized>(svc: &S, cache_bytes: &[u8]) -> CheckpointTracker {
        let parts = svc.partition_count();
        let mut leaves: Vec<Digest> = (0..parts).map(|p| svc.partition_digest(p)).collect();
        leaves.push(bft_crypto::digest(cache_bytes));
        CheckpointTracker {
            tree: MerkleTree::new(leaves),
            parts,
        }
    }

    /// Drains the service's dirty set, re-digests exactly those
    /// partitions plus the reply-cache leaf, and folds the changes up
    /// the tree. Returns what was re-hashed and the new root.
    pub fn refresh<S: Service + ?Sized>(
        &mut self,
        svc: &mut S,
        cache_bytes: &[u8],
    ) -> RefreshStats {
        let dirty = svc.take_dirty_partitions();
        let mut dirty_bytes = 0u64;
        for &p in &dirty {
            dirty_bytes += svc.partition_size(p) as u64;
            self.tree.update(p as usize, svc.partition_digest(p));
        }
        // The reply cache changes with every executed request, so its
        // leaf is unconditionally refreshed.
        dirty_bytes += cache_bytes.len() as u64;
        self.tree
            .update(self.parts as usize, bft_crypto::digest(cache_bytes));
        RefreshStats {
            dirty_parts: dirty.len() as u32,
            dirty_bytes,
            root: self.tree.root(),
        }
    }

    /// Charges the state digests of the refresh that returned `stats`
    /// (`cache_len` bytes of reply cache included) and returns the
    /// charge; without `incremental`, the ablation baseline, every
    /// partition is charged.
    pub(crate) fn charge_refresh(
        &self,
        ctx: &mut Ctx,
        cost: &CostModel,
        svc: &impl Service,
        stats: &RefreshStats,
        cache_len: usize,
        incremental: bool,
    ) -> u64 {
        let total = self.parts + 1;
        let digest_ns = if incremental {
            cost.partitioned_digest(stats.dirty_parts + 1, stats.dirty_bytes, total)
        } else {
            let sizes = (0..self.parts).map(|p| svc.partition_size(p) as u64);
            cost.partitioned_digest(total, sizes.sum::<u64>() + cache_len as u64, total)
        };
        ctx.charge_kind(CostKind::Digest, digest_ns);
        digest_ns
    }

    /// The current checkpoint digest (Merkle root).
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// The raw leaf digests: `partition_count()` service partitions
    /// followed by the reply-cache leaf.
    pub fn leaves(&self) -> &[Digest] {
        self.tree.leaves()
    }

    /// Number of *service* partitions (the tree has one more leaf for
    /// the reply cache).
    pub fn partition_count(&self) -> u32 {
        self.parts
    }

    /// Recomputes the checkpoint digest a set of leaves commits to.
    /// Fetchers use this to validate an advertised leaf vector against
    /// the quorum-agreed checkpoint digest.
    pub fn root_of(leaves: &[Digest]) -> Digest {
        MerkleTree::root_of(leaves)
    }
}

/// Whether fetched `leaves` commit to the agreed checkpoint digest
/// `root`; charged their digest.
pub(crate) fn commits_to(ctx: &mut Ctx, cost: &CostModel, leaves: &[Digest], root: Digest) -> bool {
    ctx.charge_kind(CostKind::Digest, cost.digest(leaves.len() * 16));
    CheckpointTracker::root_of(leaves) == root
}

/// The partitions of `svc` whose digest differs from `leaves` (all when
/// the counts differ); charged a digest's fixed cost per partition.
pub(crate) fn stale_partitions(
    ctx: &mut Ctx,
    cost: &CostModel,
    svc: &impl Service,
    leaves: &[Digest],
) -> BTreeSet<u32> {
    let same_layout = leaves.len() == svc.partition_count() as usize;
    ctx.charge_kind(CostKind::Digest, leaves.len() as u64 * cost.digest_fixed_ns);
    (0..)
        .zip(leaves)
        .filter(|&(p, leaf)| !(same_layout && svc.partition_digest(p) == *leaf))
        .map(|(p, _)| p)
        .collect()
}

/// Whether fetched part `p`'s `bytes` digest to `leaf`, charged: the
/// service checks as it restores; the reply cache (`cache_idx`) is hashed.
pub(crate) fn restore_part(
    ctx: &mut Ctx,
    cost: &CostModel,
    svc: &mut impl Service,
    p: u32,
    cache_idx: u32,
    bytes: &[u8],
    leaf: &Digest,
) -> bool {
    ctx.charge_kind(CostKind::Digest, cost.digest(bytes.len()));
    if p == cache_idx {
        bft_crypto::digest(bytes) == *leaf
    } else {
        svc.restore_partition(p, bytes, leaf).is_ok()
    }
}

/// A newly stable checkpoint, returned by [`CheckpointSet::add_claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewlyStable {
    /// The stable sequence number.
    pub seq: SeqNum,
    /// The agreed state digest.
    pub digest: Digest,
}

/// All checkpoint state for one replica.
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    quorums: Quorums,
    /// Locally produced checkpoints, by sequence number.
    own: BTreeMap<SeqNum, OwnCheckpoint>,
    /// Claims received (including our own announcements).
    claims: BTreeMap<SeqNum, BTreeMap<ReplicaId, Digest>>,
    stable_seq: SeqNum,
    stable_digest: Digest,
}

impl CheckpointSet {
    /// Creates the checkpoint state with the genesis checkpoint (sequence
    /// 0) already stable.
    pub fn new(quorums: Quorums, mut genesis: OwnCheckpoint) -> CheckpointSet {
        genesis.announced = true;
        let stable_digest = genesis.digest;
        let mut own = BTreeMap::new();
        own.insert(0, genesis);
        CheckpointSet {
            quorums,
            own,
            claims: BTreeMap::new(),
            stable_seq: 0,
            stable_digest,
        }
    }

    /// The last stable checkpoint sequence number.
    pub fn stable_seq(&self) -> SeqNum {
        self.stable_seq
    }

    /// The last stable checkpoint digest.
    pub fn stable_digest(&self) -> Digest {
        self.stable_digest
    }

    /// The (seq, digest) pair a peer attests to a recovering replica —
    /// its stable checkpoint, the newest state backed by a quorum
    /// certificate rather than local trust.
    pub fn stable_proof(&self) -> (SeqNum, Digest) {
        (self.stable_seq, self.stable_digest)
    }

    /// Records a locally produced checkpoint (not yet announced).
    pub fn note_own(&mut self, seq: SeqNum, checkpoint: OwnCheckpoint) {
        self.own.insert(seq, checkpoint);
    }

    /// Returns the local checkpoint at `seq`, if any.
    pub fn own(&self, seq: SeqNum) -> Option<&OwnCheckpoint> {
        self.own.get(&seq)
    }

    /// Marks the local checkpoint at `seq` as announced and returns its
    /// digest, or `None` if there is no local checkpoint there.
    pub fn mark_announced(&mut self, seq: SeqNum) -> Option<Digest> {
        let cp = self.own.get_mut(&seq)?;
        cp.announced = true;
        Some(cp.digest)
    }

    /// Local checkpoints that are not yet announced and are at or below
    /// `committed_seq` (their batches have committed).
    pub fn announceable(&self, committed_seq: SeqNum) -> Vec<(SeqNum, Digest)> {
        self.own
            .iter()
            .filter(|&(&s, cp)| !cp.announced && s <= committed_seq && s > 0)
            .map(|(&s, cp)| (s, cp.digest))
            .collect()
    }

    /// Records a CHECKPOINT claim. Returns the new stable checkpoint if
    /// this claim completed a `2f+1` quorum above the current stable
    /// sequence number.
    pub fn add_claim(&mut self, cp: &Checkpoint) -> Option<NewlyStable> {
        if cp.seq <= self.stable_seq {
            return None;
        }
        let claims = self.claims.entry(cp.seq).or_default();
        claims.insert(cp.replica, cp.state_digest);
        // Count the most common digest at this sequence number. BTreeMap
        // iteration makes the max_by_key tie-break deterministic (the
        // largest digest among equally counted ones wins on every replica).
        let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
        for &d in claims.values() {
            *counts.entry(d).or_insert(0) += 1;
        }
        let (&digest, &count) = counts.iter().max_by_key(|&(_, &c)| c)?;
        if count >= self.quorums.checkpoint_quorum() {
            Some(NewlyStable {
                seq: cp.seq,
                digest,
            })
        } else {
            None
        }
    }

    /// Installs a stable checkpoint: advances the stable marker and prunes
    /// older checkpoints and claims. Returns `false` if `seq` is not newer
    /// than the current stable checkpoint.
    pub fn make_stable(&mut self, seq: SeqNum, digest: Digest) -> bool {
        if seq <= self.stable_seq {
            return false;
        }
        self.stable_seq = seq;
        self.stable_digest = digest;
        self.own = self.own.split_off(&seq);
        self.claims = self.claims.split_off(&(seq + 1));
        true
    }

    /// Evidence that this replica has fallen behind: a claim quorum exists
    /// for a sequence number greater than `horizon`. Returns the highest
    /// such `(seq, digest)`.
    pub fn quorum_beyond(&self, horizon: SeqNum) -> Option<NewlyStable> {
        for (&seq, claims) in self.claims.iter().rev() {
            if seq <= horizon {
                break;
            }
            let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
            for &d in claims.values() {
                *counts.entry(d).or_insert(0) += 1;
            }
            if let Some((&digest, &count)) = counts.iter().max_by_key(|&(_, &c)| c) {
                if count >= self.quorums.checkpoint_quorum() {
                    return Some(NewlyStable { seq, digest });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An eagerly materialized one-partition checkpoint whose content is
    /// the single byte `tag`.
    fn own_cp(tag: u8) -> OwnCheckpoint {
        OwnCheckpoint::new(
            vec![bft_crypto::digest(&[tag]), bft_crypto::digest(b"")],
            Vec::new(),
            Some(vec![vec![tag]]),
        )
    }

    fn set() -> CheckpointSet {
        CheckpointSet::new(Quorums::minimal(1), own_cp(7))
    }

    fn claim(seq: SeqNum, replica: ReplicaId, tag: u8) -> Checkpoint {
        Checkpoint {
            seq,
            state_digest: bft_crypto::digest(&[tag]),
            replica,
        }
    }

    #[test]
    fn genesis_is_stable() {
        let s = set();
        assert_eq!(s.stable_seq(), 0);
        assert_eq!(s.stable_digest(), own_cp(7).digest);
        let genesis = s.own(0).expect("genesis retained");
        assert!(genesis.announced, "genesis needs no announcement");
        assert_eq!(genesis.parts.as_deref(), Some([vec![7u8]].as_slice()));
    }

    #[test]
    fn own_checkpoint_digest_is_merkle_root() {
        let cp = own_cp(3);
        assert_eq!(cp.digest, MerkleTree::root_of(&cp.leaves));
    }

    #[test]
    fn quorum_makes_stable() {
        let mut s = set();
        assert!(s.add_claim(&claim(128, 0, 1)).is_none());
        assert!(s.add_claim(&claim(128, 1, 1)).is_none());
        let stable = s.add_claim(&claim(128, 2, 1)).expect("2f+1 claims");
        assert_eq!(stable.seq, 128);
        assert!(s.make_stable(stable.seq, stable.digest));
        assert_eq!(s.stable_seq(), 128);
    }

    #[test]
    fn mismatched_digests_do_not_form_quorum() {
        let mut s = set();
        assert!(s.add_claim(&claim(128, 0, 1)).is_none());
        assert!(s.add_claim(&claim(128, 1, 2)).is_none());
        assert!(s.add_claim(&claim(128, 2, 3)).is_none());
        // A fourth claim matching one of them still only makes 2 < 2f+1.
        assert!(s.add_claim(&claim(128, 3, 1)).is_none());
    }

    #[test]
    fn duplicate_claims_count_once() {
        let mut s = set();
        assert!(s.add_claim(&claim(128, 0, 1)).is_none());
        assert!(s.add_claim(&claim(128, 0, 1)).is_none());
        assert!(s.add_claim(&claim(128, 0, 1)).is_none());
    }

    #[test]
    fn stale_claims_ignored() {
        let mut s = set();
        for r in 0..3 {
            let res = s.add_claim(&claim(128, r, 1));
            if r == 2 {
                let st = res.expect("stable");
                s.make_stable(st.seq, st.digest);
            }
        }
        assert!(s.add_claim(&claim(100, 3, 9)).is_none(), "below stable");
        assert!(!s.make_stable(100, bft_crypto::digest(b"x")));
    }

    #[test]
    fn own_checkpoints_announceable_only_after_commit() {
        let mut s = set();
        s.note_own(128, own_cp(1));
        s.note_own(256, own_cp(2));
        assert_eq!(s.announceable(128).len(), 1);
        assert_eq!(s.announceable(300).len(), 2);
        s.mark_announced(128).expect("exists");
        assert_eq!(s.announceable(300).len(), 1);
    }

    #[test]
    fn make_stable_prunes_older_own_checkpoints() {
        let mut s = set();
        s.note_own(128, own_cp(1));
        s.note_own(256, own_cp(2));
        s.make_stable(256, own_cp(2).digest);
        assert!(s.own(128).is_none());
        assert!(s.own(256).is_some());
        assert_eq!(s.stable_digest(), own_cp(2).digest);
    }

    #[test]
    fn tracker_incremental_root_matches_full_rebuild() {
        use crate::service::{CounterService, Service};
        let mut svc = CounterService::default();
        svc.execute(1, &CounterService::add_op(4));
        let mut tracker = CheckpointTracker::new(&svc, b"cache0");
        assert_eq!(
            tracker.root(),
            CheckpointTracker::new(&svc, b"cache0").root()
        );
        svc.take_dirty_partitions(); // tracker::new digested everything
        svc.execute(1, &CounterService::add_op(9));
        let stats = tracker.refresh(&mut svc, b"cache1");
        assert_eq!(stats.dirty_parts, 1);
        assert_eq!(stats.root, tracker.root());
        assert_eq!(
            tracker.root(),
            CheckpointTracker::new(&svc, b"cache1").root()
        );
        // A refresh with nothing dirty only re-hashes the cache leaf.
        let stats = tracker.refresh(&mut svc, b"cache1");
        assert_eq!(stats.dirty_parts, 0);
        assert_eq!(stats.dirty_bytes, b"cache1".len() as u64);
    }

    #[test]
    fn tracker_leaves_commit_to_root() {
        let svc = crate::service::CounterService::default();
        let tracker = CheckpointTracker::new(&svc, b"rc");
        assert_eq!(tracker.root(), CheckpointTracker::root_of(tracker.leaves()));
        assert_eq!(
            tracker.leaves().len(),
            tracker.partition_count() as usize + 1,
            "service partitions plus the reply-cache leaf"
        );
    }

    #[test]
    fn quorum_beyond_detects_lag() {
        let mut s = set();
        for r in 0..3 {
            s.add_claim(&claim(512, r, 4));
        }
        let evidence = s.quorum_beyond(128).expect("quorum at 512");
        assert_eq!(evidence.seq, 512);
        assert!(s.quorum_beyond(512).is_none());
    }
}
