//! The BFT replica: a [`bft_sim::Node`] implementing the full protocol —
//! normal-case three-phase ordering with all the paper's optimizations,
//! checkpoints and garbage collection, view changes, and state transfer.

use crate::bodies::Bodies;
use crate::checkpoint::{CheckpointSet, CheckpointTracker, OwnCheckpoint};
use crate::config::Config;
use crate::invariants::ReplicaAudit;
use crate::lease::{Facts, Fence, Leases, Tick};
use crate::log::{Log, RequestRef, Slot};
use crate::messages::*;
use crate::recovery::{RecoveryManager, RecoveryStage};
use crate::service::Service;
use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, View};
use crate::viewchange::{compute_plan, validate_new_view, ViewChangeSet};
use crate::wire::Wire;
use bft_crypto::keychain::{Authenticator, KeyChain};
use bft_crypto::md5::Digest;
use bft_sim::time::dur;
use bft_sim::{
    Context, CostKind, Counter, HealthSnapshot, Node, NodeId, Role, SpanEdge, TimerId, TraceMeta,
    TracePhase,
};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Timer tokens.
const TIMER_RESEND: u64 = 1;
const TIMER_VIEW_CHANGE: u64 = 2;
const TIMER_PIGGY: u64 = 3;
const TIMER_KEY_REFRESH: u64 = 4;
const TIMER_RECOVERY: u64 = 5;
const TIMER_LEASE: u64 = 6;
/// One-shot fast-path fallback timers: token is `TIMER_FASTPATH_BASE + seq`
/// (well above every sequence number a log window can reach).
const TIMER_FASTPATH_BASE: u64 = 1 << 32;

/// Fault-injection behaviours for testing. A correct deployment uses
/// [`Behavior::Correct`]; the others make this replica Byzantine in a
/// specific, reproducible way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follow the protocol.
    #[default]
    Correct,
    /// Stop processing everything (fail-stop crash).
    Crashed,
    /// Process incoming messages but never send anything.
    Silent,
    /// As primary, send conflicting pre-prepares to different backups.
    EquivocatingPrimary,
    /// Send garbage authentication tags on every message.
    CorruptAuth,
    /// Execute correctly but reply with corrupted results.
    WrongResult,
    /// As the new primary of a view change, forge the NEW-VIEW `O` set.
    BadNewView,
    /// Serve corrupted snapshots to state-transfer requests.
    CorruptStateData,
    /// Stop producing checkpoints (a wedged background digester or full
    /// disk): the replica keeps ordering and executing but its stable
    /// point freezes, so it stalls at the log-window edge and limps along
    /// through repeated state transfers until healed.
    StaleState,
    /// Test-only: treat every executable slot as committed without
    /// waiting for a quorum. Exists to deliberately violate agreement so
    /// the invariant checker can be validated end to end.
    BrokenQuorumCheck,
}

/// A cached last reply for one client (BFT's reply cache, part of the
/// checkpointed state).
#[derive(Debug, Clone)]
struct CachedReply {
    timestamp: Timestamp,
    result: Vec<u8>,
    tentative: bool,
    view: View,
}

/// A read-only reply waiting for the committed prefix to catch up.
#[derive(Debug, Clone)]
struct WaitingRo {
    client: ClientId,
    reply: Reply,
}

/// Per-client admission-control state. Client timestamps are issued
/// consecutively, so `admitted_hw - served_hw` counts requests this
/// replica let past the gate that no reply has settled yet — including
/// work deep in the ordering pipeline that a queue-depth count misses
/// the moment a batch is proposed. A flooding client that abandons ops
/// faster than they execute drives the difference over
/// [`Config::admission_client_quota`] and trips a penalty window; a
/// correct closed-loop client never holds more than one.
#[derive(Debug, Clone, Copy, Default)]
struct ClientGate {
    /// Highest timestamp admitted past the gate (post-authentication).
    admitted_hw: Timestamp,
    /// Highest timestamp this replica replied to (execution, read-only
    /// or reply-cache). Serving ts settles every lower one too: a gap
    /// means the client abandoned or other replicas served those reads.
    served_hw: Timestamp,
    /// When the last admission happened. A watermark gap older than
    /// [`ADMIT_FORGIVE_MULT`] retry windows is forgiven: the admitted
    /// work was lost (e.g. discarded by a view change) and will never
    /// execute here, and holding the client to it would wedge it.
    last_admit_ns: u64,
    /// Requests are shed without further accounting until this instant.
    /// Armed when the quota first trips, not refreshed by further sheds,
    /// so a recovered client drains out of it in one window.
    penalty_until_ns: u64,
    /// BUSY send throttle: at most one per retry window, so a flood of
    /// shed requests cannot turn the pushback channel itself into load.
    last_busy_ns: u64,
}

/// Staleness bound on the admission watermarks, in units of
/// [`Config::busy_retry_after_ns`]: past this the admitted-but-unserved
/// gap is treated as abandoned rather than in flight.
const ADMIT_FORGIVE_MULT: u64 = 8;

/// An in-flight hierarchical state transfer. The fetcher first obtains
/// the checkpoint's partition leaves (STATE-META), verifies them against
/// the quorum-agreed digest, then pulls only the partitions whose leaves
/// differ from its own state.
#[derive(Debug, Clone)]
struct StateFetch {
    /// Checkpoint sequence number being fetched.
    seq: SeqNum,
    /// Quorum-agreed checkpoint digest (the Merkle root of `leaves`).
    digest: Digest,
    /// The replica most recently asked; rotated on failure or timeout.
    target: ReplicaId,
    /// Verified partition leaves (service partitions followed by the
    /// reply-cache leaf). Empty until a valid STATE-META arrives.
    leaves: Vec<Digest>,
    /// Partition indices still to be transferred.
    missing: BTreeSet<u32>,
    /// The fetched, digest-verified reply-cache encoding (empty when the
    /// local cache already matched the leaf).
    cache_bytes: Vec<u8>,
}

impl StateFetch {
    fn new(seq: SeqNum, digest: Digest, target: ReplicaId) -> StateFetch {
        StateFetch {
            seq,
            digest,
            target,
            leaves: Vec::new(),
            missing: BTreeSet::new(),
            cache_bytes: Vec::new(),
        }
    }
}

/// The replica node.
pub struct Replica<S: Service> {
    cfg: Config,
    id: ReplicaId,
    keys: PacketKeys,
    /// Every replica but this one, in id order: the destinations of a
    /// multicast.
    peers: Vec<NodeId>,
    service: S,
    log: Log,
    checkpoints: CheckpointSet,
    /// Live Merkle tree over the service's partition digests (plus the
    /// reply-cache leaf); each checkpoint re-hashes only dirty partitions.
    tracker: CheckpointTracker,
    view: View,
    /// Highest sequence number executed (including tentatively).
    last_executed: SeqNum,
    /// Highest sequence number executed with a committed certificate.
    last_final: SeqNum,
    /// Operations executed tentatively beyond `last_final` (≤ one batch).
    tentative_ops: usize,
    /// Reply-cache entries displaced by the current tentative batch, for
    /// rollback.
    tentative_cache_undo: Vec<(ClientId, Option<CachedReply>)>,
    /// Ordered (BTreeMap) so checkpoint encoding and retransmission scans
    /// are independent of hasher randomness.
    reply_cache: BTreeMap<ClientId, CachedReply>,
    /// Primary: last assigned sequence number.
    next_seq: SeqNum,
    /// Primary: requests waiting for a batch slot, kept per client so
    /// draining can round-robin across senders — one flooding client
    /// fills only its own lane and cannot starve the others. Keys with
    /// empty lanes are removed eagerly.
    pending_batch: BTreeMap<ClientId, VecDeque<(Digest, Arc<Request>)>>,
    /// Total requests across all `pending_batch` lanes.
    pending_batch_len: usize,
    /// Round-robin drain position: the last client a request was taken
    /// from; the next drain starts strictly after it (wrapping).
    rr_cursor: ClientId,
    /// Identities already queued or proposed, to drop duplicates cheaply.
    queued: BTreeSet<(ClientId, Timestamp)>,
    /// Request bodies known by digest (batch resolution, fetch serving,
    /// re-proposal after a view change): held by the slot that ordered
    /// them and released with it at the stable checkpoint, or loose in a
    /// FIFO capped at one window of full batches.
    bodies: Bodies,
    /// Slots that accepted a batch digest without all of its bodies —
    /// what a newly stored body may complete. Entries whose slot has
    /// since resolved or gone are dropped at the next attempt.
    unresolved: BTreeSet<SeqNum>,
    /// Requests this backup believes are outstanding (drives the
    /// view-change timer), each with its digest — the key its body is
    /// found by when a new view needs it forwarded or re-proposed.
    pending_requests: BTreeMap<(ClientId, Timestamp), Digest>,
    in_view_change: bool,
    /// The view we are trying to move to while `in_view_change`.
    pending_view: View,
    vc_set: ViewChangeSet,
    vc_timer: Option<TimerId>,
    vc_timeout_ns: u64,
    /// The NEW-VIEW that installed the current view, kept so it can be
    /// retransmitted to replicas discovered to still be in an earlier
    /// view (e.g. an ex-primary healed from a partition, which has no
    /// other way to learn that the group moved on).
    last_new_view: Option<NewView>,
    /// Per-destination earliest time of the next NEW-VIEW retransmission.
    nv_retx_after_ns: BTreeMap<ReplicaId, u64>,
    /// Pending piggybacked commit announcements.
    piggy_queue: Vec<(SeqNum, Digest)>,
    piggy_timer: Option<TimerId>,
    /// In-flight hierarchical state transfer, if any.
    fetching: Option<StateFetch>,
    /// Earliest time the next blocked-execution body fetch may be sent.
    next_body_fetch_ns: u64,
    /// Set when execution advanced, so the view-change timer restarts —
    /// a primary that makes progress is not suspected.
    exec_progress: bool,
    /// Highest sequence number ever executed (never regressed — not by
    /// view changes, not by recoveries). Only executions beyond it count
    /// as progress for the view-change timer: a recovery replaying its
    /// retained finalized suffix re-executes old sequence numbers every
    /// interval, and counting that as liveness evidence would let a
    /// wedged primary sit unsuspected forever.
    exec_high_water: SeqNum,
    /// Backfill votes: which peers asserted each (seq, digest) committed.
    backfill: BTreeMap<(SeqNum, Digest), BTreeSet<ReplicaId>>,
    waiting_ro: Vec<WaitingRo>,
    /// Read-lease state, `Some` exactly when [`Config::read_leases`] is on.
    leases: Option<Leases>,
    /// Proactive-recovery state: our own recovery stage plus peer leases.
    recovery: RecoveryManager,
    /// Per-client admission bookkeeping: timestamp watermarks whose
    /// difference measures work admitted but not yet served (robust to
    /// the ordering pipeline draining quickly, unlike a queue count),
    /// plus the shed penalty window and BUSY send throttle. One entry
    /// per authenticated client — bounded by the principal set.
    gate: BTreeMap<ClientId, ClientGate>,
    /// Peak ingest-backlog depth ever reached (observer-only).
    backlog_high_watermark: u64,
    behavior: Behavior,
    /// Safety events (finalized batches, announced checkpoints) for the
    /// chaos invariant checker; drained via [`Replica::drain_audit`].
    audit: ReplicaAudit,
}

impl<S: Service> Replica<S> {
    /// Creates replica `id` for the given configuration and service.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `id >= n`.
    pub fn new(id: ReplicaId, cfg: Config, mut service: S) -> Replica<S> {
        cfg.validate();
        assert!(id < cfg.n(), "replica id out of range");
        let keys = PacketKeys::new(KeyChain::new(id, cfg.n()));
        let peers = cfg.quorums.others(id);
        let cache_bytes = Self::encode_cache(&BTreeMap::new());
        let tracker = CheckpointTracker::new(&service, &cache_bytes);
        // The tracker just digested every partition; drop any dirty marks
        // accumulated while the service was constructed.
        service.take_dirty_partitions();
        let parts = if service.retain_checkpoint(0) {
            None
        } else {
            Some(
                (0..tracker.partition_count())
                    .map(|p| service.partition_snapshot(p))
                    .collect(),
            )
        };
        let genesis = OwnCheckpoint::new(tracker.leaves().to_vec(), cache_bytes, parts);
        let checkpoints = CheckpointSet::new(cfg.quorums, genesis);
        let vc_timeout_ns = cfg.view_change_timeout_ns;
        let log = Log::new(cfg.log_window);
        // One window of full batches: more bodies than that cannot all
        // be ordered before the window moves.
        let bodies = Bodies::new(cfg.log_window as usize * cfg.max_batch_requests);
        let leases = Leases::armed(id, &cfg);
        Replica {
            cfg,
            id,
            keys,
            peers,
            service,
            log,
            checkpoints,
            tracker,
            view: 0,
            last_executed: 0,
            last_final: 0,
            tentative_ops: 0,
            tentative_cache_undo: Vec::new(),
            reply_cache: BTreeMap::new(),
            next_seq: 0,
            pending_batch: BTreeMap::new(),
            pending_batch_len: 0,
            rr_cursor: 0,
            queued: BTreeSet::new(),
            bodies,
            unresolved: BTreeSet::new(),
            pending_requests: BTreeMap::new(),
            in_view_change: false,
            pending_view: 0,
            vc_set: ViewChangeSet::new(),
            vc_timer: None,
            vc_timeout_ns,
            last_new_view: None,
            nv_retx_after_ns: BTreeMap::new(),
            piggy_queue: Vec::new(),
            piggy_timer: None,
            fetching: None,
            next_body_fetch_ns: 0,
            exec_progress: false,
            exec_high_water: 0,
            backfill: BTreeMap::new(),
            waiting_ro: Vec::new(),
            leases,
            recovery: RecoveryManager::new(),
            gate: BTreeMap::new(),
            backlog_high_watermark: 0,
            behavior: Behavior::Correct,
            audit: ReplicaAudit::default(),
        }
    }

    /// Sets the fault-injection behaviour.
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Chaos hook: silently corrupts the live service state (no crash, no
    /// dirty marks — see [`Service::corrupt_silently`]). Only a proactive
    /// recovery audit against a quorum-attested root can undo this.
    pub fn corrupt_state(&mut self, salt: u64) {
        self.service.corrupt_silently(salt);
    }

    /// True while this replica's own proactive recovery is in progress.
    pub fn recovering(&self) -> bool {
        self.recovery.in_progress()
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// True if this replica is the primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.cfg.quorums.primary(self.view) == self.id
    }

    /// Highest executed sequence number (including tentative execution).
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Highest sequence number executed with a committed certificate.
    pub fn last_committed_executed(&self) -> SeqNum {
        self.last_final
    }

    /// The last stable checkpoint sequence number.
    pub fn stable_checkpoint(&self) -> SeqNum {
        self.checkpoints.stable_seq()
    }

    /// The last stable checkpoint as `(seq, state root)` — the Merkle
    /// root over the service's partition digests, i.e. what a recovering
    /// replica's peers attest to and what convergence tests compare.
    pub fn stable_proof(&self) -> (SeqNum, Digest) {
        self.checkpoints.stable_proof()
    }

    /// Read access to the replicated service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Takes the accumulated safety audit (finalized batches and announced
    /// checkpoints), leaving it empty. The chaos invariant checker drains
    /// this after every simulation event.
    pub fn drain_audit(&mut self) -> ReplicaAudit {
        std::mem::take(&mut self.audit)
    }

    /// The undrained audit, for checker tests that feed it by hand.
    #[cfg(test)]
    pub(crate) fn audit_mut(&mut self) -> &mut ReplicaAudit {
        &mut self.audit
    }

    /// Checker-test hook: forces the view, as no handler would.
    #[cfg(test)]
    pub(crate) fn set_view(&mut self, view: View) {
        self.view = view;
    }

    /// Checker-test hook: inflates the ingest backlog by `by` requests.
    #[cfg(test)]
    pub(crate) fn pad_backlog(&mut self, by: usize) {
        self.pending_batch_len += by;
    }

    /// An observer-only, typed snapshot of this replica's externally
    /// observable state at simulated time `at_ns` — views, execution and
    /// checkpoint watermarks, queue depths, lease/recovery status. Pure
    /// read: taking a snapshot never changes protocol behaviour.
    pub fn health_snapshot(&self, at_ns: u64) -> HealthSnapshot {
        let leases = self.leases.as_ref();
        let lease_expiry = leases.and_then(|l| l.held_until(at_ns));
        let (_, parked, _) = Leases::parked_bound(leases);
        HealthSnapshot {
            node: self.id,
            at_ns,
            view: self.view,
            role: if self.is_primary() {
                Role::Primary
            } else {
                Role::Backup
            },
            in_view_change: self.in_view_change,
            recovering: self.recovery.in_progress(),
            fetching_state: self.fetching.is_some(),
            last_executed: self.last_executed,
            last_final: self.last_final,
            last_stable: self.checkpoints.stable_seq(),
            next_seq: self.next_seq,
            log_slots: self.log.len() as u64,
            pending_batch: self.pending_batch_len as u64,
            pending_requests: self.pending_requests.len() as u64,
            waiting_ro: self.waiting_ro.len() as u64,
            waiting_lease_ro: parked as u64,
            lease_held: lease_expiry.is_some(),
            lease_expiry_ns: lease_expiry.unwrap_or(0),
            fast_path: self.cfg.fast_path,
            backlog_high_watermark: self.backlog_high_watermark,
        }
    }

    /// The bounds of every capped request-holding collection, as
    /// `(name, len, cap)` — what the chaos checker's `UnboundedGrowth`
    /// invariant audits after every event, so the rows are a fixed array
    /// and cost no allocation. `request_store` is the FIFO of bodies no
    /// slot holds (those a slot holds go with the slot at the stable
    /// checkpoint). The last three are armed by admission control and
    /// unbounded without it. The ingest backlog's cap has window slack
    /// on top of [`Config::admission_queue_cap`]: requests arriving
    /// inside already-ordered batches (pre-prepares, new-view requeues)
    /// were admitted upstream and bypass the local gate, but the log
    /// window bounds how many of those can be in flight.
    pub fn queue_bounds(&self) -> [(&'static str, usize, usize); 5] {
        let cap = if self.cfg.admission_control {
            let slack = self.cfg.log_window as usize * self.cfg.max_batch_requests;
            self.cfg.admission_queue_cap + slack
        } else {
            usize::MAX
        };
        let backlog = self.pending_batch_len + self.pending_requests.len();
        [
            (
                "request_store",
                self.bodies.loose_len(),
                self.bodies.loose_cap(),
            ),
            Leases::parked_bound(self.leases.as_ref()),
            ("ingest_backlog", backlog, cap),
            ("queued", self.queued.len(), cap),
            ("waiting_ro", self.waiting_ro.len(), cap),
        ]
    }

    // ------------------------------------------------------------------
    // Authentication and sending
    // ------------------------------------------------------------------

    /// Whether `req` travels inside a pre-prepare rather than by
    /// reference to a body the client multicast itself.
    fn travels_inline(cfg: &Config, req: &Request) -> bool {
        !(cfg.opts.separate_request_transmission && req.op.len() > cfg.inline_threshold)
    }

    /// Whether a vote naming replica `claimed` as its author came from
    /// it. The packet MAC proves only which node sent the packet — a
    /// client's verifies here too — so a vote under another replica's id,
    /// or from a node that is no replica, is a forgery: counted and
    /// dropped. One Byzantine node could otherwise fill a prepare, commit,
    /// checkpoint or view-change quorum by itself.
    fn sent_by_replica(
        &self,
        ctx: &mut Context<'_, Packet>,
        claimed: ReplicaId,
        from: NodeId,
    ) -> bool {
        let bound = claimed == from && from < self.cfg.n();
        if !bound {
            ctx.count(Counter::SpoofedSender);
        }
        bound
    }

    /// Advances the log's low water mark to the stable checkpoint `seq`;
    /// the bodies the discarded slots held go with them.
    fn collect_garbage(&mut self, seq: SeqNum) {
        for (s, entries) in self.log.collect_garbage(seq) {
            self.bodies.release(s, &entries);
        }
    }

    fn maybe_corrupt(&self, auth: AuthTag) -> AuthTag {
        if self.behavior != Behavior::CorruptAuth {
            return auth;
        }
        match auth {
            AuthTag::Mac(mut m) => {
                m.tag[0] ^= 0xff;
                AuthTag::Mac(m)
            }
            AuthTag::Vector(a) => {
                let entries = a.entries.iter().map(|&(r, mut m)| {
                    m.tag[0] ^= 0xff;
                    (r, m)
                });
                AuthTag::Vector(Authenticator {
                    entries: entries.collect(),
                })
            }
            AuthTag::None => AuthTag::None,
        }
    }

    /// Multicasts `msg` to all other replicas with a MAC-vector
    /// authenticator, charging digest + MAC + send costs. The charges are
    /// the cost model's (a body digest, then MACs over 16 bytes), not the
    /// work done, which MACs the body (DESIGN.md §5.2).
    fn multicast(&mut self, ctx: &mut Context<'_, Packet>, msg: Msg) {
        if matches!(self.behavior, Behavior::Silent | Behavior::Crashed) {
            return;
        }
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(msg.wire_len()));
        ctx.charge_kind(CostKind::Mac, cost.authenticator(self.cfg.n() - 1, 16));
        let auth = self.keys.seal_multicast(&msg);
        let auth = self.maybe_corrupt(auth);
        let packet = Packet { body: msg, auth };
        let wire = packet.wire_bytes();
        ctx.charge_kind(CostKind::Net, cost.send(wire));
        ctx.count_sent(packet.body.tag());
        ctx.multicast(&self.peers, packet, wire);
    }

    /// Sends `msg` point-to-point with a single MAC.
    fn send_to(&mut self, ctx: &mut Context<'_, Packet>, dst: NodeId, msg: Msg) {
        if matches!(self.behavior, Behavior::Silent | Behavior::Crashed) {
            return;
        }
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(msg.wire_len()));
        ctx.charge_kind(CostKind::Mac, cost.mac(16));
        let auth = self.keys.seal_to(dst, &msg);
        let auth = self.maybe_corrupt(auth);
        let packet = Packet { body: msg, auth };
        let wire = packet.wire_bytes();
        ctx.charge_kind(CostKind::Net, cost.send(wire));
        ctx.count_sent(packet.body.tag());
        ctx.send(dst, packet, wire);
    }

    /// Verifies packet-level authentication from a replica or client,
    /// charging as [`Self::multicast`] does.
    fn verify_packet(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        packet: &Packet,
    ) -> bool {
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(packet.body.wire_len()));
        match &packet.auth {
            AuthTag::None => {
                // Only requests authenticate themselves: there is no
                // packet MAC to check here — `verify_request` hashes the
                // request and checks its own authenticator.
                matches!(packet.body, Msg::Request(_))
            }
            AuthTag::Mac(_) | AuthTag::Vector(_) => {
                ctx.charge_kind(CostKind::Mac, cost.mac(16));
                self.keys.verify(from, &packet.body, &packet.auth)
            }
        }
    }

    /// Verifies a request's embedded authenticator. Returns the
    /// request's identity digest — hashed here, once, from the bytes this
    /// node received — for the caller to carry wherever the request goes
    /// next, or `None` if the authenticator does not verify.
    fn verify_request(&mut self, ctx: &mut Context<'_, Packet>, req: &Request) -> Option<Digest> {
        let d = req.digest();
        self.verify_request_digest(ctx, req, d).then_some(d)
    }

    /// [`Self::verify_request`] for a caller that already hashed the
    /// request: `d` must be `req.digest()`.
    fn verify_request_digest(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        req: &Request,
        d: Digest,
    ) -> bool {
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(req.op.len() + 21));
        ctx.charge_kind(CostKind::Mac, cost.mac(16));
        match &req.auth {
            AuthTag::Vector(a) => self
                .keys
                .chain
                .verify_authenticator(req.client, d.as_bytes(), a),
            AuthTag::Mac(m) => self.keys.chain.verify_from(req.client, d.as_bytes(), m),
            AuthTag::None => false,
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint state helpers (partition tree + reply cache)
    // ------------------------------------------------------------------

    /// Canonical encoding of a reply cache — the content under the
    /// checkpoint tree's reply-cache leaf.
    fn encode_cache(cache: &BTreeMap<ClientId, CachedReply>) -> Vec<u8> {
        // BTreeMap iteration is already client-id order, so the encoding
        // is canonical without an explicit sort.
        let mut buf = Vec::new();
        (cache.len() as u64).encode(&mut buf);
        for (c, e) in cache {
            c.encode(&mut buf);
            e.timestamp.encode(&mut buf);
            e.result.encode(&mut buf);
        }
        buf
    }

    /// Decodes a reply cache produced by [`Self::encode_cache`]. Entries
    /// restore as committed (`tentative: false`) in view `view`.
    fn decode_cache(bytes: &[u8], view: View) -> Option<BTreeMap<ClientId, CachedReply>> {
        let mut r = crate::wire::Reader::new(bytes);
        let n = u64::decode(&mut r).ok()?;
        let mut cache = BTreeMap::new();
        for _ in 0..n {
            let client = u32::decode(&mut r).ok()?;
            let ts = u64::decode(&mut r).ok()?;
            let result = Vec::<u8>::decode(&mut r).ok()?;
            cache.insert(
                client,
                CachedReply {
                    timestamp: ts,
                    result,
                    tentative: false,
                    view,
                },
            );
        }
        if r.remaining() != 0 {
            return None;
        }
        Some(cache)
    }

    /// Produces the local checkpoint at `seq`: refreshes the incremental
    /// digest tree over the partitions dirtied since the previous
    /// checkpoint, charges simulated CPU for exactly that work, and
    /// records a *lazy* checkpoint — partition bytes are serialized only
    /// when the service cannot retain a copy-on-write version itself.
    fn make_checkpoint(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        if self.behavior == Behavior::StaleState {
            // Fault injection: the checkpointing machinery is wedged. The
            // replica keeps executing but never produces (or announces)
            // this checkpoint, so its stable point freezes.
            return;
        }
        let cache_bytes = Self::encode_cache(&self.reply_cache);
        let stats = self.tracker.refresh(&mut self.service, &cache_bytes);
        let total = self.tracker.partition_count() + 1;
        let digest_ns = if self.cfg.incremental_checkpoints {
            self.cfg
                .cost
                .partitioned_digest(stats.dirty_parts + 1, stats.dirty_bytes, total)
        } else {
            // Ablation baseline: charge as if every partition were
            // re-hashed, the pre-partitioned checkpoint cost.
            let full_bytes: u64 = (0..self.tracker.partition_count())
                .map(|p| self.service.partition_size(p) as u64)
                .sum::<u64>()
                + cache_bytes.len() as u64;
            self.cfg.cost.partitioned_digest(total, full_bytes, total)
        };
        let cp_meta = TraceMeta {
            view: self.view,
            seq,
            ..TraceMeta::default()
        };
        ctx.trace(SpanEdge::Open, TracePhase::Checkpoint, cp_meta);
        ctx.charge_kind(CostKind::Digest, digest_ns);
        ctx.trace(SpanEdge::Close, TracePhase::Checkpoint, cp_meta);
        ctx.count(Counter::CheckpointsMade);
        ctx.count_add(Counter::CheckpointDigestNs, digest_ns);
        let parts = if self.service.retain_checkpoint(seq) {
            None
        } else {
            Some(
                (0..self.tracker.partition_count())
                    .map(|p| self.service.partition_snapshot(p))
                    .collect(),
            )
        };
        self.checkpoints.note_own(
            seq,
            OwnCheckpoint::new(self.tracker.leaves().to_vec(), cache_bytes, parts),
        );
    }

    /// Restores service state and reply cache from our own checkpoint at
    /// `seq` (eagerly serialized parts or the service's retained
    /// copy-on-write versions). Returns `false` — leaving state
    /// unspecified — if any partition is unavailable or fails
    /// verification. For checkpoints we produced while healthy that
    /// indicates a bug, but a recovery audit may legitimately hit this
    /// when silent corruption reached the retained copies; the caller
    /// then falls back to fetching from peers (live partition digests are
    /// recomputed during the fetch, so an unspecified intermediate state
    /// is safe).
    fn restore_own_checkpoint(&mut self, seq: SeqNum) -> bool {
        let Some(own) = self.checkpoints.own(seq) else {
            return false;
        };
        let leaves = own.leaves.clone();
        let cache_bytes = own.cache_bytes.clone();
        let count = leaves.len().saturating_sub(1);
        // Gather every partition's bytes before mutating anything.
        let mut parts: Vec<Vec<u8>> = Vec::with_capacity(count);
        for p in 0..count {
            let bytes = match &own.parts {
                Some(eager) => eager.get(p).cloned(),
                None => self.service.retained_partition(seq, p as u32),
            };
            match bytes {
                Some(b) => parts.push(b),
                None => return false,
            }
        }
        for (p, bytes) in parts.iter().enumerate() {
            if self
                .service
                .restore_partition(p as u32, bytes, &leaves[p])
                .is_err()
            {
                return false;
            }
        }
        let Some(cache) = Self::decode_cache(&cache_bytes, self.view) else {
            return false;
        };
        self.reply_cache = cache;
        self.tracker = CheckpointTracker::new(&self.service, &cache_bytes);
        self.service.take_dirty_partitions();
        debug_assert_eq!(self.tracker.root(), CheckpointTracker::root_of(&leaves));
        true
    }

    // ------------------------------------------------------------------
    // Request handling and batching (primary)
    // ------------------------------------------------------------------

    /// Appends a request to its client's backlog lane and tracks the
    /// high-watermark. The caller is responsible for `queued` dedup.
    fn enqueue_pending(&mut self, digest: Digest, req: Arc<Request>) {
        self.pending_batch
            .entry(req.client)
            .or_default()
            .push_back((digest, req));
        self.pending_batch_len += 1;
        self.note_backlog_hw();
    }

    fn note_backlog_hw(&mut self) {
        let depth = (self.pending_batch_len + self.pending_requests.len()) as u64;
        if depth > self.backlog_high_watermark {
            self.backlog_high_watermark = depth;
        }
    }

    /// The next backlog request in round-robin order without removing
    /// it: front of the first lane strictly after the cursor, wrapping.
    fn rr_peek(&self) -> Option<&Request> {
        self.rr_next_client()
            .and_then(|c| self.pending_batch.get(&c))
            .and_then(|lane| lane.front())
            .map(|(_, req)| &**req)
    }

    /// Removes and returns the request [`Self::rr_peek`] would see, with
    /// its digest, advancing the cursor past its client.
    fn rr_pop(&mut self) -> Option<(Digest, Arc<Request>)> {
        let client = self.rr_next_client()?;
        let lane = self.pending_batch.get_mut(&client)?;
        let req = lane.pop_front()?;
        if lane.is_empty() {
            self.pending_batch.remove(&client);
        }
        self.rr_cursor = client;
        self.pending_batch_len -= 1;
        Some(req)
    }

    fn rr_next_client(&self) -> Option<ClientId> {
        use std::ops::Bound;
        self.pending_batch
            .range((Bound::Excluded(self.rr_cursor), Bound::Unbounded))
            .next()
            .or_else(|| self.pending_batch.iter().next())
            .map(|(c, _)| *c)
    }

    /// Count of this client's requests admitted but not yet served —
    /// what [`Config::admission_client_quota`] bounds. The timestamp
    /// watermark difference sees work anywhere in the pipeline (backlog
    /// lanes, proposed batches awaiting execution); the explicit queue
    /// count backstops it against non-consecutive Byzantine timestamps.
    fn client_in_flight(&self, client: ClientId, now: u64) -> usize {
        let watermark = match self.gate.get(&client) {
            Some(g)
                if now.saturating_sub(g.last_admit_ns)
                    <= self
                        .cfg
                        .busy_retry_after_ns
                        .saturating_mul(ADMIT_FORGIVE_MULT) =>
            {
                g.admitted_hw.saturating_sub(g.served_hw) as usize
            }
            _ => 0,
        };
        let range = (client, Timestamp::MIN)..=(client, Timestamp::MAX);
        let held =
            self.queued.range(range.clone()).count() + self.pending_requests.range(range).count();
        watermark.max(held)
    }

    /// True while the client sits in the shed penalty window.
    fn client_penalized(&self, client: ClientId, now: u64) -> bool {
        self.gate
            .get(&client)
            .is_some_and(|g| now < g.penalty_until_ns)
    }

    /// Opens the penalty window on a quota trip. Not refreshed while
    /// already armed: a client that keeps flooding re-trips the quota
    /// after each window instead of being locked out forever.
    fn penalize(&mut self, client: ClientId, now: u64) {
        let window = self.cfg.busy_retry_after_ns;
        let g = self.gate.entry(client).or_default();
        if now >= g.penalty_until_ns {
            g.penalty_until_ns = now + window;
        }
    }

    /// Records an admission past the gate.
    fn note_admitted(&mut self, client: ClientId, ts: Timestamp, now: u64) {
        if !self.cfg.admission_control {
            return;
        }
        let g = self.gate.entry(client).or_default();
        if ts > g.admitted_hw {
            g.admitted_hw = ts;
        }
        g.last_admit_ns = now;
    }

    /// Records a reply at `ts`: everything at or below it is settled.
    fn note_served(&mut self, client: ClientId, ts: Timestamp) {
        if let Some(g) = self.gate.get_mut(&client) {
            if ts > g.served_hw {
                g.served_hw = ts;
            }
        }
    }

    /// Sheds an over-limit request: counted, never silently — the
    /// client hears BUSY and backs off instead of retransmitting into
    /// the same wall.
    fn shed_request(&mut self, ctx: &mut Context<'_, Packet>, client: ClientId, ts: Timestamp) {
        ctx.count(Counter::RequestsShed);
        self.send_busy(ctx, client, ts);
    }

    fn send_busy(&mut self, ctx: &mut Context<'_, Packet>, client: ClientId, ts: Timestamp) {
        // One BUSY per retry window per client is enough to trigger the
        // backoff; answering every shed request of a flood would spend
        // the CPU and downlink the shed was supposed to protect.
        let now = ctx.now().nanos();
        let g = self.gate.entry(client).or_default();
        if g.last_busy_ns != 0 && now.saturating_sub(g.last_busy_ns) < self.cfg.busy_retry_after_ns
        {
            return;
        }
        g.last_busy_ns = now;
        ctx.count(Counter::BusySent);
        let busy = Busy {
            client,
            timestamp: ts,
            replica: self.id,
            retry_after_ns: self.cfg.busy_retry_after_ns,
        };
        self.send_to(ctx, client, Msg::Busy(busy));
    }

    /// Returns whether the request's body was stored as new — the one
    /// outcome that can complete a batch waiting in `unresolved`.
    fn handle_request(&mut self, ctx: &mut Context<'_, Packet>, req: Request) -> bool {
        // Penalty-box fast path, deliberately *before* MAC verification:
        // under a flood the verify itself is the cost the shed exists to
        // avoid. Safe unverified because a penalty is only ever earned by
        // authenticated over-quota traffic — a spoofer reusing an honest
        // client's id finds it unpenalized, so this cannot be used to
        // starve anyone else. Work already admitted still passes through
        // to the dedup/retransmission handling below.
        if self.cfg.admission_control
            && self.client_penalized(req.client, ctx.now().nanos())
            && !self.queued.contains(&(req.client, req.timestamp))
            && !self
                .pending_requests
                .contains_key(&(req.client, req.timestamp))
        {
            self.shed_request(ctx, req.client, req.timestamp);
            return false;
        }
        let Some(digest) = self.verify_request(ctx, &req) else {
            ctx.count(Counter::BadRequestAuth);
            return false;
        };
        ctx.trace(
            SpanEdge::Instant,
            TracePhase::RequestRecv,
            TraceMeta {
                client: req.client as u64,
                timestamp: req.timestamp,
                view: self.view,
                bytes: req.op.len() as u64,
                ..TraceMeta::default()
            },
        );
        // Reply-cache interaction: drop stale, answer executed.
        if let Some(cached) = self.reply_cache.get(&req.client) {
            if req.timestamp < cached.timestamp {
                return false;
            }
            if req.timestamp == cached.timestamp {
                let reply = Reply {
                    view: self.view,
                    timestamp: cached.timestamp,
                    client: req.client,
                    replica: self.id,
                    tentative: cached.tentative,
                    body: ReplyBody::Full(cached.result.clone()),
                };
                let client = req.client;
                self.note_served(client, req.timestamp);
                self.send_to(ctx, client, Msg::Reply(reply));
                return false;
            }
        }
        if req.read_only && self.cfg.opts.read_only && self.service.is_read_only(&req.op) {
            if self.recovery.in_progress() {
                // Our state is suspect until the recovery audit completes;
                // a read-only reply computed from it could break
                // linearizability. Dropping the request makes the client
                // assemble its 2f+1 quorum from the healthy replicas or
                // retry through the ordered read-write path
                // (arXiv:2107.11144's read-liveness concern).
                ctx.count(Counter::RoDroppedInRecovery);
                return false;
            }
            let f = self.lease_facts(ctx.now().nanos());
            if let Some(leases) = self.leases.as_mut().filter(|_| !f.primary) {
                // Lease path: answer only inside a servable window, so every
                // up-to-date holder replies from the same quiescent state
                // and the client's 2f+1 matching rule completes in one
                // round; otherwise park the read for the next window.
                if leases.servable(f) {
                    self.execute_read_only(ctx, req, true);
                } else if let Some(evicted) = leases.park(req) {
                    // Never silently: counted, and its client told BUSY.
                    ctx.count(Counter::LeaseReadsEvicted);
                    self.send_busy(ctx, evicted.client, evicted.timestamp);
                }
                return false;
            }
            self.execute_read_only(ctx, req, false);
            return false;
        }
        let identity = (req.client, req.timestamp);
        // Admission control: shed before admitting anything new. A
        // retransmission of work already held passes through (it is
        // deduplicated below, and shedding it would only delay the
        // client's reply), so the gate binds exactly the quantity the
        // quota describes — distinct in-flight requests per client.
        if self.cfg.admission_control
            && !self.queued.contains(&identity)
            && !self.pending_requests.contains_key(&identity)
        {
            let now = ctx.now().nanos();
            let backlog = self.pending_batch_len + self.pending_requests.len();
            if backlog >= self.cfg.admission_queue_cap
                || self.client_penalized(req.client, now)
                || self.client_in_flight(req.client, now) >= self.cfg.admission_client_quota
            {
                self.penalize(req.client, now);
                self.shed_request(ctx, req.client, req.timestamp);
                return false;
            }
            self.note_admitted(req.client, req.timestamp, now);
        }
        let ordering = self.is_primary() && !self.in_view_change;
        let req = Arc::new(req);
        if ordering && self.queued.insert(identity) {
            // The backlog lane and the table share the body.
            self.enqueue_pending(digest, Arc::clone(&req));
            let stored = self.bodies.insert(digest, req);
            self.try_propose(ctx);
            return stored;
        }
        let stored = self.bodies.insert(digest, req);
        if !ordering {
            // Backup: remember the request and make sure the primary
            // eventually orders it.
            self.pending_requests.insert(identity, digest);
            self.note_backlog_hw();
            self.ensure_vc_timer(ctx);
        }
        stored
    }

    fn execute_read_only(&mut self, ctx: &mut Context<'_, Packet>, req: Request, leased: bool) {
        self.note_served(req.client, req.timestamp);
        let mut result = self.service.execute_read_only(req.client, &req.op);
        ctx.charge_kind(CostKind::Exec, self.service.exec_cost_ns(&req.op, &result));
        if self.behavior == Behavior::WrongResult {
            tamper(&mut result);
        }
        ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(result.len()));
        if leased {
            // Record what was actually served, so the chaos checker can
            // cross-check every lease-served read against the global
            // linearization order (Violation::StaleLeaseRead).
            self.audit.note_lease_read(
                req.client,
                req.timestamp,
                ctx.now().nanos(),
                result.clone(),
            );
            ctx.count(Counter::LeaseReads);
            ctx.trace(
                SpanEdge::Instant,
                TracePhase::LeaseRead,
                TraceMeta {
                    client: req.client as u64,
                    timestamp: req.timestamp,
                    view: self.view,
                    ..TraceMeta::default()
                },
            );
        }
        let send_full =
            !self.cfg.opts.digest_replies || req.replier == self.id || req.replier == REPLIER_ALL;
        let body = if send_full {
            ReplyBody::Full(result)
        } else {
            ReplyBody::Digest(bft_crypto::digest(&result))
        };
        let reply = Reply {
            view: self.view,
            timestamp: req.timestamp,
            client: req.client,
            replica: self.id,
            // Read-only replies follow the 2f+1 matching rule.
            tentative: true,
            body,
        };
        if self.last_executed == self.last_final {
            let client = req.client;
            self.send_to(ctx, client, Msg::Reply(reply));
        } else {
            // Delay until everything executed so far has committed
            // (required for linearizability, Section 3.1).
            if self.cfg.admission_control && self.waiting_ro.len() >= self.cfg.admission_queue_cap {
                let evicted = self.waiting_ro.remove(0);
                let ts = evicted.reply.timestamp;
                self.shed_request(ctx, evicted.client, ts);
            }
            self.waiting_ro.push(WaitingRo {
                client: req.client,
                reply,
            });
        }
        ctx.count(Counter::ReadOnlyExecs);
    }

    // ------------------------------------------------------------------
    // Read leases: the protocol is `lease.rs`, this is its I/O
    // ------------------------------------------------------------------

    /// The replica facts the lease rules read, as of `now`.
    fn lease_facts(&self, now: u64) -> Facts {
        Facts {
            now,
            view: self.view,
            primary: self.is_primary(),
            paused: self.in_view_change || self.recovery.in_progress(),
            last_executed: self.last_executed,
            last_final: self.last_final,
            next_seq: self.next_seq,
            writes_pending: !self.pending_batch.is_empty(),
            writes_in_flight: !self.queued.is_empty(),
        }
    }

    /// Applies a lease rule to the current facts; its default if leases
    /// are off.
    fn with_leases<T: Default>(
        &mut self,
        ctx: &Context<'_, Packet>,
        rule: impl FnOnce(&mut Leases, Facts) -> T,
    ) -> T {
        let f = self.lease_facts(ctx.now().nanos());
        self.leases.as_mut().map_or_else(T::default, |l| rule(l, f))
    }

    /// Serves every parked read once a servable window opens (a fresh
    /// grant, or execution caught up to the grant and to finality).
    fn flush_lease_reads(&mut self, ctx: &mut Context<'_, Packet>) {
        for req in self.with_leases(ctx, Leases::take_servable) {
            self.execute_read_only(ctx, req, true);
        }
    }

    fn arm_lease_tick(&self, ctx: &mut Context<'_, Packet>) {
        if self.leases.is_some() {
            ctx.set_timer(self.cfg.read_lease_ns / 2, TIMER_LEASE);
        }
    }

    fn multicast_grant(&mut self, ctx: &mut Context<'_, Packet>, grant: Option<Lease>) {
        if let Some(lease) = grant {
            ctx.count(Counter::LeaseGrants);
            self.multicast(ctx, Msg::Lease(lease));
        }
    }

    fn on_lease_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        match self.with_leases(ctx, Leases::tick) {
            Tick::Idle => {}
            Tick::Grant(lease) => self.multicast_grant(ctx, Some(lease)),
            Tick::Writes(resend) => {
                if let Some(rv) = resend {
                    self.multicast(ctx, Msg::LeaseRevoke(rv));
                }
                self.try_propose(ctx);
            }
        }
    }

    /// Whether a lease message is for our current view. One from an older
    /// view (a deposed primary, a lagging holder) earns the NEW-VIEW proof.
    fn lease_current(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, view: View) -> bool {
        if view < self.view && self.leases.is_some() {
            self.retransmit_new_view(ctx, from);
        }
        view == self.view && !self.in_view_change
    }

    fn handle_lease(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, l: Lease) {
        if !self.lease_current(ctx, from, l.view) {
            return;
        }
        if let Some(ack) = self.with_leases(ctx, |ls, f| ls.on_grant(from, &l, f)) {
            self.send_to(ctx, from, Msg::LeaseRenew(ack));
            self.flush_lease_reads(ctx);
        }
    }

    fn handle_lease_renew(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, lr: LeaseRenew) {
        if lr.replica != from {
            ctx.count(Counter::SpoofedSender);
            return;
        }
        if self.lease_current(ctx, from, lr.view) {
            self.with_leases(ctx, |ls, f| ls.note_evidence(from, lr.view, f));
        }
    }

    /// A revoke (`ack == false`, holder side) or its ack (primary side).
    fn handle_lease_revoke(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        rv: LeaseRevoke,
    ) {
        if rv.replica != from {
            ctx.count(Counter::SpoofedSender);
            return;
        }
        if !self.lease_current(ctx, from, rv.view) {
            return;
        }
        if !rv.ack {
            if let Some(ack) = self.with_leases(ctx, |ls, _| ls.on_revoke(from, &rv)) {
                self.send_to(ctx, from, Msg::LeaseRevoke(ack));
            }
        } else if self.with_leases(ctx, |ls, f| ls.on_revoke_ack(from, rv.epoch, f)) {
            self.try_propose(ctx);
        }
    }

    fn take_piggy(&mut self, ctx: &mut Context<'_, Packet>) -> Vec<(SeqNum, Digest)> {
        if self.piggy_queue.is_empty() {
            return Vec::new();
        }
        if let Some(t) = self.piggy_timer.take() {
            ctx.cancel_timer(t);
        }
        std::mem::take(&mut self.piggy_queue)
    }

    fn try_propose(&mut self, ctx: &mut Context<'_, Packet>) {
        if !self.is_primary() || self.in_view_change {
            return;
        }
        if let Fence::Closed(revoke) = self.with_leases(ctx, Leases::fence) {
            // A lease may be live: revoke it, and defer ordering until
            // every holder acked or the conservative expiry passed.
            if let Some(rv) = revoke {
                ctx.count(Counter::LeaseRevokes);
                self.multicast(ctx, Msg::LeaseRevoke(rv));
            }
            return;
        }
        // Load-aware batching: past half the admission cap, pack more
        // requests into each pre-prepare so the backlog drains in fewer
        // protocol rounds (the byte bound still applies, so individual
        // messages stay bounded).
        let max_batch_requests = if self.cfg.admission_control
            && self.pending_batch_len + self.pending_requests.len()
                > self.cfg.admission_queue_cap / 2
        {
            self.cfg.max_batch_requests * 4
        } else {
            self.cfg.max_batch_requests
        };
        loop {
            if self.pending_batch.is_empty() {
                break;
            }
            if self.cfg.opts.batching && self.next_seq >= self.last_executed + self.cfg.batch_window
            {
                break; // window full; requests stay queued
            }
            if self.next_seq + 1 > self.log.high() {
                break; // log window full; wait for a stable checkpoint
            }
            // Drop stale duplicates (already-executed requests re-queued
            // by retransmissions or view changes) before forming a batch.
            while let Some(front) = self.rr_peek() {
                let stale = self
                    .reply_cache
                    .get(&front.client)
                    .is_some_and(|c| c.timestamp >= front.timestamp);
                if stale {
                    self.rr_pop();
                } else {
                    break;
                }
            }
            if self.pending_batch.is_empty() {
                break;
            }
            // Form a batch, taking one request per client in round-robin
            // order so a flooding client fills at most its fair share of
            // each batch. The byte bound applies to what travels in the
            // pre-prepare: separate request transmission replaces large
            // bodies with digest references, which is exactly why it
            // "enables more requests per batch" (Section 4.4).
            let mut batch: Vec<Arc<Request>> = Vec::new();
            let mut refs: Vec<RequestRef> = Vec::new();
            let mut bytes = 0usize;
            while let Some(front) = self.rr_peek() {
                let sz = if Self::travels_inline(&self.cfg, front) {
                    front.op.len() + 32
                } else {
                    48
                };
                if !batch.is_empty()
                    && (!self.cfg.opts.batching
                        || bytes + sz > self.cfg.max_batch_bytes
                        || batch.len() >= max_batch_requests)
                {
                    break;
                }
                let (digest, req) = self.rr_pop().expect("peeked request exists");
                let stale = self
                    .reply_cache
                    .get(&req.client)
                    .is_some_and(|c| c.timestamp >= req.timestamp);
                if stale {
                    continue;
                }
                bytes += sz;
                refs.push(RequestRef {
                    client: req.client,
                    timestamp: req.timestamp,
                    digest,
                });
                batch.push(req);
            }
            if batch.is_empty() {
                continue;
            }
            self.next_seq += 1;
            let seq = self.next_seq;
            let d = RequestRef::batch_digest(&refs);
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(refs.len() * 16));
            // The slot takes the bodies from the lanes; the only copy
            // made is the one that travels.
            self.bodies.hold(seq, &refs, &batch);
            let entries = {
                let view = self.view;
                let slot = self.log.slot_mut(seq);
                slot.view = view;
                slot.digest = Some(d);
                slot.entries = Some(refs);
                slot.requests = Some(batch);
                slot.wire_entries(|req| Self::travels_inline(&self.cfg, req))
                    .expect("the batch was just set")
            };
            let piggy = self.take_piggy(ctx);
            let pp = PrePrepare {
                view: self.view,
                seq,
                entries,
                batch_digest: d,
                piggy_commits: piggy,
            };
            ctx.count(Counter::BatchesProposed);
            ctx.trace(
                SpanEdge::Open,
                TracePhase::PrePrepare,
                TraceMeta {
                    view: self.view,
                    seq,
                    bytes: pp.entries.len() as u64,
                    ..TraceMeta::default()
                },
            );
            if self.behavior == Behavior::EquivocatingPrimary {
                self.equivocate(ctx, pp);
            } else {
                self.multicast(ctx, Msg::PrePrepare(pp));
            }
            self.check_prepared(ctx, seq);
        }
        let grant = self.with_leases(ctx, Leases::regrant);
        self.multicast_grant(ctx, grant);
    }

    /// Byzantine primary: half the backups get the real pre-prepare, the
    /// other half a conflicting one for the same (view, seq).
    fn equivocate(&mut self, ctx: &mut Context<'_, Packet>, pp: PrePrepare) {
        let mut alt = pp.clone();
        alt.entries.push(BatchEntry::Ref {
            client: 0,
            timestamp: u64::MAX,
            digest: bft_crypto::digest(&pp.seq.to_le_bytes()),
        });
        alt.batch_digest = batch_digest(&alt.entries);
        for (i, backup) in self.peers.clone().into_iter().enumerate() {
            let msg = if i % 2 == 0 {
                Msg::PrePrepare(pp.clone())
            } else {
                Msg::PrePrepare(alt.clone())
            };
            self.send_to(ctx, backup, msg);
        }
    }

    // ------------------------------------------------------------------
    // Three-phase protocol (backups)
    // ------------------------------------------------------------------

    fn handle_pre_prepare(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, pp: PrePrepare) {
        // Its piggybacked commits are `from`'s votes.
        if !self.sent_by_replica(ctx, from, from) {
            return;
        }
        self.process_piggy(ctx, from, &pp.piggy_commits);
        if self.in_view_change
            || pp.view != self.view
            || from != self.cfg.quorums.primary(pp.view)
            || !self.log.in_window(pp.seq)
        {
            // A pre-prepare from the primary of an *earlier* view means
            // that replica missed the view change entirely; show it the
            // NEW-VIEW proof so it can rejoin.
            if pp.view < self.view && from == self.cfg.quorums.primary(pp.view) {
                self.retransmit_new_view(ctx, from);
            }
            return;
        }
        // Reject a conflicting assignment for the same (view, seq).
        if let Some(slot) = self.log.slot(pp.seq) {
            if slot.view == pp.view {
                if let Some(d) = slot.digest {
                    if d != pp.batch_digest {
                        ctx.count(Counter::ConflictingPrePrepare);
                    }
                    return; // already accepted (or conflicting: ignore)
                }
            }
        }
        // Validate the batch digest and inline request authenticators.
        // Inline requests are hashed here, once; both checks and the
        // slot's references use that digest.
        let digests: Vec<Digest> = pp.entries.iter().map(BatchEntry::digest).collect();
        if batch_digest_of(&digests) != pp.batch_digest {
            ctx.count(Counter::BadBatchDigest);
            return;
        }
        ctx.charge_kind(
            CostKind::Digest,
            self.cfg.cost.digest(pp.entries.len() * 16),
        );
        let mut missing = false;
        let mut refs: Vec<RequestRef> = Vec::with_capacity(pp.entries.len());
        for (entry, &d) in pp.entries.iter().zip(&digests) {
            match entry {
                BatchEntry::Full(req) => {
                    if !self.verify_request_digest(ctx, req, d) {
                        ctx.count(Counter::BadRequestAuth);
                        return;
                    }
                }
                BatchEntry::Ref { .. } => missing |= !self.bodies.contains(&d),
            }
            refs.push(RequestRef::new(entry, d));
        }
        for e in &refs {
            self.pending_requests
                .insert((e.client, e.timestamp), e.digest);
        }
        let batch_len = refs.len() as u64;
        // An inline body moves out of the pre-prepare into the slot; one
        // that travelled separately is shared with the table.
        let requests = if missing {
            // Parked loose until the rest of the batch shows up.
            for (entry, d) in pp.entries.into_iter().zip(digests) {
                if let BatchEntry::Full(req) = entry {
                    self.bodies.insert(d, Arc::new(req));
                }
            }
            self.unresolved.insert(pp.seq);
            None
        } else {
            let requests: Vec<Arc<Request>> = pp
                .entries
                .into_iter()
                .zip(&refs)
                .map(|(entry, e)| match entry {
                    BatchEntry::Full(req) => Arc::new(req),
                    BatchEntry::Ref { .. } => {
                        Arc::clone(self.bodies.get(&e.digest).expect("checked above"))
                    }
                })
                .collect();
            self.bodies.hold(pp.seq, &refs, &requests);
            Some(requests)
        };
        {
            let view = self.view;
            let slot = self.log.slot_mut(pp.seq);
            // A slot without a digest in this view holds no batch either:
            // `install_new_view` voided whatever it did not re-adopt.
            debug_assert!(slot.entries.is_none() && slot.requests.is_none());
            slot.view = view;
            slot.digest = Some(pp.batch_digest);
            slot.entries = Some(refs);
            slot.requests = requests;
        }
        if missing {
            // Separate transmission raced ahead of the request multicast;
            // ask the primary for the body if it never shows up.
            let fb = FetchBatch {
                seq: pp.seq,
                batch_digest: pp.batch_digest,
            };
            let primary = self.cfg.quorums.primary(self.view);
            self.send_to(ctx, primary, Msg::FetchBatch(fb));
        }
        self.ensure_vc_timer(ctx);
        ctx.trace(
            SpanEdge::Open,
            TracePhase::PrePrepare,
            TraceMeta {
                view: pp.view,
                seq: pp.seq,
                bytes: batch_len,
                ..TraceMeta::default()
            },
        );
        // Multicast our prepare.
        let piggy = self.take_piggy(ctx);
        let prep = Prepare {
            view: pp.view,
            seq: pp.seq,
            batch_digest: pp.batch_digest,
            replica: self.id,
            piggy_commits: piggy,
        };
        {
            let me = self.id;
            let slot = self.log.slot_mut(pp.seq);
            slot.prepares.insert(me, pp.batch_digest);
            slot.prepare_sent = true;
        }
        self.multicast(ctx, Msg::Prepare(prep));
        self.check_prepared(ctx, pp.seq);
    }

    fn handle_prepare(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, prep: Prepare) {
        if !self.sent_by_replica(ctx, prep.replica, from) {
            return;
        }
        self.process_piggy(ctx, prep.replica, &prep.piggy_commits);
        self.with_leases(ctx, |l, f| l.note_evidence(from, prep.view, f));
        if self.in_view_change || prep.view != self.view || !self.log.in_window(prep.seq) {
            return;
        }
        if prep.replica == self.cfg.quorums.primary(prep.view) {
            return; // the primary's pre-prepare is its prepare
        }
        self.log
            .slot_mut(prep.seq)
            .prepares
            .insert(prep.replica, prep.batch_digest);
        self.check_prepared(ctx, prep.seq);
    }

    fn check_prepared(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let q = self.cfg.quorums;
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        if !slot.prepared(&q) || slot.commit_sent || slot.fast_committed {
            self.try_execute(ctx);
            return;
        }
        if self.cfg.fast_path && !slot.fast_fallback {
            self.advance_fast_path(ctx, seq);
            return;
        }
        let d = slot.digest.expect("prepared implies digest");
        {
            let me = self.id;
            let slot = self.log.slot_mut(seq);
            slot.commit_sent = true;
            slot.commits.insert(me, d);
        }
        let prepared_meta = TraceMeta {
            view: self.view,
            seq,
            ..TraceMeta::default()
        };
        ctx.trace(SpanEdge::Close, TracePhase::PrePrepare, prepared_meta);
        ctx.trace(SpanEdge::Open, TracePhase::Commit, prepared_meta);
        if self.cfg.opts.piggyback_commits {
            self.piggy_queue.push((seq, d));
            if self.piggy_timer.is_none() {
                self.piggy_timer = Some(ctx.set_timer(self.cfg.piggyback_flush_ns, TIMER_PIGGY));
            }
        } else {
            let commit = Commit {
                view: self.view,
                seq,
                batch_digest: d,
                replica: self.id,
            };
            self.multicast(ctx, Msg::Commit(commit));
        }
        self.try_execute(ctx);
    }

    /// Fast-path bookkeeping for a prepared slot that is withholding its
    /// commit: arm the fallback timer on first entry, fast-commit once
    /// every replica's vote is in, fall back early once a conflicting
    /// vote proves the fast quorum can never complete.
    fn advance_fast_path(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let q = self.cfg.quorums;
        if self.log.slot(seq).is_none_or(|slot| !slot.prepared(&q)) {
            return;
        }
        if !self.log.slot(seq).expect("checked above").fast_wait {
            let meta = TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            };
            ctx.trace(SpanEdge::Close, TracePhase::PrePrepare, meta);
            ctx.trace(SpanEdge::Open, TracePhase::FastCommit, meta);
            ctx.set_timer(self.cfg.fast_path_timeout_ns, TIMER_FASTPATH_BASE + seq);
            self.log.slot_mut(seq).fast_wait = true;
        }
        let slot = self.log.slot(seq).expect("checked above");
        if slot.fast_quorum_complete(&q) {
            let d = slot.digest.expect("prepared implies digest");
            self.log.slot_mut(seq).fast_committed = true;
            ctx.count(Counter::FastCommits);
            self.audit.note_fast_committed(seq, d);
            self.try_execute(ctx);
        } else if slot.fast_quorum_unreachable(&q) {
            self.fall_back_to_classic(ctx, seq);
        } else {
            self.try_execute(ctx);
        }
    }

    /// Classic fallback for a fast-waiting slot: multicast the commit the
    /// fast path was withholding and proceed three-phase. Idempotent.
    fn fall_back_to_classic(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let q = self.cfg.quorums;
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        if slot.commit_sent || slot.fast_committed || !slot.prepared(&q) {
            return;
        }
        let d = slot.digest.expect("prepared implies digest");
        let was_waiting = slot.fast_wait;
        {
            let me = self.id;
            let slot = self.log.slot_mut(seq);
            slot.fast_fallback = true;
            slot.commit_sent = true;
            slot.commits.insert(me, d);
        }
        ctx.count(Counter::FastFallbacks);
        let meta = TraceMeta {
            view: self.view,
            seq,
            ..TraceMeta::default()
        };
        if was_waiting {
            ctx.trace(SpanEdge::Close, TracePhase::FastCommit, meta);
        }
        ctx.trace(SpanEdge::Open, TracePhase::Commit, meta);
        let commit = Commit {
            view: self.view,
            seq,
            batch_digest: d,
            replica: self.id,
        };
        self.multicast(ctx, Msg::Commit(commit));
        self.try_execute(ctx);
    }

    /// Fast-path reaction to a peer's commit for `seq` in the current
    /// view: the sender abandoned (or never entered) the fast path on
    /// that slot, so waiting for the full fast quorum can only lose time
    /// — join the fallback. And a replica that already fast-committed
    /// never multicast a commit; it must answer once so the peer's
    /// classic certificate can complete (fast-committed implies
    /// prepared, so the commit is valid).
    fn note_peer_commit(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        if !self.cfg.fast_path {
            return;
        }
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        if slot.commit_sent {
            return;
        }
        if slot.fast_committed {
            let d = slot.digest.expect("fast-committed implies digest");
            let me = self.id;
            {
                let slot = self.log.slot_mut(seq);
                slot.commit_sent = true;
                slot.commits.insert(me, d);
            }
            let commit = Commit {
                view: self.view,
                seq,
                batch_digest: d,
                replica: me,
            };
            self.multicast(ctx, Msg::Commit(commit));
        } else if slot.fast_wait {
            self.fall_back_to_classic(ctx, seq);
        } else {
            self.log.slot_mut(seq).fast_fallback = true;
        }
    }

    fn handle_commit(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, c: Commit) {
        if !self.sent_by_replica(ctx, c.replica, from) {
            return;
        }
        self.with_leases(ctx, |l, f| l.note_evidence(from, c.view, f));
        if self.in_view_change || c.view != self.view || !self.log.in_window(c.seq) {
            return;
        }
        self.log
            .slot_mut(c.seq)
            .commits
            .insert(c.replica, c.batch_digest);
        self.note_peer_commit(ctx, c.seq);
        self.try_execute(ctx);
    }

    fn process_piggy(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: ReplicaId,
        piggy: &[(SeqNum, Digest)],
    ) {
        for &(seq, d) in piggy {
            if self.in_view_change || !self.log.in_window(seq) {
                continue;
            }
            self.log.slot_mut(seq).commits.insert(from, d);
            self.note_peer_commit(ctx, seq);
        }
        if !piggy.is_empty() {
            self.try_execute(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Which ordering span is open on `slot` when finality arrives: the
    /// fast-commit span while the fast path is in charge, the classic
    /// commit span otherwise (including after fallback, which closed the
    /// fast span and opened a commit span).
    fn commit_close_phase(slot: &Slot) -> TracePhase {
        if slot.fast_wait && !slot.fast_fallback {
            TracePhase::FastCommit
        } else {
            TracePhase::Commit
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, Packet>) {
        let q = self.cfg.quorums;
        // Deliberate fault injection: skip the quorum checks entirely.
        let broken = self.behavior == Behavior::BrokenQuorumCheck;
        // Finalize the tentative batch once its commit certificate
        // completes (it sits *at* last_executed, before the loop's range).
        if self.last_executed > self.last_final {
            let seq = self.last_executed;
            let close_phase = self
                .log
                .slot(seq)
                .filter(|slot| slot.committed(&q) || broken)
                .map(Self::commit_close_phase);
            if let Some(phase) = close_phase {
                ctx.trace(
                    SpanEdge::Close,
                    phase,
                    TraceMeta {
                        view: self.view,
                        seq,
                        ..TraceMeta::default()
                    },
                );
                self.finalize_tentative(seq);
                self.note_exec_progress(seq);
            }
        }
        loop {
            let next = self.last_executed + 1;
            if !self.log.in_window(next) {
                break;
            }
            let Some(slot) = self.log.slot(next) else {
                break;
            };
            if slot.digest.is_none() {
                break;
            }
            if !slot.executable() {
                // Execution is blocked on missing request bodies; recover
                // them, rate-limited so every incoming message does not
                // trigger another fetch.
                if ctx.now().nanos() >= self.next_body_fetch_ns {
                    self.next_body_fetch_ns = ctx.now().nanos() + 20_000_000;
                    self.recover_bodies(ctx, next);
                }
                break;
            }
            if slot.committed(&q) || broken {
                if slot.executed_tentative {
                    let phase = Self::commit_close_phase(slot);
                    ctx.trace(
                        SpanEdge::Close,
                        phase,
                        TraceMeta {
                            view: self.view,
                            seq: next,
                            ..TraceMeta::default()
                        },
                    );
                    self.finalize_tentative(next);
                } else if self.last_executed > self.last_final && !broken {
                    // A tentative batch is pending at `last_executed`
                    // without a commit certificate (commits are per-slot;
                    // loss can complete `next`'s certificate first).
                    // Final-executing `next` on top of it would promote
                    // the uncertified batch to de-facto finality —
                    // `last_final` jumps over it, its slot never turns
                    // `executed_final`, and a view change may still
                    // re-order that sequence number with a different
                    // batch. Wait for the predecessor's certificate
                    // (retransmission, backfill, or a view-change
                    // rollback all unblock this).
                    break;
                } else {
                    self.execute_batch(ctx, next, false);
                }
            } else if self.cfg.opts.tentative_execution
                && next == self.last_final + 1
                && self.last_executed == self.last_final
                && slot.prepared(&q)
            {
                self.execute_batch(ctx, next, true);
                break; // nothing beyond one tentative batch
            } else {
                break;
            }
        }
        self.after_execution(ctx);
    }

    fn after_execution(&mut self, ctx: &mut Context<'_, Packet>) {
        // Flush read-only replies once the executed prefix is committed.
        if self.last_executed == self.last_final && !self.waiting_ro.is_empty() {
            let waiting = std::mem::take(&mut self.waiting_ro);
            for w in waiting {
                self.send_to(ctx, w.client, Msg::Reply(w.reply));
            }
        }
        // Execution progress may have opened a lease-servable window
        // (caught up to the grant's sequence number, tentative drained).
        self.flush_lease_reads(ctx);
        // Announce checkpoints whose batches have committed.
        let announceable = self.checkpoints.announceable(self.last_final);
        for (seq, digest) in announceable {
            self.checkpoints.mark_announced(seq);
            // Audit at announce time, not creation time: a checkpoint cut
            // over a tentative batch may be rolled back and re-made, but
            // announced checkpoints must agree across correct replicas.
            self.audit.note_checkpoint(seq, digest);
            let cp = Checkpoint {
                seq,
                state_digest: digest,
                replica: self.id,
            };
            // Count our own claim as well.
            if let Some(stable) = self.checkpoints.add_claim(&cp) {
                self.adopt_stable(ctx, stable.seq, stable.digest);
            }
            self.multicast(ctx, Msg::Checkpoint(cp));
        }
        // The window may have opened for more proposals.
        self.try_propose(ctx);
        // Manage the view-change timer: quiet it when nothing is pending,
        // and restart it whenever execution makes progress — the timer
        // must measure how long the *oldest outstanding work* has been
        // stuck, not how long the system has been busy.
        if !self.in_view_change {
            if self.pending_requests.is_empty() {
                if let Some(t) = self.vc_timer.take() {
                    ctx.cancel_timer(t);
                }
            } else if self.exec_progress {
                if let Some(t) = self.vc_timer.take() {
                    ctx.cancel_timer(t);
                }
                self.ensure_vc_timer(ctx);
            }
        }
        self.exec_progress = false;
    }

    fn execute_batch(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, tentative: bool) {
        // The bodies leave the slot for the loop below (which needs `self`
        // whole) and go back with the executed flag: no copy.
        let slot = self.log.slot_mut(seq);
        let requests = slot.requests.take();
        let is_null = slot.is_null;
        let batch_digest = slot.digest;
        let mut ops = 0usize;
        let exec_phase = if tentative {
            TracePhase::ExecuteTentative
        } else {
            TracePhase::Execute
        };
        if !tentative {
            // Executing final means the commit certificate just completed.
            let phase = Self::commit_close_phase(slot);
            ctx.trace(
                SpanEdge::Close,
                phase,
                TraceMeta {
                    view: self.view,
                    seq,
                    ..TraceMeta::default()
                },
            );
        }
        ctx.trace(
            SpanEdge::Open,
            exec_phase,
            TraceMeta {
                view: self.view,
                seq,
                bytes: requests.as_ref().map_or(0, Vec::len) as u64,
                ..TraceMeta::default()
            },
        );
        if tentative {
            self.tentative_cache_undo.clear();
        }
        for req in requests.iter().flatten() {
            if is_null {
                break;
            }
            let identity = (req.client, req.timestamp);
            self.note_served(req.client, req.timestamp);
            // Only FINAL execution settles outstanding work. A tentative
            // execution may never commit (its certificate can stall when
            // peers recover or fall behind), leaving the client one reply
            // short of its 2f+1 tentative quorum forever — exactly the
            // wedge the view-change timer exists to break. Clearing the
            // pending entry here at tentative time disarms that timer on
            // the very replicas that hold the stalled batch.
            if !tentative {
                self.pending_requests.remove(&identity);
            }
            self.queued.remove(&identity);
            // Skip duplicates that slipped past queue-level dedup.
            if let Some(cached) = self.reply_cache.get(&req.client) {
                if req.timestamp <= cached.timestamp {
                    continue;
                }
            }
            let mut result = self.service.execute(req.client, &req.op);
            ops += 1;
            ctx.charge_kind(CostKind::Exec, self.service.exec_cost_ns(&req.op, &result));
            if self.behavior == Behavior::WrongResult {
                tamper(&mut result);
            }
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(result.len()));
            let send_full = !self.cfg.opts.digest_replies
                || req.replier == self.id
                || req.replier == REPLIER_ALL;
            let body = if send_full {
                ReplyBody::Full(result.clone())
            } else {
                ReplyBody::Digest(bft_crypto::digest(&result))
            };
            let reply = Reply {
                view: self.view,
                timestamp: req.timestamp,
                client: req.client,
                replica: self.id,
                tentative,
                body,
            };
            let prev = self.reply_cache.insert(
                req.client,
                CachedReply {
                    timestamp: req.timestamp,
                    result,
                    tentative,
                    view: self.view,
                },
            );
            if tentative {
                self.tentative_cache_undo.push((req.client, prev));
            }
            let client = req.client;
            self.send_to(ctx, client, Msg::Reply(reply));
            ctx.count(Counter::OpsExecuted);
            ctx.trace(
                SpanEdge::Instant,
                TracePhase::ExecuteRequest,
                TraceMeta {
                    client: client as u64,
                    timestamp: req.timestamp,
                    view: self.view,
                    seq,
                    ..TraceMeta::default()
                },
            );
        }
        ctx.trace(
            SpanEdge::Close,
            exec_phase,
            TraceMeta {
                view: self.view,
                seq,
                bytes: ops as u64,
                ..TraceMeta::default()
            },
        );
        self.last_executed = seq;
        self.note_exec_progress(seq);
        {
            let slot = self.log.slot_mut(seq);
            slot.requests = requests;
            if tentative {
                slot.executed_tentative = true;
            } else {
                slot.executed_final = true;
            }
        }
        if tentative {
            self.tentative_ops = ops;
        } else {
            self.last_final = seq;
            // A slot can reach finality without ever having been proposed
            // by us (backfilled `force_committed` slots after a recovery
            // or view change). The next proposal must start above it, or
            // a primary whose `next_seq` lags finality would assign
            // sequence numbers that collide with committed slots forever.
            self.next_seq = self.next_seq.max(seq);
            self.service.commit_prefix(ops);
            if let Some(d) = batch_digest {
                self.audit.note_committed(seq, d);
            }
        }
        // Checkpoint at interval boundaries.
        if seq.is_multiple_of(self.cfg.checkpoint_interval) {
            self.make_checkpoint(ctx, seq);
        }
    }

    fn finalize_tentative(&mut self, seq: SeqNum) {
        debug_assert_eq!(seq, self.last_executed);
        let ops = self.tentative_ops;
        self.tentative_ops = 0;
        self.tentative_cache_undo.clear();
        self.last_final = seq;
        self.next_seq = self.next_seq.max(seq);
        self.service.commit_prefix(ops);
        if let Some(d) = self.log.slot(seq).and_then(|s| s.digest) {
            self.audit.note_committed(seq, d);
        }
        let view = self.view;
        {
            let slot = self.log.slot_mut(seq);
            slot.executed_final = true;
        }
        // The batch's requests are settled only now that it is final —
        // execution left them pending so the view-change timer keeps
        // covering a tentative batch whose certificate stalls.
        if let Some(requests) = self.log.slot(seq).and_then(|s| s.requests.as_ref()) {
            for req in requests {
                self.pending_requests.remove(&(req.client, req.timestamp));
            }
        }
        // Upgrade cached replies so retransmissions get committed replies.
        for entry in self.reply_cache.values_mut() {
            if entry.tentative && entry.view <= view {
                entry.tentative = false;
            }
        }
    }

    fn rollback_tentative(&mut self) {
        if self.last_executed == self.last_final {
            return;
        }
        debug_assert_eq!(self.last_executed, self.last_final + 1);
        self.service.rollback_suffix(self.tentative_ops);
        for (client, prev) in self.tentative_cache_undo.drain(..).rev() {
            match prev {
                Some(entry) => {
                    self.reply_cache.insert(client, entry);
                }
                None => {
                    self.reply_cache.remove(&client);
                }
            }
        }
        let seq = self.last_executed;
        if let Some(_slot) = self.log.slot(seq) {
            self.log.slot_mut(seq).executed_tentative = false;
        }
        self.tentative_ops = 0;
        self.last_executed = self.last_final;
        // Read-only replies executed against rolled-back state are stale.
        self.waiting_ro.clear();
    }

    // ------------------------------------------------------------------
    // Checkpoints and state transfer
    // ------------------------------------------------------------------

    fn handle_checkpoint(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, cp: Checkpoint) {
        if !self.sent_by_replica(ctx, cp.replica, from) {
            return;
        }
        if let Some(stable) = self.checkpoints.add_claim(&cp) {
            self.adopt_stable(ctx, stable.seq, stable.digest);
        }
    }

    fn adopt_stable(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, digest: Digest) {
        if seq <= self.checkpoints.stable_seq() {
            return;
        }
        match self.checkpoints.own(seq) {
            Some(own) if own.digest == digest => {
                self.checkpoints.make_stable(seq, digest);
                self.service.release_checkpoints_below(seq);
                self.collect_garbage(seq);
                self.backfill.retain(|&(s, _), _| s > seq);
                ctx.count(Counter::StableCheckpoints);
            }
            _ => {
                // No local checkpoint at a quorum-stable sequence number.
                // If the gap is small we are only momentarily behind and
                // will produce the checkpoint ourselves; a real gap means
                // we missed whole stretches of the log and must transfer.
                if seq > self.last_executed + self.cfg.checkpoint_interval {
                    self.start_state_transfer(ctx, seq, digest);
                }
            }
        }
    }

    fn start_state_transfer(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, digest: Digest) {
        if let Some(f) = &self.fetching {
            if f.seq >= seq {
                return;
            }
        }
        let target = (self.id + 1) % self.cfg.n();
        self.fetching = Some(StateFetch::new(seq, digest, target));
        self.send_to(ctx, target, Msg::FetchState(FetchState { seq }));
        ctx.trace(
            SpanEdge::Open,
            TracePhase::StateTransfer,
            TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            },
        );
    }

    /// Rotates the fetch target and re-sends the current phase's request
    /// (STATE-META if the leaves are unverified, otherwise the missing
    /// partitions). Also drives the resend-timer keep-alive.
    fn retry_state_transfer(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(fetch) = &mut self.fetching else {
            return;
        };
        let next = (fetch.target + 1) % self.cfg.n();
        fetch.target = next;
        let seq = fetch.seq;
        let msg = if fetch.leaves.is_empty() {
            Msg::FetchState(FetchState { seq })
        } else {
            Msg::FetchParts(FetchParts {
                seq,
                parts: fetch.missing.iter().copied().collect(),
            })
        };
        self.send_to(ctx, next, msg);
    }

    fn handle_fetch_state(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, fs: FetchState) {
        if let Some(own) = self.checkpoints.own(fs.seq) {
            let meta = StateMeta {
                seq: fs.seq,
                leaves: own.leaves.clone(),
            };
            self.send_to(ctx, from, Msg::StateMeta(meta));
        }
    }

    fn handle_state_meta(&mut self, ctx: &mut Context<'_, Packet>, sm: StateMeta) {
        let Some(fetch) = &self.fetching else {
            return;
        };
        if sm.seq != fetch.seq || !fetch.leaves.is_empty() || sm.leaves.is_empty() {
            return;
        }
        // Verify the advertised leaves against the quorum-agreed
        // checkpoint digest before trusting any of them.
        ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(sm.leaves.len() * 16));
        if CheckpointTracker::root_of(&sm.leaves) != fetch.digest {
            ctx.count(Counter::StateTransferBadMeta);
            self.retry_state_transfer(ctx);
            return;
        }
        // Diff the leaves against our own partition digests: partitions
        // we already hold at the right version never cross the network.
        let count = (sm.leaves.len() - 1) as u32;
        let mut missing: BTreeSet<u32> = BTreeSet::new();
        let same_layout = count == self.service.partition_count();
        for p in 0..count {
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest_fixed_ns);
            if !(same_layout && self.service.partition_digest(p) == sm.leaves[p as usize]) {
                missing.insert(p);
            }
        }
        if bft_crypto::digest(&Self::encode_cache(&self.reply_cache)) != sm.leaves[count as usize] {
            missing.insert(count);
        }
        ctx.count_add(
            Counter::StatePartsSkipped,
            u64::from(count + 1) - missing.len() as u64,
        );
        let fetch = self.fetching.as_mut().expect("checked above");
        fetch.leaves = sm.leaves;
        fetch.missing = missing;
        if fetch.missing.is_empty() {
            self.finish_state_transfer(ctx);
        } else {
            let seq = fetch.seq;
            let target = fetch.target;
            let parts: Vec<u32> = fetch.missing.iter().copied().collect();
            self.send_to(ctx, target, Msg::FetchParts(FetchParts { seq, parts }));
        }
    }

    fn handle_fetch_parts(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, fp: FetchParts) {
        let Some(own) = self.checkpoints.own(fp.seq) else {
            return;
        };
        let cache_idx = (own.leaves.len() - 1) as u32;
        let mut parts: Vec<(u32, Vec<u8>)> = Vec::new();
        for &p in fp.parts.iter().take(own.leaves.len()) {
            let bytes = if p == cache_idx {
                Some(own.cache_bytes.clone())
            } else if let Some(eager) = &own.parts {
                eager.get(p as usize).cloned()
            } else {
                // Lazy path: serialize the retained copy-on-write version
                // only now that a peer actually asked for it.
                self.service.retained_partition(fp.seq, p)
            };
            if let Some(mut b) = bytes {
                if self.behavior == Behavior::CorruptStateData {
                    if let Some(x) = b.first_mut() {
                        *x ^= 0xff;
                    } else {
                        b.push(0xde);
                    }
                }
                parts.push((p, b));
            }
        }
        if !parts.is_empty() {
            self.send_to(ctx, from, Msg::PartData(PartData { seq: fp.seq, parts }));
        }
    }

    fn handle_part_data(&mut self, ctx: &mut Context<'_, Packet>, pd: PartData) {
        let Some(mut fetch) = self.fetching.take() else {
            return;
        };
        if pd.seq != fetch.seq || fetch.leaves.is_empty() {
            self.fetching = Some(fetch);
            return;
        }
        let cache_idx = (fetch.leaves.len() - 1) as u32;
        let mut corrupt = false;
        let mut fetched_bytes = 0u64;
        for (p, bytes) in &pd.parts {
            let p = *p;
            if !fetch.missing.contains(&p) {
                continue;
            }
            let leaf = fetch.leaves[p as usize];
            ctx.charge_kind(CostKind::Digest, self.cfg.cost.digest(bytes.len()));
            let ok = if p == cache_idx {
                // The cache is installed atomically at the end; verify
                // and hold the bytes for now.
                bft_crypto::digest(bytes) == leaf && Self::decode_cache(bytes, self.view).is_some()
            } else {
                // Per-partition verify-before-apply: a bad partition is
                // rejected without needing a fallback snapshot.
                self.service.restore_partition(p, bytes, &leaf).is_ok()
            };
            if !ok {
                corrupt = true;
                continue;
            }
            if p == cache_idx {
                fetch.cache_bytes = bytes.clone();
            }
            fetch.missing.remove(&p);
            fetched_bytes += bytes.len() as u64;
        }
        ctx.count_add(Counter::StateTransferBytes, fetched_bytes);
        let done = fetch.missing.is_empty();
        self.fetching = Some(fetch);
        if corrupt {
            // A faulty replica sent bytes that do not match the verified
            // leaves; the bad partitions stay missing. Try another peer.
            ctx.count(Counter::StateTransferBadSnapshot);
            self.retry_state_transfer(ctx);
        } else if done {
            self.finish_state_transfer(ctx);
        }
    }

    /// Every partition matches the verified leaves: install the reply
    /// cache, rebuild the digest tree, and adopt the checkpoint.
    fn finish_state_transfer(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(fetch) = self.fetching.take() else {
            return;
        };
        debug_assert!(fetch.missing.is_empty());
        let seq = fetch.seq;
        let digest = fetch.digest;
        let cache_bytes = if fetch.cache_bytes.is_empty() {
            // The local cache already matched the checkpoint's leaf.
            Self::encode_cache(&self.reply_cache)
        } else {
            let cache =
                Self::decode_cache(&fetch.cache_bytes, self.view).expect("verified when fetched");
            self.reply_cache = cache;
            fetch.cache_bytes
        };
        self.tracker = CheckpointTracker::new(&self.service, &cache_bytes);
        self.service.take_dirty_partitions();
        if self.tracker.root() != digest {
            // Partition layout mismatch or a service restore bug; restart
            // the transfer from scratch against another peer.
            ctx.count(Counter::StateTransferBadSnapshot);
            let target = (fetch.target + 1) % self.cfg.n();
            self.fetching = Some(StateFetch::new(seq, digest, target));
            self.send_to(ctx, target, Msg::FetchState(FetchState { seq }));
            return;
        }
        // The adopted state is final; undo information for any lingering
        // tentative executions is void (unfetched partitions matched the
        // checkpoint exactly, so rolling them back would be wrong).
        self.service.commit_prefix(usize::MAX);
        self.tentative_ops = 0;
        self.tentative_cache_undo.clear();
        self.waiting_ro.clear();
        // Adoption may move execution backwards (recovery audits target
        // the group's stable point); anything above must re-execute from
        // the restored state, so stale execution markers are poison.
        self.log.clear_executed_above(seq);
        self.last_executed = seq;
        self.last_final = seq;
        self.next_seq = self.next_seq.max(seq);
        let parts = if self.service.retain_checkpoint(seq) {
            None
        } else {
            Some(
                (0..self.tracker.partition_count())
                    .map(|p| self.service.partition_snapshot(p))
                    .collect(),
            )
        };
        self.checkpoints
            .note_own(seq, OwnCheckpoint::new(fetch.leaves, cache_bytes, parts));
        self.checkpoints.mark_announced(seq);
        self.checkpoints.make_stable(seq, digest);
        self.service.release_checkpoints_below(seq);
        self.collect_garbage(seq);
        ctx.count(Counter::StateTransfers);
        ctx.trace(
            SpanEdge::Close,
            TracePhase::StateTransfer,
            TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            },
        );
        // If this transfer was a recovery audit (or subsumed one aimed at
        // an older checkpoint), every partition now provably matches a
        // quorum-attested root: the recovery is complete.
        if self.recovery.auditing_seq().is_some_and(|a| a <= seq) {
            self.complete_recovery(ctx, seq, digest);
        }
        self.try_execute(ctx);
    }

    fn handle_status(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, st: Status) {
        // Lease evidence that flows even when the group is idle.
        self.with_leases(ctx, |l, f| l.note_evidence(from, st.view, f));
        // Backfill a lagging peer with batches we know committed. Slots at
        // or below our stable checkpoint are gone; the peer will recover
        // those via state transfer driven by checkpoint claims.
        if st.last_executed >= self.last_final {
            return;
        }
        let mut sent = 0;
        for seq in st.last_executed + 1..=self.last_final {
            if sent >= 8 {
                break;
            }
            let Some(slot) = self.log.slot(seq) else {
                continue;
            };
            if !slot.executed_final {
                continue;
            }
            // Keep backfill frames small: bodies beyond the inline
            // threshold go by reference (the peer fetches them
            // separately).
            let threshold = self.cfg.inline_threshold;
            let (Some(d), Some(entries)) = (
                slot.digest,
                slot.wire_entries(|req| req.op.len() <= threshold),
            ) else {
                continue;
            };
            sent += 1;
            self.send_to(
                ctx,
                from,
                Msg::CommittedBatch(CommittedBatch {
                    seq,
                    batch_digest: d,
                    entries,
                }),
            );
        }
    }

    fn handle_committed_batch(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        cb: CommittedBatch,
    ) {
        if !self.log.in_window(cb.seq) || cb.seq <= self.last_executed {
            return;
        }
        let digests: Vec<Digest> = cb.entries.iter().map(BatchEntry::digest).collect();
        if batch_digest_of(&digests) != cb.batch_digest {
            return;
        }
        let votes = self.backfill.entry((cb.seq, cb.batch_digest)).or_default();
        votes.insert(from);
        let witnessed = votes.len() >= self.cfg.quorums.witness_quorum();
        // Stash the bodies either way; they are digest-bound.
        let mut refs = Vec::with_capacity(digests.len());
        for (entry, d) in cb.entries.into_iter().zip(digests) {
            refs.push(RequestRef::new(&entry, d));
            if let BatchEntry::Full(req) = entry {
                if self.verify_request_digest(ctx, &req, d) {
                    self.bodies.insert(d, Arc::new(req));
                }
            }
        }
        if !witnessed {
            return;
        }
        // f+1 distinct peers assert commitment: at least one is correct.
        {
            let view = self.view;
            let slot = self.log.slot_mut(cb.seq);
            if slot.digest.is_none() {
                slot.view = view;
                slot.digest = Some(cb.batch_digest);
            }
            if slot.digest == Some(cb.batch_digest) {
                slot.entries.get_or_insert(refs);
                slot.force_committed = true;
            }
        }
        self.unresolved.insert(cb.seq);
        self.resolve_pending_batches(ctx);
    }

    /// Recovers the missing bodies blocking slot `seq`: individual
    /// requests when the batch entries are known, the whole batch
    /// otherwise (post-view-change) — or the state, once a checkpoint
    /// quorum at or past `seq` says the peers have released both.
    fn recover_bodies(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        let Some(slot) = self.log.slot(seq) else {
            return;
        };
        let Some(d) = slot.digest else { return };
        let missing: Option<Vec<Digest>> = slot.entries.as_ref().map(|entries| {
            let known = |d: &Digest| self.bodies.contains(d);
            entries
                .iter()
                .map(|e| e.digest)
                .filter(|d| !known(d))
                .collect()
        });
        if missing.as_ref().is_some_and(Vec::is_empty) {
            self.unresolved.insert(seq);
            self.resolve_pending_batches(ctx);
            return;
        }
        // Bodies go with their slot at the stable checkpoint, so what a
        // quorum has checkpointed past nobody can be counted on to serve
        // any more: the checkpoint itself is what is left to fetch.
        if let Some(stable) = self.checkpoints.quorum_beyond(seq - 1) {
            self.start_state_transfer(ctx, stable.seq, stable.digest);
            return;
        }
        // Rotate recovery targets deterministically.
        let step = 1 + ((ctx.now().nanos() / 20_000_000) as u32 % (self.cfg.n() - 1));
        let target = (self.id + step) % self.cfg.n();
        match missing {
            Some(digests) => {
                ctx.count(Counter::BodyRecoveries);
                self.send_to(ctx, target, Msg::FetchRequests(FetchRequests { digests }));
            }
            None => {
                self.send_to(
                    ctx,
                    target,
                    Msg::FetchBatch(FetchBatch {
                        seq,
                        batch_digest: d,
                    }),
                );
            }
        }
    }

    fn handle_fetch_requests(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        fr: FetchRequests,
    ) {
        // Cap the response so recovery traffic cannot congest the very
        // links whose overload caused the loss.
        let mut budget = 64 * 1024usize;
        let mut requests: Vec<Request> = Vec::new();
        for d in fr.digests.iter().take(64) {
            let Some(req) = self.bodies.get(d) else {
                continue;
            };
            if req.op.len() + 64 > budget {
                break;
            }
            budget -= req.op.len() + 64;
            requests.push(Request::clone(req));
        }
        if !requests.is_empty() {
            self.send_to(ctx, from, Msg::RequestData(RequestData { requests }));
        }
    }

    fn handle_request_data(&mut self, ctx: &mut Context<'_, Packet>, rd: RequestData) {
        let mut any = false;
        for req in rd.requests {
            let Some(d) = self.verify_request(ctx, &req) else {
                continue;
            };
            self.bodies.insert(d, Arc::new(req));
            any = true;
        }
        if any {
            // Keep the recovery stream flowing: the resolve below runs
            // try_execute, which fetches the next missing bodies without
            // waiting out the pacing interval.
            self.next_body_fetch_ns = 0;
            self.resolve_pending_batches(ctx);
        }
    }

    fn handle_fetch_batch(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, fb: FetchBatch) {
        let Some(slot) = self.log.slot(fb.seq) else {
            return;
        };
        if slot.digest != Some(fb.batch_digest) {
            return;
        }
        let Some(entries) = slot.wire_entries(|_| true) else {
            return;
        };
        self.send_to(
            ctx,
            from,
            Msg::BatchData(BatchData {
                seq: fb.seq,
                entries,
            }),
        );
    }

    fn handle_batch_data(&mut self, ctx: &mut Context<'_, Packet>, bd: BatchData) {
        if !self.log.in_window(bd.seq) {
            return;
        }
        let Some(slot) = self.log.slot(bd.seq) else {
            return;
        };
        if slot.requests.is_some() || slot.digest.is_none() {
            return;
        }
        let want = slot.digest.expect("checked");
        // The fetched bodies must hash to the digest we prepared against.
        let digests: Vec<Digest> = bd.entries.iter().map(BatchEntry::digest).collect();
        if batch_digest_of(&digests) != want {
            return;
        }
        let mut refs = Vec::with_capacity(bd.entries.len());
        let mut resolved = Vec::with_capacity(bd.entries.len());
        for (entry, d) in bd.entries.into_iter().zip(digests) {
            refs.push(RequestRef::new(&entry, d));
            match entry {
                BatchEntry::Full(req) => {
                    if !self.verify_request_digest(ctx, &req, d) {
                        return;
                    }
                    resolved.push(Arc::new(req));
                }
                BatchEntry::Ref { .. } => return, // fetch answers must inline
            }
        }
        self.bodies.hold(bd.seq, &refs, &resolved);
        let slot = self.log.slot_mut(bd.seq);
        slot.entries = Some(refs);
        slot.requests = Some(resolved);
        self.try_execute(ctx);
    }

    /// Called when a request body arrives that might complete a batch
    /// accepted without it (separate request transmission).
    fn resolve_pending_batches(&mut self, ctx: &mut Context<'_, Packet>) {
        let mut waiting = std::mem::take(&mut self.unresolved);
        waiting.retain(|&seq| !self.try_resolve(seq));
        self.unresolved.append(&mut waiting);
        self.try_execute(ctx);
    }

    /// Completes slot `seq` from the body table if every body of its
    /// batch is there. Returns `false` while the slot still waits — for
    /// a body, or for a BATCH-DATA answer when not even the references
    /// are known — and `true` once nothing is left to wait for (it has
    /// its bodies, or it is gone, or a new view voided it).
    fn try_resolve(&mut self, seq: SeqNum) -> bool {
        let Some(slot) = self.log.slot(seq) else {
            return true;
        };
        if slot.digest.is_none() || slot.executable() {
            return true;
        }
        let Some(requests) = slot
            .entries
            .as_ref()
            .and_then(|entries| self.bodies.resolve(seq, entries))
        else {
            return false;
        };
        self.log.slot_mut(seq).requests = Some(requests);
        true
    }

    /// Records execution of `seq` as view-change-timer progress — but
    /// only the first time that sequence number executes. Re-execution
    /// (a recovery replaying its retained finalized suffix, a new view
    /// re-driving old slots) completes no outstanding work and says
    /// nothing about the current primary's health.
    fn note_exec_progress(&mut self, seq: SeqNum) {
        if seq > self.exec_high_water {
            self.exec_high_water = seq;
            self.exec_progress = true;
        }
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    fn ensure_vc_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        if self.vc_timer.is_none() && !self.is_primary() && !self.in_view_change {
            self.vc_timer = Some(ctx.set_timer(self.vc_timeout_ns, TIMER_VIEW_CHANGE));
        }
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, Packet>, target: View) {
        if target <= self.view || (self.in_view_change && target <= self.pending_view) {
            return;
        }
        self.in_view_change = true;
        self.pending_view = target;
        self.rollback_tentative();
        // Serving reads while the group re-elects could miss writes the
        // new primary is about to re-order.
        self.with_leases(ctx, |l, _| l.drop_held());
        let vc = ViewChange {
            new_view: target,
            last_stable: self.checkpoints.stable_seq(),
            stable_digest: self.checkpoints.stable_digest(),
            prepared: self.log.prepared_infos(&self.cfg.quorums),
            // Fast-path vote reports: `f+1` matching ones prove a
            // fast-committed batch into the new view.
            fast_votes: if self.cfg.fast_path {
                self.log.fast_vote_infos(self.id, &self.cfg.quorums)
            } else {
                Vec::new()
            },
            replica: self.id,
        };
        self.vc_set.add(vc.clone());
        ctx.count(Counter::ViewChanges);
        ctx.trace(
            SpanEdge::Open,
            TracePhase::ViewChange,
            TraceMeta {
                view: target,
                ..TraceMeta::default()
            },
        );
        self.multicast(ctx, Msg::ViewChange(vc));
        // Wait for the new view with a doubled timeout, capped so a long
        // partition cannot inflate it unboundedly — after a heal the next
        // election starts within the configured ceiling.
        self.vc_timeout_ns = self
            .vc_timeout_ns
            .saturating_mul(2)
            .min(self.cfg.view_change_timeout_max_ns);
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.vc_timer = Some(ctx.set_timer(self.vc_timeout_ns, TIMER_VIEW_CHANGE));
        self.maybe_build_new_view(ctx, target);
    }

    /// Sends the NEW-VIEW that installed our current view to a replica
    /// observed operating in an earlier view. Without this, a replica
    /// that was cut off while the rest of the group changed views (the
    /// asymmetric-partition scenario: an isolated primary that clients
    /// can still reach) escalates solo view changes forever and never
    /// rejoins. Rate-limited per destination.
    fn retransmit_new_view(&mut self, ctx: &mut Context<'_, Packet>, to: ReplicaId) {
        let Some(nv) = &self.last_new_view else {
            return;
        };
        if nv.view != self.view || to == self.id {
            return;
        }
        let now = ctx.now().nanos();
        let gate = self.nv_retx_after_ns.entry(to).or_insert(0);
        if now < *gate {
            return;
        }
        *gate = now + self.cfg.resend_interval_ns.max(20_000_000);
        let nv = nv.clone();
        ctx.count(Counter::NewViewRetransmits);
        self.send_to(ctx, to, Msg::NewView(nv));
    }

    fn handle_view_change(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, vc: ViewChange) {
        if !self.sent_by_replica(ctx, vc.replica, from) {
            return;
        }
        if vc.new_view <= self.view {
            // The voter is trying to leave a view we already left; it is
            // lagging, not us — hand it the proof of the current view.
            self.retransmit_new_view(ctx, vc.replica);
            return;
        }
        self.vc_set.add(vc.clone());
        // Join a view change supported by f+1 replicas (liveness rule).
        let current = if self.in_view_change {
            self.pending_view
        } else {
            self.view
        };
        if let Some(join) = self.vc_set.join_view(current, &self.cfg.quorums) {
            self.start_view_change(ctx, join);
        }
        self.maybe_build_new_view(ctx, vc.new_view);
    }

    fn maybe_build_new_view(&mut self, ctx: &mut Context<'_, Packet>, target: View) {
        if self.cfg.quorums.primary(target) != self.id {
            return;
        }
        if !self.vc_set.has_vote(target, self.id) {
            return;
        }
        if !self.in_view_change || self.pending_view != target {
            return;
        }
        let Some(votes) = self.vc_set.quorum(target, &self.cfg.quorums) else {
            return;
        };
        let plan = compute_plan(&votes, &self.cfg.quorums);
        // Attach the batch bodies we have for re-proposed digests — but
        // keep the NEW-VIEW small enough to survive congested links;
        // backups recover anything else through the fetch path.
        const MAX_ATTACHED_BYTES: usize = 32 * 1024;
        let mut attached = 0usize;
        let mut batches = Vec::new();
        for &(seq, d) in &plan.pre_prepares {
            if d == NULL_DIGEST {
                continue;
            }
            if let Some(slot) = self.log.slot(seq) {
                if slot.digest == Some(d)
                    || slot.entries.as_deref().map(RequestRef::batch_digest) == Some(d)
                {
                    if let Some(reqs) = &slot.requests {
                        let size: usize = reqs.iter().map(|r| r.op.len() + 64).sum();
                        if attached + size > MAX_ATTACHED_BYTES {
                            continue;
                        }
                        attached += size;
                        batches.extend(slot.wire_entries(|_| true).map(|b| (seq, b)));
                    }
                }
            }
        }
        let mut pre_prepares = plan.pre_prepares.clone();
        if self.behavior == Behavior::BadNewView {
            // Forge the recomputable part: append a bogus assignment.
            pre_prepares.push((plan.max_s + 1, bft_crypto::digest(b"forged")));
        }
        let nv = NewView {
            view: target,
            view_changes: votes,
            pre_prepares,
            batches: batches.clone(),
        };
        if self.behavior != Behavior::BadNewView {
            self.last_new_view = Some(nv.clone());
        }
        self.multicast(ctx, Msg::NewView(nv));
        if self.behavior != Behavior::BadNewView {
            self.install_new_view(ctx, target, plan, batches);
        }
    }

    fn handle_new_view(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, nv: NewView) {
        if nv.view <= self.view || from != self.cfg.quorums.primary(nv.view) {
            return;
        }
        let plan = match validate_new_view(&nv, &self.cfg.quorums) {
            Ok(p) => p,
            Err(_) => {
                // The new primary is faulty too: move on.
                ctx.count(Counter::BadNewView);
                self.start_view_change(ctx, nv.view + 1);
                return;
            }
        };
        self.rollback_tentative();
        self.last_new_view = Some(nv.clone());
        self.install_new_view(ctx, nv.view, plan, nv.batches);
    }

    fn install_new_view(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        view: View,
        plan: crate::viewchange::NewViewPlan,
        batches: Vec<(SeqNum, Vec<BatchEntry>)>,
    ) {
        self.view = view;
        self.in_view_change = false;
        self.pending_view = view;
        self.vc_set.prune_through(view);
        self.vc_timeout_ns = self.cfg.view_change_timeout_ns;
        if let Some(t) = self.vc_timer.take() {
            ctx.cancel_timer(t);
        }
        self.log.reset_for_view();
        // Proposals from the old view are void; clients or backups will
        // resubmit anything that did not survive into the new view.
        self.queued.clear();
        self.pending_batch.clear();
        self.pending_batch_len = 0;
        // Absorb batch bodies shipped with the new view.
        let mut shipped: BTreeMap<SeqNum, Vec<BatchEntry>> = batches.into_iter().collect();
        // If the group's stable point is ahead of us, transfer state.
        if plan.min_s > self.checkpoints.stable_seq() {
            if plan.min_s > self.last_executed {
                self.start_state_transfer(ctx, plan.min_s, plan.min_s_digest);
            } else if self.checkpoints.own(plan.min_s).is_some() {
                let digest = self.checkpoints.own(plan.min_s).expect("checked").digest;
                self.checkpoints.make_stable(plan.min_s, digest);
            }
            if plan.min_s > self.log.low() {
                self.collect_garbage(plan.min_s);
            }
        }
        let is_primary = self.cfg.quorums.primary(view) == self.id;
        self.next_seq = plan.max_s.max(self.log.low());
        for &(seq, d) in &plan.pre_prepares {
            if !self.log.in_window(seq) {
                continue;
            }
            {
                let slot = self.log.slot_mut(seq);
                slot.view = view;
                slot.digest = Some(d);
                slot.is_null = d == NULL_DIGEST;
                // The batch this slot kept from the old view stays only
                // if it is the one the new view orders here.
                if slot.entries.as_deref().map(RequestRef::batch_digest) != Some(d) {
                    if let Some(voided) = slot.take_batch() {
                        self.bodies.unhold(seq, &voided);
                    }
                }
                if slot.is_null {
                    slot.requests = Some(Vec::new());
                    slot.entries = Some(Vec::new());
                } else if slot.requests.is_none() {
                    if let Some(entries) = shipped.remove(&seq) {
                        let digests: Vec<Digest> = entries.iter().map(BatchEntry::digest).collect();
                        let all_inline = entries.iter().all(|e| matches!(e, BatchEntry::Full(_)));
                        if all_inline && batch_digest_of(&digests) == d {
                            let refs: Vec<RequestRef> = entries
                                .iter()
                                .zip(digests)
                                .map(|(e, digest)| RequestRef::new(e, digest))
                                .collect();
                            let reqs: Vec<Arc<Request>> = entries
                                .into_iter()
                                .filter_map(|e| match e {
                                    BatchEntry::Full(r) => Some(Arc::new(r)),
                                    BatchEntry::Ref { .. } => None,
                                })
                                .collect();
                            self.bodies.hold(seq, &refs, &reqs);
                            slot.entries = Some(refs);
                            slot.requests = Some(reqs);
                        }
                    }
                }
            }
            // Everyone (including the new primary, whose pre-prepare is
            // implicit) records its own prepare; backups multicast theirs.
            if !is_primary {
                let piggy = self.take_piggy(ctx);
                let prep = Prepare {
                    view,
                    seq,
                    batch_digest: d,
                    replica: self.id,
                    piggy_commits: piggy,
                };
                {
                    let me = self.id;
                    let slot = self.log.slot_mut(seq);
                    slot.prepares.insert(me, d);
                    slot.prepare_sent = true;
                }
                self.multicast(ctx, Msg::Prepare(prep));
            }
            // Request any missing bodies.
            let need_fetch = {
                let slot = self.log.slot(seq).expect("just created");
                slot.requests.is_none()
            };
            if need_fetch {
                self.unresolved.insert(seq);
                let primary = self.cfg.quorums.primary(view);
                let target = if is_primary {
                    (self.id + 1) % self.cfg.n()
                } else {
                    primary
                };
                self.send_to(
                    ctx,
                    target,
                    Msg::FetchBatch(FetchBatch {
                        seq,
                        batch_digest: d,
                    }),
                );
            }
        }
        // A slot the new view did not re-adopt orders nothing any more:
        // its bodies are loose again, to be forwarded or re-proposed
        // below, or named by a later pre-prepare.
        for (seq, voided) in self.log.void_batches() {
            self.bodies.unhold(seq, &voided);
        }
        self.with_leases(ctx, Leases::on_view_installed);
        ctx.count(Counter::ViewsInstalled);
        ctx.trace(
            SpanEdge::Close,
            TracePhase::ViewChange,
            TraceMeta {
                view,
                ..TraceMeta::default()
            },
        );
        // Forward pending requests so the new primary learns about them.
        if !is_primary {
            let primary = self.cfg.quorums.primary(view);
            let pending: Vec<Request> = self
                .pending_requests
                .values()
                .filter_map(|d| self.bodies.get(d))
                .map(|req| Request::clone(req))
                .collect();
            for req in pending {
                let packet = Packet::unauthenticated(Msg::Request(req));
                let wire = packet.wire_bytes();
                ctx.charge_kind(CostKind::Net, self.cfg.cost.send(wire));
                ctx.count_sent(packet.body.tag());
                ctx.send(primary, packet, wire);
            }
            if !self.pending_requests.is_empty() {
                self.ensure_vc_timer(ctx);
            }
        } else {
            // Unexecuted pending requests may need re-proposing.
            let pending: Vec<(Digest, Arc<Request>)> = self
                .pending_requests
                .values()
                .filter_map(|d| self.bodies.get(d).map(|req| (*d, Arc::clone(req))))
                .collect();
            for (d, req) in pending {
                if self.queued.insert((req.client, req.timestamp)) {
                    self.enqueue_pending(d, req);
                }
            }
        }
        self.check_all_prepared(ctx);
    }

    fn check_all_prepared(&mut self, ctx: &mut Context<'_, Packet>) {
        let seqs: Vec<SeqNum> = self.log.iter().map(|(s, _)| s).collect();
        for seq in seqs {
            self.check_prepared(ctx, seq);
        }
        self.try_execute(ctx);
        self.try_propose(ctx);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Announces a fresh inbound-key epoch (NEW-KEY). MACs under the
    /// previous epoch stay valid for one grace epoch, so in-flight traffic
    /// survives the boundary.
    fn refresh_keys(&mut self, ctx: &mut Context<'_, Packet>) {
        let epoch = self.keys.chain.refresh();
        ctx.count(Counter::KeyRefreshes);
        // Paper-era cost: the real NEW-KEY encrypts one session key per
        // principal under RSA and signs the message.
        ctx.charge_kind(
            CostKind::Rsa,
            self.cfg.cost.rsa_private_ns + self.cfg.cost.rsa_public_ns * (self.cfg.n() as u64 - 1),
        );
        let nk = NewKey {
            replica: self.id,
            epoch,
        };
        self.multicast(ctx, Msg::NewKey(nk));
    }

    fn handle_new_key(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, nk: NewKey) {
        if nk.replica != from || from >= self.cfg.n() {
            return;
        }
        // Verify + decrypt cost of the real NEW-KEY message.
        ctx.charge_kind(
            CostKind::Rsa,
            self.cfg.cost.rsa_public_ns + self.cfg.cost.rsa_private_ns,
        );
        self.keys.chain.set_peer_epoch(from, nk.epoch);
    }

    // ------------------------------------------------------------------
    // Proactive recovery (Section 2: "BFT can recover replicas
    // proactively ... even if all replicas fail provided less than 1/3
    // become faulty within a window of vulnerability")
    // ------------------------------------------------------------------

    /// Watchdog fire: start a recovery, unless one is already running or
    /// another replica holds the single in-recovery slot (its lease).
    /// Deferral re-arms the timer for just past the blocking lease's
    /// expiry, so staggered recoveries never overlap — the same ≤f budget
    /// discipline the chaos engine enforces for injected faults.
    fn on_recovery_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        let interval = self.cfg.proactive_recovery_interval_ns;
        if self.recovery.in_progress() {
            // A stalled recovery keeps its slot; try again next period.
            ctx.set_timer(interval, TIMER_RECOVERY);
            return;
        }
        let now = ctx.now().nanos();
        if let Some(until) = self.recovery.lease_blocking(self.id, now) {
            ctx.set_timer(until.saturating_sub(now) + dur::millis(1), TIMER_RECOVERY);
            return;
        }
        self.begin_recovery(ctx);
        ctx.set_timer(interval, TIMER_RECOVERY);
    }

    /// First phase of a recovery "reboot": rotate the MAC key epoch (a
    /// stolen session key dies here), drop tentative execution, and ask
    /// the group to attest its stable checkpoint root. Nothing local is
    /// trusted until a witness quorum (`f+1`) agrees on that root.
    fn begin_recovery(&mut self, ctx: &mut Context<'_, Packet>) {
        ctx.count(Counter::RecoveriesStarted);
        ctx.trace(
            SpanEdge::Open,
            TracePhase::Recovery,
            TraceMeta {
                view: self.view,
                seq: self.checkpoints.stable_seq(),
                ..TraceMeta::default()
            },
        );
        self.refresh_keys(ctx);
        self.rollback_tentative();
        // Our state is suspect until the audit passes: no lease reads.
        self.with_leases(ctx, |l, _| l.drop_held());
        self.recovery.begin();
        let rc = Recover {
            replica: self.id,
            epoch: self.keys.chain.epoch(),
            done: false,
        };
        self.multicast(ctx, Msg::Recover(rc));
    }

    /// A peer announced the start (`done == false`) or end (`done ==
    /// true`) of its recovery. On start we grant it the in-recovery
    /// lease, adopt its fresh key epoch, and attest our stable checkpoint
    /// root point-to-point; on end we release the lease so the next
    /// staggered watchdog can fire.
    fn handle_recover(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, rc: Recover) {
        if rc.replica != from || from >= self.cfg.n() || from == self.id {
            return;
        }
        // No signature of its own: the fresh epoch was announced by the
        // signed NEW-KEY the recovering replica multicast an instant
        // earlier (already charged in `handle_new_key`); RECOVER just
        // repeats it so the race between the two messages is harmless,
        // and is MAC-authenticated under the fresh epoch like any packet.
        self.keys.chain.set_peer_epoch(from, rc.epoch);
        if rc.done {
            self.recovery.release_lease(from);
            return;
        }
        let now = ctx.now().nanos();
        self.recovery
            .grant_lease(from, now + self.cfg.recovery_lease_ns);
        let (seq, state_digest) = self.checkpoints.stable_proof();
        let ra = RecoverAttest {
            seq,
            state_digest,
            replica: self.id,
        };
        self.send_to(ctx, from, Msg::RecoverAttest(ra));
    }

    /// An attestation for our in-flight recovery. Once `f+1` peers vouch
    /// for the same (seq, root) — at least one of them honest — that root
    /// is trustworthy and the state audit can begin against it.
    fn handle_recover_attest(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        ra: RecoverAttest,
    ) {
        if ra.replica != from || from >= self.cfg.n() || from == self.id {
            return;
        }
        self.recovery.note_vote(from, ra.seq, ra.state_digest);
        if let Some((seq, digest)) = self.recovery.attested(&self.cfg.quorums) {
            self.complete_attested_recovery(ctx, seq, digest);
        }
    }

    /// A witness quorum agreed on a stable checkpoint root: discard every
    /// piece of protocol state above it (all of it is suspect) and audit
    /// our service state against the attested root. If our own copy of
    /// that checkpoint carries the attested root, restoring it *is* the
    /// audit — `restore_own_checkpoint` verifies every partition against
    /// the leaves before applying it. Otherwise we run the partial
    /// state-transfer path, whose STATE-META diff recomputes each live
    /// partition digest and fetches only the mismatches.
    fn complete_attested_recovery(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        seq: SeqNum,
        digest: Digest,
    ) {
        // Our recorded stable certificate required 2f+1 claims (≥ f+1
        // honest), so if it is newer than what the attestation quorum
        // agreed on, prefer it — regressing the log window would only add
        // churn for the same guarantee.
        let (seq, digest) = {
            let own = self.checkpoints.stable_proof();
            if own.0 > seq {
                own
            } else {
                (seq, digest)
            }
        };
        // The "reboot": restart the window at the attested checkpoint but
        // keep every slot above it that accepted a pre-prepare, with its
        // certificates. Recovery must not forget certificate state — in
        // either direction. A batch *we* executed with a commit
        // certificate is client-visible finality; dropping it and
        // re-fetching "eventually" loses the race against a concurrent
        // view change (sequential recoveries can erase every honest copy
        // of an un-checkpointed commit, and the new primary then legally
        // re-orders those sequence numbers). And a batch we merely
        // *prepared* may be the certificate protecting someone ELSE's
        // commit: PBFT's commit safety counts on every honest preparer
        // reporting its prepared certificate in the next view change —
        // recoveries that drop prepared-but-uncommitted slots let a view
        // change quorum legally re-order a sequence number a partitioned
        // peer already finalized. Both were found as agreement violations
        // by the lease chaos family, whose read-mostly traffic leaves
        // commits un-checkpointed for long stretches. Retained batch
        // bodies are digest-verified (corrupt bodies are stripped and
        // re-fetched); the finalized suffix is replayed onto the audited
        // checkpoint state below.
        self.rollback_tentative();
        self.log.reset_keep_certs(seq);
        self.pending_batch.clear();
        self.pending_batch_len = 0;
        self.queued.clear();
        // `pending_requests` survives the reboot: it holds bare client
        // identities (no protocol state to distrust), and it is what the
        // view-change timer checks at expiry. Clearing it every recovery
        // would leave the timer with an empty set whenever the client's
        // retransmission backoff outpaces the recovery interval, silently
        // vetoing every view change. Execution prunes it as usual.
        self.piggy_queue.clear();
        if let Some(t) = self.piggy_timer.take() {
            ctx.cancel_timer(t);
        }
        // Deliberately NOT touched: the view-change timer, `in_view_change`
        // and `pending_view`. The timer measures how long the oldest
        // outstanding client work has been stuck, and an in-flight view
        // change is the cluster's joint escape hatch from a dead primary;
        // recovery churn must not silence the one or abort the other.
        // With a short recovery interval, resetting them here would
        // restart the countdown (or cancel the round) on every rejoin,
        // and a view whose new primary is crashed could never be skipped.
        if !self.in_view_change {
            // Rejoin with a fresh view-change timeout: pre-recovery
            // doubling reflected pre-recovery suspicion. Mid-view-change
            // the doubled value stays — it is what paces the next round.
            self.vc_timeout_ns = self.cfg.view_change_timeout_ns;
        }
        self.waiting_ro.clear();
        // The audit may replace the state a lease covered; a fresh grant
        // re-establishes serving.
        self.with_leases(ctx, |l, _| l.drop_held());
        self.fetching = None;
        self.backfill.clear();
        self.tentative_ops = 0;
        self.tentative_cache_undo.clear();
        // Do NOT reset next_seq: a recovering primary must never reuse a
        // sequence number it may already have assigned in this view.
        self.recovery.start_audit(seq);
        let own_matches = self
            .checkpoints
            .own(seq)
            .is_some_and(|own| CheckpointTracker::root_of(&own.leaves) == digest);
        if own_matches && self.restore_own_checkpoint(seq) {
            // Every partition verified against the attested root locally.
            // Execution restarts from the restored checkpoint; the
            // retained finalized suffix re-executes below (stale markers
            // would wedge the loop), rebuilding the exact pre-recovery
            // prefix on provably clean state.
            self.log.clear_executed_above(seq);
            self.last_executed = seq;
            self.last_final = seq;
            self.next_seq = self.next_seq.max(seq);
            self.checkpoints.mark_announced(seq);
            self.checkpoints.make_stable(seq, digest);
            self.service.release_checkpoints_below(seq);
            self.complete_recovery(ctx, seq, digest);
            self.try_execute(ctx);
        } else {
            // Local copy is missing, stale, or corrupt: audit against the
            // group. Only mismatched partitions cross the network.
            ctx.count(Counter::RecoveryAuditRefetch);
            let target = (self.id + 1) % self.cfg.n();
            self.fetching = Some(StateFetch::new(seq, digest, target));
            ctx.trace(
                SpanEdge::Open,
                TracePhase::StateTransfer,
                TraceMeta {
                    view: self.view,
                    seq,
                    ..TraceMeta::default()
                },
            );
            self.send_to(ctx, target, Msg::FetchState(FetchState { seq }));
        }
    }

    /// The audit passed: our state provably matches the attested root.
    /// Announce completion so peers release the in-recovery lease, and
    /// gossip status so they backfill what committed while we recovered.
    fn complete_recovery(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum, digest: Digest) {
        ctx.count(Counter::Recoveries);
        self.recovery.finish();
        self.audit.note_recovery(seq, digest, ctx.now().nanos());
        ctx.trace(
            SpanEdge::Close,
            TracePhase::Recovery,
            TraceMeta {
                view: self.view,
                seq,
                ..TraceMeta::default()
            },
        );
        let rc = Recover {
            replica: self.id,
            epoch: self.keys.chain.epoch(),
            done: true,
        };
        self.multicast(ctx, Msg::Recover(rc));
        let status = Status {
            view: self.view,
            last_stable: self.checkpoints.stable_seq(),
            last_executed: self.last_executed,
        };
        self.multicast(ctx, Msg::Status(status));
    }

    fn on_resend_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        // A recovery stuck waiting for attestations (lost announcement or
        // a partitioned quorum) would stall forever without this: peers
        // attest once per RECOVER received, so re-announce.
        if matches!(
            self.recovery.stage(),
            RecoveryStage::AwaitingAttestation { .. }
        ) {
            let rc = Recover {
                replica: self.id,
                epoch: self.keys.chain.epoch(),
                done: false,
            };
            self.multicast(ctx, Msg::Recover(rc));
        }
        if self.in_view_change {
            return;
        }
        // Retransmit protocol messages for stalled slots.
        let q = self.cfg.quorums;
        let stalled: Vec<(SeqNum, Digest, bool, bool)> = self
            .log
            .iter()
            .filter(|(_, slot)| slot.digest.is_some() && !slot.committed(&q))
            .take(32)
            .map(|(seq, slot)| {
                (
                    seq,
                    slot.digest.expect("filtered"),
                    slot.prepare_sent,
                    slot.commit_sent,
                )
            })
            .collect();
        for (seq, d, prepare_sent, commit_sent) in stalled {
            if self.is_primary() {
                if let Some(slot) = self.log.slot(seq) {
                    let inline = |req: &Request| Self::travels_inline(&self.cfg, req);
                    if let Some(entries) = slot.wire_entries(inline) {
                        let pp = PrePrepare {
                            view: self.view,
                            seq,
                            entries,
                            batch_digest: d,
                            piggy_commits: Vec::new(),
                        };
                        self.multicast(ctx, Msg::PrePrepare(pp));
                    }
                }
            } else if prepare_sent {
                let prep = Prepare {
                    view: self.view,
                    seq,
                    batch_digest: d,
                    replica: self.id,
                    piggy_commits: Vec::new(),
                };
                self.multicast(ctx, Msg::Prepare(prep));
            }
            if commit_sent {
                let c = Commit {
                    view: self.view,
                    seq,
                    batch_digest: d,
                    replica: self.id,
                };
                self.multicast(ctx, Msg::Commit(c));
            }
        }
        // Recover request bodies that were lost on the wire: without them
        // prepared batches can commit but never execute. Only the first
        // blocked slot matters (execution is sequential), and flooding
        // fetches would amplify the very overload that lost the bodies.
        let blocked: Option<SeqNum> = self
            .log
            .iter()
            .find(|&(seq, slot)| {
                slot.digest.is_some() && !slot.executable() && seq > self.last_executed
            })
            .map(|(seq, _)| seq);
        if let Some(seq) = blocked {
            self.recover_bodies(ctx, seq);
        }
        // Re-announce our stable checkpoint so replicas that were cut off
        // discover they are behind even when the system is otherwise idle
        // (this stands in for BFT's periodic status messages).
        let stable = self.checkpoints.stable_seq();
        if stable > 0 {
            let cp = Checkpoint {
                seq: stable,
                state_digest: self.checkpoints.stable_digest(),
                replica: self.id,
            };
            self.multicast(ctx, Msg::Checkpoint(cp));
        }
        // Gossip status so peers can backfill what we are missing (and we
        // can backfill them).
        let status = Status {
            view: self.view,
            last_stable: self.checkpoints.stable_seq(),
            last_executed: self.last_executed,
        };
        self.multicast(ctx, Msg::Status(status));
        // Keep state transfer alive: rotate the target and re-send the
        // current phase's request.
        if self.fetching.is_some() {
            self.retry_state_transfer(ctx);
        }
    }

    /// One-shot fast-path fallback timer fired for `seq`. Stale firings
    /// (the slot fast-committed, fell back already, or the view changed
    /// and cleared its fast state) are no-ops.
    fn on_fastpath_timer(&mut self, ctx: &mut Context<'_, Packet>, seq: SeqNum) {
        if self.in_view_change || !self.log.in_window(seq) {
            return;
        }
        let waiting = self
            .log
            .slot(seq)
            .is_some_and(|slot| slot.fast_wait && !slot.fast_committed && !slot.commit_sent);
        if waiting {
            ctx.count(Counter::FastTimeouts);
            self.fall_back_to_classic(ctx, seq);
        }
    }

    fn flush_piggy(&mut self, ctx: &mut Context<'_, Packet>) {
        self.piggy_timer = None;
        let queue = std::mem::take(&mut self.piggy_queue);
        for (seq, d) in queue {
            let c = Commit {
                view: self.view,
                seq,
                batch_digest: d,
                replica: self.id,
            };
            self.multicast(ctx, Msg::Commit(c));
        }
    }
}

fn tamper(result: &mut Vec<u8>) {
    if result.is_empty() {
        result.push(0xde);
    } else {
        result[0] ^= 0xff;
    }
}

impl<S: Service> Node<Packet> for Replica<S> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        assert_eq!(
            ctx.id(),
            self.id,
            "replica must be registered at node id == replica id"
        );
        ctx.set_timer(self.cfg.resend_interval_ns, TIMER_RESEND);
        if self.cfg.key_refresh_interval_ns > 0 {
            ctx.set_timer(self.cfg.key_refresh_interval_ns, TIMER_KEY_REFRESH);
        }
        if self.cfg.proactive_recovery_interval_ns > 0 {
            // Stagger recoveries so at most one replica reboots at a time
            // (the paper's proactive recovery does the same).
            let first = self.cfg.proactive_recovery_interval_ns / self.cfg.n() as u64
                * (self.id as u64 + 1);
            ctx.set_timer(first, TIMER_RECOVERY);
        }
        self.arm_lease_tick(ctx);
        let grant = self.with_leases(ctx, Leases::regrant);
        self.multicast_grant(ctx, grant);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        packet: Packet,
        wire: usize,
    ) {
        if self.behavior == Behavior::Crashed {
            return;
        }
        ctx.charge_kind(CostKind::Net, self.cfg.cost.recv(wire));
        ctx.count_received(packet.body.tag());
        if !self.verify_packet(ctx, from, &packet) {
            ctx.count(Counter::BadPacketAuth);
            return;
        }
        match packet.body {
            Msg::Request(req) => {
                if self.handle_request(ctx, req) && !self.unresolved.is_empty() {
                    self.resolve_pending_batches(ctx);
                }
            }
            Msg::PrePrepare(pp) => self.handle_pre_prepare(ctx, from, pp),
            Msg::Prepare(p) => self.handle_prepare(ctx, from, p),
            Msg::Commit(c) => self.handle_commit(ctx, from, c),
            Msg::Checkpoint(cp) => self.handle_checkpoint(ctx, from, cp),
            Msg::ViewChange(vc) => self.handle_view_change(ctx, from, vc),
            Msg::NewView(nv) => self.handle_new_view(ctx, from, nv),
            Msg::FetchState(fs) => self.handle_fetch_state(ctx, from, fs),
            Msg::StateMeta(sm) => self.handle_state_meta(ctx, sm),
            Msg::FetchParts(fp) => self.handle_fetch_parts(ctx, from, fp),
            Msg::PartData(pd) => self.handle_part_data(ctx, pd),
            Msg::FetchBatch(fb) => self.handle_fetch_batch(ctx, from, fb),
            Msg::BatchData(bd) => self.handle_batch_data(ctx, bd),
            Msg::FetchRequests(fr) => self.handle_fetch_requests(ctx, from, fr),
            Msg::RequestData(rd) => self.handle_request_data(ctx, rd),
            Msg::Status(st) => self.handle_status(ctx, from, st),
            Msg::CommittedBatch(cb) => self.handle_committed_batch(ctx, from, cb),
            Msg::NewKey(nk) => self.handle_new_key(ctx, from, nk),
            Msg::Recover(rc) => self.handle_recover(ctx, from, rc),
            Msg::RecoverAttest(ra) => self.handle_recover_attest(ctx, from, ra),
            Msg::Lease(l) => self.handle_lease(ctx, from, l),
            Msg::LeaseRenew(lr) => self.handle_lease_renew(ctx, from, lr),
            Msg::LeaseRevoke(rv) => self.handle_lease_revoke(ctx, from, rv),
            Msg::Busy(_) => { /* replica-to-client pushback; replicas ignore it */ }
            Msg::Reply(_) => { /* replicas do not consume replies */ }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        if self.behavior == Behavior::Crashed {
            // A crash may be followed by a chaos-plan restart, so the
            // recurring timers must stay armed (doing no work), and
            // one-shot timer handles must be cleared — the fired timer's
            // id is consumed, and a stale `Some` would block re-arming
            // after the restart.
            match token {
                TIMER_RESEND => {
                    ctx.set_timer(self.cfg.resend_interval_ns, TIMER_RESEND);
                }
                TIMER_KEY_REFRESH => {
                    ctx.set_timer(self.cfg.key_refresh_interval_ns, TIMER_KEY_REFRESH);
                }
                TIMER_RECOVERY => {
                    ctx.set_timer(self.cfg.proactive_recovery_interval_ns, TIMER_RECOVERY);
                }
                TIMER_LEASE => self.arm_lease_tick(ctx),
                TIMER_VIEW_CHANGE => {
                    self.vc_timer = None;
                }
                TIMER_PIGGY => {
                    self.piggy_timer = None;
                    self.piggy_queue.clear();
                }
                _ => {}
            }
            return;
        }
        match token {
            TIMER_RESEND => {
                self.on_resend_timer(ctx);
                ctx.set_timer(self.cfg.resend_interval_ns, TIMER_RESEND);
            }
            TIMER_VIEW_CHANGE => {
                self.vc_timer = None;
                if self.in_view_change {
                    // The new primary never produced a valid NEW-VIEW.
                    let next = self.pending_view + 1;
                    self.start_view_change(ctx, next);
                } else if !self.pending_requests.is_empty() {
                    let next = self.view + 1;
                    self.start_view_change(ctx, next);
                }
            }
            TIMER_PIGGY => self.flush_piggy(ctx),
            TIMER_KEY_REFRESH => {
                self.refresh_keys(ctx);
                ctx.set_timer(self.cfg.key_refresh_interval_ns, TIMER_KEY_REFRESH);
            }
            TIMER_RECOVERY => self.on_recovery_timer(ctx),
            TIMER_LEASE => {
                self.on_lease_timer(ctx);
                self.arm_lease_tick(ctx);
            }
            t if t >= TIMER_FASTPATH_BASE => {
                self.on_fastpath_timer(ctx, t - TIMER_FASTPATH_BASE);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<S: Service> std::fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("last_executed", &self.last_executed)
            .field("last_final", &self.last_final)
            .field("stable", &self.checkpoints.stable_seq())
            .field("in_view_change", &self.in_view_change)
            .field("next_seq", &self.next_seq)
            .field("pending_batch", &self.pending_batch_len)
            .field("queued", &self.queued.len())
            .field("pending_reqs", &self.pending_requests.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientApi, ClientDriver};
    use crate::cluster::Cluster;
    use crate::service::CounterService;
    use bft_sim::NetConfig;

    fn cluster() -> Cluster {
        Cluster::builder(Config::new(1))
            .seed(15)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter()
    }

    /// A request exactly as client `client` would authenticate it.
    fn signed_request(client: ClientId, n: u32, timestamp: Timestamp, op: Vec<u8>) -> Request {
        let req = Request {
            client,
            timestamp,
            op,
            read_only: false,
            replier: REPLIER_ALL,
            auth: AuthTag::None,
        };
        let auth = KeyChain::new(client, n).authenticate(req.digest().as_bytes());
        Request {
            auth: AuthTag::Vector(auth),
            ..req
        }
    }

    fn inject_everywhere(c: &mut Cluster, from: NodeId, body: &Msg) {
        for r in 0..c.cfg.n() {
            let packet = Packet::unauthenticated(body.clone());
            let wire = packet.wire_bytes();
            c.sim.inject(r, from, packet, wire);
        }
        c.run_for(dur::millis(10));
    }

    fn stores_are_empty(c: &Cluster) -> bool {
        (0..c.cfg.n()).all(|r| c.replica::<CounterService>(r).bodies.len() == 0)
    }

    /// The simulator hands a receiver the sender's typed `Packet`, so a
    /// receiver that trusted anything but the bytes in front of it would
    /// accept this: the authenticator is the client's own, over the
    /// digest of the op *before* it was altered.
    #[test]
    fn request_altered_after_authentication_is_dropped_everywhere() {
        for len in [1usize, 4096] {
            let mut c = cluster();
            let n = c.cfg.n();
            let mut req = signed_request(n, n, 1, vec![0; len]);
            req.op[len - 1] ^= 1;
            inject_everywhere(&mut c, n, &Msg::Request(req));
            assert_eq!(
                c.sim.health().total(Counter::BadRequestAuth),
                u64::from(n),
                "op of {len} bytes"
            );
            assert_eq!(c.sim.health().total(Counter::BadPacketAuth), 0);
            assert!(stores_are_empty(&c));
        }
    }

    /// Only a `Request` may arrive without packet authentication — not
    /// even a body that merely carries a well-authenticated request.
    #[test]
    fn unauthenticated_non_request_bodies_are_dropped() {
        let mut c = cluster();
        let n = c.cfg.n();
        let carried = signed_request(n, n, 1, vec![0, 1]);
        let bodies = [
            Msg::RequestData(RequestData {
                requests: vec![carried.clone()],
            }),
            Msg::BatchData(BatchData {
                seq: 1,
                entries: vec![BatchEntry::Full(carried)],
            }),
            Msg::Commit(Commit {
                view: 0,
                seq: 1,
                batch_digest: NULL_DIGEST,
                replica: 1,
            }),
            Msg::FetchRequests(FetchRequests {
                digests: vec![NULL_DIGEST],
            }),
        ];
        for body in &bodies {
            inject_everywhere(&mut c, 1, body);
        }
        assert_eq!(
            c.sim.health().total(Counter::BadPacketAuth),
            u64::from(n) * bodies.len() as u64
        );
        assert!(stores_are_empty(&c));
    }

    /// Delivers `body` to replica `to` as node `from` sends it: under
    /// `from`'s own keys, so the packet MAC verifies.
    fn forge(c: &mut Cluster, from: NodeId, to: ReplicaId, body: Msg) {
        let n = c.cfg.n();
        let auth = PacketKeys::new(KeyChain::new(from, n)).seal_multicast(&body);
        let packet = Packet { body, auth };
        let wire = packet.wire_bytes();
        c.sim.inject(to, from, packet, wire);
        c.run_for(dur::millis(1));
    }

    /// A Byzantine backup (3) claims a checkpoint under every replica's
    /// id, and a client under its own. Replica 1 holds that checkpoint,
    /// so 2f+1 claims for it would make it stable and garbage-collect
    /// the log below it — with only one replica's word behind it.
    #[test]
    fn checkpoint_claims_under_another_id_do_not_make_it_stable() {
        let mut c = cluster();
        let n = c.cfg.n();
        let seq = c.cfg.checkpoint_interval;
        let own = {
            let rep = c.replica_mut::<CounterService>(1);
            let own = rep.checkpoints.own(0).expect("genesis").clone();
            rep.checkpoints.note_own(seq, own.clone());
            own
        };
        let claim = |replica| {
            Msg::Checkpoint(Checkpoint {
                seq,
                state_digest: own.digest,
                replica,
            })
        };
        for replica in 0..n {
            forge(&mut c, 3, 1, claim(replica));
        }
        forge(&mut c, n, 1, claim(n));
        assert_eq!(replica(&c, 1).stable_checkpoint(), 0, "one replica's word");
        assert_eq!(c.sim.health().total(Counter::SpoofedSender), 4);
    }

    /// A client's packet MAC verifies at a replica, so a `Prepare` it
    /// sends under its own id passes a bare `replica == from` check. It
    /// must still not count as a backup's vote.
    #[test]
    fn a_client_prepare_does_not_make_a_slot_prepared() {
        let mut c = cluster();
        let n = c.cfg.n();
        let d = signed_request(n, n, 1, big_add()).digest();
        let entries = vec![BatchEntry::Ref {
            client: n,
            timestamp: 1,
            digest: d,
        }];
        let batch_digest = batch_digest_of([&d]);
        let pp = PrePrepare {
            view: 0,
            seq: 1,
            entries,
            batch_digest,
            piggy_commits: Vec::new(),
        };
        forge(&mut c, 0, 1, Msg::PrePrepare(pp));
        let slot = replica(&c, 1).log.slot(1).expect("accepted");
        assert_eq!(slot.prepares.len(), 1, "its own prepare");
        let prep = Prepare {
            view: 0,
            seq: 1,
            batch_digest,
            replica: n,
            piggy_commits: Vec::new(),
        };
        forge(&mut c, n, 1, Msg::Prepare(prep));
        let q = c.cfg.quorums;
        let slot = replica(&c, 1).log.slot(1).expect("accepted");
        assert!(!slot.prepared(&q), "a client is not a backup");
        assert_eq!(c.sim.health().total(Counter::SpoofedSender), 1);
    }

    /// Submits one empty op (inlined in the pre-prepare), then one 4 KiB
    /// op (separately transmitted, so the pre-prepare carries its digest).
    struct TwoSizes {
        big_sent: bool,
    }

    impl ClientDriver for TwoSizes {
        fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
            api.submit(Vec::new(), false);
        }
        fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
            if !std::mem::replace(&mut self.big_sent, true) {
                api.submit(vec![2; 4096], false);
            }
        }
    }

    /// The digest a node carries alongside a request — the table's key,
    /// the slot's reference, the `Ref` entry the primary proposes — is
    /// threaded, not recomputed at each use; it must still be the
    /// request's digest. And the slot and the table share one body.
    #[test]
    fn threaded_digests_equal_the_digest_recomputed_from_scratch() {
        let mut c = cluster();
        let client = c.add_client(TwoSizes { big_sent: false });
        c.run_for(dur::millis(200));
        assert_eq!(c.completed_ops(), 2);
        for r in 0..c.cfg.n() {
            let replica = c.replica::<CounterService>(r);
            assert_eq!(replica.bodies.len(), 2, "replica {r}");
            let mut sizes = Vec::new();
            let mut by_ref = Vec::new();
            for (_, slot) in replica.log.iter() {
                let (entries, requests) = (
                    slot.entries.as_ref().expect("ordered"),
                    slot.requests.as_ref().expect("resolved"),
                );
                for (e, req) in entries.iter().zip(requests) {
                    assert_eq!(e.digest, req.digest(), "replica {r}: slot reference");
                    assert_eq!((e.client, e.timestamp), (client, req.timestamp));
                    let tabled = replica.bodies.get(&e.digest).expect("held");
                    assert!(Arc::ptr_eq(tabled, req), "replica {r}: one body, shared");
                    sizes.push(req.op.len());
                }
                let wire = slot
                    .wire_entries(|req| Replica::<CounterService>::travels_inline(&c.cfg, req))
                    .expect("resolved");
                by_ref.extend(wire.iter().filter_map(|e| match e {
                    BatchEntry::Ref { digest, .. } => Some(*digest),
                    BatchEntry::Full(_) => None,
                }));
            }
            assert_eq!(sizes, [0, 4096], "replica {r}: one inline, one by digest");
            assert_eq!(by_ref.len(), 1, "replica {r}: one inline, one by digest");
            let body = replica.bodies.get(&by_ref[0]).expect("held");
            assert_eq!(body.op.len(), 4096);
        }
    }

    /// Checkpoint every 8 slots, a 16-slot window, two requests a batch:
    /// small enough that a short run crosses many stable checkpoints.
    fn small_window() -> Config {
        let mut cfg = Config::new(1);
        cfg.checkpoint_interval = 8;
        cfg.log_window = 16;
        cfg.max_batch_requests = 2;
        cfg
    }

    /// What [`small_window`] lets a replica retain: the loose FIFO plus
    /// one window of full batches held by slots.
    fn body_bound(cfg: &Config) -> usize {
        2 * cfg.log_window as usize * cfg.max_batch_requests
    }

    /// `add(1)` padded to 4 KiB, so it travels by separate transmission.
    fn big_add() -> Vec<u8> {
        let mut op = vec![0u8; 4096];
        op[1] = 1;
        op
    }

    /// Closed loop of `left` 4 KiB adds.
    struct BigAdds {
        left: u32,
    }

    impl ClientDriver for BigAdds {
        fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
            api.submit(big_add(), false);
        }
        fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
            self.left -= 1;
            if self.left > 0 {
                api.submit(big_add(), false);
            }
        }
    }

    fn replica(c: &Cluster, r: ReplicaId) -> &Replica<CounterService> {
        c.replica::<CounterService>(r)
    }

    /// Runs in 1 ms steps until `done` holds (at most `limit_ms`).
    fn run_until(c: &mut Cluster, limit_ms: u64, done: impl Fn(&Cluster) -> bool) {
        for _ in 0..limit_ms {
            if done(c) {
                return;
            }
            c.run_for(dur::millis(1));
        }
        panic!("condition not reached in {limit_ms} ms");
    }

    /// Every batch a live slot accepted has its bodies, and what the
    /// replica retains is within the configured bound.
    fn assert_resolved_and_bounded(c: &Cluster, replicas: std::ops::Range<ReplicaId>) {
        for r in replicas {
            let rep = replica(c, r);
            for (seq, slot) in rep.log.iter() {
                assert!(
                    slot.digest.is_none() || slot.executable(),
                    "replica {r}: slot {seq} still waits for a body"
                );
            }
            assert!(
                rep.bodies.len() <= body_bound(&c.cfg),
                "replica {r} retains {} bodies",
                rep.bodies.len()
            );
        }
    }

    /// The parent commit decided whether a REQUEST may complete a
    /// waiting batch by comparing the store's length before and after:
    /// at its cap an insert evicts, the length stands still, and the
    /// batch waited for the 20 ms body-recovery detour.
    #[test]
    fn a_body_after_its_pre_prepare_resolves_it_even_with_the_table_at_its_cap() {
        let mut cfg = small_window();
        cfg.max_batch_requests = 1;
        let cap = cfg.log_window as usize;
        let mut c = Cluster::builder(cfg)
            .seed(15)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        let n = c.cfg.n();
        let to_backup = |c: &mut Cluster, from: NodeId, packet: Packet| {
            let wire = packet.wire_bytes();
            c.sim.inject(1, from, packet, wire);
            c.run_for(dur::millis(1));
        };
        // Fill backup 1's loose table to its cap.
        for ts in 1..=cap as u64 {
            let filler = signed_request(n, n, ts, vec![0, ts as u8]);
            to_backup(&mut c, n, Packet::unauthenticated(Msg::Request(filler)));
        }
        let bounds = replica(&c, 1).queue_bounds();
        assert_eq!(bounds[0], ("request_store", cap, cap));
        // The primary's pre-prepare names a 4 KiB body by digest...
        let body = signed_request(n, n, cap as u64 + 1, big_add());
        let d = body.digest();
        let pp = Msg::PrePrepare(PrePrepare {
            view: 0,
            seq: 1,
            entries: vec![BatchEntry::Ref {
                client: n,
                timestamp: body.timestamp,
                digest: d,
            }],
            batch_digest: batch_digest_of([&d]),
            piggy_commits: Vec::new(),
        });
        let auth = PacketKeys::new(KeyChain::new(0, n)).seal_multicast(&pp);
        let pp = Packet { body: pp, auth };
        to_backup(&mut c, 0, pp);
        let slot = replica(&c, 1).log.slot(1).expect("accepted");
        assert!(slot.prepare_sent && slot.requests.is_none());
        assert!(replica(&c, 1).unresolved.contains(&1));
        // ...and the body arrives after it: resolved in that very event.
        to_backup(&mut c, n, Packet::unauthenticated(Msg::Request(body)));
        let rep = replica(&c, 1);
        let slot = rep.log.slot(1).expect("accepted");
        assert_eq!(slot.requests.as_ref().map(Vec::len), Some(1));
        assert!(rep.unresolved.is_empty());
        assert_eq!(rep.queue_bounds()[0], ("request_store", cap - 1, cap));
        assert_eq!(c.sim.health().total(Counter::BodyRecoveries), 1);
    }

    /// A body every backup stored but no primary ever ordered: the new
    /// view finds it through the pending-request index (the backups
    /// forward it, the new primary re-proposes it) and it runs once.
    #[test]
    fn a_never_ordered_body_survives_a_view_change_and_executes_once() {
        let mut c = cluster();
        c.replica_mut::<CounterService>(0)
            .set_behavior(Behavior::Crashed);
        c.add_client(BigAdds { left: 1 });
        c.run_for(dur::millis(100));
        for r in 1..4 {
            let rep = replica(&c, r);
            assert_eq!((rep.bodies.len(), rep.bodies.loose_len()), (1, 1));
            assert_eq!(rep.pending_requests.len(), 1, "replica {r}");
        }
        c.run_for(dur::secs(4));
        assert_eq!(c.completed_ops(), 1);
        assert_eq!(c.sim.health().total(Counter::OpsExecuted), 3);
        for r in 1..4 {
            let rep = replica(&c, r);
            assert_eq!((rep.view(), rep.service().value()), (1, 1), "replica {r}");
            assert_eq!(
                rep.bodies.loose_len(),
                0,
                "replica {r}: a slot holds it now"
            );
            assert!(rep.pending_requests.is_empty());
        }
    }

    /// Eviction fence (i): the primary dies right after a stable
    /// checkpoint released a stretch of bodies, so the VIEW-CHANGE
    /// messages and the NEW-VIEW straddle it.
    #[test]
    fn a_view_change_across_a_fresh_stable_checkpoint_resolves_every_batch() {
        let mut c = Cluster::builder(small_window())
            .seed(21)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        c.add_client(BigAdds { left: 40 });
        c.add_client(BigAdds { left: 40 });
        run_until(&mut c, 2_000, |c| replica(c, 1).stable_checkpoint() >= 8);
        assert!(replica(&c, 1).log.low() >= 8, "the checkpoint evicted");
        c.replica_mut::<CounterService>(0)
            .set_behavior(Behavior::Crashed);
        run_until(&mut c, 20_000, |c| c.completed_ops() == 80);
        c.run_for(dur::secs(1));
        assert!(c.sim.health().total(Counter::ViewsInstalled) >= 3);
        assert_resolved_and_bounded(&c, 1..4);
        let reference = replica(&c, 1).stable_proof();
        assert!(reference.0 >= 32, "stable at {}", reference.0);
        for r in 2..4 {
            assert_eq!(replica(&c, r).stable_proof(), reference, "replica {r}");
            assert_eq!(replica(&c, r).service().value(), 80);
        }
    }

    /// Eviction fence (ii): a replica that was down while its peers
    /// ordered, executed and released two checkpoint intervals of 4 KiB
    /// operations cannot fetch those bodies from anyone — it must come
    /// back by state transfer, and then keep up.
    #[test]
    fn a_lagging_replica_state_transfers_past_released_bodies() {
        let mut c = Cluster::builder(small_window())
            .seed(22)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        c.replica_mut::<CounterService>(3)
            .set_behavior(Behavior::Crashed);
        c.add_client(BigAdds { left: 60 });
        run_until(&mut c, 2_000, |c| replica(c, 0).stable_checkpoint() >= 16);
        c.replica_mut::<CounterService>(3)
            .set_behavior(Behavior::Correct);
        run_until(&mut c, 20_000, |c| c.completed_ops() == 60);
        c.run_for(dur::secs(1));
        assert!(c.sim.health().total(Counter::StateTransfers) >= 1);
        assert_resolved_and_bounded(&c, 0..4);
        let reference = replica(&c, 0).stable_proof();
        assert_eq!(reference.0, 56);
        for r in 1..4 {
            assert_eq!(replica(&c, r).stable_proof(), reference, "replica {r}");
        }
        assert_eq!(replica(&c, 3).service().value(), 60);
    }

    /// The other side of the fence: a replica that lags by *less* than a
    /// checkpoint interval is not sent to state transfer by the stable
    /// checkpoint alone, and the bodies it waits for went with its
    /// peers' slots. Replica 3 hears its peers but not the client, and
    /// nobody hears replica 3: it accepts every pre-prepare and can
    /// fetch nothing. Once the links heal the system is idle — nothing
    /// but its own body recovery can notice that only the checkpoint is
    /// left to fetch.
    #[test]
    fn a_replica_blocked_on_released_bodies_takes_the_checkpoint_instead() {
        let mut c = Cluster::builder(small_window())
            .seed(24)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        let client = c.add_client(BigAdds { left: 12 });
        c.sim.network_mut().partition_one_way(client, 3);
        for peer in 0..3 {
            c.sim.network_mut().partition_one_way(3, peer);
        }
        run_until(&mut c, 2_000, |c| c.completed_ops() == 12);
        assert_eq!(replica(&c, 0).stable_checkpoint(), 8);
        assert_eq!(replica(&c, 3).last_executed(), 0);
        assert!(replica(&c, 3).unresolved.contains(&1));
        c.sim.network_mut().heal();
        c.run_for(dur::secs(1));
        assert_eq!(c.sim.health().total(Counter::StateTransfers), 1);
        assert_resolved_and_bounded(&c, 0..4);
        let rep = replica(&c, 3);
        assert_eq!((rep.last_executed(), rep.service().value()), (12, 12));
        assert_eq!(rep.stable_proof(), replica(&c, 0).stable_proof());
    }

    /// Eviction fence (iii): what a node retains is a function of the
    /// configuration, not of how long it has been running. A hundred
    /// 4 KiB operations cross twelve stable checkpoints; at the parent
    /// commit every replica kept all hundred bodies and the client's
    /// audit all hundred operations.
    #[test]
    fn retention_does_not_grow_with_the_run() {
        let mut c = Cluster::builder(small_window())
            .seed(23)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        let client = c.add_client(BigAdds { left: 100 });
        run_until(&mut c, 20_000, |c| c.completed_ops() == 100);
        c.run_for(dur::millis(500));
        assert_resolved_and_bounded(&c, 0..4);
        for r in 0..4 {
            let rep = replica(&c, r);
            assert_eq!(rep.stable_checkpoint(), 96, "replica {r}");
            // Slots 97..=100 hold one body each; nothing is loose.
            assert_eq!((rep.bodies.len(), rep.bodies.loose_len()), (4, 0));
            let cap = c.cfg.log_window as usize * c.cfg.max_batch_requests;
            assert_eq!(rep.queue_bounds()[0], ("request_store", 0, cap));
        }
        let audit = c.client::<BigAdds>(client).audit_bytes();
        let one_event = std::mem::size_of::<crate::invariants::OpEvent>() + 4096;
        assert!(
            audit <= crate::invariants::AUDIT_BUDGET_BYTES + one_event,
            "client audit retains {audit} bytes"
        );
        assert!(audit > 0, "and is not simply off");
    }
}
