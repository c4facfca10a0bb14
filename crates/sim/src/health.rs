//! Observer-only cluster health: typed per-replica snapshots and the
//! simulation's one counter registry.
//!
//! Like [`crate::trace`] and [`crate::metrics`], this module is an
//! *observer*: protocol code writes into it through [`Context`]
//! accessors, but nothing here ever feeds back into protocol decisions
//! — the counters and snapshots can be reset or ignored without
//! changing a single simulated event. (The determinism lint exempts
//! this file for the same reason it exempts `trace.rs`/`metrics.rs`.)
//!
//! Two halves:
//!
//! - [`Counters`]: a per-node registry of messages sent/received by
//!   wire tag plus every protocol event the simulation counts
//!   ([`Counter`]) — completions, retransmissions, lease grants, view changes, recoveries, drops, and the Byzantine
//!   evidence replicas reject. It is the only counter store:
//!   [`crate::Metrics::counter`] reads it by dotted name. It is bumped
//!   from the hot paths via `Context::count_*` (the engine books its own
//!   drops directly), so it is exact (never sampled) and deterministic
//!   (a pure function of the run).
//! - [`HealthSnapshot`] / [`HealthReport`]: a point-in-time, typed
//!   view of one replica's externally observable state (view, role,
//!   execution/checkpoint watermarks, queue depths, lease and
//!   recovery status), and a cluster-level diff across replicas that
//!   flags laggards and view divergence. The chaos flight recorder
//!   appends a rendered report to failure output so a fuzz report
//!   says what state each node was wedged in, not just its last
//!   events.
//!
//! [`Context`]: crate::engine::Context

use crate::network::NodeId;
use std::fmt::Write as _;

/// Number of distinct wire tags ([`Counters`] arrays are indexed by
/// tag byte). `bft-core` asserts at compile time that this equals
/// `Msg::TAG_COUNT`.
pub const TAG_COUNT: usize = 25;

/// Human name for a wire tag byte — the one place message names live
/// (`Msg::kind()` in `bft-core` reads this table; this crate cannot
/// depend on that one). Unknown tags render as `"?"`.
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        0 => "request",
        1 => "pre-prepare",
        2 => "prepare",
        3 => "commit",
        4 => "reply",
        5 => "checkpoint",
        6 => "view-change",
        7 => "new-view",
        8 => "fetch-state",
        9 => "state-meta",
        10 => "fetch-batch",
        11 => "batch-data",
        12 => "fetch-requests",
        13 => "request-data",
        14 => "status",
        15 => "committed-batch",
        16 => "new-key",
        17 => "fetch-parts",
        18 => "part-data",
        19 => "recover",
        20 => "recover-attest",
        21 => "lease",
        22 => "lease-renew",
        23 => "lease-revoke",
        24 => "busy",
        _ => "?",
    }
}

/// Every event the simulation counts, tracked per node in [`Counters`].
///
/// One variant per event, bumped where the event happens and nowhere
/// else, so cross-checks against assembled traces are exact. Each
/// variant has one dotted name ([`Counter::name`]); the discriminant
/// indexes the per-node array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Packets the network dropped, booked on the sender.
    NetDropped,
    /// Deliveries dropped at a full input queue, booked on the receiver.
    CpuDropped,
    /// Client operations completed (a reply quorum accepted).
    OpsCompleted,
    /// Client request retransmissions.
    Retransmissions,
    /// Read-only quorum retries at the client.
    RoRetries,
    /// Read-only requests the retry timer sent to the ordered path.
    RoFallbacks,
    /// Read-only requests persistent BUSY sent to the ordered path.
    BusyRoFallbacks,
    /// Authenticated BUSY replies the client backed off on.
    BusyReceived,
    /// Client operations whose bounded retry budget ran out.
    RetryBudgetExhausted,
    /// Requests a flooding (Byzantine) client issued.
    FloodRequests,
    /// Outstanding operations a flooding client abandoned.
    FloodAbandoned,
    /// Operations a replica executed and replied to.
    OpsExecuted,
    /// Read-only requests executed without ordering.
    ReadOnlyExecs,
    /// Batches the primary pre-prepared.
    BatchesProposed,
    /// Never counted: every slot commits in three phases. Kept because
    /// the standalone benchmark reads it, as a share that is then 0.
    // bft-lint: allow(counter-coverage) -- read by the standalone benchmark, whose sources stay unedited until its next change
    FastCommits,
    /// Reads answered locally under a held lease.
    LeaseReads,
    /// Parked lease reads evicted (and answered BUSY) at the cap.
    LeaseReadsEvicted,
    /// Leases granted by the primary.
    LeaseGrants,
    /// Lease revocations initiated (write fencing).
    LeaseRevokes,
    /// Requests shed by replica admission control.
    RequestsShed,
    /// BUSY pushback messages sent to clients.
    BusySent,
    /// Read-only requests dropped while the replica recovers.
    RoDroppedInRecovery,
    /// Local checkpoints produced.
    CheckpointsMade,
    /// Simulated ns charged for checkpoint digests.
    CheckpointDigestNs,
    /// Stable checkpoints formed.
    StableCheckpoints,
    /// State transfers completed.
    StateTransfers,
    /// Partition payload bytes applied during state transfer.
    StateTransferBytes,
    /// Partitions a state transfer already held and skipped.
    StatePartsSkipped,
    /// Fetches of missing request bodies from a peer.
    BodyRecoveries,
    /// View changes started.
    ViewChanges,
    /// New-view retransmissions to straggling backups.
    NewViewRetransmits,
    /// New views installed.
    ViewsInstalled,
    /// Session-key refreshes.
    KeyRefreshes,
    /// Proactive recoveries started.
    RecoveriesStarted,
    /// Recovery audits that re-fetched state from the group.
    RecoveryAuditRefetch,
    /// Proactive recoveries completed.
    Recoveries,
    /// Evidence: a reply whose MAC failed at the client.
    BadReplyAuth,
    /// Evidence: a BUSY whose MAC failed at the client.
    BadBusyAuth,
    /// Evidence: a packet whose authenticator failed at a replica.
    BadPacketAuth,
    /// Evidence: a request whose client authenticator failed.
    BadRequestAuth,
    /// Evidence: a message claiming a replica other than its sender.
    SpoofedSender,
    /// Evidence: a second pre-prepare for a slot, with another digest.
    ConflictingPrePrepare,
    /// Evidence: a pre-prepare whose batch digest does not match.
    BadBatchDigest,
    /// Evidence: a new-view message that failed validation.
    BadNewView,
    /// Evidence: state-transfer metadata that failed validation.
    StateTransferBadMeta,
    /// Evidence: state-transfer data that failed its digest.
    StateTransferBadSnapshot,
}

impl Counter {
    /// Number of variants (sizes the per-node array). Counts up to the
    /// last variant, so a variant appended after it must move this.
    pub const COUNT: usize = Counter::StateTransferBadSnapshot as usize + 1;

    /// Dotted names, one row per variant in declaration order.
    pub(crate) const NAMES: [&'static str; Counter::COUNT] = [
        "net.dropped",
        "cpu.dropped",
        "client.ops_completed",
        "client.retransmissions",
        "client.ro_retries",
        "client.ro_fallbacks",
        "client.busy_ro_fallbacks",
        "client.busy_received",
        "client.retry_budget_exhausted",
        "client.flood_requests",
        "client.flood_abandoned",
        "replica.ops_executed",
        "replica.read_only_execs",
        "replica.batches_proposed",
        "replica.fast_commits",
        "replica.lease_reads",
        "replica.lease_reads_evicted",
        "replica.lease_grants",
        "replica.lease_revokes",
        "replica.requests_shed",
        "replica.busy_sent",
        "replica.ro_dropped_in_recovery",
        "replica.checkpoints_made",
        "replica.checkpoint_digest_ns",
        "replica.stable_checkpoints",
        "replica.state_transfers_completed",
        "replica.state_bytes_fetched",
        "replica.state_parts_skipped",
        "replica.body_recoveries",
        "replica.view_changes_started",
        "replica.new_view_retransmits",
        "replica.views_installed",
        "replica.key_refreshes",
        "replica.proactive_recoveries",
        "replica.recovery_audit_refetch",
        "replica.recoveries_completed",
        "client.bad_reply_auth",
        "client.bad_busy_auth",
        "replica.bad_packet_auth",
        "replica.bad_request_auth",
        "replica.spoofed_sender",
        "replica.conflicting_pre_prepare",
        "replica.bad_batch_digest",
        "replica.bad_new_view",
        "replica.state_transfer_bad_meta",
        "replica.state_transfer_bad_snapshot",
    ];

    /// The dotted name (`layer.event`): the key in `BENCH_*.json`'s
    /// `counters` block and what [`crate::Metrics::counter`] looks up.
    pub fn name(self) -> &'static str {
        Counter::NAMES[self as usize]
    }
}

/// One node's counters: messages by wire tag plus protocol events.
///
/// `sent` counts logical sends (a hardware multicast counts once, not
/// once per destination); `received` counts deliveries, so the two are
/// intentionally asymmetric under multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCounters {
    /// Logical sends by wire tag.
    pub sent: [u64; TAG_COUNT],
    /// Deliveries by wire tag.
    pub received: [u64; TAG_COUNT],
    /// Events, indexed by [`Counter`] discriminant.
    pub events: [u64; Counter::COUNT],
}

impl Default for NodeCounters {
    fn default() -> NodeCounters {
        NodeCounters {
            sent: [0; TAG_COUNT],
            received: [0; TAG_COUNT],
            events: [0; Counter::COUNT],
        }
    }
}

impl NodeCounters {
    /// Value of one event counter.
    pub fn event(&self, c: Counter) -> u64 {
        self.events[c as usize]
    }
}

/// The cluster-wide counter registry, one [`NodeCounters`] per node id.
///
/// Grows on demand (clients and replicas share the id space); nodes
/// that never counted anything read as all-zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters {
    nodes: Vec<NodeCounters>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Counters {
        Counters::default()
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeCounters {
        let idx = id as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, NodeCounters::default);
        }
        &mut self.nodes[idx]
    }

    /// Records one logical send of a message with wire tag `tag`.
    pub fn count_sent(&mut self, node: NodeId, tag: u8) {
        if (tag as usize) < TAG_COUNT {
            self.node_mut(node).sent[tag as usize] += 1;
        }
    }

    /// Records one delivery of a message with wire tag `tag`.
    pub fn count_received(&mut self, node: NodeId, tag: u8) {
        if (tag as usize) < TAG_COUNT {
            self.node_mut(node).received[tag as usize] += 1;
        }
    }

    /// Bumps an event counter by one.
    pub fn count(&mut self, node: NodeId, c: Counter) {
        self.count_add(node, c, 1);
    }

    /// Bumps an event counter by `delta` (byte counters).
    pub fn count_add(&mut self, node: NodeId, c: Counter, delta: u64) {
        self.node_mut(node).events[c as usize] += delta;
    }

    /// One node's counters (all-zero if the node never counted).
    pub fn node(&self, id: NodeId) -> NodeCounters {
        self.nodes.get(id as usize).cloned().unwrap_or_default()
    }

    /// Cluster-wide total for one event counter.
    pub fn total(&self, c: Counter) -> u64 {
        self.total_at(c as usize)
    }

    /// Cluster-wide total for the counter with discriminant `i`.
    pub(crate) fn total_at(&self, i: usize) -> u64 {
        self.nodes.iter().map(|n| n.events[i]).sum()
    }

    /// Cluster-wide sends by tag.
    pub fn sent_by_tag(&self) -> [u64; TAG_COUNT] {
        let mut out = [0u64; TAG_COUNT];
        for n in &self.nodes {
            for (o, s) in out.iter_mut().zip(n.sent.iter()) {
                *o += s;
            }
        }
        out
    }

    /// Cluster-wide deliveries by tag.
    pub fn received_by_tag(&self) -> [u64; TAG_COUNT] {
        let mut out = [0u64; TAG_COUNT];
        for n in &self.nodes {
            for (o, r) in out.iter_mut().zip(n.received.iter()) {
                *o += r;
            }
        }
        out
    }

    /// Clears everything (e.g. between warmup and measurement).
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Sorted `(name, total)` pairs for every nonzero tag and event
    /// counter — the flat map exported into `BENCH_*.json`.
    pub fn flattened(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let sent = self.sent_by_tag();
        let recv = self.received_by_tag();
        for tag in 0..TAG_COUNT {
            if sent[tag] > 0 {
                out.push((format!("sent.{}", tag_name(tag as u8)), sent[tag]));
            }
            if recv[tag] > 0 {
                out.push((format!("recv.{}", tag_name(tag as u8)), recv[tag]));
            }
        }
        for (i, name) in Counter::NAMES.iter().enumerate() {
            let v = self.total_at(i);
            if v > 0 {
                out.push((name.to_string(), v));
            }
        }
        out.sort();
        out
    }
}

/// A replica's protocol role at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Primary of its current view.
    Primary,
    /// Backup in its current view.
    Backup,
}

impl Role {
    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Backup => "backup",
        }
    }
}

/// A point-in-time, typed view of one replica's externally observable
/// state. Built by the protocol crate (`Replica::health_snapshot`);
/// `bft-sim` only defines the shape so observers and reports can be
/// shared across experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// The replica's node id.
    pub node: NodeId,
    /// Simulated time the snapshot was taken.
    pub at_ns: u64,
    /// Current view number.
    pub view: u64,
    /// Primary or backup in that view.
    pub role: Role,
    /// Mid view change (sent ViewChange, waiting for NewView).
    pub in_view_change: bool,
    /// Proactive recovery in progress.
    pub recovering: bool,
    /// State transfer (partition fetch) in flight.
    pub fetching_state: bool,
    /// Highest sequence executed (possibly tentatively).
    pub last_executed: u64,
    /// Highest sequence executed with finality.
    pub last_final: u64,
    /// Stable checkpoint sequence.
    pub last_stable: u64,
    /// Next sequence the primary would assign.
    pub next_seq: u64,
    /// Slots resident in the ordering log.
    pub log_slots: u64,
    /// Requests batched but not yet pre-prepared (primary).
    pub pending_batch: u64,
    /// Requests heard but not yet executed.
    pub pending_requests: u64,
    /// Read-only requests parked for missing tentative agreement.
    pub waiting_ro: u64,
    /// Reads parked waiting for a lease grant.
    pub waiting_lease_ro: u64,
    /// Holding a currently valid read lease.
    pub lease_held: bool,
    /// Lease expiry (ns), 0 when no lease is held.
    pub lease_expiry_ns: u64,
    /// Peak depth the ingest backlog (pending batch + pending
    /// requests) ever reached — the high-watermark admission control
    /// is judged against.
    pub backlog_high_watermark: u64,
}

impl HealthSnapshot {
    /// One-word wedge status, most severe condition first.
    pub fn status(&self) -> &'static str {
        if self.recovering {
            "recovering"
        } else if self.fetching_state {
            "state-transfer"
        } else if self.in_view_change {
            "view-change"
        } else {
            "ok"
        }
    }
}

/// How far behind the max `last_executed` a replica may be before the
/// report flags it as a laggard. One checkpoint interval of slack is
/// normal; a whole log window is not.
pub const LAG_THRESHOLD: u64 = 16;

/// A cluster-level diff across per-replica snapshots: who is behind,
/// who disagrees about the view, who is wedged mid-protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The snapshots the report was built from, in node order.
    pub snapshots: Vec<HealthSnapshot>,
    /// Highest view among the snapshots.
    pub max_view: u64,
    /// Highest `last_executed` among the snapshots.
    pub max_executed: u64,
    /// Nodes more than [`LAG_THRESHOLD`] behind `max_executed`.
    pub laggards: Vec<NodeId>,
    /// Not all replicas agree on the view.
    pub divergent_views: bool,
    /// Nodes whose status is not `"ok"`.
    pub wedged: Vec<NodeId>,
}

impl HealthReport {
    /// Diffs `snapshots` into a report.
    pub fn from_snapshots(snapshots: Vec<HealthSnapshot>) -> HealthReport {
        let max_view = snapshots.iter().map(|s| s.view).max().unwrap_or(0);
        let max_executed = snapshots.iter().map(|s| s.last_executed).max().unwrap_or(0);
        let laggards = snapshots
            .iter()
            .filter(|s| s.last_executed + LAG_THRESHOLD < max_executed)
            .map(|s| s.node)
            .collect();
        let divergent_views = snapshots.iter().any(|s| s.view != max_view);
        let wedged = snapshots
            .iter()
            .filter(|s| s.status() != "ok")
            .map(|s| s.node)
            .collect();
        HealthReport {
            snapshots,
            max_view,
            max_executed,
            laggards,
            divergent_views,
            wedged,
        }
    }

    /// No laggards, no divergence, nobody wedged.
    pub fn healthy(&self) -> bool {
        self.laggards.is_empty() && !self.divergent_views && self.wedged.is_empty()
    }

    /// Renders the per-replica table plus the diff summary — the block
    /// the chaos flight recorder appends to failure reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "node  view  role     status          exec   final  stable  next  log  pb/pr/ro/lro  backlog-hw  lease\n",
        );
        for s in &self.snapshots {
            let lease = if s.lease_held {
                format!("@{}us", s.lease_expiry_ns / 1_000)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:>4}  {:>4}  {:<7}  {:<14}  {:>5}  {:>5}  {:>6}  {:>4}  {:>3}  {:>2}/{}/{}/{}  {:>10}  {}",
                s.node,
                s.view,
                s.role.name(),
                s.status(),
                s.last_executed,
                s.last_final,
                s.last_stable,
                s.next_seq,
                s.log_slots,
                s.pending_batch,
                s.pending_requests,
                s.waiting_ro,
                s.waiting_lease_ro,
                s.backlog_high_watermark,
                lease,
            );
        }
        let _ = writeln!(
            out,
            "cluster: max_view={} max_executed={} laggards={:?} divergent_views={} wedged={:?}",
            self.max_view, self.max_executed, self.laggards, self.divergent_views, self.wedged,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(node: NodeId, view: u64, exec: u64) -> HealthSnapshot {
        HealthSnapshot {
            node,
            at_ns: 1_000,
            view,
            role: if view % 4 == u64::from(node) {
                Role::Primary
            } else {
                Role::Backup
            },
            in_view_change: false,
            recovering: false,
            fetching_state: false,
            last_executed: exec,
            last_final: exec,
            last_stable: exec / 8 * 8,
            next_seq: exec + 1,
            log_slots: 4,
            pending_batch: 0,
            pending_requests: 1,
            waiting_ro: 0,
            waiting_lease_ro: 0,
            lease_held: false,
            lease_expiry_ns: 0,
            backlog_high_watermark: 1,
        }
    }

    #[test]
    fn counters_count_and_total() {
        let mut c = Counters::new();
        c.count_sent(0, 1);
        c.count_sent(0, 1);
        c.count_received(2, 1);
        c.count(1, Counter::LeaseReads);
        c.count_add(1, Counter::StateTransferBytes, 4096);
        assert_eq!(c.node(0).sent[1], 2);
        assert_eq!(c.node(2).received[1], 1);
        assert_eq!(c.node(1).event(Counter::LeaseReads), 1);
        assert_eq!(c.total(Counter::StateTransferBytes), 4096);
        assert_eq!(c.sent_by_tag()[1], 2);
        // Unknown node ids read as zero; out-of-range tags are ignored.
        assert_eq!(c.node(99), NodeCounters::default());
        c.count_sent(0, 200);
        assert_eq!(c.node(0).sent.iter().sum::<u64>(), 2);
    }

    #[test]
    fn counters_flattened_is_sorted_and_nonzero_only() {
        let mut c = Counters::new();
        c.count_sent(0, 2);
        c.count_received(1, 2);
        c.count(0, Counter::LeaseReads);
        let flat = c.flattened();
        let names: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            vec!["recv.prepare", "replica.lease_reads", "sent.prepare"]
        );
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn counter_names_are_distinct_and_dotted() {
        let mut seen = std::collections::BTreeSet::new();
        for name in Counter::NAMES {
            let (layer, event) = name.split_once('.').expect("dotted");
            assert!(
                ["net", "cpu", "client", "replica"].contains(&layer),
                "{name}"
            );
            assert!(!event.is_empty() && !event.contains('.'), "{name}");
            assert!(seen.insert(name), "{name} named twice");
        }
        assert_eq!(
            Counter::StateTransferBadSnapshot.name(),
            "replica.state_transfer_bad_snapshot"
        );
        assert_eq!(Counter::BusyRoFallbacks.name(), "client.busy_ro_fallbacks");
    }

    #[test]
    fn report_flags_laggards_and_divergence() {
        let healthy = HealthReport::from_snapshots(vec![snap(0, 1, 100), snap(1, 1, 99)]);
        assert!(healthy.healthy(), "{healthy:?}");

        let mut behind = snap(2, 1, 100 - LAG_THRESHOLD - 1);
        behind.in_view_change = true;
        let report = HealthReport::from_snapshots(vec![snap(0, 1, 100), snap(1, 2, 100), behind]);
        assert_eq!(report.laggards, vec![2]);
        assert!(report.divergent_views);
        assert_eq!(report.wedged, vec![2]);
        assert!(!report.healthy());
        let rendered = report.render();
        assert!(rendered.contains("view-change"), "{rendered}");
        assert!(rendered.contains("divergent_views=true"), "{rendered}");
    }

    #[test]
    fn status_ranks_recovery_first() {
        let mut s = snap(0, 0, 5);
        assert_eq!(s.status(), "ok");
        s.in_view_change = true;
        assert_eq!(s.status(), "view-change");
        s.fetching_state = true;
        assert_eq!(s.status(), "state-transfer");
        s.recovering = true;
        assert_eq!(s.status(), "recovering");
    }

    #[test]
    fn tag_names_cover_every_tag() {
        for tag in 0..TAG_COUNT as u8 {
            assert_ne!(tag_name(tag), "?", "tag {tag} unnamed");
        }
        assert_eq!(tag_name(TAG_COUNT as u8), "?");
    }
}
