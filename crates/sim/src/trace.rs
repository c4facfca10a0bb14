//! Structured protocol tracing: typed span events in bounded per-node
//! ring buffers, with a per-request latency-breakdown assembler, a
//! Chrome-trace (Perfetto) JSON exporter, and a flight-recorder dump for
//! chaos failures.
//!
//! Tracing is off by default (capacity 0) and costs one branch per
//! would-be event. When enabled, protocol code emits [`TraceEvent`]s at
//! every request lifecycle edge — client-send → request-recv →
//! pre-prepare → prepare-quorum → commit-quorum → execute → reply-recv —
//! plus checkpoint, state-transfer, and view-change spans. Each node's
//! ring keeps only the most recent `capacity` events, so a multi-second
//! chaos run records a bounded tail: exactly what a flight recorder
//! wants.
//!
//! Independently of the rings, the sink accumulates per-node CPU time by
//! [`CostKind`] whenever the protocol charges tagged work. This is the
//! crypto-vs-protocol-vs-execution attribution behind the paper's
//! Table 2/3 decomposition, and it is cheap enough to stay on
//! unconditionally.

use std::collections::VecDeque;

use crate::network::NodeId;
use crate::time::format_duration;

/// What kind of lifecycle edge an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEdge {
    /// A span begins (Chrome `ph: "B"`).
    Open,
    /// A span ends (Chrome `ph: "E"`).
    Close,
    /// A point event (Chrome `ph: "i"`).
    Instant,
}

/// The protocol phase an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Client-side end-to-end span: submit → enough matching replies.
    Request,
    /// A replica accepted a client request (instant).
    RequestRecv,
    /// Ordering phase one: proposal (or acceptance) of a pre-prepare,
    /// closed when the prepared predicate first holds.
    PrePrepare,
    /// Ordering phase two: prepared → committed (the commit quorum; off
    /// the critical path under tentative execution).
    Commit,
    /// Committed batch execution.
    Execute,
    /// Tentative batch execution (before the commit quorum).
    ExecuteTentative,
    /// One request executed and its reply sent (instant; joins the
    /// client's request identity to a sequence number).
    ExecuteRequest,
    /// Checkpoint production.
    Checkpoint,
    /// Fetching a stable checkpoint from peers.
    StateTransfer,
    /// View change: started → new view installed.
    ViewChange,
    /// Proactive recovery: watchdog fired → state audited and rejoined.
    Recovery,
    /// A lease holder answered a read-only request locally (instant) —
    /// the round the read lease saved from the ordering path.
    LeaseRead,
}

impl TracePhase {
    /// Stable event name (Chrome trace `name` field).
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Request => "request",
            TracePhase::RequestRecv => "request-recv",
            TracePhase::PrePrepare => "pre-prepare",
            TracePhase::Commit => "commit",
            TracePhase::Execute => "execute",
            TracePhase::ExecuteTentative => "execute-tentative",
            TracePhase::ExecuteRequest => "execute-request",
            TracePhase::Checkpoint => "checkpoint",
            TracePhase::StateTransfer => "state-transfer",
            TracePhase::ViewChange => "view-change",
            TracePhase::Recovery => "recovery",
            TracePhase::LeaseRead => "lease-read",
        }
    }

    /// Coarse category (Chrome trace `cat` field).
    pub fn category(self) -> &'static str {
        match self {
            TracePhase::Request | TracePhase::RequestRecv | TracePhase::LeaseRead => "request",
            TracePhase::PrePrepare | TracePhase::Commit => "ordering",
            TracePhase::Execute | TracePhase::ExecuteTentative | TracePhase::ExecuteRequest => {
                "execution"
            }
            TracePhase::Checkpoint
            | TracePhase::StateTransfer
            | TracePhase::ViewChange
            | TracePhase::Recovery => "recovery",
        }
    }
}

/// What kind of work a CPU charge pays for (the paper's cost taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// MD5 digests (including partitioned state digests).
    Digest,
    /// MAC computation and verification (authenticators).
    Mac,
    /// RSA encryption, decryption, signing and verification of NEW-KEY
    /// messages (charged, not computed).
    Rsa,
    /// Send/receive system-call and wire-handling time.
    Net,
    /// Service execution (upcalls into the replicated service).
    Exec,
    /// Untagged protocol bookkeeping.
    Other,
}

impl CostKind {
    /// Number of cost kinds (size of per-node accumulator arrays).
    pub const COUNT: usize = 6;

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CostKind::Digest => "digest",
            CostKind::Mac => "mac",
            CostKind::Rsa => "rsa",
            CostKind::Net => "net",
            CostKind::Exec => "exec",
            CostKind::Other => "other",
        }
    }

    /// All kinds, in accumulator-array order.
    pub const ALL: [CostKind; CostKind::COUNT] = [
        CostKind::Digest,
        CostKind::Mac,
        CostKind::Rsa,
        CostKind::Net,
        CostKind::Exec,
        CostKind::Other,
    ];
}

/// Identifying metadata attached to an event. Emitters fill only the
/// fields that make sense for the phase; the rest stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Requesting client's node id (request-scoped events).
    pub client: u64,
    /// Client-assigned request timestamp (request-scoped events).
    pub timestamp: u64,
    /// Protocol view.
    pub view: u64,
    /// Sequence number (ordering-scoped events).
    pub seq: u64,
    /// Payload size on the wire / in the batch.
    pub bytes: u64,
}

impl TraceMeta {
    /// The metadata of an ordering-scoped event: `seq` in `view`.
    pub fn slot(view: u64, seq: u64) -> TraceMeta {
        TraceMeta {
            view,
            seq,
            ..TraceMeta::default()
        }
    }
}

/// One trace event: a span edge observed at a node at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the edge, in nanoseconds.
    pub at_ns: u64,
    /// Node that observed it.
    pub node: NodeId,
    /// Open, close, or instant.
    pub edge: SpanEdge,
    /// Protocol phase.
    pub phase: TracePhase,
    /// Identifying metadata.
    pub meta: TraceMeta,
}

impl TraceEvent {
    fn format_line(&self) -> String {
        let edge = match self.edge {
            SpanEdge::Open => "open ",
            SpanEdge::Close => "close",
            SpanEdge::Instant => "point",
        };
        let m = &self.meta;
        let mut line = format!(
            "t+{:<10} node={:<2} {} {:<17} view={} seq={}",
            format_duration(self.at_ns),
            self.node,
            edge,
            self.phase.name(),
            m.view,
            m.seq,
        );
        if m.client != 0 || m.timestamp != 0 {
            line.push_str(&format!(" client={} ts={}", m.client, m.timestamp));
        }
        if m.bytes != 0 {
            line.push_str(&format!(" bytes={}", m.bytes));
        }
        line
    }
}

/// Bounded per-node ring buffers of trace events plus per-node CPU-time
/// attribution by [`CostKind`].
#[derive(Debug, Default)]
pub struct TraceSink {
    capacity: usize,
    rings: Vec<VecDeque<TraceEvent>>,
    dropped: Vec<u64>,
    cpu: Vec<[u64; CostKind::COUNT]>,
}

impl TraceSink {
    /// A sink with event recording disabled (capacity 0). CPU attribution
    /// is always active.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Sets the per-node ring capacity. Zero disables event recording;
    /// shrinking an existing ring discards its oldest events.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for ring in &mut self.rings {
            while ring.len() > capacity {
                ring.pop_front();
            }
        }
    }

    /// Whether event recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Makes room for node ids up to and including `node`.
    pub fn ensure_node(&mut self, node: NodeId) {
        let need = node as usize + 1;
        if self.rings.len() < need {
            self.rings.resize_with(need, VecDeque::new);
            self.dropped.resize(need, 0);
            self.cpu.resize(need, [0; CostKind::COUNT]);
        }
    }

    /// Records an event into `node`'s ring, evicting the oldest event
    /// when the ring is full. No-op when recording is disabled.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        self.ensure_node(event.node);
        let ring = &mut self.rings[event.node as usize];
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped[event.node as usize] += 1;
        }
        ring.push_back(event);
    }

    /// Accumulates `ns` of CPU time of `kind` against `node`.
    pub fn record_cpu(&mut self, node: NodeId, kind: CostKind, ns: u64) {
        self.ensure_node(node);
        self.cpu[node as usize][kind as usize] += ns;
    }

    /// CPU nanoseconds charged by `node` for `kind`.
    pub fn cpu_ns(&self, node: NodeId, kind: CostKind) -> u64 {
        self.cpu.get(node as usize).map_or(0, |a| a[kind as usize])
    }

    /// Events retained for `node`, oldest first.
    pub fn node_events(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.rings
            .get(node as usize)
            .into_iter()
            .flat_map(|r| r.iter())
    }

    /// All retained events across all nodes, grouped by node.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.rings.iter().flat_map(|r| r.iter())
    }

    /// Number of nodes the sink has seen.
    pub fn node_count(&self) -> usize {
        self.rings.len()
    }

    /// Discards all recorded events and CPU attribution.
    pub fn clear(&mut self) {
        for ring in &mut self.rings {
            ring.clear();
        }
        for d in &mut self.dropped {
            *d = 0;
        }
        for a in &mut self.cpu {
            *a = [0; CostKind::COUNT];
        }
    }

    /// Formats the last `last_n` events of every node — the flight
    /// recorder's black-box dump, printed next to a chaos failure report.
    pub fn flight_dump(&self, last_n: usize) -> String {
        let mut out = String::new();
        for (node, ring) in self.rings.iter().enumerate() {
            if ring.is_empty() {
                continue;
            }
            let skip = ring.len().saturating_sub(last_n);
            let evicted = self.dropped[node] + skip as u64;
            out.push_str(&format!(
                "  node {node}: last {} of {} retained events ({evicted} older evicted)\n",
                ring.len() - skip,
                ring.len(),
            ));
            for ev in ring.iter().skip(skip) {
                out.push_str("    ");
                out.push_str(&ev.format_line());
                out.push('\n');
            }
        }
        if out.is_empty() {
            out.push_str("  (no trace events recorded — tracing disabled?)\n");
        }
        out
    }

    /// Serializes every retained event as Chrome trace-event JSON (the
    /// `traceEvents` array format), loadable in Perfetto or
    /// `chrome://tracing`. `pid` is the node id; `tid` is the sequence
    /// number for ordering-scoped spans (so concurrent slots nest
    /// correctly) and 0 for node-level spans.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for ev in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            let ph = match ev.edge {
                SpanEdge::Open => "B",
                SpanEdge::Close => "E",
                SpanEdge::Instant => "i",
            };
            let tid = match ev.phase {
                TracePhase::PrePrepare | TracePhase::Commit | TracePhase::ExecuteRequest => {
                    ev.meta.seq
                }
                _ => 0,
            };
            let us_whole = ev.at_ns / 1_000;
            let us_frac = ev.at_ns % 1_000;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":{},\"tid\":{}",
                ev.phase.name(),
                ev.phase.category(),
                ph,
                us_whole,
                us_frac,
                ev.node,
                tid,
            ));
            if ev.edge == SpanEdge::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let m = &ev.meta;
            out.push_str(&format!(
                ",\"args\":{{\"client\":{},\"timestamp\":{},\"view\":{},\"seq\":{},\"bytes\":{}}}}}",
                m.client, m.timestamp, m.view, m.seq, m.bytes,
            ));
        }
        out.push_str("\n]}");
        out
    }
}

// ---------------------------------------------------------------------
// Per-request span assembly
// ---------------------------------------------------------------------

/// The per-phase latency chain of one completed request, joined across
/// the client and the primary that ordered it. Each field is an absolute
/// simulated timestamp; consecutive differences are the phase times and
/// telescope exactly to the end-to-end latency.
#[derive(Debug, Clone, Copy)]
pub struct RequestPath {
    /// Requesting client node.
    pub client: NodeId,
    /// Client-assigned request timestamp.
    pub timestamp: u64,
    /// Replica whose events anchor the chain (the proposing primary).
    pub primary: NodeId,
    /// Sequence number the request was ordered under.
    pub seq: u64,
    /// Monotone timestamps: send, recv, pre-prepare, prepared, executed,
    /// done — clamped pairwise so each phase is non-negative.
    pub t: [u64; 6],
    /// When the commit quorum formed at the primary (0 if not observed);
    /// under tentative execution this is off the critical path.
    pub t_committed: u64,
}

/// Short names of the five phases between the six [`RequestPath`]
/// timestamps: client send -> request recv, request recv -> pre-prepare,
/// pre-prepare -> prepared, prepared -> executed (tentative), and
/// reply -> client recv.
pub const PHASE_LABELS: [&str; 5] = ["send", "order", "prepare", "execute", "reply"];

impl RequestPath {
    /// The five phase durations, in [`PHASE_LABELS`] order.
    pub fn phases(&self) -> [u64; 5] {
        std::array::from_fn(|i| self.t[i + 1] - self.t[i])
    }

    /// End-to-end latency (always the exact sum of [`Self::phases`]).
    pub fn total(&self) -> u64 {
        self.t[5] - self.t[0]
    }
}

/// Aggregated per-phase latency over every request the assembler could
/// join, in the shape of the paper's Table 2/3 decomposition.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Requests successfully joined across client and primary.
    pub requests: u64,
    /// Summed duration of each phase, in [`PHASE_LABELS`] order.
    pub phase_total_ns: [u64; 5],
    /// Summed end-to-end latency (equals the sum of `phase_total_ns`).
    pub e2e_total_ns: u64,
    /// Summed commit-quorum lag past the prepared edge (off the critical
    /// path under tentative execution).
    pub commit_lag_total_ns: u64,
    /// Requests whose commit quorum was observed at the primary.
    pub commit_observed: u64,
}

impl Breakdown {
    /// Mean duration of phase `i`, in nanoseconds.
    pub fn phase_mean_ns(&self, i: usize) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.phase_total_ns[i] as f64 / self.requests as f64
        }
    }

    /// Mean end-to-end latency, in nanoseconds.
    pub fn e2e_mean_ns(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.e2e_total_ns as f64 / self.requests as f64
        }
    }
}

/// Joins span events across nodes into per-request latency chains.
///
/// A request is identified by `(client, timestamp)`. Its chain is
/// anchored at the primary: the node that *proposed* the sequence number
/// the request executed under (the node with the earliest
/// [`TracePhase::PrePrepare`] open for that seq whose open preceded its
/// prepared edge).
pub fn assemble(sink: &TraceSink) -> Vec<RequestPath> {
    use std::collections::HashMap;

    /// Client span: (client node, open at, close at), keyed by request.
    type ClientSpan = (NodeId, Option<u64>, Option<u64>);
    /// Execution instant: (replica node, seq, at).
    type ExecMark = (NodeId, u64, u64);

    // (client, timestamp) -> (t_send, t_done) from client Request spans.
    let mut spans: HashMap<(u64, u64), ClientSpan> = HashMap::new();
    // (client, timestamp) -> execution instants.
    let mut execs: HashMap<(u64, u64), Vec<ExecMark>> = HashMap::new();
    // (node, seq) -> pre-prepare open / prepared / committed edges.
    let mut pp_open: HashMap<(NodeId, u64), u64> = HashMap::new();
    let mut prepared: HashMap<(NodeId, u64), u64> = HashMap::new();
    let mut committed: HashMap<(NodeId, u64), u64> = HashMap::new();
    // (node, client, timestamp) -> request-recv instant.
    let mut recvs: HashMap<(NodeId, u64, u64), u64> = HashMap::new();
    // node -> earliest pre-prepare open per seq (to find the proposer).
    let mut proposer: HashMap<u64, (u64, NodeId)> = HashMap::new();

    for ev in sink.events() {
        let key = (ev.meta.client, ev.meta.timestamp);
        match (ev.phase, ev.edge) {
            (TracePhase::Request, SpanEdge::Open) => {
                let e = spans.entry(key).or_insert((ev.node, None, None));
                e.1 = Some(ev.at_ns);
            }
            (TracePhase::Request, SpanEdge::Close) => {
                let e = spans.entry(key).or_insert((ev.node, None, None));
                e.2 = Some(ev.at_ns);
            }
            (TracePhase::RequestRecv, SpanEdge::Instant) => {
                recvs
                    .entry((ev.node, ev.meta.client, ev.meta.timestamp))
                    .or_insert(ev.at_ns);
            }
            (TracePhase::ExecuteRequest, SpanEdge::Instant) => {
                execs
                    .entry(key)
                    .or_default()
                    .push((ev.node, ev.meta.seq, ev.at_ns));
            }
            (TracePhase::PrePrepare, SpanEdge::Open) => {
                pp_open.entry((ev.node, ev.meta.seq)).or_insert(ev.at_ns);
                let p = proposer.entry(ev.meta.seq).or_insert((ev.at_ns, ev.node));
                if ev.at_ns < p.0 {
                    *p = (ev.at_ns, ev.node);
                }
            }
            (TracePhase::PrePrepare, SpanEdge::Close) => {
                prepared.entry((ev.node, ev.meta.seq)).or_insert(ev.at_ns);
            }
            (TracePhase::Commit, SpanEdge::Close) => {
                committed.entry((ev.node, ev.meta.seq)).or_insert(ev.at_ns);
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    for ((client, timestamp), (client_node, open, close)) in &spans {
        let (Some(t_send), Some(t_done)) = (open, close) else {
            continue;
        };
        let Some(exec_list) = execs.get(&(*client, *timestamp)) else {
            continue;
        };
        // Anchor at the proposer of the seq this request executed under.
        let Some(&(_, seq, _)) = exec_list.first() else {
            continue;
        };
        let Some(&(_, primary)) = proposer.get(&seq) else {
            continue;
        };
        let t_exec = exec_list
            .iter()
            .find(|(n, s, _)| *n == primary && *s == seq)
            .map(|&(_, _, at)| at);
        let Some(t_exec) = t_exec else {
            continue;
        };
        let t_recv = recvs
            .get(&(primary, *client, *timestamp))
            .copied()
            .unwrap_or(*t_send);
        let t_pp = pp_open.get(&(primary, seq)).copied().unwrap_or(t_recv);
        let t_prep = prepared.get(&(primary, seq)).copied().unwrap_or(t_pp);
        // Clamp into a monotone chain so phase times telescope exactly.
        let mut t = [*t_send, t_recv, t_pp, t_prep, t_exec, *t_done];
        for i in 1..6 {
            t[i] = t[i].max(t[i - 1]);
        }
        let t_committed = committed.get(&(primary, seq)).copied().unwrap_or(0);
        out.push(RequestPath {
            client: *client_node,
            timestamp: *timestamp,
            primary,
            seq,
            t,
            t_committed,
        });
    }
    out.sort_by_key(|p| (p.t[0], p.client, p.timestamp));
    out
}

/// Aggregates assembled request chains into a [`Breakdown`] table.
pub fn breakdown(paths: &[RequestPath]) -> Breakdown {
    let mut b = Breakdown::default();
    for p in paths {
        b.requests += 1;
        for (i, d) in p.phases().into_iter().enumerate() {
            b.phase_total_ns[i] += d;
        }
        b.e2e_total_ns += p.total();
        if p.t_committed > 0 {
            b.commit_lag_total_ns += p.t_committed.saturating_sub(p.t[3]);
            b.commit_observed += 1;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        at_ns: u64,
        node: NodeId,
        edge: SpanEdge,
        phase: TracePhase,
        meta: TraceMeta,
    ) -> TraceEvent {
        TraceEvent {
            at_ns,
            node,
            edge,
            phase,
            meta,
        }
    }

    fn req_meta(client: u64, timestamp: u64) -> TraceMeta {
        TraceMeta {
            client,
            timestamp,
            ..TraceMeta::default()
        }
    }

    fn seq_meta(seq: u64) -> TraceMeta {
        TraceMeta {
            seq,
            ..TraceMeta::default()
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::new();
        assert!(!sink.enabled());
        sink.record(ev(
            1,
            0,
            SpanEdge::Open,
            TracePhase::Request,
            TraceMeta::default(),
        ));
        assert_eq!(sink.events().count(), 0);
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut sink = TraceSink::new();
        sink.set_capacity(3);
        for i in 0..10u64 {
            sink.record(ev(
                i,
                0,
                SpanEdge::Instant,
                TracePhase::RequestRecv,
                TraceMeta::default(),
            ));
        }
        let kept: Vec<u64> = sink.node_events(0).map(|e| e.at_ns).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert!(sink.flight_dump(2).contains("last 2 of 3"));
    }

    #[test]
    fn cpu_attribution_accumulates() {
        let mut sink = TraceSink::new();
        sink.record_cpu(2, CostKind::Digest, 100);
        sink.record_cpu(2, CostKind::Digest, 50);
        sink.record_cpu(1, CostKind::Exec, 10);
        assert_eq!(sink.cpu_ns(2, CostKind::Digest), 150);
        assert_eq!(sink.cpu_ns(1, CostKind::Exec), 10);
        assert_eq!(sink.cpu_ns(9, CostKind::Mac), 0);
    }

    #[test]
    fn chrome_json_shape() {
        let mut sink = TraceSink::new();
        sink.set_capacity(8);
        sink.record(ev(
            1_500,
            1,
            SpanEdge::Open,
            TracePhase::PrePrepare,
            seq_meta(7),
        ));
        sink.record(ev(
            2_500,
            1,
            SpanEdge::Close,
            TracePhase::PrePrepare,
            seq_meta(7),
        ));
        let json = sink.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":7"));
    }

    #[test]
    fn assembles_a_request_chain() {
        let mut sink = TraceSink::new();
        sink.set_capacity(64);
        // Client 9 sends request ts=1 at t=0; primary 0 orders it at seq 5.
        sink.record(ev(
            0,
            9,
            SpanEdge::Open,
            TracePhase::Request,
            req_meta(9, 1),
        ));
        sink.record(ev(
            100,
            0,
            SpanEdge::Instant,
            TracePhase::RequestRecv,
            req_meta(9, 1),
        ));
        sink.record(ev(
            120,
            0,
            SpanEdge::Open,
            TracePhase::PrePrepare,
            seq_meta(5),
        ));
        // A backup also opens the pre-prepare span, later than the primary.
        sink.record(ev(
            160,
            1,
            SpanEdge::Open,
            TracePhase::PrePrepare,
            seq_meta(5),
        ));
        sink.record(ev(
            300,
            0,
            SpanEdge::Close,
            TracePhase::PrePrepare,
            seq_meta(5),
        ));
        sink.record(ev(
            350,
            0,
            SpanEdge::Instant,
            TracePhase::ExecuteRequest,
            TraceMeta {
                client: 9,
                timestamp: 1,
                seq: 5,
                ..TraceMeta::default()
            },
        ));
        sink.record(ev(500, 0, SpanEdge::Close, TracePhase::Commit, seq_meta(5)));
        sink.record(ev(
            450,
            9,
            SpanEdge::Close,
            TracePhase::Request,
            req_meta(9, 1),
        ));

        let paths = assemble(&sink);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.primary, 0);
        assert_eq!(p.seq, 5);
        assert_eq!(p.total(), 450);
        assert_eq!(p.phases().iter().sum::<u64>(), p.total());
        assert_eq!(p.phases(), [100, 20, 180, 50, 100]);
        // Commit quorum formed 200ns after prepared — off the critical path.
        let b = breakdown(&paths);
        assert_eq!(b.requests, 1);
        assert_eq!(b.e2e_total_ns, 450);
        assert_eq!(b.commit_lag_total_ns, 200);
    }
}
