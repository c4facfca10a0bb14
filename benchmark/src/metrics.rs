//! Every metric the benchmark reports: its name, unit and direction (the
//! same table `BENCHMARK.json` holds, and a test checks they agree), and
//! how each value follows from what a run measured.
//!
//! Two clocks, never mixed: a `sim_*` / `*.sim_*` value is simulated time
//! and repeats exactly for one seed; a `wall_*` / `*_ns` / `*.wall_*`
//! value is real time of this binary on this machine.

use crate::harness::Sample;
use crate::stats::{median, percentile};
use crate::trace::{StepTimer, TraceFold, HANDLERS};
use bft_sim::trace::CostKind;
use bft_sim::Counter;

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declaration. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: Better) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by the untraced run.
pub fn end_to_end() -> Vec<Decl> {
    let bounded = |name, unit, better, bound| Decl {
        bound: Some(bound),
        ..decl(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower, 0.25),
        bounded("wall_ops_per_s", "ops/s", Higher, 0.15),
        bounded("sim_ops_per_s", "ops/s", Higher, 0.05),
        bounded("sim_latency_p50_us", "us", Lower, 0.10),
        bounded("sim_latency_p99_us", "us", Lower, 0.15),
        bounded("peak_rss_mb", "MiB", Lower, 0.15),
    ]
}

/// The wire-message variants the codec timings cover.
const CODEC_VARIANTS: [&str; 8] = [
    "request-0",
    "request-4096",
    "pre-prepare-b8",
    "prepare",
    "commit",
    "reply-0",
    "reply-4096",
    "checkpoint",
];

/// Short names of the five `PHASE_LABELS` of `bft_sim::trace`.
const PHASES: [&str; 5] = ["send", "order", "prepare", "execute", "reply"];

/// The cost kinds reported (RSA is folded into `other`).
const CPU_KINDS: [(&str, &[CostKind]); 5] = [
    ("digest", &[CostKind::Digest]),
    ("mac", &[CostKind::Mac]),
    ("net", &[CostKind::Net]),
    ("exec", &[CostKind::Exec]),
    ("other", &[CostKind::Other, CostKind::Rsa]),
];

/// Single layers; reported by the traced run.
pub fn per_layer() -> Vec<Decl> {
    let mut d = vec![
        // Counts of the run as a whole, kept by name for later issues.
        decl("ops_attempted", "count", Higher),
        decl("ops_failed_share", "ratio", Lower),
        decl("sim_outage_ms", "ms", Lower),
        decl("loadgen.late_p99_us", "us", Lower),
        // bft-crypto.
        decl("crypto.md5_ns_64", "ns", Lower),
        decl("crypto.md5_ns_4096", "ns", Lower),
        decl("crypto.umac_ns_16", "ns", Lower),
        decl("crypto.auth_gen_ns_n4", "ns", Lower),
        decl("crypto.auth_verify_ns_n4", "ns", Lower),
        decl("crypto.auth_gen_ns_n7", "ns", Lower),
        decl("crypto.auth_verify_ns_n7", "ns", Lower),
        decl("crypto.merkle_update_ns", "ns", Lower),
    ];
    // wire + messages.
    for op in ["encode", "decode"] {
        for v in CODEC_VARIANTS {
            d.push(decl(format!("codec.{op}_ns.{v}"), "ns", Lower));
        }
    }
    d.extend([
        decl("codec.clone_ns.request-4096", "ns", Lower),
        decl("codec.packet_digest_ns.request-4096", "ns", Lower),
        // log, checkpoint.
        decl("log.vote_insert_ns", "ns", Lower),
        decl("log.gc_ns_per_slot", "ns", Lower),
        decl("checkpoint.refresh_ns_clean", "ns", Lower),
        decl("checkpoint.refresh_ns_dirty8", "ns", Lower),
        decl("checkpoint.stable_per_kop", "1/kop", Lower),
        decl("checkpoint.state_transfers", "count", Lower),
    ]);
    // replica: wall time per handler, simulated time per phase and kind.
    for h in HANDLERS {
        d.push(decl(format!("handler.wall_ns.{h}"), "ns", Lower));
    }
    for h in HANDLERS {
        d.push(decl(format!("handler.wall_share.{h}"), "ratio", Lower));
    }
    for p in PHASES {
        d.push(decl(format!("phase.sim_us.{p}"), "us", Lower));
    }
    d.push(decl("phase.sim_us.commit_lag", "us", Lower));
    for (k, _) in CPU_KINDS {
        d.push(decl(format!("cpu.sim_us_per_op.{k}"), "us", Lower));
    }
    d.extend([
        decl("replica.batch_mean", "ops", Higher),
        decl("replica.msgs_per_op", "1/op", Lower),
        decl("replica.bytes_per_op", "B/op", Lower),
        decl("replica.lease_read_share", "ratio", Higher),
        decl("replica.fast_commit_share", "ratio", Higher),
        decl("replica.requests_shed", "count", Lower),
        // client, view change, invariants.
        decl("client.retransmissions_per_kop", "1/kop", Lower),
        decl("client.ro_retries_per_kop", "1/kop", Lower),
        decl("client.ro_fallbacks_per_kop", "1/kop", Lower),
        decl("client.busy_rounds_per_kop", "1/kop", Lower),
        decl("viewchange.count", "count", Lower),
        decl("viewchange.sim_ms", "ms", Lower),
        decl("viewchange.new_view_retransmits", "count", Lower),
        decl("invariants.observe_wall_ns_per_event", "ns", Lower),
        decl("invariants.wall_share", "ratio", Lower),
        // bft-sim: engine, network, observers; the allocator.
        decl("engine.events_per_op", "1/op", Lower),
        decl("engine.wall_ns_per_event", "ns", Lower),
        decl("engine.wall_events_per_s", "1/s", Higher),
        decl("engine.wall_s", "s", Lower),
        decl("engine.empty_step_ns", "ns", Lower),
        decl("network.dropped_per_kop", "1/kop", Lower),
        decl("trace.wall_overhead_pct", "%", Lower),
        decl("trace.step_timing_overhead_pct", "%", Lower),
        decl("alloc.count_per_op", "1/op", Lower),
        decl("alloc.bytes_per_op", "B/op", Lower),
        // bft-fs and the single-node baseline.
        decl("fs.apply_wall_ns_per_rpc", "ns", Lower),
        decl("fs.rpcs_per_txn", "1/txn", Lower),
        decl("norep.sim_latency_p50_us", "us", Lower),
        decl("norep.wall_ops_per_s", "ops/s", Higher),
        decl("overhead.sim_latency_x", "x", Lower),
    ]);
    d
}

fn per(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// End-to-end values of one untraced invocation: `reps` full runs of one
/// seed (whose simulated halves the caller has checked identical) and
/// every set-up time it took.
///
/// The runs are the same simulation, so slice `i` of each did identical
/// work, and interference from outside the process only ever adds time:
/// the window's wall time is the sum over slices of the *smallest* time
/// any run took for that slice. A burst that slows one run's slice is
/// dropped; the work of every slice is still counted once.
pub fn end_to_end_values(
    reps: &[Sample],
    setups_s: Vec<f64>,
    peak_rss_mb: f64,
) -> Vec<(String, f64)> {
    let first = &reps[0];
    let wall_ns: u64 = (0..first.slice_wall_ns.len())
        .map(|i| reps.iter().map(|r| r.slice_wall_ns[i]).min().unwrap_or(0))
        .sum();
    let sim_s = first.sim_window_ns as f64 / 1e9;
    vec![
        ("setup_s".into(), median(setups_s)),
        (
            "wall_ops_per_s".into(),
            first.window_ops as f64 / (wall_ns as f64 / 1e9),
        ),
        ("sim_ops_per_s".into(), first.window_ops as f64 / sim_s),
        (
            "sim_latency_p50_us".into(),
            percentile(&first.latencies_ns, 0.50) as f64 / 1e3,
        ),
        (
            "sim_latency_p99_us".into(),
            percentile(&first.latencies_ns, 0.99) as f64 / 1e3,
        ),
        ("peak_rss_mb".into(), peak_rss_mb),
    ]
}

/// Per-layer values of one traced invocation, micro-timings excluded:
/// `plain` ran untraced, `rings` with the trace rings on (and the
/// allocator counting), `steps` under the step timer, whose trace `fold`
/// summed up.
pub fn layer_values(
    plain: &Sample,
    rings: &Sample,
    steps: &Sample,
    fold: &TraceFold,
    timer: &StepTimer,
) -> Vec<(String, f64)> {
    let ops = plain.window_ops;
    let c = &plain.counts;
    let kop = |n: u64| per(n * 1000, ops);
    let mut v: Vec<(String, f64)> = vec![
        ("ops_attempted".into(), plain.attempted as f64),
        (
            "ops_failed_share".into(),
            per(plain.failed, plain.attempted),
        ),
        ("sim_outage_ms".into(), plain.outage_ns as f64 / 1e6),
        (
            "loadgen.late_p99_us".into(),
            percentile(&plain.late_ns, 0.99) as f64 / 1e3,
        ),
        (
            "checkpoint.stable_per_kop".into(),
            kop(c.health.total(Counter::StableCheckpoints)),
        ),
        (
            "checkpoint.state_transfers".into(),
            c.health.total(Counter::StateTransfers) as f64,
        ),
    ];
    let stepped = timer.stepped_ns();
    for (i, h) in HANDLERS.iter().enumerate() {
        let mean = per(timer.handler_ns[i], timer.handler_events[i]);
        v.push((format!("handler.wall_ns.{h}"), mean));
        let share = per(timer.handler_ns[i], stepped);
        v.push((format!("handler.wall_share.{h}"), share));
    }
    for (i, p) in PHASES.iter().enumerate() {
        let mean_ns = per(fold.phase_total_ns[i], fold.requests);
        v.push((format!("phase.sim_us.{p}"), mean_ns / 1e3));
    }
    v.push((
        "phase.sim_us.commit_lag".into(),
        per(fold.commit_lag_total_ns, fold.commit_observed) / 1e3,
    ));
    for (name, kinds) in CPU_KINDS {
        let ns: u64 = kinds.iter().map(|&k| c.cpu_ns[k as usize]).sum();
        v.push((format!("cpu.sim_us_per_op.{name}"), per(ns, ops) / 1e3));
    }
    let wall_ns = plain.wall_window_s() * 1e9;
    v.extend([
        (
            "replica.batch_mean".to_string(),
            per(c.ops_executed, c.batches_executed),
        ),
        (
            "replica.msgs_per_op".into(),
            per(c.health.sent_by_tag().iter().sum(), ops),
        ),
        ("replica.bytes_per_op".into(), per(c.bytes_delivered, ops)),
        // Every replica that holds a lease answers a read, so the share
        // is of the answers all replicas could have given.
        (
            "replica.lease_read_share".into(),
            per(c.health.total(Counter::LeaseReads), ops * c.replicas),
        ),
        (
            "replica.fast_commit_share".into(),
            per(c.health.total(Counter::FastCommits), c.batches_executed),
        ),
        (
            "replica.requests_shed".into(),
            c.health.total(Counter::RequestsShed) as f64,
        ),
        (
            "client.retransmissions_per_kop".into(),
            kop(c.health.total(Counter::Retransmissions)),
        ),
        (
            "client.ro_retries_per_kop".into(),
            kop(c.health.total(Counter::RoRetries)),
        ),
        (
            "client.ro_fallbacks_per_kop".into(),
            kop(c.health.total(Counter::RoFallbacks)),
        ),
        ("client.busy_rounds_per_kop".into(), kop(c.busy_received)),
        ("viewchange.count".into(), c.max_view as f64),
        (
            "viewchange.sim_ms".into(),
            fold.view_change_ns() as f64 / 1e6,
        ),
        (
            "viewchange.new_view_retransmits".into(),
            c.health.total(Counter::NewViewRetransmits) as f64,
        ),
        (
            "invariants.observe_wall_ns_per_event".into(),
            per(timer.observe_ns, timer.observes),
        ),
        (
            "invariants.wall_share".into(),
            per(timer.observe_ns, stepped),
        ),
        ("engine.events_per_op".into(), per(c.events, ops)),
        ("engine.wall_ns_per_event".into(), wall_ns / c.events as f64),
        (
            "engine.wall_events_per_s".into(),
            c.events as f64 / plain.wall_window_s(),
        ),
        ("engine.wall_s".into(), plain.wall_window_s()),
        ("network.dropped_per_kop".into(), kop(c.dropped)),
        (
            "trace.wall_overhead_pct".into(),
            (rings.wall_window_s() / plain.wall_window_s() - 1.0) * 100.0,
        ),
        (
            "trace.step_timing_overhead_pct".into(),
            (steps.wall_window_s() / plain.wall_window_s() - 1.0) * 100.0,
        ),
        ("alloc.count_per_op".into(), per(rings.allocs.count, ops)),
        ("alloc.bytes_per_op".into(), per(rings.allocs.bytes, ops)),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
        why: String,
    }

    #[derive(serde::Deserialize)]
    struct Bounded {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(serde::Deserialize)]
    struct Unbounded {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(serde::Deserialize)]
    struct Manifest {
        workloads: Vec<Named>,
        end_to_end: Vec<Bounded>,
        per_layer: Vec<Unbounded>,
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
    }

    #[test]
    fn names_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest: Manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed: Vec<_> = manifest
            .end_to_end
            .iter()
            .map(|m| (&*m.name, &*m.unit, &*m.better, Some(m.bound)))
            .chain(
                manifest
                    .per_layer
                    .iter()
                    .map(|m| (&*m.name, &*m.unit, &*m.better, None)),
            )
            .collect();
        let declared: Vec<Decl> = end_to_end().into_iter().chain(per_layer()).collect();
        let declared: Vec<_> = declared
            .iter()
            .map(|d| (&*d.name, d.unit, d.better.word(), d.bound))
            .collect();
        assert_eq!(declared, listed);
        assert!(declared.iter().all(|d| well_formed(d.0)));
        let workloads: Vec<_> = manifest
            .workloads
            .iter()
            .map(|w| (&*w.name, &*w.why))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert!(workloads.iter().all(|w| well_formed(w.0)));
    }

    #[test]
    fn every_name_is_declared_once() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer().len() <= 128);
    }
}
