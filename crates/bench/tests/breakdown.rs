//! The per-phase breakdown's checks. For each Figure 2 operation shape
//! (0/0, 4 KiB request, 4 KiB reply), a traced fault-free run must:
//!
//! 1. export a Chrome trace that parses into the trace-event subset
//!    Perfetto needs;
//! 2. assemble per-request phase chains whose mean sum is within 5 % of
//!    the independently measured `client.latency` mean.
//!
//! The 0/0 trace is left at `$CARGO_TARGET_TMPDIR/bft-trace.json`
//! for loading into Perfetto or `chrome://tracing`.

use bft_core::prelude::*;
use bft_sim::trace::{assemble, breakdown};
use bft_workloads::micro::{MicroDriver, SimpleService};

const SEED: u64 = 7;
const WARMUP_OPS: u64 = 10;
const SAMPLES: u64 = 30;
const TRACE_CAPACITY: usize = 1 << 16;

/// The subset of the Chrome trace-event schema every exported event must
/// carry. Extra fields (`s`, `args`) are permitted; these are required.
#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct ChromeDoc {
    traceEvents: Vec<ChromeEvent>,
}

#[derive(serde::Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    pid: u64,
    // Required to parse as an integer; any value is well-formed.
    #[allow(dead_code)]
    tid: u64,
}

/// Runs one traced closed-loop client at `arg_bytes`/`result_bytes`,
/// checks the run, and returns its Chrome trace JSON.
fn checked_run(tag: &str, arg_bytes: usize, result_bytes: usize) -> String {
    let cfg = Config::new(1);
    let node_count = u64::from(cfg.n()) + 1;
    let mut cluster = Cluster::builder(cfg)
        .seed(SEED)
        .net(NetConfig::SWITCHED_100MBPS)
        .trace_capacity(TRACE_CAPACITY)
        .build(|_| SimpleService);
    cluster.add_client(MicroDriver::new(arg_bytes, result_bytes, false));

    // Stop exactly at WARMUP_OPS completions, then start the metrics, the
    // trace and the health counters over together.
    while cluster.completed_ops() < WARMUP_OPS && cluster.sim.step() {}
    cluster.sim.metrics_mut().reset();
    cluster.sim.trace_mut().clear();
    cluster.sim.health_mut().reset();
    let mut guard = 0;
    while cluster.completed_ops() < SAMPLES && guard < 1_000 {
        cluster.run_for(dur::millis(10));
        guard += 1;
    }
    assert!(cluster.completed_ops() >= SAMPLES, "{tag}: stalled");

    let sink = cluster.sim.trace();
    let json = sink.chrome_trace_json();
    let doc: ChromeDoc = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("{tag}: trace does not parse: {e:?}"));
    assert!(!doc.traceEvents.is_empty(), "{tag}: no trace events");
    for (i, ev) in doc.traceEvents.iter().enumerate() {
        assert!(!ev.name.is_empty(), "{tag}: event {i}: empty name");
        assert!(
            matches!(
                ev.cat.as_str(),
                "request" | "ordering" | "execution" | "recovery"
            ),
            "{tag}: event {i}: unknown category `{}`",
            ev.cat
        );
        assert!(
            matches!(ev.ph.as_str(), "B" | "E" | "i"),
            "{tag}: event {i}: phase `{}`, want B/E/i",
            ev.ph
        );
        assert!(
            ev.ts.is_finite() && ev.ts >= 0.0,
            "{tag}: event {i}: ts {}",
            ev.ts
        );
        assert!(
            ev.pid < node_count,
            "{tag}: event {i}: pid {} of {node_count} nodes",
            ev.pid
        );
    }

    let b = breakdown(&assemble(sink));
    let measured = cluster.sim.metrics().summary("client.latency").mean;
    let error_pct = (b.e2e_mean_ns() - measured).abs() / measured * 100.0;
    assert!(
        error_pct <= 5.0,
        "{tag}: assembled phase sum {:.1} µs is {error_pct:.2} % off the measured {:.1} µs",
        b.e2e_mean_ns() / 1e3,
        measured / 1e3
    );

    json
}

#[test]
fn null_op_breakdown_checks_and_exports_its_trace() {
    let json = checked_run("0/0", 0, 0);
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/bft-trace.json");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

#[test]
fn large_request_breakdown_checks() {
    checked_run("4/0", 4096, 0);
}

#[test]
fn large_reply_breakdown_checks() {
    checked_run("0/4", 0, 4096);
}
