//! Machine-readable benchmark suite: runs the seven experiment families
//! of the evaluation and emits one canonical versioned JSON document
//! (`BENCH_*.json`, schema in [`bft_bench::suite`]):
//!
//! 1. `fig2_latency` — single-client invocation latency at the paper's
//!    Figure 2 operation shapes (0/0, 4096/0, 0/4096);
//! 2. `saturation` — closed-loop throughput at 20 clients;
//! 3. `breakdown` — traced 0/0 run: end-to-end latency and
//!    tentative-execute → commit-certificate lag; the full
//!    run adds 4096/0 and 0/4096, the mean of each request phase and the
//!    replica CPU per request of each cost kind;
//! 4. `readmix` — leased vs unleased read latency under a 1% write mix
//!    on a jittery network (the lease headline: zero fallbacks); the
//!    full run adds a clean LAN and 0 % / 10 % writes;
//! 5. `recovery` — time to heal a silently corrupted replica via the
//!    proactive recovery audit, and the throughput dip while healing;
//!    the full run adds 1 KiB and 4 KiB payloads;
//! 6. `overload` — the degradation curve: honest goodput and tail
//!    latency with a Byzantine client flooding at 1×–16× the no-flood
//!    goodput, admission control on;
//! 7. `paper` — every figure, §4.4 text claim and ablation of the paper
//!    ([`bft_bench::paper`]).
//!
//! Everything runs in the deterministic simulator, so at fixed settings
//! the emitted metrics are bit-for-bit reproducible; `--compare` is a
//! code-regression gate, not a noise filter. The paper's shape claims
//! ([`bft_bench::paper::CLAIMS`]) are checked against every document,
//! run or loaded, and fail the process on their own, with or without
//! `--compare`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bft-bench --bin suite -- [FLAGS]
//!   --quick           small sample counts / short windows (CI profile;
//!                     the checked-in baseline is generated with this)
//!   --out PATH        write the JSON document to PATH
//!   --in PATH         load the document from PATH instead of running
//!   --compare OLD     diff against a baseline document; print the
//!                     regression table and exit non-zero on threshold-
//!                     exceeding regressions or vanished measurements
//!   --threshold PCT   regression threshold in percent (default 10)
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use bft_bench::paper;
use bft_bench::suite::{compare, metrics, BenchDoc, BenchResult};
use bft_core::prelude::*;
use bft_sim::trace::{assemble, breakdown as trace_breakdown, CostKind, PHASE_LABELS};
use bft_workloads::harness::{bft_latency, OpShape, SEED};
use bft_workloads::micro::{simple_op, MicroDriver, SimpleService};
use bft_workloads::read_mix_run;
use bft_workloads::FloodDriver;

const TRACE_CAPACITY: usize = 1 << 16;

fn merge_counters(into: &mut BTreeMap<String, u64>, from: Vec<(String, u64)>) {
    for (k, v) in from {
        *into.entry(k).or_insert(0) += v;
    }
}

/// Family 1: Figure 2 latency points, one closed-loop client.
fn fig2_latency(quick: bool, out: &mut BenchDoc) {
    let samples = if quick { 40 } else { 200 };
    for (label, shape) in [
        ("0/0", OpShape::rw(0, 0)),
        ("4096/0", OpShape::rw(4096, 0)),
        ("0/4096", OpShape::rw(0, 4096)),
    ] {
        let s = bft_latency(Config::new(1), shape, samples);
        out.results.push(BenchResult {
            bench: "fig2_latency".to_string(),
            workload: label.to_string(),
            metrics: metrics(&[
                ("mean_us", s.mean / 1e3),
                ("p50_us", s.p50 as f64 / 1e3),
                ("p99_us", s.p99 as f64 / 1e3),
            ]),
        });
    }
}

/// Family 2: saturation throughput, 20 staggered closed-loop clients.
/// Runs its own cluster (instead of the harness helper) so the health
/// counter registry can be harvested into the document.
fn saturation(quick: bool, out: &mut BenchDoc) {
    const CLIENTS: u32 = 20;
    let (warmup, window) = if quick {
        (dur::millis(300), dur::millis(700))
    } else {
        (dur::secs(1), dur::secs(2))
    };
    let mut cluster = Cluster::new(SEED, NetConfig::SWITCHED_100MBPS, Config::new(1), |_| {
        SimpleService
    });
    for i in 0..CLIENTS {
        cluster.add_client(
            MicroDriver::new(0, 0, false).with_start_delay(u64::from(i) * dur::micros(400)),
        );
    }
    cluster.run_for(warmup);
    cluster.sim.metrics_mut().reset();
    let warm = cluster.completed_ops();
    cluster.run_for(window);
    let ops = cluster.completed_ops() - warm;
    let window_s = window as f64 / 1e9;
    let lat = cluster.sim.metrics().summary("client.latency");
    out.results.push(BenchResult {
        bench: "saturation".to_string(),
        workload: format!("{CLIENTS}-clients"),
        metrics: metrics(&[
            ("throughput_ops_per_sec", ops as f64 / window_s),
            ("latency_p50_us", lat.p50 as f64 / 1e3),
            ("latency_p99_us", lat.p99 as f64 / 1e3),
        ]),
    });
    merge_counters(&mut out.counters, cluster.sim.health().flattened());
}

/// Family 3: the per-phase breakdown of the paper's Tables 2 and 3,
/// traced: end-to-end latency and the tentative-execute ->
/// commit-certificate lag. The full run adds the 4096/0 and 0/4096
/// shapes and, on every row, the mean of each assembled request phase
/// and the replica CPU per request of each [`CostKind`]. `tests/breakdown.rs` checks these traces.
fn breakdown(quick: bool, out: &mut BenchDoc) {
    let samples = if quick { 60 } else { 200 };
    let shapes: &[(&str, usize, usize)] = if quick {
        &[("0/0", 0, 0)]
    } else {
        &[("0/0", 0, 0), ("4096/0", 4096, 0), ("0/4096", 0, 4096)]
    };
    for &(shape, arg_bytes, result_bytes) in shapes {
        let cfg = Config::new(1);
        let replicas = cfg.n();
        let mut cluster = Cluster::builder(cfg)
            .seed(SEED)
            .net(NetConfig::SWITCHED_100MBPS)
            .trace_capacity(TRACE_CAPACITY)
            .build(|_| SimpleService);
        cluster.add_client(MicroDriver::new(arg_bytes, result_bytes, false));
        let mut guard = 0;
        while cluster.completed_ops() < samples && guard < 10_000 {
            cluster.run_for(dur::millis(10));
            guard += 1;
        }
        assert!(
            cluster.completed_ops() >= samples,
            "breakdown workload {shape} stalled"
        );
        let trace = cluster.sim.trace();
        let b = trace_breakdown(&assemble(trace));
        let commit_lag_us = if b.commit_observed > 0 {
            b.commit_lag_total_ns as f64 / b.commit_observed as f64 / 1e3
        } else {
            0.0
        };
        let mean_us = cluster.sim.metrics().summary("client.latency").mean / 1e3;
        let mut m = metrics(&[("e2e_mean_us", mean_us), ("commit_lag_us", commit_lag_us)]);
        // The quick rows keep the metric set the CI baseline pins.
        if !quick {
            for (i, phase) in PHASE_LABELS.iter().enumerate() {
                m.insert(format!("phase_{phase}_us"), b.phase_mean_ns(i) / 1e3);
            }
            let requests = cluster.completed_ops() as f64;
            for kind in CostKind::ALL {
                let ns: u64 = (0..replicas).map(|r| trace.cpu_ns(r, kind)).sum();
                m.insert(
                    format!("cpu_{}_us", kind.name()),
                    ns as f64 / requests / 1e3,
                );
            }
        }
        out.results.push(BenchResult {
            bench: "breakdown".to_string(),
            // `-classic` keeps the row names the baselines pin.
            workload: format!("{shape}-classic"),
            metrics: m,
        });
        merge_counters(&mut out.counters, cluster.sim.health().flattened());
    }
}

/// Family 4: leased vs unleased reads, 1% writes, 500 µs jitter — the
/// regime where the unleased read-only optimization starts burning
/// retries and falling back to the ordered path. The full run is the
/// whole table: a clean LAN (`lan-` rows) and the jittery network, each
/// at 0 %, 1 % and 10 % writes, with write latency and read-only retries.
fn readmix(quick: bool, out: &mut BenchDoc) {
    let ops_per_client = if quick { 60 } else { 250 };
    let points: &[(&str, u64, u32)] = if quick {
        &[("", dur::micros(500), 10)]
    } else {
        &[
            ("lan-", 0, 0),
            ("lan-", 0, 10),
            ("lan-", 0, 100),
            ("", dur::micros(500), 0),
            ("", dur::micros(500), 10),
            ("", dur::micros(500), 100),
        ]
    };
    for &(net, jitter_ns, write_permille) in points {
        for leases in [false, true] {
            let mut cfg = Config::new(1);
            cfg.read_leases = leases;
            cfg.read_lease_ns = dur::millis(100);
            let stats = read_mix_run(
                cfg,
                4,
                ops_per_client,
                write_permille,
                jitter_ns,
                0xbf7_2107,
            );
            let mut m = metrics(&[
                ("read_p50_us", stats.read_p50_us),
                ("read_p99_us", stats.read_p99_us),
                ("lease_reads", stats.lease_reads as f64),
                ("ro_fallbacks", stats.ro_fallbacks as f64),
            ]);
            // The quick rows keep the metric set the CI baseline pins.
            if !quick {
                m.insert("ro_retries".to_string(), stats.ro_retries as f64);
                if stats.writes > 0 {
                    m.insert("write_p50_us".to_string(), stats.write_p50_us);
                }
            }
            out.results.push(BenchResult {
                bench: "readmix".to_string(),
                workload: format!(
                    "{net}{}pct-writes-{}",
                    write_permille / 10,
                    if leases { "leases" } else { "classic" }
                ),
                metrics: m,
            });
        }
    }
}

/// Closed-loop writer issuing `add 1` counter ops padded to a target
/// size (the recovery workload needs real state so corruption is
/// observable; the counter ignores bytes past the operand, so padding
/// only exercises the transport, batching and replay paths).
struct PaddedAdds {
    pad: usize,
}

impl PaddedAdds {
    fn op(&self) -> Vec<u8> {
        let mut op = CounterService::add_op(1);
        op.resize(2 + self.pad, 0);
        op
    }
}

impl ClientDriver for PaddedAdds {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(self.op(), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
        api.submit(self.op(), false);
    }
}

/// Family 5: time-to-heal. Flips the top bit of one replica's counter
/// under load and measures the wait until the proactive-recovery
/// watchdog audit catches and repairs it. The heal time is dominated by
/// the wait for the staggered watchdog, so it is flat across payload
/// sizes; the full run's 1 KiB and 4 KiB payloads instead move the
/// steady throughput and the depth of the dip while healing.
fn recovery(quick: bool, out: &mut BenchDoc) {
    // Salt 63 XORs the counter's top bit: until the audit restores a
    // quorum-attested copy the victim sits ~2^63 away from any value the
    // cluster could legitimately reach. Healed = top bit clear.
    let healed =
        |cluster: &Cluster| cluster.replica::<CounterService>(2).service().value() < 1 << 62;
    let pads: &[usize] = if quick { &[0] } else { &[0, 1024, 4096] };
    for &pad in pads {
        let mut cfg = Config::new(1);
        cfg.checkpoint_interval = 8;
        // Wide window: a corrupt replica stops stabilising checkpoints
        // (its digests mismatch the quorum), so its log GC stalls and a
        // small window would wedge it out of the water marks within tens
        // of milliseconds — healing via the lag-triggered state transfer
        // backstop instead of the recovery audit measured here.
        cfg.log_window = 1024;
        cfg.proactive_recovery_interval_ns = dur::millis(500);
        let mut cluster = Cluster::builder(cfg)
            .seed(0xBEEF ^ pad as u64)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        for _ in 0..6 {
            cluster.add_client(PaddedAdds { pad });
        }
        let baseline = if quick {
            dur::millis(400)
        } else {
            dur::secs(1)
        };
        cluster.run_for(dur::secs(1));
        let warm = cluster.completed_ops();
        cluster.run_for(baseline);
        let steady = (cluster.completed_ops() - warm) as f64 / (baseline as f64 / 1e9);
        // Land the corruption mid-interval: the victim's watchdog fires
        // at 375 ms + k*500 ms, so injecting ~600 ms after the baseline
        // leaves its ongoing recovery finished and the next fire well
        // out. (Injecting during an in-flight audit lets the fetched
        // partition overwrite the corruption within milliseconds —
        // measuring nothing.) Lease contention skews the staggered
        // schedule, and right after a recovery the victim trails the
        // group and heals trivially through its rejoin catch-up
        // transfer, so also wait until it is idle AND caught up.
        cluster.run_for(dur::millis(600));
        loop {
            let victim = cluster.replica::<CounterService>(2);
            let peer = cluster.replica::<CounterService>(3);
            if !victim.recovering() && victim.last_executed() + 4 >= peer.last_executed() {
                break;
            }
            cluster.run_for(dur::millis(5));
        }
        // Odd salt: the victim's retained checkpoint copies are
        // corrupted too, forcing the audit's re-fetch path.
        cluster.replica_mut::<CounterService>(2).corrupt_state(63);
        let corrupted = cluster.completed_ops();
        let corrupted_at = cluster.sim.now();
        let give_up = corrupted_at.after(dur::secs(30));
        while !healed(&cluster) && cluster.sim.now() < give_up {
            cluster.run_for(dur::millis(5));
        }
        assert!(
            healed(&cluster),
            "cluster failed to heal within 30 s at payload {pad}"
        );
        let refetches = cluster.sim.health().total(Counter::RecoveryAuditRefetch);
        assert!(
            refetches > 0,
            "payload {pad}: the heal must have come through the recovery audit"
        );
        // Simulated time, as `paper`'s view-change row measures it.
        let heal_s = cluster.sim.now().since(corrupted_at) as f64 / 1e9;
        let during = (cluster.completed_ops() - corrupted) as f64 / heal_s;
        out.results.push(BenchResult {
            bench: "recovery".to_string(),
            workload: if pad == 0 {
                "corrupt-top-bit".to_string()
            } else {
                format!("corrupt-top-bit-{pad}B")
            },
            metrics: metrics(&[
                ("heal_time_s", heal_s),
                ("steady_throughput_ops_per_sec", steady),
                ("heal_throughput_ops_per_sec", during),
            ]),
        });
        merge_counters(&mut out.counters, cluster.sim.health().flattened());
    }
}

/// Closed-loop 0/0 client that records its latency under a private
/// metric, so the overload family's honest-client numbers are not
/// polluted by the flooder's completions in `client.latency`.
struct HonestMicro;

impl ClientDriver for HonestMicro {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(simple_op(0, 0, false), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], latency_ns: u64) {
        api.metrics().record("bench.honest_latency", latency_ns);
        api.submit(simple_op(0, 0, false), false);
    }
}

/// Family 6: overload degradation curve. Four honest closed-loop
/// clients share the cluster with one open-loop flooder offering
/// 1×–16× the no-flood goodput; admission control (per-client quota,
/// queue caps, BUSY pushback) is on. The interesting shape: honest
/// goodput should degrade gracefully — not collapse — as offered junk
/// load climbs past saturation, with the overflow absorbed by the shed
/// counters instead of the queues.
fn overload(quick: bool, out: &mut BenchDoc) {
    let (warmup, window) = if quick {
        (dur::millis(300), dur::millis(700))
    } else {
        (dur::secs(1), dur::secs(2))
    };
    let mut cfg = Config::new(1);
    cfg.admission_control = true;

    /// The fifth client at each curve point.
    enum Flooder {
        /// No fifth client — the no-flood baseline.
        None,
        /// Open loop but well behaved: offers at the interval, drops the
        /// offer at the source while its previous op is outstanding.
        Polite(u64),
        /// Byzantine: abandons the outstanding op every tick and issues a
        /// fresh one, holding quota-busting work in flight.
        Abusive(u64),
    }

    let mut run_point = |flooder: Flooder| -> (f64, f64, u64, u64) {
        let mut cluster = Cluster::new(
            0x0BE5_BEAC,
            NetConfig::SWITCHED_100MBPS,
            cfg.clone(),
            |_| SimpleService,
        );
        for _ in 0..4 {
            cluster.add_client(HonestMicro);
        }
        match flooder {
            Flooder::None => {}
            Flooder::Polite(interval) => {
                cluster.add_client(FloodDriver::new(interval, simple_op(0, 0, false), false));
            }
            Flooder::Abusive(interval) => {
                let id = cluster.add_client(MicroDriver::new(0, 0, false));
                cluster.client_mut::<MicroDriver>(id).set_behavior(
                    bft_core::ClientBehavior::Flood {
                        interval_ns: interval,
                    },
                );
            }
        }
        cluster.run_for(warmup);
        cluster.sim.metrics_mut().reset();
        cluster.run_for(window);
        let window_s = window as f64 / 1e9;
        let honest = cluster.sim.metrics().summary("bench.honest_latency");
        // Sheds and BUSYs are whole-run totals, warm-up included.
        let shed = cluster.sim.health().total(bft_sim::Counter::RequestsShed);
        let busy = cluster.sim.health().total(bft_sim::Counter::BusySent);
        merge_counters(&mut out.counters, cluster.sim.health().flattened());
        (
            honest.count as f64 / window_s,
            honest.p99 as f64 / 1e3,
            shed,
            busy,
        )
    };

    let (base_goodput, base_p99, _, _) = run_point(Flooder::None);
    out.results.push(BenchResult {
        bench: "overload".to_string(),
        workload: "no-flood".to_string(),
        metrics: metrics(&[
            ("honest_goodput_ops_per_sec", base_goodput),
            ("honest_p99_us", base_p99),
        ]),
    });
    let point = |goodput: f64, p99: f64, shed: u64, busy: u64| {
        metrics(&[
            ("honest_goodput_ops_per_sec", goodput),
            ("honest_p99_us", p99),
            (
                "goodput_retained_pct",
                100.0 * goodput / base_goodput.max(1.0),
            ),
            ("requests_shed", shed as f64),
            ("busy_sent", busy as f64),
        ])
    };
    for mult in [1u64, 2, 4, 8, 16] {
        let offered = base_goodput.max(1.0) * mult as f64;
        let interval = ((1e9 / offered) as u64).max(1);
        let (goodput, p99, shed, busy) = run_point(Flooder::Abusive(interval));
        out.results.push(BenchResult {
            bench: "overload".to_string(),
            workload: format!("{mult}x-flood"),
            metrics: point(goodput, p99, shed, busy),
        });
    }
    // Contrast point: the same 16× offered load from a client that stays
    // closed-loop (skips offers while one is outstanding) costs the
    // cluster nothing — overload armor is about *abusive* concurrency,
    // not raw offered rate.
    let interval = ((1e9 / (base_goodput.max(1.0) * 16.0)) as u64).max(1);
    let (goodput, p99, shed, busy) = run_point(Flooder::Polite(interval));
    out.results.push(BenchResult {
        bench: "overload".to_string(),
        workload: "16x-polite".to_string(),
        metrics: point(goodput, p99, shed, busy),
    });
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_suite(quick: bool) -> BenchDoc {
    let config = BTreeMap::from([
        ("quick".to_string(), quick.to_string()),
        ("n".to_string(), Config::new(1).n().to_string()),
        ("f".to_string(), "1".to_string()),
        ("seed".to_string(), format!("{SEED:#x}")),
    ]);
    let mut doc = BenchDoc::new(git_rev(), config);
    eprintln!("suite: fig2_latency ...");
    fig2_latency(quick, &mut doc);
    eprintln!("suite: saturation ...");
    saturation(quick, &mut doc);
    eprintln!("suite: breakdown ...");
    breakdown(quick, &mut doc);
    eprintln!("suite: readmix ...");
    readmix(quick, &mut doc);
    eprintln!("suite: recovery ...");
    recovery(quick, &mut doc);
    eprintln!("suite: overload ...");
    overload(quick, &mut doc);
    paper::run(quick, &mut doc);
    doc
}

fn print_doc(doc: &BenchDoc) {
    println!(
        "benchmark suite (schema v{}, rev {})",
        doc.schema_version, doc.git_rev
    );
    for r in &doc.results {
        println!("  {} / {}", r.bench, r.workload);
        for (k, v) in &r.metrics {
            println!("    {k:<32} {v:>12.2}");
        }
    }
    println!("  counters: {} keys", doc.counters.len());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut in_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut threshold: f64 = 10.0;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_path = Some(argv.get(i).expect("--out needs a path").clone());
            }
            "--in" => {
                i += 1;
                in_path = Some(argv.get(i).expect("--in needs a path").clone());
            }
            "--compare" => {
                i += 1;
                compare_path = Some(argv.get(i).expect("--compare needs a path").clone());
            }
            "--threshold" => {
                i += 1;
                threshold = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threshold needs a number");
            }
            other => {
                eprintln!("unknown flag `{other}` (see source header for usage)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let doc = match &in_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
        }
        None => run_suite(quick),
    };

    if let Some(path) = &out_path {
        let json = serde_json::to_string(&doc).expect("document serializes");
        std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    print_doc(&doc);

    println!();
    println!("paper claims (observed | paper | gate)");
    let mut failed = false;
    for claim in paper::CLAIMS {
        let (ok, line) = claim.evaluate(&doc);
        println!("  {line}");
        if !ok {
            eprintln!("FAIL: paper claim {}", claim.id);
            failed = true;
        }
    }

    if let Some(path) = &compare_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let old: BenchDoc =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        match compare(&old, &doc, threshold) {
            Ok(rep) => {
                println!();
                print!("{}", rep.render());
                if rep.ok() {
                    println!("benchmark regression gate passed");
                } else {
                    eprintln!("FAIL: benchmark regression gate");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
