//! The `paper` family of `suite`: every figure, §4.4 text claim and
//! ablation of the DSN 2001 evaluation as gated sim-clock rows, plus one
//! table of the shapes the paper claims for them.
//!
//! Each distinct simulation is one `Cell`. Figures that plot the same
//! simulation name equal cells — Fig. 4's 0/0 RW column *is* Fig. 6's
//! batched column — and [`run`] runs each once, fanned out over
//! `std::thread::scope` and collected by key, so the document is
//! byte-identical whatever the thread order.
//!
//! [`CLAIMS`] turns each shape into a predicate over the document alone:
//! `suite --in DOC` re-checks the claims without simulating, and every
//! claim prints next to the paper's own number, so the slack between the
//! reproduction and the paper is one visible figure per claim.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::suite::{metrics, BenchDoc, BenchResult};
use bft_core::prelude::*;
use bft_core::wire::Wire;
use bft_fs::client::NfsClientConfig;
use bft_fs::disk::ServerMode;
use bft_fs::ops::{NfsOp, ROOT_FH};
use bft_fs::service::FsService;
use bft_workloads::harness::{bft_throughput_windowed, norep_throughput_windowed};
use bft_workloads::{
    andrew_script, bft_latency, norep_latency, postmark_script, run_bfs, run_direct_fs,
    AndrewTimings, FsRun, MicroDriver, OpShape, PostmarkConfig, Script, SimpleService,
};

/// The `bench` name of every row this module records.
pub const FAMILY: &str = "paper";

const MEAN_US: &str = "mean_us";
const OPS: &str = "ops_per_sec";
const ELAPSED_S: &str = "elapsed_s";
const TXN: &str = "txn_per_sec";

/// Closed-loop operations measured per latency cell (after 10 warm-up).
const LATENCY_SAMPLES: u64 = 60;

/// One distinct simulation. A `None` configuration is the unreplicated
/// NO-REP server.
#[derive(Debug, Clone)]
enum Cell {
    /// Mean single-client invocation latency.
    Latency(Option<Config>, OpShape),
    /// Closed-loop throughput over a window after a warm-up.
    Throughput {
        cfg: Option<Config>,
        clients: u32,
        op: OpShape,
        warmup_ns: u64,
        window_ns: u64,
    },
    /// Elapsed time of the modified Andrew benchmark with `copies`.
    Andrew(u32, ServerMode),
    /// PostMark transactions per second.
    PostMark(ServerMode),
    /// Time from a primary crash until service resumes, less the
    /// detection timeout, at fault threshold `f`.
    ViewChange(u32),
    /// Simulated checkpoint digest CPU per checkpoint.
    Checkpoint { files: u32, incremental: bool },
}

impl Cell {
    fn run(&self) -> BTreeMap<String, f64> {
        match self {
            Cell::Latency(cfg, op) => {
                let s = match cfg {
                    Some(cfg) => bft_latency(cfg.clone(), *op, LATENCY_SAMPLES),
                    None => norep_latency(*op, LATENCY_SAMPLES),
                };
                metrics(&[(MEAN_US, s.mean / 1e3)])
            }
            Cell::Throughput {
                cfg,
                clients,
                op,
                warmup_ns,
                window_ns,
            } => {
                let t = match cfg {
                    Some(cfg) => {
                        bft_throughput_windowed(cfg.clone(), *clients, *op, *warmup_ns, *window_ns)
                    }
                    None => norep_throughput_windowed(*clients, *op, *warmup_ns, *window_ns),
                };
                metrics(&[(OPS, t.ops_per_sec), ("drops", t.drops as f64)])
            }
            Cell::Andrew(copies, server) => {
                let run = run_fs(andrew_script(*copies, AndrewTimings::default()), *server);
                metrics(&[(ELAPSED_S, run.elapsed_secs())])
            }
            Cell::PostMark(server) => {
                let run = run_fs(postmark_script(PostmarkConfig::default()), *server);
                metrics(&[(TXN, run.marks_per_sec())])
            }
            Cell::ViewChange(f) => metrics(&[(ELAPSED_S, view_change_ns(*f) as f64 / 1e9)]),
            Cell::Checkpoint { files, incremental } => {
                metrics(&[(MEAN_US, checkpoint_ns(*files, *incremental) / 1e3)])
            }
        }
    }
}

fn run_fs(script: Script, server: ServerMode) -> FsRun {
    let client = NfsClientConfig::default();
    match server {
        ServerMode::Bfs => run_bfs(Config::new(1), script, client),
        direct => run_direct_fs(direct, script, client),
    }
}

/// Crashes the primary of a loaded cluster and measures until operations
/// complete again under the new primary.
fn view_change_ns(f: u32) -> u64 {
    let mut cfg = Config::new(f);
    cfg.view_change_timeout_ns = dur::millis(300);
    cfg.client_retry_timeout_ns = dur::millis(100);
    let timeout = cfg.view_change_timeout_ns;
    let mut cluster = Cluster::new(99, NetConfig::SWITCHED_100MBPS, cfg, |_| SimpleService);
    for _ in 0..5 {
        cluster.add_client(MicroDriver::new(8, 8, false));
    }
    cluster.run_for(dur::millis(50));
    let before = cluster.completed_ops();
    assert!(before > 0, "no operations completed before the crash");
    cluster
        .replica_mut::<SimpleService>(0)
        .set_behavior(Behavior::Crashed);
    let crash_at = cluster.sim.now().nanos();
    for _ in 0..400 {
        cluster.run_for(dur::millis(10));
        let view_changed =
            (1..cluster.cfg.n()).all(|r| cluster.replica::<SimpleService>(r).view() >= 1);
        if view_changed && cluster.completed_ops() > before + 20 {
            // Subtract the deliberate detection timeout to isolate
            // protocol time.
            return (cluster.sim.now().nanos() - crash_at).saturating_sub(timeout);
        }
    }
    panic!("f = {f}: cluster did not recover from a primary crash");
}

/// A BFS service holding `files` empty files under the root, populated
/// outside the protocol so every replica starts from the same state
/// without paying agreement for the setup ops.
fn populated(files: u32) -> FsService {
    let mut svc = FsService::for_benchmarks(ServerMode::Bfs);
    for i in 0..files {
        svc.apply_encoded(
            &NfsOp::Create {
                dir: ROOT_FH,
                name: format!("f{i}"),
            }
            .to_bytes(),
        );
    }
    svc.commit_prefix(usize::MAX);
    svc
}

/// Submits `remaining` 1 KiB writes to the first created file, one at a
/// time, so every checkpoint dirties the same few partitions.
struct WriteDriver {
    remaining: u64,
    op: Vec<u8>,
}

impl WriteDriver {
    fn submit(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            api.submit(self.op.clone(), false);
        }
    }
}

impl ClientDriver for WriteDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.submit(api);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
        self.submit(api);
    }
}

/// Mean simulated checkpoint digest cost (ns per checkpoint) over a BFS
/// cluster holding `files` files, full recompute or incremental.
fn checkpoint_ns(files: u32, incremental: bool) -> f64 {
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 16;
    cfg.log_window = 32;
    cfg.incremental_checkpoints = incremental;
    let template = populated(files);
    let mut cluster = Cluster::new(31, NetConfig::SWITCHED_100MBPS, cfg, |_| template.clone());
    cluster.add_client(WriteDriver {
        remaining: 96,
        op: NfsOp::Write {
            fh: 2,
            offset: 0,
            data: vec![7; 1024],
        }
        .to_bytes(),
    });
    cluster.run_for(dur::secs(60));
    let made = cluster.sim.health().total(Counter::CheckpointsMade);
    let spent = cluster.sim.health().total(Counter::CheckpointDigestNs);
    assert!(made > 0, "no checkpoints happened");
    spent as f64 / made as f64
}

type Rows = Vec<(String, Cell)>;

/// Pushes one row per point, named by `name` with `{}` replaced by the
/// point.
fn sweep<P: Copy + Display>(rows: &mut Rows, name: &str, points: &[P], cell: impl Fn(P) -> Cell) {
    for &p in points {
        rows.push((name.replace("{}", &p.to_string()), cell(p)));
    }
}

/// The paper's default configuration with one knob turned.
fn with(tweak: impl FnOnce(&mut Config)) -> Option<Config> {
    let mut cfg = Config::new(1);
    tweak(&mut cfg);
    Some(cfg)
}

/// Every row of the family, in document order. Quick mode shortens the
/// throughput windows and keeps the client counts and sizes each claim
/// reads; the full mode is every point the paper's figures plot.
fn rows(quick: bool) -> Rows {
    let pick = |quick_points: &'static [u32], full: &'static [u32]| {
        if quick {
            quick_points
        } else {
            full
        }
    };
    let windows_ms = |quick_ms: (u64, u64), full_ms: (u64, u64)| {
        let (warmup, window) = if quick { quick_ms } else { full_ms };
        (dur::millis(warmup), dur::millis(window))
    };
    let windowed = |cfg: &Option<Config>, clients, op, (warmup_ns, window_ns)| Cell::Throughput {
        cfg: cfg.clone(),
        clients,
        op,
        warmup_ns,
        window_ns,
    };
    let tput_windows = windows_ms((500, 500), (2_000, 2_000));
    // A figure's throughput series: `op` under `cfg`, by client count.
    let tput = |cfg: &Option<Config>, op| {
        let cfg = cfg.clone();
        move |clients| windowed(&cfg, clients, op, tput_windows)
    };
    let lat = |cfg: &Option<Config>, op| Cell::Latency(cfg.clone(), op);
    let (rw, ro) = (OpShape::rw, OpShape::ro);

    let bft = Some(Config::new(1));
    let norep = None;
    let f2 = Some(Config::new(2));
    let ndr = with(|c| c.opts.digest_replies = false);
    let unbatched = with(|c| c.opts.batching = false);
    let nosrt = with(|c| c.opts.separate_request_transmission = false);
    let no_te = with(|c| c.opts.tentative_execution = false);
    let piggyback = with(|c| c.opts.piggyback_commits = true);

    let mut rows = Rows::new();
    let r = &mut rows;
    let fig2 = [0, 256, 1024, 2048, 4096, 6144, 8192];
    sweep(r, "fig2/rw/{}B", &fig2, |b| lat(&bft, rw(8, b)));
    sweep(r, "fig2/ro/{}B", &fig2, |b| lat(&bft, ro(8, b)));
    sweep(r, "fig2/norep/{}B", &fig2, |b| lat(&norep, rw(8, b)));
    let fig3 = [0, 256, 1024, 2048, 4096, 8192];
    sweep(r, "fig3/rw-f1/{}B", &fig3, |a| lat(&bft, rw(a, 8)));
    sweep(r, "fig3/rw-f2/{}B", &fig3, |a| lat(&f2, rw(a, 8)));
    sweep(r, "fig3/ro-f1/{}B", &fig3, |a| lat(&bft, ro(a, 8)));
    sweep(r, "fig3/ro-f2/{}B", &fig3, |a| lat(&f2, ro(a, 8)));
    let fig4 = pick(&[1, 5, 20, 200], &[1, 5, 10, 15, 20, 30, 50, 100, 150, 200]);
    sweep(r, "fig4/0-0/rw/{}c", fig4, tput(&bft, rw(0, 0)));
    sweep(r, "fig4/0-0/ro/{}c", fig4, tput(&bft, ro(0, 0)));
    sweep(r, "fig4/0-0/norep/{}c", fig4, tput(&norep, rw(0, 0)));
    sweep(r, "fig4/0-4/rw/{}c", fig4, tput(&bft, rw(0, 4096)));
    sweep(r, "fig4/0-4/ro/{}c", fig4, tput(&bft, ro(0, 4096)));
    sweep(r, "fig4/0-4/norep/{}c", fig4, tput(&norep, rw(0, 4096)));
    sweep(r, "fig4/4-0/rw/{}c", fig4, tput(&bft, rw(4096, 0)));
    sweep(r, "fig4/4-0/ro/{}c", fig4, tput(&bft, ro(4096, 0)));
    sweep(r, "fig4/4-0/norep/{}c", fig4, tput(&norep, rw(4096, 0)));
    let sizes = [0, 1024, 4096, 8192];
    sweep(r, "fig5/latency/bft/{}B", &sizes, |b| lat(&bft, rw(8, b)));
    sweep(r, "fig5/latency/ndr/{}B", &sizes, |b| lat(&ndr, rw(8, b)));
    let fig5 = pick(&[30, 200], &[10, 30, 50, 100, 200]);
    sweep(r, "fig5/0-4/bft/{}c", fig5, tput(&bft, rw(0, 4096)));
    sweep(r, "fig5/0-4/ndr/{}c", fig5, tput(&ndr, rw(0, 4096)));
    let fig6 = pick(&[5, 20, 200], &[1, 5, 10, 20, 50, 100, 200]);
    sweep(r, "fig6/0-0/on/{}c", fig6, tput(&bft, rw(0, 0)));
    sweep(r, "fig6/0-0/off/{}c", fig6, tput(&unbatched, rw(0, 0)));
    r.push(("fig6/latency/on".into(), lat(&bft, rw(0, 0))));
    r.push(("fig6/latency/off".into(), lat(&unbatched, rw(0, 0))));
    sweep(r, "fig7/latency/srt/{}B", &sizes, |a| lat(&bft, rw(a, 8)));
    sweep(r, "fig7/latency/nosrt/{}B", &sizes, |a| {
        lat(&nosrt, rw(a, 8))
    });
    let fig7 = pick(&[30], &[10, 30, 50, 100]);
    sweep(r, "fig7/4-0/srt/{}c", fig7, tput(&bft, rw(4096, 0)));
    sweep(r, "fig7/4-0/nosrt/{}c", fig7, tput(&nosrt, rw(4096, 0)));
    sweep(r, "te/latency/on/{}B", &sizes, |a| lat(&bft, rw(a, 0)));
    sweep(r, "te/latency/off/{}B", &sizes, |a| lat(&no_te, rw(a, 0)));
    sweep(r, "te/0-0/on/{}c", &[100], tput(&bft, rw(0, 0)));
    sweep(r, "te/0-0/off/{}c", &[100], tput(&no_te, rw(0, 0)));
    let pb = pick(&[5, 200], &[5, 20, 50, 200]);
    sweep(r, "piggyback/0-0/on/{}c", pb, tput(&piggyback, rw(0, 0)));
    sweep(r, "piggyback/0-0/off/{}c", pb, tput(&bft, rw(0, 0)));
    r.push(("piggyback/latency/on".into(), lat(&piggyback, rw(0, 0))));
    r.push(("piggyback/latency/off".into(), lat(&bft, rw(0, 0))));
    let servers = [
        ("bfs", ServerMode::Bfs),
        ("norep", ServerMode::NoRep),
        ("nfsstd", ServerMode::NfsStd),
    ];
    for (system, server) in servers {
        let andrew = pick(&[20], &[100, 500]);
        sweep(r, &format!("fig8/{system}/andrew{{}}"), andrew, |n| {
            Cell::Andrew(n, server)
        });
    }
    for (system, server) in servers {
        r.push((format!("fig9/{system}"), Cell::PostMark(server)));
    }
    sweep(r, "viewchange/f{}", &[1, 2, 3], Cell::ViewChange);
    // Proactive recovery on `ablation_recovery`'s K = 64 cluster. The
    // quick window still spans a recovery of every replica (the first
    // fires at period/n × (id + 1)) and a key refresh.
    let recovery_windows = windows_ms((1_000, 5_000), (2_000, 10_000));
    let periods: &[(&str, u64, u64)] = if quick {
        &[("none", 0, 0), ("keys-5s", 5, 0), ("recover-5s", 0, 5)]
    } else {
        &[
            ("none", 0, 0),
            ("keys-5s", 5, 0),
            ("recover-20s", 0, 20),
            ("recover-10s", 0, 10),
            ("recover-5s", 0, 5),
        ]
    };
    for &(label, keys_s, recover_s) in periods {
        let cfg = with(|c| {
            c.checkpoint_interval = 64;
            c.log_window = 128;
            c.key_refresh_interval_ns = dur::secs(keys_s);
            c.proactive_recovery_interval_ns = dur::secs(recover_s);
        });
        let cell = windowed(&cfg, 30, rw(0, 0), recovery_windows);
        r.push((format!("proactive-recovery/{label}"), cell));
    }
    // The protocol parameters around the paper's defaults (W = 2,
    // 64-request batches, K = 128), 0/0 at 50 clients.
    let params_windows = windows_ms((500, 500), (1_000, 2_000));
    let params = |tweak: &dyn Fn(&mut Config)| windowed(&with(tweak), 50, rw(0, 0), params_windows);
    let batch_windows = pick(&[2, 8], &[1, 2, 4, 8]);
    sweep(r, "params/window/{}", batch_windows, |w| {
        params(&|c| c.batch_window = w.into())
    });
    sweep(r, "params/window-latency/{}", batch_windows, |w| {
        lat(&with(|c| c.batch_window = w.into()), rw(0, 0))
    });
    let max_batch = pick(&[1, 256], &[1, 8, 16, 64, 256]);
    sweep(r, "params/max-batch/{}", max_batch, |m| {
        params(&|c| {
            c.max_batch_requests = m as usize;
            c.max_batch_bytes = 64 * 1024;
        })
    });
    if !quick {
        let k = [16, 64, 128, 256];
        sweep(r, "params/checkpoint-interval/{}", &k, |k| {
            params(&|c| {
                c.checkpoint_interval = k;
                c.log_window = 2 * k;
            })
        });
    }
    for (mode, incremental) in [("full", false), ("incremental", true)] {
        let name = format!("checkpoint/{mode}/{{}}-files");
        sweep(r, &name, &[100, 1_000, 10_000], |files| Cell::Checkpoint {
            files,
            incremental,
        });
    }
    rows
}

/// Runs every distinct cell of the family once, on as many threads as
/// the host offers, and appends one `paper` row per figure point.
pub fn run(quick: bool, doc: &mut BenchDoc) {
    // Two rows hold the same simulation exactly when their cells print
    // the same: the `Debug` form spells out every configuration field.
    let mut cells: BTreeMap<String, Cell> = BTreeMap::new();
    let rows: Vec<(String, String)> = rows(quick)
        .into_iter()
        .map(|(workload, cell)| {
            let key = format!("{cell:?}");
            cells.entry(key.clone()).or_insert(cell);
            (workload, key)
        })
        .collect();
    let queue: Vec<(&String, &Cell)> = cells.iter().collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(queue.len());
    eprintln!(
        "suite: paper ({} rows, {} distinct simulations, {threads} threads) ...",
        rows.len(),
        queue.len()
    );
    let next = AtomicUsize::new(0);
    let measured: BTreeMap<&String, BTreeMap<String, f64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    // Relaxed: the counter only hands out queue indices;
                    // the queue itself is never written.
                    while let Some(&(key, cell)) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((key, cell.run()));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a paper simulation panicked"))
            .collect()
    });
    for (workload, key) in rows {
        doc.results.push(BenchResult {
            bench: FAMILY.to_string(),
            workload,
            metrics: measured[&key].clone(),
        });
    }
}

/// How an observed value must relate to a claim's bound.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// Strictly greater than.
    Above(f64),
    /// Greater than or equal to.
    AtLeast(f64),
    /// Strictly less than.
    Below(f64),
    /// Exactly equal to.
    Equals(f64),
}

impl Gate {
    fn holds(self, v: f64) -> bool {
        match self {
            Gate::Above(b) => v > b,
            Gate::AtLeast(b) => v >= b,
            Gate::Below(b) => v < b,
            Gate::Equals(b) => v == b,
        }
    }

    fn render(self, unit: &str) -> String {
        let (op, b) = match self {
            Gate::Above(b) => (">", b),
            Gate::AtLeast(b) => (">=", b),
            Gate::Below(b) => ("<", b),
            Gate::Equals(b) => ("==", b),
        };
        format!("{op} {b}{unit}")
    }
}

/// One shape the paper claims, as a predicate over a document.
pub struct Claim {
    /// Stable name, printed first and used by the gate's failure line.
    pub id: &'static str,
    /// What the observed value is.
    pub what: &'static str,
    /// The paper's own number or wording for it.
    pub paper: &'static str,
    /// Unit suffix of the observed value and the bound.
    pub unit: &'static str,
    /// Pass condition on the observed value.
    pub gate: Gate,
    observe: fn(&BenchDoc) -> Result<f64, String>,
}

impl Claim {
    /// Evaluates the claim against `doc`: whether it holds, and the line
    /// `id what observed | paper … | gate … | ok` that reports it.
    pub fn evaluate(&self, doc: &BenchDoc) -> (bool, String) {
        let (ok, observed) = match (self.observe)(doc) {
            Ok(v) => (self.gate.holds(v), format!("{v:.3}{}", self.unit)),
            Err(e) => (false, e),
        };
        let line = format!(
            "{} {} {observed} | paper {} | gate {} | {}",
            self.id,
            self.what,
            self.paper,
            self.gate.render(self.unit),
            if ok { "ok" } else { "FAIL" }
        );
        (ok, line)
    }
}

fn missing(what: &str) -> String {
    format!("missing {what}")
}

/// A `paper` row's metric.
fn value(d: &BenchDoc, workload: &str, metric: &str) -> Result<f64, String> {
    d.result(FAMILY, workload)
        .and_then(|r| r.metrics.get(metric).copied())
        .ok_or_else(|| missing(&format!("{FAMILY}/{workload}/{metric}")))
}

/// `metric` of every `paper` row under `prefix`, keyed by the rest of
/// the row's name, in document order; an empty series is missing.
fn series<'a>(d: &'a BenchDoc, prefix: &str, metric: &str) -> Result<Vec<(&'a str, f64)>, String> {
    let points: Vec<(&str, f64)> = d
        .results
        .iter()
        .filter(|r| r.bench == FAMILY)
        .filter_map(|r| Some((r.workload.strip_prefix(prefix)?, *r.metrics.get(metric)?)))
        .collect();
    if points.is_empty() {
        return Err(missing(&format!("{FAMILY}/{prefix}*/{metric}")));
    }
    Ok(points)
}

/// The values of [`series`].
fn values(d: &BenchDoc, prefix: &str, metric: &str) -> Result<Vec<f64>, String> {
    Ok(series(d, prefix, metric)?
        .into_iter()
        .map(|(_, v)| v)
        .collect())
}

/// `num/den` at every point of the `num` series, pairing rows by the
/// point that follows the two prefixes.
fn ratios(d: &BenchDoc, num: &str, den: &str, metric: &str) -> Result<Vec<f64>, String> {
    series(d, num, metric)?
        .into_iter()
        .map(|(point, v)| Ok(v / value(d, &format!("{den}{point}"), metric)?))
        .collect()
}

/// Peak throughput under `prefix`. `lossless` skips points whose run
/// dropped a request: NO-REP never retransmits, so the paper plots no
/// NO-REP point once requests are lost.
fn peak(d: &BenchDoc, prefix: &str, lossless: bool) -> Result<f64, String> {
    d.results
        .iter()
        .filter(|r| r.bench == FAMILY && r.workload.starts_with(prefix))
        .filter(|r| !lossless || r.metrics.get("drops") == Some(&0.0))
        .filter_map(|r| r.metrics.get(OPS).copied())
        .reduce(f64::max)
        .ok_or_else(|| missing(&format!("{FAMILY}/{prefix}*")))
}

fn max(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn min(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// `num/den` between two `paper` rows.
fn ratio(d: &BenchDoc, num: &str, den: &str, metric: &str) -> Result<f64, String> {
    Ok(value(d, num, metric)? / value(d, den, metric)?)
}

/// Fig. 2's BFT RW slowdown over NO-REP at a result size.
fn fig2_slowdown(d: &BenchDoc, result: u32) -> Result<f64, String> {
    ratio(
        d,
        &format!("fig2/rw/{result}B"),
        &format!("fig2/norep/{result}B"),
        MEAN_US,
    )
}

/// Fig. 3's RW latency at f = 2 over f = 1, by argument size.
fn fig3_f2_costs(d: &BenchDoc) -> Result<Vec<f64>, String> {
    ratios(d, "fig3/rw-f2/", "fig3/rw-f1/", MEAN_US)
}

/// Latency saved by tentative execution at an argument size, percent.
fn te_saving(d: &BenchDoc, arg: u32) -> Result<f64, String> {
    let on_off = ratio(
        d,
        &format!("te/latency/on/{arg}B"),
        &format!("te/latency/off/{arg}B"),
        MEAN_US,
    )?;
    Ok((1.0 - on_off) * 100.0)
}

/// Piggybacked-commit throughput gain at a client count.
fn piggyback_gain(d: &BenchDoc, clients: u32) -> Result<f64, String> {
    ratio(
        d,
        &format!("piggyback/0-0/on/{clients}c"),
        &format!("piggyback/0-0/off/{clients}c"),
        OPS,
    )
}

/// Incremental checkpoint speed-up over full recompute, by state size.
fn checkpoint_speedups(d: &BenchDoc) -> Result<Vec<f64>, String> {
    ratios(d, "checkpoint/full/", "checkpoint/incremental/", MEAN_US)
}

/// Every shape assertion of the paper's figures and ablations, one row
/// each. `suite` exits non-zero when any fails.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "fig2-slowdown-falls",
        what: "BFT RW/NO-REP latency, 8 KB over 0 B result",
        paper: "several × falling toward 1.26×",
        unit: "×",
        gate: Gate::Below(1.0),
        observe: |d| Ok(fig2_slowdown(d, 8192)? / fig2_slowdown(d, 0)?),
    },
    Claim {
        id: "fig2-asymptote",
        what: "BFT RW/NO-REP latency at 8 KB result",
        paper: "1.26×",
        unit: "×",
        gate: Gate::Below(2.0),
        observe: |d| fig2_slowdown(d, 8192),
    },
    Claim {
        id: "fig3-f2-cost",
        what: "worst RW latency f=2/f=1",
        paper: "1.30×",
        unit: "×",
        gate: Gate::Below(1.6),
        observe: |d| Ok(max(fig3_f2_costs(d)?)),
    },
    Claim {
        id: "fig3-f2-shrinks",
        what: "RW f=2/f=1 at 8 KB over the worst",
        paper: "decreases quickly with size",
        unit: "×",
        gate: Gate::Below(1.0),
        observe: |d| {
            let at_8k = ratio(d, "fig3/rw-f2/8192B", "fig3/rw-f1/8192B", MEAN_US)?;
            Ok(at_8k / max(fig3_f2_costs(d)?))
        },
    },
    Claim {
        id: "fig4-cpu-bound",
        what: "0/0 peak NO-REP/BFT RW",
        paper: "NO-REP above BFT",
        unit: "×",
        gate: Gate::Above(1.0),
        observe: |d| Ok(peak(d, "fig4/0-0/norep/", true)? / peak(d, "fig4/0-0/rw/", false)?),
    },
    Claim {
        id: "fig4-digest-beats-link",
        what: "0/4 peak BFT RW/NO-REP",
        paper: "6625/~3000 = 2.2×",
        unit: "×",
        gate: Gate::Above(1.0),
        observe: |d| Ok(peak(d, "fig4/0-4/rw/", false)? / peak(d, "fig4/0-4/norep/", true)?),
    },
    Claim {
        id: "fig4-ro-above-rw",
        what: "0/4 peak BFT RO/RW",
        paper: "8987/6625 = 1.36×",
        unit: "×",
        gate: Gate::AtLeast(1.0),
        observe: |d| Ok(peak(d, "fig4/0-4/ro/", false)? / peak(d, "fig4/0-4/rw/", false)?),
    },
    Claim {
        id: "fig4-request-link-gap",
        what: "4/0 peak BFT RW vs NO-REP gap",
        paper: "11 %",
        unit: " %",
        gate: Gate::Below(25.0),
        observe: |d| {
            let rw_norep = peak(d, "fig4/4-0/rw/", false)? / peak(d, "fig4/4-0/norep/", true)?;
            Ok((rw_norep - 1.0).abs() * 100.0)
        },
    },
    Claim {
        id: "fig5-digest-replies",
        what: "BFT/BFT-NDR 0/4 peak",
        paper: "up to 3×",
        unit: "×",
        gate: Gate::Above(1.5),
        observe: |d| Ok(max(ratios(d, "fig5/0-4/bft/", "fig5/0-4/ndr/", OPS)?)),
    },
    Claim {
        id: "fig6-batching",
        what: "0/0 peak batched/unbatched",
        paper: "unbatched CPUs saturate early",
        unit: "×",
        gate: Gate::Above(1.5),
        observe: |d| Ok(peak(d, "fig6/0-0/on/", false)? / peak(d, "fig6/0-0/off/", false)?),
    },
    Claim {
        id: "fig6-unloaded-latency",
        what: "0/0 latency batched/unbatched",
        paper: "no added latency",
        unit: "×",
        gate: Gate::Below(1.15),
        observe: |d| ratio(d, "fig6/latency/on", "fig6/latency/off", MEAN_US),
    },
    Claim {
        id: "fig7-latency",
        what: "best SRT latency saving",
        paper: "up to 40 %",
        unit: " %",
        gate: Gate::Above(15.0),
        observe: |d| {
            let srt_nosrt = ratios(d, "fig7/latency/srt/", "fig7/latency/nosrt/", MEAN_US)?;
            Ok((1.0 - min(srt_nosrt)) * 100.0)
        },
    },
    Claim {
        id: "fig7-throughput",
        what: "4/0 peak SRT/NO-SRT",
        paper: "improved (more requests per batch)",
        unit: "×",
        gate: Gate::Above(1.0),
        observe: |d| Ok(peak(d, "fig7/4-0/srt/", false)? / peak(d, "fig7/4-0/nosrt/", false)?),
    },
    Claim {
        id: "te-latency",
        what: "tentative-execution latency saving at 0 B",
        paper: "up to 27 %",
        unit: " %",
        gate: Gate::Above(10.0),
        observe: |d| te_saving(d, 0),
    },
    Claim {
        id: "te-fades",
        what: "TE saving at 8 KB minus at 0 B",
        paper: "decreases quickly with size",
        unit: " pp",
        gate: Gate::Below(0.0),
        observe: |d| Ok(te_saving(d, 8192)? - te_saving(d, 0)?),
    },
    Claim {
        id: "te-throughput",
        what: "TE 0/0 throughput change at 100 clients",
        paper: "insignificant",
        unit: " %",
        gate: Gate::Below(25.0),
        observe: |d| Ok((ratio(d, "te/0-0/on/100c", "te/0-0/off/100c", OPS)? - 1.0).abs() * 100.0),
    },
    Claim {
        id: "piggyback-few-clients",
        what: "piggyback gain at 5 over 200 clients",
        paper: "1.33×/1.03× = 1.29×",
        unit: "×",
        gate: Gate::Above(1.0),
        observe: |d| Ok(piggyback_gain(d, 5)? / piggyback_gain(d, 200)?),
    },
    Claim {
        id: "piggyback-latency",
        what: "piggyback unloaded latency change",
        paper: "negligible",
        unit: " %",
        gate: Gate::Below(10.0),
        observe: |d| {
            let on_off = ratio(d, "piggyback/latency/on", "piggyback/latency/off", MEAN_US)?;
            Ok((on_off - 1.0).abs() * 100.0)
        },
    },
    Claim {
        id: "fig8-overhead",
        what: "worst Andrew BFS/NO-REP elapsed",
        paper: "1.14× (n=100) / 1.22× (n=500)",
        unit: "×",
        gate: Gate::Below(1.6),
        observe: |d| Ok(max(ratios(d, "fig8/bfs/", "fig8/norep/", ELAPSED_S)?)),
    },
    Claim {
        id: "fig8-replication-costs",
        what: "least Andrew BFS/NO-REP elapsed",
        paper: "1.14× (n=100)",
        unit: "×",
        gate: Gate::Above(1.0),
        observe: |d| Ok(min(ratios(d, "fig8/bfs/", "fig8/norep/", ELAPSED_S)?)),
    },
    Claim {
        id: "fig9-vs-norep",
        what: "PostMark BFS below NO-REP",
        paper: "47 %",
        unit: " %",
        gate: Gate::Above(20.0),
        observe: |d| Ok((1.0 - ratio(d, "fig9/bfs", "fig9/norep", TXN)?) * 100.0),
    },
    Claim {
        id: "fig9-nfsstd-closes-gap",
        what: "PostMark NFS-STD/NO-REP",
        paper: "0.53/0.87 = 0.61×",
        unit: "×",
        gate: Gate::Below(1.0),
        observe: |d| ratio(d, "fig9/nfsstd", "fig9/norep", TXN),
    },
    Claim {
        id: "viewchange-recovery",
        what: "slowest view-change recovery, f=1..3",
        paper: "not measured (no view changes)",
        unit: " s",
        gate: Gate::Below(2.0),
        observe: |d| Ok(max(values(d, "viewchange/", ELAPSED_S)?)),
    },
    Claim {
        id: "proactive-recovery-cost",
        what: "worst recovering/no-recovery 0/0 throughput",
        paper: "small (OSDI '00)",
        unit: "×",
        gate: Gate::Above(0.5),
        observe: |d| {
            let worst = min(values(d, "proactive-recovery/recover-", OPS)?);
            Ok(worst / value(d, "proactive-recovery/none", OPS)?)
        },
    },
    Claim {
        id: "params-batch-size",
        what: "throughput at 256 over 1 request per batch",
        paper: "batching amortizes the protocol",
        unit: "×",
        gate: Gate::Above(2.0),
        observe: |d| ratio(d, "params/max-batch/256", "params/max-batch/1", OPS),
    },
    Claim {
        id: "params-window",
        what: "throughput at W=2 over W=8",
        paper: "a small window suffices",
        unit: "×",
        gate: Gate::AtLeast(0.8),
        observe: |d| ratio(d, "params/window/2", "params/window/8", OPS),
    },
    Claim {
        id: "checkpoint-speedup",
        what: "incremental checkpoint speed-up at the largest state",
        paper: "O(dirty), not O(state)",
        unit: "×",
        gate: Gate::AtLeast(5.0),
        observe: |d| Ok(*checkpoint_speedups(d)?.last().expect("series is non-empty")),
    },
    Claim {
        id: "checkpoint-speedup-grows",
        what: "smallest step in speed-up as state grows",
        paper: "the advantage widens with state",
        unit: "×",
        gate: Gate::Above(1.0),
        observe: |d| {
            let s = checkpoint_speedups(d)?;
            let steps = s.windows(2).map(|w| w[1] / w[0]).collect::<Vec<_>>();
            if steps.is_empty() {
                return Err(missing("a second checkpoint state size"));
            }
            Ok(min(steps))
        },
    },
    Claim {
        id: "readmix-leased-fallbacks",
        what: "leased reads that fell back to ordering",
        paper: "0 (arXiv:2107.11144)",
        unit: "",
        gate: Gate::Equals(0.0),
        observe: |d| {
            d.results
                .iter()
                .filter(|r| r.bench == "readmix" && r.workload.ends_with("-leases"))
                .map(|r| r.metrics.get("ro_fallbacks").copied())
                .reduce(|a, b| Some(a? + b?))
                .flatten()
                .ok_or_else(|| missing("readmix/*-leases/ro_fallbacks"))
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> BenchDoc {
        serde_json::from_str(include_str!("../../../BENCH_56.json")).expect("baseline parses")
    }

    /// Per claim, one series of the baseline (`bench/workload-prefix`
    /// and metric) and a factor (`*`) or offset (`+`) that moves it past
    /// the claim's bound in the wrong direction.
    const MUTATIONS: &str = "
        fig2-slowdown-falls       paper/fig2/rw/8192B                 mean_us       *3
        fig2-asymptote            paper/fig2/rw/8192B                 mean_us       *2
        fig3-f2-cost              paper/fig3/rw-f2/                   mean_us       *1.3
        fig3-f2-shrinks           paper/fig3/rw-f2/8192B              mean_us       *1.5
        fig4-cpu-bound            paper/fig4/0-0/norep/               ops_per_sec   *0.5
        fig4-digest-beats-link    paper/fig4/0-4/rw/                  ops_per_sec   *0.4
        fig4-ro-above-rw          paper/fig4/0-4/ro/                  ops_per_sec   *0.9
        fig4-request-link-gap     paper/fig4/4-0/rw/                  ops_per_sec   *0.7
        fig5-digest-replies       paper/fig5/0-4/bft/                 ops_per_sec   *0.6
        fig6-batching             paper/fig6/0-0/on/                  ops_per_sec   *0.3
        fig6-unloaded-latency     paper/fig6/latency/on               mean_us       *1.2
        fig7-latency              paper/fig7/latency/srt/             mean_us       *2
        fig7-throughput           paper/fig7/4-0/srt/                 ops_per_sec   *0.4
        te-latency                paper/te/latency/on/0B              mean_us       *1.2
        te-fades                  paper/te/latency/on/8192B           mean_us       *0.5
        te-throughput             paper/te/0-0/on/                    ops_per_sec   *2
        piggyback-few-clients     paper/piggyback/0-0/on/5c           ops_per_sec   *0.8
        piggyback-latency         paper/piggyback/latency/on          mean_us       *1.2
        fig8-overhead             paper/fig8/bfs/                     elapsed_s     *1.5
        fig8-replication-costs    paper/fig8/bfs/                     elapsed_s     *0.8
        fig9-vs-norep             paper/fig9/bfs                      txn_per_sec   *1.5
        fig9-nfsstd-closes-gap    paper/fig9/nfsstd                   txn_per_sec   *1.5
        viewchange-recovery       paper/viewchange/                   elapsed_s     *10
        proactive-recovery-cost   paper/proactive-recovery/recover-   ops_per_sec   *0.5
        params-batch-size         paper/params/max-batch/256          ops_per_sec   *0.6
        params-window             paper/params/window/2               ops_per_sec   *0.6
        checkpoint-speedup        paper/checkpoint/incremental/10000  mean_us       *10
        checkpoint-speedup-grows  paper/checkpoint/incremental/10000  mean_us       *2
        readmix-leased-fallbacks  readmix/1pct-writes-leases          ro_fallbacks  +1
    ";

    #[test]
    fn the_committed_baseline_passes_every_claim() {
        let doc = baseline();
        for claim in CLAIMS {
            let (ok, line) = claim.evaluate(&doc);
            assert!(ok, "{line}");
        }
    }

    #[test]
    fn a_series_moved_past_its_bound_fails_its_claim() {
        let mutations: Vec<Vec<&str>> = MUTATIONS
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|f| !f.is_empty())
            .collect();
        let ids: Vec<&str> = mutations.iter().map(|m| m[0]).collect();
        assert_eq!(ids, CLAIMS.iter().map(|c| c.id).collect::<Vec<_>>());
        let base = baseline();
        for (claim, m) in CLAIMS.iter().zip(&mutations) {
            let [_, path, metric, moved] = m[..] else {
                panic!("malformed mutation {m:?}");
            };
            let (op, by) = moved.split_at(1);
            let by: f64 = by.parse().expect("numeric move");
            let mut doc = base.clone();
            let mut hits = 0;
            for r in &mut doc.results {
                if !format!("{}/{}", r.bench, r.workload).starts_with(path) {
                    continue;
                }
                if let Some(v) = r.metrics.get_mut(metric) {
                    *v = if op == "*" { *v * by } else { *v + by };
                    hits += 1;
                }
            }
            assert!(hits > 0, "{}: nothing under {path} has {metric}", claim.id);
            let (ok, line) = claim.evaluate(&doc);
            assert!(!ok, "moved series still passes: {line}");
        }
    }

    #[test]
    fn a_missing_series_fails_every_claim() {
        let empty = BenchDoc::new("test".to_string(), BTreeMap::new());
        for claim in CLAIMS {
            let (ok, line) = claim.evaluate(&empty);
            assert!(!ok && line.contains("missing"), "{line}");
        }
    }

    #[test]
    fn figures_that_plot_one_simulation_share_its_cell() {
        let key = |rows: &Rows, workload: &str| {
            let (_, cell) = rows
                .iter()
                .find(|(w, _)| w == workload)
                .expect("row exists");
            format!("{cell:?}")
        };
        for quick in [true, false] {
            let rows = rows(quick);
            let fig4 = key(&rows, "fig4/0-0/rw/200c");
            assert_eq!(fig4, key(&rows, "fig6/0-0/on/200c"));
            assert_eq!(fig4, key(&rows, "piggyback/0-0/off/200c"));
            assert_eq!(
                key(&rows, "fig4/0-4/rw/200c"),
                key(&rows, "fig5/0-4/bft/200c")
            );
            assert_ne!(fig4, key(&rows, "fig6/0-0/off/200c"));
        }
        let full = rows(false);
        assert_eq!(
            key(&full, "fig4/4-0/rw/30c"),
            key(&full, "fig7/4-0/srt/30c")
        );
        assert_eq!(key(&full, "fig4/0-0/rw/100c"), key(&full, "te/0-0/on/100c"));
    }
}
