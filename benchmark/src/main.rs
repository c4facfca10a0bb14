//! The repo benchmark: five workloads, two clocks, one command.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] \
//!     [--reps K] [--list] [--check-repeat]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). Without it, every workload runs in a child
//! process of its own — so that `peak_rss_mb` is per workload — and a
//! table of all of them is printed. See `README.md` beside this crate.

mod alloc;
mod drivers;
mod harness;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::{Observe, Sample};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{BfsPostmark, CrashPrimary, NullSat, Payload4k, ReadmixLeases, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Every workload's name and reason, in the order they run.
pub const WORKLOADS: [(&str, &str); 5] = [
    (NullSat::NAME, NullSat::WHY),
    (Payload4k::NAME, Payload4k::WHY),
    (ReadmixLeases::NAME, ReadmixLeases::WHY),
    (BfsPostmark::NAME, BfsPostmark::WHY),
    (CrashPrimary::NAME, CrashPrimary::WHY),
];

/// `--seconds` at which the windows have their nominal sizes.
const NOMINAL_SECONDS: f64 = 10.0;
/// The traced run's windows are this share of the untraced ones: it runs
/// each window three times (untraced, rings, stepped) in one invocation.
const TRACE_SCALE: f64 = 0.5;
/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUPS: usize = 3;

/// One reported value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

/// The result line.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    reps: usize,
    list: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        traced: false,
        reps: 2,
        list: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {v}: want 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                }
            }
            "--traced" => args.traced = true,
            "--reps" => {
                let v = value("a count")?;
                args.reps = v.parse().map_err(|e| format!("--reps {v}: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps 0: want at least one".into());
                }
            }
            "--list" => args.list = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn report(
    sample: &Sample,
    decls: Vec<metrics::Decl>,
    values: Vec<(String, f64)>,
) -> Result<Report, String> {
    let mut by_name: BTreeMap<String, f64> = values.into_iter().collect();
    let mut out = BTreeMap::new();
    for d in decls {
        let value = by_name
            .remove(&d.name)
            .ok_or(format!("metric {} was declared but not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", d.name));
        }
        let unit = d.unit.to_string();
        out.insert(d.name, Value { value, unit });
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("metric {extra} was measured but not declared"));
    }
    Ok(Report {
        correct: true,
        attempted: sample.attempted,
        failed: sample.failed,
        metrics: out,
    })
}

/// The untraced invocation: the end-to-end metrics.
fn end_to_end<W: Workload>(args: &Args) -> Result<Report, String> {
    let scale = args.seconds / NOMINAL_SECONDS;
    let mut setups_s = Vec::new();
    for _ in args.reps..SETUPS {
        setups_s.push(harness::set_up::<W>(args.seed, scale).1);
    }
    let mut reps = Vec::new();
    for _ in 0..args.reps {
        let sample = harness::run::<W>(args.seed, scale, Observe::Nothing, false)?;
        setups_s.push(sample.setup_s);
        reps.push(sample);
    }
    let same_work = |s: &&Sample| {
        s.simulated() == reps[0].simulated() && s.slice_wall_ns.len() == reps[0].slice_wall_ns.len()
    };
    if let Some(other) = reps.iter().find(|s| !same_work(s)) {
        return Err(format!(
            "two runs of seed {} differ in simulated results:\n{:?}\n{:?}",
            args.seed,
            reps[0].simulated(),
            other.simulated()
        ));
    }
    let values = metrics::end_to_end_values(&reps, setups_s, peak_rss_mb()?);
    report(&reps[0], metrics::end_to_end(), values)
}

/// The traced invocation: the per-layer metrics.
fn per_layer<W: Workload>(args: &Args) -> Result<Report, String> {
    let scale = args.seconds / NOMINAL_SECONDS * TRACE_SCALE;
    let plain = harness::run::<W>(args.seed, scale, Observe::Nothing, false)?;
    let rings = harness::run::<W>(args.seed, scale, Observe::Rings, true)?;
    let mut fold = trace::TraceFold::default();
    let mut timer = trace::StepTimer::new();
    let steps = harness::run::<W>(
        args.seed,
        scale,
        Observe::Steps(&mut fold, &mut timer),
        false,
    )?;
    for observed in [&rings, &steps] {
        if observed.simulated() != plain.simulated() {
            return Err("observing the run changed its simulated results".into());
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", W::NAME));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| timer.write_spans(&path, W::NAME, args.seed))
    {
        eprintln!("warning: spans not written to {}: {e}", path.display());
    }
    let mut values = metrics::layer_values(&plain, &rings, &steps, &fold, &timer);
    values.extend(layers::measure(args.seed));
    report(&plain, metrics::per_layer(), values)
}

fn run_here<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.traced {
        per_layer::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn dispatch(name: &str, args: &Args) -> Result<Report, String> {
    match name {
        NullSat::NAME => run_here::<NullSat>(args),
        Payload4k::NAME => run_here::<Payload4k>(args),
        ReadmixLeases::NAME => run_here::<ReadmixLeases>(args),
        BfsPostmark::NAME => run_here::<BfsPostmark>(args),
        CrashPrimary::NAME => run_here::<CrashPrimary>(args),
        other => Err(format!("unknown workload {other}; see --list")),
    }
}

fn print_report(name: &str, r: &Report) {
    println!(
        "{name}: {} attempted, {} failed ({:.6} of attempted)",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64
    );
    for (metric, v) in &r.metrics {
        println!("  {metric:<44} {:>16.4} {}", v.value, v.unit);
    }
}

/// Runs one workload in a child process and parses its result line.
fn run_child(name: &str, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args(["--reps", &args.reps.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("workload {name} failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("result line of {name}: {e}"))
}

fn run_all(args: &Args) -> Result<Vec<Report>, String> {
    WORKLOADS
        .iter()
        .map(|(name, _)| {
            let r = run_child(name, args)?;
            print_report(name, &r);
            Ok(r)
        })
        .collect()
}

/// Two complete sets of one commit must agree: simulated metrics and
/// counts exactly, the rest within the bounds the benchmark declares.
fn check_repeat(args: &Args) -> Result<(), String> {
    let bounds: BTreeMap<String, (f64, metrics::Better)> = metrics::end_to_end()
        .into_iter()
        .filter_map(|d| Some((d.name, (d.bound?, d.better))))
        .collect();
    let first = run_all(args)?;
    let second = run_all(args)?;
    let mut complaints = Vec::new();
    for (((name, _), a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        if (a.attempted, a.failed) != (b.attempted, b.failed) {
            complaints.push(format!("{name}: attempted/failed differ"));
        }
        for (metric, va) in &a.metrics {
            let vb = &b.metrics[metric];
            let (bound, better) = bounds[metric];
            let exact = metric.starts_with("sim_");
            let worse = match better {
                metrics::Better::Lower => (vb.value - va.value) / va.value,
                metrics::Better::Higher => (va.value - vb.value) / va.value,
            };
            if (exact && va.value != vb.value) || worse.abs() > bound {
                complaints.push(format!(
                    "{name}: {metric} was {} then {} (bound {bound})",
                    va.value, vb.value
                ));
            }
        }
    }
    if complaints.is_empty() {
        println!("check-repeat: two sets agree");
        Ok(())
    } else {
        Err(complaints.join("\n"))
    }
}

fn list() {
    for (name, why) in WORKLOADS {
        println!("workload    {name}: {why}");
    }
    for d in metrics::end_to_end() {
        let bound = d.bound.expect("end-to-end metrics are bounded");
        println!(
            "end_to_end  {} {} {} {bound}",
            d.name,
            d.unit,
            d.better.word()
        );
    }
    for d in metrics::per_layer() {
        println!("per_layer   {} {} {}", d.name, d.unit, d.better.word());
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.list {
            list();
            Ok(())
        } else if args.check_repeat {
            check_repeat(&args)
        } else if let Some(name) = &args.workload {
            let r = dispatch(name, &args)?;
            print_report(name, &r);
            let line = serde_json::to_string(&r).map_err(|e| format!("result line: {e}"))?;
            println!("{line}");
            Ok(())
        } else {
            run_all(&args).map(|_| ())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
