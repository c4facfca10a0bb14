//! Runs one workload once: set-up, measured window, drain, correctness
//! gates — untraced, with the trace rings on, or stepped under a timer.

use crate::alloc;
use crate::trace::{StepTimer, TraceFold};
use crate::workloads::{Probe, Shape, Warmup, WindowEnd, Workload};
use bft_core::client::Client;
use bft_core::cluster::Cluster;
use bft_core::invariants::InvariantChecker;
use bft_core::replica::Behavior;
use bft_sim::chaos::{Fault, FaultEvent, FaultPlan, NodeFault};
use bft_sim::trace::CostKind;
use bft_sim::{dur, Counters, HealthReport, SimTime};
use std::time::Instant;

/// The window advances in slices of this much simulated time. Wall time
/// is taken around each slice's advance only, so what happens between
/// slices (folding and clearing the trace rings, harvesting counters) is
/// never timed, and a ring holds one slice's events at most.
const SLICE_NS: u64 = dur::millis(50);
/// Per-node trace ring capacity: several times one slice's events on the
/// busiest node of the busiest workload; the fold checks it never fills.
pub const RING_CAPACITY: usize = 1 << 16;
/// The drain ends when every client is idle, or after this long.
const DRAIN_CAP_NS: u64 = dur::secs(5);
/// A script-terminated window may not outlast this.
const SCRIPT_CAP_NS: u64 = dur::secs(600);

/// What observes the window.
pub enum Observe<'a> {
    /// Nothing: the end-to-end configuration.
    Nothing,
    /// The simulator's trace rings, cleared every slice.
    Rings,
    /// The rings, and a wall-clock timer around every single event.
    Steps(&'a mut TraceFold, &'a mut StepTimer),
}

/// Exact counts over the window, from the simulator's own observers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    /// Replicas in the cluster.
    pub replicas: u64,
    /// Events dispatched.
    pub events: u64,
    /// Wire bytes delivered.
    pub bytes_delivered: u64,
    /// Deliveries dropped by the network or a full socket buffer.
    pub dropped: u64,
    /// Requests executed, summed over replicas.
    pub ops_executed: u64,
    /// Batches executed, summed over replicas.
    pub batches_executed: u64,
    /// BUSY push-backs clients honoured.
    pub busy_received: u64,
    /// The simulator's health registry as the window left it: messages
    /// by wire tag and the protocol event counters.
    pub health: Counters,
    /// Simulated CPU charged by the replicas, by cost kind (ns).
    pub cpu_ns: [u64; CostKind::COUNT],
    /// Highest view among the live replicas when the window closed.
    pub max_view: u64,
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Operations submitted (open loop: due) in the window.
    pub attempted: u64,
    /// Operations still unfinished after the drain.
    pub failed: u64,
    /// Operations completed while the window was open.
    pub window_ops: u64,
    /// Simulated length of the window (ns).
    pub sim_window_ns: u64,
    /// Latency of every measured operation, sorted (ns).
    pub latencies_ns: Vec<u64>,
    /// Open loop: how late each submission ran, sorted (ns).
    pub late_ns: Vec<u64>,
    /// Crash instant to the first completion after the silence (ns).
    pub outage_ns: u64,
    /// Window counts.
    pub counts: Counts,
    /// Wall seconds from the start of `build` to the open window.
    pub setup_s: f64,
    /// Wall nanoseconds spent advancing each slice of the window. For
    /// one seed every run's slices do identical work.
    pub slice_wall_ns: Vec<u64>,
    /// Allocations made while the window advanced (0 unless counting).
    pub allocs: alloc::Tally,
}

impl Sample {
    /// Wall seconds spent advancing the window.
    pub fn wall_window_s(&self) -> f64 {
        self.slice_wall_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// The part of a sample that must repeat exactly for one seed.
    pub fn simulated(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            (self.attempted, self.failed, self.window_ops),
            (self.sim_window_ns, self.outage_ns),
            (&self.latencies_ns, &self.late_ns, &self.counts),
        )
    }
}

fn clients_of<W: Workload>(cluster: &Cluster) -> impl Iterator<Item = &Client<W::Drv>> {
    cluster
        .clients
        .iter()
        .map(|&id| cluster.client::<W::Drv>(id))
}

fn for_each_driver<W: Workload>(cluster: &mut Cluster, mut f: impl FnMut(&mut W::Drv)) {
    for id in cluster.clients.clone() {
        f(cluster.client_mut::<W::Drv>(id).driver_mut());
    }
}

fn crash_plan(at_ns: u64) -> FaultPlan {
    FaultPlan {
        events: vec![FaultEvent {
            at_ns,
            fault: Fault::Node {
                node: 0,
                fault: NodeFault::Crash,
            },
        }],
    }
}

/// Advances the cluster to simulated time `to`.
///
/// `crash_at` is the pending crash of replica 0, taken once applied.
/// Untimed, the repo's own loops do the work (`run_until`, or
/// `run_with_plan` under the checker); with a [`StepTimer`] the
/// benchmark steps the simulation itself, to the same semantics, so that
/// it can put a clock around every event and every `observe`.
fn advance<W: Workload>(
    cluster: &mut Cluster,
    to: SimTime,
    crash_at: &mut Option<u64>,
    checker: &mut Option<InvariantChecker>,
    timer: Option<&mut StepTimer>,
) -> Result<(), String> {
    let Some(timer) = timer else {
        let Some(checker) = checker else {
            assert!(
                crash_at.is_none(),
                "a crash is only scheduled on checked workloads"
            );
            cluster.sim.run_until(to);
            return Ok(());
        };
        let plan = match *crash_at {
            Some(at) if at <= to.nanos() => {
                *crash_at = None;
                crash_plan(at)
            }
            _ => FaultPlan::empty(),
        };
        let delta = to.since(cluster.sim.now());
        return cluster
            .run_with_plan::<W::Svc, W::Drv>(&plan, delta, checker)
            .map_err(|v| format!("invariant violated: {v:?}"));
    };
    while let Some(next) = cluster.sim.next_event_at().filter(|&t| t <= to) {
        if crash_at.is_some_and(|at| at <= next.nanos()) {
            *crash_at = None;
            cluster
                .replica_mut::<W::Svc>(0)
                .set_behavior(Behavior::Crashed);
        }
        timer.step(&mut cluster.sim);
        if let Some(checker) = checker {
            timer
                .observe(|| checker.observe::<W::Svc, W::Drv>(cluster))
                .map_err(|v| format!("invariant violated: {v:?}"))?;
        }
    }
    cluster.sim.run_until(to);
    Ok(())
}

fn harvest_cpu(cluster: &mut Cluster, into: &mut [u64; CostKind::COUNT]) {
    let sink = cluster.sim.trace();
    for (slot, kind) in into.iter_mut().zip(CostKind::ALL) {
        *slot += cluster
            .replicas
            .iter()
            .map(|&r| sink.cpu_ns(r, kind))
            .sum::<u64>();
    }
    cluster.sim.trace_mut().clear();
}

fn executed_batches<W: Workload>(cluster: &Cluster) -> u64 {
    cluster
        .replicas
        .iter()
        .map(|&i| cluster.replica::<W::Svc>(i).last_executed())
        .sum()
}

/// The longest silence after the crash, measured to its end: the first
/// operations to complete in the next view end it.
fn outage_ns(crash_at: u64, mut completions: Vec<u64>) -> u64 {
    completions.retain(|&c| c > crash_at);
    completions.sort_unstable();
    let mut prev = crash_at;
    let mut worst = (0, 0);
    for c in completions {
        if c - prev > worst.0 {
            worst = (c - prev, c - crash_at);
        }
        prev = c;
    }
    worst.1
}

/// Builds workload `W` and warms it up; returns the cluster at the
/// threshold of its window and the wall seconds that took.
pub fn set_up<W: Workload>(seed: u64, scale: f64) -> (Cluster, f64) {
    let started = Instant::now();
    let mut cluster = W::build(seed, scale);
    match W::shape(scale).warmup {
        Warmup::Ops(n) => while cluster.completed_ops() < n && cluster.sim.step() {},
        Warmup::Until(at) => cluster.sim.run_until(SimTime::ZERO.after(at)),
    }
    (cluster, started.elapsed().as_secs_f64())
}

/// Runs workload `W` once.
pub fn run<W: Workload>(
    seed: u64,
    scale: f64,
    mut observe: Observe<'_>,
    count_allocs: bool,
) -> Result<Sample, String> {
    let (mut cluster, setup_s) = set_up::<W>(seed, scale);
    let Shape {
        window,
        crash_after_ns,
        ..
    } = W::shape(scale);

    // Open the window: every observer starts from zero here.
    for_each_driver::<W>(&mut cluster, |d| d.rec_mut().open());
    cluster.sim.metrics_mut().reset();
    cluster.sim.health_mut().reset();
    cluster.sim.trace_mut().clear();
    if !matches!(observe, Observe::Nothing) {
        cluster.sim.trace_mut().set_capacity(RING_CAPACITY);
    }
    let window_start = cluster.sim.now();
    let events_before = cluster.sim.events_processed();
    let bytes_before = cluster.sim.network().stats.bytes_delivered;
    let batches_before = executed_batches::<W>(&cluster);
    let mut checker = W::CHECKED.then(InvariantChecker::new);
    let crash_instant = crash_after_ns.map(|after| window_start.nanos() + after);
    let mut crash_at = crash_instant;
    let mut counts = Counts::default();

    let mut slice_wall_ns = Vec::new();
    let mut allocs = alloc::Tally::default();
    let window_end = loop {
        let now = cluster.sim.now();
        let (slice_end, last) = match window {
            WindowEnd::After(ns) => {
                let end = window_start.after(ns);
                let slice = now.after(SLICE_NS);
                if slice >= end {
                    (end, true)
                } else {
                    (slice, false)
                }
            }
            WindowEnd::ScriptDone => {
                if now.since(window_start) > SCRIPT_CAP_NS {
                    return Err("the script did not finish".into());
                }
                (now.after(SLICE_NS), false)
            }
        };
        let timer = match &mut observe {
            Observe::Steps(_, timer) => Some(&mut **timer),
            _ => None,
        };
        let allocs_before = alloc::start(count_allocs);
        let t = Instant::now();
        advance::<W>(&mut cluster, slice_end, &mut crash_at, &mut checker, timer)?;
        slice_wall_ns.push(t.elapsed().as_nanos() as u64);
        allocs += alloc::stop(allocs_before);
        if let Observe::Steps(fold, _) = &mut observe {
            fold.fold(cluster.sim.trace())?;
        }
        harvest_cpu(&mut cluster, &mut counts.cpu_ns);
        if last {
            break slice_end;
        }
        if let Some(done_at) = W::script_done_at(&cluster) {
            break SimTime::ZERO.after(done_at);
        }
    };
    for_each_driver::<W>(&mut cluster, |d| d.close_window());

    let live = cluster.replicas[usize::from(crash_instant.is_some())..].to_vec();
    let metrics = cluster.sim.metrics();
    let health = cluster.sim.health();
    counts.replicas = cluster.replicas.len() as u64;
    counts.events = cluster.sim.events_processed() - events_before;
    counts.bytes_delivered = cluster.sim.network().stats.bytes_delivered - bytes_before;
    counts.dropped = metrics.counter("net.dropped") + metrics.counter("cpu.dropped");
    counts.ops_executed = metrics.counter("replica.ops_executed");
    counts.batches_executed = executed_batches::<W>(&cluster) - batches_before;
    counts.busy_received = metrics.counter("client.busy_received");
    counts.health = health.clone();
    counts.max_view = live
        .iter()
        .map(|&i| cluster.replica::<W::Svc>(i).view())
        .max()
        .unwrap_or(0);

    // Drain: nothing new comes due; what was due gets its chance.
    let drain_end = window_end.after(DRAIN_CAP_NS);
    loop {
        let idle = clients_of::<W>(&cluster).all(|c| !c.busy() && c.driver().queue_empty());
        if idle || cluster.sim.now() >= drain_end {
            break;
        }
        let to = cluster.sim.now().after(dur::millis(10));
        advance::<W>(&mut cluster, to, &mut crash_at, &mut checker, None)?;
    }
    // Let the replicas finish what the last replies left behind
    // (commits, checkpoints), so the final-state gates see them settled.
    let to = cluster.sim.now().after(dur::millis(500));
    advance::<W>(&mut cluster, to, &mut crash_at, &mut checker, None)?;

    // Correctness gates.
    if let Some(checker) = &checker {
        checker
            .finish()
            .map_err(|v| format!("invariant violated at quiescence: {v:?}"))?;
    }
    let now_ns = cluster.sim.now().nanos();
    let report = HealthReport::from_snapshots(
        live.iter()
            .map(|&i| cluster.replica::<W::Svc>(i).health_snapshot(now_ns))
            .collect(),
    );
    if !report.healthy() {
        return Err(format!(
            "unhealthy cluster after the drain:\n{}",
            report.render()
        ));
    }
    W::gate(&cluster)?;

    let (mut attempted, mut completed, mut window_ops) = (0, 0, 0);
    let mut latencies_ns = Vec::new();
    let mut late_ns = Vec::new();
    let mut completions = Vec::new();
    for client in clients_of::<W>(&cluster) {
        let driver = client.driver();
        let (a, c) = driver.tally(client.busy());
        attempted += a;
        completed += c;
        if driver.rec().wrong > 0 {
            return Err(format!(
                "{} wrong results at one client",
                driver.rec().wrong
            ));
        }
        window_ops += driver.rec().window_ops;
        latencies_ns.extend_from_slice(&driver.rec().latencies_ns);
        late_ns.extend_from_slice(driver.late_ns());
        if crash_instant.is_some() {
            completions.extend(driver.completions_ns());
        }
    }
    latencies_ns.sort_unstable();
    late_ns.sort_unstable();
    Ok(Sample {
        attempted,
        failed: attempted - completed,
        window_ops,
        sim_window_ns: window_end.since(window_start),
        latencies_ns,
        late_ns,
        outage_ns: crash_instant.map_or(0, |at| outage_ns(at, completions)),
        counts,
        setup_s,
        slice_wall_ns,
        allocs,
    })
}
