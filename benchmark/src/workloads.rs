//! The five workloads: what each builds, how long it runs, and what a
//! correct run of it looks like.
//!
//! Every workload is n = 4, f = 1 on `NetConfig::SWITCHED_100MBPS` plus a
//! seeded per-packet jitter ([`JITTER_NS`]), with `Config::new(1)`
//! defaults except where its `build` says otherwise.
//! All inputs derive from the one `--seed`: the simulation seed is
//! `derive_seed(seed, 0)`, client `i`'s own seed (start offset, read /
//! write mix, open-loop phase) is `derive_seed(seed, 1 + i)`, and the
//! PostMark script seed is `derive_seed(seed, 1000)`.

use crate::drivers::{Gate, OpenLoopDriver, Recorded, Recorder};
use bft_core::client::ClientDriver;
use bft_core::cluster::{derive_seed, Cluster};
use bft_core::config::Config;
use bft_core::service::{CounterService, Service};
use bft_fs::client::NfsClientConfig;
use bft_fs::disk::ServerMode;
use bft_fs::service::FsService;
use bft_sim::{dur, NetConfig};
use bft_workloads::{
    postmark_script, BfsScriptDriver, MicroDriver, PostmarkConfig, ReadMixDriver, SimpleService,
};

/// How a workload's set-up ends.
#[derive(Debug, Clone, Copy)]
pub enum Warmup {
    /// After this many completed operations — a fixed amount of work, so
    /// a change that raises simulated throughput does not lengthen it.
    Ops(u64),
    /// At this simulated instant (open loop: the schedule is fixed, so a
    /// number of operations *due* is an instant).
    Until(u64),
}

/// Where the measured window ends.
#[derive(Debug, Clone, Copy)]
pub enum WindowEnd {
    /// After this much simulated time.
    After(u64),
    /// When the client's script has run to completion.
    ScriptDone,
}

/// The load shape of one workload at one `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// End of set-up.
    pub warmup: Warmup,
    /// End of the window.
    pub window: WindowEnd,
    /// Crash replica 0 this long after the window opens.
    pub crash_after_ns: Option<u64>,
}

/// What the harness needs from a client driver, closed or open loop.
pub trait Probe: ClientDriver {
    /// The driver's recorder.
    fn rec(&self) -> &Recorder;
    /// The same, to open the window.
    fn rec_mut(&mut self) -> &mut Recorder;
    /// Closes the window: a closed loop submits nothing more, an open
    /// loop's schedule has run out by itself.
    fn close_window(&mut self);
    /// `(attempted, completed)` over the window and its drain. `busy`
    /// says whether the protocol client still has an operation in flight.
    fn tally(&self, busy: bool) -> (u64, u64);
    /// True when nothing is waiting to be submitted.
    fn queue_empty(&self) -> bool {
        true
    }
    /// How late submissions ran behind their due instants (open loop).
    fn late_ns(&self) -> &[u64] {
        &[]
    }
    /// When each measured operation completed (open loop; simulated ns).
    fn completions_ns(&self) -> Vec<u64> {
        Vec::new()
    }
}

impl<D: ClientDriver> Probe for Recorded<D> {
    fn rec(&self) -> &Recorder {
        &self.rec
    }
    fn rec_mut(&mut self) -> &mut Recorder {
        &mut self.rec
    }
    fn close_window(&mut self) {
        self.stop();
    }
    fn tally(&self, busy: bool) -> (u64, u64) {
        let completed = self.rec.latencies_ns.len() as u64;
        (completed + u64::from(busy), completed)
    }
}

impl Probe for OpenLoopDriver {
    fn rec(&self) -> &Recorder {
        &self.rec
    }
    fn rec_mut(&mut self) -> &mut Recorder {
        &mut self.rec
    }
    fn close_window(&mut self) {
        self.rec.close();
    }
    fn tally(&self, _busy: bool) -> (u64, u64) {
        (self.measured_due(), self.rec.latencies_ns.len() as u64)
    }
    fn queue_empty(&self) -> bool {
        self.queued() == 0
    }
    fn late_ns(&self) -> &[u64] {
        &self.late_ns
    }
    fn completions_ns(&self) -> Vec<u64> {
        OpenLoopDriver::completions_ns(self)
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The replicated service.
    type Svc: Service;
    /// The driver of every client.
    type Drv: Probe;
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// One line on why the workload exists.
    const WHY: &'static str;
    /// Whether the invariant checker observes every event.
    const CHECKED: bool = false;

    /// The load shape at `scale` (1.0 = `--seconds 10`).
    fn shape(scale: f64) -> Shape;

    /// Builds replicas and clients. Tracing is off; the traced run turns
    /// the rings on afterwards.
    fn build(seed: u64, scale: f64) -> Cluster;

    /// When the client's script finished, if the window ends that way.
    fn script_done_at(_cluster: &Cluster) -> Option<u64> {
        None
    }

    /// The workload's own correctness gate, after the drain.
    fn gate(cluster: &Cluster) -> Result<(), String>;
}

fn scaled(ns: u64, scale: f64) -> u64 {
    (ns as f64 * scale) as u64
}

/// Every packet is delayed by a further uniform 0..=3 µs drawn from the
/// seeded simulation RNG, on top of the switch's fixed 15 µs. Without it
/// a closed loop locks into one of a few periodic schedules: which one
/// depends on the seed (payload-4k's throughput differed by 7 % between
/// two of them), and within one the median latency is the same to the
/// nanosecond for every seed. With it a run averages over schedules.
const JITTER_NS: u64 = 3_000;

fn cluster_of<S: Service>(seed: u64, cfg: Config, make: impl FnMut(u32) -> S) -> Cluster {
    let mut cluster = Cluster::builder(cfg)
        .seed(derive_seed(seed, 0))
        .net(NetConfig::SWITCHED_100MBPS)
        .build(make);
    cluster.sim.network_mut().set_jitter_ns(JITTER_NS);
    cluster
}

/// Start offset of closed-loop client `i`: the harness's 400 µs ramp
/// plus a seed-derived share of one step, so that no two seeds start the
/// clients in the same relative phase.
fn start_delay(seed: u64, i: u32) -> u64 {
    let step = dur::micros(400);
    u64::from(i) * step + 1 + derive_seed(seed, 1 + u64::from(i)) % step
}

/// Adds a client and, as the paper did, spreads the client processes
/// over five machines that share one NIC each.
fn add_client<D: ClientDriver>(cluster: &mut Cluster, i: u32, driver: D) {
    let id = cluster.add_client(driver);
    if i >= 5 {
        let host = cluster.clients[(i % 5) as usize];
        cluster.sim.assign_host(id, host);
    }
}

/// Closed loops: a client that still has an operation in flight after the
/// drain is stalled, and a throughput measured around it means nothing.
fn none_stalled<D: ClientDriver>(cluster: &Cluster) -> Result<(), String> {
    match cluster
        .clients
        .iter()
        .find(|&&id| cluster.client::<D>(id).busy())
    {
        Some(id) => Err(format!("client {id} is stalled after the drain")),
        None => Ok(()),
    }
}

/// `null-sat`: 20 closed-loop clients, 0/0 operations.
pub struct NullSat;

impl Workload for NullSat {
    type Svc = SimpleService;
    type Drv = Recorded<MicroDriver>;
    const NAME: &'static str = "null-sat";
    const WHY: &'static str = "message-rate bound: 20 closed-loop clients, empty payloads; handler, authenticator and engine cost dominate";

    fn shape(scale: f64) -> Shape {
        Shape {
            warmup: Warmup::Ops(5_000),
            window: WindowEnd::After(scaled(dur::secs(12), scale)),
            crash_after_ns: None,
        }
    }

    fn build(seed: u64, _scale: f64) -> Cluster {
        let mut cluster = cluster_of(seed, Config::new(1), |_| SimpleService);
        for i in 0..20 {
            let driver = MicroDriver::new(0, 0, false).with_start_delay(start_delay(seed, i));
            add_client(
                &mut cluster,
                i,
                Recorded::new(driver, Gate::Len(0), |d| d.max_ops = 0),
            );
        }
        cluster
    }

    fn gate(cluster: &Cluster) -> Result<(), String> {
        none_stalled::<Self::Drv>(cluster)
    }
}

/// `payload-4k`: ten closed-loop clients, half 4096/0 and half 0/4096.
pub struct Payload4k;

impl Workload for Payload4k {
    type Svc = SimpleService;
    type Drv = Recorded<MicroDriver>;
    const NAME: &'static str = "payload-4k";
    const WHY: &'static str = "byte bound: 4 KiB arguments or results; MD5, codec and Msg clones of large bodies dominate, at a fifth of null-sat's handler rate";

    fn shape(scale: f64) -> Shape {
        Shape {
            warmup: Warmup::Ops(1_000),
            window: WindowEnd::After(scaled(dur::secs(16), scale)),
            crash_after_ns: None,
        }
    }

    fn build(seed: u64, _scale: f64) -> Cluster {
        let mut cluster = cluster_of(seed, Config::new(1), |_| SimpleService);
        for i in 0..10 {
            let (arg, result) = if i % 2 == 0 { (4096, 0) } else { (0, 4096) };
            let driver =
                MicroDriver::new(arg, result, false).with_start_delay(start_delay(seed, i));
            add_client(
                &mut cluster,
                i,
                Recorded::new(driver, Gate::Len(result), |d| d.max_ops = 0),
            );
        }
        cluster
    }

    fn gate(cluster: &Cluster) -> Result<(), String> {
        none_stalled::<Self::Drv>(cluster)
    }
}

/// `readmix-leases`: eight closed-loop clients, 5 % writes, read leases.
pub struct ReadmixLeases;

impl Workload for ReadmixLeases {
    type Svc = CounterService;
    type Drv = Recorded<ReadMixDriver>;
    const NAME: &'static str = "readmix-leases";
    const WHY: &'static str = "read path: 95 % reads served under leases bypass ordering and stress reply matching and lease fencing, not the three-phase path";

    fn shape(scale: f64) -> Shape {
        Shape {
            warmup: Warmup::Ops(5_000),
            window: WindowEnd::After(scaled(dur::secs(12), scale)),
            crash_after_ns: None,
        }
    }

    fn build(seed: u64, _scale: f64) -> Cluster {
        let mut cfg = Config::new(1);
        cfg.read_leases = true;
        cfg.read_lease_ns = dur::millis(100);
        let mut cluster = cluster_of(seed, cfg, |_| CounterService::default());
        for i in 0..8 {
            let driver = ReadMixDriver::new(50, derive_seed(seed, 1 + u64::from(i)))
                .with_start_delay(start_delay(seed, i));
            add_client(
                &mut cluster,
                i,
                Recorded::new(driver, Gate::Monotone, |d| d.max_ops = 0),
            );
        }
        cluster
    }

    fn gate(cluster: &Cluster) -> Result<(), String> {
        none_stalled::<Self::Drv>(cluster)?;
        // Every acknowledged add, warm-up included, is in the counter,
        // and after the drain nothing else is.
        let acked: u64 = cluster
            .clients
            .iter()
            .map(|&id| {
                let d = cluster.client::<Self::Drv>(id).driver();
                d.inner.write_latencies_ns.len() as u64
            })
            .sum();
        for &i in &cluster.replicas {
            let value = cluster.replica::<CounterService>(i).service().value();
            if value != acked {
                return Err(format!(
                    "replica {i} counter is {value}, acknowledged adds sum to {acked}"
                ));
            }
        }
        Ok(())
    }
}

/// `bfs-postmark`: one BFS client running PostMark to completion.
pub struct BfsPostmark;

impl Workload for BfsPostmark {
    type Svc = FsService;
    type Drv = Recorded<BfsScriptDriver>;
    const NAME: &'static str = "bfs-postmark";
    const WHY: &'static str = "the paper's application: one BFS client runs PostMark; file-system state mutation, partition digests and checkpoints dominate, latency bound";

    fn shape(_scale: f64) -> Shape {
        Shape {
            warmup: Warmup::Ops(2_000),
            window: WindowEnd::ScriptDone,
            crash_after_ns: None,
        }
    }

    fn build(seed: u64, scale: f64) -> Cluster {
        let script = postmark_script(PostmarkConfig {
            transactions: scaled(8_000, scale) as u32,
            seed: derive_seed(seed, 1000),
            ..PostmarkConfig::default()
        });
        let mut cluster = cluster_of(seed, Config::new(1), |_| {
            FsService::for_benchmarks(ServerMode::Bfs)
        });
        let driver = BfsScriptDriver::new(script, NfsClientConfig::default());
        add_client(
            &mut cluster,
            0,
            Recorded::new(driver, Gate::Unchecked, |_| {}),
        );
        cluster
    }

    fn script_done_at(cluster: &Cluster) -> Option<u64> {
        let id = cluster.clients[0];
        cluster
            .client::<Self::Drv>(id)
            .driver()
            .inner
            .finished_at_ns
    }

    fn gate(cluster: &Cluster) -> Result<(), String> {
        let id = cluster.clients[0];
        let runner = cluster.client::<Self::Drv>(id).driver().inner.runner();
        none_stalled::<Self::Drv>(cluster)?;
        if !runner.finished() {
            return Err(format!("script stopped at {:?}", runner.progress()));
        }
        if runner.failed != 0 {
            return Err(format!("{} script actions failed", runner.failed));
        }
        let roots: Vec<_> = cluster
            .replicas
            .iter()
            .map(|&i| cluster.replica::<FsService>(i).stable_proof())
            .collect();
        if roots.iter().any(|r| *r != roots[0]) {
            return Err(format!("checkpoint roots differ: {roots:?}"));
        }
        Ok(())
    }
}

/// `crash-primary`: eight open-loop clients, replica 0 crashes a quarter
/// of the way into the window, the invariant checker watches every event.
pub struct CrashPrimary;

impl CrashPrimary {
    const CLIENTS: u32 = 8;
    /// 500 operations per second per client, 4 000 in all: about a third
    /// of what three replicas sustain, so that the backlog of the outage
    /// is served within a second of the fail-over. (At 8 000 the outage
    /// and the catching-up after it covered half the window, and the
    /// median latency sat on the edge between the two regimes.)
    const INTERVAL_NS: u64 = dur::millis(2);
    /// Per client; 8 x 625 = 5 000 warm-up operations in all.
    const WARMUP_OPS: u64 = 625;
    /// The schedule starts here so that every replica has started.
    const FIRST_DUE_NS: u64 = dur::millis(1);

    /// Measured operations per client: a 12 s window.
    fn window_ops(scale: f64) -> u64 {
        scaled(6_000, scale)
    }
}

impl Workload for CrashPrimary {
    type Svc = CounterService;
    type Drv = OpenLoopDriver;
    const NAME: &'static str = "crash-primary";
    const WHY: &'static str = "the fault run: open-loop load at a fixed rate, primary crashed mid-window; counts operations due during the outage and puts the invariant checker on the path";
    const CHECKED: bool = true;

    fn shape(scale: f64) -> Shape {
        let window = Self::window_ops(scale) * Self::INTERVAL_NS;
        Shape {
            warmup: Warmup::Until(Self::FIRST_DUE_NS + Self::WARMUP_OPS * Self::INTERVAL_NS),
            window: WindowEnd::After(window),
            crash_after_ns: Some(window / 4),
        }
    }

    fn build(seed: u64, scale: f64) -> Cluster {
        // Digest replies are off: with them every fourth operation after
        // the fail-over names the dead replica as its replier and waits
        // out a client retransmission timeout, a scheduled load is never
        // caught up with again, and the benchmark's workloads must be
        // ones on which no operation fails.
        let mut cfg = Config::new(1);
        cfg.opts.digest_replies = false;
        let mut cluster = cluster_of(seed, cfg, |_| CounterService::default());
        for i in 0..Self::CLIENTS {
            let driver = OpenLoopDriver::new(
                derive_seed(seed, 1 + u64::from(i)),
                Self::INTERVAL_NS,
                Self::FIRST_DUE_NS,
                Self::WARMUP_OPS,
                Self::WARMUP_OPS + Self::window_ops(scale),
            );
            cluster.add_client(driver);
        }
        cluster
    }

    fn gate(cluster: &Cluster) -> Result<(), String> {
        let live = &cluster.replicas[1..];
        let views: Vec<u64> = live
            .iter()
            .map(|&i| cluster.replica::<CounterService>(i).view())
            .collect();
        if views[0] == 0 || views.iter().any(|v| *v != views[0]) {
            return Err(format!(
                "live replicas are in views {views:?}, want one view > 0"
            ));
        }
        let acked: u64 = cluster
            .clients
            .iter()
            .map(|&id| cluster.client::<OpenLoopDriver>(id).driver().adds_acked)
            .sum();
        for &i in live {
            let value = cluster.replica::<CounterService>(i).service().value();
            if value != acked {
                return Err(format!(
                    "replica {i} counter is {value}, acknowledged adds sum to {acked}"
                ));
            }
        }
        Ok(())
    }
}
