//! The chaos-fuzzing harness: seeded (fault plan, workload) pairs run to
//! quiescence with every protocol invariant checked after every event.
//!
//! This lives in the library (rather than a test file) so that both the
//! core integration tests and the umbrella crate's tier-1 suite drive
//! one implementation with different budgets.
//!
//! Each chaos family is one row of the [`FuzzFamily`] table ([`CLASSIC`],
//! [`RECOVERY`], [`FASTPATH`], [`LEASE`], [`OVERLOAD`], and [`ALL_ON`],
//! which arms them all at once; [`FAMILIES`] lists them): the feature it
//! arms, the fault vocabulary it draws from, and how its sweeps are
//! seeded, budgeted and replayed. A fuzz iteration is a pure function of
//! `(family, seed, f)`:
//!
//! 1. [`FuzzFamily::config`] derives the protocol configuration;
//! 2. [`FuzzFamily::plan`] generates the deterministic fault schedule;
//! 3. [`FuzzFamily::run`] builds the cluster through the same
//!    [`crate::cluster::ClusterBuilder`] path the directed tests use, runs
//!    the mixed workload through the fault window, then gives the healed
//!    cluster a bounded liveness budget to finish every outstanding
//!    operation.
//!
//! On a violation, [`FuzzFamily::check_schedule`] greedily minimizes the
//! fault plan (keeping the violation kind) and reports the seed, the
//! minimized plan, and the family's own one-command replay line.
//! [`FuzzFamily::check_schedules`] spreads a sweep over every core and
//! panics with the report of its lowest failing schedule.

use crate::client::{ClientApi, ClientDriver};
use crate::cluster::{derive_seed, Cluster};
use crate::config::Config;
use crate::invariants::{InvariantChecker, Violation};
use crate::service::CounterService;
use bft_sim::chaos::{ChaosConfig, FaultPlan};
use bft_sim::dur;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Clients per fuzz cluster.
pub const FUZZ_CLIENTS: u64 = 3;
/// Operations each fuzz client must complete.
pub const FUZZ_OPS_PER_CLIENT: u64 = 24;
/// Length of the fault window in a fuzz run.
pub const FAULT_HORIZON_NS: u64 = 3_000_000_000;
/// Post-heal liveness budget: rounds of [`LIVENESS_ROUND_NS`] each.
pub const LIVENESS_ROUNDS: u64 = 60;
/// Length of one liveness round.
pub const LIVENESS_ROUND_NS: u64 = 500_000_000;

/// Reads a `u64` knob from the environment, falling back to `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Operation mix issued by a [`ChaosDriver`].
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// ~1/4 read-only gets, the rest adds of 1..=9.
    Mixed,
    /// Adds only.
    Adds,
    /// Read-only gets only.
    Reads,
    /// ~1/100 adds, the rest read-only gets — the read-dominated mix
    /// where read leases pay off (arXiv:2107.11144).
    ReadMostly,
}

/// Closed-loop counter-service driver shared by the fuzz loop and the
/// directed chaos tests (the invariant checker downcasts every client in
/// a cluster to one driver type). The op sequence is a pure function of
/// the salt, so a run is replayable from its seed.
pub struct ChaosDriver {
    salt: u64,
    target: u64,
    issued: u64,
    workload: Workload,
    start_delay_ns: u64,
}

impl ChaosDriver {
    /// A driver that issues `target` operations drawn from `workload`,
    /// deterministically from `salt`.
    pub fn new(salt: u64, target: u64, workload: Workload) -> ChaosDriver {
        ChaosDriver {
            salt,
            target,
            issued: 0,
            workload,
            start_delay_ns: 0,
        }
    }

    /// Delays the first operation by `ns` (for staggered-start tests).
    pub fn delayed(mut self, ns: u64) -> ChaosDriver {
        self.start_delay_ns = ns;
        self
    }

    fn next_op(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.issued >= self.target {
            return;
        }
        self.issued += 1;
        let h = derive_seed(self.salt, self.issued);
        let read = match self.workload {
            Workload::Mixed => h.is_multiple_of(4),
            Workload::Adds => false,
            Workload::Reads => true,
            Workload::ReadMostly => !h.is_multiple_of(100),
        };
        if read {
            api.submit(CounterService::get_op(), true);
        } else {
            api.submit(CounterService::add_op((h % 9) as u8 + 1), false);
        }
    }
}

impl ClientDriver for ChaosDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.start_delay_ns > 0 {
            api.set_timer(self.start_delay_ns, 1);
        } else {
            self.next_op(api);
        }
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _latency_ns: u64) {
        self.next_op(api);
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        if !api.busy() {
            self.next_op(api);
        }
    }
}

/// One chaos family: the configuration that arms its feature, the fault
/// vocabulary its plans draw from, and how its sweeps are seeded, budgeted
/// and replayed. The generic driver below is the only harness; a family
/// is data.
pub struct FuzzFamily {
    /// Short name, for reports and table-driven tests.
    pub name: &'static str,
    config: fn(u32) -> Config,
    /// Plans include silent-corruption and stale-state faults.
    pub recovery_faults: bool,
    /// Plans include client floods, replay storms and malformed requests
    /// (from at most one client at a time).
    pub client_faults: bool,
    /// *Bounded heal*: a silently corrupted replica must complete a clean
    /// recovery within this long of the corruption (0 = unarmed).
    pub heal_deadline_ns: u64,
    /// Assert liveness per client: a flooder's junk completions count in
    /// the global metric and could mask a stuck honest client.
    pub per_client_liveness: bool,
    /// Environment variable holding the family's sweep budget.
    pub schedules_env: &'static str,
    /// XORed into the sweep's base seed, so families sharing one
    /// `CHAOS_BASE_SEED` explore different schedules.
    pub seed_salt: u64,
    /// The `crates/core/tests/chaos.rs` test that replays one seed of
    /// this family (named by failure reports).
    pub replay_test: &'static str,
}

/// The paper's protocol with every post-paper feature off: aggressive
/// timers and a short checkpoint interval so view changes, garbage
/// collection, and state transfer all happen inside a few simulated
/// seconds. Every other family arms one feature on top of this row.
pub const CLASSIC: FuzzFamily = FuzzFamily {
    name: "classic",
    config: |f| {
        let mut cfg = Config::new(f);
        cfg.checkpoint_interval = 8;
        cfg.log_window = 32;
        cfg.view_change_timeout_ns = dur::millis(400);
        cfg.client_retry_timeout_ns = dur::millis(150);
        cfg.resend_interval_ns = dur::millis(50);
        cfg
    },
    recovery_faults: false,
    client_faults: false,
    heal_deadline_ns: 0,
    per_client_liveness: false,
    schedules_env: "CHAOS_SCHEDULES",
    seed_salt: 0,
    replay_test: "replay_one",
};

/// Proactive recovery: a staggered watchdog every 600 ms per replica with
/// a 150 ms in-recovery lease, so several full recovery cycles fit inside
/// one run. Bounded-heal and recovery-completeness are checked alongside
/// every existing invariant, and the run is extended until every
/// corrupted replica has provably healed.
pub const RECOVERY: FuzzFamily = FuzzFamily {
    name: "recovery",
    config: |f| {
        let mut cfg = CLASSIC.config(f);
        cfg.proactive_recovery_interval_ns = dur::millis(600);
        cfg.recovery_lease_ns = dur::millis(150);
        cfg
    },
    recovery_faults: true,
    // Several watchdog periods plus state-transfer time, with slack for
    // lease deferrals and partitions that outlast the fault window.
    heal_deadline_ns: 8_000_000_000,
    schedules_env: "CHAOS_RECOVERY_SCHEDULES",
    seed_salt: 0x9EC0,
    replay_test: "replay_recovery_one",
    ..CLASSIC
};

/// The optimistic fast path armed with a short fallback window, so the
/// regular chaos vocabulary (partitions, loss, delay, crashes, Byzantine
/// primaries) forces plenty of mid-stream fast→classic fallbacks per
/// run, checked by the fast-commit safety invariant.
pub const FASTPATH: FuzzFamily = FuzzFamily {
    name: "fastpath",
    config: |f| {
        let mut cfg = CLASSIC.config(f);
        cfg.fast_path = true;
        cfg.fast_path_timeout_ns = dur::micros(800);
        cfg
    },
    schedules_env: "CHAOS_FASTPATH_SCHEDULES",
    seed_salt: 0xFA57,
    replay_test: "replay_fastpath_one",
    ..CLASSIC
};

/// Read leases (arXiv:2107.11144) on top of the recovery watchdogs and
/// fault vocabulary: a 60 ms lease (renewed every 30 ms, expiring
/// mid-read under partitions; `3 × 60 ms` fits the 400 ms view-change
/// timeout) while replicas also reboot every 600 ms — so one run
/// exercises lease expiry, revokes lost in partitions, view changes with
/// outstanding leases, and recovery of a lease holder, all checked by the
/// stale-lease-read invariant.
pub const LEASE: FuzzFamily = FuzzFamily {
    name: "lease",
    config: |f| {
        let mut cfg = RECOVERY.config(f);
        cfg.read_leases = true;
        cfg.read_lease_ns = dur::millis(60);
        cfg
    },
    schedules_env: "CHAOS_LEASE_SCHEDULES",
    seed_salt: 0x1EA5E,
    replay_test: "replay_lease_one",
    ..RECOVERY
};

/// Overload armor: admission control with a small per-client quota and
/// backlog cap (so a flooding client hits both gates many times over),
/// BUSY pushback with a short retry-after hint, a bounded client retry
/// budget (the `ClientStarvation` invariant watches honest clients), and
/// read leases on so persistent pushback also exercises the
/// optimistic-read → classic fallback. `UnboundedGrowth` is checked after
/// every event.
pub const OVERLOAD: FuzzFamily = FuzzFamily {
    name: "overload",
    config: |f| {
        let mut cfg = CLASSIC.config(f);
        cfg.admission_control = true;
        cfg.admission_client_quota = 4;
        cfg.admission_queue_cap = 64;
        cfg.busy_retry_after_ns = dur::millis(2);
        cfg.client_retry_budget = 12;
        cfg.read_leases = true;
        cfg.read_lease_ns = dur::millis(60);
        cfg
    },
    client_faults: true,
    per_client_liveness: true,
    schedules_env: "CHAOS_OVERLOAD_SCHEDULES",
    seed_salt: 0x0BE5,
    replay_test: "replay_overload_one",
    ..CLASSIC
};

/// Every feature at once: [`LEASE`]'s leases and recovery watchdogs,
/// [`FASTPATH`]'s fast path and [`OVERLOAD`]'s admission gate (incremental
/// checkpoints are on by default), under the union of the recovery and
/// client fault vocabularies. The other rows arm one feature each, so
/// only this one runs lease fencing against fast commit, BUSY shedding
/// during recovery, and a lease wait-out across a view change with the
/// admission gate armed.
pub const ALL_ON: FuzzFamily = FuzzFamily {
    name: "all-on",
    config: |f| {
        let mut cfg = LEASE.config(f);
        let fast = FASTPATH.config(f);
        cfg.fast_path = fast.fast_path;
        cfg.fast_path_timeout_ns = fast.fast_path_timeout_ns;
        let overload = OVERLOAD.config(f);
        cfg.admission_control = overload.admission_control;
        cfg.admission_client_quota = overload.admission_client_quota;
        cfg.admission_queue_cap = overload.admission_queue_cap;
        cfg.busy_retry_after_ns = overload.busy_retry_after_ns;
        cfg.client_retry_budget = overload.client_retry_budget;
        cfg
    },
    recovery_faults: true,
    client_faults: true,
    per_client_liveness: true,
    schedules_env: "CHAOS_ALL_ON_SCHEDULES",
    seed_salt: 0xA110,
    replay_test: "replay_all_on_one",
    ..LEASE
};

/// Every chaos family, for table-driven sweeps.
pub const FAMILIES: [&FuzzFamily; 6] = [&CLASSIC, &RECOVERY, &FASTPATH, &LEASE, &OVERLOAD, &ALL_ON];

/// Per-node flight-recorder ring capacity used by traced fuzz re-runs.
pub const FLIGHT_RING: usize = 256;
/// Events per node included in a flight-recorder dump.
pub const FLIGHT_DUMP_LAST: usize = 24;

impl FuzzFamily {
    /// The family's protocol configuration for `f` faults.
    pub fn config(&self, f: u32) -> Config {
        (self.config)(f)
    }

    /// The deterministic fault schedule for one iteration.
    pub fn plan(&self, seed: u64, f: u32) -> FaultPlan {
        let cfg = self.config(f);
        FaultPlan::generate(
            seed,
            &ChaosConfig {
                replicas: cfg.n(),
                clients: FUZZ_CLIENTS as u32,
                max_faulty: cfg.f(),
                horizon_ns: FAULT_HORIZON_NS,
                events: 12,
                recovery_faults: self.recovery_faults,
                client_faults: self.client_faults,
            },
        )
    }

    /// Runs one seeded (plan, workload) pair to quiescence, checking every
    /// invariant after every event. The cluster construction must stay in
    /// lockstep with [`Cluster::with_seed_iter`]: a builder with the same
    /// seed, so `CHAOS_SEED=<seed>` reconstructs the identical run.
    pub fn run(&self, seed: u64, f: u32, plan: &FaultPlan) -> Result<(), Violation> {
        self.run_inner(seed, f, plan, 0).map_err(|(v, _)| v)
    }

    /// [`FuzzFamily::run`] with the flight recorder armed: trace rings of
    /// [`FLIGHT_RING`] events per node. On a violation, returns the dump
    /// of each node's last [`FLIGHT_DUMP_LAST`] events — what every
    /// replica and client was doing right up to the failure — followed by
    /// the final per-replica health snapshots and cluster-level diff
    /// (view, role, execution watermarks, queue depths, laggards, wedge
    /// status at the instant of the violation). Tracing does not perturb
    /// the simulation, so the traced run reproduces the untraced failure
    /// event for event.
    pub fn run_traced(
        &self,
        seed: u64,
        f: u32,
        plan: &FaultPlan,
    ) -> Result<(), (Violation, String)> {
        self.run_inner(seed, f, plan, FLIGHT_RING)
    }

    /// The cluster one iteration runs on: the family's configuration, a
    /// builder seeded with `seed`, and the fuzz clients.
    pub(crate) fn cluster(&self, seed: u64, f: u32, trace_capacity: usize) -> Cluster {
        let mut cluster = Cluster::builder(self.config(f))
            .seed(seed)
            .trace_capacity(trace_capacity)
            .build_counter();
        for i in 0..FUZZ_CLIENTS {
            cluster.add_client(ChaosDriver::new(
                seed ^ (i + 1),
                FUZZ_OPS_PER_CLIENT,
                Workload::Mixed,
            ));
        }
        cluster
    }

    /// Whether every operation the fuzz clients were given has completed.
    pub(crate) fn workload_done(&self, cluster: &Cluster) -> bool {
        if self.per_client_liveness {
            cluster
                .clients
                .iter()
                .all(|&id| cluster.client::<ChaosDriver>(id).completed_ops() >= FUZZ_OPS_PER_CLIENT)
        } else {
            cluster.completed_ops() >= FUZZ_CLIENTS * FUZZ_OPS_PER_CLIENT
        }
    }

    fn run_inner(
        &self,
        seed: u64,
        f: u32,
        plan: &FaultPlan,
        trace_capacity: usize,
    ) -> Result<(), (Violation, String)> {
        let mut cluster = self.cluster(seed, f, trace_capacity);
        let mut checker = InvariantChecker::new();
        checker.set_heal_deadline(self.heal_deadline_ns);
        // Fuzz clusters run `CounterService`, which is what the health
        // snapshot downcast expects.
        let flight = |cluster: &Cluster| {
            format!(
                "{}  health at failure (per-replica snapshots):\n{}",
                cluster.sim.trace().flight_dump(FLIGHT_DUMP_LAST),
                cluster.health_report::<CounterService>().render()
            )
        };
        cluster
            .run_with_plan::<CounterService, ChaosDriver>(
                plan,
                FAULT_HORIZON_NS + dur::millis(1),
                &mut checker,
            )
            .map_err(|v| (v, flight(&cluster)))?;
        // The plan's cleanup events have healed the network and restarted
        // every faulted replica; the cluster must now finish the workload —
        // and, for recovery plans, every corrupted replica must heal before
        // its bounded-heal deadline (the checker enforces the deadline; this
        // loop just keeps the simulation running long enough to reach it).
        let target = FUZZ_CLIENTS * FUZZ_OPS_PER_CLIENT;
        let mut rounds = 0;
        while !self.workload_done(&cluster) || checker.corrupted_replicas().next().is_some() {
            if rounds == LIVENESS_ROUNDS {
                let v = Violation::Liveness {
                    detail: format!(
                        "{}/{} ops completed ({} replicas still corrupt) {} s after all faults healed",
                        cluster.completed_ops(),
                        target,
                        checker.corrupted_replicas().count(),
                        LIVENESS_ROUNDS * LIVENESS_ROUND_NS / 1_000_000_000,
                    ),
                };
                return Err((v, flight(&cluster)));
            }
            cluster
                .run_with_plan::<CounterService, ChaosDriver>(
                    &FaultPlan::empty(),
                    LIVENESS_ROUND_NS,
                    &mut checker,
                )
                .map_err(|v| (v, flight(&cluster)))?;
            rounds += 1;
        }
        checker.finish().map_err(|v| (v, flight(&cluster)))
    }

    /// Formats a violation with everything needed to replay the run: the
    /// minimized plan, the one-command replay line naming this family's
    /// own entry point (the classic `replay_one` would not arm the
    /// feature), and (when a traced re-run captured one) the
    /// flight-recorder dump of each node's last events before the
    /// violation.
    pub fn failure_report(
        &self,
        seed: u64,
        f: u32,
        plan: &FaultPlan,
        v: &Violation,
        flight: Option<&str>,
    ) -> String {
        let mut report = format!(
            "\nchaos: invariant violated\n  violation: {v}\n  seed: {seed} (f = {f})\n  minimized fault plan ({} events):\n{plan}\n  replay: CHAOS_SEED={seed} CHAOS_F={f} cargo test -p bft-core --test chaos {} -- --nocapture\n",
            plan.events.len(),
            self.replay_test,
        );
        if let Some(dump) = flight {
            report.push_str("  flight recorder (last events per node before the violation):\n");
            report.push_str(dump);
        }
        report
    }

    /// Runs one seed; on violation, greedily minimizes the plan (keeping
    /// the same violation kind), re-runs the minimized plan with the
    /// flight recorder armed, and returns a replayable report that
    /// includes the last trace events of every node.
    ///
    /// # Errors
    ///
    /// The failure report, if any invariant was violated.
    pub fn check_schedule(&self, seed: u64, f: u32) -> Result<(), String> {
        let plan = self.plan(seed, f);
        let Err(v) = self.run(seed, f, &plan) else {
            return Ok(());
        };
        let kind = std::mem::discriminant(&v);
        let min = plan.minimize(|p| {
            self.run(seed, f, p)
                .err()
                .is_some_and(|e| std::mem::discriminant(&e) == kind)
        });
        // The minimized plan reproduces the violation kind by
        // construction; the traced re-run captures its flight recording.
        let (v, flight) = match self.run_traced(seed, f, &min) {
            Err((v, dump)) => (v, Some(dump)),
            Ok(()) => (v, None),
        };
        Err(self.failure_report(seed, f, &min, &v, flight.as_deref()))
    }

    /// Runs every `i` in `0..total` with `i % stride == offset` (so
    /// `stride` test functions can split one budget and run in parallel),
    /// deriving per-run seeds from `base ^ seed_salt` via
    /// [`Cluster::with_seed_iter`]. The schedules share nothing, so they
    /// are spread over `available_parallelism()` threads.
    ///
    /// # Panics
    ///
    /// Panics with the report of the failing schedule with the lowest
    /// index, whatever order the threads ran them in: schedules are
    /// handed out in index order and none is skipped below a known
    /// failure.
    pub fn check_schedules(&self, base: u64, total: u64, offset: u64, stride: u64, f: u32) {
        let seeds: Vec<u64> = Cluster::with_seed_iter(base ^ self.seed_salt, self.config(f))
            .take(total as usize)
            .enumerate()
            .filter(|&(i, _)| i as u64 % stride == offset)
            .map(|(_, builder)| builder.seed_value())
            .collect();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(seeds.len());
        // Relaxed: the counters only hand out and compare indices; the
        // seeds are never written.
        let next = AtomicUsize::new(0);
        let lowest_failure = AtomicUsize::new(usize::MAX);
        let failure = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i > lowest_failure.load(Ordering::Relaxed) {
                            return None;
                        }
                        let seed = *seeds.get(i)?;
                        if let Err(report) = self.check_schedule(seed, f) {
                            lowest_failure.fetch_min(i, Ordering::Relaxed);
                            return Some((i, report));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .min_by_key(|&(i, _)| i)
        });
        if let Some((_, report)) = failure {
            panic!("{report}");
        }
    }
}
