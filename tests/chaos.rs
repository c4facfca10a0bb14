//! Chaos testing: seeded random fault schedules (partitions, healing,
//! loss bursts, delay spikes) applied while clients run, with full
//! linearizability checking afterwards. Every schedule is deterministic
//! in its seed, so a failure here is exactly reproducible.

use pbft::core::fuzz;
use pbft::core::prelude::*;
use pbft::sim::dur;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Incrementer {
    target: u64,
    seen: Vec<u64>,
}

impl ClientDriver for Incrementer {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(CounterService::add_op(1), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], _lat: u64) {
        self.seen
            .push(u64::from_le_bytes(result.try_into().expect("8 bytes")));
        if (self.seen.len() as u64) < self.target {
            api.submit(CounterService::add_op(1), false);
        }
    }
}

/// One random fault event applied between simulation slices.
#[derive(Debug)]
enum Chaos {
    PartitionPair(u32, u32),
    Heal,
    LossBurst(f64),
    LossOff,
    Delay(u64),
    DelayOff,
}

fn random_chaos(rng: &mut StdRng, n: u32) -> Chaos {
    match rng.gen_range(0..6) {
        0 => Chaos::PartitionPair(rng.gen_range(0..n), rng.gen_range(0..n)),
        1 => Chaos::Heal,
        2 => Chaos::LossBurst(rng.gen_range(0.01..0.10)),
        3 => Chaos::LossOff,
        4 => Chaos::Delay(dur::micros(rng.gen_range(100..3_000))),
        _ => Chaos::DelayOff,
    }
}

/// Runs `clients × per_client` increments under a random fault schedule
/// and checks the history is linearizable.
fn chaos_run(seed: u64, clients: u32, per_client: u64) {
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 32;
    cfg.log_window = 64;
    let mut cluster = Cluster::builder(cfg)
        .seed(seed)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter();
    let ids: Vec<u32> = (0..clients)
        .map(|_| {
            cluster.add_client(Incrementer {
                target: per_client,
                seen: Vec::new(),
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0);

    // Fault phase: a new random fault every 200 ms of simulated time. The
    // injector never partitions more than one replica pair at a time, so
    // a quorum always exists *somewhere* once timers fire.
    for _ in 0..25 {
        let chaos = random_chaos(&mut rng, 4);
        match chaos {
            Chaos::PartitionPair(a, b) if a != b => {
                cluster.sim.network_mut().heal();
                cluster.sim.network_mut().partition(a, b);
            }
            Chaos::PartitionPair(..) => {}
            Chaos::Heal => cluster.sim.network_mut().heal(),
            Chaos::LossBurst(p) => cluster.sim.network_mut().set_loss_probability(p),
            Chaos::LossOff => cluster.sim.network_mut().set_loss_probability(0.0),
            Chaos::Delay(ns) => cluster.sim.network_mut().set_extra_delay_ns(ns),
            Chaos::DelayOff => cluster.sim.network_mut().set_extra_delay_ns(0),
        }
        cluster.run_for(dur::millis(200));
    }
    // Quiesce: remove all faults and let everything finish.
    cluster.sim.network_mut().heal();
    cluster.sim.network_mut().set_loss_probability(0.0);
    cluster.sim.network_mut().set_extra_delay_ns(0);
    cluster.run_for(dur::secs(60));

    // Liveness: every op finished. Safety: the union of results is
    // exactly 1..=N with per-client monotonicity.
    let mut all = Vec::new();
    for &id in &ids {
        let seen = &cluster.client::<Incrementer>(id).driver().seen;
        assert_eq!(
            seen.len() as u64,
            per_client,
            "seed {seed}: client {id} finished only {}/{per_client}",
            seen.len()
        );
        for w in seen.windows(2) {
            assert!(w[0] < w[1], "seed {seed}: non-monotone {w:?}");
        }
        all.extend_from_slice(seen);
    }
    all.sort_unstable();
    let n = per_client * clients as u64;
    assert_eq!(
        all,
        (1..=n).collect::<Vec<u64>>(),
        "seed {seed}: history is not linearizable"
    );
}

#[test]
fn chaos_seed_1() {
    chaos_run(1, 4, 30);
}

#[test]
fn chaos_seed_2() {
    chaos_run(2, 4, 30);
}

#[test]
fn chaos_seed_3() {
    chaos_run(3, 6, 20);
}

#[test]
fn chaos_seed_sweep() {
    for seed in 10..18 {
        chaos_run(seed, 3, 15);
    }
}

#[test]
fn chaos_seed_4_with_byzantine_replica() {
    // Random network chaos on top of a lying replica.
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 32;
    cfg.log_window = 64;
    let mut cluster = Cluster::builder(cfg)
        .seed(4)
        .net(NetConfig::SWITCHED_100MBPS)
        .build_counter();
    cluster
        .replica_mut::<CounterService>(2)
        .set_behavior(Behavior::WrongResult);
    let ids: Vec<u32> = (0..3)
        .map(|_| {
            cluster.add_client(Incrementer {
                target: 20,
                seen: Vec::new(),
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xbad5eed);
    for _ in 0..15 {
        let p = rng.gen_range(0.0..0.05);
        cluster.sim.network_mut().set_loss_probability(p);
        cluster.run_for(dur::millis(200));
    }
    cluster.sim.network_mut().set_loss_probability(0.0);
    cluster.run_for(dur::secs(60));
    let mut all = Vec::new();
    for &id in &ids {
        let seen = &cluster.client::<Incrementer>(id).driver().seen;
        assert_eq!(seen.len(), 20);
        all.extend_from_slice(seen);
    }
    all.sort_unstable();
    assert_eq!(all, (1..=60).collect::<Vec<u64>>());
}

// ---------------------------------------------------------------------
// The deterministic chaos engine (bft_core::fuzz): seed-replayable
// FaultPlan schedules with the full protocol invariant checker running
// after every event. Two tests split the classic budget so they run in
// parallel (`CHAOS_SCHEDULES` scales it; nightly CI), and a third gives
// every family of the table a small fixed budget so tier-1 arms proactive
// recovery, the fast path, read leases and overload armor at all. On
// failure each panics with the seed, the minimized fault plan, and the
// family's replay command (`CHAOS_SEED=… cargo test -p bft-core --test
// chaos replay_…`).
// ---------------------------------------------------------------------

const ENGINE_BASE_SEED: u64 = 0xCA05_2026;

fn classic_half(offset: u64) {
    let total = fuzz::env_u64(fuzz::CLASSIC.schedules_env, 120);
    let base = fuzz::env_u64("CHAOS_BASE_SEED", ENGINE_BASE_SEED);
    fuzz::CLASSIC.check_schedules(base, total, offset, 2, 1);
}

#[test]
fn fuzz_engine_smoke_a() {
    classic_half(0);
}

#[test]
fn fuzz_engine_smoke_b() {
    classic_half(1);
}

#[test]
fn fuzz_engine_smoke_every_family() {
    let base = fuzz::env_u64("CHAOS_BASE_SEED", ENGINE_BASE_SEED);
    for family in fuzz::FAMILIES {
        family.check_schedules(base, 6, 0, 1, 1);
    }
}
