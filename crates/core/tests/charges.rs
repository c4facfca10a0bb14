//! The cost model's charges, pinned per node and per kind.
//!
//! The quick suite's breakdown rows sum a replica's CPU over every
//! `CostKind`, so a digest charged as a MAC (or a MAC charged twice and a
//! digest not at all) can leave every gated row where it was. These runs
//! pin `TraceSink::cpu_ns(node, kind)` for every node and every kind, so
//! moving a charge from one call site to another must keep its kind, its
//! node and its amount.
//!
//! The runs cover the normal case with empty bodies, 4 KiB arguments and
//! results under digest replies (with read-only operations among them),
//! every feature armed at once, admission control shedding and sending
//! BUSY, and a crashed primary whose restart needs a view change and a
//! state transfer.

use bft_core::fuzz::{ChaosDriver, FuzzFamily, Workload, ALL_ON, OVERLOAD};
use bft_core::prelude::*;
use bft_core::service::RestoreError;
use bft_crypto::{digest, Digest};
use bft_sim::chaos::{ClientFault, Fault, FaultEvent};
use bft_sim::trace::CostKind;
use bft_sim::NodeId;

/// `cpu_ns(node, kind)` for every node, kinds in `CostKind::ALL` order.
type Charges = Vec<[u64; CostKind::COUNT]>;

fn charges(cluster: &Cluster) -> Charges {
    let sink = cluster.sim.trace();
    (0..cluster.sim.node_count() as NodeId)
        .map(|node| CostKind::ALL.map(|kind| sink.cpu_ns(node, kind)))
        .collect()
}

/// Asserts `observed` equals `pinned`, printing the observed table in
/// source form on a mismatch.
fn assert_pinned(name: &str, observed: &Charges, pinned: &[[u64; CostKind::COUNT]]) {
    if observed.as_slice() != pinned {
        let rows: String = observed
            .iter()
            .map(|r| format!("        {r:?},\n"))
            .collect();
        panic!("{name}: charges moved; observed\n    &[\n{rows}    ]");
    }
}

/// A register whose operations return `result` bytes derived from the
/// operation and the state. Operations whose first byte is 1 are
/// read-only.
#[derive(Debug)]
struct SizedService {
    ops: u64,
    result: usize,
}

impl Service for SizedService {
    fn execute(&mut self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        self.ops += 1;
        self.execute_read_only(0, op)
    }
    fn execute_read_only(&self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        let seed = self.ops as u8 ^ op.last().copied().unwrap_or(0);
        (0..self.result)
            .map(|i| seed.wrapping_add(i as u8))
            .collect()
    }
    fn is_read_only(&self, op: &[u8]) -> bool {
        op.first() == Some(&1)
    }
    fn state_digest(&self) -> Digest {
        digest(&self.ops.to_le_bytes())
    }
    fn snapshot(&self) -> Vec<u8> {
        self.ops.to_le_bytes().to_vec()
    }
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        let bytes = snapshot
            .try_into()
            .map_err(|_| RestoreError("want 8 bytes".into()))?;
        self.ops = u64::from_le_bytes(bytes);
        Ok(())
    }
}

/// A closed-loop client sending `arg`-byte operations; every third one
/// is read-only.
struct SizedClient {
    id: u8,
    arg: usize,
    left: u64,
}

impl SizedClient {
    fn submit(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.left > 0 {
            self.left -= 1;
            let read_only = self.left.is_multiple_of(3);
            let mut op: Vec<u8> = (0..self.arg)
                .map(|i| self.id ^ (self.left + i as u64) as u8)
                .collect();
            if let Some(first) = op.first_mut() {
                *first = u8::from(read_only);
            }
            api.submit(op, read_only);
        }
    }
}

impl ClientDriver for SizedClient {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.submit(api);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _latency_ns: u64) {
        self.submit(api);
    }
}

/// A group under `cfg` with two closed-loop clients of `ops` operations
/// each, `arg`-byte arguments and `result`-byte results.
fn sized_cluster(cfg: Config, seed: u64, arg: usize, result: usize, ops: u64) -> Cluster {
    let mut cluster = Cluster::builder(cfg)
        .seed(seed)
        .build(|_| SizedService { ops: 0, result });
    for id in 0..2 {
        cluster.add_client(SizedClient { id, arg, left: ops });
    }
    cluster
}

/// [`sized_cluster`] under the default configuration, run for one
/// simulated second.
fn sized_run(seed: u64, arg: usize, result: usize, ops: u64) -> Cluster {
    let mut cluster = sized_cluster(Config::new(1), seed, arg, result, ops);
    cluster.run_for(dur::secs(1));
    assert_eq!(
        cluster.completed_ops(),
        2 * ops,
        "every operation completes"
    );
    cluster
}

/// Two chaos clients of 40 operations each under `family`'s
/// configuration and `plan`, checked, for sixteen 100 ms slices.
fn family_run(family: &FuzzFamily, seed: u64, plan: &FaultPlan) -> Cluster {
    let mut cluster = Cluster::builder(family.config(1))
        .seed(seed)
        .build_counter();
    cluster.add_client(ChaosDriver::new(seed ^ 1, 40, Workload::Adds));
    cluster.add_client(ChaosDriver::new(seed ^ 2, 40, Workload::Mixed));
    let mut checker = InvariantChecker::new();
    let empty = FaultPlan::empty();
    for round in 0..16 {
        let p = if round == 0 { plan } else { &empty };
        cluster
            .run_with_plan::<CounterService, ChaosDriver>(p, dur::millis(100), &mut checker)
            .expect("invariants hold");
    }
    cluster
}

fn total(cluster: &Cluster, counter: Counter) -> u64 {
    cluster.sim.health().total(counter)
}

#[test]
fn empty_bodies_charge_as_pinned() {
    let cluster = sized_run(0xC0_0000, 0, 0, 30);
    assert_pinned(
        "0/0",
        &charges(&cluster),
        &[
            [1602160, 904176, 0, 6774768, 0, 0],
            [1498400, 924496, 0, 6346880, 0, 0],
            [1498240, 924496, 0, 6346832, 0, 0],
            [1498400, 924496, 0, 6346880, 0, 0],
            [261000, 219032, 0, 1562640, 0, 0],
            [261000, 227160, 0, 1562640, 0, 0],
        ],
    );
}

#[test]
fn four_kib_bodies_with_digest_replies_charge_as_pinned() {
    let cluster = sized_run(0xC0_4096, 4096, 4096, 12);
    assert!(cluster.cfg.opts.digest_replies);
    assert_pinned(
        "4096/4096",
        &charges(&cluster),
        &[
            [6889360, 297392, 0, 2981432, 0, 0],
            [6889360, 297392, 0, 2981432, 0, 0],
            [6889360, 297392, 0, 2981432, 0, 0],
            [6889360, 297392, 0, 2981432, 0, 0],
            [2070480, 87816, 0, 1214880, 0, 0],
            [2070480, 84768, 0, 1214880, 0, 0],
        ],
    );
}

#[test]
fn every_feature_at_once_charges_as_pinned() {
    let seed = 0xA110_0002;
    let cluster = family_run(&ALL_ON, seed, &ALL_ON.plan(seed, 1));
    for counter in [Counter::LeaseReads, Counter::RecoveriesStarted] {
        assert!(total(&cluster, counter) > 0, "{counter:?} never happened");
    }
    assert_pinned(
        "all-on",
        &charges(&cluster),
        &[
            [2964380, 1941696, 292500000, 14265606, 0, 0],
            [2363260, 1453824, 324000000, 11103010, 0, 0],
            [2360720, 1447792, 289500000, 11082128, 0, 0],
            [2363800, 1453824, 289500000, 11103172, 0, 0],
            [406220, 292720, 0, 2365640, 0, 0],
            [391180, 316912, 0, 2294386, 0, 0],
        ],
    );
}

#[test]
fn an_overloaded_group_charges_as_pinned() {
    let client = |at_ms, fault| FaultEvent {
        at_ns: dur::millis(at_ms),
        fault: Fault::Client { client: 5, fault },
    };
    let flood = ClientFault::Flood {
        interval_ns: dur::micros(100),
    };
    let plan = FaultPlan {
        events: vec![client(10, flood), client(80, ClientFault::Restore)],
    };
    let cluster = family_run(&OVERLOAD, 0x0BE5_0001, &plan);
    assert!(total(&cluster, Counter::BusySent) > 0, "no BUSY was sent");
    assert!(
        total(&cluster, Counter::BusyReceived) > 0,
        "no BUSY arrived"
    );
    assert_pinned(
        "overload",
        &charges(&cluster),
        &[
            [6474240, 3143768, 0, 28475456, 0, 0],
            [3520260, 2233072, 0, 16688206, 0, 0],
            [3520260, 2233072, 0, 16688206, 0, 0],
            [3520260, 2233072, 0, 16688206, 0, 0],
            [356000, 292720, 0, 2085920, 0, 0],
            [1522000, 2728832, 0, 10522520, 0, 0],
        ],
    );
}

/// Replica 3 is cut off until the group has checkpointed past its log
/// window, so it catches up by state transfer; then the primary crashes
/// and the group changes view. Digest replies are off: a client whose
/// designated replier is the cut-off replica would wait out a
/// retransmission per operation.
#[test]
fn a_view_change_and_a_state_transfer_charge_as_pinned() {
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 16;
    cfg.opts.digest_replies = false;
    let mut cluster = sized_cluster(cfg, 0x5747_0001, 8, 8, 100_000);
    cluster.sim.network_mut().isolate(3, 6);
    cluster.run_for(dur::millis(300));
    cluster.sim.network_mut().heal_node(3);
    cluster.run_for(dur::millis(300));
    cluster
        .replica_mut::<SizedService>(0)
        .set_behavior(Behavior::Crashed);
    cluster.run_for(dur::secs(3));
    assert!(total(&cluster, Counter::ViewChanges) > 0, "no view change");
    assert!(
        total(&cluster, Counter::StateTransfers) > 0,
        "no state transfer"
    );
    assert_pinned(
        "view change + state transfer",
        &charges(&cluster),
        &[
            [101422920, 36895032, 0, 275854340, 0, 0],
            [219881860, 82049752, 0, 576324250, 0, 0],
            [208595220, 82057688, 0, 541319650, 0, 0],
            [157553020, 63669672, 0, 423686974, 0, 0],
            [32152020, 30542312, 0, 187462024, 0, 0],
            [32144860, 30484448, 0, 187420200, 0, 0],
        ],
    );
}
