//! Determinism regression: two clusters built from the same seed and fed
//! the same schedule must behave *identically* — event for event, not
//! just in aggregate. This is the property the `bft-lint` determinism
//! rule protects: a single iteration over a `HashMap` in a protocol path
//! can leak hasher randomness into message emission order and break it.
//!
//! The comparison is deliberately strict: the full trace ring of every
//! node (replicas and clients), element-wise. A divergence anywhere in
//! timing, view, sequence assignment, or batching shows up here.

use bft_core::fuzz::{ChaosDriver, Workload, ALL_ON, CLASSIC, LEASE, OVERLOAD};
use bft_core::prelude::*;
use bft_core::service::RestoreError;
use bft_crypto::digest_helper::MIN_BYTES;
use bft_crypto::{digest, Digest};
use bft_sim::chaos::{ClientFault, Fault, FaultEvent};
use bft_sim::dur;
use bft_sim::trace::TraceEvent;
use bft_sim::{Counters, HealthSnapshot, NodeId};

const OPS_PER_CLIENT: u64 = 8;
const TRACE_CAPACITY: usize = 8192;

/// Builds a traced cluster from `seed`, runs it for `rounds` fixed-size
/// slices, and returns everything observable: per-node trace rings,
/// completed-op count, total events processed, and each replica's
/// final executed sequence number.
fn run_once(seed: u64, plan: &FaultPlan, rounds: u32) -> RunFingerprint {
    fingerprint(CLASSIC.config(1), seed, plan, rounds, false)
}

/// The shared body of every run: `cfg`, two fuzz clients, `plan` in the
/// first of `rounds` 100 ms slices. With `churn_registry`, every round
/// ends by flattening the registry, reading each event counter in it by
/// dotted name, and resetting both `metrics_mut()` and `health_mut()` —
/// which must not change a single simulated event.
fn fingerprint(
    cfg: Config,
    seed: u64,
    plan: &FaultPlan,
    rounds: u32,
    churn_registry: bool,
) -> RunFingerprint {
    let mut cluster = Cluster::builder(cfg)
        .seed(seed)
        .trace_capacity(TRACE_CAPACITY)
        .build_counter();
    cluster.add_client(ChaosDriver::new(seed ^ 1, OPS_PER_CLIENT, Workload::Adds));
    cluster.add_client(ChaosDriver::new(seed ^ 2, OPS_PER_CLIENT, Workload::Mixed));
    observe::<CounterService, ChaosDriver>(&mut cluster, Some(plan), rounds, churn_registry)
}

/// Runs a built cluster of `S` replicas and `D` clients in `rounds`
/// 100 ms slices (see [`fingerprint`]) and fingerprints it. With a
/// `plan`, the slices run it under the invariant checker, whose
/// linearizability rule knows only counter operations.
fn observe<S: Service, D: ClientDriver>(
    cluster: &mut Cluster,
    plan: Option<&FaultPlan>,
    rounds: u32,
    churn_registry: bool,
) -> RunFingerprint {
    let n = cluster.cfg.n();
    let mut checker = InvariantChecker::new();
    let empty = FaultPlan::empty();
    let mut health_seq: Vec<Vec<HealthSnapshot>> = Vec::new();
    for round in 0..rounds {
        match plan {
            Some(plan) => {
                let p = if round == 0 { plan } else { &empty };
                cluster
                    .run_with_plan::<S, D>(p, dur::millis(100), &mut checker)
                    .expect("invariants hold in both runs");
            }
            None => cluster.run_for(dur::millis(100)),
        }
        // Snapshot after every round: the health observatory must be as
        // deterministic as the protocol it observes.
        health_seq.push(cluster.health_snapshots::<S>());
        if churn_registry {
            for (name, total) in cluster.sim.health().flattened() {
                if !name.starts_with("sent.") && !name.starts_with("recv.") {
                    assert_eq!(cluster.sim.metrics().counter(&name), total, "{name}");
                }
            }
            cluster.sim.metrics_mut().reset();
            cluster.sim.health_mut().reset();
        }
    }

    let sink = cluster.sim.trace();
    let rings: Vec<Vec<TraceEvent>> = (0..sink.node_count() as NodeId)
        .map(|node| sink.node_events(node).copied().collect())
        .collect();
    let executed: Vec<u64> = (0..n)
        .map(|r| cluster.replica::<S>(r).last_executed())
        .collect();
    RunFingerprint {
        rings,
        completed_ops: cluster.completed_ops(),
        events_processed: cluster.sim.events_processed(),
        now_ns: cluster.sim.now().0,
        executed,
        health_seq,
        counters: cluster.sim.health().clone(),
    }
}

struct RunFingerprint {
    rings: Vec<Vec<TraceEvent>>,
    completed_ops: u64,
    events_processed: u64,
    now_ns: u64,
    executed: Vec<u64>,
    /// Per-round health snapshots of every replica.
    health_seq: Vec<Vec<HealthSnapshot>>,
    /// Final health counter registry (messages by tag, protocol events).
    counters: Counters,
}

/// Asserts two runs are indistinguishable, with a pinpointed diagnostic
/// (node + ring index + both events) on the first divergence.
fn assert_identical(a: &RunFingerprint, b: &RunFingerprint) {
    assert_eq!(a.completed_ops, b.completed_ops, "completed ops differ");
    assert_same_behaviour(a, b);
    assert_eq!(a.counters, b.counters, "health counters diverge");
}

/// Everything the simulation did, as opposed to what the counter
/// registry says about it.
fn assert_same_behaviour(a: &RunFingerprint, b: &RunFingerprint) {
    assert_eq!(
        a.events_processed, b.events_processed,
        "simulator event counts differ"
    );
    assert_eq!(a.now_ns, b.now_ns, "final simulated times differ");
    assert_eq!(a.executed, b.executed, "executed sequence numbers differ");
    assert_eq!(a.rings.len(), b.rings.len(), "node counts differ");
    for (node, (ra, rb)) in a.rings.iter().zip(&b.rings).enumerate() {
        assert_eq!(
            ra.len(),
            rb.len(),
            "node {node}: trace ring lengths differ ({} vs {})",
            ra.len(),
            rb.len()
        );
        for (i, (ea, eb)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(ea, eb, "node {node}: traces diverge at ring index {i}");
        }
    }
    assert_eq!(
        a.health_seq.len(),
        b.health_seq.len(),
        "health snapshot round counts differ"
    );
    for (round, (sa, sb)) in a.health_seq.iter().zip(&b.health_seq).enumerate() {
        assert_eq!(sa, sb, "health snapshots diverge after round {round}");
    }
}

/// Fault-free: same seed, same schedule, identical traces.
#[test]
fn identical_seeds_produce_identical_traces() {
    let plan = FaultPlan::empty();
    let a = run_once(0x0DE7_E121, &plan, 12);
    assert!(
        a.completed_ops >= OPS_PER_CLIENT,
        "run must make progress to be a meaningful comparison"
    );
    assert!(
        a.counters.sent_by_tag().iter().sum::<u64>() > 0
            && a.health_seq.last().is_some_and(|s| !s.is_empty()),
        "health observatory must be populated, or the comparison is vacuous"
    );
    let b = run_once(0x0DE7_E121, &plan, 12);
    assert_identical(&a, &b);
}

/// Under chaos: a seeded fault schedule (partitions, delays, crashes)
/// exercises the view-change, checkpoint, and backfill paths — exactly
/// the code the BTreeMap migration covered — and, in the lease family,
/// grants, revokes and lease-served reads. Still bit-identical.
#[test]
fn identical_seeds_identical_traces_under_chaos() {
    for (family, seed) in [
        (&CLASSIC, 0xC4A05u64),
        (&CLASSIC, 0xFEED_5EED),
        (&LEASE, 0x1EA5E),
    ] {
        let plan = family.plan(seed, 1);
        let a = fingerprint(family.config(1), seed, &plan, 16, false);
        let b = fingerprint(family.config(1), seed, &plan, 16, false);
        assert!(
            family.name != LEASE.name || a.counters.total(Counter::LeaseReads) > 0,
            "the lease run must serve reads under a lease"
        );
        assert_identical(&a, &b);
    }
}

/// Builds an admission-controlled cluster under a client-fault plan
/// (floods, replays, malformed MACs) and fingerprints it — the overload
/// analogue of [`run_once`].
fn run_overload_once(seed: u64, plan: &FaultPlan, rounds: u32) -> RunFingerprint {
    fingerprint(OVERLOAD.config(1), seed, plan, rounds, false)
}

/// Overload armor end to end: admission gates, BUSY pushback, the
/// client's jittered backoff, and injected client floods. The backoff
/// jitter is hashed from the client id and retry state — never drawn
/// from a shared RNG — so two clusters stay bit-identical. A `rand`
/// call sneaking into that path shows up here as a trace divergence.
#[test]
fn identical_seeds_identical_traces_under_overload() {
    for seed in [0x0BE5_0001u64, 0x0BE5_0002] {
        let plan = OVERLOAD.plan(seed, 1);
        let a = run_overload_once(seed, &plan, 16);
        let b = run_overload_once(seed, &plan, 16);
        assert_identical(&a, &b);
    }
}

/// The admission path, pinned across refactors: one `OVERLOAD` and one
/// `ALL_ON` run's event count, completed operations and overload
/// counters must stay exactly these. The family plans fault nothing in
/// the first 100 ms slice, so each run gets its own: the second client
/// floods from 10 ms to 80 ms. Each run sheds and sends BUSY, so the pin
/// covers the gate, the penalty box and the throttle, not an idle path.
#[test]
fn admission_runs_match_their_pinned_counts() {
    for (family, seed, interval_us, pinned) in [
        (
            &OVERLOAD,
            0x0BE5_0001u64,
            100,
            [4999, 17, 34, 596, 33, 0, 0, 0],
        ),
        (&ALL_ON, 0xA110_0001, 50, [5815, 17, 37, 1095, 0, 0, 0, 0]),
    ] {
        let client = |at_ns, fault| FaultEvent {
            at_ns,
            fault: Fault::Client { client: 5, fault },
        };
        let flood = ClientFault::Flood {
            interval_ns: dur::micros(interval_us),
        };
        let plan = FaultPlan {
            events: vec![
                client(dur::millis(10), flood),
                client(dur::millis(80), ClientFault::Restore),
            ],
        };
        let run = fingerprint(family.config(1), seed, &plan, 16, false);
        let total = |counter| run.counters.total(counter);
        assert!(
            total(Counter::RequestsShed) > 0 && total(Counter::BusySent) > 0,
            "{}: the pinned run must shed and send BUSY",
            family.name
        );
        let observed = [
            run.events_processed,
            run.completed_ops,
            total(Counter::BusySent),
            total(Counter::RequestsShed),
            total(Counter::BusyReceived),
            total(Counter::BusyRoFallbacks),
            total(Counter::RetryBudgetExhausted),
            total(Counter::LeaseReadsEvicted),
        ];
        assert_eq!(observed, pinned, "{}", family.name);
    }
}

/// The counter registry is observer-only: a run that reads every
/// counter, flattens the registry and resets `metrics_mut()` and
/// `health_mut()` after every round behaves, event for event, like one
/// that never touches it — under the classic, overload and lease plans.
#[test]
fn reading_and_resetting_the_registry_changes_nothing() {
    for (family, seed) in [
        (&CLASSIC, 0xC4A05u64),
        (&OVERLOAD, 0x0BE5_0001),
        (&LEASE, 0x1EA5E),
    ] {
        let plan = family.plan(seed, 1);
        let churned = fingerprint(family.config(1), seed, &plan, 16, true);
        let untouched = fingerprint(family.config(1), seed, &plan, 16, false);
        assert!(
            untouched.counters.flattened().len() > churned.counters.flattened().len(),
            "{}: the churned registry must have been reset",
            family.name
        );
        assert_same_behaviour(&churned, &untouched);
    }
}

/// Different seeds must *not* be identical — guards against the
/// comparison being vacuous (e.g. empty rings on both sides).
#[test]
fn different_seeds_diverge() {
    let plan = FaultPlan::empty();
    let a = run_once(1, &plan, 12);
    let b = run_once(2, &plan, 12);
    assert_ne!(
        (a.events_processed, &a.rings),
        (b.events_processed, &b.rings),
        "different seeds should produce observably different runs"
    );
}

/// Bodies of the large-body run: twice the digest helper's floor.
const BULK: usize = 2 * MIN_BYTES;

/// A register whose every operation returns [`BULK`] bytes derived from
/// the operation and the state, so replies carry large full results.
#[derive(Debug, Default)]
struct BulkService {
    ops: u64,
}

impl Service for BulkService {
    fn execute(&mut self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        self.ops += 1;
        self.execute_read_only(0, op)
    }
    fn execute_read_only(&self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        let seed = self.ops as u8 ^ op.first().copied().unwrap_or(0);
        (0..BULK).map(|i| seed.wrapping_add(i as u8)).collect()
    }
    fn is_read_only(&self, _op: &[u8]) -> bool {
        false
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

/// A closed-loop client sending [`BULK`]-byte operations.
struct BulkClient {
    id: u8,
    left: u64,
}

impl BulkClient {
    fn submit(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.left > 0 {
            self.left -= 1;
            let op = (0..BULK).map(|i| self.id ^ (self.left + i as u64) as u8);
            api.submit(op.collect(), false);
        }
    }
}

impl ClientDriver for BulkClient {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.submit(api);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], _latency_ns: u64) {
        assert_eq!(result.len(), BULK);
        self.submit(api);
    }
}

/// The digest helper is observer-only: with large arguments and large
/// results, a cluster whose replicas and clients claim request and
/// result digests from the helper behaves, event for event, like one
/// whose delivery seam does nothing and hashes every digest inline.
#[test]
fn the_digest_helper_changes_nothing() {
    const OPS: u64 = 40;
    let run = |helper: bool| {
        let mut cluster = Cluster::builder(Config::new(1))
            .seed(0xB01D)
            .trace_capacity(TRACE_CAPACITY)
            .build(|_| BulkService::default());
        if !helper {
            cluster.sim.set_delivery_seam(|_| {});
        }
        for id in 0..4 {
            cluster.add_client(BulkClient { id, left: OPS });
        }
        let fp = observe::<BulkService, BulkClient>(&mut cluster, None, 8, false);
        (fp, cluster.digest_helper_counts())
    };
    let (with, counts) = run(true);
    let (without, inline) = run(false);
    assert_identical(&with, &without);
    assert_eq!(with.completed_ops, 4 * OPS, "every operation completes");
    assert_eq!(inline.served + inline.running + inline.hashed, 0);
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(
            counts.served + counts.running > 0,
            "the helper must supply digests, or the comparison is vacuous: {counts:?}"
        );
    }
}
