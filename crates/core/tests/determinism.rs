//! Determinism regression: two clusters built from the same seed and fed
//! the same schedule must behave *identically* — event for event, not
//! just in aggregate. This is the property the `bft-lint` determinism
//! rule protects: a single iteration over a `HashMap` in a protocol path
//! can leak hasher randomness into message emission order and break it.
//!
//! The comparison is deliberately strict: the full trace ring of every
//! node (replicas and clients), element-wise. A divergence anywhere in
//! timing, view, sequence assignment, or batching shows up here.

use bft_core::fuzz::{ChaosDriver, Workload, CLASSIC, LEASE, OVERLOAD};
use bft_core::prelude::*;
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
    let n = cfg.n();
    let mut cluster = Cluster::builder(cfg)
        .seed(seed)
        .trace_capacity(TRACE_CAPACITY)
        .build_counter();
    cluster.add_client(ChaosDriver::new(seed ^ 1, OPS_PER_CLIENT, Workload::Adds));
    cluster.add_client(ChaosDriver::new(seed ^ 2, OPS_PER_CLIENT, Workload::Mixed));

    let mut checker = InvariantChecker::new();
    let empty = FaultPlan::empty();
    let mut health_seq: Vec<Vec<HealthSnapshot>> = Vec::new();
    for round in 0..rounds {
        let p = if round == 0 { plan } else { &empty };
        cluster
            .run_with_plan::<CounterService, ChaosDriver>(p, dur::millis(100), &mut checker)
            .expect("invariants hold in both runs");
        // Snapshot after every round: the health observatory must be as
        // deterministic as the protocol it observes.
        health_seq.push(cluster.health_snapshots::<CounterService>());
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
        .map(|r| cluster.replica::<CounterService>(r).last_executed())
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
