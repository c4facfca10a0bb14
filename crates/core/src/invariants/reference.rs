//! The checker `observe` had before it learned which node an event ran
//! on — every node drained and checked after every event, the real-time
//! floor found by scanning every completed operation — kept as the model
//! the checker is held to.
//!
//! [`RefChecker`] keeps the observations (commit maps, views, starvation
//! counters, the linearizability model); what a fault plan tells a
//! checker (taints, corruption marks, the heal deadline) it reads from an
//! [`InvariantChecker`] that is only ever marked, so both sides go
//! through the one `Cluster::apply_fault`. The differential tests run
//! twin clusters from one seed, one under each checker, and require the
//! same verdict at the same event.

#![cfg(test)]

use super::*;
use crate::cluster::derive_seed;
use crate::fuzz::{
    ChaosDriver, FuzzFamily, Workload, CLASSIC, FASTPATH, FAULT_HORIZON_NS, LEASE, LIVENESS_ROUNDS,
    LIVENESS_ROUND_NS, OVERLOAD, RECOVERY,
};
use crate::replica::Behavior;
use crate::service::CounterService;
use bft_sim::chaos::{ClientFault, Fault, FaultEvent, FaultPlan, NetFault, NodeFault};
use bft_sim::dur;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
struct DoneLin {
    completed_ns: u64,
    value: u64,
}

/// The linearizability model with the floor found by a scan of every
/// completed operation.
#[derive(Debug, Default)]
struct RefLin {
    pending: BTreeMap<(ClientId, Timestamp), PendingLin>,
    /// Completed operations, used for the real-time lower bound.
    done: Vec<DoneLin>,
    /// `(invoke time, cumulative add amount invoked so far)`, in invoke
    /// order; upper bound on any observable register value.
    invoked_adds: Vec<(u64, u64)>,
    /// Result value of each completed add -> its amount. Adds strictly
    /// increase the register, so values must be unique and must chain.
    add_values: BTreeMap<u64, (ClientId, Timestamp, u64)>,
}

impl RefLin {
    fn invoke(
        &mut self,
        client: ClientId,
        timestamp: Timestamp,
        op: &[u8],
        at_ns: u64,
    ) -> Result<(), Violation> {
        let Some(kind) = parse_op(op) else {
            return Err(Violation::Linearizability {
                client,
                timestamp,
                detail: format!("unrecognized counter op {op:?}"),
            });
        };
        if let OpKind::Add(k) = kind {
            let sum = self.invoked_adds.last().map_or(0, |&(_, s)| s) + k;
            self.invoked_adds.push((at_ns, sum));
        }
        self.pending.insert(
            (client, timestamp),
            PendingLin {
                kind,
                invoked_ns: at_ns,
            },
        );
        Ok(())
    }

    /// The largest value returned by any operation that completed at or
    /// before `t`: a scan of every completed operation.
    fn floor_at(&self, t: u64) -> u64 {
        self.done
            .iter()
            .filter(|d| d.completed_ns <= t)
            .map(|d| d.value)
            .max()
            .unwrap_or(0)
    }

    /// Sum of add amounts invoked at or before `t`.
    fn invoked_sum_at(&self, t: u64) -> u64 {
        match self.invoked_adds.partition_point(|&(at, _)| at <= t) {
            0 => 0,
            i => self.invoked_adds[i - 1].1,
        }
    }

    fn complete(
        &mut self,
        client: ClientId,
        timestamp: Timestamp,
        result: &[u8],
        at_ns: u64,
    ) -> Result<(), Violation> {
        let fail = |detail: String| Violation::Linearizability {
            client,
            timestamp,
            detail,
        };
        let Some(p) = self.pending.remove(&(client, timestamp)) else {
            return Err(fail("completion without a matching invocation".into()));
        };
        let Ok(bytes) = <[u8; 8]>::try_from(result) else {
            return Err(fail(format!("malformed result ({} bytes)", result.len())));
        };
        let value = u64::from_le_bytes(bytes);
        // Real-time lower bound: the largest value returned by any
        // operation that completed before this one was invoked.
        let floor = self.floor_at(p.invoked_ns);
        // Upper bound: everything invoked before this op completed.
        let ceiling = self.invoked_sum_at(at_ns);
        if value > ceiling {
            return Err(fail(format!(
                "returned {value} but only {ceiling} was ever added before completion"
            )));
        }
        match p.kind {
            OpKind::Get => {
                if value < floor {
                    return Err(fail(format!(
                        "stale read: returned {value} after an op completed with {floor}"
                    )));
                }
            }
            OpKind::Add(k) => {
                if value < floor + k {
                    return Err(fail(format!(
                        "add({k}) returned {value}, below the observed floor {floor} + {k}"
                    )));
                }
                // Adds strictly increase the register: results are unique
                // and neighbours on the value line must be k apart or more.
                if let Some((&pv, &(pc, pt, _))) = self.add_values.range(..=value).next_back() {
                    if pv == value {
                        return Err(fail(format!(
                            "add({k}) returned {value}, already returned to client {pc} ts {pt}"
                        )));
                    }
                    if value - k < pv {
                        return Err(fail(format!(
                            "add({k}) returned {value}, overlapping the add that returned {pv}"
                        )));
                    }
                }
                if let Some((&nv, &(_, _, nk))) = self.add_values.range(value + 1..).next() {
                    if nv - nk < value {
                        return Err(fail(format!(
                            "add({k}) returned {value}, overlapping the add that returned {nv}"
                        )));
                    }
                }
                self.add_values.insert(value, (client, timestamp, k));
            }
        }
        self.done.push(DoneLin {
            completed_ns: at_ns,
            value,
        });
        Ok(())
    }

    /// Checks a lease-served read against the linearization order at its
    /// serve instant: the value must cover everything any completed
    /// operation already observed, without exceeding what was invoked.
    fn check_lease_read(
        &self,
        replica: ReplicaId,
        client: ClientId,
        timestamp: Timestamp,
        serve_ns: u64,
        result: &[u8],
    ) -> Result<(), Violation> {
        let fail = |detail: String| Violation::StaleLeaseRead {
            replica,
            client,
            timestamp,
            detail,
        };
        let Ok(bytes) = <[u8; 8]>::try_from(result) else {
            return Err(fail(format!("malformed result ({} bytes)", result.len())));
        };
        let value = u64::from_le_bytes(bytes);
        let floor = self.floor_at(serve_ns);
        if value < floor {
            return Err(fail(format!(
                "served {value} at {serve_ns}ns after an op had completed with {floor}"
            )));
        }
        let ceiling = self.invoked_sum_at(serve_ns);
        if value > ceiling {
            return Err(fail(format!(
                "served {value} at {serve_ns}ns but only {ceiling} was ever added by then"
            )));
        }
        Ok(())
    }

    /// Final check at quiescence: with no adds outstanding, the completed
    /// adds must chain exactly from zero.
    fn finish(&self) -> Result<(), Violation> {
        let outstanding_add = self
            .pending
            .values()
            .any(|p| matches!(p.kind, OpKind::Add(_)));
        if outstanding_add {
            return Ok(());
        }
        let mut prev = 0u64;
        for (&v, &(client, timestamp, k)) in &self.add_values {
            if v != prev + k {
                return Err(Violation::Linearizability {
                    client,
                    timestamp,
                    detail: format!(
                        "add chain broken: add({k}) returned {v} but the previous total was {prev}"
                    ),
                });
            }
            prev = v;
        }
        Ok(())
    }
}

/// The whole-cluster checker.
#[derive(Debug, Default)]
pub(super) struct RefChecker {
    committed: BTreeMap<SeqNum, (ReplicaId, Digest)>,
    fast_committed: BTreeMap<SeqNum, (ReplicaId, Digest)>,
    checkpoints: BTreeMap<SeqNum, (ReplicaId, Digest)>,
    views: BTreeMap<ReplicaId, View>,
    starved_seen: BTreeMap<ClientId, u64>,
    lin: RefLin,
}

impl RefChecker {
    /// Drains every node's audit records and checks all invariants.
    /// `marks` holds what the fault plan told the checker (taints,
    /// corruption marks, the heal deadline); it never observes.
    pub(super) fn observe<S: Service, D: ClientDriver>(
        &mut self,
        marks: &mut InvariantChecker,
        cluster: &mut Cluster,
    ) -> Result<(), Violation> {
        // Lease-served reads are checked only after this round's client
        // events are fed to the linearizability model below: a completion
        // that precedes the serve instant may sit in the same drain batch.
        let mut lease_reads: Vec<(ReplicaId, ClientId, Timestamp, u64, Vec<u8>)> = Vec::new();
        for i in 0..cluster.cfg.n() {
            let replica: &mut Replica<S> = cluster.replica_mut(i);
            let view = replica.view();
            let audit = replica.drain_audit();
            // *Bounded queues*: every request-holding collection must
            // respect its cap at every observable instant — checked even
            // on tainted replicas, since admission control is local code
            // that runs regardless of the protocol-level behavior mode.
            for (queue, len, cap) in replica.queue_bounds() {
                if len > cap {
                    return Err(Violation::UnboundedGrowth {
                        replica: i,
                        queue,
                        len,
                        cap,
                    });
                }
            }
            if marks.tainted.contains(&i) {
                continue;
            }
            // Captured before the checkpoint loop below, which may heal
            // (and unmark) the replica within this same drain batch.
            let corrupt_since_ns = marks.corrupted.get(&i).copied();
            let prev = self.views.entry(i).or_insert(0);
            if view < *prev {
                return Err(Violation::ViewRegression {
                    replica: i,
                    from: *prev,
                    to: view,
                });
            }
            *prev = view;
            for (seq, digest) in audit.committed {
                if let Some(&(other, other_digest)) = self.fast_committed.get(&seq) {
                    if other_digest != digest {
                        return Err(Violation::FastCommitDivergence {
                            seq,
                            a: (other, other_digest),
                            b: (i, digest),
                        });
                    }
                }
                match self.committed.entry(seq) {
                    Entry::Occupied(e) => {
                        let &(other, other_digest) = e.get();
                        if other_digest != digest {
                            return Err(Violation::Agreement {
                                seq,
                                a: (other, other_digest),
                                b: (i, digest),
                            });
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert((i, digest));
                    }
                }
            }
            // *Fast-commit safety*: fast commits must agree across
            // replicas and with whatever the cluster finalizes at the
            // same sequence number — a per-slot fallback or a view
            // change must never land a different batch there, and no two
            // replicas may fast-commit different batches at one seq.
            for (seq, digest) in audit.fast_committed {
                if let Some(&(other, other_digest)) = self.committed.get(&seq) {
                    if other_digest != digest {
                        return Err(Violation::FastCommitDivergence {
                            seq,
                            a: (i, digest),
                            b: (other, other_digest),
                        });
                    }
                }
                match self.fast_committed.entry(seq) {
                    Entry::Occupied(e) => {
                        let &(other, other_digest) = e.get();
                        if other_digest != digest {
                            return Err(Violation::FastCommitDivergence {
                                seq,
                                a: (other, other_digest),
                                b: (i, digest),
                            });
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert((i, digest));
                    }
                }
            }
            // A corrupted replica's checkpoint digests legitimately
            // diverge until it heals; its batch digests and views above
            // do not (corruption touches service state, not the log), so
            // only this check is suspended — and never used as the
            // reference other replicas are compared against.
            if !marks.corrupted.contains_key(&i) {
                for (seq, digest) in audit.checkpoints {
                    match self.checkpoints.entry(seq) {
                        Entry::Occupied(e) => {
                            let &(other, other_digest) = e.get();
                            if other_digest != digest {
                                return Err(Violation::CheckpointDivergence {
                                    seq,
                                    a: (other, other_digest),
                                    b: (i, digest),
                                });
                            }
                        }
                        Entry::Vacant(v) => {
                            v.insert((i, digest));
                        }
                    }
                }
            }
            // *Recovery completeness*: a completed recovery's attested
            // root must agree with the honest quorum's digest for that
            // checkpoint. A match also heals a corrupted replica — the
            // audit provably brought its state back to the quorum root —
            // which revokes its checkpoint exemption from here on.
            for (seq, digest, _at_ns) in audit.recoveries {
                match self.checkpoints.entry(seq) {
                    Entry::Occupied(e) => {
                        let &(_, quorum) = e.get();
                        if quorum != digest {
                            return Err(Violation::RecoveryDivergence {
                                replica: i,
                                seq,
                                ours: digest,
                                quorum,
                            });
                        }
                    }
                    Entry::Vacant(v) => {
                        // No honest announcement seen yet for this seq;
                        // the recovered root carried f+1 attestations, so
                        // it can serve as the reference.
                        v.insert((i, digest));
                    }
                }
                marks.corrupted.remove(&i);
            }
            for (client, timestamp, at_ns, result) in audit.lease_reads {
                // A silently corrupted replica serves garbage until its
                // recovery audit heals it; the client's 2f+1 matching
                // rule discards those replies, so they are excused here
                // exactly like the checkpoint-digest check above — the
                // lease invariant binds only reads served from state no
                // fault was injected into.
                if corrupt_since_ns.is_some_and(|at| at_ns >= at) {
                    continue;
                }
                lease_reads.push((i, client, timestamp, at_ns, result));
            }
        }
        // *Bounded heal*: every corrupted replica must have completed a
        // clean recovery within the deadline of its injection.
        if marks.heal_deadline_ns > 0 {
            let now = cluster.sim.now().nanos();
            for (&replica, &at_ns) in &marks.corrupted {
                let deadline = at_ns.saturating_add(marks.heal_deadline_ns);
                if now > deadline && !marks.tainted.contains(&replica) {
                    return Err(Violation::UnhealedCorruption {
                        replica,
                        corrupted_at_ns: at_ns,
                        deadline_ns: deadline,
                    });
                }
            }
        }
        let mut events = Vec::new();
        for id in cluster.clients.clone() {
            let client: &mut Client<D> = cluster.client_mut(id);
            events.extend(client.drain_audit());
            // *Overload fairness*: an honest client must never exhaust
            // its retry budget. Misbehaving clients have their deltas
            // absorbed so only post-restore exhaustions can fire.
            let starved = client.starvation_events();
            let seen = self.starved_seen.entry(id).or_insert(0);
            if starved > *seen {
                *seen = starved;
                if !marks.tainted_clients.contains(&id) {
                    return Err(Violation::ClientStarvation {
                        client: id,
                        starved_ops: starved,
                    });
                }
            }
        }
        // Drains may interleave clients; feed the checker in time order.
        events.sort_by_key(OpEvent::at_ns);
        for ev in events {
            match ev {
                OpEvent::Invoke {
                    client,
                    timestamp,
                    op,
                    at_ns,
                } => self.lin.invoke(client, timestamp, &op, at_ns)?,
                OpEvent::Complete {
                    client,
                    timestamp,
                    result,
                    at_ns,
                } => self.lin.complete(client, timestamp, &result, at_ns)?,
            }
        }
        // *Lease-read linearizability*: every locally served read must be
        // consistent with the global order at its serve instant.
        for (replica, client, timestamp, at_ns, result) in lease_reads {
            self.lin
                .check_lease_read(replica, client, timestamp, at_ns, &result)?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Twin runs: one seed, two clusters, one under each checker
// ----------------------------------------------------------------------

/// Either checker, as the twin-run driver sees it.
trait Side {
    /// The checker the fault plan marks.
    fn marks(&mut self) -> &mut InvariantChecker;
    fn observe(&mut self, cluster: &mut Cluster) -> Result<(), Violation>;
    fn finish(&self) -> Result<(), Violation>;
    /// How much the checker has taken in so far. The twin runs compare
    /// it after every event, so a record checked late is a difference
    /// even when the verdict is not.
    fn progress(&self) -> [u64; 8];
}

fn progress(
    maps: [&BTreeMap<SeqNum, (ReplicaId, Digest)>; 3],
    views: impl Iterator<Item = View>,
    starved: impl Iterator<Item = u64>,
    pending: usize,
    adds: usize,
    floor: u64,
) -> [u64; 8] {
    let [committed, fast_committed, checkpoints] = maps.map(|m| m.len() as u64);
    [
        committed,
        fast_committed,
        checkpoints,
        views.sum(),
        starved.sum(),
        pending as u64,
        adds as u64,
        floor,
    ]
}

impl Side for InvariantChecker {
    fn marks(&mut self) -> &mut InvariantChecker {
        self
    }
    fn observe(&mut self, cluster: &mut Cluster) -> Result<(), Violation> {
        InvariantChecker::observe::<CounterService, ChaosDriver>(self, cluster)
    }
    fn finish(&self) -> Result<(), Violation> {
        InvariantChecker::finish(self)
    }
    fn progress(&self) -> [u64; 8] {
        progress(
            [&self.committed, &self.fast_committed, &self.checkpoints],
            self.views.iter().copied(),
            self.starved_seen.iter().copied(),
            self.lin.pending.len(),
            self.lin.add_values.len(),
            self.lin.floor_at(u64::MAX),
        )
    }
}

/// The model with the marks it reads.
#[derive(Default)]
struct Model {
    marks: InvariantChecker,
    checker: RefChecker,
}

impl Side for Model {
    fn marks(&mut self) -> &mut InvariantChecker {
        &mut self.marks
    }
    fn observe(&mut self, cluster: &mut Cluster) -> Result<(), Violation> {
        self.checker
            .observe::<CounterService, ChaosDriver>(&mut self.marks, cluster)
    }
    fn finish(&self) -> Result<(), Violation> {
        self.checker.lin.finish()
    }
    fn progress(&self) -> [u64; 8] {
        let c = &self.checker;
        progress(
            [&c.committed, &c.fast_committed, &c.checkpoints],
            c.views.values().copied(),
            c.starved_seen.values().copied(),
            c.lin.pending.len(),
            c.lin.add_values.len(),
            c.lin.floor_at(u64::MAX),
        )
    }
}

/// A change made to a node by hand between two events, reported to the
/// checker the way the harness reports its own reach into a node: by the
/// fault applied with it.
struct Tamper {
    /// Lands before the event after this many.
    after_events: u64,
    change: fn(&mut Cluster),
    fault: Fault,
}

/// `Cluster::run_with_plan`'s loop, over either checker; the checker's
/// progress after every event is folded into `trail`.
fn drive(
    side: &mut impl Side,
    cluster: &mut Cluster,
    plan: &FaultPlan,
    delta_ns: u64,
    tamper: Option<&Tamper>,
    trail: &mut u64,
) -> Result<(), Violation> {
    let deadline = cluster.sim.now().after(delta_ns);
    let mut next_fault = 0;
    side.marks().nodes_touched();
    loop {
        let next_event = cluster.sim.next_event_at().filter(|&t| t <= deadline);
        let fault_horizon = next_event.unwrap_or(deadline).nanos();
        while next_fault < plan.events.len() && plan.events[next_fault].at_ns <= fault_horizon {
            cluster.apply_fault::<CounterService, ChaosDriver>(
                &plan.events[next_fault].fault,
                side.marks(),
            );
            next_fault += 1;
        }
        if next_event.is_none() {
            break;
        }
        if let Some(t) = tamper.filter(|t| t.after_events == cluster.sim.events_processed()) {
            (t.change)(cluster);
            cluster.apply_fault::<CounterService, ChaosDriver>(&t.fault, side.marks());
        }
        cluster.sim.step();
        side.observe(cluster)?;
        *trail = side.progress().into_iter().fold(*trail, derive_seed);
    }
    cluster.sim.run_until(deadline);
    Ok(())
}

/// How a twin run ended: the verdict, the event count it was reached at,
/// and the trail of the checker's progress up to there.
type Ending = (Result<(), Violation>, u64, u64);

/// One fuzz iteration of `family` under `side`, as `FuzzFamily::run` does
/// it.
fn iteration(
    family: &FuzzFamily,
    seed: u64,
    plan: &FaultPlan,
    side: &mut impl Side,
    tamper: Option<&Tamper>,
) -> Ending {
    let mut cluster = family.cluster(seed, 1, 0);
    side.marks().set_heal_deadline(family.heal_deadline_ns);
    let mut trail = 0;
    let verdict = (|| {
        let horizon = FAULT_HORIZON_NS + dur::millis(1);
        drive(side, &mut cluster, plan, horizon, tamper, &mut trail)?;
        for _ in 0..LIVENESS_ROUNDS {
            if family.workload_done(&cluster) && side.marks().corrupted_replicas().next().is_none()
            {
                break;
            }
            let empty = FaultPlan::empty();
            let round = LIVENESS_ROUND_NS;
            drive(side, &mut cluster, &empty, round, tamper, &mut trail)?;
        }
        side.finish()
    })();
    (verdict, cluster.sim.events_processed(), trail)
}

/// Everything the two checkers accumulated over twin runs is the same.
fn assert_same_observations(new: &InvariantChecker, old: &Model) {
    assert_eq!(new.tainted, old.marks.tainted);
    assert_eq!(new.corrupted, old.marks.corrupted);
    assert_eq!(new.tainted_clients, old.marks.tainted_clients);
    assert_eq!(new.committed, old.checker.committed);
    assert_eq!(new.fast_committed, old.checker.fast_committed);
    assert_eq!(new.checkpoints, old.checker.checkpoints);
    for (i, &view) in new.views.iter().enumerate() {
        let seen = old.checker.views.get(&(i as ReplicaId));
        assert_eq!(view, seen.copied().unwrap_or(0), "view of {i}");
    }
    for (id, &starved) in new.starved_seen.iter().enumerate() {
        let seen = old.checker.starved_seen.get(&(id as ClientId));
        assert_eq!(starved, seen.copied().unwrap_or(0), "starvation of {id}");
    }
    let (lin, model) = (&new.lin, &old.checker.lin);
    assert!(lin.pending.keys().eq(model.pending.keys()));
    assert_eq!(lin.invoked_adds, model.invoked_adds);
    assert_eq!(lin.add_values, model.add_values);
    for d in &model.done {
        for t in [d.completed_ns - 1, d.completed_ns, d.completed_ns + 1] {
            assert_eq!(lin.floor_at(t), model.floor_at(t), "floor at {t}");
        }
    }
}

/// Twin runs of the first `seeds` schedules of `family`.
fn twins_agree_on(family: &FuzzFamily, seeds: usize) {
    let base = 0x7517 ^ family.seed_salt;
    for builder in Cluster::with_seed_iter(base, family.config(1)).take(seeds) {
        let seed = builder.seed_value();
        let plan = family.plan(seed, 1);
        let mut new = InvariantChecker::new();
        let mut old = Model::default();
        let a = iteration(family, seed, &plan, &mut new, None);
        let b = iteration(family, seed, &plan, &mut old, None);
        assert_eq!(a, b, "{} seed {seed}", family.name);
        assert_same_observations(&new, &old);
    }
}

#[test]
fn twins_agree_on_classic() {
    twins_agree_on(&CLASSIC, 64);
}

#[test]
fn twins_agree_on_recovery() {
    twins_agree_on(&RECOVERY, 64);
}

#[test]
fn twins_agree_on_fastpath() {
    twins_agree_on(&FASTPATH, 64);
}

#[test]
fn twins_agree_on_lease() {
    twins_agree_on(&LEASE, 64);
}

#[test]
fn twins_agree_on_overload() {
    twins_agree_on(&OVERLOAD, 64);
}

/// The construction of `injected_broken_quorum_check_is_caught` in
/// `tests/chaos.rs`: a real protocol violation, caught by both checkers
/// at the same event.
#[test]
fn twins_agree_on_a_broken_quorum_check() {
    fn run(side: &mut impl Side) -> Ending {
        let seed = 0xB0B;
        let mut cluster = Cluster::builder(CLASSIC.config(1))
            .seed(seed)
            .build_counter();
        cluster.add_client(ChaosDriver::new(seed, 6, Workload::Adds));
        cluster.add_client(ChaosDriver::new(seed ^ 7, 6, Workload::Adds).delayed(dur::millis(5)));
        cluster
            .replica_mut::<CounterService>(1)
            .set_behavior(Behavior::BrokenQuorumCheck);
        let cut = |b| FaultEvent {
            at_ns: 0,
            fault: Fault::Net(NetFault::Partition { a: 0, b }),
        };
        let plan = FaultPlan {
            events: vec![cut(2), cut(3)],
        };
        let mut trail = 0;
        let verdict = drive(
            side,
            &mut cluster,
            &plan,
            dur::millis(5_000),
            None,
            &mut trail,
        );
        (verdict, cluster.sim.events_processed(), trail)
    }
    let mut new = InvariantChecker::new();
    let mut old = Model::default();
    let a = run(&mut new);
    assert_eq!(a, run(&mut old));
    assert!(a.0.is_err(), "the broken quorum check must be caught");
}

/// Replica 2 finalizes a batch nobody else did, behind the checker's back.
pub(super) fn forge_commit(c: &mut Cluster) {
    let replica = c.replica_mut::<CounterService>(2);
    let seq = replica.last_committed_executed();
    assert!(seq > 0);
    replica
        .audit_mut()
        .note_committed(seq, bft_crypto::md5::digest(b"forged"));
}

fn forge_checkpoint(c: &mut Cluster) {
    let replica = c.replica_mut::<CounterService>(2);
    let seq = replica.stable_checkpoint();
    assert!(seq > 0);
    replica
        .audit_mut()
        .note_checkpoint(seq, bft_crypto::md5::digest(b"forged"));
}

fn forge_stale_lease_read(c: &mut Cluster) {
    let now = c.sim.now().nanos();
    c.replica_mut::<CounterService>(2)
        .audit_mut()
        .note_lease_read(4, 1_000, now, &0u64.to_le_bytes());
}

/// Audit records forged by hand on replica 2 halfway through a clean run,
/// each with a fault of a different kind applied beside it: both checkers
/// report the same violation after the very next event, whichever node
/// that event ran on.
#[test]
fn twins_agree_on_audits_fed_by_hand() {
    /// The forgery, the fault beside it, and the violation it must raise.
    type Forgery = (fn(&mut Cluster), Fault, fn(&Violation) -> bool);
    let forgeries: [Forgery; 3] = [
        (forge_commit, Fault::Net(NetFault::Loss(0)), |v| {
            matches!(v, Violation::Agreement { b: (2, _), .. })
        }),
        (
            forge_checkpoint,
            Fault::Node {
                node: 1,
                fault: NodeFault::Restart,
            },
            |v| matches!(v, Violation::CheckpointDivergence { b: (2, _), .. }),
        ),
        (
            forge_stale_lease_read,
            Fault::Client {
                client: 5,
                fault: ClientFault::Restore,
            },
            |v| matches!(v, Violation::StaleLeaseRead { replica: 2, .. }),
        ),
    ];
    let empty = FaultPlan::empty();
    for (k, (change, fault, expected)) in forgeries.into_iter().enumerate() {
        for seed in (0..8).map(|i| derive_seed(0xF0_96ED, i)) {
            let family = [&CLASSIC, &RECOVERY, &FASTPATH][k];
            let (clean, total, _) =
                iteration(family, seed, &empty, &mut InvariantChecker::new(), None);
            assert_eq!(clean, Ok(()));
            let tamper = Tamper {
                after_events: total / 2,
                change,
                fault,
            };
            let mut new = InvariantChecker::new();
            let mut old = Model::default();
            let a = iteration(family, seed, &empty, &mut new, Some(&tamper));
            let b = iteration(family, seed, &empty, &mut old, Some(&tamper));
            assert_eq!(a, b, "forgery {k} seed {seed}");
            let violation = a.0.expect_err("the forged record must be caught");
            assert!(expected(&violation), "forgery {k} seed {seed}: {violation}");
            assert_eq!(a.1, tamper.after_events + 1, "caught after the next event");
        }
    }
}

// ----------------------------------------------------------------------
// The staircase against the scan
// ----------------------------------------------------------------------

/// One call on a linearizability model.
enum Call {
    Op(OpEvent),
    LeaseRead { serve_ns: u64, value: u64 },
    Floor(u64),
}

/// Applies an operation to the true register and returns its result.
fn apply(register: &mut u64, add: Option<u64>) -> u64 {
    *register += add.unwrap_or(0);
    *register
}

/// A random counter history as a checker would be fed it: six clients
/// with concurrent adds and gets, each linearized at its invocation or at
/// its completion; one completion in twenty returns a wrong value; some
/// completions are held back and fed late, out of time order; lease reads
/// and floor probes at arbitrary instants in between.
fn random_history(seed: u64, steps: usize) -> Vec<Call> {
    const CLIENTS: usize = 6;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut calls = Vec::new();
    let mut held = Vec::new();
    let mut now = 0u64;
    let mut register = 0u64;
    /// A client's open operation: its timestamp, its add amount, and its
    /// result if it already took effect.
    type Open = (Timestamp, Option<u64>, Option<u64>);
    let mut open: [Option<Open>; CLIENTS] = [None; CLIENTS];
    let mut next_ts = [1u64; CLIENTS];
    for _ in 0..steps {
        now += rng.gen_range(0..4u64);
        let c = rng.gen_range(0..CLIENTS);
        let client = 10 + c as ClientId;
        match open[c].take() {
            None => {
                let timestamp = next_ts[c];
                next_ts[c] += 1;
                let add = rng.gen_bool(0.4).then(|| rng.gen_range(1..=9u64));
                calls.push(Call::Op(OpEvent::Invoke {
                    client,
                    timestamp,
                    op: add.map_or(vec![1], |k| vec![0, k as u8]),
                    at_ns: now,
                }));
                let early = rng.gen_bool(0.5).then(|| apply(&mut register, add));
                open[c] = Some((timestamp, add, early));
            }
            Some((timestamp, add, early)) => {
                let mut value = early.unwrap_or_else(|| apply(&mut register, add));
                if rng.gen_bool(0.05) {
                    value = (value + rng.gen_range(0..12u64)).saturating_sub(6);
                }
                let complete = OpEvent::Complete {
                    client,
                    timestamp,
                    result: value.to_le_bytes().to_vec(),
                    at_ns: now,
                };
                if rng.gen_bool(0.15) {
                    held.push(complete);
                } else {
                    calls.push(Call::Op(complete));
                }
            }
        }
        if rng.gen_bool(0.1) {
            calls.extend(held.drain(..).rev().map(Call::Op));
        }
        if rng.gen_bool(0.2) {
            calls.push(Call::LeaseRead {
                serve_ns: rng.gen_range(0..now + 4),
                value: (register + rng.gen_range(0..4u64)).saturating_sub(2),
            });
        }
        if rng.gen_bool(0.2) {
            calls.push(Call::Floor(rng.gen_range(0..now + 4)));
        }
    }
    calls
}

/// The history as a checker attached late is fed it: the first
/// `backlog` operation events arrive as one batch sorted by time (what
/// `observe` does with a drain), the rest as they happened.
fn attached_late(calls: Vec<Call>, backlog: usize) -> Vec<Call> {
    let mut batch = Vec::new();
    let mut rest = calls.into_iter();
    while batch.len() < backlog {
        match rest.next() {
            Some(Call::Op(ev)) => batch.push(ev),
            Some(_) => {}
            None => break,
        }
    }
    batch.sort_by_key(OpEvent::at_ns);
    batch.into_iter().map(Call::Op).chain(rest).collect()
}

/// What a replay met, so the test can insist it met everything.
#[derive(Default)]
struct Met {
    accepted: u32,
    rejected: u32,
    /// Completions fed after a later one.
    out_of_order: u32,
    stale_lease_reads: u32,
}

/// Feeds `calls` to the staircase model and to the scan model and holds
/// every answer equal, `detail` strings included.
fn replay(calls: &[Call]) -> Met {
    let mut new = CounterLinearizability::default();
    let mut old = RefLin::default();
    let mut met = Met::default();
    let mut latest_completion = 0;
    for call in calls {
        match call {
            Call::Op(OpEvent::Invoke {
                client,
                timestamp,
                op,
                at_ns,
            }) => assert_eq!(
                new.invoke(*client, *timestamp, op, *at_ns),
                old.invoke(*client, *timestamp, op, *at_ns)
            ),
            Call::Op(OpEvent::Complete {
                client,
                timestamp,
                result,
                at_ns,
            }) => {
                let verdict = new.complete(*client, *timestamp, result, *at_ns);
                assert_eq!(verdict, old.complete(*client, *timestamp, result, *at_ns));
                match verdict {
                    Ok(()) => met.accepted += 1,
                    Err(_) => met.rejected += 1,
                }
                met.out_of_order += u32::from(*at_ns < latest_completion);
                latest_completion = latest_completion.max(*at_ns);
            }
            Call::LeaseRead { serve_ns, value } => {
                let result = value.to_le_bytes();
                let verdict = new.check_lease_read(2, 9, 1, *serve_ns, &result);
                assert_eq!(verdict, old.check_lease_read(2, 9, 1, *serve_ns, &result));
                met.stale_lease_reads += u32::from(verdict.is_err());
            }
            Call::Floor(t) => assert_eq!(new.floor_at(*t), old.floor_at(*t), "floor at {t}"),
        }
    }
    assert_eq!(new.finish(), old.finish());
    let stairs = |w: &[Step]| w[0].completed_ns <= w[1].completed_ns && w[0].value < w[1].value;
    assert!(new.done.windows(2).all(stairs), "{:?}", new.done);
    met
}

#[test]
fn staircase_matches_the_scan_on_random_histories() {
    let mut met = Met::default();
    for seed in 0..48 {
        let calls = random_history(derive_seed(0x57A1_2CA5, seed), 3_000);
        let calls = if seed % 3 == 0 {
            attached_late(calls, 1_000)
        } else {
            calls
        };
        let m = replay(&calls);
        met.accepted += m.accepted;
        met.rejected += m.rejected;
        met.out_of_order += m.out_of_order;
        met.stale_lease_reads += m.stale_lease_reads;
    }
    assert!(met.accepted > 10_000, "{}", met.accepted);
    assert!(met.rejected > 500, "{}", met.rejected);
    assert!(met.out_of_order > 1_000, "{}", met.out_of_order);
    assert!(met.stale_lease_reads > 500, "{}", met.stale_lease_reads);
}

/// The checker's analogue of `retention_does_not_grow_with_the_run`: the
/// staircase holds a step per distinct total, not per operation.
#[test]
fn staircase_retains_distinct_totals_not_operations() {
    let mut lin = CounterLinearizability::default();
    lin.invoke(4, 1, &[0, 5], 0).unwrap();
    lin.complete(4, 1, &5u64.to_le_bytes(), 10).unwrap();
    for i in 0..10_000u64 {
        lin.invoke(5, i, &[1], 20 + 2 * i).unwrap();
        lin.complete(5, i, &5u64.to_le_bytes(), 21 + 2 * i).unwrap();
    }
    assert_eq!(lin.done.len(), 1);
    // Twenty more adds, each followed by a hundred gets: twenty more steps.
    let mut now = 30_000;
    for k in 1..=20u64 {
        lin.invoke(4, 1 + k, &[0, 1], now).unwrap();
        lin.complete(4, 1 + k, &(5 + k).to_le_bytes(), now + 1)
            .unwrap();
        for i in 0..100 {
            let ts = 10_000 + k * 100 + i;
            lin.invoke(5, ts, &[1], now + 2).unwrap();
            lin.complete(5, ts, &(5 + k).to_le_bytes(), now + 3)
                .unwrap();
        }
        now += 10;
    }
    assert_eq!(lin.done.len(), 21);
    assert_eq!(lin.floor_at(u64::MAX), 25);
}
