//! The queue the engine had before keys, slab and timer heap — one
//! `BinaryHeap` of whole events ordered by `(at, seq)` and a `HashSet` of
//! cancelled timer ids — kept as the model the engine is held to.
//!
//! [`RefSim`] is that engine reduced to what decides dispatch order: the
//! queue, the per-node CPU, the send paths over the shared [`Network`].
//! The differential test runs one seeded script of node behaviour on both
//! and requires the same dispatches at the same instants.

use super::{Context, Node, Simulation, TimerId};
use crate::network::{NetConfig, Network, NodeId, TxSlot};
use crate::time::{dur, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;

/// What a scripted node asks of whichever engine runs it.
trait Host {
    type Timer: Copy;
    fn now(&self) -> SimTime;
    fn id(&self) -> NodeId;
    fn charge(&mut self, ns: u64);
    fn send(&mut self, dst: NodeId, msg: u32, bytes: usize);
    fn multicast(&mut self, dsts: &[NodeId], msg: u32, bytes: usize);
    fn set_timer(&mut self, delay_ns: u64, token: u64) -> Self::Timer;
    fn cancel_timer(&mut self, id: Self::Timer);
}

impl Host for Context<'_, u32> {
    type Timer = TimerId;
    fn now(&self) -> SimTime {
        Context::now(self)
    }
    fn id(&self) -> NodeId {
        Context::id(self)
    }
    fn charge(&mut self, ns: u64) {
        Context::charge(self, ns);
    }
    fn send(&mut self, dst: NodeId, msg: u32, bytes: usize) {
        Context::send(self, dst, msg, bytes);
    }
    fn multicast(&mut self, dsts: &[NodeId], msg: u32, bytes: usize) {
        Context::multicast(self, dsts, msg, bytes);
    }
    fn set_timer(&mut self, delay_ns: u64, token: u64) -> TimerId {
        Context::set_timer(self, delay_ns, token)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        Context::cancel_timer(self, id);
    }
}

enum RefKind {
    Start,
    Deliver { from: NodeId, msg: u32 },
    Timer { token: u64, id: u64 },
}

struct Queued {
    at: SimTime,
    born: SimTime,
    seq: u64,
    dst: NodeId,
    kind: RefKind,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct RefKernel {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Queued>,
    cpu_free: Vec<SimTime>,
    cpu_queue_limit: Vec<u64>,
    net: Network,
    rng: StdRng,
    cancelled: HashSet<u64>,
    next_timer: u64,
    events_processed: u64,
    cpu_dropped: u64,
}

impl RefKernel {
    fn push(&mut self, at: SimTime, dst: NodeId, kind: RefKind) {
        self.push_born(at, at, dst, kind);
    }

    fn push_born(&mut self, at: SimTime, born: SimTime, dst: NodeId, kind: RefKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued {
            at,
            born,
            seq,
            dst,
            kind,
        });
    }

    fn deliver_with_duplicates(
        &mut self,
        slot: TxSlot,
        src: NodeId,
        dst: NodeId,
        at: SimTime,
        msg: u32,
    ) {
        let deliver = RefKind::Deliver { from: src, msg };
        if let Some(at2) = self.net.maybe_duplicate(slot, src, dst, &mut self.rng) {
            self.push(at2, dst, RefKind::Deliver { from: src, msg });
        }
        self.push(at, dst, deliver);
    }
}

struct RefContext<'a> {
    kernel: &'a mut RefKernel,
    id: NodeId,
    cpu_used: u64,
}

impl RefContext<'_> {
    fn loopback(&mut self, depart: SimTime, msg: u32) {
        let from = self.id;
        self.kernel
            .push(depart.after(1_000), from, RefKind::Deliver { from, msg });
    }

    fn receive(&mut self, slot: TxSlot, dst: NodeId, msg: u32) {
        let kernel = &mut *self.kernel;
        if let Ok(at) = kernel.net.receive(slot, self.id, dst, &mut kernel.rng) {
            kernel.deliver_with_duplicates(slot, self.id, dst, at, msg);
        }
    }
}

impl Host for RefContext<'_> {
    type Timer = u64;

    fn now(&self) -> SimTime {
        self.kernel.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn charge(&mut self, ns: u64) {
        self.cpu_used += ns;
    }

    fn send(&mut self, dst: NodeId, msg: u32, bytes: usize) {
        let depart = self.kernel.now.after(self.cpu_used);
        if dst == self.id {
            self.loopback(depart, msg);
            return;
        }
        let slot = self.kernel.net.transmit(depart, self.id, bytes);
        self.receive(slot, dst, msg);
    }

    fn multicast(&mut self, dsts: &[NodeId], msg: u32, bytes: usize) {
        let depart = self.kernel.now.after(self.cpu_used);
        let slot = self.kernel.net.transmit(depart, self.id, bytes);
        for &dst in dsts {
            if dst == self.id {
                self.loopback(depart, msg);
            } else {
                self.receive(slot, dst, msg);
            }
        }
    }

    fn set_timer(&mut self, delay_ns: u64, token: u64) -> u64 {
        let id = self.kernel.next_timer;
        self.kernel.next_timer += 1;
        let at = self.kernel.now.after(self.cpu_used).after(delay_ns);
        self.kernel.push(at, self.id, RefKind::Timer { token, id });
        id
    }

    fn cancel_timer(&mut self, id: u64) {
        self.kernel.cancelled.insert(id);
    }
}

struct RefSim {
    nodes: Vec<Option<Script<u64>>>,
    kernel: RefKernel,
}

impl RefSim {
    fn new(seed: u64, net: NetConfig) -> RefSim {
        RefSim {
            nodes: Vec::new(),
            kernel: RefKernel {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                cpu_free: Vec::new(),
                cpu_queue_limit: Vec::new(),
                net: Network::new(net),
                rng: StdRng::seed_from_u64(seed),
                cancelled: HashSet::new(),
                next_timer: 0,
                events_processed: 0,
                cpu_dropped: 0,
            },
        }
    }

    fn add_node(&mut self, node: Script<u64>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Some(node));
        self.kernel.net.ensure_host(id);
        self.kernel.cpu_free.push(SimTime::ZERO);
        self.kernel.cpu_queue_limit.push(u64::MAX);
        self.kernel.push(self.kernel.now, id, RefKind::Start);
        id
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.kernel.queue.peek().map(|ev| ev.at)
    }

    /// Queued events that will still be dispatched or dropped.
    fn queued_events(&self) -> usize {
        let dead = |ev: &&Queued| matches!(ev.kind, RefKind::Timer { id, .. } if self.kernel.cancelled.contains(&id));
        self.kernel.queue.len() - self.kernel.queue.iter().filter(dead).count()
    }

    fn step(&mut self) -> bool {
        loop {
            let Some(ev) = self.kernel.queue.pop() else {
                return false;
            };
            if let RefKind::Timer { id, .. } = &ev.kind {
                if self.kernel.cancelled.remove(id) {
                    continue;
                }
            }
            let busy_until = self.kernel.cpu_free[ev.dst as usize];
            if busy_until > ev.at {
                let wait = busy_until.since(ev.born);
                if wait > self.kernel.cpu_queue_limit[ev.dst as usize]
                    && matches!(ev.kind, RefKind::Deliver { .. })
                {
                    self.kernel.cpu_dropped += 1;
                    continue;
                }
                self.kernel.push_born(busy_until, ev.born, ev.dst, ev.kind);
                continue;
            }
            assert!(ev.at >= self.kernel.now, "time went backwards");
            self.kernel.now = ev.at;
            self.kernel.events_processed += 1;
            let mut node = self.nodes[ev.dst as usize].take().expect("node present");
            let mut ctx = RefContext {
                kernel: &mut self.kernel,
                id: ev.dst,
                cpu_used: 0,
            };
            node.react(
                &mut ctx,
                match ev.kind {
                    RefKind::Start => Seen::Start,
                    RefKind::Deliver { from, msg } => Seen::Message { from, msg },
                    RefKind::Timer { token, .. } => Seen::Timer(token),
                },
            );
            let used = ctx.cpu_used;
            self.kernel.cpu_free[ev.dst as usize] = self.kernel.now.after(used);
            self.nodes[ev.dst as usize] = Some(node);
            return true;
        }
    }
}

/// One dispatch, as the node saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Start,
    Message { from: NodeId, msg: u32 },
    Timer(u64),
}

type Dispatches = Rc<RefCell<Vec<(SimTime, NodeId, Seen)>>>;

/// A node whose behaviour is a function of its seed and of what it has
/// been shown so far, so the two engines diverge as soon as one of them
/// shows it anything different.
struct Script<T> {
    rng: StdRng,
    nodes: u32,
    /// Actions left; bounds the run.
    budget: u32,
    sent: u32,
    /// Every timer handle ever returned: cancels hit pending, fired and
    /// already-cancelled timers alike.
    timers: Vec<T>,
    dispatches: Dispatches,
}

impl<T: Copy> Script<T> {
    fn new(seed: u64, id: NodeId, nodes: u32, dispatches: Dispatches) -> Script<T> {
        Script {
            rng: StdRng::seed_from_u64(seed ^ (u64::from(id) + 1) << 32),
            nodes,
            budget: 48,
            sent: id << 16,
            timers: Vec::new(),
            dispatches,
        }
    }

    fn draw(&mut self, bound: u64) -> u64 {
        self.rng.gen_range(0..bound)
    }

    fn react<H: Host<Timer = T>>(&mut self, host: &mut H, seen: Seen) {
        self.dispatches
            .borrow_mut()
            .push((host.now(), host.id(), seen));
        // Half the handlers are free (the node is never busy), one in eight
        // holds the CPU for 10 ms (a long backlog, and drops where the node
        // has a queue limit), the rest take a few microseconds.
        host.charge(match self.draw(8) {
            0 => dur::millis(10),
            1..=4 => 0,
            n => n * 3_000,
        });
        for _ in 0..self.draw(4) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.sent += 1;
            let bytes = [0, 64, 1_400, 4_096][self.draw(4) as usize];
            match self.draw(8) {
                // To any node, itself included (loopback).
                0..=2 => host.send(self.draw(u64::from(self.nodes)) as NodeId, self.sent, bytes),
                3 => {
                    let everyone: Vec<NodeId> = (0..self.nodes).collect();
                    host.multicast(&everyone, self.sent, bytes);
                }
                // Few distinct delays, so timers of one handler — and of
                // nodes started at the same instant — tie on `at`.
                4..=5 => {
                    let delay = [0, 1_000, 1_000, 250_000, 20_000_000][self.draw(5) as usize];
                    let id = host.set_timer(delay, u64::from(self.sent));
                    self.timers.push(id);
                }
                _ => {
                    if !self.timers.is_empty() {
                        let pick = self.draw(self.timers.len() as u64) as usize;
                        host.cancel_timer(self.timers[pick]);
                    }
                }
            }
            // Later actions of the handler depart later.
            host.charge(self.draw(2) * 1_500);
        }
    }
}

impl Node<u32> for Script<TimerId> {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        self.react(ctx, Seen::Start);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
        self.react(ctx, Seen::Message { from, msg });
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
        self.react(ctx, Seen::Timer(token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What one seed exercised, so the test can show the script reaches the
/// cases it is there for.
#[derive(Default)]
struct Coverage {
    dispatched: u64,
    cpu_dropped: u64,
    timers_fired: u64,
    dead_keys_seen: u64,
}

fn run_both(seed: u64) -> Coverage {
    let nodes = 3 + (seed % 3) as u32;
    let faults = |net: &mut Network| {
        net.set_jitter_ns(3_000);
        if seed.is_multiple_of(2) {
            net.set_loss_probability(0.05);
            net.set_duplicate_probability(0.1);
        }
    };
    let mut sim: Simulation<u32> = Simulation::new(seed, NetConfig::SWITCHED_100MBPS);
    let mut reference = RefSim::new(seed, NetConfig::SWITCHED_100MBPS);
    faults(sim.network_mut());
    faults(&mut reference.kernel.net);
    let seen_by_sim = Dispatches::default();
    let seen_by_reference = Dispatches::default();
    for id in 0..nodes {
        sim.add_node(Box::new(Script::<TimerId>::new(
            seed,
            id,
            nodes,
            seen_by_sim.clone(),
        )));
        reference.add_node(Script::new(seed, id, nodes, seen_by_reference.clone()));
    }
    // One node drops what waits longer than 3 ms; one, on every third
    // seed, drops whatever finds it busy at all.
    let limits = [
        (0, dur::millis(3)),
        (1, if seed.is_multiple_of(3) { 0 } else { u64::MAX }),
    ];
    for (node, limit) in limits {
        sim.set_cpu_queue_limit(node, limit);
        reference.kernel.cpu_queue_limit[node as usize] = limit;
    }

    let mut coverage = Coverage::default();
    for step in 0.. {
        assert!(step < 100_000, "seed {seed}: the script does not end");
        assert_eq!(
            sim.next_event_at(),
            reference.next_event_at(),
            "seed {seed} step {step}: next_event_at"
        );
        assert_eq!(
            sim.queued_events(),
            reference.queued_events(),
            "seed {seed} step {step}: live events"
        );
        if sim.queued_events() < sim.kernel.queue.keys() {
            coverage.dead_keys_seen += 1;
        }
        let stepped = sim.step();
        assert_eq!(stepped, reference.step(), "seed {seed} step {step}: step()");
        assert_eq!(
            seen_by_sim.borrow().last(),
            seen_by_reference.borrow().last(),
            "seed {seed} step {step}: dispatch"
        );
        assert_eq!(sim.now(), reference.kernel.now, "seed {seed} step {step}");
        if !stepped {
            break;
        }
    }
    assert_eq!(*seen_by_sim.borrow(), *seen_by_reference.borrow());
    assert_eq!(sim.events_processed(), reference.kernel.events_processed);
    assert_eq!(
        sim.health().total(crate::health::Counter::CpuDropped),
        reference.kernel.cpu_dropped
    );
    assert_eq!(sim.queued_events(), 0);
    coverage.dispatched = sim.events_processed();
    coverage.cpu_dropped = reference.kernel.cpu_dropped;
    coverage.timers_fired = seen_by_sim
        .borrow()
        .iter()
        .filter(|(_, _, seen)| matches!(seen, Seen::Timer(_)))
        .count() as u64;
    coverage
}

#[test]
fn dispatch_order_matches_the_single_heap_reference() {
    let mut total = Coverage::default();
    for seed in 0..256 {
        let one = run_both(seed);
        total.dispatched += one.dispatched;
        total.cpu_dropped += one.cpu_dropped;
        total.timers_fired += one.timers_fired;
        total.dead_keys_seen += one.dead_keys_seen;
    }
    assert!(total.dispatched > 256 * 50, "{}", total.dispatched);
    assert!(total.cpu_dropped > 256, "{}", total.cpu_dropped);
    assert!(total.timers_fired > 256, "{}", total.timers_fired);
    assert!(total.dead_keys_seen > 256, "{}", total.dead_keys_seen);
}
