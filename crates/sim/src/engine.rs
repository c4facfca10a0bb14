//! The discrete-event engine.
//!
//! Nodes (replicas, clients, servers) implement [`Node`] and interact with
//! the world only through [`Context`]: sending messages, setting timers,
//! and charging CPU time. Each node is a *serial processor* — while it is
//! busy with one event, later events for it are deferred — which is what
//! makes CPU a saturable resource and produces the throughput plateaus in
//! the paper's Figures 4 and 6.
//!
//! Determinism: events are ordered by (time, insertion sequence) and all
//! randomness comes from one seeded RNG, so a run is a pure function of
//! its inputs.

use crate::health::{Counter, Counters};
use crate::metrics::Metrics;
use crate::network::{NetConfig, Network, NodeId};
use crate::time::SimTime;
use crate::trace::{CostKind, SpanEdge, TraceEvent, TraceMeta, TracePhase, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A participant in the simulation.
///
/// `M` is the message type exchanged on the simulated network; an
/// experiment typically uses one enum covering all protocols involved.
pub trait Node<M>: 'static {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message is delivered. `wire_bytes` is the payload size
    /// used for network accounting (handlers typically charge a receive
    /// cost proportional to it).
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M, wire_bytes: usize);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _token: u64) {}

    /// Downcast support so experiments can inspect concrete node state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A handle to a pending timer, used for cancellation.
///
/// Names the slab slot the timer occupies and the slot's generation when
/// it was armed; once the timer fires or is cancelled the slot moves to
/// its next generation and the handle matches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    slot: u32,
    generation: u32,
}

enum EventKind<M> {
    Start,
    Deliver {
        from: NodeId,
        msg: M,
        wire_bytes: usize,
    },
    Timer {
        token: u64,
    },
}

/// A queued event's payload. Written into the slab once; only its
/// [`Key`] moves while the event waits.
struct Event<M> {
    /// When the event first entered the queue (deferrals preserve this so
    /// queue-limit checks measure total waiting time).
    born: SimTime,
    dst: NodeId,
    kind: EventKind<M>,
}

/// What the heaps order: 24 bytes, whatever `M` is.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    /// The slot's generation when the key was made. A key whose slot has
    /// moved on (its timer was cancelled) is dead and skipped when popped.
    generation: u32,
}

impl Key {
    /// `(at, seq)` as one number. `seq` is unique, so this is a total
    /// order, and a sift compares it in two instructions where the
    /// derived field-by-field order branches.
    fn rank(&self) -> u128 {
        u128::from(self.at.nanos()) << 64 | u128::from(self.seq)
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct Slot<M> {
    /// Bumped every time the slot is vacated. It wraps after 2³² reuses
    /// of this one slot, far more than happen while any one key or
    /// [`TimerId`] naming the slot is still around.
    generation: u32,
    event: Option<Event<M>>,
}

/// Which heap the earliest key sits in.
#[derive(Clone, Copy)]
enum Head {
    Near,
    Timers,
}

/// The event queue: one total order `(at, seq)` kept in two heaps of keys
/// over a slab of events.
///
/// `near` holds deliveries, starts and every deferred event — a few
/// hundred keys that churn (an event for a busy node is re-keyed once per
/// handler that runs ahead of it). `timers` holds keys of armed timers, a
/// quarter of a simulated second out and nearly all cancelled long before
/// they surface; a key there is touched when armed and when its instant
/// comes up or a purge drops it, not by the traffic in between. `seq` is drawn
/// from one counter, so taking the smaller of the two heads is the order
/// a single heap would give.
///
/// A dead key is popped when it reaches the head: [`Simulation::next_event_at`]
/// settles the queue first, so what a driver peeks is the instant of the
/// event the next `step()` dispatches, never a dead key's. Which dead keys
/// are still in a heap is therefore unobservable, and [`Queue::cancel`]
/// drops those of `timers` in bulk.
struct Queue<M> {
    seq: u64,
    near: BinaryHeap<Reverse<Key>>,
    timers: BinaryHeap<Reverse<Key>>,
    /// Timers cancelled since `timers` last dropped its dead keys.
    cancelled: usize,
    slab: Vec<Slot<M>>,
    free: Vec<u32>,
}

impl<M> Queue<M> {
    fn new() -> Queue<M> {
        Queue {
            seq: 0,
            near: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            cancelled: 0,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Stores a new event and returns its key, not yet in either heap.
    fn insert(&mut self, at: SimTime, dst: NodeId, kind: EventKind<M>) -> Key {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued events");
            self.slab.push(Slot {
                generation: 0,
                event: None,
            });
            slot
        });
        let entry = &mut self.slab[slot as usize];
        entry.event = Some(Event {
            born: at,
            dst,
            kind,
        });
        let generation = entry.generation;
        Key {
            at,
            seq: self.next_seq(),
            slot,
            generation,
        }
    }

    fn push(&mut self, at: SimTime, dst: NodeId, kind: EventKind<M>) {
        let key = self.insert(at, dst, kind);
        self.near.push(Reverse(key));
    }

    fn arm(&mut self, at: SimTime, dst: NodeId, token: u64) -> TimerId {
        let key = self.insert(at, dst, EventKind::Timer { token });
        self.timers.push(Reverse(key));
        TimerId {
            slot: key.slot,
            generation: key.generation,
        }
    }

    /// Takes the event out of `slot` and retires the slot's generation, so
    /// a key or [`TimerId`] still naming it matches nothing.
    fn vacate(&mut self, slot: u32) -> Option<Event<M>> {
        let entry = &mut self.slab[slot as usize];
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot);
        entry.event.take()
    }

    /// Cancels the timer `id` names, if it is still armed. Once the
    /// cancellations since the last purge outnumber half the keys in
    /// `timers`, the dead keys there are dropped: amortised O(1) per
    /// cancel, and `timers` holds at most about twice its live keys.
    fn cancel(&mut self, id: TimerId) {
        let armed = self
            .slab
            .get(id.slot as usize)
            .is_some_and(|entry| entry.generation == id.generation);
        if !armed {
            return;
        }
        self.vacate(id.slot);
        self.cancelled += 1;
        if 2 * self.cancelled > self.timers.len() {
            let slab = &self.slab;
            self.timers
                .retain(|Reverse(key)| slab[key.slot as usize].generation == key.generation);
            self.cancelled = 0;
        }
    }

    /// The earliest key, dead or alive, and the heap it is in.
    fn head(&self) -> Option<(Head, Key)> {
        match (self.near.peek(), self.timers.peek()) {
            (None, None) => None,
            (Some(&Reverse(near)), None) => Some((Head::Near, near)),
            (None, Some(&Reverse(timer))) => Some((Head::Timers, timer)),
            (Some(&Reverse(near)), Some(&Reverse(timer))) => Some(if near < timer {
                (Head::Near, near)
            } else {
                (Head::Timers, timer)
            }),
        }
    }

    /// The event `key` refers to, or `None` if the key is dead.
    fn event(&self, key: Key) -> Option<&Event<M>> {
        let entry = &self.slab[key.slot as usize];
        if entry.generation == key.generation {
            entry.event.as_ref()
        } else {
            None
        }
    }

    /// Removes the head key, leaving its slot alone.
    fn pop_key(&mut self, head: Head) {
        match head {
            Head::Near => self.near.pop(),
            Head::Timers => self.timers.pop(),
        };
    }

    /// Removes the head key and its (live) event.
    fn take(&mut self, head: Head, key: Key) -> Event<M> {
        self.pop_key(head);
        self.vacate(key.slot).expect("a live key has an event")
    }

    /// Re-keys the head event to `(at, fresh seq)`: what popping it and
    /// pushing it again would do, in one sift when it stays in `near`.
    fn defer(&mut self, head: Head, at: SimTime) {
        let seq = self.next_seq();
        match head {
            Head::Near => {
                let mut top = self.near.peek_mut().expect("head is in near");
                top.0.at = at;
                top.0.seq = seq;
            }
            Head::Timers => {
                let Reverse(key) = self.timers.pop().expect("head is in timers");
                self.near.push(Reverse(Key { at, seq, ..key }));
            }
        }
    }

    /// Keys in both heaps, dead ones included.
    fn keys(&self) -> usize {
        self.near.len() + self.timers.len()
    }

    /// Events still to be dispatched or dropped.
    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

struct Kernel<M> {
    now: SimTime,
    queue: Queue<M>,
    cpu_free: Vec<SimTime>,
    /// Per-node bound on how long a delivery may wait for the CPU before
    /// being dropped (models a finite UDP socket buffer). Timers are never
    /// dropped.
    cpu_queue_limit: Vec<u64>,
    net: Network,
    rng: StdRng,
    /// Sample histograms plus the counter registry.
    metrics: Metrics,
    trace: TraceSink,
    stopped: bool,
    events_processed: u64,
    /// The node the last processed event was dispatched to.
    last_dispatched: Option<NodeId>,
    /// Runs on every copy queued for delivery ([`Simulation::set_delivery_seam`]).
    seam: Option<Seam<M>>,
}

/// The delivery seam's type.
type Seam<M> = Box<dyn FnMut(&mut M)>;

impl<M> Kernel<M> {
    /// Queues one copy of a message for delivery, after the delivery seam
    /// has seen it.
    fn queue_delivery(
        &mut self,
        at: SimTime,
        dst: NodeId,
        from: NodeId,
        mut msg: M,
        wire_bytes: usize,
    ) {
        if let Some(seam) = &mut self.seam {
            seam(&mut msg);
        }
        self.queue.push(
            at,
            dst,
            EventKind::Deliver {
                from,
                msg,
                wire_bytes,
            },
        );
    }

    /// Enqueues a delivery that the network accepted at `at`, plus an
    /// extra copy when the fault configuration duplicates the frame.
    fn deliver_with_duplicates(
        &mut self,
        slot: crate::network::TxSlot,
        src: NodeId,
        dst: NodeId,
        at: SimTime,
        msg: M,
        wire_bytes: usize,
    ) where
        M: Clone,
    {
        if let Some(at2) = self.net.maybe_duplicate(slot, src, dst, &mut self.rng) {
            self.queue_delivery(at2, dst, src, msg.clone(), wire_bytes);
        }
        self.queue_delivery(at, dst, src, msg, wire_bytes);
    }

    /// Brings the queue's head to an event that runs at its key: pops
    /// dead keys, drops deliveries that overflowed their node's input
    /// queue and re-keys events of busy nodes to when their CPU frees up.
    /// Returns that head, or `None` when no event is left. Settling a
    /// settled queue changes nothing.
    fn settle(&mut self) -> Option<(Head, Key)> {
        loop {
            let (head, key) = self.queue.head()?;
            // Skip cancelled timers.
            let Some(ev) = self.queue.event(key) else {
                self.queue.pop_key(head);
                continue;
            };
            let busy_until = self.cpu_free[ev.dst as usize];
            if busy_until <= key.at {
                return Some((head, key));
            }
            // Defer events for a busy node until its CPU frees up. A
            // delivery that would wait longer than the node's input-queue
            // limit overflows the (modeled) socket buffer and is dropped.
            let wait = busy_until.since(ev.born);
            if wait > self.cpu_queue_limit[ev.dst as usize]
                && matches!(ev.kind, EventKind::Deliver { .. })
            {
                self.metrics.counters.count(ev.dst, Counter::CpuDropped);
                self.queue.take(head, key);
                continue;
            }
            self.queue.defer(head, busy_until);
        }
    }
}

/// The world as seen by a node's event handler.
pub struct Context<'a, M> {
    kernel: &'a mut Kernel<M>,
    id: NodeId,
    cpu_used: u64,
}

impl<M> Context<'_, M> {
    /// Current simulated time (start of this handler's execution).
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Charges `ns` nanoseconds of CPU time. Subsequent sends depart after
    /// the work charged so far, and the node stays busy (deferring its
    /// later events) until all charged work completes.
    pub fn charge(&mut self, ns: u64) {
        self.cpu_used += ns;
    }

    /// CPU charged so far in this handler.
    pub fn cpu_used(&self) -> u64 {
        self.cpu_used
    }

    /// Sends `msg` (`payload_bytes` on the wire) to `dst`. Dropped packets
    /// are counted as [`Counter::NetDropped`] on the sender.
    pub fn send(&mut self, dst: NodeId, msg: M, payload_bytes: usize)
    where
        M: Clone,
    {
        let depart = self.kernel.now.after(self.cpu_used);
        if dst == self.id {
            // Loopback bypasses the NIC (and fault injection).
            let at = depart.after(1_000);
            self.kernel
                .queue_delivery(at, dst, self.id, msg, payload_bytes);
            return;
        }
        let slot = self.kernel.net.transmit(depart, self.id, payload_bytes);
        match self
            .kernel
            .net
            .receive(slot, self.id, dst, &mut self.kernel.rng)
        {
            Ok(at) => {
                self.kernel
                    .deliver_with_duplicates(slot, self.id, dst, at, msg, payload_bytes);
            }
            Err(_) => self.count(Counter::NetDropped),
        }
    }

    /// Hardware multicast: the sender's link is charged once; each
    /// destination's receive link is charged individually. Every
    /// destination but the last gets a clone of `msg`; the last gets `msg`.
    pub fn multicast(&mut self, dsts: &[NodeId], msg: M, payload_bytes: usize)
    where
        M: Clone,
    {
        let depart = self.kernel.now.after(self.cpu_used);
        let slot = self.kernel.net.transmit(depart, self.id, payload_bytes);
        let Some((&last, rest)) = dsts.split_last() else {
            return;
        };
        for &dst in rest {
            self.multicast_to(depart, slot, dst, msg.clone(), payload_bytes);
        }
        self.multicast_to(depart, slot, last, msg, payload_bytes);
    }

    /// One destination of [`Context::multicast`].
    fn multicast_to(
        &mut self,
        depart: SimTime,
        slot: crate::network::TxSlot,
        dst: NodeId,
        msg: M,
        payload_bytes: usize,
    ) where
        M: Clone,
    {
        if dst == self.id {
            let at = depart.after(1_000);
            self.kernel
                .queue_delivery(at, dst, self.id, msg, payload_bytes);
            return;
        }
        match self
            .kernel
            .net
            .receive(slot, self.id, dst, &mut self.kernel.rng)
        {
            Ok(at) => {
                self.kernel
                    .deliver_with_duplicates(slot, self.id, dst, at, msg, payload_bytes);
            }
            Err(_) => self.count(Counter::NetDropped),
        }
    }

    /// Schedules `on_timer(token)` after `delay_ns` (measured from the end
    /// of the work charged so far).
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) -> TimerId {
        let at = self.kernel.now.after(self.cpu_used).after(delay_ns);
        self.kernel.queue.arm(at, self.id, token)
    }

    /// Cancels a pending timer. Cancelling a timer that already fired or
    /// was already cancelled is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.queue.cancel(id);
    }

    /// The simulation's RNG (all randomness must come from here).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.kernel.rng
    }

    /// The shared sample histograms (counting goes through
    /// [`Context::count`]).
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// Records one logical send of a message with wire tag `tag` in the
    /// health counter registry (a multicast counts once).
    pub fn count_sent(&mut self, tag: u8) {
        self.kernel.metrics.counters.count_sent(self.id, tag);
    }

    /// Records one delivery of a message with wire tag `tag` in the
    /// health counter registry.
    pub fn count_received(&mut self, tag: u8) {
        self.kernel.metrics.counters.count_received(self.id, tag);
    }

    /// Bumps a protocol event counter for this node.
    pub fn count(&mut self, counter: Counter) {
        self.kernel.metrics.counters.count(self.id, counter);
    }

    /// Bumps a protocol event counter for this node by `delta`.
    pub fn count_add(&mut self, counter: Counter, delta: u64) {
        self.kernel
            .metrics
            .counters
            .count_add(self.id, counter, delta);
    }

    /// Emits a trace event stamped at the end of the work charged so far
    /// (`now + cpu_used`) — the simulated instant the edge takes effect,
    /// and monotone per node because each node is a serial processor.
    pub fn trace(&mut self, edge: SpanEdge, phase: TracePhase, meta: TraceMeta) {
        if self.kernel.trace.enabled() {
            let at_ns = self.kernel.now.after(self.cpu_used).nanos();
            self.emit(at_ns, edge, phase, meta);
        }
    }

    /// Emits a trace event stamped at the handler's start time (`now`),
    /// matching latency measurements taken with [`Context::now`].
    pub fn trace_now(&mut self, edge: SpanEdge, phase: TracePhase, meta: TraceMeta) {
        if self.kernel.trace.enabled() {
            let at_ns = self.kernel.now.nanos();
            self.emit(at_ns, edge, phase, meta);
        }
    }

    fn emit(&mut self, at_ns: u64, edge: SpanEdge, phase: TracePhase, meta: TraceMeta) {
        self.kernel.trace.record(TraceEvent {
            at_ns,
            node: self.id,
            edge,
            phase,
            meta,
        });
    }

    /// Charges `ns` nanoseconds of CPU time attributed to `kind` in the
    /// trace sink's per-node cost accounting.
    pub fn charge_kind(&mut self, kind: CostKind, ns: u64) {
        self.cpu_used += ns;
        self.kernel.trace.record_cpu(self.id, kind, ns);
    }

    /// Requests that the run loop stop after this handler returns.
    pub fn stop(&mut self) {
        self.kernel.stopped = true;
    }
}

/// The simulation: a set of nodes, a network, a clock, and an event queue.
///
/// # Example
///
/// ```
/// use bft_sim::{Context, NetConfig, Node, NodeId, Simulation};
///
/// struct Echo;
/// impl Node<u32> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
///         if msg < 3 {
///             ctx.send(from, msg + 1, 8);
///         }
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulation::new(42, NetConfig::LOSSLESS_100MBPS);
/// let a = sim.add_node(Box::new(Echo));
/// let b = sim.add_node(Box::new(Echo));
/// sim.inject(a, b, 0, 8);
/// sim.run_until_idle(1_000);
/// assert!(sim.now().nanos() > 0);
/// ```
pub struct Simulation<M> {
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    kernel: Kernel<M>,
}

impl<M: 'static> Simulation<M> {
    /// Creates a simulation with the given RNG seed and network model.
    pub fn new(seed: u64, net: NetConfig) -> Simulation<M> {
        Simulation {
            nodes: Vec::new(),
            kernel: Kernel {
                now: SimTime::ZERO,
                queue: Queue::new(),
                cpu_free: Vec::new(),
                cpu_queue_limit: Vec::new(),
                net: Network::new(net),
                rng: StdRng::seed_from_u64(seed),
                metrics: Metrics::new(),
                trace: TraceSink::new(),
                stopped: false,
                events_processed: 0,
                last_dispatched: None,
                seam: None,
            },
        }
    }

    /// Adds a node and returns its id. Its `on_start` runs at the current
    /// simulated time.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Some(node));
        self.kernel.net.ensure_host(id);
        self.kernel.cpu_free.push(SimTime::ZERO);
        self.kernel.cpu_queue_limit.push(u64::MAX);
        self.kernel
            .queue
            .push(self.kernel.now, id, EventKind::Start);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Shared metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.kernel.metrics
    }

    /// Mutable access to the metrics (e.g. to clear the histograms
    /// between warmup and measurement phases; counters are windowed by
    /// difference or cleared through [`Simulation::health_mut`]).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// The trace sink (events and CPU-cost attribution).
    pub fn trace(&self) -> &TraceSink {
        &self.kernel.trace
    }

    /// Mutable trace-sink access (to enable recording via
    /// [`TraceSink::set_capacity`] or clear between phases).
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.kernel.trace
    }

    /// The counter registry (messages by tag, every counted event).
    pub fn health(&self) -> &Counters {
        &self.kernel.metrics.counters
    }

    /// Mutable health-counter access (e.g. to reset between warmup and
    /// measurement phases).
    pub fn health_mut(&mut self) -> &mut Counters {
        &mut self.kernel.metrics.counters
    }

    /// The network, for fault injection.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.kernel.net
    }

    /// Read-only network access (stats).
    pub fn network(&self) -> &Network {
        &self.kernel.net
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// The node whose handler ran the last processed event (`None` before
    /// the first). Together with [`Simulation::events_processed`] it tells
    /// an observer called after every [`Simulation::step`] which node is
    /// the only one that can have changed since its previous call.
    pub fn last_dispatched(&self) -> Option<NodeId> {
        self.kernel.last_dispatched
    }

    /// The instant of the next event [`Simulation::step`] dispatches, if
    /// any. The queue is settled first — dead keys popped, overflowing
    /// deliveries dropped, events of busy nodes deferred — so the head is
    /// exact: a driver that peeks this and steps while it is within its
    /// limit never passes the limit. Used by drivers that interleave
    /// outside interventions (e.g. chaos fault plans) with stepping.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.kernel.settle().map(|(_, key)| key.at)
    }

    /// Events waiting to be dispatched: deliveries, starts and armed
    /// timers. Keys of cancelled timers are not counted.
    pub fn queued_events(&self) -> usize {
        self.kernel.queue.live()
    }

    /// Installs `seam`, replacing any earlier one, to run on every copy of
    /// a message the engine queues for delivery: once per destination of
    /// a multicast, once per network duplicate, on loopback and injected
    /// messages too, just before the copy enters the queue. The queue
    /// then owns the copy, unchanged, until it is dispatched.
    ///
    /// The seam is for work a node would otherwise do on receipt and
    /// that nothing can observe, such as starting a digest of the copy's
    /// bytes: it must leave every value a node reads as it was.
    pub fn set_delivery_seam(&mut self, seam: impl FnMut(&mut M) + 'static) {
        self.kernel.seam = Some(Box::new(seam));
    }

    /// Places `node` on the same machine as `host`, sharing its network
    /// links (the paper's 200 client processes ran on 5 machines).
    pub fn assign_host(&mut self, node: NodeId, host: NodeId) {
        self.kernel.net.assign_host(node, host);
    }

    /// Bounds how long deliveries to `node` may queue behind its busy CPU
    /// before being dropped — a finite UDP socket buffer, expressed in
    /// time. Default: unlimited. Dropped deliveries count as
    /// [`Counter::CpuDropped`] on `node`; timers are never dropped.
    pub fn set_cpu_queue_limit(&mut self, node: NodeId, limit_ns: u64) {
        self.kernel.cpu_queue_limit[node as usize] = limit_ns;
    }

    /// Injects a message from outside the simulation (delivered after a
    /// fixed 1 µs, bypassing the network model). Test plumbing.
    pub fn inject(&mut self, dst: NodeId, from: NodeId, msg: M, wire_bytes: usize) {
        let at = self.kernel.now.after(1_000);
        self.kernel.queue_delivery(at, dst, from, msg, wire_bytes);
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id as usize]
            .as_ref()
            .expect("node is not mid-dispatch")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id as usize]
            .as_mut()
            .expect("node is not mid-dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Processes one event: the one [`Simulation::next_event_at`] reports,
    /// at that instant. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((head, key)) = self.kernel.settle() else {
            return false;
        };
        let ev = self.kernel.queue.take(head, key);
        debug_assert!(key.at >= self.kernel.now, "time went backwards");
        self.kernel.now = key.at;
        self.kernel.events_processed += 1;
        self.kernel.last_dispatched = Some(ev.dst);
        let mut node = self.nodes[ev.dst as usize]
            .take()
            .expect("node present outside dispatch");
        let mut ctx = Context {
            kernel: &mut self.kernel,
            id: ev.dst,
            cpu_used: 0,
        };
        match ev.kind {
            EventKind::Start => node.on_start(&mut ctx),
            EventKind::Deliver {
                from,
                msg,
                wire_bytes,
            } => node.on_message(&mut ctx, from, msg, wire_bytes),
            EventKind::Timer { token } => node.on_timer(&mut ctx, token),
        }
        let used = ctx.cpu_used;
        self.kernel.cpu_free[ev.dst as usize] = self.kernel.now.after(used);
        self.nodes[ev.dst as usize] = Some(node);
        true
    }

    /// Runs until simulated time `t` (events at exactly `t` included), the
    /// queue empties, or a node calls [`Context::stop`]. The clock ends at
    /// `t` unless stopped early.
    pub fn run_until(&mut self, t: SimTime) {
        self.kernel.stopped = false;
        while !self.kernel.stopped {
            match self.next_event_at() {
                Some(at) if at <= t => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.kernel.stopped {
            self.kernel.now = self.kernel.now.max(t);
        }
    }

    /// Runs for `delta_ns` of simulated time from now.
    pub fn run_for(&mut self, delta_ns: u64) {
        let t = self.kernel.now.after(delta_ns);
        self.run_until(t);
    }

    /// Runs until no events remain, a node calls [`Context::stop`], or
    /// `max_events` have been processed. Returns `true` if no event is
    /// left to dispatch; keys of cancelled timers do not count.
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        self.kernel.stopped = false;
        for _ in 0..max_events {
            if self.kernel.stopped || !self.step() {
                break;
            }
        }
        self.kernel.queue.live() == 0
    }
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("now", &self.kernel.now)
            .field("queued", &self.kernel.queue.live())
            .field("keys", &self.kernel.queue.keys())
            .finish()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    /// Counts everything it sees; replies to "ping" tokens.
    #[derive(Default)]
    struct Probe {
        started: bool,
        messages: Vec<(NodeId, u32)>,
        timers: Vec<u64>,
        cpu_per_event: u64,
    }

    impl Node<u32> for Probe {
        fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {
            self.started = true;
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
            ctx.charge(self.cpu_per_event);
            self.messages.push((from, msg));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, token: u64) {
            self.timers.push(token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn sim() -> Simulation<u32> {
        Simulation::new(7, NetConfig::LOSSLESS_100MBPS)
    }

    #[test]
    fn on_start_runs() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        s.run_until_idle(10);
        assert!(s.node_as::<Probe>(a).started);
    }

    #[test]
    fn message_delivery_and_ordering() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        let b = s.add_node(Box::<Probe>::default());
        s.inject(b, a, 1, 8);
        s.inject(b, a, 2, 8);
        s.run_until_idle(100);
        assert_eq!(s.node_as::<Probe>(b).messages, vec![(a, 1), (a, 2)]);
    }

    #[test]
    fn last_dispatched_is_the_node_the_last_event_ran_on() {
        let mut s = sim();
        assert_eq!(s.last_dispatched(), None);
        let a = s.add_node(Box::<Probe>::default());
        let b = s.add_node(Box::<Probe>::default());
        s.run_until_idle(10);
        s.inject(b, a, 1, 8);
        assert!(s.step());
        assert_eq!(s.last_dispatched(), Some(b));
        s.inject(a, b, 2, 8);
        assert!(s.step());
        assert_eq!(s.last_dispatched(), Some(a));
        // An empty queue runs nothing and changes nothing.
        let events = s.events_processed();
        assert!(!s.step());
        assert_eq!(
            (s.last_dispatched(), s.events_processed()),
            (Some(a), events)
        );
    }

    #[test]
    fn busy_cpu_defers_later_events_in_order() {
        let mut s = sim();
        let a = s.add_node(Box::new(Probe {
            cpu_per_event: dur::millis(10),
            ..Probe::default()
        }));
        for i in 0..5 {
            s.inject(a, 99, i, 8);
        }
        s.run_until_idle(1_000);
        let msgs: Vec<u32> = s
            .node_as::<Probe>(a)
            .messages
            .iter()
            .map(|&(_, m)| m)
            .collect();
        assert_eq!(msgs, vec![0, 1, 2, 3, 4], "FIFO preserved under backlog");
        // 5 events × 10 ms serial CPU: the last starts no earlier than 40 ms.
        assert!(s.now().nanos() >= dur::millis(40));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<u32> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(dur::millis(1), 1);
                let doomed = ctx.set_timer(dur::millis(2), 2);
                ctx.set_timer(dur::millis(3), 3);
                ctx.cancel_timer(doomed);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(TimerNode { fired: vec![] }));
        s.step();
        // The cancelled timer no longer counts as queued, though its key is
        // still in the heap.
        assert_eq!(s.queued_events(), 2);
        let shown = format!("{s:?}");
        assert!(
            shown.contains("queued: 2") && shown.contains("keys: 3"),
            "{shown}"
        );
        s.step();
        // The head is exact: the dead 2 ms key is not what comes next.
        assert_eq!(s.next_event_at(), Some(SimTime(dur::millis(3))));
        assert_eq!(s.kernel.queue.keys(), 1);
        s.run_until_idle(100);
        assert_eq!(s.node_as::<TimerNode>(a).fired, vec![1, 3]);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        struct LateCanceller {
            first: Option<TimerId>,
            fired: Vec<u64>,
        }
        impl Node<u32> for LateCanceller {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                self.first = Some(ctx.set_timer(dur::millis(1), 1));
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
                self.fired.push(token);
                if token == 1 {
                    // The fired timer's slot is free again and the next
                    // timer takes it; the old handle must not reach it.
                    let second = ctx.set_timer(dur::millis(1), 2);
                    let first = self.first.expect("armed in on_start");
                    assert_eq!(first.slot, second.slot, "the slot is reused");
                    assert_ne!(first, second);
                    ctx.cancel_timer(first);
                    ctx.cancel_timer(first);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(LateCanceller {
            first: None,
            fired: vec![],
        }));
        s.run_until(SimTime(dur::millis(1)));
        assert_eq!(s.queued_events(), 1, "the second timer is still armed");
        assert!(s.run_until_idle(100));
        assert_eq!(s.node_as::<LateCanceller>(a).fired, vec![1, 2]);
        // Nothing is left behind for the rest of the run.
        assert_eq!(s.queued_events(), 0);
        assert_eq!(s.kernel.queue.keys(), 0);
        assert_eq!(s.kernel.queue.free.len(), s.kernel.queue.slab.len());
    }

    #[test]
    fn slab_slots_are_reused() {
        const CYCLES: u32 = 100_000;
        /// Arms, cancels and re-arms as a protocol node does with its
        /// retransmit timer: a 1 ms tick keeps it going, and on every tick the
        /// 250 ms timer of the previous tick is cancelled and a new one armed.
        struct Rearmer {
            ticks_left: u32,
            doomed: Option<TimerId>,
            stale: Vec<TimerId>,
            fired: Vec<u64>,
        }

        impl Node<u32> for Rearmer {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(dur::millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
                self.fired.push(token);
                if token != 0 || self.ticks_left == 0 {
                    return;
                }
                self.ticks_left -= 1;
                if let Some(doomed) = self.doomed.take() {
                    ctx.cancel_timer(doomed);
                    self.stale.push(doomed);
                }
                self.doomed = Some(ctx.set_timer(dur::millis(250), 1));
                let tick = ctx.set_timer(dur::millis(1), 0);
                self.stale.push(tick);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(Rearmer {
            ticks_left: CYCLES,
            doomed: None,
            stale: vec![],
            fired: vec![],
        }));
        let (mut peak_keys, mut peak_live) = (0, 0);
        while s.step() {
            peak_keys = peak_keys.max(s.kernel.queue.keys());
            peak_live = peak_live.max(s.queued_events());
        }
        // Live at once: the tick and the 250 ms timer. The purge keeps the
        // timer heap within twice its live keys, not the cancelled keys of
        // the last 250 ticks.
        assert_eq!(peak_live, 2);
        assert!(peak_keys <= 2 * peak_live, "{peak_keys}");
        assert!(
            s.kernel.queue.slab.len() <= 3,
            "{}",
            s.kernel.queue.slab.len()
        );
        assert!(s.kernel.queue.timers.capacity() <= 8);
        assert!(s.kernel.queue.near.capacity() <= 16);
        let node = s.node_as::<Rearmer>(a);
        // Every tick fired; of the 250 ms timers only the last survived.
        assert_eq!(node.fired.len() as u32, CYCLES + 2);
        assert_eq!(node.fired.iter().filter(|&&t| t == 1).count(), 1);
        assert_eq!(s.queued_events(), 0);
        // Handles of fired and cancelled timers match nothing any more.
        let stale = node.stale.clone();
        assert_eq!(stale.len() as u32, 2 * CYCLES - 1);
        let b = s.add_node(Box::<Probe>::default());
        s.inject(b, a, 7, 8);
        struct Sweeper(Vec<TimerId>);
        impl Node<u32> for Sweeper {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(dur::millis(1), 9);
                for &id in &self.0 {
                    ctx.cancel_timer(id);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // The sweeper's own timer reuses a slot some stale handle names.
        s.add_node(Box::new(Sweeper(stale)));
        s.step();
        s.step();
        assert_eq!(s.queued_events(), 2, "the delivery and the new timer");
        s.run_until_idle(10);
        assert_eq!(s.node_as::<Probe>(b).messages, vec![(a, 7)]);
    }

    #[test]
    fn cancelling_more_than_half_the_timer_keys_purges_the_dead_ones() {
        let mut q: Queue<u32> = Queue::new();
        let ids: Vec<TimerId> = (0..10).map(|i| q.arm(SimTime(1_000 + i), 0, i)).collect();
        for &id in &ids[..5] {
            q.cancel(id);
        }
        assert_eq!((q.timers.len(), q.live()), (10, 5), "half is not more");
        q.cancel(ids[5]);
        assert_eq!((q.timers.len(), q.live()), (4, 4));
        // Stale handles count nothing towards the next purge.
        q.cancel(ids[0]);
        assert_eq!(q.cancelled, 0);
        assert_eq!(q.head().map(|(_, key)| key.at), Some(SimTime(1_006)));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        s.inject(a, 9, 1, 8);
        s.run_until(SimTime(500));
        // Injection arrives at 1 µs > 500 ns, so nothing is delivered yet.
        assert!(s.node_as::<Probe>(a).messages.is_empty());
        assert_eq!(s.now(), SimTime(500));
        s.run_until(SimTime(2_000));
        assert_eq!(s.node_as::<Probe>(a).messages.len(), 1);
    }

    #[test]
    fn run_until_never_passes_its_limit() {
        /// Arms a timer it cancels and one that comes up while the node is
        /// still busy with its start, then holds the CPU for 10 ms.
        struct Busy {
            fired: Vec<SimTime>,
        }
        impl Node<u32> for Busy {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let doomed = ctx.set_timer(dur::millis(3), 1);
                ctx.cancel_timer(doomed);
                ctx.set_timer(dur::millis(4), 2);
                ctx.charge(dur::millis(10));
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: u64) {
                self.fired.push(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(Busy { fired: vec![] }));
        // The dead 3 ms key and the 4 ms timer lie before the limit; the
        // timer runs at 10 ms, after it.
        s.run_until(SimTime(dur::millis(5)));
        assert_eq!(s.now(), SimTime(dur::millis(5)));
        assert_eq!(s.events_processed(), 1, "only the start ran");
        assert!(s.node_as::<Busy>(a).fired.is_empty());
        assert_eq!(s.next_event_at(), Some(SimTime(dur::millis(10))));
        s.run_until(SimTime(dur::millis(20)));
        assert_eq!(s.node_as::<Busy>(a).fired, vec![SimTime(dur::millis(10))]);
    }

    #[test]
    fn multicast_reaches_all() {
        struct Caster;
        impl Node<u32> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.multicast(&[1, 2, 3], 42, 100);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        s.add_node(Box::new(Caster));
        let nodes: Vec<NodeId> = (0..3)
            .map(|_| s.add_node(Box::<Probe>::default()))
            .collect();
        s.run_until_idle(100);
        for &n in &nodes {
            assert_eq!(s.node_as::<Probe>(n).messages, vec![(0, 42)]);
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = sim();
            let a = s.add_node(Box::<Probe>::default());
            let b = s.add_node(Box::<Probe>::default());
            for i in 0..20 {
                s.inject(if i % 2 == 0 { a } else { b }, 99, i, 64);
            }
            s.run_until_idle(1_000);
            (
                s.now(),
                s.node_as::<Probe>(a).messages.clone(),
                s.node_as::<Probe>(b).messages.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stop_halts_run() {
        struct Stopper;
        impl Node<u32> for Stopper {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {
                ctx.stop();
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(Stopper));
        s.inject(a, 0, 1, 8);
        s.inject(a, 0, 2, 8);
        s.run_until(SimTime(dur::secs(1)));
        // The second message remains queued and the clock did not jump to 1 s.
        assert!(s.now().nanos() < dur::secs(1));
    }

    #[test]
    fn run_until_idle_is_not_drained_after_a_stop() {
        struct Stopper;
        impl Node<u32> for Stopper {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {
                ctx.stop();
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(Stopper));
        s.inject(a, 0, 1, 8);
        s.inject(a, 0, 2, 8);
        assert!(!s.run_until_idle(100), "the second message is still queued");
        assert_eq!(s.queued_events(), 1);
        assert!(s.run_until_idle(100), "the next run dispatches it");
    }

    #[test]
    fn run_until_idle_is_drained_with_only_cancelled_keys_left() {
        /// Busy with its start when its timer comes up; the message
        /// deferred ahead of the timer cancels it.
        struct Canceller(Option<TimerId>);
        impl Node<u32> for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                self.0 = Some(ctx.set_timer(dur::millis(1), 1));
                ctx.charge(dur::millis(5));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {
                ctx.cancel_timer(self.0.expect("armed at start"));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(Canceller(None)));
        s.inject(a, 9, 1, 8);
        // The live events are the start and the message; the budget ends
        // on the message, with the deferred timer's dead key still queued.
        assert!(s.run_until_idle(2));
        assert_eq!((s.queued_events(), s.kernel.queue.keys()), (0, 1));
    }

    #[test]
    fn the_delivery_seam_sees_every_queued_copy_once() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Fanout(Vec<NodeId>);
        impl Node<u32> for Fanout {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.id();
                ctx.multicast(&self.0, 10, 8);
                ctx.send(me, 20, 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s = sim();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&seen);
        // Marks each copy, so a copy the seam missed (or saw twice) shows
        // at the receiver.
        s.set_delivery_seam(move |m: &mut u32| {
            log.borrow_mut().push(*m);
            *m += 1;
        });
        s.network_mut().set_duplicate_probability(1.0);
        let a = s.add_node(Box::<Probe>::default());
        let b = s.add_node(Box::<Probe>::default());
        s.add_node(Box::new(Fanout(vec![a, b])));
        s.inject(a, 99, 30, 8);
        s.run_until_idle(100);
        // Two multicast copies and their duplicates, the loopback, the
        // injected message.
        assert_eq!(*seen.borrow(), vec![30, 10, 10, 10, 10, 20]);
        for node in [a, b] {
            let got: Vec<u32> = s
                .node_as::<Probe>(node)
                .messages
                .iter()
                .map(|m| m.1)
                .collect();
            assert!(got.iter().all(|&m| m % 10 == 1), "{got:?}");
        }
    }

    #[test]
    fn send_to_self_loops_back() {
        struct SelfSender {
            got: bool,
        }
        impl Node<u32> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.id();
                ctx.send(me, 7, 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, from: NodeId, msg: u32, _: usize) {
                assert_eq!(msg, 7);
                assert_eq!(from, 0);
                self.got = true;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s: Simulation<u32> = sim();
        let a = s.add_node(Box::new(SelfSender { got: false }));
        s.run_until_idle(10);
        assert!(s.node_as::<SelfSender>(a).got);
    }

    #[test]
    fn cpu_queue_limit_drops_backlogged_deliveries() {
        let mut s = sim();
        let a = s.add_node(Box::new(Probe {
            cpu_per_event: dur::millis(10),
            ..Probe::default()
        }));
        // 10 ms of CPU per event with a 15 ms queue bound: the first two
        // deliveries fit (waits of 0 and ~10 ms); later ones overflow.
        s.set_cpu_queue_limit(a, dur::millis(15));
        for i in 0..6 {
            s.inject(a, 99, i, 8);
        }
        s.run_until_idle(1_000);
        let delivered = s.node_as::<Probe>(a).messages.len();
        assert!(delivered < 6, "some deliveries must drop");
        assert_eq!(s.health().total(Counter::CpuDropped), 6 - delivered as u64);
        // Timers are never dropped.
        let b = s.add_node(Box::new(Probe {
            cpu_per_event: dur::millis(10),
            ..Probe::default()
        }));
        s.set_cpu_queue_limit(b, 0);
        s.run_until_idle(1_000);
        assert!(s.node_as::<Probe>(b).started, "start events survive");
    }

    #[test]
    fn partitioned_messages_count_as_dropped() {
        let mut s = sim();
        let a = s.add_node(Box::<Probe>::default());
        let b = s.add_node(Box::<Probe>::default());
        s.network_mut().partition(a, b);
        struct Sender(NodeId);
        impl Node<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.0, 1, 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32, _: usize) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // a sends to b via a third node's start hook — simpler: replace a.
        let c = s.add_node(Box::new(Sender(b)));
        s.network_mut().partition(c, b);
        s.run_until_idle(100);
        assert!(s.node_as::<Probe>(b).messages.is_empty());
        assert_eq!(s.health().total(Counter::NetDropped), 1);
    }
}
