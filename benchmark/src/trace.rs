//! The traced run's two recorders, both fed from the benchmark's side of
//! the API: [`StepTimer`] puts a wall clock around every simulation event
//! and every invariant check, [`TraceFold`] sums up the simulator's own
//! (simulated-time) trace rings slice by slice.

use crate::harness::RING_CAPACITY;
use bft_core::messages::Packet;
use bft_sim::health::{tag_name, TAG_COUNT};
use bft_sim::trace::{assemble, breakdown, SpanEdge, TracePhase, TraceSink};
use bft_sim::Simulation;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// The message handlers the per-layer metrics name, then the two
/// classes an event falls into when it delivered none of those.
pub const HANDLERS: [&str; 14] = [
    "request",
    "pre-prepare",
    "prepare",
    "commit",
    "reply",
    "checkpoint",
    "view-change",
    "new-view",
    "lease",
    "lease-renew",
    "lease-revoke",
    "status",
    "timer",
    "other",
];
const TIMER: usize = 12;
const OTHER: usize = 13;
/// Span class of an invariant check (not a handler).
const OBSERVE: u8 = 14;

/// One timed call: an event's handler, or an invariant check.
struct Span {
    class: u8,
    start_ns: u64,
    wall_ns: u32,
    sim_ns: u64,
}

/// Wall-clock timer around `Simulation::step` and `checker.observe`.
pub struct StepTimer {
    epoch: Instant,
    /// Wire tag → index into [`HANDLERS`].
    handler_of: [usize; TAG_COUNT],
    received: [u64; TAG_COUNT],
    /// Wall nanoseconds inside `step`, by handler.
    pub handler_ns: [u64; HANDLERS.len()],
    /// Events, by handler.
    pub handler_events: [u64; HANDLERS.len()],
    /// Wall nanoseconds inside `observe`.
    pub observe_ns: u64,
    /// Calls of `observe`.
    pub observes: u64,
    spans: Vec<Span>,
}

impl StepTimer {
    /// A timer for a window whose health counters start at zero.
    pub fn new() -> StepTimer {
        let handler_of = std::array::from_fn(|tag| {
            let name = tag_name(tag as u8);
            HANDLERS.iter().position(|&h| h == name).unwrap_or(OTHER)
        });
        StepTimer {
            epoch: Instant::now(),
            handler_of,
            received: [0; TAG_COUNT],
            handler_ns: [0; HANDLERS.len()],
            handler_events: [0; HANDLERS.len()],
            observe_ns: 0,
            observes: 0,
            spans: Vec::new(),
        }
    }

    fn span(&mut self, class: u8, start: Instant, wall_ns: u64, sim_ns: u64) {
        self.spans.push(Span {
            class,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            wall_ns: u32::try_from(wall_ns).unwrap_or(u32::MAX),
            sim_ns,
        });
    }

    /// Steps the simulation once and books the time to the handler of
    /// the message it delivered: the one wire tag whose delivery count
    /// moved. An event that delivered nothing is a timer (or a start).
    pub fn step(&mut self, sim: &mut Simulation<Packet>) {
        let start = Instant::now();
        sim.step();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let received = sim.health().received_by_tag();
        let moved = (0..TAG_COUNT).find(|&t| received[t] != self.received[t]);
        let handler = moved.map_or(TIMER, |tag| self.handler_of[tag]);
        self.received = received;
        self.handler_ns[handler] += wall_ns;
        self.handler_events[handler] += 1;
        self.span(handler as u8, start, wall_ns, sim.now().nanos());
    }

    /// Times one invariant check.
    pub fn observe<T>(&mut self, check: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = check();
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.observe_ns += wall_ns;
        self.observes += 1;
        let sim_ns = self.spans.last().map_or(0, |s| s.sim_ns);
        self.span(OBSERVE, start, wall_ns, sim_ns);
        out
    }

    /// Wall nanoseconds inside timed calls: the stepped wall time the
    /// shares are taken of.
    pub fn stepped_ns(&self) -> u64 {
        self.handler_ns.iter().sum::<u64>() + self.observe_ns
    }

    /// Writes every span, in order, as one JSON document.
    pub fn write_spans(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let classes: Vec<String> = HANDLERS
            .iter()
            .map(|h| format!("\"handler.{h}\""))
            .chain(["\"invariants.observe\"".to_string()])
            .collect();
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"start_ns is wall ns since the stepped run began, set-up included; sim_ns is the simulated instant of the event\",\"classes\":[{}],\"columns\":[\"class\",\"start_ns\",\"wall_ns\",\"sim_ns\"],\"spans\":[",
            classes.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{},{},{}]{sep}",
                s.class, s.start_ns, s.wall_ns, s.sim_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Running sums over the simulator's trace rings.
#[derive(Debug, Default)]
pub struct TraceFold {
    /// Requests whose span chain could be joined.
    pub requests: u64,
    /// Simulated time per phase, in `PHASE_LABELS` order (ns).
    pub phase_total_ns: [u64; 5],
    /// Commit-quorum lag past the prepared edge (ns).
    pub commit_lag_total_ns: u64,
    /// Requests whose commit quorum was seen at the primary.
    pub commit_observed: u64,
    /// Per target view: first replica to start the change, last to
    /// install the view (simulated ns).
    view_changes: BTreeMap<u64, (u64, u64)>,
}

impl TraceFold {
    /// Adds what the rings hold. The caller clears them afterwards, so a
    /// request open across a slice boundary is not joined; the means are
    /// over the joined requests.
    pub fn fold(&mut self, sink: &TraceSink) -> Result<(), String> {
        for node in 0..sink.node_count() as u32 {
            if sink.node_events(node).count() >= RING_CAPACITY {
                return Err(format!("trace ring of node {node} filled within one slice"));
            }
        }
        let b = breakdown(&assemble(sink));
        self.requests += b.requests;
        for (sum, add) in self.phase_total_ns.iter_mut().zip(b.phase_total_ns) {
            *sum += add;
        }
        self.commit_lag_total_ns += b.commit_lag_total_ns;
        self.commit_observed += b.commit_observed;
        for ev in sink.events().filter(|e| e.phase == TracePhase::ViewChange) {
            let span = self
                .view_changes
                .entry(ev.meta.view)
                .or_insert((u64::MAX, 0));
            match ev.edge {
                SpanEdge::Open => span.0 = span.0.min(ev.at_ns),
                SpanEdge::Close => span.1 = span.1.max(ev.at_ns),
                SpanEdge::Instant => {}
            }
        }
        Ok(())
    }

    /// Simulated nanoseconds from the first replica starting a view
    /// change to the last one installing the view, summed over views.
    pub fn view_change_ns(&self) -> u64 {
        self.view_changes
            .values()
            .filter(|(open, close)| close > open)
            .map(|(open, close)| close - open)
            .sum()
    }
}
