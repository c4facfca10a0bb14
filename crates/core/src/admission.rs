//! Admission control (DESIGN.md §5.17): the overload armor as rules with
//! no I/O. [`Gate`] owns the per-client watermarks, the penalty box and
//! every cap; it is told the [`Facts`] of a request and answers whether
//! to shed it. [`Pushback`] decides which shed request earns a BUSY.
//! Authentication, sending, counters and CPU charges stay with the
//! replica.

use crate::config::Config;
use crate::messages::Busy;
use crate::types::{ClientId, ReplicaId, Timestamp};
use bft_sim::dur;
use std::collections::BTreeMap;

/// Distinct requests one client may have admitted and unserved at a
/// replica. A correct closed-loop client holds one.
const CLIENT_QUOTA: usize = 4;

/// The ingest backlog (the primary's batch lanes plus a backup's pending
/// requests) at which every new request is shed, whoever sent it; also
/// the cap on read-only replies waiting for the executed prefix to commit.
const QUEUE_CAP: usize = 64;

/// The BUSY window: the back-off hint a BUSY carries, the length of a
/// penalty, and the least spacing of two BUSYs to one client.
const BUSY_WINDOW_NS: u64 = dur::millis(2);

/// Retries a client allows one operation, plus one per BUSY it honoured,
/// before it flags the operation as starved. Armed with admission
/// control; the chaos checker reports a correct client that runs out as
/// `ClientStarvation`.
pub(crate) const RETRY_BUDGET: u32 = 12;

/// How long after a client's last admission its admitted-but-unserved
/// gap is forgiven: that work was lost (a view change discarded it) and
/// will never execute here, and holding the client to it would wedge it.
const FORGIVE_NS: u64 = 8 * BUSY_WINDOW_NS;

const _: () = assert!(CLIENT_QUOTA >= 1, "the quota must admit a request");
const _: () = assert!(QUEUE_CAP >= CLIENT_QUOTA, "the cap must cover a quota");
const _: () = assert!(BUSY_WINDOW_NS > 0, "the BUSY window must be positive");

/// What the replica knows about a request when it asks the gate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Facts {
    pub(crate) now: u64,
    /// Requests waiting to be ordered: batch lanes plus pending requests.
    pub(crate) backlog: usize,
    /// This client's requests the replica holds, queued or pending.
    pub(crate) client_held: usize,
    /// This very request is held already: it is a retransmission.
    pub(crate) held: bool,
}

/// One client's admission record. Client timestamps are issued
/// consecutively, so `admitted_hw - served_hw` counts requests let past
/// the gate that no reply has settled yet, including work deep in the
/// ordering pipeline that a queue count misses once a batch is proposed.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(test, derive(PartialEq, Eq, Hash))]
struct Watermarks {
    /// Highest timestamp admitted.
    admitted_hw: Timestamp,
    /// Highest timestamp replied to (execution, read-only or reply
    /// cache). Serving one settles every lower one too: a gap means the
    /// client abandoned those or other replicas served them.
    served_hw: Timestamp,
    last_admit_ns: u64,
    /// Requests are shed unverified until this instant.
    penalty_until_ns: u64,
}

/// The admission gate, held by a replica exactly when
/// [`Config::admission_control`] is on. One record per client that was
/// admitted, shed or told BUSY: bounded by the principal set.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct Gate {
    clients: BTreeMap<ClientId, Watermarks>,
    /// The cap `queue_bounds` audits: [`QUEUE_CAP`] plus one log window of
    /// full batches, because requests inside ordered batches (pre-prepares,
    /// new-view requeues) were admitted upstream and bypass this gate.
    bound: usize,
}

impl Gate {
    /// The gate, `None` unless `cfg` arms admission control.
    pub(crate) fn armed(cfg: &Config) -> Option<Gate> {
        cfg.admission_control.then(|| Gate {
            clients: BTreeMap::new(),
            bound: QUEUE_CAP + cfg.log_window as usize * cfg.max_batch_requests,
        })
    }

    /// Before the MAC check: whether to shed a penalized client's new
    /// request unverified, because under a flood the verify is the cost
    /// the shed exists to avoid. Safe because only authenticated
    /// over-quota traffic earns a penalty, so a spoofer reusing an honest
    /// client's id finds it unpenalized.
    pub(crate) fn sheds_unverified(&mut self, client: ClientId, f: Facts) -> bool {
        !f.held && self.penalized(client, f.now) && self.shed(client, f.now)
    }

    /// After it: whether to shed the request (at the backlog cap, in the
    /// penalty box or at the client's quota) or admit it. Held work
    /// passes: a retransmission is deduplicated downstream, and shedding
    /// it would only delay the reply, so the gate binds exactly the
    /// distinct requests a client has in flight.
    pub(crate) fn sheds(&mut self, client: ClientId, ts: Timestamp, f: Facts) -> bool {
        if f.held {
            return false;
        }
        if f.backlog >= QUEUE_CAP
            || self.penalized(client, f.now)
            || self.in_flight(client, f) >= CLIENT_QUOTA
        {
            return self.shed(client, f.now);
        }
        let w = self.clients.entry(client).or_default();
        w.admitted_hw = w.admitted_hw.max(ts);
        w.last_admit_ns = f.now;
        false
    }

    /// A reply at `ts` settles everything up to it.
    pub(crate) fn note_served(gate: Option<&mut Gate>, client: ClientId, ts: Timestamp) {
        if let Some(w) = gate.and_then(|g| g.clients.get_mut(&client)) {
            w.served_hw = w.served_hw.max(ts);
        }
    }

    /// A client told BUSY has its replies settled from then on, like one
    /// that was admitted or shed.
    pub(crate) fn note_busy(gate: Option<&mut Gate>, client: ClientId) {
        if let Some(g) = gate {
            g.clients.entry(client).or_default();
        }
    }

    fn penalized(&self, client: ClientId, now: u64) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|w| now < w.penalty_until_ns)
    }

    /// The client's admitted but unserved work: the watermark gap unless
    /// forgiven, and at least what the replica holds, against
    /// non-consecutive Byzantine timestamps.
    fn in_flight(&self, client: ClientId, f: Facts) -> usize {
        let gap = match self.clients.get(&client) {
            Some(w) if f.now.saturating_sub(w.last_admit_ns) <= FORGIVE_NS => {
                w.admitted_hw.saturating_sub(w.served_hw) as usize
            }
            _ => 0,
        };
        gap.max(f.client_held)
    }

    /// Sheds: arms the penalty window unless it is armed, so a client
    /// that keeps flooding re-trips the quota after each window instead
    /// of being locked out for good.
    fn shed(&mut self, client: ClientId, now: u64) -> bool {
        let w = self.clients.entry(client).or_default();
        if now >= w.penalty_until_ns {
            w.penalty_until_ns = now + BUSY_WINDOW_NS;
        }
        true
    }

    /// Requests per pre-prepare: past half the backlog cap, four times
    /// `max`, so the backlog drains in fewer protocol rounds (the byte
    /// bound still applies).
    pub(crate) fn batch_limit(gate: Option<&Gate>, backlog: usize, max: usize) -> usize {
        if gate.is_some() && backlog > QUEUE_CAP / 2 {
            max * 4
        } else {
            max
        }
    }

    /// Whether `waiting_ro` is full, so its oldest reply is shed before
    /// another waits. Never without the gate.
    pub(crate) fn evicts_ro(gate: Option<&Gate>, waiting: usize) -> bool {
        gate.is_some() && waiting >= QUEUE_CAP
    }

    /// The `queue_bounds` rows the gate caps; unbounded without it.
    pub(crate) fn bounds(
        gate: Option<&Gate>,
        backlog: usize,
        queued: usize,
        waiting_ro: usize,
    ) -> [(&'static str, usize, usize); 3] {
        let cap = gate.map_or(usize::MAX, |g| g.bound);
        [
            ("ingest_backlog", backlog, cap),
            ("queued", queued, cap),
            ("waiting_ro", waiting_ro, cap),
        ]
    }
}

/// The BUSY throttle. Every replica has one, gate or not: read leases
/// answer an evicted parked read with BUSY too.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct Pushback {
    sent_ns: BTreeMap<ClientId, u64>,
}

impl Pushback {
    /// The BUSY telling `client` its request `ts` was shed, unless it was
    /// told within the window: one triggers the back-off, and answering
    /// every shed request of a flood would spend the CPU and downlink the
    /// shed protects.
    pub(crate) fn busy(
        &mut self,
        replica: ReplicaId,
        client: ClientId,
        ts: Timestamp,
        now: u64,
    ) -> Option<Busy> {
        if self
            .sent_ns
            .get(&client)
            .is_some_and(|&at| now.saturating_sub(at) < BUSY_WINDOW_NS)
        {
            return None;
        }
        self.sent_ns.insert(client, now);
        Some(Busy {
            client,
            timestamp: ts,
            replica,
            retry_after_ns: BUSY_WINDOW_NS,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    const W: u64 = BUSY_WINDOW_NS;
    const CLIENTS: usize = 2;
    /// Deep enough for the shortest trace the forgiveness needs: a quota
    /// of admissions, their loss, 8W and a bit, one more request.
    const DEPTH: usize = CLIENT_QUOTA + 4;

    fn gate() -> Gate {
        Gate::armed(&Config {
            admission_control: true,
            ..Config::default()
        })
        .expect("armed")
    }

    /// What can happen to one replica's gate, for `client` 0 or 1.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        /// The client sends its next timestamp.
        New(usize),
        /// It retransmits the highest request the replica holds for it.
        Retransmit(usize),
        /// The replica replies to that request.
        Serve(usize),
        /// A view change discards the client's held requests unserved.
        Lose(usize),
        /// Other clients fill the backlog to the cap, or it drains.
        Flood,
        /// Time passes: W/2 or 8W.
        Advance(u64),
    }

    const EVENTS: [Event; 10] = [
        Event::New(0),
        Event::New(1),
        Event::Retransmit(0),
        Event::Retransmit(1),
        Event::Serve(0),
        Event::Serve(1),
        Event::Lose(0),
        Event::Lose(1),
        Event::Flood,
        Event::Advance(W / 2),
    ];
    const IDLE: Event = Event::Advance(8 * W);

    /// The gate and throttle of one replica, driven the way
    /// `Replica::handle_request` drives them, beside what the clients
    /// know: what each sent, what is held, what no reply settled yet.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Model {
        gate: Gate,
        pushback: Pushback,
        now: u64,
        flooded: bool,
        next_ts: [Timestamp; CLIENTS],
        held: [BTreeSet<Timestamp>; CLIENTS],
        unserved: [BTreeSet<Timestamp>; CLIENTS],
        last_admit_ns: [Option<u64>; CLIENTS],
        last_busy_ns: [Option<u64>; CLIENTS],
    }

    impl Model {
        fn new() -> Model {
            Model {
                gate: gate(),
                pushback: Pushback::default(),
                now: dur::millis(1),
                flooded: false,
                next_ts: [1; CLIENTS],
                held: Default::default(),
                unserved: Default::default(),
                last_admit_ns: [None; CLIENTS],
                last_busy_ns: [None; CLIENTS],
            }
        }

        fn backlog(&self) -> usize {
            usize::from(self.flooded) * QUEUE_CAP
                + self.held.iter().map(BTreeSet::len).sum::<usize>()
        }

        fn facts(&self, c: usize, held: bool) -> Facts {
            Facts {
                now: self.now,
                backlog: self.backlog(),
                client_held: self.held[c].len(),
                held,
            }
        }

        /// Offers request `ts` of client `c`; true if it was shed.
        fn offer(&mut self, c: usize, ts: Timestamp, held: bool) -> Result<bool, String> {
            let id = c as ClientId;
            let f = self.facts(c, held);
            let shed = self.gate.sheds_unverified(id, f) || self.gate.sheds(id, ts, f);
            if shed {
                Gate::note_busy(Some(&mut self.gate), id);
                if self.pushback.busy(0, id, ts, self.now).is_some() {
                    if let Some(at) = self.last_busy_ns[c].filter(|&at| self.now - at < W) {
                        return Err(format!(
                            "client {c} told BUSY at {at} and again at {}",
                            self.now
                        ));
                    }
                    self.last_busy_ns[c] = Some(self.now);
                }
            }
            Ok(shed)
        }

        fn penalty_until(&self, c: usize) -> u64 {
            self.gate
                .clients
                .get(&(c as ClientId))
                .map_or(0, |w| w.penalty_until_ns)
        }

        fn enabled(&self, e: Event) -> bool {
            match e {
                Event::Retransmit(c) | Event::Serve(c) | Event::Lose(c) => !self.held[c].is_empty(),
                _ => true,
            }
        }

        /// Applies an enabled `e`, checking every rule it touches.
        fn step(&mut self, e: Event) -> Result<(), String> {
            let armed: Vec<u64> = (0..CLIENTS).map(|c| self.penalty_until(c)).collect();
            let before = self.now;
            match e {
                Event::New(c) => {
                    let penalized = self.gate.penalized(c as ClientId, self.now);
                    let room = !penalized && self.backlog() < QUEUE_CAP;
                    let idle = room && self.held[c].is_empty() && self.unserved[c].is_empty();
                    let forgiven = room
                        && self.held[c].len() < CLIENT_QUOTA
                        && self.last_admit_ns[c].is_none_or(|at| self.now - at > FORGIVE_NS);
                    let ts = self.next_ts[c];
                    self.next_ts[c] += 1;
                    if self.offer(c, ts, false)? {
                        if idle {
                            return Err(format!("client {c} had nothing in flight, shed"));
                        }
                        if forgiven {
                            return Err(format!("client {c}'s abandoned gap still counts"));
                        }
                    } else {
                        self.held[c].insert(ts);
                        self.unserved[c].insert(ts);
                        self.last_admit_ns[c] = Some(self.now);
                    }
                }
                Event::Retransmit(c) => {
                    let ts = *self.held[c].last().expect("enabled");
                    if self.offer(c, ts, true)? {
                        return Err(format!("client {c}'s held request {ts} shed"));
                    }
                }
                Event::Serve(c) => {
                    let ts = self.held[c].pop_last().expect("enabled");
                    self.unserved[c].retain(|&t| t > ts);
                    Gate::note_served(Some(&mut self.gate), c as ClientId, ts);
                }
                Event::Lose(c) => self.held[c].clear(),
                Event::Flood => self.flooded = !self.flooded,
                Event::Advance(ns) => self.now += ns,
            }
            for (c, &until) in armed.iter().enumerate() {
                let after = self.penalty_until(c);
                if before < until && after != until {
                    return Err(format!(
                        "client {c}'s penalty moved from {until} to {after} while armed"
                    ));
                }
            }
            Ok(())
        }
    }

    /// Depth-first search to `depth`, skipping states already explored
    /// with as much depth left; the trace to the first violation.
    fn explore(
        m: &Model,
        depth: usize,
        seen: &mut HashMap<Model, usize>,
        trace: &mut Vec<Event>,
    ) -> Result<(), String> {
        if depth == 0 || seen.get(m).is_some_and(|&left| left >= depth) {
            return Ok(());
        }
        seen.insert(m.clone(), depth);
        for e in EVENTS.into_iter().chain([IDLE]).filter(|&e| m.enabled(e)) {
            let mut next = m.clone();
            trace.push(e);
            if let Err(v) = next.step(e) {
                return Err(format!("{v}\n  trace: {trace:?}"));
            }
            explore(&next, depth - 1, seen, trace)?;
            trace.pop();
        }
        Ok(())
    }

    /// Every rule, over every schedule of two clients to [`DEPTH`]
    /// events. Deepening one event at a time makes the first violation
    /// found a shortest one.
    #[test]
    fn every_schedule_of_two_clients_keeps_the_admission_rules() {
        let mut states = 0;
        for depth in 1..=DEPTH {
            let mut seen = HashMap::new();
            if let Err(report) = explore(&Model::new(), depth, &mut seen, &mut Vec::new()) {
                panic!("admission rule broken at depth {depth}: {report}");
            }
            states = seen.len();
        }
        assert!(
            states > 10_000,
            "the search is too shallow: {states} states"
        );
    }

    #[test]
    fn the_quota_trips_a_penalty_that_sheds_unverified_for_one_window() {
        let mut g = gate();
        let at = |now, client_held| Facts {
            now,
            backlog: 0,
            client_held,
            held: false,
        };
        for ts in 1..=CLIENT_QUOTA as Timestamp {
            assert!(!g.sheds(7, ts, at(W, 0)));
        }
        assert!(g.sheds(7, 5, at(W, 0)), "the quota is full");
        assert!(g.sheds_unverified(7, at(2 * W - 1, 0)));
        assert!(!g.sheds_unverified(
            7,
            Facts {
                held: true,
                ..at(2 * W - 1, 0)
            }
        ));
        assert!(
            !g.sheds_unverified(8, at(2 * W - 1, 0)),
            "penalties are per client"
        );
        assert!(
            !g.sheds_unverified(7, at(2 * W, 0)),
            "one window, not extended"
        );
        Gate::note_served(Some(&mut g), 7, 4);
        assert!(!g.sheds(7, 6, at(2 * W, 0)), "serving 4 settles 1..=4");
        assert!(
            g.sheds(7, 7, at(2 * W, CLIENT_QUOTA)),
            "the held count backstops the gap"
        );
    }

    #[test]
    fn pushback_sends_one_busy_per_client_per_window() {
        let mut p = Pushback::default();
        let busy = p.busy(2, 7, 9, W).expect("the first BUSY goes out");
        assert_eq!(
            (busy.replica, busy.timestamp, busy.retry_after_ns),
            (2, 9, W)
        );
        assert!(p.busy(2, 7, 10, 2 * W - 1).is_none());
        assert!(
            p.busy(2, 8, 10, 2 * W - 1).is_some(),
            "another client is not throttled"
        );
        assert!(p.busy(2, 7, 10, 2 * W).is_some());
    }

    #[test]
    fn without_the_gate_nothing_is_capped_or_evicted() {
        let g = gate();
        assert_eq!(Gate::batch_limit(Some(&g), QUEUE_CAP / 2 + 1, 8), 32);
        assert_eq!(Gate::batch_limit(Some(&g), QUEUE_CAP / 2, 8), 8);
        assert_eq!(Gate::batch_limit(None, usize::MAX, 8), 8);
        assert!(Gate::evicts_ro(Some(&g), QUEUE_CAP));
        assert!(!Gate::evicts_ro(None, usize::MAX));
        assert!(Gate::bounds(None, 1, 2, 3)
            .iter()
            .all(|row| row.2 == usize::MAX));
        let cfg = Config::default();
        let slack = cfg.log_window as usize * cfg.max_batch_requests;
        assert!(Gate::bounds(Some(&g), 1, 2, 3)
            .iter()
            .all(|row| row.2 == QUEUE_CAP + slack));
        assert!(Gate::armed(&cfg).is_none());
    }
}
