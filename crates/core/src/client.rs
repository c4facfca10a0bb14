//! The BFT client: submits operations, collects reply quorums, and
//! retransmits — with the digest-replies and read-only optimizations.
//!
//! Application behaviour (what to invoke and when) is supplied by a
//! [`ClientDriver`]; the workload crates implement drivers for the paper's
//! micro-benchmark, Andrew, and PostMark.

use crate::config::Config;
use crate::invariants::{push_within_budget, OpEvent};
use crate::messages::{AuthTag, Busy, Msg, Packet, PacketKeys, Reply, Request, REPLIER_ALL};
use crate::types::{ClientId, ReplicaId, Timestamp, View};
use bft_crypto::keychain::{Authenticator, KeyChain};
use bft_crypto::md5::Digest;
use bft_sim::{
    Context, CostKind, Counter, Node, NodeId, SimTime, SpanEdge, TimerId, TraceMeta, TracePhase,
};
use std::any::Any;
use std::collections::BTreeMap;

const TIMER_RETRY: u64 = 0;
/// Recurring fault-injection pacing timer ([`ClientBehavior`]); below
/// `DRIVER_TOKEN_BASE` so it can never collide with a driver token.
const TIMER_FAULT: u64 = 999;
const DRIVER_TOKEN_BASE: u64 = 1_000;

/// Cap on BUSY-driven backoff rounds per operation: a Byzantine replica
/// holding valid keys can send BUSY too, and each acceptance re-arms the
/// retry timer — unbounded acceptance would let one faulty replica delay
/// a retransmission forever.
const BUSY_ROUNDS_CAP: u32 = 16;

/// Fault-injection behaviours for clients, the client-side counterpart
/// of [`crate::replica::Behavior`]. A correct client is closed-loop (one
/// outstanding operation); these make it misbehave in a specific,
/// reproducible way. The flood operation is the counter workload's "get"
/// (state-neutral), so chaos invariants over the replicated counter are
/// unaffected by how many flood requests execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientBehavior {
    /// Follow the protocol.
    #[default]
    Correct,
    /// Open-loop flood: abandon any outstanding operation and submit a
    /// fresh one every `interval_ns`, ignoring the closed-loop
    /// discipline entirely.
    Flood {
        /// Pacing interval between flood submissions.
        interval_ns: u64,
    },
    /// Retransmission storm: re-send the outstanding request every
    /// `interval_ns` (duplicate/replay pressure on dedup paths).
    Replay {
        /// Pacing interval between replays.
        interval_ns: u64,
    },
    /// Send requests whose authenticator never verifies every
    /// `interval_ns` (pure verification-cost flooding).
    Malformed {
        /// Pacing interval between malformed sends.
        interval_ns: u64,
    },
}

impl ClientBehavior {
    fn interval_ns(self) -> Option<u64> {
        match self {
            ClientBehavior::Correct => None,
            ClientBehavior::Flood { interval_ns }
            | ClientBehavior::Replay { interval_ns }
            | ClientBehavior::Malformed { interval_ns } => Some(interval_ns.max(1)),
        }
    }
}

/// Application logic driving a [`Client`].
pub trait ClientDriver: 'static {
    /// Called once when the client starts; typically submits the first
    /// operation.
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>);

    /// Called when an operation completes with its result and measured
    /// latency; typically submits the next operation (closed loop) or sets
    /// a think-time timer.
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], latency_ns: u64);

    /// Called when a timer set via [`ClientApi::set_timer`] fires.
    fn on_timer(&mut self, _api: &mut ClientApi<'_, '_>, _token: u64) {}
}

/// One in-flight operation.
#[derive(Debug)]
struct PendingOp {
    timestamp: Timestamp,
    op: Vec<u8>,
    read_only: bool,
    replier: ReplicaId,
    sent_at: SimTime,
    broadcast: bool,
    retries: u32,
    /// BUSY pushbacks honored for this operation (each extends the
    /// retry budget by one — backing off is not starvation).
    busy_rounds: u32,
    /// The retry budget was already flagged as exhausted for this
    /// operation (count starvation once per op).
    budget_flagged: bool,
    /// Per-replica (result digest, tentative) votes, in replica order so
    /// quorum evaluation is independent of reply arrival hashing.
    replies: BTreeMap<ReplicaId, (Digest, bool)>,
    /// Full result bytes seen, by result digest.
    full: BTreeMap<Digest, Vec<u8>>,
}

impl PendingOp {
    /// The stored replies carrying result digest `d`, as `(all,
    /// committed)`: counted in place over at most `n` replies.
    fn votes(&self, d: &Digest) -> (usize, usize) {
        let matching = self.replies.values().filter(|(e, _)| e == d);
        matching.fold((0, 0), |(all, committed), &(_, tentative)| {
            (all + 1, committed + usize::from(!tentative))
        })
    }
}

/// Client protocol state, separated from the driver so the two can be
/// borrowed simultaneously.
pub struct ClientCore {
    cfg: Config,
    id: ClientId,
    keys: PacketKeys,
    /// Every replica, in id order: the destinations of a multicast.
    replicas: Vec<NodeId>,
    view_guess: View,
    ts: Timestamp,
    pending: Option<PendingOp>,
    retry_timer: Option<TimerId>,
    /// Exponentially weighted moving average of observed latency, driving
    /// the adaptive retransmission timeout (ns).
    latency_ewma: f64,
    /// Completed operation count (also mirrored into the metrics).
    pub completed_ops: u64,
    /// Invoke/complete events for the chaos linearizability checker;
    /// held to a byte budget when nobody drains it.
    audit: Vec<OpEvent>,
    /// Bytes `audit` retains, operation and result payloads included.
    audit_bytes: usize,
    /// Fault-injection behavior (chaos testing); `Correct` in production.
    behavior: ClientBehavior,
    /// A `TIMER_FAULT` pacing timer is outstanding.
    fault_timer_armed: bool,
    /// Operations whose bounded retry budget ran out (each counted once);
    /// the chaos `ClientStarvation` invariant watches this.
    starved_ops: u64,
}

impl ClientCore {
    fn new(id: ClientId, cfg: Config) -> ClientCore {
        cfg.validate();
        assert!(id >= cfg.n(), "client ids must not collide with replicas");
        let keys = PacketKeys::new(KeyChain::new(id, cfg.n()));
        let replicas = cfg.quorums.replicas().collect();
        ClientCore {
            cfg,
            id,
            keys,
            replicas,
            view_guess: 0,
            ts: 0,
            pending: None,
            retry_timer: None,
            latency_ewma: 0.0,
            completed_ops: 0,
            audit: Vec::new(),
            audit_bytes: 0,
            behavior: ClientBehavior::Correct,
            fault_timer_armed: false,
            starved_ops: 0,
        }
    }

    /// Deterministic jitter in `0..bound`, splitmix64-hashed from the
    /// client id and `salt` — NOT the simulation RNG, so two clusters fed
    /// the same schedule stay bit-identical and replays are stable, while
    /// clients that timed out in the same instant still retransmit apart
    /// instead of re-synchronizing into the same burst.
    fn jitter(&self, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let mut z = (u64::from(self.id) << 32) ^ salt ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }

    /// Long benchmark runs never read the audit, and its events carry
    /// whole operations and results: it is bounded in bytes, not events
    /// (the checker drains after every event and never gets near).
    fn note_audit(&mut self, event: OpEvent) {
        push_within_budget(
            &mut self.audit,
            &mut self.audit_bytes,
            event,
            OpEvent::retained_bytes,
        );
    }

    fn send_request(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(p) = &self.pending else { return };
        let req = Request {
            client: self.id,
            timestamp: p.timestamp,
            op: p.op.clone(),
            read_only: p.read_only,
            replier: p.replier,
            auth: AuthTag::None, // replaced below
        };
        let cost = &self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(req.op.len() + 21));
        ctx.charge_kind(CostKind::Mac, cost.authenticator(self.cfg.n(), 16));
        let d = req.digest();
        let auth = AuthTag::Vector(self.keys.chain.authenticate(d.as_bytes()));
        let req = Request { auth, ..req };
        let multicast = p.read_only
            || p.broadcast
            || (self.cfg.opts.separate_request_transmission
                && req.op.len() > self.cfg.inline_threshold);
        let packet = Packet::unauthenticated(Msg::Request(req));
        let wire = packet.wire_bytes();
        ctx.charge_kind(CostKind::Net, cost.send(wire));
        ctx.count_sent(packet.body.tag());
        if multicast {
            ctx.multicast(&self.replicas, packet, wire);
        } else {
            let primary = self.cfg.quorums.primary(self.view_guess);
            ctx.send(primary, packet, wire);
        }
        // Adaptive retransmission: never retransmit before several times
        // the recently observed latency — premature retransmissions under
        // load amplify the congestion that delayed the reply.
        let adaptive = (self.latency_ewma * 4.0) as u64;
        // Capped: a latency estimate poisoned by a few ops that limped
        // through a view change must not push the next retransmission
        // past the cluster's recovery (see `client_retry_timeout_max_ns`).
        let timeout = (self.cfg.client_retry_timeout_ns.max(adaptive) << p.retries.min(4))
            .min(self.cfg.client_retry_timeout_max_ns);
        // Desynchronize retransmissions: clients whose timeouts expire in
        // the same instant (a batch completing late, a primary failing)
        // would otherwise retransmit in lockstep forever. Part of the
        // overload armor, and gated with it so pre-armor seeds replay
        // byte-identically.
        let timeout = if self.cfg.admission_control {
            timeout + self.jitter(p.timestamp ^ (u64::from(p.retries) << 48), timeout / 8 + 1)
        } else {
            timeout
        };
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.retry_timer = Some(ctx.set_timer(timeout, TIMER_RETRY));
    }

    fn submit_inner(&mut self, ctx: &mut Context<'_, Packet>, op: Vec<u8>, read_only: bool) {
        assert!(
            self.pending.is_none(),
            "one outstanding operation per client"
        );
        self.ts += 1;
        let replier = if self.cfg.opts.digest_replies {
            ((self.ts as u32).wrapping_add(self.id)) % self.cfg.n()
        } else {
            REPLIER_ALL
        };
        self.note_audit(OpEvent::Invoke {
            client: self.id,
            timestamp: self.ts,
            op: op.clone(),
            at_ns: ctx.now().nanos(),
        });
        ctx.trace_now(
            SpanEdge::Open,
            TracePhase::Request,
            TraceMeta {
                client: self.id as u64,
                timestamp: self.ts,
                ..TraceMeta::default()
            },
        );
        self.pending = Some(PendingOp {
            timestamp: self.ts,
            op,
            read_only: read_only && self.cfg.opts.read_only,
            replier,
            sent_at: ctx.now(),
            broadcast: false,
            retries: 0,
            busy_rounds: 0,
            budget_flagged: false,
            replies: BTreeMap::new(),
            full: BTreeMap::new(),
        });
        self.send_request(ctx);
    }

    /// Checks whether a reply quorum has formed; returns the accepted
    /// result if so.
    fn check_complete(&mut self) -> Option<(Vec<u8>, SimTime)> {
        let q = &self.cfg.quorums;
        let p = self.pending.as_ref()?;
        // If two digests ever both reach quorum (only possible with
        // faulty replicas), the smallest wins, so every run picks the
        // same one.
        let accepted = p
            .replies
            .values()
            .map(|&(d, _)| d)
            .filter(|d| {
                let (all, committed) = p.votes(d);
                let quorum_ok = committed >= q.reply_quorum() || all >= q.tentative_reply_quorum();
                quorum_ok && p.full.contains_key(d)
            })
            .min()?;
        let mut p = self.pending.take()?;
        let result = p.full.remove(&accepted)?;
        Some((result, p.sent_at))
    }

    fn handle_reply(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        reply: Reply,
        auth: &AuthTag,
        body_bytes_len: usize,
    ) -> Option<(Vec<u8>, u64)> {
        if from >= self.cfg.n() || reply.client != self.id {
            return None;
        }
        let cost = self.cfg.cost;
        ctx.charge_kind(CostKind::Digest, cost.digest(body_bytes_len));
        let p = self.pending.as_ref()?;
        if reply.timestamp != p.timestamp {
            return None;
        }
        // Verify the point-to-point MAC.
        if !matches!(auth, AuthTag::Mac(_)) {
            return None;
        }
        ctx.charge_kind(CostKind::Mac, cost.mac(16));
        // The MAC covers the encoded `Msg`: wrap the reply to encode it,
        // then take it back out — no copy of the result bytes.
        let body = Msg::Reply(reply);
        if !self.keys.verify(from, &body, auth) {
            ctx.count(Counter::BadReplyAuth);
            return None;
        }
        let Msg::Reply(reply) = body else { return None };
        self.view_guess = self.view_guess.max(reply.view);
        let completed_ts = reply.timestamp;
        let result_digest = reply.body.result_digest();
        let p = self.pending.as_mut()?;
        if let crate::messages::ReplyBody::Full(bytes) = reply.body {
            // The digest charged above (over the reply body) covers the
            // result-hash work; no extra per-byte cost here.
            p.full.insert(result_digest, bytes);
        }
        p.replies.insert(from, (result_digest, reply.tentative));
        let Some((result, sent_at)) = self.check_complete() else {
            self.maybe_fast_ro_retry(ctx);
            return None;
        };
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        let latency = ctx.now().since(sent_at);
        self.latency_ewma = if self.latency_ewma == 0.0 {
            latency as f64
        } else {
            0.8 * self.latency_ewma + 0.2 * latency as f64
        };
        self.completed_ops += 1;
        ctx.count(Counter::OpsCompleted);
        ctx.metrics().record("client.latency", latency);
        // The span close is the reply-recv edge of the request lifecycle;
        // `trace_now` stamps it at `now`, matching the latency recorded
        // above (`now - sent_at`), so assembled phase times sum exactly
        // to the measured end-to-end latency.
        ctx.trace_now(
            SpanEdge::Close,
            TracePhase::Request,
            TraceMeta {
                client: self.id as u64,
                timestamp: completed_ts,
                ..TraceMeta::default()
            },
        );
        self.note_audit(OpEvent::Complete {
            client: self.id,
            timestamp: completed_ts,
            result: result.clone(),
            at_ns: ctx.now().nanos(),
        });
        Some((result, latency))
    }

    /// Re-issues a read-only round immediately once it is provably dead.
    /// Two ways a round dies when holders answer on both sides of a
    /// write's revoke/regrant boundary:
    ///
    /// - *split*: enough replicas answered that no result digest can
    ///   still reach a reply quorum;
    /// - *body starvation*: a digest can (or did) reach quorum, but only
    ///   the designated replier sends full results, it already answered
    ///   with a different (stale) digest, and no outstanding reply will
    ///   carry the body either.
    ///
    /// Either way the round cannot complete; waiting out the
    /// retransmission timer would park a "one-round" read for the full
    /// client timeout.
    fn maybe_fast_ro_retry(&mut self, ctx: &mut Context<'_, Packet>) {
        let q = self.cfg.quorums;
        let n = self.cfg.n() as usize;
        let Some(p) = &mut self.pending else { return };
        if !p.read_only || !self.cfg.read_leases || p.retries >= 2 {
            return;
        }
        let remaining = n - p.replies.len();
        // A digest is viable only if the outstanding replies could still
        // push it to a quorum AND a full result body for it is present
        // or could still arrive: from the designated replier if it has
        // not answered yet, or — when every replica sends full bodies —
        // from any outstanding reply. An as-yet-unseen digest is covered
        // by the `(None, (0, 0))` case.
        let replier_pending = p.replier != REPLIER_ALL && !p.replies.contains_key(&p.replier);
        let viable = |d: Option<&Digest>, (all, committed): (usize, usize)| {
            let counts_ok = committed + remaining >= q.reply_quorum()
                || all + remaining >= q.tentative_reply_quorum();
            let body_ok = d.is_some_and(|d| p.full.contains_key(d))
                || replier_pending
                || (p.replier == REPLIER_ALL && remaining > 0);
            counts_ok && body_ok
        };
        let any_viable =
            viable(None, (0, 0)) || p.replies.values().any(|(d, _)| viable(Some(d), p.votes(d)));
        if any_viable {
            return;
        }
        p.retries += 1;
        p.replier = REPLIER_ALL;
        p.broadcast = true;
        ctx.count(Counter::RoRetries);
        ctx.count(Counter::Retransmissions);
        self.send_request(ctx);
    }

    /// Handles a BUSY pushback from a replica: back off with exponential
    /// delay plus deterministic jitter instead of retransmitting on the
    /// normal schedule, and under persistent pushback give up the
    /// optimistic read-only path (admission sheds read-only parking
    /// queues first, so the classic path is the one with headroom).
    fn handle_busy(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        busy: Busy,
        auth: &AuthTag,
    ) {
        if from >= self.cfg.n() || busy.client != self.id {
            return;
        }
        // Verify the point-to-point MAC — an unauthenticated BUSY would
        // let any network party stall arbitrary clients for free.
        if !matches!(auth, AuthTag::Mac(_)) {
            return;
        }
        ctx.charge_kind(CostKind::Mac, self.cfg.cost.mac(16));
        if !self.keys.verify(from, &Msg::Busy(busy), auth) {
            ctx.count(Counter::BadBusyAuth);
            return;
        }
        let (rounds, salt) = {
            let Some(p) = &mut self.pending else { return };
            if busy.timestamp != p.timestamp || p.busy_rounds >= BUSY_ROUNDS_CAP {
                return;
            }
            p.busy_rounds += 1;
            ctx.count(Counter::BusyReceived);
            if p.busy_rounds >= 2 && p.read_only {
                // Persistent pushback: fall back from the optimistic
                // one-round read to classic ordering.
                p.read_only = false;
                p.replier = REPLIER_ALL;
                ctx.count(Counter::BusyRoFallbacks);
            }
            (p.busy_rounds, p.timestamp)
        };
        let max = self.cfg.client_retry_timeout_max_ns;
        let hint = busy.retry_after_ns.clamp(1, max);
        let backoff = (hint << (rounds - 1).min(4)).min(max);
        let delay = backoff + self.jitter(salt ^ (u64::from(rounds) << 40), backoff / 4 + 1);
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.retry_timer = Some(ctx.set_timer(delay, TIMER_RETRY));
    }

    fn on_retry_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        self.retry_timer = None;
        let budget = self.cfg.client_retry_budget;
        let over = {
            let Some(p) = &mut self.pending else { return };
            p.retries += 1;
            p.broadcast = true;
            // Each honored BUSY extends the allowance by one round:
            // backing off on request is cooperation, not starvation.
            budget > 0 && !p.budget_flagged && p.retries > budget + p.busy_rounds
        };
        if over {
            // The budget is an observability boundary, not a liveness
            // one: flag the op as starved (once) and keep retrying.
            self.starved_ops += 1;
            ctx.count(Counter::RetryBudgetExhausted);
        }
        let Some(p) = &mut self.pending else { return };
        if over {
            p.budget_flagged = true;
        }
        // With read leases, a timed-out read retries read-only first:
        // a write burst that held replies back lifts within a lease
        // revocation round, and falling straight back to read-write
        // would forfeit the one-round path exactly when it matters.
        // Every replica answers the retry (`REPLIER_ALL`), so one
        // recovering or slow replica cannot starve the 2f+1 match.
        // After two read-only retries the usual fallback applies — a
        // dead primary stops granting leases, and only the read-write
        // path (whose pending requests arm the view-change timer) can
        // then re-elect.
        if p.read_only && self.cfg.read_leases && p.retries <= 2 {
            p.replier = REPLIER_ALL;
            ctx.count(Counter::RoRetries);
            ctx.count(Counter::Retransmissions);
            self.send_request(ctx);
            return;
        }
        // A timed-out read-only operation is retransmitted as a regular
        // read-write request (Section 3.1). Replies already collected stay
        // valid — they are matched by timestamp and result digest. This
        // fallback is what keeps reads live when a recovering replica
        // withholds its tentative reply and the remaining matches cannot
        // reach 2f+1 (arXiv:2107.11144).
        if p.read_only {
            ctx.count(Counter::RoFallbacks);
        }
        p.read_only = false;
        p.replier = REPLIER_ALL;
        ctx.count(Counter::Retransmissions);
        self.send_request(ctx);
    }

    /// Arms the fault pacing timer if the behavior needs one and none is
    /// outstanding. Called on every event so `set_behavior` (which has no
    /// simulation context) takes effect at the next event the client
    /// processes.
    fn ensure_fault_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        if self.fault_timer_armed {
            return;
        }
        let Some(interval) = self.behavior.interval_ns() else {
            return;
        };
        self.fault_timer_armed = true;
        ctx.set_timer(interval, TIMER_FAULT);
    }

    /// One tick of the configured misbehavior. Does nothing (and stops
    /// re-arming) once the behavior is back to `Correct`.
    fn on_fault_tick(&mut self, ctx: &mut Context<'_, Packet>) {
        match self.behavior {
            ClientBehavior::Correct => {}
            ClientBehavior::Flood { .. } => {
                // Abandon the outstanding op and fire a fresh one: an
                // open-loop firehose that keeps timestamps monotone, so
                // the reply cache stays coherent and the final flood op
                // completes normally once the behavior is restored —
                // which re-enters the driver's closed loop.
                if self.pending.take().is_some() {
                    if let Some(t) = self.retry_timer.take() {
                        ctx.cancel_timer(t);
                    }
                    ctx.count(Counter::FloodAbandoned);
                }
                ctx.count(Counter::FloodRequests);
                self.submit_inner(ctx, vec![1], false);
            }
            ClientBehavior::Replay { .. } => {
                if self.pending.is_some() {
                    self.send_request(ctx);
                }
            }
            ClientBehavior::Malformed { .. } => {
                // A request whose every MAC is corrupt: pure
                // verification-cost pressure. The timestamp is past the
                // reply cache but never reserved via `self.ts`, so no
                // real op is ever shadowed by it.
                let req = Request {
                    client: self.id,
                    timestamp: self.ts + 1,
                    op: vec![1],
                    read_only: false,
                    replier: REPLIER_ALL,
                    auth: AuthTag::None,
                };
                let d = req.digest();
                let auth = self.keys.chain.authenticate(d.as_bytes());
                let entries = auth.entries.iter().map(|&(r, mut mac)| {
                    mac.tag[0] ^= 0xff;
                    (r, mac)
                });
                let auth = Authenticator {
                    entries: entries.collect(),
                };
                let req = Request {
                    auth: AuthTag::Vector(auth),
                    ..req
                };
                let packet = Packet::unauthenticated(Msg::Request(req));
                let wire = packet.wire_bytes();
                ctx.charge_kind(CostKind::Net, self.cfg.cost.send(wire));
                ctx.count_sent(packet.body.tag());
                ctx.multicast(&self.replicas, packet, wire);
            }
        }
        self.ensure_fault_timer(ctx);
    }
}

/// What a [`ClientDriver`] can do: submit operations, set timers, read the
/// clock and metrics.
pub struct ClientApi<'a, 'b> {
    core: &'a mut ClientCore,
    ctx: &'a mut Context<'b, Packet>,
}

impl ClientApi<'_, '_> {
    /// Submits an operation. `read_only` requests the single-round-trip
    /// path (honored only when the optimization is enabled and the service
    /// agrees the operation is read-only).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already outstanding (clients are
    /// closed-loop).
    pub fn submit(&mut self, op: Vec<u8>, read_only: bool) {
        self.core.submit_inner(self.ctx, op, read_only);
    }

    /// True if an operation is in flight.
    pub fn busy(&self) -> bool {
        self.core.pending.is_some()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This client's principal id.
    pub fn client_id(&self) -> ClientId {
        self.core.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> &Config {
        &self.core.cfg
    }

    /// Sets a driver timer; it arrives at [`ClientDriver::on_timer`].
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.ctx.set_timer(delay_ns, DRIVER_TOKEN_BASE + token);
    }

    /// Charges simulated CPU time (client-side computation between
    /// operations, which the paper notes reduces relative overhead).
    pub fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }

    /// Shared metrics.
    pub fn metrics(&mut self) -> &mut bft_sim::Metrics {
        self.ctx.metrics()
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.ctx.rng()
    }
}

/// A BFT client node: protocol core plus an application driver.
pub struct Client<D: ClientDriver> {
    core: ClientCore,
    driver: D,
}

impl<D: ClientDriver> Client<D> {
    /// Creates a client with principal id `id` (which must equal the node
    /// id it is registered under, and be `>= n`).
    pub fn new(id: ClientId, cfg: Config, driver: D) -> Client<D> {
        Client {
            core: ClientCore::new(id, cfg),
            driver,
        }
    }

    /// Completed-operation count.
    pub fn completed_ops(&self) -> u64 {
        self.core.completed_ops
    }

    /// True if an operation is currently in flight.
    pub fn busy(&self) -> bool {
        self.core.pending.is_some()
    }

    /// Takes the accumulated invoke/complete events, leaving the buffer
    /// empty. The chaos linearizability checker drains this after every
    /// simulation event.
    pub fn drain_audit(&mut self) -> Vec<OpEvent> {
        self.core.audit_bytes = 0;
        std::mem::take(&mut self.core.audit)
    }

    /// Bytes the undrained audit retains — at most the per-node audit
    /// budget plus one event.
    #[cfg(test)]
    pub(crate) fn audit_bytes(&self) -> usize {
        self.core.audit_bytes
    }

    /// Overrides the client's behavior (chaos fault injection). The
    /// pacing timer arms on the next event this client processes — the
    /// chaos harness injects a no-op message right after to bound that.
    pub fn set_behavior(&mut self, behavior: ClientBehavior) {
        self.core.behavior = behavior;
    }

    /// The current (possibly faulty) behavior.
    pub fn behavior(&self) -> ClientBehavior {
        self.core.behavior
    }

    /// Operations whose bounded retry budget ran out, counted once per
    /// operation. The chaos `ClientStarvation` invariant watches this on
    /// honest clients.
    pub fn starvation_events(&self) -> u64 {
        self.core.starved_ops
    }

    /// Access to the driver (e.g. to read workload statistics).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Mutable access to the driver.
    pub fn driver_mut(&mut self) -> &mut D {
        &mut self.driver
    }
}

impl<D: ClientDriver> Node<Packet> for Client<D> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        assert_eq!(
            ctx.id(),
            self.core.id,
            "client node id must equal client id"
        );
        let mut api = ClientApi {
            core: &mut self.core,
            ctx,
        };
        self.driver.on_start(&mut api);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: NodeId,
        packet: Packet,
        wire: usize,
    ) {
        ctx.charge_kind(CostKind::Net, self.core.cfg.cost.recv(wire));
        ctx.count_received(packet.body.tag());
        self.core.ensure_fault_timer(ctx);
        // Exhaustive over Msg (lint rule `catch-all`): a client consumes
        // only REPLY and BUSY; every replica-to-replica variant is named
        // so adding a message type forces an explicit decision here.
        let reply = match packet.body {
            Msg::Reply(reply) => reply,
            Msg::Busy(busy) => {
                self.core.handle_busy(ctx, from, busy, &packet.auth);
                return;
            }
            Msg::Request(_)
            | Msg::PrePrepare(_)
            | Msg::Prepare(_)
            | Msg::Commit(_)
            | Msg::Checkpoint(_)
            | Msg::ViewChange(_)
            | Msg::NewView(_)
            | Msg::FetchState(_)
            | Msg::StateMeta(_)
            | Msg::FetchParts(_)
            | Msg::PartData(_)
            | Msg::FetchBatch(_)
            | Msg::BatchData(_)
            | Msg::FetchRequests(_)
            | Msg::RequestData(_)
            | Msg::Status(_)
            | Msg::CommittedBatch(_)
            | Msg::NewKey(_)
            | Msg::Recover(_)
            | Msg::RecoverAttest(_)
            | Msg::Lease(_)
            | Msg::LeaseRenew(_)
            | Msg::LeaseRevoke(_) => return,
        };
        let body_len = wire.saturating_sub(packet.auth.wire_bytes());
        if let Some((result, latency)) =
            self.core
                .handle_reply(ctx, from, reply, &packet.auth, body_len)
        {
            let mut api = ClientApi {
                core: &mut self.core,
                ctx,
            };
            self.driver.on_complete(&mut api, &result, latency);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        if token == TIMER_RETRY {
            self.core.on_retry_timer(ctx);
        } else if token == TIMER_FAULT {
            self.core.fault_timer_armed = false;
            self.core.on_fault_tick(ctx);
        } else if token >= DRIVER_TOKEN_BASE {
            let mut api = ClientApi {
                core: &mut self.core,
                ctx,
            };
            self.driver.on_timer(&mut api, token - DRIVER_TOKEN_BASE);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<D: ClientDriver> std::fmt::Debug for Client<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.core.id)
            .field("ts", &self.core.ts)
            .field("busy", &self.core.pending.is_some())
            .field("completed", &self.core.completed_ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::messages::ReplyBody;
    use crate::service::CounterService;
    use bft_sim::dur;

    /// Submits one "add 5" and keeps its result.
    #[derive(Default)]
    struct OneAdd {
        result: Option<Vec<u8>>,
    }

    impl ClientDriver for OneAdd {
        fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
            api.submit(CounterService::add_op(5), false);
        }
        fn on_complete(&mut self, _api: &mut ClientApi<'_, '_>, result: &[u8], _lat: u64) {
            self.result = Some(result.to_vec());
        }
    }

    /// A cluster whose one client has just sent its add (timestamp 1).
    fn submitted() -> (Cluster, ClientId) {
        let mut c = Cluster::builder(Config::new(1)).seed(7).build_counter();
        let client = c.add_client(OneAdd::default());
        c.run_for(dur::micros(1));
        assert!(c.client::<OneAdd>(client).busy());
        (c, client)
    }

    /// `from`'s packet to `client`, MACed over `body` and then altered by
    /// `forge`.
    fn forged(
        c: &Cluster,
        client: ClientId,
        from: ReplicaId,
        body: Msg,
        forge: impl FnOnce(&mut Msg),
    ) -> Packet {
        let mut keys = PacketKeys::new(KeyChain::new(from, c.cfg.n()));
        let auth = keys.seal_to(client, &body);
        let mut body = body;
        forge(&mut body);
        Packet { body, auth }
    }

    fn inject(c: &mut Cluster, client: ClientId, from: ReplicaId, packet: Packet) {
        let wire = packet.wire_bytes();
        c.sim.inject(client, from, packet, wire);
    }

    /// A committed reply to the add from `from`.
    fn reply(client: ClientId, from: ReplicaId, body: ReplyBody) -> Msg {
        Msg::Reply(Reply {
            view: 0,
            timestamp: 1,
            client,
            replica: from,
            tentative: false,
            body,
        })
    }

    /// Two replicas' committed replies, each altered after its MAC: were
    /// either accepted, f+1 of them would complete the add with a wrong
    /// result.
    #[test]
    fn a_reply_altered_after_its_mac_is_dropped_and_counted() {
        let right = 5u64.to_le_bytes().to_vec();
        let wrong = 6u64.to_le_bytes().to_vec();
        let forgeries = [
            (
                ReplyBody::Full(right.clone()),
                ReplyBody::Full(wrong.clone()),
            ),
            (
                ReplyBody::Digest(bft_crypto::digest(&right)),
                ReplyBody::Digest(bft_crypto::digest(&wrong)),
            ),
        ];
        for (sealed, sent) in forgeries {
            let (mut c, client) = submitted();
            for from in 1..3 {
                let packet = forged(&c, client, from, reply(client, from, sealed.clone()), |m| {
                    if let Msg::Reply(r) = m {
                        r.body = sent.clone();
                    }
                });
                inject(&mut c, client, from, packet);
            }
            // The full forgery, had it been accepted, carries its own body.
            if let ReplyBody::Digest(_) = sent {
                let body = reply(client, 3, ReplyBody::Full(wrong.clone()));
                let packet = forged(&c, client, 3, body, |_| {});
                inject(&mut c, client, 3, packet);
            }
            c.run_for(dur::millis(50));
            assert_eq!(c.sim.health().total(Counter::BadReplyAuth), 2);
            let done = c.client::<OneAdd>(client).driver().result.clone();
            assert_eq!(done, Some(right.clone()));
        }
    }

    /// A BUSY whose back-off hint was raised after its MAC: dropped,
    /// counted, and the retransmission timer stays where it was.
    #[test]
    fn a_busy_with_a_bad_mac_is_dropped_and_does_not_move_the_retry_timer() {
        let (mut c, client) = submitted();
        let before = c.client::<OneAdd>(client).core.retry_timer;
        assert!(before.is_some());
        let busy = Msg::Busy(Busy {
            client,
            timestamp: 1,
            replica: 1,
            retry_after_ns: dur::millis(1),
        });
        let packet = forged(&c, client, 1, busy, |m| {
            if let Msg::Busy(b) = m {
                b.retry_after_ns = dur::secs(60);
            }
        });
        inject(&mut c, client, 1, packet);
        c.run_for(dur::micros(200));
        let health = c.sim.health();
        assert_eq!(health.total(Counter::BadBusyAuth), 1);
        assert_eq!(health.total(Counter::BusyReceived), 0);
        assert_eq!(c.client::<OneAdd>(client).core.retry_timer, before);
    }

    /// A pending add with the given `(replica, result, tentative)` replies
    /// stored, every result's body among them.
    fn with_replies(replies: &[(ReplicaId, &[u8], bool)]) -> ClientCore {
        let mut core = ClientCore::new(4, Config::new(1));
        let mut op = PendingOp {
            timestamp: 1,
            op: CounterService::add_op(5),
            read_only: false,
            replier: REPLIER_ALL,
            sent_at: SimTime::ZERO,
            broadcast: false,
            retries: 0,
            busy_rounds: 0,
            budget_flagged: false,
            replies: BTreeMap::new(),
            full: BTreeMap::new(),
        };
        for &(r, result, tentative) in replies {
            let d = bft_crypto::digest(result);
            op.replies.insert(r, (d, tentative));
            op.full.insert(d, result.to_vec());
        }
        core.pending = Some(op);
        core
    }

    /// Two results split a Byzantine reply set. The one with a quorum
    /// wins, even when the other has the smaller digest; when both have a
    /// quorum, the smaller digest wins.
    #[test]
    fn a_split_reply_set_completes_with_the_quorum_result_or_the_smaller_digest() {
        let (a, b): (&[u8], &[u8]) = (b"a", b"b");
        let (lo, hi) = if bft_crypto::digest(a) < bft_crypto::digest(b) {
            (a, b)
        } else {
            (b, a)
        };
        let result = |replies: &[(ReplicaId, &[u8], bool)]| {
            with_replies(replies).check_complete().map(|(r, _)| r)
        };
        // f+1 committed replies for `hi`, one for `lo`.
        assert_eq!(
            result(&[(0, lo, false), (1, hi, false), (2, hi, false)]),
            Some(hi.to_vec())
        );
        // Tentative replies need 2f+1: `hi` has two, so nothing yet.
        assert_eq!(
            result(&[(0, lo, false), (1, hi, true), (2, hi, true)]),
            None
        );
        // A tie: both reach f+1 committed.
        assert_eq!(
            result(&[
                (0, hi, false),
                (1, hi, false),
                (2, lo, false),
                (3, lo, false)
            ]),
            Some(lo.to_vec())
        );
        assert_eq!(
            result(&[
                (0, lo, false),
                (1, hi, false),
                (2, lo, false),
                (3, hi, false)
            ]),
            Some(lo.to_vec())
        );
    }
}
