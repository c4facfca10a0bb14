//! Read leases (arXiv:2107.11144; DESIGN.md §5.14): one-round reads that
//! stay one round under concurrent writes. [`Leases`] is the protocol as
//! a state machine with no I/O. It owns every lease field, is told the
//! replica [`Facts`] its rules read, and returns the message to send;
//! authentication, sending, CPU charges, counters and trace events stay
//! with the replica.

use crate::config::Config;
use crate::messages::{Lease, LeaseRenew, LeaseRevoke, Request};
use crate::types::{Quorums, ReplicaId, SeqNum, View};
use bft_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Bound on reads parked at a holder; past it the oldest is handed back.
const LEASE_RO_CAP: usize = 256;

/// The replica facts the lease rules read, sampled at each call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Facts {
    pub(crate) now: u64,
    pub(crate) view: View,
    pub(crate) primary: bool,
    /// A view change or this replica's recovery is in progress.
    pub(crate) paused: bool,
    pub(crate) last_executed: SeqNum,
    pub(crate) last_final: SeqNum,
    pub(crate) next_seq: SeqNum,
    /// Requests wait in the primary's backlog to be ordered.
    pub(crate) writes_pending: bool,
    /// Writes are queued or ordered but not yet executed.
    pub(crate) writes_in_flight: bool,
}

/// Primary side: the outstanding grant round, one for all backups. A
/// holder's lease, from receipt, outlives `expires_at_ns` by ≤ one delay.
#[derive(Debug, Clone)]
struct LeaseGrant {
    expires_at_ns: u64,
    /// The epoch of the revoke in flight, if any, and who acked it.
    revoke_epoch: Option<u64>,
    acks: BTreeSet<ReplicaId>,
}

/// Holder side: the current lease. Nothing is served before
/// `last_executed` reaches `seq`, the primary's `next_seq` at grant time.
#[derive(Debug, Clone, Copy)]
struct HeldLease {
    seq: SeqNum,
    expires_at_ns: u64,
}

/// The primary's write fence.
#[derive(Debug, Default, PartialEq)]
pub(crate) enum Fence {
    #[default]
    Open,
    /// Defer ordering; multicast the revoke if the fence just closed.
    Closed(Option<LeaseRevoke>),
}

/// What the recurring lease tick asks of the replica.
#[derive(Debug, Default, PartialEq)]
pub(crate) enum Tick {
    #[default]
    Idle,
    Grant(Lease),
    /// Writes wait: re-multicast the revoke, if any, then retry ordering.
    Writes(Option<LeaseRevoke>),
}

/// One replica's read-lease state, as primary and as holder.
#[derive(Debug)]
pub(crate) struct Leases {
    id: ReplicaId,
    quorums: Quorums,
    /// Granted, and the most a holder accepts whatever a grant says.
    duration_ns: u64,
    /// Primary: grant/revoke epochs, restarting each view.
    epoch: u64,
    outstanding: Option<LeaseGrant>,
    /// Primary: when each backup last sent traffic carrying our view.
    evidence_ns: BTreeMap<ReplicaId, u64>,
    /// Primary: no write is ordered before this instant.
    order_gate_ns: u64,
    /// Holder: the highest epoch seen this view; older ones are reordered
    /// leftovers, so a grant delayed past its revoke stays dead.
    epoch_seen: u64,
    held: Option<HeldLease>,
    /// Holder: reads waiting out a write burst, a handoff or catch-up.
    parked: VecDeque<Request>,
}

impl Leases {
    /// Replica `id`'s lease state, `None` unless `cfg` arms read leases.
    /// Replicas boot connected at time zero, so evidence is seeded as of then.
    pub(crate) fn armed(id: ReplicaId, cfg: &Config) -> Option<Leases> {
        cfg.read_leases.then(|| Leases {
            id,
            quorums: cfg.quorums,
            duration_ns: cfg.read_lease_ns,
            epoch: 0,
            outstanding: None,
            evidence_ns: (0..cfg.n()).filter(|&r| r != id).map(|r| (r, 0)).collect(),
            order_gate_ns: 0,
            epoch_seen: 0,
            held: None,
            parked: VecDeque::new(),
        })
    }

    /// The held lease's expiry, if it is live at `at_ns`.
    pub(crate) fn held_until(&self, at_ns: u64) -> Option<u64> {
        self.held.map(|l| l.expires_at_ns).filter(|&e| at_ns < e)
    }

    /// The parked reads' `queue_bounds` row, empty when leases are off.
    pub(crate) fn parked_bound(leases: Option<&Leases>) -> (&'static str, usize, usize) {
        let len = leases.map_or(0, |l| l.parked.len());
        ("waiting_lease_ro", len, LEASE_RO_CAP)
    }

    /// True while this holder may answer reads alone: not paused, lease
    /// unexpired, caught up through its `seq`, nothing tentative.
    pub(crate) fn servable(&self, f: Facts) -> bool {
        !f.paused
            && self.held.is_some_and(|l| {
                f.now < l.expires_at_ns
                    && f.last_executed >= l.seq
                    && f.last_executed == f.last_final
            })
    }

    /// Parks a read; returns the oldest one if that overflowed the cap.
    pub(crate) fn park(&mut self, req: Request) -> Option<Request> {
        let full = self.parked.len() >= LEASE_RO_CAP;
        let evicted = if full { self.parked.pop_front() } else { None };
        self.parked.push_back(req);
        evicted
    }

    /// The parked reads to serve now: all of them once a window is open.
    pub(crate) fn take_servable(&mut self, f: Facts) -> VecDeque<Request> {
        if self.servable(f) {
            std::mem::take(&mut self.parked)
        } else {
            VecDeque::new()
        }
    }

    /// Grant `l` from `from`, in our view; a paused holder, whose state is
    /// suspect, refuses it. Returns the ack, the primary's evidence.
    pub(crate) fn on_grant(&mut self, from: NodeId, l: &Lease, f: Facts) -> Option<LeaseRenew> {
        if from != self.quorums.primary(l.view) || from == self.id || l.epoch <= self.epoch_seen {
            return None;
        }
        self.epoch_seen = l.epoch;
        if f.paused {
            return None;
        }
        self.held = Some(HeldLease {
            seq: l.seq,
            expires_at_ns: f.now + l.duration_ns.min(self.duration_ns),
        });
        Some(LeaseRenew {
            view: l.view,
            epoch: l.epoch,
            replica: self.id,
            seq: f.last_executed,
        })
    }

    /// Revoke `rv` from `from`, in our view. Returns the ack; an equal
    /// epoch re-acks, since a lost ack stalls the fence until expiry.
    pub(crate) fn on_revoke(&mut self, from: NodeId, rv: &LeaseRevoke) -> Option<LeaseRevoke> {
        if from != self.quorums.primary(rv.view) || rv.epoch < self.epoch_seen {
            return None;
        }
        self.epoch_seen = rv.epoch;
        self.held = None;
        Some(LeaseRevoke {
            replica: self.id,
            ack: true,
            ..*rv
        })
    }

    /// Drops the held lease and its parked reads (a view change or recovery
    /// may replace their state); a primary's own grant round stays.
    pub(crate) fn drop_held(&mut self) {
        self.held = None;
        self.parked.clear();
    }

    /// At the primary of `msg_view`, traffic from backup `from` is liveness
    /// evidence: a primary cut off or deposed without knowing stops
    /// granting, and its leases drain.
    pub(crate) fn note_evidence(&mut self, from: NodeId, msg_view: View, f: Facts) {
        if f.primary && msg_view == f.view && from < self.quorums.n && from != self.id {
            self.evidence_ns.insert(from, f.now);
        }
    }

    /// A fresh grant, evidence permitting. It carries `next_seq`, so it is
    /// safe while writes still commit: holders behind them park reads.
    fn grant(&mut self, f: Facts) -> Option<Lease> {
        let stale_before = f.now.saturating_sub(2 * self.duration_ns);
        let fresh = self.evidence_ns.values().filter(|&&t| t >= stale_before);
        if !f.primary || fresh.count() < self.quorums.lease_evidence_quorum() {
            return None;
        }
        self.epoch += 1;
        self.outstanding = Some(LeaseGrant {
            expires_at_ns: f.now + self.duration_ns,
            revoke_epoch: None,
            acks: BTreeSet::new(),
        });
        Some(Lease {
            view: f.view,
            epoch: self.epoch,
            seq: f.next_seq,
            duration_ns: self.duration_ns,
        })
    }

    /// A grant once no write is pending or in flight — at boot, or the
    /// moment a burst drained, sparing parked reads a wait for the tick.
    pub(crate) fn regrant(&mut self, f: Facts) -> Option<Lease> {
        if f.paused || f.writes_pending || f.writes_in_flight || self.outstanding.is_some() {
            return None;
        }
        self.grant(f)
    }

    /// The tick: the primary renews, or with writes pending re-sends a
    /// revoke that may have been lost (which delays the fence, no more).
    pub(crate) fn tick(&mut self, f: Facts) -> Tick {
        if !f.primary || f.paused {
            return Tick::Idle;
        }
        if f.writes_pending {
            let resend = match &self.outstanding {
                Some(g) if f.now < g.expires_at_ns => g.revoke_epoch,
                _ => None,
            };
            return Tick::Writes(resend.map(|epoch| self.revoke(f.view, epoch)));
        }
        self.grant(f).map_or(Tick::Idle, Tick::Grant)
    }

    /// The fence in front of pending writes: closed during the new-view
    /// wait-out, and while an unexpired grant is not revoked by every
    /// backup. Closing it starts the revoke.
    pub(crate) fn fence(&mut self, f: Facts) -> Fence {
        if !f.writes_pending {
            return Fence::Open;
        }
        if f.now < self.order_gate_ns {
            return Fence::Closed(None);
        }
        let Some(g) = &mut self.outstanding else {
            return Fence::Open;
        };
        if f.now >= g.expires_at_ns {
            self.outstanding = None;
            return Fence::Open;
        }
        if g.revoke_epoch.is_some() {
            return Fence::Closed(None);
        }
        self.epoch += 1;
        g.revoke_epoch = Some(self.epoch);
        Fence::Closed(Some(self.revoke(f.view, self.epoch)))
    }

    /// Backup `from` acked the revoke of `epoch`; true if that lifted the
    /// fence (`lease_revoke_quorum` acks).
    pub(crate) fn on_revoke_ack(&mut self, from: NodeId, epoch: u64, f: Facts) -> bool {
        self.note_evidence(from, f.view, f);
        let revoking = self.outstanding.as_mut();
        let Some(g) = revoking.filter(|g| f.primary && g.revoke_epoch == Some(epoch)) else {
            return false;
        };
        g.acks.insert(from);
        if g.acks.len() < self.quorums.lease_revoke_quorum() {
            return false;
        }
        self.outstanding = None;
        true
    }

    /// A view was installed: lease state is void. A new primary first
    /// waits out every lease the previous one granted (`2 × duration`).
    pub(crate) fn on_view_installed(&mut self, f: Facts) {
        self.drop_held();
        self.outstanding = None;
        self.epoch = 0;
        self.epoch_seen = 0;
        self.evidence_ns.clear();
        if f.primary {
            self.order_gate_ns = f.now + 2 * self.duration_ns;
        }
    }

    fn revoke(&self, view: View, epoch: u64) -> LeaseRevoke {
        LeaseRevoke {
            view,
            epoch,
            replica: self.id,
            ack: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientApi, ClientDriver};
    use crate::cluster::Cluster;
    use crate::messages::{AuthTag, Msg, Packet, PacketKeys, REPLIER_ALL};
    use crate::replica::Behavior;
    use crate::service::CounterService;
    use bft_crypto::keychain::KeyChain;
    use bft_sim::{dur, Counter};

    /// The default lease duration.
    const D: u64 = 100_000_000;

    fn config() -> Config {
        let mut cfg = Config::new(1);
        cfg.read_leases = true;
        assert_eq!(cfg.read_lease_ns, D);
        cfg
    }

    fn leases(id: ReplicaId) -> Leases {
        Leases::armed(id, &config()).expect("armed")
    }

    /// Facts of a replica of view 0 at `now`, idle and caught up.
    fn at(now: u64, primary: bool) -> Facts {
        Facts {
            now,
            view: 0,
            primary,
            paused: false,
            last_executed: 0,
            last_final: 0,
            next_seq: 0,
            writes_pending: false,
            writes_in_flight: false,
        }
    }

    fn writes(now: u64) -> Facts {
        Facts {
            writes_pending: true,
            writes_in_flight: true,
            ..at(now, true)
        }
    }

    fn grant(epoch: u64) -> Lease {
        Lease {
            view: 0,
            epoch,
            seq: 0,
            duration_ns: D,
        }
    }

    fn revoke(epoch: u64) -> LeaseRevoke {
        LeaseRevoke {
            view: 0,
            epoch,
            replica: 0,
            ack: false,
        }
    }

    #[test]
    fn a_grant_delayed_past_its_own_revoke_is_ignored() {
        let mut holder = leases(1);
        assert!(holder.on_revoke(0, &revoke(2)).is_some());
        assert_eq!(holder.on_grant(0, &grant(1), at(5, false)), None);
        assert!(
            !holder.servable(at(6, false)),
            "the stale grant holds nothing"
        );
        assert!(holder.on_grant(0, &grant(3), at(7, false)).is_some());
        assert!(holder.servable(at(8, false)));
        // Only the primary of the view grants.
        assert_eq!(holder.on_grant(2, &grant(9), at(9, false)), None);
    }

    #[test]
    fn an_equal_epoch_revoke_is_re_acked() {
        let mut holder = leases(1);
        assert!(holder.on_grant(0, &grant(2), at(0, false)).is_some());
        let ack = holder.on_revoke(0, &revoke(2)).expect("acked");
        assert_eq!((ack.replica, ack.epoch, ack.ack), (1, 2, true));
        assert!(!holder.servable(at(1, false)));
        assert_eq!(
            holder.on_revoke(0, &revoke(2)),
            Some(ack),
            "a lost ack is re-sent"
        );
        assert_eq!(
            holder.on_revoke(0, &revoke(1)),
            None,
            "an older epoch is not"
        );
    }

    #[test]
    fn the_write_fence_lifts_at_the_revoke_quorum_or_at_expiry_whichever_comes_first() {
        let mut primary = leases(0);
        let quorum = config().quorums.lease_revoke_quorum() as u32;
        // Lifted by acks: every backup but the last keeps it closed.
        let lease = primary
            .regrant(at(0, true))
            .expect("evidence seeded at boot");
        assert_eq!(primary.fence(at(1, true)), Fence::Open, "no write waits");
        let Fence::Closed(Some(rv)) = primary.fence(writes(1)) else {
            panic!("the first write revokes");
        };
        assert_eq!(rv.epoch, lease.epoch + 1);
        assert_eq!(
            primary.fence(writes(2)),
            Fence::Closed(None),
            "revoked once"
        );
        assert!(
            !primary.on_revoke_ack(1, rv.epoch - 1, writes(3)),
            "stale epoch"
        );
        for backup in 1..quorum {
            assert!(!primary.on_revoke_ack(backup, rv.epoch, writes(3)));
        }
        assert_eq!(primary.fence(writes(4)), Fence::Closed(None));
        assert!(primary.on_revoke_ack(quorum, rv.epoch, writes(5)));
        assert_eq!(primary.fence(writes(6)), Fence::Open);
        // Lifted by expiry: a backup that never acks holds it no longer.
        let t = 10 * D;
        for backup in 1..=3 {
            primary.note_evidence(backup, 0, at(t, true));
        }
        assert!(primary.regrant(at(t, true)).is_some());
        assert!(matches!(primary.fence(writes(t)), Fence::Closed(Some(_))));
        assert_eq!(primary.fence(writes(t + D - 1)), Fence::Closed(None));
        assert_eq!(primary.fence(writes(t + D)), Fence::Open);
    }

    #[test]
    fn grants_stop_without_fresh_evidence_from_the_evidence_quorum() {
        let mut primary = leases(0);
        primary.on_view_installed(at(0, true));
        assert_eq!(
            primary.tick(at(1, true)),
            Tick::Idle,
            "evidence is per view"
        );
        let t = 2;
        primary.note_evidence(1, 0, at(t, true));
        primary.note_evidence(2, 1, at(t, true)); // another view: no evidence
        primary.note_evidence(0, 0, at(t, true)); // itself: no evidence
        primary.note_evidence(4, 0, at(t, true)); // a client: no evidence
        assert_eq!(primary.tick(at(t, true)), Tick::Idle);
        primary.note_evidence(2, 0, at(t, true));
        assert!(matches!(primary.tick(at(t, true)), Tick::Grant(_)));
        assert!(matches!(primary.tick(at(t + 2 * D, true)), Tick::Grant(_)));
        assert_eq!(primary.tick(at(t + 2 * D + 1, true)), Tick::Idle);
        assert_eq!(primary.regrant(at(t + 3 * D, true)), None);
    }

    #[test]
    fn only_a_new_primary_arms_the_order_gate() {
        let mut backup = leases(1);
        backup.on_view_installed(at(0, false));
        assert_eq!(backup.fence(writes(1)), Fence::Open);
        let mut primary = leases(0);
        primary.on_view_installed(at(0, true));
        assert_eq!(primary.fence(writes(2 * D - 1)), Fence::Closed(None));
        assert_eq!(primary.fence(writes(2 * D)), Fence::Open);
    }

    #[test]
    fn parked_reads_are_bounded_and_served_only_in_a_window() {
        let mut holder = leases(1);
        let read = |ts| Request {
            client: 4,
            timestamp: ts,
            op: CounterService::get_op(),
            read_only: true,
            replier: REPLIER_ALL,
            auth: AuthTag::None,
        };
        for ts in 1..=LEASE_RO_CAP as u64 {
            assert!(holder.park(read(ts)).is_none());
        }
        let evicted = holder.park(read(LEASE_RO_CAP as u64 + 1));
        assert_eq!(evicted.map(|r| r.timestamp), Some(1), "the oldest goes");
        let bound = Leases::parked_bound(Some(&holder));
        assert_eq!(bound, ("waiting_lease_ro", LEASE_RO_CAP, LEASE_RO_CAP));
        assert!(holder.take_servable(at(0, false)).is_empty(), "no lease");
        holder.on_grant(0, &grant(1), at(0, false));
        let behind = Facts {
            last_executed: 1,
            ..at(1, false)
        };
        assert!(
            holder.take_servable(behind).is_empty(),
            "tentative outstanding"
        );
        assert_eq!(holder.take_servable(at(1, false)).len(), LEASE_RO_CAP);
        assert_eq!(Leases::parked_bound(None).1, 0);
    }

    /// A client that issues nothing: a node id for injected requests.
    struct Idle;

    impl ClientDriver for Idle {
        fn on_start(&mut self, _api: &mut ClientApi<'_, '_>) {}
        fn on_complete(&mut self, _api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {}
    }

    /// A Byzantine primary MAC-authenticates a grant claiming `duration_ns`
    /// to backup 1. The holder's lease must still end within the configured
    /// duration, which the next primary's wait-out assumes: at the parent
    /// commit `u64::MAX` overflowed (a panic in debug builds) and an hour
    /// was held for an hour.
    #[test]
    fn a_grant_is_held_for_at_most_the_configured_duration() {
        for duration_ns in [u64::MAX, 3_600_000_000_000] {
            let mut c = Cluster::builder(config()).seed(3).build_counter();
            c.run_for(dur::millis(1));
            let sent_at = c.sim.now().nanos();
            let body = Msg::Lease(Lease {
                duration_ns,
                ..grant(1_000)
            });
            let auth = PacketKeys::free(KeyChain::new(0, c.cfg.n())).tag_to(1, &body);
            let packet = Packet::new(body, auth);
            let wire = packet.wire_bytes();
            c.sim.inject(1, 0, packet, wire);
            c.run_for(dur::millis(1));
            let now = c.sim.now().nanos();
            let held = c.replica::<CounterService>(1).health_snapshot(now);
            assert!(held.lease_held, "duration {duration_ns}");
            assert!(held.lease_expiry_ns >= sent_at + D, "the injected grant");
            assert!(held.lease_expiry_ns <= now + D, "duration {duration_ns}");
        }
    }

    /// Reads parked at a holder that never gets a lease (the primary is
    /// down), one past the cap: the oldest is evicted with a BUSY, and is
    /// counted once, as a lease-read eviction. At the parent commit it was
    /// also counted as a request shed by admission control, which is off.
    #[test]
    fn an_evicted_parked_read_is_counted_once_and_not_as_shed() {
        let mut c = Cluster::builder(config()).seed(5).build_counter();
        c.replica_mut::<CounterService>(0)
            .set_behavior(Behavior::Crashed);
        let n = c.cfg.n();
        let client = c.add_client(Idle);
        for ts in 1..=LEASE_RO_CAP as u64 + 1 {
            let req = Request {
                client,
                timestamp: ts,
                op: CounterService::get_op(),
                read_only: true,
                replier: REPLIER_ALL,
                auth: AuthTag::None,
            };
            let auth = KeyChain::new(client, n).authenticate(req.digest().as_bytes());
            let req = Request {
                auth: AuthTag::Vector(auth),
                ..req
            };
            let packet = Packet::unauthenticated(Msg::Request(req));
            let wire = packet.wire_bytes();
            c.sim.inject(1, client, packet, wire);
        }
        c.run_for(dur::millis(50));
        let health = c.sim.health();
        assert_eq!(health.total(Counter::LeaseReadsEvicted), 1);
        assert_eq!(health.total(Counter::BusySent), 1);
        assert_eq!(health.total(Counter::RequestsShed), 0);
        let bounds = c.replica::<CounterService>(1).queue_bounds();
        assert_eq!(bounds[1], ("waiting_lease_ro", LEASE_RO_CAP, LEASE_RO_CAP));
    }
}
