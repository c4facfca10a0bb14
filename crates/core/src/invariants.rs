//! Protocol invariant checking for chaos tests.
//!
//! The [`InvariantChecker`] is wired into [`Cluster::run_with_plan`] and
//! evaluates, after every simulation event:
//!
//! - **Agreement** — no two untainted replicas finalize different batch
//!   digests at the same sequence number;
//! - **View monotonicity** — a replica's view never decreases;
//! - **Checkpoint consistency** — no two untainted replicas announce
//!   different state digests for the checkpoint at the same sequence
//!   number;
//! - **Linearizability** of the counter service as observed by clients,
//!   including read-only replies (reads must never return a value older
//!   than any operation that completed before they were invoked).
//!
//! Everything those checks read — a node's audit trail, its queue
//! lengths, its view, its starvation counter — changes only inside that
//! node's own event handler, or when the harness reaches into a node
//! between events (a fault plan being applied, a test holding
//! `&mut Cluster`). So after an event [`InvariantChecker::observe`]
//! visits the one node the event was dispatched to, and every node after
//! anything else: its first call, several events since its last call, or
//! [`InvariantChecker::nodes_touched`]. Either way every record a node
//! writes is drained and checked; what an event did not change is not
//! re-read.
//!
//! Replicas the fault plan makes Byzantine are *tainted*: their local
//! state is arbitrary by definition, so their audit records are drained
//! but not checked (the protocol promises safety to correct replicas and
//! clients, not to the adversary). Crashed replicas are fail-stop — their
//! state stays honest — and remain checked.
//!
//! The counter-specific linearizability argument: `add(k)` returns the
//! register value *after* the increment and `get` returns the current
//! value, so every completed operation yields a point on the register's
//! monotone timeline. If `m` is the largest value returned by any
//! operation that completed before operation `X` was invoked, then the
//! register was at least `m` for the whole of `X`'s lifetime — so `X`
//! must return at least `m` (at least `m + k` for `add(k)`). Conversely
//! `X` cannot return more than the sum of all increments invoked before
//! it completed. Two different `add`s can never return the same value,
//! and at quiescence the sorted `add` results must chain exactly
//! (`v_i = v_{i-1} + k_i`).
//!
//! [`Cluster::run_with_plan`]: crate::cluster::Cluster::run_with_plan

use crate::client::{Client, ClientDriver};
use crate::cluster::Cluster;
use crate::replica::Replica;
use crate::service::Service;
use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, View};
use bft_crypto::md5::Digest;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Heap bytes one node's undrained audit log may hold ([`OpEvent`]s at a
/// client, lease reads at a replica), counted as its buffer's capacity,
/// which exceeds this by at most one record. Those records carry
/// payloads, so counting them would
/// let a run of 4 KiB operations retain every body it ever sent; the
/// budget makes the log a constant. It must still cover a checker that
/// attaches late: the benchmark's `crash-primary` workload runs a
/// 625-operation warm-up per client before its [`InvariantChecker`] first
/// drains, and the linearizability ceilings need every one of those 1 250
/// events. A counter event takes about 26 bytes here (a 21-byte header
/// and a 2-byte operation or an 8-byte result), so 128 KiB holds about
/// 5 000 of them: four times the warm-up.
pub(crate) const AUDIT_BUDGET_BYTES: usize = 128 * 1024;

/// An undrained, append-only trail of audit records that carry payloads,
/// packed into one byte buffer. A record is a fixed header — kind,
/// timestamp, `at_ns`, payload length — and then the payload bytes; the
/// node that owns the log is implied and filled in when it is drained.
/// Recording copies the payload and, once the buffer has grown, allocates
/// nothing.
///
/// The buffer grows by doubling up to [`AUDIT_BUDGET_BYTES`] and no
/// further: a record that would take the log past the budget first drops
/// the older half of it at a record boundary, so the newest record always
/// stays and the buffer holds at most the budget plus one record.
#[derive(Debug, Clone, Default)]
pub(crate) struct AuditLog {
    bytes: Vec<u8>,
}

/// One record of an [`AuditLog`], borrowed from it.
pub(crate) struct AuditRecord<'a> {
    pub(crate) kind: u8,
    pub(crate) timestamp: Timestamp,
    pub(crate) at_ns: u64,
    pub(crate) payload: &'a [u8],
}

impl AuditLog {
    /// Kind (1 byte), timestamp and `at_ns` (8 each), payload length (4).
    const HEADER: usize = 21;

    /// Capacity a drained log keeps: a checker that drains after every
    /// event finds a record or two, so the log does not regrow from
    /// nothing each time, nor keep what an undrained warm-up grew.
    const DRAINED_CAPACITY: usize = 1024;

    /// Appends a record whose payload is the concatenation of `payload`.
    pub(crate) fn push(&mut self, kind: u8, timestamp: Timestamp, at_ns: u64, payload: &[&[u8]]) {
        let len: usize = payload.iter().map(|p| p.len()).sum();
        let record = Self::HEADER + len;
        if self.bytes.len() + record > AUDIT_BUDGET_BYTES {
            self.drop_older_half();
        }
        let need = self.bytes.len() + record;
        if need > self.bytes.capacity() {
            let grown = (2 * self.bytes.capacity()).min(AUDIT_BUDGET_BYTES);
            self.bytes.reserve_exact(grown.max(need) - self.bytes.len());
        }
        let len = u32::try_from(len).expect("an audit payload is under 4 GiB");
        self.bytes.push(kind);
        self.bytes.extend_from_slice(&timestamp.to_le_bytes());
        self.bytes.extend_from_slice(&at_ns.to_le_bytes());
        self.bytes.extend_from_slice(&len.to_le_bytes());
        for part in payload {
            self.bytes.extend_from_slice(part);
        }
    }

    /// Drops the records that start in the older half of the buffer.
    fn drop_older_half(&mut self) {
        let mut cut = 0;
        while cut < self.bytes.len() / 2 {
            cut += Self::HEADER + Self::record_at(&self.bytes[cut..]).payload.len();
        }
        self.bytes.drain(..cut);
    }

    /// The record at the front of `bytes`, which starts at a record
    /// boundary of the log.
    fn record_at(bytes: &[u8]) -> AuditRecord<'_> {
        let (header, rest) = bytes.split_at(Self::HEADER);
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(header[17..].try_into().expect("4 bytes"));
        AuditRecord {
            kind: header[0],
            timestamp: word(1),
            at_ns: word(9),
            payload: &rest[..len as usize],
        }
    }

    /// Decodes every record, oldest first, with `decode` and empties the
    /// log down to [`Self::DRAINED_CAPACITY`].
    pub(crate) fn drain<T>(&mut self, mut decode: impl FnMut(AuditRecord<'_>) -> T) -> Vec<T> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < self.bytes.len() {
            let record = Self::record_at(&self.bytes[at..]);
            at += Self::HEADER + record.payload.len();
            out.push(decode(record));
        }
        self.bytes.clear();
        self.bytes.shrink_to(Self::DRAINED_CAPACITY);
        out
    }

    /// Bytes the log holds on the heap: its buffer's capacity.
    #[cfg(test)]
    pub(crate) fn real_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}

/// Safety-relevant events recorded by a replica for the checker: batches
/// finalized with a commit certificate and checkpoints announced to the
/// cluster. Drained via [`Replica::drain_audit`]; bounded when nobody
/// drains so non-chaos runs pay only a small memory cost.
#[derive(Debug, Clone, Default)]
pub struct ReplicaAudit {
    /// `(seq, batch digest)` for every batch executed as final.
    pub committed: Vec<(SeqNum, Digest)>,
    /// `(seq, batch digest)` for every batch committed via the fast
    /// path (the full fast quorum of prepare votes, no commit phase).
    pub fast_committed: Vec<(SeqNum, Digest)>,
    /// `(seq, state digest)` for every checkpoint announced.
    pub checkpoints: Vec<(SeqNum, Digest)>,
    /// `(seq, state digest, completed at ns)` for every proactive
    /// recovery completed: the attested checkpoint the replica's state
    /// was audited against.
    pub recoveries: Vec<(SeqNum, Digest, u64)>,
    /// `(client, timestamp, served at ns, result)` for every read-only
    /// request answered locally under a read lease (arXiv:2107.11144).
    /// The checker holds each one to the global linearization order: at
    /// its serve instant the value must be at least the largest value any
    /// completed operation returned, and at most the sum of increments
    /// invoked so far. Filled on drain; until then the reads are records
    /// of `lease_log`.
    pub lease_reads: Vec<(ClientId, Timestamp, u64, Vec<u8>)>,
    /// Undrained lease reads: the client's id, then the result, is each
    /// record's payload.
    lease_log: AuditLog,
}

impl ReplicaAudit {
    /// Retention bound, in events, of each fixed-size trail when the
    /// audit is never drained.
    const CAP: usize = 8_192;

    /// [`AuditLog`] record kind of a lease read, the only kind
    /// `lease_log` holds.
    const LEASE_READ: u8 = 0;

    /// Appends to a fixed-size trail; a full trail of [`Self::CAP`]
    /// undrained events first drops its older half, so the `Vec` never
    /// grows past `CAP` slots.
    fn push_capped<T>(trail: &mut Vec<T>, event: T) {
        if trail.len() == Self::CAP {
            trail.drain(..Self::CAP / 2);
        }
        trail.push(event);
    }

    /// Records a finalized batch.
    pub fn note_committed(&mut self, seq: SeqNum, digest: Digest) {
        Self::push_capped(&mut self.committed, (seq, digest));
    }

    /// Records a fast-path commit.
    pub fn note_fast_committed(&mut self, seq: SeqNum, digest: Digest) {
        Self::push_capped(&mut self.fast_committed, (seq, digest));
    }

    /// Records an announced checkpoint.
    pub fn note_checkpoint(&mut self, seq: SeqNum, digest: Digest) {
        Self::push_capped(&mut self.checkpoints, (seq, digest));
    }

    /// Records a completed proactive recovery.
    pub fn note_recovery(&mut self, seq: SeqNum, digest: Digest, at_ns: u64) {
        Self::push_capped(&mut self.recoveries, (seq, digest, at_ns));
    }

    /// Records a read-only request answered locally under a read lease.
    pub fn note_lease_read(
        &mut self,
        client: ClientId,
        timestamp: Timestamp,
        at_ns: u64,
        result: &[u8],
    ) {
        let client = client.to_le_bytes();
        self.lease_log
            .push(Self::LEASE_READ, timestamp, at_ns, &[&client, result]);
    }

    /// Takes every record, leaving the audit empty.
    pub(crate) fn drain(&mut self) -> ReplicaAudit {
        let lease_reads = self.lease_log.drain(|r| {
            let (client, result) = r.payload.split_at(4);
            let client = ClientId::from_le_bytes(client.try_into().expect("4 bytes"));
            (client, r.timestamp, r.at_ns, result.to_vec())
        });
        ReplicaAudit {
            committed: std::mem::take(&mut self.committed),
            fast_committed: std::mem::take(&mut self.fast_committed),
            checkpoints: std::mem::take(&mut self.checkpoints),
            recoveries: std::mem::take(&mut self.recoveries),
            lease_reads,
            lease_log: AuditLog::default(),
        }
    }
}

/// A client-observed operation event, recorded by [`crate::client::Client`]
/// and consumed by the linearizability checker.
#[derive(Debug, Clone)]
pub enum OpEvent {
    /// An operation was submitted.
    Invoke {
        /// The invoking client.
        client: ClientId,
        /// The client's timestamp for the operation.
        timestamp: Timestamp,
        /// The operation bytes (counter-service encoding).
        op: Vec<u8>,
        /// Simulated time of submission.
        at_ns: u64,
    },
    /// An operation completed with an accepted reply quorum.
    Complete {
        /// The invoking client.
        client: ClientId,
        /// The client's timestamp for the operation.
        timestamp: Timestamp,
        /// The accepted result bytes.
        result: Vec<u8>,
        /// Simulated time of completion.
        at_ns: u64,
    },
}

impl OpEvent {
    /// [`AuditLog`] record kind of an invoke, whose payload is the
    /// operation.
    pub(crate) const INVOKE: u8 = 0;
    /// [`AuditLog`] record kind of a completion, whose payload is the
    /// result.
    pub(crate) const COMPLETE: u8 = 1;

    fn at_ns(&self) -> u64 {
        match self {
            OpEvent::Invoke { at_ns, .. } | OpEvent::Complete { at_ns, .. } => *at_ns,
        }
    }

    /// The event `record` of client `client`'s audit log holds.
    pub(crate) fn from_record(client: ClientId, record: AuditRecord<'_>) -> OpEvent {
        let AuditRecord {
            kind,
            timestamp,
            at_ns,
            payload,
        } = record;
        if kind == Self::INVOKE {
            OpEvent::Invoke {
                client,
                timestamp,
                op: payload.to_vec(),
                at_ns,
            }
        } else {
            OpEvent::Complete {
                client,
                timestamp,
                result: payload.to_vec(),
                at_ns,
            }
        }
    }
}

/// A detected protocol invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two replicas finalized different batches at one sequence number.
    Agreement {
        /// The disputed sequence number.
        seq: SeqNum,
        /// First replica and its digest.
        a: (ReplicaId, Digest),
        /// Second replica and its conflicting digest.
        b: (ReplicaId, Digest),
    },
    /// *Fast-commit safety*: two replicas fast-committed different
    /// batches at one sequence number, or a fast commit disagrees with
    /// what the cluster finalized there.
    FastCommitDivergence {
        /// The disputed sequence number.
        seq: SeqNum,
        /// First replica and its digest.
        a: (ReplicaId, Digest),
        /// Second replica and its conflicting digest.
        b: (ReplicaId, Digest),
    },
    /// A replica's view number decreased.
    ViewRegression {
        /// The regressing replica.
        replica: ReplicaId,
        /// The view it was seen in before.
        from: View,
        /// The smaller view it reported afterwards.
        to: View,
    },
    /// Two replicas announced different digests for one checkpoint.
    CheckpointDivergence {
        /// The checkpoint sequence number.
        seq: SeqNum,
        /// First replica and its digest.
        a: (ReplicaId, Digest),
        /// Second replica and its conflicting digest.
        b: (ReplicaId, Digest),
    },
    /// A client observed a non-linearizable counter history.
    Linearizability {
        /// The observing client.
        client: ClientId,
        /// The client timestamp of the offending operation.
        timestamp: Timestamp,
        /// Human-readable explanation.
        detail: String,
    },
    /// The cluster failed to complete the workload after faults healed.
    Liveness {
        /// Human-readable explanation.
        detail: String,
    },
    /// *Recovery completeness*: a replica finished a proactive recovery
    /// with a state root that disagrees with the honest quorum's digest
    /// for the same checkpoint — the audit let corrupt state through.
    RecoveryDivergence {
        /// The recovered replica.
        replica: ReplicaId,
        /// The checkpoint it claims to have been audited against.
        seq: SeqNum,
        /// The digest the recovered replica reports.
        ours: Digest,
        /// The digest the honest quorum announced for that checkpoint.
        quorum: Digest,
    },
    /// *Lease-read linearizability*: a replica answered a read-only
    /// request locally under a read lease with a value inconsistent with
    /// the global linearization order at the serve instant — older than
    /// something a completed operation already observed, or newer than
    /// everything invoked so far.
    StaleLeaseRead {
        /// The serving replica.
        replica: ReplicaId,
        /// The client whose read was served.
        client: ClientId,
        /// The client timestamp of the read.
        timestamp: Timestamp,
        /// Human-readable explanation.
        detail: String,
    },
    /// *Bounded heal*: a silently corrupted replica did not complete a
    /// clean recovery within the configured deadline after corruption.
    UnhealedCorruption {
        /// The still-corrupt replica.
        replica: ReplicaId,
        /// When the corruption was injected (ns).
        corrupted_at_ns: u64,
        /// The deadline it missed (ns).
        deadline_ns: u64,
    },
    /// *Bounded queues*: a replica collection guarded by admission
    /// control grew past its configured cap — overload armor leaked.
    UnboundedGrowth {
        /// The replica whose queue overflowed.
        replica: ReplicaId,
        /// Which collection (see [`Replica::queue_bounds`]).
        ///
        /// [`Replica::queue_bounds`]: crate::replica::Replica::queue_bounds
        queue: &'static str,
        /// Its observed length.
        len: usize,
        /// The cap it was supposed to respect.
        cap: usize,
    },
    /// *Overload fairness*: an honest client's operation ran out of its
    /// bounded retry budget — admission control starved a well-behaved
    /// client instead of shedding the misbehaving load.
    ClientStarvation {
        /// The starved honest client.
        client: ClientId,
        /// Its total budget-exhausted operations so far.
        starved_ops: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { seq, a, b } => write!(
                f,
                "agreement: replica {} finalized {} at seq {seq} but replica {} finalized {}",
                a.0, a.1, b.0, b.1
            ),
            Violation::FastCommitDivergence { seq, a, b } => write!(
                f,
                "fast-commit divergence: replica {} fast-committed {} at seq {seq} but replica {} \
                 holds {}",
                a.0, a.1, b.0, b.1
            ),
            Violation::ViewRegression { replica, from, to } => {
                write!(f, "view regression: replica {replica} went from view {from} back to {to}")
            }
            Violation::CheckpointDivergence { seq, a, b } => write!(
                f,
                "checkpoint divergence at seq {seq}: replica {} announced {} but replica {} announced {}",
                a.0, a.1, b.0, b.1
            ),
            Violation::Linearizability {
                client,
                timestamp,
                detail,
            } => write!(
                f,
                "linearizability: client {client} op ts {timestamp}: {detail}"
            ),
            Violation::Liveness { detail } => write!(f, "liveness: {detail}"),
            Violation::RecoveryDivergence {
                replica,
                seq,
                ours,
                quorum,
            } => write!(
                f,
                "recovery divergence: replica {replica} rejoined at seq {seq} with state {ours} \
                 but the quorum's checkpoint digest is {quorum}"
            ),
            Violation::StaleLeaseRead {
                replica,
                client,
                timestamp,
                detail,
            } => write!(
                f,
                "stale lease read: replica {replica} served client {client} ts {timestamp}: {detail}"
            ),
            Violation::UnhealedCorruption {
                replica,
                corrupted_at_ns,
                deadline_ns,
            } => write!(
                f,
                "unhealed corruption: replica {replica} corrupted at {corrupted_at_ns}ns had not \
                 completed a clean recovery by {deadline_ns}ns"
            ),
            Violation::UnboundedGrowth {
                replica,
                queue,
                len,
                cap,
            } => write!(
                f,
                "unbounded growth: replica {replica} queue {queue} holds {len} entries, cap {cap}"
            ),
            Violation::ClientStarvation {
                client,
                starved_ops,
            } => write!(
                f,
                "client starvation: honest client {client} exhausted its retry budget \
                 ({starved_ops} starved ops)"
            ),
        }
    }
}

/// What a pending (invoked, not yet completed) operation looks like to
/// the linearizability checker.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Add(u64),
    Get,
}

fn parse_op(op: &[u8]) -> Option<OpKind> {
    match op.first() {
        Some(&0) => Some(OpKind::Add(u64::from(op.get(1).copied().unwrap_or(0)))),
        Some(&1) => Some(OpKind::Get),
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct PendingLin {
    kind: OpKind,
    invoked_ns: u64,
}

/// One step of the completed-value staircase: some operation completed
/// at `completed_ns` with `value`, and none that completed at or before
/// then returned more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    completed_ns: u64,
    value: u64,
}

/// Incremental linearizability checker for the counter service.
#[derive(Debug, Default)]
struct CounterLinearizability {
    pending: BTreeMap<(ClientId, Timestamp), PendingLin>,
    /// The running maximum of completed values over completion time, for
    /// the real-time lower bound: sorted by `completed_ns`, strictly
    /// increasing in `value`. A completion that does not raise the
    /// maximum at its instant adds no step, so this holds at most one
    /// entry per distinct register total, however many operations ran.
    done: Vec<Step>,
    /// `(invoke time, cumulative add amount invoked so far)`, in invoke
    /// order; upper bound on any observable register value.
    invoked_adds: Vec<(u64, u64)>,
    /// Result value of each completed add -> its amount. Adds strictly
    /// increase the register, so values must be unique and must chain.
    add_values: BTreeMap<u64, (ClientId, Timestamp, u64)>,
}

impl CounterLinearizability {
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

    /// Sum of add amounts invoked at or before `t`.
    fn invoked_sum_at(&self, t: u64) -> u64 {
        match self.invoked_adds.partition_point(|&(at, _)| at <= t) {
            0 => 0,
            i => self.invoked_adds[i - 1].1,
        }
    }

    /// The largest value returned by any operation that completed at or
    /// before `t` (0 if none did).
    fn floor_at(&self, t: u64) -> u64 {
        match self.done.partition_point(|s| s.completed_ns <= t) {
            0 => 0,
            i => self.done[i - 1].value,
        }
    }

    /// Records a completion on the staircase. Completions may arrive out
    /// of time order (a late drain): the new step then also stands in for
    /// every later step it reaches, which it replaces.
    fn note_done(&mut self, completed_ns: u64, value: u64) {
        let at = self
            .done
            .partition_point(|s| s.completed_ns <= completed_ns);
        let floor = if at == 0 { 0 } else { self.done[at - 1].value };
        if value <= floor {
            return;
        }
        let reached = self.done[at..].partition_point(|s| s.value <= value);
        self.done.splice(
            at..at + reached,
            [Step {
                completed_ns,
                value,
            }],
        );
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
        self.note_done(at_ns, value);
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

/// The protocol invariant checker. Create one per run and pass it to
/// [`Cluster::run_with_plan`]; call [`InvariantChecker::finish`] once the
/// run reaches quiescence.
///
/// [`Cluster::run_with_plan`]: crate::cluster::Cluster::run_with_plan
#[derive(Debug, Default)]
pub struct InvariantChecker {
    committed: BTreeMap<SeqNum, (ReplicaId, Digest)>,
    fast_committed: BTreeMap<SeqNum, (ReplicaId, Digest)>,
    checkpoints: BTreeMap<SeqNum, (ReplicaId, Digest)>,
    /// Last observed view of each replica, indexed by replica id.
    views: Vec<View>,
    tainted: BTreeSet<ReplicaId>,
    /// Replicas with silently corrupted service state, keyed by injection
    /// time. Unlike `tainted` this exemption is *revocable*: it only
    /// suspends the checkpoint-consistency check (the replica's state
    /// digests legitimately diverge until it heals) and is lifted the
    /// moment a completed recovery's attested root matches the honest
    /// quorum — after which the replica is held to every invariant again.
    corrupted: BTreeMap<ReplicaId, u64>,
    /// *Bounded heal* deadline: a corrupted replica must complete a clean
    /// recovery within this many ns of the corruption. 0 disables.
    heal_deadline_ns: u64,
    /// Clients currently misbehaving under a chaos plan: their operations
    /// may legitimately never complete, so the starvation audit absorbs
    /// (rather than reports) their budget exhaustions.
    tainted_clients: BTreeSet<ClientId>,
    /// Last observed starvation counter of each client, indexed by node
    /// id, for delta detection.
    starved_seen: Vec<u64>,
    lin: CounterLinearizability,
    /// `events_processed()` at the previous [`InvariantChecker::observe`],
    /// while no node can have changed since except by running an event;
    /// `None` makes the next `observe` visit every node.
    synced_at: Option<u64>,
}

/// A lease-served read held back until the round's client events are fed.
type LeaseRead = (ReplicaId, ClientId, Timestamp, u64, Vec<u8>);

impl InvariantChecker {
    /// Creates a fresh checker.
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Marks a replica as Byzantine: its audit records are drained but no
    /// longer checked. Called automatically when a fault plan applies a
    /// Byzantine mutation. Taint subsumes any pending corruption-heal
    /// obligation: a Byzantine replica's state is arbitrary by
    /// definition, so there is nothing meaningful left to heal (plan
    /// minimization can produce corrupt-then-Byzantine orderings the
    /// generator's budget never would).
    pub fn mark_tainted(&mut self, replica: ReplicaId) {
        self.tainted.insert(replica);
        self.corrupted.remove(&replica);
    }

    /// Marks a replica as silently corrupted at `at_ns`. Called
    /// automatically when a fault plan injects state corruption. The
    /// earliest injection time is kept so the heal deadline cannot be
    /// pushed out by corrupting the same replica twice. Corrupting an
    /// already-tainted replica is a no-op for the same reason taint
    /// clears the corruption mark above.
    pub fn mark_corrupted(&mut self, replica: ReplicaId, at_ns: u64) {
        if self.tainted.contains(&replica) {
            return;
        }
        self.corrupted.entry(replica).or_insert(at_ns);
    }

    /// Marks a client as misbehaving (chaos client faults): its retry
    /// budget exhaustions are absorbed instead of reported, since a
    /// flooding client abandons its own operations by design.
    pub fn mark_client_tainted(&mut self, client: ClientId) {
        self.tainted_clients.insert(client);
    }

    /// Lifts a client's taint after a chaos `Restore`: from the next
    /// observation on, the client is held to the starvation invariant
    /// again (exhaustions while misbehaving were already absorbed).
    pub fn restore_client(&mut self, client: ClientId) {
        self.tainted_clients.remove(&client);
    }

    /// Sets the *bounded heal* deadline (0 disables). With a deadline,
    /// [`InvariantChecker::observe`] reports a violation for any replica
    /// still corrupt `deadline` ns after its corruption was injected.
    pub fn set_heal_deadline(&mut self, deadline_ns: u64) {
        self.heal_deadline_ns = deadline_ns;
    }

    /// Replicas currently marked corrupt (and not yet cleanly recovered).
    pub fn corrupted_replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.corrupted.keys().copied()
    }

    /// Tells the checker that nodes may have changed outside an event
    /// handler: a fault was applied, or the caller held `&mut Cluster`
    /// between two runs. The next [`InvariantChecker::observe`] visits
    /// every node.
    pub fn nodes_touched(&mut self) {
        self.synced_at = None;
    }

    /// Checks all invariants after an event. When exactly one event ran
    /// since the previous call and nobody reported
    /// [`InvariantChecker::nodes_touched`], only the node that event was
    /// dispatched to can have new audit records, queue lengths, a new
    /// view or a new starvation count, and only it is visited; otherwise
    /// every node is. `S` and `D` are the cluster's service and
    /// client-driver types.
    pub fn observe<S: Service, D: ClientDriver>(
        &mut self,
        cluster: &mut Cluster,
    ) -> Result<(), Violation> {
        let n = cluster.cfg.n();
        let processed = cluster.sim.events_processed();
        let ran = match self.synced_at.replace(processed) {
            Some(at) if at + 1 == processed => cluster.sim.last_dispatched(),
            _ => None,
        };
        let (replicas, clients) = match ran {
            None => (0..n, 0..cluster.clients.len()),
            Some(id) if id < n => (id..id + 1, 0..0),
            Some(id) => {
                let at = cluster.clients.iter().position(|&c| c == id);
                (0..0, at.map_or(0..0, |k| k..k + 1))
            }
        };
        // Nodes are only ever added, so these grow or stay.
        self.views.resize(n as usize, 0);
        self.starved_seen.resize(cluster.sim.node_count(), 0);
        // Lease-served reads are checked only after this round's client
        // events are fed to the linearizability model below: a completion
        // that precedes the serve instant may sit in the same drain batch.
        let mut lease_reads = Vec::new();
        for i in replicas {
            self.visit_replica(i, cluster.replica_mut::<S>(i), &mut lease_reads)?;
        }
        // *Bounded heal*: every corrupted replica must have completed a
        // clean recovery within the deadline of its injection.
        if self.heal_deadline_ns > 0 {
            let now = cluster.sim.now().nanos();
            for (&replica, &at_ns) in &self.corrupted {
                let deadline = at_ns.saturating_add(self.heal_deadline_ns);
                if now > deadline && !self.tainted.contains(&replica) {
                    return Err(Violation::UnhealedCorruption {
                        replica,
                        corrupted_at_ns: at_ns,
                        deadline_ns: deadline,
                    });
                }
            }
        }
        let mut events = Vec::new();
        for k in clients {
            let id = cluster.clients[k];
            self.visit_client(id, cluster.client_mut::<D>(id), &mut events)?;
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

    /// Drains replica `i`'s audit and checks its queue bounds, its view
    /// and every drained record; its lease reads are queued on
    /// `lease_reads`.
    fn visit_replica<S: Service>(
        &mut self,
        i: ReplicaId,
        replica: &mut Replica<S>,
        lease_reads: &mut Vec<LeaseRead>,
    ) -> Result<(), Violation> {
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
        if self.tainted.contains(&i) {
            return Ok(());
        }
        // Captured before the checkpoint loop below, which may heal
        // (and unmark) the replica within this same drain batch.
        let corrupt_since_ns = self.corrupted.get(&i).copied();
        let prev = &mut self.views[i as usize];
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
        if !self.corrupted.contains_key(&i) {
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
            self.corrupted.remove(&i);
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
        Ok(())
    }

    /// Drains client `id`'s operation events onto `events` and checks its
    /// starvation counter.
    fn visit_client<D: ClientDriver>(
        &mut self,
        id: ClientId,
        client: &mut Client<D>,
        events: &mut Vec<OpEvent>,
    ) -> Result<(), Violation> {
        events.append(&mut client.drain_audit());
        // *Overload fairness*: an honest client must never exhaust
        // its retry budget. Misbehaving clients have their deltas
        // absorbed so only post-restore exhaustions can fire.
        let starved = client.starvation_events();
        let seen = &mut self.starved_seen[id as usize];
        if starved > *seen {
            *seen = starved;
            if !self.tainted_clients.contains(&id) {
                return Err(Violation::ClientStarvation {
                    client: id,
                    starved_ops: starved,
                });
            }
        }
        Ok(())
    }

    /// Final quiescence checks (exact add-chain reconstruction).
    pub fn finish(&self) -> Result<(), Violation> {
        self.lin.finish()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn add(k: u64) -> Vec<u8> {
        vec![0, k as u8]
    }
    fn get() -> Vec<u8> {
        vec![1]
    }
    fn val(v: u64) -> Vec<u8> {
        v.to_le_bytes().to_vec()
    }

    #[test]
    fn sequential_history_passes() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.complete(4, 1, &val(5), 10).unwrap();
        lin.invoke(4, 2, &get(), 20).unwrap();
        lin.complete(4, 2, &val(5), 30).unwrap();
        lin.invoke(5, 1, &add(3), 40).unwrap();
        lin.complete(5, 1, &val(8), 50).unwrap();
        lin.finish().unwrap();
    }

    #[test]
    fn stale_read_is_caught() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.complete(4, 1, &val(5), 10).unwrap();
        // Read invoked after the add completed must not return 0.
        lin.invoke(5, 1, &get(), 20).unwrap();
        let err = lin.complete(5, 1, &val(0), 30).unwrap_err();
        assert!(matches!(err, Violation::Linearizability { .. }));
        assert!(err.to_string().contains("stale read"));
    }

    #[test]
    fn forged_value_exceeding_invoked_sum_is_caught() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        assert!(lin.complete(4, 1, &val(500), 10).is_err());
    }

    #[test]
    fn duplicate_add_result_is_caught() {
        let mut lin = CounterLinearizability::default();
        // Concurrent adds (neither completes before the other is invoked)
        // must still return distinct totals.
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.invoke(5, 1, &add(5), 1).unwrap();
        lin.complete(4, 1, &val(5), 10).unwrap();
        let err = lin.complete(5, 1, &val(5), 20).unwrap_err();
        assert!(err.to_string().contains("already returned"));
    }

    #[test]
    fn concurrent_reads_may_disagree_within_bounds() {
        let mut lin = CounterLinearizability::default();
        // Add in flight; two concurrent reads see old and new values.
        lin.invoke(4, 1, &add(7), 0).unwrap();
        lin.invoke(5, 1, &get(), 1).unwrap();
        lin.invoke(6, 1, &get(), 2).unwrap();
        lin.complete(5, 1, &val(7), 20).unwrap();
        lin.complete(6, 1, &val(0), 21).unwrap();
        lin.complete(4, 1, &val(7), 30).unwrap();
        lin.finish().unwrap();
    }

    #[test]
    fn broken_add_chain_is_caught_at_finish() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.invoke(5, 1, &add(3), 1).unwrap();
        // Both adds claim disjoint, non-chaining totals: 5 then 3+5=8 is
        // correct; 5 then 7 is not reachable by add(3).
        lin.complete(4, 1, &val(5), 10).unwrap();
        assert!(lin.complete(5, 1, &val(7), 20).is_err());
    }

    #[test]
    fn lease_read_within_bounds_passes() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.complete(4, 1, &val(5), 10).unwrap();
        // A concurrent add is in flight; serving either 5 or 8 is fine.
        lin.invoke(5, 1, &add(3), 15).unwrap();
        lin.check_lease_read(2, 6, 1, 20, &val(5)).unwrap();
        lin.check_lease_read(2, 6, 1, 20, &val(8)).unwrap();
    }

    #[test]
    fn stale_lease_read_is_caught() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.complete(4, 1, &val(5), 10).unwrap();
        // Served after the add completed, yet missing it: stale.
        let err = lin.check_lease_read(2, 6, 1, 20, &val(0)).unwrap_err();
        assert!(matches!(err, Violation::StaleLeaseRead { replica: 2, .. }));
        assert!(err.to_string().contains("completed with 5"));
    }

    #[test]
    fn forged_lease_read_is_caught() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        // Serving a value above everything invoked: fabricated state.
        let err = lin.check_lease_read(2, 6, 1, 20, &val(9)).unwrap_err();
        assert!(err.to_string().contains("ever added"));
    }

    #[test]
    fn lease_read_before_completion_may_lag() {
        let mut lin = CounterLinearizability::default();
        lin.invoke(4, 1, &add(5), 0).unwrap();
        // The add has not completed anywhere; a read served at 5ns may
        // legitimately predate its execution.
        lin.check_lease_read(2, 6, 1, 5, &val(0)).unwrap();
        lin.complete(4, 1, &val(5), 10).unwrap();
        // But a serve instant after the completion must reflect it.
        assert!(lin.check_lease_read(2, 6, 1, 11, &val(0)).is_err());
    }

    /// Records of 0, 2, 8 and 4 096 payload bytes cross several trims:
    /// the buffer never holds more than the budget plus one record, and
    /// a drain returns the newest records in order, the client's id
    /// restored, and leaves at most the drained capacity behind.
    #[test]
    fn audit_log_trims_at_record_boundaries() {
        let sizes = [0, 2, 8, 4096];
        let payload = |ts: u64| vec![ts as u8; sizes[ts as usize % 4]];
        let mut log = AuditLog::default();
        let mut trims = 0;
        let mut grown = 0;
        for ts in 0..400u64 {
            let kind = [OpEvent::INVOKE, OpEvent::COMPLETE][ts as usize % 2];
            log.push(kind, ts, 10 * ts, &[&payload(ts)]);
            trims += usize::from(log.bytes.len() < grown);
            grown = log.bytes.len();
            let one_record = AuditLog::HEADER + 4096;
            assert!(log.real_bytes() <= AUDIT_BUDGET_BYTES + one_record);
        }
        assert!(trims >= 3, "{trims} trims");
        let events = log.drain(|record| OpEvent::from_record(7, record));
        assert!(events.len() > 4 && events.len() < 400);
        let first = 400 - events.len() as u64;
        for (ev, ts) in events.iter().zip(first..) {
            let (kind, bytes) = match ev {
                OpEvent::Invoke {
                    client,
                    timestamp,
                    op,
                    at_ns,
                } => {
                    assert_eq!((*client, *timestamp, *at_ns), (7, ts, 10 * ts));
                    (OpEvent::INVOKE, op)
                }
                OpEvent::Complete {
                    client,
                    timestamp,
                    result,
                    at_ns,
                } => {
                    assert_eq!((*client, *timestamp, *at_ns), (7, ts, 10 * ts));
                    (OpEvent::COMPLETE, result)
                }
            };
            assert_eq!(kind, [OpEvent::INVOKE, OpEvent::COMPLETE][ts as usize % 2]);
            assert_eq!(*bytes, payload(ts), "record {ts}");
        }
        assert!(log.drain(|r| r.timestamp).is_empty());
        assert!(log.real_bytes() <= AuditLog::DRAINED_CAPACITY);
    }

    /// A never-drained fixed-size trail keeps the same events as a rule
    /// that pushes first and drops the older half past `CAP` (the newest
    /// `CAP / 2 + 1` at each drop), in at most `CAP` slots.
    #[test]
    fn capped_trails_keep_their_events_in_at_most_cap_slots() {
        const CAP: usize = ReplicaAudit::CAP;
        let mut trail = Vec::new();
        let mut push_then_drop = Vec::new();
        for event in 0..3 * CAP as u64 {
            ReplicaAudit::push_capped(&mut trail, event);
            push_then_drop.push(event);
            if push_then_drop.len() > CAP {
                push_then_drop.drain(..CAP / 2);
            }
            assert!(trail.capacity() <= CAP, "{} slots", trail.capacity());
        }
        assert_eq!(trail, push_then_drop);
    }

    /// A replica's lease reads come back with the client each was served
    /// to, and an empty result survives the round trip.
    #[test]
    fn lease_reads_drain_with_their_clients() {
        let mut audit = ReplicaAudit::default();
        audit.note_lease_read(4, 1, 10, &val(3));
        audit.note_lease_read(9, 2, 20, &[]);
        let drained = audit.drain();
        assert_eq!(
            drained.lease_reads,
            [(4, 1, 10, val(3)), (9, 2, 20, Vec::new())]
        );
        assert!(audit.drain().lease_reads.is_empty());
    }

    #[test]
    fn out_of_order_completions_chain() {
        let mut lin = CounterLinearizability::default();
        // Two concurrent adds complete in the opposite order of their
        // linearization points.
        lin.invoke(4, 1, &add(5), 0).unwrap();
        lin.invoke(5, 1, &add(3), 1).unwrap();
        lin.complete(5, 1, &val(8), 20).unwrap();
        lin.complete(4, 1, &val(5), 21).unwrap();
        lin.finish().unwrap();
    }

    // ------------------------------------------------------------------
    // Which nodes `observe` visits
    // ------------------------------------------------------------------

    use super::reference::forge_commit;
    use crate::fuzz::{ChaosDriver, Workload, CLASSIC, OVERLOAD};
    use crate::service::CounterService;
    use bft_sim::chaos::{ClientFault, Fault, FaultEvent, FaultPlan, NetFault, NodeFault};
    use bft_sim::dur;

    type Svc = CounterService;

    /// Four replicas and clients 4 and 5, each with `ops` mixed operations.
    fn cluster(cfg: crate::config::Config, ops: u64) -> Cluster {
        let mut cluster = Cluster::builder(cfg).seed(23).build_counter();
        for salt in [1, 2] {
            cluster.add_client(ChaosDriver::new(salt, ops, Workload::Mixed));
        }
        cluster
    }

    /// A cluster partway through its workload, every event so far observed.
    fn observed(cfg: crate::config::Config) -> (Cluster, InvariantChecker) {
        let mut cluster = cluster(cfg, 24);
        let mut checker = InvariantChecker::new();
        cluster
            .run_with_plan::<Svc, ChaosDriver>(&FaultPlan::empty(), dur::millis(5), &mut checker)
            .unwrap();
        assert!(cluster.replica::<Svc>(2).last_committed_executed() > 0);
        (cluster, checker)
    }

    /// One event under the checker, as `run_with_plan` takes it.
    fn step(cluster: &mut Cluster, checker: &mut InvariantChecker) -> Result<(), Violation> {
        assert!(cluster.sim.step());
        checker.observe::<Svc, ChaosDriver>(cluster)
    }

    /// The `crash-primary` warm-up shape: 625 operations per client run
    /// before the checker exists. Its first `observe` follows a single
    /// event and still takes in every node's backlog.
    #[test]
    fn checker_attached_late_sees_every_backlog() {
        let mut cluster = cluster(CLASSIC.config(1), 625);
        while cluster.completed_ops() < 1_250 && cluster.sim.step() {}
        assert_eq!(cluster.completed_ops(), 1_250);
        let mut checker = InvariantChecker::new();
        step(&mut cluster, &mut checker).unwrap();
        for i in 0..4 {
            let audit = cluster.replica_mut::<Svc>(i).drain_audit();
            assert!(audit.committed.is_empty() && audit.checkpoints.is_empty());
        }
        for id in [4, 5] {
            assert!(cluster
                .client_mut::<ChaosDriver>(id)
                .drain_audit()
                .is_empty());
        }
        let finalized = (0..4).map(|i| cluster.replica::<Svc>(i).last_committed_executed());
        assert_eq!(checker.committed.len() as u64, finalized.max().unwrap());
        assert!(checker.lin.pending.is_empty());
        let total = cluster.replica::<Svc>(0).service().value();
        assert_eq!(checker.lin.floor_at(u64::MAX), total);
        // The add chain reaches back to zero only if no add was missed.
        checker.finish().unwrap();
    }

    /// The audit budget at eight times that scale: eight clients each
    /// finish 625 operations — 1 250 undrained events apiece — before the
    /// checker exists. A twin run drained by hand counts every client's
    /// events; the checker's first pass takes in all of them and passes.
    #[test]
    fn checker_attached_late_sees_eight_clients_backlogs() {
        let warmed_up = || {
            let mut cluster = Cluster::builder(CLASSIC.config(1)).seed(23).build_counter();
            for salt in 1..=8 {
                cluster.add_client(ChaosDriver::new(salt, 625, Workload::Mixed));
            }
            while cluster.completed_ops() < 5_000 && cluster.sim.step() {}
            assert_eq!(cluster.completed_ops(), 5_000);
            cluster
        };
        let mut twin = warmed_up();
        for id in twin.clients.clone() {
            let events = twin.client_mut::<ChaosDriver>(id).drain_audit();
            assert_eq!(events.len(), 1_250, "client {id}");
            assert!(matches!(events[0], OpEvent::Invoke { timestamp: 1, .. }));
        }
        let mut cluster = warmed_up();
        let mut checker = InvariantChecker::new();
        step(&mut cluster, &mut checker).unwrap();
        assert!(checker.lin.pending.is_empty());
        let total = cluster.replica::<Svc>(0).service().value();
        assert_eq!(checker.lin.floor_at(u64::MAX), total);
        checker.finish().unwrap();
    }

    /// After one event only the node it ran on is visited: a record
    /// slipped into another node's audit is found when that node next
    /// runs. (Nothing in the harness does this without saying so; the
    /// next three tests are the ways it says so.)
    #[test]
    fn one_event_visits_the_node_it_ran_on() {
        let (mut cluster, mut checker) = observed(CLASSIC.config(1));
        forge_commit(&mut cluster);
        let mut elsewhere = 0;
        let caught = loop {
            let verdict = step(&mut cluster, &mut checker);
            if cluster.sim.last_dispatched() == Some(2) {
                break verdict;
            }
            assert_eq!(verdict, Ok(()));
            elsewhere += 1;
        };
        assert!(elsewhere > 0);
        assert!(matches!(
            caught,
            Err(Violation::Agreement { b: (2, _), .. })
        ));
    }

    #[test]
    fn run_with_plan_visits_every_node_on_entry() {
        let (mut cluster, mut checker) = observed(CLASSIC.config(1));
        forge_commit(&mut cluster);
        let before = cluster.sim.events_processed();
        let caught = cluster.run_with_plan::<Svc, ChaosDriver>(
            &FaultPlan::empty(),
            dur::millis(20),
            &mut checker,
        );
        assert!(
            matches!(caught, Err(Violation::Agreement { b: (2, _), .. })),
            "{caught:?}"
        );
        assert_eq!(cluster.sim.events_processed(), before + 1);
    }

    /// A restart that lost the replica's view is reported after the next
    /// event, wherever that event ran.
    #[test]
    fn node_fault_between_events_forces_a_full_pass() {
        let (mut cluster, mut checker) = observed(CLASSIC.config(1));
        let fault = |cluster: &mut Cluster, checker: &mut InvariantChecker, fault| {
            cluster.apply_fault::<Svc, ChaosDriver>(&fault, checker);
        };
        let node = |fault| Fault::Node { node: 3, fault };
        fault(&mut cluster, &mut checker, node(NodeFault::Crash));
        cluster.replica_mut::<Svc>(3).set_view(2);
        fault(&mut cluster, &mut checker, Fault::Net(NetFault::Loss(0)));
        // Two events under the new view: the third, the one after the
        // restart, then runs on another node.
        step(&mut cluster, &mut checker).unwrap();
        step(&mut cluster, &mut checker).unwrap();
        assert_eq!(checker.views[3], 2);
        cluster.replica_mut::<Svc>(3).set_view(0);
        fault(&mut cluster, &mut checker, node(NodeFault::Restart));
        let caught = step(&mut cluster, &mut checker);
        assert_ne!(cluster.sim.last_dispatched(), Some(3));
        let regression = Violation::ViewRegression {
            replica: 3,
            from: 2,
            to: 0,
        };
        assert_eq!(caught, Err(regression));
    }

    /// `run_with_plan` applies a fault before the first live event after
    /// its instant, though cancelled timers' keys and events deferred
    /// behind a busy node lie between the events around it: the clock
    /// the fault sees has not passed its instant.
    #[test]
    fn a_plan_fault_lands_before_the_first_event_after_its_instant() {
        for at_ns in (dur::millis(5)..dur::millis(6)).step_by(dur::micros(50) as usize) {
            let mut cluster = cluster(CLASSIC.config(1), 24);
            let mut checker = InvariantChecker::new();
            let corrupt = Fault::Node {
                node: 2,
                fault: NodeFault::SilentCorruption { salt: 63 },
            };
            let plan = FaultPlan {
                events: vec![FaultEvent {
                    at_ns,
                    fault: corrupt,
                }],
            };
            cluster
                .run_with_plan::<Svc, ChaosDriver>(&plan, at_ns + dur::millis(1), &mut checker)
                .unwrap();
            let applied_at = checker.corrupted[&2];
            assert!(
                applied_at <= at_ns,
                "due at {at_ns} ns, applied at {applied_at} ns"
            );
        }
    }

    /// A queue over its cap is reported after the next event although
    /// that event — the kick the client fault injects — runs on the client.
    #[test]
    fn client_fault_between_events_forces_a_full_pass() {
        let (mut cluster, mut checker) = observed(OVERLOAD.config(1));
        cluster.replica_mut::<Svc>(2).pad_backlog(1_000_000);
        let restore = Fault::Client {
            client: 5,
            fault: ClientFault::Restore,
        };
        cluster.apply_fault::<Svc, ChaosDriver>(&restore, &mut checker);
        let caught = step(&mut cluster, &mut checker);
        assert_ne!(cluster.sim.last_dispatched(), Some(2));
        assert!(matches!(
            caught,
            Err(Violation::UnboundedGrowth {
                replica: 2,
                queue: "ingest_backlog",
                ..
            })
        ));
    }
}
