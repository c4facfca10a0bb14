//! Protocol messages and their wire formats.
//!
//! One network datagram is a [`Packet`]: a message body plus an
//! authentication tag (a single MAC for point-to-point messages, a MAC
//! *vector* for multicasts — Figure 1 of the paper writes these as
//! `<m>_{μ(i,j)}` and `<m>_{α(i)}`). A packet MAC is UMAC over the encoded
//! body itself, as in BFT, which keeps MD5 for the digests the protocol
//! names: requests, batches, results and state. [`PacketKeys`] encodes,
//! MACs and verifies every packet.
//!
//! The vocabulary is declared once. Each plain message is a
//! `wire_struct!` field list in wire order (struct, codec and
//! `wire_len` come from it), and [`Msg`] is one `wire_enum!` table of
//! `Variant(Payload) = tag` rows. Adding a message is: one field list,
//! one `Msg` row, one `tag_name` arm plus `TAG_COUNT` in
//! `bft_sim::health` (a `const` assertion below ties the counts), a
//! sample in this file's tests, and dispatch arms in `replica.rs` and
//! `client.rs` (the `handler-coverage` lint insists on those).

use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, View};
use crate::wire::{wire_enum, wire_struct, Reader, Wire, WireError};
use bft_crypto::keychain::{Authenticator, KeyChain, PrincipalId};
use bft_crypto::md5::{digest_parts, Digest, Md5};
use bft_crypto::umac::Mac;
use bft_sim::{tag_name, TAG_COUNT};

/// The digest used for null requests proposed to fill gaps in a new view.
pub const NULL_DIGEST: Digest = Digest::ZERO;

/// Designated-replier value meaning "every replica sends the full result".
pub const REPLIER_ALL: ReplicaId = u32::MAX;

/// Authentication attached to a packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum AuthTag {
    /// No packet-level authentication (the body authenticates itself, as
    /// with requests that embed their own authenticator).
    #[default]
    None,
    /// A single MAC, for point-to-point messages.
    Mac(Mac),
    /// A MAC vector with an entry per replica, for multicasts.
    Vector(Authenticator),
}

impl AuthTag {
    /// Bytes this tag occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            AuthTag::None => 1,
            AuthTag::Mac(_) => 1 + Mac::WIRE_BYTES,
            AuthTag::Vector(a) => 1 + 8 + a.wire_bytes(),
        }
    }
}

impl Wire for AuthTag {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AuthTag::None => buf.push(0),
            AuthTag::Mac(m) => {
                buf.push(1);
                m.encode(buf);
            }
            AuthTag::Vector(a) => {
                buf.push(2);
                (a.entries.len() as u64).encode(buf);
                for (r, m) in a.entries.iter() {
                    r.encode(buf);
                    m.encode(buf);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(AuthTag::None),
            1 => Ok(AuthTag::Mac(Mac::decode(r)?)),
            2 => {
                let len = u64::decode(r)?;
                if len > 4096 {
                    return Err(WireError::BadLength(len));
                }
                let mut entries = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    entries.push((u32::decode(r)?, Mac::decode(r)?));
                }
                Ok(AuthTag::Vector(Authenticator {
                    entries: entries.into(),
                }))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            AuthTag::None => 1,
            AuthTag::Mac(_) => 1 + Mac::WIRE_BYTES,
            AuthTag::Vector(a) => 1 + 8 + a.entries.len() * (4 + Mac::WIRE_BYTES),
        }
    }
}

wire_struct! {
    /// A client request (REQUEST in the paper).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Request {
        /// Issuing client.
        pub client: ClientId,
        /// Client-local timestamp; replies echo it and replicas use it to
        /// deduplicate retransmissions.
        pub timestamp: Timestamp,
        /// The opaque operation, interpreted by the replicated service.
        pub op: Vec<u8>,
        /// Whether the client is invoking the read-only optimization.
        pub read_only: bool,
        /// Designated replier for the digest-replies optimization, or
        /// [`REPLIER_ALL`].
        pub replier: ReplicaId,
        /// The client's own authenticator over the request digest, carried so
        /// backups can validate requests arriving inside pre-prepares or via
        /// separate transmission.
        pub auth: AuthTag,
    }
}

impl Request {
    /// The request's identity digest, covering everything except the
    /// replier hint and the authenticator (so retransmissions can change
    /// the replier without becoming a different request).
    pub fn digest(&self) -> Digest {
        digest_parts(&[
            b"REQ",
            &self.client.to_le_bytes(),
            &self.timestamp.to_le_bytes(),
            &[u8::from(self.read_only)],
            &self.op,
        ])
    }
}

/// One request in a pre-prepare batch: inlined, or referenced by digest
/// when separate request transmission applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchEntry {
    /// The full request travels in the pre-prepare.
    Full(Request),
    /// Only the identity travels; the body was multicast by the client.
    Ref {
        /// Issuing client.
        client: ClientId,
        /// The client's timestamp.
        timestamp: Timestamp,
        /// The request digest.
        digest: Digest,
    },
}

impl BatchEntry {
    /// The digest of the underlying request.
    pub fn digest(&self) -> Digest {
        match self {
            BatchEntry::Full(r) => r.digest(),
            BatchEntry::Ref { digest, .. } => *digest,
        }
    }

    /// The `(client, timestamp)` identity of the underlying request.
    pub fn identity(&self) -> (ClientId, Timestamp) {
        match self {
            BatchEntry::Full(r) => (r.client, r.timestamp),
            BatchEntry::Ref {
                client, timestamp, ..
            } => (*client, *timestamp),
        }
    }
}

impl Wire for BatchEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            BatchEntry::Full(r) => {
                buf.push(0);
                r.encode(buf);
            }
            BatchEntry::Ref {
                client,
                timestamp,
                digest,
            } => {
                buf.push(1);
                client.encode(buf);
                timestamp.encode(buf);
                digest.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(BatchEntry::Full(Request::decode(r)?)),
            1 => Ok(BatchEntry::Ref {
                client: u32::decode(r)?,
                timestamp: u64::decode(r)?,
                digest: Digest::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            BatchEntry::Full(r) => 1 + r.wire_len(),
            BatchEntry::Ref { .. } => 1 + 4 + 8 + 16,
        }
    }
}

/// Computes the batch digest: the digest of the concatenated request
/// digests, in batch order.
pub fn batch_digest(entries: &[BatchEntry]) -> Digest {
    let digests: Vec<Digest> = entries.iter().map(BatchEntry::digest).collect();
    batch_digest_of(&digests)
}

/// [`batch_digest`] for a caller that already holds the batch's request
/// digests, in batch order, and must not hash the requests again.
pub fn batch_digest_of<'a>(digests: impl IntoIterator<Item = &'a Digest>) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(b"BATCH");
    for d in digests {
        ctx.update(d.as_bytes());
    }
    ctx.finish()
}

wire_struct! {
    /// PRE-PREPARE: the primary's sequence-number assignment for a batch.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PrePrepare {
        /// Current view.
        pub view: View,
        /// Assigned sequence number.
        pub seq: SeqNum,
        /// The ordered batch.
        pub entries: Vec<BatchEntry>,
        /// Digest of the batch (what prepares and commits refer to).
        pub batch_digest: Digest,
        /// Piggybacked commit announcements `(seq, digest)` from the sender
        /// (only used when the piggybacked-commits optimization is on).
        pub piggy_commits: Vec<(SeqNum, Digest)>,
    }
}

wire_struct! {
    /// PREPARE: a backup's agreement with a sequence-number assignment.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Prepare {
        /// Current view.
        pub view: View,
        /// Sequence number being agreed to.
        pub seq: SeqNum,
        /// Batch digest from the pre-prepare.
        pub batch_digest: Digest,
        /// Sending replica.
        pub replica: ReplicaId,
        /// Piggybacked commit announcements (see [`PrePrepare::piggy_commits`]).
        pub piggy_commits: Vec<(SeqNum, Digest)>,
    }
}

wire_struct! {
    /// COMMIT: a replica's announcement that the batch prepared at it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Commit {
        /// Current view.
        pub view: View,
        /// Sequence number.
        pub seq: SeqNum,
        /// Batch digest.
        pub batch_digest: Digest,
        /// Sending replica.
        pub replica: ReplicaId,
    }
}

/// The result carried in a reply: the full bytes, or just their digest
/// (the digest-replies optimization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// Full result bytes.
    Full(Vec<u8>),
    /// Digest of the result.
    Digest(Digest),
}

impl ReplyBody {
    /// The digest of the result regardless of representation.
    pub fn result_digest(&self) -> Digest {
        match self {
            ReplyBody::Full(bytes) => bft_crypto::digest(bytes),
            ReplyBody::Digest(d) => *d,
        }
    }

    /// True if the full bytes are present.
    pub fn is_full(&self) -> bool {
        matches!(self, ReplyBody::Full(_))
    }
}

impl Wire for ReplyBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReplyBody::Full(b) => {
                buf.push(0);
                b.encode(buf);
            }
            ReplyBody::Digest(d) => {
                buf.push(1);
                d.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(ReplyBody::Full(Vec::<u8>::decode(r)?)),
            1 => Ok(ReplyBody::Digest(Digest::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            ReplyBody::Full(b) => 1 + 8 + b.len(),
            ReplyBody::Digest(_) => 1 + 16,
        }
    }
}

wire_struct! {
    /// REPLY: a replica's answer to a client.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Reply {
        /// View in which the request executed (lets clients track the
        /// primary).
        pub view: View,
        /// Echo of the request timestamp.
        pub timestamp: Timestamp,
        /// The client being answered.
        pub client: ClientId,
        /// Answering replica.
        pub replica: ReplicaId,
        /// True if the execution was tentative (client then needs `2f+1`
        /// matching replies instead of `f+1`).
        pub tentative: bool,
        /// The result or its digest.
        pub body: ReplyBody,
    }
}

wire_struct! {
    /// CHECKPOINT: a replica's claim about its state digest at a checkpoint
    /// sequence number.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Checkpoint {
        /// The checkpoint sequence number (a multiple of the checkpoint
        /// interval).
        pub seq: SeqNum,
        /// Digest of the service state after executing all requests up to and
        /// including `seq`.
        pub state_digest: Digest,
        /// Claiming replica.
        pub replica: ReplicaId,
    }
}

wire_struct! {
    /// A summary of a prepared certificate, carried in view-change messages
    /// (an element of the paper's `P` set).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PreparedInfo {
        /// Sequence number of the prepared batch.
        pub seq: SeqNum,
        /// The view in which it prepared.
        pub view: View,
        /// The batch digest.
        pub batch_digest: Digest,
    }
}

wire_struct! {
    /// VIEW-CHANGE: a replica's vote to move to a new view, carrying its
    /// stable checkpoint and prepared certificates.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ViewChange {
        /// The view being moved to.
        pub new_view: View,
        /// The sender's last stable checkpoint sequence number.
        pub last_stable: SeqNum,
        /// Digest of the stable checkpoint state.
        pub stable_digest: Digest,
        /// Prepared certificates with sequence numbers above `last_stable`.
        pub prepared: Vec<PreparedInfo>,
        /// Fast-path vote reports above `last_stable`: every batch this
        /// replica voted for (pre-prepare accepted and prepare multicast, or
        /// proposed as primary), whether or not it assembled a prepared
        /// certificate. `f+1` matching reports prove a fast-committed batch
        /// into the new view. Empty when the fast path is disabled.
        pub fast_votes: Vec<PreparedInfo>,
        /// Sending replica.
        pub replica: ReplicaId,
    }
}

wire_struct! {
    /// NEW-VIEW: the new primary's proof of the view change and the
    /// pre-prepares (`O` set) that carry ordering into the new view.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NewView {
        /// The view being installed.
        pub view: View,
        /// The `2f+1` view-change messages justifying the change.
        pub view_changes: Vec<ViewChange>,
        /// The recomputed `O` set: `(seq, batch digest)` pairs, with
        /// [`NULL_DIGEST`] for null requests filling gaps.
        pub pre_prepares: Vec<(SeqNum, Digest)>,
        /// Batch bodies the new primary already has, so backups usually avoid
        /// a fetch round.
        pub batches: Vec<(SeqNum, Vec<BatchEntry>)>,
    }
}

wire_struct! {
    /// Request for the checkpointed state at `seq` (state transfer).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FetchState {
        /// Checkpoint sequence number wanted.
        pub seq: SeqNum,
    }
}

wire_struct! {
    /// Checkpoint metadata answering a [`FetchState`]: the partition leaf
    /// digests of the checkpoint's Merkle tree. The fetcher verifies the
    /// leaves against the quorum-certified checkpoint digest, then requests
    /// only the partitions whose leaves differ from its own state
    /// ([`FetchParts`]) — hierarchical partial state transfer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StateMeta {
        /// The checkpoint sequence number.
        pub seq: SeqNum,
        /// The Merkle leaves: one digest per service partition, followed by
        /// the reply-cache leaf. Their root must equal the checkpoint digest
        /// in the fetcher's certificate.
        pub leaves: Vec<Digest>,
    }
}

wire_struct! {
    /// Request for the serialized bytes of specific checkpoint partitions.
    /// The final partition index (`leaves.len() - 1` in the [`StateMeta`])
    /// addresses the reply cache.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FetchParts {
        /// Checkpoint sequence number wanted.
        pub seq: SeqNum,
        /// Indices of the wanted partitions.
        pub parts: Vec<u32>,
    }
}

wire_struct! {
    /// Partition bytes answering a [`FetchParts`]. The fetcher verifies each
    /// partition against the corresponding [`StateMeta`] leaf before
    /// installing it, so a faulty sender can only waste bandwidth.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PartData {
        /// The checkpoint sequence number.
        pub seq: SeqNum,
        /// `(partition index, serialized partition bytes)` pairs.
        pub parts: Vec<(u32, Vec<u8>)>,
    }
}

wire_struct! {
    /// Request for the body of a batch known only by digest.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FetchBatch {
        /// Sequence number of the wanted batch.
        pub seq: SeqNum,
        /// Its batch digest.
        pub batch_digest: Digest,
    }
}

wire_struct! {
    /// Request for individual request bodies by digest — the cheap recovery
    /// path when a replica holds a pre-prepare but lost some of the
    /// separately-transmitted request bodies.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FetchRequests {
        /// Digests of the wanted requests.
        pub digests: Vec<Digest>,
    }
}

wire_struct! {
    /// Request bodies answering a [`FetchRequests`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RequestData {
        /// The recovered requests.
        pub requests: Vec<Request>,
    }
}

wire_struct! {
    /// A batch body answering a [`FetchBatch`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BatchData {
        /// Sequence number of the batch.
        pub seq: SeqNum,
        /// The batch entries (fully inlined).
        pub entries: Vec<BatchEntry>,
    }
}

wire_struct! {
    /// Periodic status gossip driving retransmission: peers that see a
    /// lagging replica re-send what it is missing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Status {
        /// Sender's current view.
        pub view: View,
        /// Sender's last stable checkpoint.
        pub last_stable: SeqNum,
        /// Sender's highest executed sequence number.
        pub last_executed: SeqNum,
    }
}

wire_struct! {
    /// A peer's assertion that a batch committed, used to backfill holes at a
    /// lagging replica. MAC-authenticated assertions are not transferable
    /// certificates, so receivers act only on `f+1` matching assertions from
    /// distinct peers — at least one of which must be correct.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CommittedBatch {
        /// The committed sequence number.
        pub seq: SeqNum,
        /// Its batch digest.
        pub batch_digest: Digest,
        /// The batch entries (digest-checked by the receiver).
        pub entries: Vec<BatchEntry>,
    }
}

wire_struct! {
    /// NEW-KEY: a replica announces a fresh inbound-key epoch. In the real
    /// system this carries RSA-encrypted per-sender keys and a signature (see
    /// `bft-crypto`'s `rsa` module and the `key_exchange` integration test);
    /// in the simulation the directional keys derive from the epoch itself.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NewKey {
        /// The announcing replica.
        pub replica: ReplicaId,
        /// Its new inbound-key epoch.
        pub epoch: u64,
    }
}

wire_struct! {
    /// RECOVER: a replica announces it is proactively recovering. Peers grant
    /// it a recovery lease (so staggered watchdogs keep at most one replica
    /// in-recovery at a time), adopt the fresh MAC epoch carried here, and
    /// answer with a [`RecoverAttest`] for their stable checkpoint. A second
    /// RECOVER with `done` set releases the lease early.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Recover {
        /// The recovering replica.
        pub replica: ReplicaId,
        /// Its freshly rotated inbound-key epoch.
        pub epoch: u64,
        /// True when recovery completed and the lease can be released.
        pub done: bool,
    }
}

wire_struct! {
    /// RECOVER-ATTEST: a peer's point-to-point answer to [`Recover`], naming
    /// its stable checkpoint. The recovering replica trusts nothing it holds
    /// locally, so it waits for `f+1` matching attestations — at least one
    /// from a correct replica — before auditing its state against the
    /// attested Merkle root.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecoverAttest {
        /// The attester's stable checkpoint sequence number.
        pub seq: SeqNum,
        /// The checkpoint's Merkle root.
        pub state_digest: Digest,
        /// The attesting replica.
        pub replica: ReplicaId,
    }
}

wire_struct! {
    /// LEASE: the primary of `view` grants every backup a time-bounded read
    /// lease (arXiv:2107.11144). While a holder's lease is valid it answers
    /// read-only requests locally in one round; the primary defers ordering
    /// writes until every grant is revoked ([`LeaseRevoke`]) or has expired,
    /// so all up-to-date holders reply from the same quiescent state and the
    /// client's `2f+1` matching rule completes without a read-write fallback.
    ///
    /// `epoch` totally orders grants and revokes within a view: a holder
    /// ignores any lease message carrying an epoch below the highest it has
    /// seen, so a grant delayed past its own revoke cannot resurrect a lease.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Lease {
        /// The granting view (a lease is void outside it).
        pub view: View,
        /// Grant/revoke sequence counter, primary-local per view.
        pub epoch: u64,
        /// The primary's highest assigned sequence number at grant time; a
        /// holder serves reads only once it has executed through it.
        pub seq: SeqNum,
        /// Validity from receipt; a holder caps it at its own duration.
        pub duration_ns: u64,
    }
}

wire_struct! {
    /// LEASE-RENEW: a holder's acknowledgment of a [`Lease`] grant — echoes
    /// the acked epoch and reports the holder's execution progress. Doubles
    /// as the primary's per-backup liveness evidence: a primary that stops
    /// hearing these (and other view-matching traffic) from `2f` backups
    /// withholds further grants, so a partitioned or deposed primary's
    /// outstanding leases drain out within one duration.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LeaseRenew {
        /// The granting view.
        pub view: View,
        /// The grant epoch being acknowledged.
        pub epoch: u64,
        /// The acknowledging holder.
        pub replica: ReplicaId,
        /// The holder's highest executed sequence number (telemetry: how far
        /// behind the grant's `seq` the holder was at accept time).
        pub seq: SeqNum,
    }
}

wire_struct! {
    /// LEASE-REVOKE: with `ack == false`, the primary's write fence — holders
    /// must drop their lease and answer with `ack == true`. The primary
    /// resumes ordering once every backup acked
    /// ([`crate::types::Quorums::lease_revoke_quorum`]) or the last grant's
    /// conservative expiry passed, whichever comes first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LeaseRevoke {
        /// The view whose leases are being revoked.
        pub view: View,
        /// Epoch of the revocation (supersedes lower-epoch grants).
        pub epoch: u64,
        /// The sender (primary for requests, holder for acks).
        pub replica: ReplicaId,
        /// False: revoke request from the primary. True: holder's ack.
        pub ack: bool,
    }
}

wire_struct! {
    /// BUSY: a replica's overload pushback to a client. Sent instead of
    /// silently dropping a request when admission control sheds it — the
    /// per-client in-flight quota is exhausted or a request queue is at its
    /// high watermark. The client backs off for at least `retry_after_ns`
    /// (with deterministic per-client jitter) before retransmitting, and
    /// under persistent pushback degrades from optimistic paths back to the
    /// classic ordered path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Busy {
        /// The client whose request was shed.
        pub client: ClientId,
        /// The shed request's client timestamp.
        pub timestamp: Timestamp,
        /// The overloaded replica.
        pub replica: ReplicaId,
        /// Minimum back-off the client should apply before retrying.
        pub retry_after_ns: u64,
    }
}

wire_enum! {
    /// All protocol messages. Each row is `Variant(Payload) = wire tag`;
    /// the tag indexes the per-tag send/receive arrays in the health
    /// counter registry (`bft_sim::health`), which also names it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Msg {
        /// Client request.
        Request(Request) = 0,
        /// Primary ordering proposal.
        PrePrepare(PrePrepare) = 1,
        /// Backup agreement.
        Prepare(Prepare) = 2,
        /// Commit announcement.
        Commit(Commit) = 3,
        /// Result to a client.
        Reply(Reply) = 4,
        /// Checkpoint claim.
        Checkpoint(Checkpoint) = 5,
        /// View-change vote.
        ViewChange(ViewChange) = 6,
        /// New-view installation.
        NewView(NewView) = 7,
        /// State-transfer request.
        FetchState(FetchState) = 8,
        /// State-transfer checkpoint metadata (partition leaf digests).
        StateMeta(StateMeta) = 9,
        /// Partition-bytes request (partial state transfer).
        FetchParts(FetchParts) = 17,
        /// Partition bytes.
        PartData(PartData) = 18,
        /// Batch-body request.
        FetchBatch(FetchBatch) = 10,
        /// Batch-body data.
        BatchData(BatchData) = 11,
        /// Individual request-body recovery request.
        FetchRequests(FetchRequests) = 12,
        /// Individual request-body recovery data.
        RequestData(RequestData) = 13,
        /// Periodic status gossip.
        Status(Status) = 14,
        /// Committed-batch backfill assertion.
        CommittedBatch(CommittedBatch) = 15,
        /// Inbound-key epoch announcement.
        NewKey(NewKey) = 16,
        /// Proactive-recovery announcement (lease + fresh epoch).
        Recover(Recover) = 19,
        /// Stable-checkpoint attestation for a recovering replica.
        RecoverAttest(RecoverAttest) = 20,
        /// Read-lease grant from the primary.
        Lease(Lease) = 21,
        /// Read-lease grant acknowledgment (holder to primary).
        LeaseRenew(LeaseRenew) = 22,
        /// Read-lease revocation (request or ack).
        LeaseRevoke(LeaseRevoke) = 23,
        /// Overload pushback: a replica shed a request under admission
        /// control and asks the client to back off before retrying.
        Busy(Busy) = 24,
    }
}

// The health registry sizes its per-tag arrays (and names the tags)
// without depending on this crate; the two counts must agree.
const _: () = assert!(Msg::TAG_COUNT == TAG_COUNT);

impl Msg {
    /// A short name for debugging and reports: the health registry's name
    /// for this message's wire tag.
    pub fn kind(&self) -> &'static str {
        tag_name(self.tag())
    }
}

/// A network datagram: message body plus packet-level authentication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The protocol message.
    pub body: Msg,
    /// Packet-level authentication over the body's encoding.
    pub auth: AuthTag,
}

impl Packet {
    /// Wraps a body with no packet-level authentication.
    pub fn unauthenticated(body: Msg) -> Packet {
        Packet {
            body,
            auth: AuthTag::None,
        }
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.body.wire_len() + self.auth.wire_bytes()
    }

    /// Digest of the encoded body. Not on the authentication path, which
    /// MACs the encoding itself ([`PacketKeys`]); kept as the benchmark's
    /// timing of one fresh encode plus MD5 of a whole body.
    pub fn body_digest(&self) -> Digest {
        bft_crypto::digest(&self.body.to_bytes())
    }
}

/// One principal's packet authentication: its session keys, and the one
/// buffer it encodes every packet body into to MAC it.
///
/// A packet MAC covers the encoding of the packet's [`Msg`], and UMAC runs
/// over those bytes directly: no digest stands between a message and its
/// MAC. The buffer is reused, so after the first packet neither sealing
/// nor verifying allocates.
#[derive(Debug)]
pub struct PacketKeys {
    /// The session keys. Request authenticators, which cover the request
    /// digest, and key epochs use them directly.
    pub chain: KeyChain,
    buf: Vec<u8>,
}

impl PacketKeys {
    /// Packet authentication under `chain`.
    pub fn new(chain: KeyChain) -> PacketKeys {
        PacketKeys {
            chain,
            buf: Vec::new(),
        }
    }

    /// The tag of a multicast: an authenticator over `body` with one
    /// entry per replica other than this principal.
    pub fn seal_multicast(&mut self, body: &Msg) -> AuthTag {
        AuthTag::Vector(self.chain.authenticate(body.encode_into(&mut self.buf)))
    }

    /// The tag of a point-to-point message: a MAC over `body` for `dst`.
    pub fn seal_to(&mut self, dst: PrincipalId, body: &Msg) -> AuthTag {
        AuthTag::Mac(self.chain.mac_for(dst, body.encode_into(&mut self.buf)))
    }

    /// Whether `auth` proves that `from` sent `body` to this principal:
    /// a MAC under their pairwise key, or this principal's entry of an
    /// authenticator. [`AuthTag::None`] proves nothing.
    pub fn verify(&mut self, from: PrincipalId, body: &Msg, auth: &AuthTag) -> bool {
        match auth {
            AuthTag::None => false,
            AuthTag::Mac(m) => {
                let bytes = body.encode_into(&mut self.buf);
                self.chain.verify_from(from, bytes, m)
            }
            AuthTag::Vector(a) => {
                let bytes = body.encode_into(&mut self.buf);
                self.chain.verify_authenticator(from, bytes, a)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            client: 7,
            timestamp: 3,
            op: vec![1, 2, 3, 4],
            read_only: false,
            replier: 2,
            auth: AuthTag::Mac(Mac {
                nonce: 9,
                tag: [1; 8],
            }),
        }
    }

    /// One fixed sample per variant (two where a flag changes the shape),
    /// shared by the round-trip, table and golden-bytes tests.
    fn samples() -> Vec<Msg> {
        let req = sample_request();
        let d = req.digest();
        vec![
            Msg::Request(req.clone()),
            Msg::PrePrepare(PrePrepare {
                view: 1,
                seq: 2,
                entries: vec![
                    BatchEntry::Full(req.clone()),
                    BatchEntry::Ref {
                        client: 8,
                        timestamp: 1,
                        digest: d,
                    },
                ],
                batch_digest: d,
                piggy_commits: vec![(1, d)],
            }),
            Msg::Prepare(Prepare {
                view: 1,
                seq: 2,
                batch_digest: d,
                replica: 3,
                piggy_commits: vec![],
            }),
            Msg::Commit(Commit {
                view: 1,
                seq: 2,
                batch_digest: d,
                replica: 0,
            }),
            Msg::Reply(Reply {
                view: 1,
                timestamp: 3,
                client: 7,
                replica: 2,
                tentative: true,
                body: ReplyBody::Full(vec![9, 9]),
            }),
            Msg::Reply(Reply {
                view: 1,
                timestamp: 3,
                client: 7,
                replica: 2,
                tentative: false,
                body: ReplyBody::Digest(d),
            }),
            Msg::Checkpoint(Checkpoint {
                seq: 128,
                state_digest: d,
                replica: 1,
            }),
            Msg::ViewChange(ViewChange {
                new_view: 2,
                last_stable: 128,
                stable_digest: d,
                prepared: vec![PreparedInfo {
                    seq: 130,
                    view: 1,
                    batch_digest: d,
                }],
                fast_votes: vec![PreparedInfo {
                    seq: 131,
                    view: 1,
                    batch_digest: d,
                }],
                replica: 3,
            }),
            Msg::NewView(NewView {
                view: 2,
                view_changes: vec![],
                pre_prepares: vec![(129, NULL_DIGEST), (130, d)],
                batches: vec![(130, vec![BatchEntry::Full(req)])],
            }),
            Msg::FetchState(FetchState { seq: 128 }),
            Msg::StateMeta(StateMeta {
                seq: 128,
                leaves: vec![d, NULL_DIGEST, d],
            }),
            Msg::FetchParts(FetchParts {
                seq: 128,
                parts: vec![0, 2, 63],
            }),
            Msg::PartData(PartData {
                seq: 128,
                parts: vec![(0, vec![1, 2, 3]), (2, Vec::new())],
            }),
            Msg::FetchBatch(FetchBatch {
                seq: 130,
                batch_digest: d,
            }),
            Msg::BatchData(BatchData {
                seq: 130,
                entries: vec![],
            }),
            Msg::FetchRequests(FetchRequests { digests: vec![d] }),
            Msg::RequestData(RequestData {
                requests: vec![sample_request()],
            }),
            Msg::Status(Status {
                view: 3,
                last_stable: 128,
                last_executed: 140,
            }),
            Msg::CommittedBatch(CommittedBatch {
                seq: 135,
                batch_digest: d,
                entries: vec![BatchEntry::Ref {
                    client: 9,
                    timestamp: 2,
                    digest: d,
                }],
            }),
            Msg::NewKey(NewKey {
                replica: 2,
                epoch: 7,
            }),
            Msg::Recover(Recover {
                replica: 1,
                epoch: 3,
                done: false,
            }),
            Msg::Recover(Recover {
                replica: 1,
                epoch: 3,
                done: true,
            }),
            Msg::RecoverAttest(RecoverAttest {
                seq: 128,
                state_digest: d,
                replica: 0,
            }),
            Msg::Lease(Lease {
                view: 2,
                epoch: 9,
                seq: 140,
                duration_ns: 100_000_000,
            }),
            Msg::LeaseRenew(LeaseRenew {
                view: 2,
                epoch: 10,
                replica: 3,
                seq: 145,
            }),
            Msg::LeaseRevoke(LeaseRevoke {
                view: 2,
                epoch: 11,
                replica: 0,
                ack: false,
            }),
            Msg::LeaseRevoke(LeaseRevoke {
                view: 2,
                epoch: 11,
                replica: 3,
                ack: true,
            }),
            Msg::Busy(Busy {
                client: 7,
                timestamp: 42,
                replica: 1,
                retry_after_ns: 5_000_000,
            }),
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in samples() {
            let bytes = msg.to_bytes();
            assert_eq!(bytes[0], msg.tag(), "tag() must match the wire tag");
            assert_eq!(Msg::from_bytes(&bytes).expect("decode"), msg);
        }
    }

    /// The table-driven replacement for the retired lint checks: the
    /// samples cover every variant, tags are dense, every tag is named,
    /// and the arithmetic `wire_len` (what the simulated wire charges)
    /// equals the encoded length.
    #[test]
    fn tag_table_is_dense_named_and_sized() {
        let mut seen = [false; Msg::TAG_COUNT];
        for msg in samples() {
            let tag = msg.tag();
            assert!((tag as usize) < Msg::TAG_COUNT, "tag {tag} out of range");
            seen[tag as usize] = true;
            assert_ne!(tag_name(tag), "?", "tag {tag} unnamed");
            assert_eq!(msg.kind(), tag_name(tag));
            assert_eq!(msg.wire_len(), msg.to_bytes().len(), "{}", msg.kind());
        }
        assert_eq!(
            seen,
            [true; Msg::TAG_COUNT],
            "a tag in 0..TAG_COUNT has no sample"
        );
    }

    /// The wire format did not move: MD5 over the concatenated encodings
    /// of the samples, computed with the hand-written codec this table
    /// replaced (commit bebce04).
    #[test]
    fn golden_bytes_are_unchanged() {
        let bytes: Vec<u8> = samples().iter().flat_map(Wire::to_bytes).collect();
        assert_eq!(
            bft_crypto::digest(&bytes).to_string(),
            "295c8469c5899956b844572766969485"
        );
    }

    #[test]
    fn request_digest_ignores_replier_and_auth() {
        let base = sample_request();
        let mut other = base.clone();
        other.replier = REPLIER_ALL;
        other.auth = AuthTag::None;
        assert_eq!(base.digest(), other.digest());
        let mut changed = base.clone();
        changed.op.push(5);
        assert_ne!(base.digest(), changed.digest());
        let mut ro = base;
        ro.read_only = true;
        assert_ne!(ro.digest(), sample_request().digest());
    }

    #[test]
    fn batch_digest_depends_on_order_and_content() {
        let a = BatchEntry::Full(sample_request());
        let b = BatchEntry::Ref {
            client: 9,
            timestamp: 1,
            digest: bft_crypto::digest(b"other"),
        };
        let d1 = batch_digest(&[a.clone(), b.clone()]);
        let d2 = batch_digest(&[b, a]);
        assert_ne!(d1, d2);
        assert_ne!(d1, batch_digest(&[]));
    }

    #[test]
    fn batch_entry_forms_agree_on_digest() {
        let req = sample_request();
        let full = BatchEntry::Full(req.clone());
        let by_ref = BatchEntry::Ref {
            client: req.client,
            timestamp: req.timestamp,
            digest: req.digest(),
        };
        assert_eq!(batch_digest(&[full]), batch_digest(&[by_ref]));
    }

    #[test]
    fn packet_sizes_account_for_auth() {
        let body = Msg::Commit(Commit {
            view: 0,
            seq: 1,
            batch_digest: NULL_DIGEST,
            replica: 0,
        });
        let bare = Packet::unauthenticated(body.clone());
        let auth = PacketKeys::new(KeyChain::new(0, 4)).seal_multicast(&body);
        let sealed = Packet { body, auth };
        assert!(sealed.wire_bytes() > bare.wire_bytes());
        // 3 entries × 17 bytes + tag byte + length.
        assert_eq!(sealed.wire_bytes() - bare.wire_bytes(), 8 + 3 * 17);
    }

    /// Every variant sealed both ways verifies at its receiver, and every
    /// single flipped byte of its encoding is caught: the bytes no longer
    /// decode, or what they decode to fails the MAC.
    #[test]
    fn a_packet_mac_covers_every_byte_of_the_encoding() {
        let mut sender = PacketKeys::new(KeyChain::new(0, 4));
        let mut receiver = PacketKeys::new(KeyChain::new(1, 4));
        for msg in samples() {
            let tags = [sender.seal_multicast(&msg), sender.seal_to(1, &msg)];
            let bytes = msg.to_bytes();
            for auth in &tags {
                assert!(receiver.verify(0, &msg, auth), "{}", msg.kind());
                assert!(!receiver.verify(2, &msg, auth), "{}", msg.kind());
                for i in 0..bytes.len() {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 0xff;
                    if let Ok(forged) = Msg::from_bytes(&flipped) {
                        assert!(
                            !receiver.verify(0, &forged, auth),
                            "{} byte {i}",
                            msg.kind()
                        );
                    }
                }
            }
            assert!(!receiver.verify(0, &msg, &AuthTag::None));
        }
    }

    #[test]
    fn corrupted_body_changes_digest() {
        let p = Packet::unauthenticated(Msg::FetchState(FetchState { seq: 1 }));
        let q = Packet::unauthenticated(Msg::FetchState(FetchState { seq: 2 }));
        assert_ne!(p.body_digest(), q.body_digest());
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(Msg::from_bytes(&[200]), Err(WireError::BadTag(200)));
    }

    /// An authenticator decodes back whole, and every strict prefix of its
    /// encoding is an error, never a vector with placeholder entries.
    #[test]
    fn every_cut_authenticator_fails_to_decode() {
        let auth = AuthTag::Vector(KeyChain::new(0, 7).authenticate(b"body"));
        let bytes = auth.to_bytes();
        assert_eq!(AuthTag::from_bytes(&bytes), Ok(auth));
        for cut in 0..bytes.len() {
            assert_eq!(
                AuthTag::from_bytes(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
