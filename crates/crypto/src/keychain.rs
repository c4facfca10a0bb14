//! Session-key management and MAC authenticators.
//!
//! Every pair of principals (replica or client) shares symmetric session
//! keys. Point-to-point messages carry a single MAC; messages multicast to
//! all replicas carry an *authenticator* — a vector with one MAC entry per
//! replica other than the sender, each computed under the corresponding
//! pairwise key. A replica validates the authenticator by checking only its
//! own entry, so authentication cost is O(1) per receiver while generation
//! is O(n) for the sender. The paper's 3f+1 = 4 configurations make the
//! vector 3 entries × 16 bytes.
//!
//! Keys follow BFT's ownership rule: the *receiver* chooses the keys used
//! to authenticate messages sent **to** it, and announces a new *epoch*
//! with a `NEW-KEY` message (in the real system, RSA-encrypted per sender
//! and signed). Within the simulation the directional key for
//! `sender → receiver` at epoch `e` derives deterministically from
//! `(sender, receiver, e)`, which is equivalent to every sender having
//! completed the exchange for epoch `e`; the replica charges the RSA work
//! as `CostKind::Rsa` instead of doing it.
//!
//! To avoid dropping in-flight traffic at a refresh boundary, receivers
//! accept MACs under the current and the immediately preceding epoch
//! (BFT similarly kept old keys valid briefly).

use crate::md5;
use crate::umac::{Mac, MacKey};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a principal: replicas are `0..n`, clients are `>= n`.
pub type PrincipalId = u32;

/// A vector of MACs, one per replica other than the sender.
///
/// Entries are ordered by replica id, sender omitted. They are shared, not
/// owned: a multicast packet is cloned once per destination, and a request
/// is copied into every pre-prepare that inlines it, and neither copies
/// the MACs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Authenticator {
    /// `(replica, mac)` pairs, ascending by replica id.
    pub entries: Arc<[(PrincipalId, Mac)]>,
}

impl Authenticator {
    /// Wire size in bytes: 16 per entry plus one id byte each.
    pub fn wire_bytes(&self) -> usize {
        self.entries.len() * (Mac::WIRE_BYTES + 1)
    }

    /// Looks up the entry for `replica`.
    pub fn entry(&self, replica: PrincipalId) -> Option<&Mac> {
        self.entries
            .iter()
            .find(|(r, _)| *r == replica)
            .map(|(_, m)| m)
    }
}

/// A cached directional key and the epoch it was derived for.
type EpochKey = Option<(u64, MacKey)>;

/// What one principal holds about one peer: at most three keys, however
/// many epochs go by.
#[derive(Clone, Debug, Default)]
struct PeerKeys {
    /// The epoch the peer last announced (keys I use sending to it).
    announced: u64,
    /// The `me → peer` key.
    outbound: EpochKey,
    /// The `peer → me` keys, epoch `e` in slot `e & 1`: the current and the
    /// previous epoch differ in parity, so neither evicts the other.
    inbound: [EpochKey; 2],
}

/// The directional key for `sender → receiver` at `epoch`: the one in
/// `slot` if it is for that epoch, otherwise derived into `slot`.
fn cached(slot: &mut EpochKey, sender: PrincipalId, receiver: PrincipalId, epoch: u64) -> &MacKey {
    if slot.as_ref().is_none_or(|(held, _)| *held != epoch) {
        let mut material = [0u8; 31];
        material[..15].copy_from_slice(b"bft-session-key");
        material[15..19].copy_from_slice(&sender.to_le_bytes());
        material[19..23].copy_from_slice(&receiver.to_le_bytes());
        material[23..].copy_from_slice(&epoch.to_le_bytes());
        let key = MacKey::from_bytes(*md5::digest(&material).as_bytes());
        *slot = Some((epoch, key));
    }
    let (_, key) = slot.as_ref().expect("filled above");
    key
}

/// Per-principal key state: directional session keys per epoch, a nonce
/// counter, and the epochs announced by each peer.
///
/// # Example
///
/// ```
/// use bft_crypto::keychain::KeyChain;
///
/// let mut sender = KeyChain::new(0, 4);
/// let mut receiver = KeyChain::new(2, 4);
/// let auth = sender.authenticate(b"pre-prepare");
/// assert!(receiver.verify_authenticator(0, b"pre-prepare", &auth));
/// ```
#[derive(Clone, Debug)]
pub struct KeyChain {
    my_id: PrincipalId,
    n_replicas: u32,
    nonce: u64,
    /// The epoch of the keys others must use when sending to me.
    my_epoch: u64,
    /// Replica peers, indexed by id: every MAC of the ordering protocol
    /// finds its key here without hashing.
    replicas: Vec<PeerKeys>,
    /// Client peers. Their ids arrive in messages, so they are looked up,
    /// not indexed.
    clients: HashMap<PrincipalId, PeerKeys>,
}

impl KeyChain {
    /// Creates the key chain for principal `my_id` in a group of
    /// `n_replicas` replicas.
    ///
    /// Group sizing (`n >= 3f + 1`) is a protocol concern validated by
    /// `Quorums`/`Config` in `bft-core`; the key chain only needs `n` to
    /// tell replicas from clients and size authenticators.
    pub fn new(my_id: PrincipalId, n_replicas: u32) -> KeyChain {
        KeyChain {
            my_id,
            n_replicas,
            nonce: 0,
            my_epoch: 0,
            replicas: vec![PeerKeys::default(); n_replicas as usize],
            clients: HashMap::new(),
        }
    }

    /// This principal's id.
    pub fn id(&self) -> PrincipalId {
        self.my_id
    }

    /// Number of replicas in the group.
    pub fn n_replicas(&self) -> u32 {
        self.n_replicas
    }

    /// Announces fresh inbound keys: bumps this principal's epoch. The
    /// caller is responsible for telling peers (the `NEW-KEY` message);
    /// until a peer learns the new epoch, its MACs still verify thanks to
    /// the one-epoch grace window.
    pub fn refresh(&mut self) -> u64 {
        self.my_epoch += 1;
        self.my_epoch
    }

    /// The epoch peers must use when sending to this principal.
    pub fn epoch(&self) -> u64 {
        self.my_epoch
    }

    /// Records the epoch `peer` announced for messages sent to it. Stale
    /// announcements (replays) are ignored, and so are announcements by
    /// clients, whose keys stay at epoch 0.
    pub fn set_peer_epoch(&mut self, peer: PrincipalId, epoch: u64) {
        if let Some(keys) = self.replicas.get_mut(peer as usize) {
            keys.announced = keys.announced.max(epoch);
        }
    }

    /// The epoch this principal uses when sending to `peer`. Replica↔client
    /// keys are pinned at epoch 0: clients do not participate in the
    /// replica group's NEW-KEY rounds (as in BFT, where client keys are
    /// refreshed on the client's own schedule).
    pub fn peer_epoch(&self, peer: PrincipalId) -> u64 {
        if self.is_client(self.my_id) {
            return 0;
        }
        self.replicas
            .get(peer as usize)
            .map_or(0, |keys| keys.announced)
    }

    fn is_client(&self, id: PrincipalId) -> bool {
        id >= self.n_replicas
    }

    /// The epochs acceptable for inbound traffic from `peer`.
    fn inbound_epochs(&self, peer: PrincipalId) -> [u64; 2] {
        if self.is_client(peer) || self.is_client(self.my_id) {
            return [0, 0];
        }
        [self.my_epoch, self.my_epoch.saturating_sub(1)]
    }

    fn peer_keys(&mut self, peer: PrincipalId) -> &mut PeerKeys {
        match self.replicas.get_mut(peer as usize) {
            Some(keys) => keys,
            None => self.clients.entry(peer).or_default(),
        }
    }

    /// MACs `msg` for `peer` under the epoch it announced.
    fn mac_to(&mut self, peer: PrincipalId, msg: &[u8], nonce: u64) -> Mac {
        let (me, epoch) = (self.my_id, self.peer_epoch(peer));
        cached(&mut self.peer_keys(peer).outbound, me, peer, epoch).mac(msg, nonce)
    }

    /// MACs `msg` for a single peer (point-to-point messages: requests to
    /// the primary, replies to clients), under the peer's announced epoch.
    pub fn mac_for(&mut self, peer: PrincipalId, msg: &[u8]) -> Mac {
        self.nonce += 1;
        self.mac_to(peer, msg, self.nonce)
    }

    /// Verifies a point-to-point MAC from `peer`, accepting the current
    /// and previous inbound epoch.
    pub fn verify_from(&mut self, peer: PrincipalId, msg: &[u8], mac: &Mac) -> bool {
        let me = self.my_id;
        let epochs = self.inbound_epochs(peer);
        let keys = self.peer_keys(peer);
        for e in epochs {
            let key = cached(&mut keys.inbound[(e & 1) as usize], peer, me, e);
            if key.verify(msg, mac.nonce, &mac.tag) {
                return true;
            }
            if e == 0 {
                break;
            }
        }
        false
    }

    /// Builds an authenticator over `msg` with one entry per replica other
    /// than this principal, each under that replica's announced epoch.
    pub fn authenticate(&mut self, msg: &[u8]) -> Authenticator {
        self.nonce += 1;
        let nonce = self.nonce;
        let me = self.my_id;
        // The i-th entry is the i-th replica after skipping `me`. A range
        // has an exact length, so the shared slice is allocated once, at
        // its final size.
        let entries = (0..self.authenticator_len())
            .map(|i| {
                let r = i + u32::from(i >= me);
                (r, self.mac_to(r, msg, nonce))
            })
            .collect();
        Authenticator { entries }
    }

    /// Verifies the entry for this replica in an authenticator produced by
    /// `sender`. Returns `false` if there is no entry for us (e.g. we *are*
    /// the sender) or the MAC is wrong under both acceptable epochs.
    pub fn verify_authenticator(
        &mut self,
        sender: PrincipalId,
        msg: &[u8],
        auth: &Authenticator,
    ) -> bool {
        match auth.entry(self.my_id) {
            Some(mac) => self.verify_from(sender, msg, mac),
            None => false,
        }
    }

    /// Number of MAC computations needed to authenticate one multicast —
    /// used by the CPU cost model.
    pub fn authenticator_len(&self) -> u32 {
        self.n_replicas - u32::from(self.my_id < self.n_replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let mut client = KeyChain::new(7, 4);
        let mut primary = KeyChain::new(0, 4);
        let mac = client.mac_for(0, b"request");
        assert!(primary.verify_from(7, b"request", &mac));
        assert!(!primary.verify_from(7, b"forged", &mac));
    }

    #[test]
    fn authenticator_verified_by_every_backup() {
        let mut primary = KeyChain::new(0, 4);
        let auth = primary.authenticate(b"pre-prepare");
        assert_eq!(auth.entries.len(), 3);
        for backup in 1..4 {
            let mut kc = KeyChain::new(backup, 4);
            assert!(
                kc.verify_authenticator(0, b"pre-prepare", &auth),
                "{backup}"
            );
        }
    }

    #[test]
    fn authenticator_rejects_tampered_message() {
        let mut primary = KeyChain::new(0, 4);
        let auth = primary.authenticate(b"pre-prepare");
        let mut kc = KeyChain::new(1, 4);
        assert!(!kc.verify_authenticator(0, b"pre-prepared", &auth));
    }

    #[test]
    fn authenticator_rejects_wrong_sender() {
        let mut r2 = KeyChain::new(2, 4);
        let auth = r2.authenticate(b"commit");
        let mut r1 = KeyChain::new(1, 4);
        // Claimed sender 3 did not produce this authenticator.
        assert!(!r1.verify_authenticator(3, b"commit", &auth));
    }

    #[test]
    fn sender_has_no_entry_for_itself() {
        let mut r0 = KeyChain::new(0, 4);
        let auth = r0.authenticate(b"x");
        assert!(auth.entry(0).is_none());
        let mut same = KeyChain::new(0, 4);
        assert!(!same.verify_authenticator(0, b"x", &auth));
    }

    #[test]
    fn refresh_keeps_grace_window_then_invalidates() {
        let mut sender = KeyChain::new(0, 4);
        let mut receiver = KeyChain::new(1, 4);
        let old_mac = sender.mac_for(1, b"msg");
        // One refresh: in-flight MACs under the previous epoch still pass.
        receiver.refresh();
        assert!(receiver.verify_from(0, b"msg", &old_mac));
        // Two refreshes: the old epoch falls out of the grace window.
        receiver.refresh();
        assert!(!receiver.verify_from(0, b"msg", &old_mac));
        // Once the sender learns the new epoch, traffic flows again.
        sender.set_peer_epoch(1, receiver.epoch());
        let fresh = sender.mac_for(1, b"msg");
        assert!(receiver.verify_from(0, b"msg", &fresh));
    }

    #[test]
    fn stale_epoch_announcements_are_ignored() {
        let mut kc = KeyChain::new(0, 4);
        kc.set_peer_epoch(1, 5);
        kc.set_peer_epoch(1, 3);
        assert_eq!(kc.peer_epoch(1), 5);
    }

    #[test]
    fn directional_keys_differ() {
        // The key for 0→1 must differ from 1→0: a receiver cannot replay a
        // message back at its author.
        let mut a = KeyChain::new(0, 4);
        let mut b = KeyChain::new(1, 4);
        let mac = a.mac_for(1, b"msg");
        // Replayed to the original sender: must not verify.
        assert!(!a.verify_from(1, b"msg", &mac));
        assert!(b.verify_from(0, b"msg", &mac));
    }

    #[test]
    fn seven_replica_authenticator() {
        let mut primary = KeyChain::new(0, 7);
        let auth = primary.authenticate(b"m");
        assert_eq!(auth.entries.len(), 6);
        assert_eq!(auth.wire_bytes(), 6 * 17);
    }

    /// Keys, nonces and tags as the `(sender, receiver, epoch)`-keyed map
    /// this module used to have produced them. The tags changed when the
    /// MAC's pad function went from XTEA to AES-128, and were taken after
    /// `umac`'s straight-line reference agreed with `MacKey::mac`.
    #[test]
    fn keys_nonces_and_tags_are_unchanged() {
        let tags = |auth: &Authenticator| -> Vec<(PrincipalId, u64, [u8; 8])> {
            auth.entries
                .iter()
                .map(|&(r, m)| (r, m.nonce, m.tag))
                .collect()
        };
        let mut replica = KeyChain::new(0, 4);
        let mut client = KeyChain::new(9, 4);
        replica.set_peer_epoch(2, 3);
        assert_eq!(
            tags(&replica.authenticate(b"golden")),
            [
                (1, 1, [135, 102, 208, 144, 203, 29, 104, 14]),
                (2, 1, [30, 213, 183, 17, 30, 27, 11, 76]),
                (3, 1, [18, 31, 102, 144, 202, 92, 148, 228]),
            ]
        );
        let to_client = replica.mac_for(9, b"golden");
        assert_eq!(to_client.nonce, 2);
        assert_eq!(to_client.tag, [218, 154, 25, 170, 29, 78, 146, 54]);
        let to_replica = client.mac_for(0, b"golden");
        assert_eq!(to_replica.nonce, 1);
        assert_eq!(to_replica.tag, [50, 104, 119, 95, 192, 233, 71, 252]);
        assert_eq!(
            tags(&client.authenticate(b"golden")),
            [
                (0, 2, [104, 195, 145, 88, 20, 125, 6, 16]),
                (1, 2, [165, 218, 71, 93, 79, 27, 52, 205]),
                (2, 2, [246, 26, 251, 172, 160, 194, 219, 37]),
                (3, 2, [235, 225, 198, 7, 6, 96, 234, 245]),
            ]
        );
    }

    #[test]
    fn refresh_rounds_reuse_the_peer_slots() {
        // Fifty refresh rounds between two replicas, traffic both ways in
        // every round: the three key slots per peer are overwritten, epoch
        // after epoch, without the current and previous key colliding.
        let mut a = KeyChain::new(0, 4);
        let mut b = KeyChain::new(1, 4);
        for round in 0..50u64 {
            let mac = a.mac_for(1, b"ping");
            assert!(b.verify_from(0, b"ping", &mac), "round {round}");
            let epoch = b.refresh();
            // In flight across the refresh: the previous epoch still passes.
            assert!(b.verify_from(0, b"ping", &mac), "round {round}");
            a.set_peer_epoch(1, epoch);
            let mac = b.mac_for(0, b"pong");
            assert!(a.verify_from(1, b"pong", &mac), "round {round}");
        }
        assert!(a.clients.is_empty() && b.clients.is_empty());
    }

    #[test]
    fn client_ids_far_outside_the_group_are_looked_up_not_indexed() {
        let mut replica = KeyChain::new(0, 4);
        let mut client = KeyChain::new(u32::MAX, 4);
        let mac = client.mac_for(0, b"request");
        assert!(replica.verify_from(u32::MAX, b"request", &mac));
        replica.set_peer_epoch(u32::MAX, 9);
        assert_eq!(replica.peer_epoch(u32::MAX), 0);
        let reply = replica.mac_for(u32::MAX, b"reply");
        assert!(client.verify_from(0, b"reply", &reply));
        assert_eq!(replica.replicas.len(), 4);
        assert_eq!(replica.clients.len(), 1);
    }

    #[test]
    fn a_mac_verifies_under_its_own_nonce_only() {
        let mut client = KeyChain::new(7, 4);
        let mut primary = KeyChain::new(0, 4);
        let mac = client.mac_for(0, b"request");
        assert!(primary.verify_from(7, b"request", &mac));
        for bit in 0..64 {
            let forged = Mac {
                nonce: mac.nonce ^ (1 << bit),
                ..mac
            };
            assert!(!primary.verify_from(7, b"request", &forged), "bit {bit}");
        }
    }

    #[test]
    fn nonces_are_unique_per_mac() {
        let mut a = KeyChain::new(0, 4);
        let m1 = a.mac_for(1, b"x");
        let m2 = a.mac_for(1, b"x");
        assert_ne!(m1.nonce, m2.nonce);
    }
}
