//! The request bodies a replica retains, each for exactly as long as
//! protocol state can still ask for it.
//!
//! A body is in one of two places. Once a batch that names it is
//! resolved, it is *held* by that batch's slot and lives as long as the
//! slot does: the stable checkpoint that garbage-collects the slot
//! releases the body with it (PBFT's own rule — nothing at or below the
//! low water mark is ever needed again). Until then — received from the
//! client ahead of its pre-prepare, parked beside a batch that is still
//! missing another body, or handed back by a slot a new view voided — it
//! is *loose*, in a FIFO whose cap is a function of the configuration.
//! Either way it is found by digest, which is what `BatchEntry::Ref`,
//! `FetchRequests` and the pending-request index carry.
//!
//! The table and the slots share each body (`Arc`): resolving a batch
//! copies no request bytes.
//!
//! The table is hashed, not ordered: it is looked up on every request,
//! pre-prepare and garbage collection, and never iterated — eviction
//! order is the FIFO's. Clients choose the requests, so they choose the
//! digests; the table keeps std's randomly keyed hasher rather than
//! trusting a digest's bytes as its own hash.

use crate::log::RequestRef;
use crate::messages::Request;
use crate::types::SeqNum;
use bft_crypto::md5::Digest;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a body is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In no slot; the arrival ticket is its position in the FIFO.
    Loose(u64),
    /// Held by the slot with this sequence number.
    Slot(SeqNum),
}

#[derive(Debug)]
struct Held {
    body: Arc<Request>,
    place: Place,
}

/// Request bodies by digest.
#[derive(Debug)]
pub(crate) struct Bodies {
    known: HashMap<Digest, Held>,
    /// The loose bodies' digests, oldest ticket first.
    fifo: BTreeMap<u64, Digest>,
    next_ticket: u64,
    loose_cap: usize,
}

impl Bodies {
    /// An empty table keeping at most `loose_cap` loose bodies.
    pub(crate) fn new(loose_cap: usize) -> Bodies {
        Bodies {
            known: HashMap::new(),
            fifo: BTreeMap::new(),
            next_ticket: 0,
            loose_cap,
        }
    }

    /// Bodies known, loose and held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.known.len()
    }

    /// Loose bodies; never more than [`Self::loose_cap`].
    pub(crate) fn loose_len(&self) -> usize {
        self.fifo.len()
    }

    /// The cap on loose bodies.
    pub(crate) fn loose_cap(&self) -> usize {
        self.loose_cap
    }

    /// The body with digest `d`, wherever it is.
    pub(crate) fn get(&self, d: &Digest) -> Option<&Arc<Request>> {
        self.known.get(d).map(|h| &h.body)
    }

    /// True if the body with digest `d` is known.
    pub(crate) fn contains(&self, d: &Digest) -> bool {
        self.known.contains_key(d)
    }

    /// Keeps `body` (whose digest is `d`) as a loose body, evicting the
    /// oldest loose bodies past the cap. Returns whether it was new: a
    /// digest already known, loose or held, is left where it is.
    pub(crate) fn insert(&mut self, d: Digest, body: Arc<Request>) -> bool {
        let Entry::Vacant(unknown) = self.known.entry(d) else {
            return false;
        };
        let place = enqueue(&mut self.fifo, &mut self.next_ticket, d);
        unknown.insert(Held { body, place });
        self.evict();
        true
    }

    /// Records that slot `seq` holds `requests`, the bodies of `entries`
    /// in batch order. A body held by two slots (a request re-proposed
    /// across a view change) stays with the later one, so it is released
    /// only when both are gone.
    pub(crate) fn hold(&mut self, seq: SeqNum, entries: &[RequestRef], requests: &[Arc<Request>]) {
        for (e, body) in entries.iter().zip(requests) {
            match self.known.entry(e.digest) {
                Entry::Occupied(mut known) => {
                    let held = known.get_mut();
                    held.place = match held.place {
                        Place::Loose(ticket) => {
                            self.fifo.remove(&ticket);
                            Place::Slot(seq)
                        }
                        Place::Slot(other) => Place::Slot(other.max(seq)),
                    }
                }
                Entry::Vacant(unknown) => {
                    unknown.insert(Held {
                        body: Arc::clone(body),
                        place: Place::Slot(seq),
                    });
                }
            }
        }
    }

    /// The bodies of `entries` in batch order, now held by slot `seq` —
    /// or `None`, and nothing changed, while any of them is unknown.
    pub(crate) fn resolve(
        &mut self,
        seq: SeqNum,
        entries: &[RequestRef],
    ) -> Option<Vec<Arc<Request>>> {
        let requests: Vec<Arc<Request>> = entries
            .iter()
            .map(|e| self.get(&e.digest).cloned())
            .collect::<Option<_>>()?;
        self.hold(seq, entries, &requests);
        Some(requests)
    }

    /// Slot `seq` is gone (garbage-collected, or dropped by a recovery):
    /// forgets the bodies of `entries` it held.
    pub(crate) fn release(&mut self, seq: SeqNum, entries: &[RequestRef]) {
        for e in entries {
            if self.known.get(&e.digest).map(|h| h.place) == Some(Place::Slot(seq)) {
                self.known.remove(&e.digest);
            }
        }
    }

    /// Slot `seq` no longer orders `entries` (a new view voided it): the
    /// bodies it held are loose again, newest in the FIFO, so they can be
    /// forwarded, re-proposed or named by a later pre-prepare.
    pub(crate) fn unhold(&mut self, seq: SeqNum, entries: &[RequestRef]) {
        for e in entries {
            if let Some(held) = self.known.get_mut(&e.digest) {
                if held.place == Place::Slot(seq) {
                    held.place = enqueue(&mut self.fifo, &mut self.next_ticket, e.digest);
                }
            }
        }
        self.evict();
    }

    fn evict(&mut self) {
        while self.fifo.len() > self.loose_cap {
            if let Some((_, d)) = self.fifo.pop_first() {
                self.known.remove(&d);
            }
        }
    }
}

/// Puts `d` at the young end of the FIFO.
fn enqueue(fifo: &mut BTreeMap<u64, Digest>, next_ticket: &mut u64, d: Digest) -> Place {
    let ticket = *next_ticket;
    *next_ticket += 1;
    fifo.insert(ticket, d);
    Place::Loose(ticket)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::body;

    #[test]
    fn loose_bodies_are_evicted_oldest_first_and_only_they() {
        let mut b = Bodies::new(2);
        let (e1, r1) = body(1);
        let (e2, r2) = body(2);
        let (e3, r3) = body(3);
        let (e4, r4) = body(4);
        assert!(b.insert(e1.digest, r1.clone()));
        assert!(!b.insert(e1.digest, r1), "a known digest is not new");
        // Body 2 is held by a slot: the FIFO cap no longer applies to it.
        assert!(b.insert(e2.digest, r2));
        assert!(b.resolve(7, &[e2]).is_some());
        assert!(b.insert(e3.digest, r3));
        assert!(b.insert(e4.digest, r4));
        assert!(!b.contains(&e1.digest), "oldest loose body evicted");
        assert!(b.contains(&e2.digest) && b.contains(&e3.digest) && b.contains(&e4.digest));
        assert_eq!((b.len(), b.loose_len()), (3, 2));
    }

    #[test]
    fn resolve_needs_every_body_and_changes_nothing_without() {
        let mut b = Bodies::new(8);
        let (e1, r1) = body(1);
        let (e2, r2) = body(2);
        b.insert(e1.digest, r1);
        assert!(b.resolve(3, &[e1, e2]).is_none());
        assert_eq!(b.loose_len(), 1, "body 1 is still loose");
        b.insert(e2.digest, r2);
        let got = b.resolve(3, &[e1, e2]).expect("both known");
        assert_eq!(got[1].timestamp, 2);
        assert_eq!((b.len(), b.loose_len()), (2, 0));
    }

    #[test]
    fn a_body_goes_with_the_last_slot_that_holds_it() {
        let mut b = Bodies::new(8);
        let (e, r) = body(1);
        b.insert(e.digest, r);
        // Ordered at 5, then re-proposed at 9 by a new view.
        assert!(b.resolve(5, &[e]).is_some());
        assert!(b.resolve(9, &[e]).is_some());
        b.release(5, &[e]);
        assert!(b.contains(&e.digest), "slot 9 still holds it");
        b.release(9, &[e]);
        assert!(!b.contains(&e.digest));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn a_voided_slot_hands_its_bodies_back_to_the_fifo() {
        let mut b = Bodies::new(1);
        let (e1, r1) = body(1);
        let (e2, r2) = body(2);
        b.hold(4, &[e1], &[r1]);
        assert_eq!(b.loose_len(), 0);
        b.unhold(4, &[e1]);
        assert_eq!(b.loose_len(), 1);
        assert!(b.get(&e1.digest).is_some());
        // Loose again means evictable again.
        b.insert(e2.digest, r2);
        assert!(!b.contains(&e1.digest));
        // Releasing a slot that no longer holds the body is a no-op.
        b.release(4, &[e2]);
        assert!(b.contains(&e2.digest));
    }
}
