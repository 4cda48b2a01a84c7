//! The gossip state machine (pure logic; the socket plumbing lives in
//! [`crate::node`]).
//!
//! Epidemic broadcast with three message types:
//!
//! * on learning a new item, a node **announces** its id to all peers;
//! * a peer missing the id sends a **request**;
//! * the holder replies with the **payload**.
//!
//! A periodic anti-entropy tick re-announces the full id set so items
//! eventually reach nodes that joined late or missed frames. The store is
//! the node's source of truth; dedup falls out of content-addressed ids.
//!
//! The store is **ordered by id**. Whatever the store's iteration order is
//! reaches the wire in every full-set announce, and from there decides the
//! order of requests, payloads and item application on every peer — so the
//! order must be a function of the held set alone, or two runs of one
//! seeded scenario diverge. A `BTreeMap` makes that structural (there is no
//! other order to leak), makes [`GossipState::ids`] a plain key walk, and
//! lets [`GossipState::on_announce`] answer a sorted announce with one
//! merge sweep instead of a lookup per id.

use crate::messages::{GossipItem, ItemId, Message};
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// The gossip item store plus protocol reaction logic.
#[derive(Debug, Default)]
pub struct GossipState {
    items: BTreeMap<ItemId, GossipItem>,
}

impl GossipState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of items held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether an item id is held.
    pub fn contains(&self, id: &str) -> bool {
        self.items.contains_key(id)
    }

    /// All held ids, ascending — the store's own order (see the module
    /// documentation for why announces must go out in it).
    pub fn ids(&self) -> Vec<ItemId> {
        self.items.keys().cloned().collect()
    }

    /// Get an item by id.
    pub fn get(&self, id: &str) -> Option<&GossipItem> {
        self.items.get(id)
    }

    /// Iterate over held items, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (&ItemId, &GossipItem)> {
        self.items.iter()
    }

    /// Insert a locally originated or received item. Returns `Some(id)` if
    /// the item was new (and should be announced), `None` if duplicate.
    pub fn insert(&mut self, item: GossipItem) -> Option<ItemId> {
        match self.items.entry(item.id()) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                let id = slot.key().clone();
                slot.insert(item);
                Some(id)
            }
        }
    }

    /// React to an **announce**: which of the announced ids do we need?
    /// Returns a request message if any are missing — the missing ids in
    /// announced order, duplicates kept.
    ///
    /// One cursor walks the store beside the list. Before each id is
    /// judged the cursor rests on the first held id `>=` it, so the id is
    /// held exactly when the cursor is on it. From an ascending list that
    /// is one step of the cursor per id wherever the list is close to what
    /// is held (a full-set announce from a converged peer is the store
    /// itself); where the step falls short, or the list goes backwards, the
    /// cursor is re-seated by a `range` seek, which is the per-id lookup
    /// this replaces.
    pub fn on_announce(&self, ids: &[ItemId]) -> Option<Message> {
        // The held ids `>= id`, ascending.
        let from = |id: &str| {
            let at_or_after = (Bound::Included(id), Bound::Unbounded);
            self.items.range::<str, _>(at_or_after).map(|(k, _)| k.as_str())
        };
        let mut held = from("");
        let mut at = held.next();
        // The id judged last: `at` is the first held id `>=` it.
        let mut last = "";
        let mut missing = Vec::new();
        for id in ids {
            let id = id.as_str();
            if at.is_some_and(|k| k < id) {
                // `last <= at < id`: forwards. Step, and seek if the step
                // stopped short.
                at = held.next();
                if at.is_some_and(|k| k < id) {
                    held = from(id);
                    at = held.next();
                }
            } else if id < last {
                held = from(id);
                at = held.next();
            }
            last = id;
            if at != Some(id) {
                missing.push(id.to_string());
            }
        }
        if missing.is_empty() {
            None
        } else {
            Some(Message::GossipRequest { ids: missing })
        }
    }

    /// React to a **request**: return the payload of the ids we hold.
    pub fn on_request(&self, ids: &[ItemId]) -> Option<Message> {
        let items: Vec<GossipItem> = ids.iter().filter_map(|id| self.get(id).cloned()).collect();
        if items.is_empty() {
            None
        } else {
            Some(Message::GossipPayload { items })
        }
    }

    /// React to a **payload**: insert each item, returning the ids that
    /// were new (these should be re-announced to other peers, and handed to
    /// the application layer).
    pub fn on_payload(&mut self, items: Vec<GossipItem>) -> Vec<(ItemId, GossipItem)> {
        let mut fresh = Vec::new();
        for item in items {
            if let Entry::Vacant(slot) = self.items.entry(item.id()) {
                let id = slot.key().clone();
                slot.insert(item.clone());
                fresh.push((id, item));
            }
        }
        fresh
    }

    /// The periodic anti-entropy announcement (full id set).
    pub fn anti_entropy_announce(&self) -> Option<Message> {
        if self.items.is_empty() {
            None
        } else {
            Some(Message::GossipAnnounce { ids: self.ids() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MarketOrder;

    fn order(seq: u64) -> GossipItem {
        GossipItem::Order(MarketOrder {
            party: "p".into(),
            is_bid: true,
            price: 1.0,
            quantity: 10,
            sequence: seq,
            signature: "sig".into(),
        })
    }

    #[test]
    fn insert_dedups() {
        let mut g = GossipState::new();
        let id = g.insert(order(1)).expect("new item");
        assert!(g.insert(order(1)).is_none(), "duplicate suppressed");
        assert!(g.contains(&id));
        assert_eq!(g.len(), 1);
        assert!(g.insert(order(2)).is_some());
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn announce_request_payload_flow() {
        let mut holder = GossipState::new();
        let mut seeker = GossipState::new();
        let id = holder.insert(order(1)).unwrap();

        // Holder announces; seeker requests what it misses.
        let req = seeker.on_announce(std::slice::from_ref(&id)).expect("missing item");
        let Message::GossipRequest { ids } = req else { panic!() };
        assert_eq!(ids, vec![id.clone()]);

        // Holder serves the payload; seeker ingests it.
        let payload = holder.on_request(&ids).expect("has item");
        let Message::GossipPayload { items } = payload else { panic!() };
        let fresh = seeker.on_payload(items);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].0, id);
        assert!(seeker.contains(&id));

        // Second announce round: nothing missing.
        assert!(seeker.on_announce(&[id]).is_none());
    }

    #[test]
    fn request_for_unknown_ids_yields_nothing() {
        let g = GossipState::new();
        assert!(g.on_request(&["nope".into()]).is_none());
    }

    #[test]
    fn partial_requests_served_partially() {
        let mut g = GossipState::new();
        let id = g.insert(order(1)).unwrap();
        let msg = g.on_request(&[id, "unknown".into()]).unwrap();
        let Message::GossipPayload { items } = msg else { panic!() };
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn payload_reinsert_not_fresh() {
        let mut g = GossipState::new();
        g.insert(order(1)).unwrap();
        let fresh = g.on_payload(vec![order(1), order(2)]);
        assert_eq!(fresh.len(), 1, "only the unseen item is fresh");
    }

    /// [`GossipState::on_announce`]'s cursor sweep against the filter it
    /// replaced, element for element, on every list shape the sweep has a
    /// branch for.
    #[test]
    fn on_announce_equals_the_naive_filter() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x0A11_0CE5);
        let mut shuffled = |mut v: Vec<ItemId>| {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..=i));
            }
            v
        };
        let mut strangers: Vec<ItemId> = (0..300).map(|seq| order(10_000 + seq).id()).collect();
        strangers.sort();
        for size in [0u64, 1, 500] {
            let mut state = GossipState::new();
            for seq in 0..size {
                state.insert(order(seq));
            }
            let held = state.ids();
            assert_eq!(held.len() as u64, size);
            assert!(held.windows(2).all(|w| w[0] < w[1]), "ids() must be strictly ascending");
            match state.anti_entropy_announce() {
                Some(Message::GossipAnnounce { ids }) => assert_eq!(ids, held),
                None => assert!(held.is_empty()),
                other => panic!("not an announce: {other:?}"),
            }

            let mut mixed: Vec<ItemId> = held.iter().chain(&strangers).cloned().collect();
            mixed.sort();
            let reversed: Vec<ItemId> = mixed.iter().rev().cloned().collect();
            let doubled: Vec<ItemId> =
                mixed.iter().flat_map(|id| [id.clone(), id.clone()]).collect();
            // Hex ids sort between "" / "!" and "g" / "zz".
            let mut fenced: Vec<ItemId> = vec!["".into(), "!".into()];
            fenced.extend(held.iter().cloned());
            fenced.extend(["g".into(), "zz".into()]);
            // Held ids far apart, so the single step falls short.
            let sparse: Vec<ItemId> = mixed.iter().step_by(7).cloned().collect();
            let lists = [
                Vec::new(),
                held.clone(),
                strangers.clone(),
                shuffled(mixed.clone()),
                shuffled(doubled.clone()),
                shuffled(fenced.clone()),
                mixed,
                reversed,
                doubled,
                fenced,
                sparse,
            ];
            for (case, list) in lists.iter().enumerate() {
                let naive: Vec<ItemId> =
                    list.iter().filter(|id| !state.contains(id)).cloned().collect();
                let swept = match state.on_announce(list) {
                    Some(Message::GossipRequest { ids }) => ids,
                    None => Vec::new(),
                    other => panic!("not a request: {other:?}"),
                };
                assert_eq!(swept, naive, "store of {size}, list {case}");
            }
        }
    }

    #[test]
    fn anti_entropy_announces_everything() {
        let mut g = GossipState::new();
        assert!(g.anti_entropy_announce().is_none());
        g.insert(order(1)).unwrap();
        g.insert(order(2)).unwrap();
        let Some(Message::GossipAnnounce { ids }) = g.anti_entropy_announce() else {
            panic!()
        };
        assert_eq!(ids.len(), 2);
    }
}
