//! The gossip state machine (pure logic; the socket plumbing lives in
//! [`crate::node`]).
//!
//! Epidemic broadcast with three message types:
//!
//! * on learning a new item, a node **announces** its id to all peers;
//! * a peer missing the id sends a **request**;
//! * the holder replies with the **payload**.
//!
//! A periodic anti-entropy tick announces to each peer the ids that peer is
//! **not known to hold**, so items eventually reach nodes that joined late
//! or missed frames while a converged link carries an empty list. The store
//! is the node's source of truth; dedup falls out of content-addressed ids.
//!
//! The store is **ordered by id**. Whatever the store's iteration order is
//! reaches the wire in every anti-entropy announce, and from there decides
//! the order of requests, payloads and item application on every peer — so
//! the order must be a function of the held set alone, or two runs of one
//! seeded scenario diverge. A `BTreeMap` makes that structural (there is no
//! other order to leak), makes [`GossipState::ids`] a plain key walk, and
//! lets [`GossipState::on_announce`] answer a sorted announce with one
//! merge sweep instead of a lookup per id.
//!
//! # What a peer is known to hold
//!
//! Beside each stored item sit three `u64` masks, one bit per peer
//! [`Session`] (a connection's lifetime; [`GossipState::open_session`] hands
//! out the bit, [`GossipState::close_session`] clears it on every item):
//!
//! * `known` — the peer **announced** this id or **sent its payload** on
//!   this session. Those are the only two proofs there are: what we sent
//!   may have been lost, and a request says what the peer lacks.
//! * `owed` — one more mention of the id is due to the peer.
//! * `seen` — one redundant mention has arrived since we last mentioned it.
//!
//! [`GossipState::session_announce`] lists, ascending, the ids with
//! `!known || owed` and clears `owed` and `seen` on what it listed. A
//! mention from the peer of a held id ([`GossipState::on_announce_from`])
//! sets `known` and `owed` if the id was not `known` (tell the peer once
//! that we hold it too), else `owed` if `seen` was set, else `seen`. A
//! payload from the peer ([`GossipState::on_payload`]) stores a new item
//! with `known` and `owed`; a held one gains `known`, and `owed` only on
//! that transition.
//!
//! **Requests do not change.** Items are never deleted and a session's bits
//! die with it, so `known ⊆` what the peer holds when the announce arrives.
//! The peer requests `announced ∖ its own`, and `(held ∖ known) ∖ theirs =
//! held ∖ theirs` as a subsequence in the same order: every request, hence
//! every payload and every re-announce, is what the full id set would have
//! drawn. **It goes quiet.** A side that does not know mentions the id
//! every tick until one mention lands; a side that knows mentions it once
//! per transition and once per *two* redundant mentions received, so
//! acknowledgements between two knowing sides halve each exchange and stop,
//! while a lost acknowledgement is repeated after the peer's next two ticks
//! (`tests::a_lost_acknowledgement_is_repeated`). **No bit, no memory.**
//! [`Session::NONE`] (what the 65th concurrent session gets) has mask 0:
//! every test above reads "unknown" and every update is a no-op, so that
//! session is sent the full set every tick by the same code.
//!
//! Trust: the masks are per session and only ever *withhold announcements
//! to the session that set them*, so a peer that lies about holding an id
//! silences announcements to itself and to nobody else.

use crate::messages::{GossipItem, ItemId, Message};
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// One peer session's bit in the per-item masks — or no bit
/// ([`Session::NONE`]), for which nothing is remembered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session(u64);

impl Session {
    /// The session without a bit: its peer is never known to hold anything.
    pub const NONE: Session = Session(0);
}

/// A stored item and what each session's peer has proven about it (see the
/// module documentation).
#[derive(Debug)]
struct Held {
    item: GossipItem,
    known: u64,
    owed: u64,
    seen: u64,
}

impl Held {
    /// `item` as learned from `from`'s peer ([`Session::NONE`] for our own).
    fn new(item: GossipItem, from: Session) -> Held {
        Held { item, known: from.0, owed: from.0, seen: 0 }
    }

    /// The peer of `from` has proven it holds the item: if that is news,
    /// one mention is owed in return. Returns whether it was.
    fn prove(&mut self, from: Session) -> bool {
        let news = self.known & from.0 == 0;
        self.known |= from.0;
        if news {
            self.owed |= from.0;
        }
        news
    }

    /// The peer of `from` has announced the item: proof, or else a
    /// redundant mention, of which every second one is answered.
    fn mention(&mut self, from: Session) {
        if !self.prove(from) {
            self.owed |= self.seen & from.0;
            self.seen |= from.0;
        }
    }
}

/// The gossip item store plus protocol reaction logic.
#[derive(Debug, Default)]
pub struct GossipState {
    items: BTreeMap<ItemId, Held>,
    /// The session bits handed out and not yet closed.
    sessions: u64,
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
        self.items.get(id).map(|held| &held.item)
    }

    /// Insert a locally originated item. Returns `Some(id)` if the item was
    /// new (and should be announced), `None` if duplicate.
    pub fn insert(&mut self, item: GossipItem) -> Option<ItemId> {
        match self.items.entry(item.id()) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                let id = slot.key().clone();
                slot.insert(Held::new(item, Session::NONE));
                Some(id)
            }
        }
    }

    /// Start a session: the lowest free bit, or [`Session::NONE`] when 64
    /// are open. Nothing is known about a new session's peer.
    pub fn open_session(&mut self) -> Session {
        let free = !self.sessions;
        let bit = free & free.wrapping_neg();
        self.sessions |= bit;
        Session(bit)
    }

    /// End a session: forget what its peer proved and free the bit. Call it
    /// exactly once per opened session — a bit closed twice could by then
    /// be another peer's.
    pub fn close_session(&mut self, session: Session) {
        if session == Session::NONE {
            return;
        }
        self.sessions &= !session.0;
        for held in self.items.values_mut() {
            held.known &= !session.0;
            held.owed &= !session.0;
            held.seen &= !session.0;
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

    /// [`Self::on_announce`] for an announce that arrived on `from`: the
    /// same request, and each held id it names counts as one mention by
    /// that session's peer (an id repeated in the list counts once).
    pub fn on_announce_from(&mut self, from: Session, ids: &[ItemId]) -> Option<Message> {
        if from != Session::NONE {
            let mut named: Vec<&ItemId> = ids.iter().collect();
            named.sort_unstable();
            named.dedup();
            for id in named {
                if let Some(held) = self.items.get_mut(id) {
                    held.mention(from);
                }
            }
        }
        self.on_announce(ids)
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

    /// React to a **payload** that arrived on `from`: insert each item,
    /// returning the ids that were new (these should be re-announced to
    /// other peers, and handed to the application layer). Either way the
    /// peer has proven it holds the item; a payload of something already
    /// held answers our own request and is not a mention.
    pub fn on_payload(
        &mut self,
        from: Session,
        items: Vec<GossipItem>,
    ) -> Vec<(ItemId, GossipItem)> {
        let mut fresh = Vec::new();
        for item in items {
            match self.items.entry(item.id()) {
                Entry::Occupied(mut slot) => {
                    slot.get_mut().prove(from);
                }
                Entry::Vacant(slot) => {
                    let id = slot.key().clone();
                    slot.insert(Held::new(item.clone(), from));
                    fresh.push((id, item));
                }
            }
        }
        fresh
    }

    /// The anti-entropy announcement for one session — its first message
    /// and every tick's: the ids its peer is not known to hold or is owed a
    /// mention of, ascending, with `owed` and `seen` cleared on those. The
    /// list may be empty; only an empty store announces nothing. On a new
    /// session, and always on [`Session::NONE`], it is the full id set.
    pub fn session_announce(&mut self, to: Session) -> Option<Message> {
        if self.items.is_empty() {
            return None;
        }
        let mut ids = Vec::new();
        for (id, held) in &mut self.items {
            if held.known & to.0 == 0 || held.owed & to.0 != 0 {
                held.owed &= !to.0;
                held.seen &= !to.0;
                ids.push(id.clone());
            }
        }
        Some(Message::GossipAnnounce { ids })
    }

    /// The full id set as one announcement: what
    /// [`Self::session_announce`] sends while nothing is known about the
    /// peer.
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
        let fresh = seeker.on_payload(Session::NONE, items);
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
        let fresh = g.on_payload(Session::NONE, vec![order(1), order(2)]);
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

    // ---- sessions: what a peer is known to hold --------------------------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The ids of an announce (none for "nothing to announce").
    fn listed(announce: Option<Message>) -> Vec<ItemId> {
        match announce {
            Some(Message::GossipAnnounce { ids }) => ids,
            None => Vec::new(),
            other => panic!("not an announce: {other:?}"),
        }
    }

    fn announce(ids: &[ItemId]) -> Message {
        Message::GossipAnnounce { ids: ids.to_vec() }
    }

    /// A network of `GossipState`s without a runtime: directed FIFO links
    /// carrying `Message`s, moved a round at a time by the test. In the
    /// `filtered` world every link end has a session and a tick is
    /// `session_announce`; in the other nobody has one and a tick is
    /// `anti_entropy_announce` — the protocol as it was before sessions.
    struct World {
        filtered: bool,
        nodes: Vec<GossipState>,
        /// `(from, to)` → `from`'s session for `to`, and the frames under way.
        links: BTreeMap<(usize, usize), (Session, VecDeque<Message>)>,
    }

    impl World {
        fn new(filtered: bool, nodes: usize) -> World {
            let nodes = (0..nodes).map(|_| GossipState::new()).collect();
            World { filtered, nodes, links: BTreeMap::new() }
        }

        fn peers(&self, node: usize) -> Vec<usize> {
            self.links.keys().filter(|(from, _)| *from == node).map(|(_, to)| *to).collect()
        }

        fn send(&mut self, from: usize, to: usize, msg: Message) {
            self.links.get_mut(&(from, to)).expect("linked").1.push_back(msg);
        }

        /// Open `a — b`; both ends queue their first announce. Returns the
        /// two lists.
        fn connect(&mut self, a: usize, b: usize) -> [Vec<ItemId>; 2] {
            [(a, b), (b, a)].map(|(from, to)| {
                let node = &mut self.nodes[from];
                let (session, first) = if self.filtered {
                    let session = node.open_session();
                    (session, node.session_announce(session))
                } else {
                    (Session::NONE, node.anti_entropy_announce())
                };
                self.links.insert((from, to), (session, VecDeque::new()));
                if let Some(first) = first.clone() {
                    self.send(from, to, first);
                }
                listed(first)
            })
        }

        /// Close `a — b`: what was under way is lost with the connection.
        fn disconnect(&mut self, a: usize, b: usize) {
            for (from, to) in [(a, b), (b, a)] {
                let (session, _) = self.links.remove(&(from, to)).expect("linked");
                self.nodes[from].close_session(session);
            }
        }

        fn publish(&mut self, node: usize, item: GossipItem) {
            if let Some(id) = self.nodes[node].insert(item) {
                for peer in self.peers(node) {
                    self.send(node, peer, announce(std::slice::from_ref(&id)));
                }
            }
        }

        /// One anti-entropy tick of `node`: the list queued for each peer.
        fn tick(&mut self, node: usize) -> Vec<Vec<ItemId>> {
            let mut lists = Vec::new();
            for peer in self.peers(node) {
                let msg = if self.filtered {
                    let session = self.links[&(node, peer)].0;
                    self.nodes[node].session_announce(session)
                } else {
                    self.nodes[node].anti_entropy_announce()
                };
                if let Some(msg) = msg.clone() {
                    self.send(node, peer, msg);
                }
                lists.push(listed(msg));
            }
            lists
        }

        /// `msg` arrives at `to` from `from`. Returns what `to` sends in
        /// reaction, as `(recipient, message)`, after queueing it.
        fn deliver(&mut self, from: usize, to: usize, msg: Message) -> Vec<(usize, Message)> {
            let session = self.links[&(to, from)].0;
            let node = &mut self.nodes[to];
            let out: Vec<(usize, Message)> = match msg {
                Message::GossipAnnounce { ids } => {
                    let request = node.on_announce_from(session, &ids);
                    request.map(|req| (from, req)).into_iter().collect()
                }
                Message::GossipRequest { ids } => {
                    node.on_request(&ids).map(|payload| (from, payload)).into_iter().collect()
                }
                Message::GossipPayload { items } => {
                    let fresh = node.on_payload(session, items);
                    let ids: Vec<ItemId> = fresh.into_iter().map(|(id, _)| id).collect();
                    let others = self.peers(to).into_iter().filter(|&p| p != from);
                    others.filter(|_| !ids.is_empty()).map(|p| (p, announce(&ids))).collect()
                }
                other => panic!("not gossip: {other:?}"),
            };
            for (peer, msg) in &out {
                self.send(to, *peer, msg.clone());
            }
            out
        }
    }

    /// Whether `part` is `whole` with some entries left out.
    fn is_subsequence(part: &[ItemId], whole: &[ItemId]) -> bool {
        let mut whole = whole.iter();
        part.iter().all(|id| whole.any(|w| w == id))
    }

    /// The tentpole's claim, delivery by delivery: seven nodes on lossy FIFO
    /// links, stepped in lockstep in two worlds that differ only in what a
    /// tick announces. Every frame either world delivers draws the same
    /// reaction — the same request (ids and order), the same payload, the
    /// same re-announce — and the held sets never differ.
    #[test]
    fn filtered_announces_draw_what_full_set_announces_draw() {
        const NODES: usize = 7;
        const ROUNDS: usize = 320;
        /// Rounds (link hops) between two ticks.
        const TICK: usize = 4;
        const PUBLISH_UNTIL: usize = 180;
        const PARTITION: std::ops::Range<usize> = 70..130;
        const CLOSED: std::ops::Range<usize> = 40..58;
        const LOSS: f64 = 0.1;

        #[derive(Debug, Default)]
        struct Seen {
            requests: usize,
            payloads: usize,
            dropped: usize,
            ids_withheld: usize,
            empty_announces: usize,
            reopened: usize,
        }
        let mut seen = Seen::default();
        let mut rng = StdRng::seed_from_u64(0x5E55_1085);
        let mut worlds = [World::new(true, NODES), World::new(false, NODES)];
        // A ring and three chords.
        let ring = (0..NODES).map(|i| (i, (i + 1) % NODES));
        for (a, b) in ring.chain([(0, 3), (1, 4), (2, 5)]) {
            for world in &mut worlds {
                world.connect(a, b);
            }
        }
        let side = |node: usize| node < 3;
        let mut next_item = 0u64;
        for round in 0..ROUNDS {
            // The script: a standing set, then seeded publishes; one
            // session closed and reopened; a partition window.
            let publishes = match round {
                0 => vec![0; 40],
                _ if round < PUBLISH_UNTIL && rng.gen_bool(0.4) => vec![rng.gen_range(0..NODES)],
                _ => Vec::new(),
            };
            for node in publishes {
                next_item += 1;
                for world in &mut worlds {
                    world.publish(node, order(next_item));
                }
            }
            if round == CLOSED.start {
                for world in &mut worlds {
                    world.disconnect(0, 1);
                }
            }
            if round == CLOSED.end {
                // Everything is unknown again: the first announce of the
                // new session is the full set, as it always was.
                let [filtered, full] = worlds.each_mut().map(|world| world.connect(0, 1));
                assert_eq!(filtered, full, "first announces of the reopened session");
                assert!(filtered.iter().all(|list| list.len() > 40));
                seen.reopened += 1;
            }
            if round % TICK == 0 {
                for node in 0..NODES {
                    let [filtered, full] = worlds.each_mut().map(|world| world.tick(node));
                    assert_eq!(filtered.len(), full.len(), "one list per peer");
                    for (filtered, full) in filtered.iter().zip(&full) {
                        assert!(is_subsequence(filtered, full), "round {round}, node {node}");
                        seen.ids_withheld += full.len() - filtered.len();
                        seen.empty_announces +=
                            usize::from(filtered.is_empty() && !full.is_empty());
                    }
                }
            }

            // Deliver what was under way when the round began.
            let due = |world: &World| -> Vec<((usize, usize), usize)> {
                world.links.iter().map(|(link, (_, queue))| (*link, queue.len())).collect()
            };
            let under_way = due(&worlds[0]);
            assert_eq!(under_way, due(&worlds[1]), "round {round}: the same frames on every link");
            for ((from, to), frames) in under_way {
                for _ in 0..frames {
                    let [filtered, full] = worlds.each_mut().map(|world| {
                        world.links.get_mut(&(from, to)).unwrap().1.pop_front().unwrap()
                    });
                    match (&filtered, &full) {
                        (
                            Message::GossipAnnounce { ids: filtered },
                            Message::GossipAnnounce { ids: full },
                        ) => assert!(is_subsequence(filtered, full)),
                        _ => assert_eq!(filtered, full, "round {round}, {from} -> {to}"),
                    }
                    let blocked = PARTITION.contains(&round) && side(from) != side(to);
                    if rng.gen_bool(LOSS) || blocked {
                        seen.dropped += 1;
                        continue;
                    }
                    let drawn = worlds[0].deliver(from, to, filtered);
                    assert_eq!(
                        drawn,
                        worlds[1].deliver(from, to, full),
                        "round {round}, {from} -> {to}"
                    );
                    for (_, msg) in &drawn {
                        match msg {
                            Message::GossipRequest { .. } => seen.requests += 1,
                            Message::GossipPayload { .. } => seen.payloads += 1,
                            _ => {}
                        }
                    }
                }
            }
            for node in 0..NODES {
                assert_eq!(
                    worlds[0].nodes[node].ids(),
                    worlds[1].nodes[node].ids(),
                    "round {round}: node {node} holds different sets"
                );
            }
        }
        for node in &worlds[0].nodes {
            assert_eq!(node.len() as u64, next_item, "the run must end converged");
        }
        assert!(
            seen.requests >= 300
                && seen.payloads >= 300
                && seen.dropped >= 300
                && seen.ids_withheld >= 50_000
                && seen.empty_announces >= 100
                && seen.reopened == 1,
            "vacuous: {seen:?}"
        );
    }

    /// `[known, owed, seen]` of every stored item, for `session`.
    fn bits(state: &GossipState, session: Session) -> Vec<[bool; 3]> {
        let set = |mask: u64| mask & session.0 != 0;
        state.items.values().map(|h| [set(h.known), set(h.owed), set(h.seen)]).collect()
    }

    /// Two nodes that both hold `order(1)`, one session each for the other,
    /// starting from the given `[known, owed, seen]`.
    fn pair(start: [[bool; 3]; 2]) -> ([GossipState; 2], [Session; 2]) {
        let mut sessions = [Session::NONE; 2];
        let nodes = [0, 1].map(|i| {
            let mut node = GossipState::new();
            node.insert(order(1));
            let session = node.open_session();
            let mask = |on: bool| if on { session.0 } else { 0 };
            let held = node.items.values_mut().next().unwrap();
            [held.known, held.owed, held.seen] = start[i].map(mask);
            sessions[i] = session;
            node
        });
        (nodes, sessions)
    }

    /// Which node's tick comes first, or neither: both announce before
    /// either list arrives (nodes started together tick together).
    #[derive(Debug, Clone, Copy)]
    enum Phase {
        First(usize),
        Together,
    }

    const PHASES: [Phase; 3] = [Phase::First(0), Phase::First(1), Phase::Together];

    /// One tick of both nodes of a [`pair`]; `lost()` is asked once per
    /// announce. Returns the two lists' lengths.
    fn pair_tick(
        nodes: &mut [GossipState; 2],
        sessions: [Session; 2],
        phase: Phase,
        mut lost: impl FnMut() -> bool,
    ) -> [usize; 2] {
        let mut sent = [0; 2];
        let mut under_way: Vec<(usize, Vec<ItemId>)> = Vec::new();
        let order = match phase {
            Phase::First(first) => [first, 1 - first],
            Phase::Together => [0, 1],
        };
        for node in order {
            if matches!(phase, Phase::First(_)) {
                for (to, ids) in under_way.drain(..) {
                    assert_eq!(nodes[to].on_announce_from(sessions[to], &ids), None);
                }
            }
            let ids = listed(nodes[node].session_announce(sessions[node]));
            sent[node] = ids.len();
            if !lost() {
                under_way.push((1 - node, ids));
            }
        }
        for (to, ids) in under_way {
            assert_eq!(nodes[to].on_announce_from(sessions[to], &ids), None);
        }
        sent
    }

    /// Ticks a pair needs, from any state and in any phase, before both
    /// announces are empty for good once frames stop being lost. The worst
    /// case ticks together, one side knowing and owing nothing, the other
    /// knowing nothing: two mentions before the knowing side answers, its
    /// answer crossing a third; the acknowledgement of that answer is then
    /// the second redundant mention since the answer, so it draws one more;
    /// the fifth tick carries that, and nothing follows.
    const QUIET_AFTER_TICKS: usize = 5;

    /// The first tick from which `QUIET_AFTER_TICKS + 10` more are all
    /// empty on both sides, searching at most `QUIET_AFTER_TICKS` ticks.
    fn ticks_until_quiet(
        nodes: &mut [GossipState; 2],
        sessions: [Session; 2],
        phase: Phase,
    ) -> Option<usize> {
        let sent: Vec<[usize; 2]> = (0..2 * QUIET_AFTER_TICKS + 10)
            .map(|_| pair_tick(nodes, sessions, phase, || false))
            .collect();
        let quiet_from = sent.iter().rposition(|s| *s != [0, 0]).map_or(0, |last| last + 1);
        (quiet_from <= QUIET_AFTER_TICKS).then_some(quiet_from)
    }

    /// Exhaustively: every pair of starting states, every phase, no loss.
    /// Both sides go quiet within `QUIET_AFTER_TICKS` and stay quiet — two
    /// sides that both know cannot keep each other talking.
    #[test]
    fn every_pair_of_states_goes_quiet_and_stays_quiet() {
        let states: Vec<[bool; 3]> = (0..8).map(|s| [s & 1 != 0, s & 2 != 0, s & 4 != 0]).collect();
        let mut worst = 0;
        for a in &states {
            for b in &states {
                for phase in PHASES {
                    let (mut nodes, sessions) = pair([*a, *b]);
                    let quiet = ticks_until_quiet(&mut nodes, sessions, phase)
                        .unwrap_or_else(|| panic!("{a:?} {b:?} {phase:?} keeps talking"));
                    worst = worst.max(quiet);
                    for (node, session) in nodes.iter().zip(sessions) {
                        let [known, owed, _] = bits(node, session)[0];
                        assert!(known && !owed, "{a:?} {b:?} {phase:?}: quiet without knowing");
                    }
                }
            }
        }
        assert_eq!(worst, QUIET_AFTER_TICKS, "the stated bound is the worst case");
    }

    /// Thirty ticks at 30 % loss leave some pair of states; when the loss
    /// stops, that pair is quiet within the same bound.
    #[test]
    fn a_pair_goes_quiet_once_loss_stops() {
        let mut mentions = 0;
        for seed in 0..40 {
            for phase in PHASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut nodes, sessions) = pair([[false; 3]; 2]);
                for _ in 0..30 {
                    let sent = pair_tick(&mut nodes, sessions, phase, || rng.gen_bool(0.3));
                    mentions += sent[0] + sent[1];
                }
                assert!(
                    ticks_until_quiet(&mut nodes, sessions, phase).is_some(),
                    "seed {seed} {phase:?} keeps talking"
                );
            }
        }
        // Not vacuous, and not a mention per tick either: 120 runs of 30
        // ticks of two nodes.
        assert!((300..2400).contains(&mentions), "mentions under loss: {mentions}");
    }

    /// What `seen` is for. A's mention is lost, B's arrives, and A's
    /// acknowledgement of it is lost too: A now knows and owes nothing, B
    /// knows nothing and repeats itself every tick. With the transition
    /// rule alone that is how the link stays forever; the second redundant
    /// mention makes A acknowledge again.
    #[test]
    fn a_lost_acknowledgement_is_repeated() {
        let (mut nodes, [sa, sb]) = pair([[false; 3]; 2]);
        let [a, b] = &mut nodes;
        let id = a.ids();

        assert_eq!(listed(a.session_announce(sa)), id, "A's mention: lost");
        assert_eq!(listed(b.session_announce(sb)), id, "B's mention: delivered");
        a.on_announce_from(sa, &id);
        assert_eq!(bits(a, sa), [[true, true, false]]);
        assert_eq!(listed(a.session_announce(sa)), id, "A's acknowledgement: lost");
        assert_eq!(bits(a, sa), [[true, false, false]]);
        assert_eq!(bits(b, sb), [[false; 3]]);

        // B's first redundant mention is only noted ...
        a.on_announce_from(sa, &listed(b.session_announce(sb)));
        assert_eq!(bits(a, sa), [[true, false, true]]);
        assert!(listed(a.session_announce(sa)).is_empty());
        // ... (noting it again after our own empty announce would be wrong:
        // an empty list mentions nothing, so `seen` stands) the second one
        // is answered.
        a.on_announce_from(sa, &listed(b.session_announce(sb)));
        assert_eq!(bits(a, sa), [[true, true, true]]);
        let ack = listed(a.session_announce(sa));
        assert_eq!(ack, id, "A acknowledges again");
        b.on_announce_from(sb, &ack);
        // B acknowledges the acknowledgement once, and that is the end.
        assert_eq!(listed(b.session_announce(sb)), id);
        a.on_announce_from(sa, &id);
        for _ in 0..10 {
            assert_eq!(pair_tick(&mut nodes, [sa, sb], Phase::Together, || false), [0, 0]);
        }
    }

    #[test]
    fn an_id_repeated_in_one_announce_is_one_mention() {
        let stranger = order(2).id();
        for list in [[0, 0, 1], [0, 1, 0], [1, 0, 0]] {
            let (mut nodes, [sa, _]) = pair([[true, false, false]; 2]);
            let a = &mut nodes[0];
            let held = a.ids()[0].clone();
            let ids = list.map(|i| [&held, &stranger][i].clone());
            // The request still names what is missing, as announced.
            assert_eq!(
                a.on_announce_from(sa, &ids),
                Some(Message::GossipRequest { ids: vec![stranger.clone()] })
            );
            assert_eq!(bits(a, sa), [[true, false, true]], "{list:?}: one mention, not two");
            assert!(listed(a.session_announce(sa)).is_empty());
        }
    }

    /// A payload proves the sender holds the item; a payload of something
    /// already held is our own request answered, not a mention.
    #[test]
    fn payloads_prove_and_do_not_mention() {
        let mut node = GossipState::new();
        let session = node.open_session();
        let fresh = node.on_payload(session, vec![order(1)]);
        assert_eq!(fresh.len(), 1);
        assert_eq!(bits(&node, session), [[true, true, false]], "stored known, one mention owed");
        assert_eq!(listed(node.session_announce(session)).len(), 1);
        for _ in 0..3 {
            assert!(node.on_payload(session, vec![order(1)]).is_empty());
            assert_eq!(bits(&node, session), [[true, false, false]]);
        }
        // Our own item, then the peer's payload of it: news once.
        node.insert(order(2));
        assert_eq!(bits(&node, session).iter().filter(|b| **b == [false; 3]).count(), 1);
        node.on_payload(session, vec![order(2)]);
        assert_eq!(listed(node.session_announce(session)), vec![order(2).id()]);
        assert!(listed(node.session_announce(session)).is_empty());
        // Requests prove nothing.
        node.insert(order(3));
        node.on_request(&[order(3).id()]);
        assert_eq!(listed(node.session_announce(session)), vec![order(3).id()]);
    }

    /// A closed session's bit comes back all-unknown, whoever gets it: a
    /// peer that restarted empty is sent the full set on its new session.
    #[test]
    fn a_reused_session_bit_knows_nothing() {
        let mut node = GossipState::new();
        let keep = node.open_session();
        let old = node.open_session();
        for seq in 0..5 {
            node.insert(order(seq));
        }
        let all = node.ids();
        for session in [keep, old] {
            node.on_announce_from(session, &all);
            assert_eq!(listed(node.session_announce(session)), all, "the acknowledgements");
            node.on_announce_from(session, &all);
            assert!(listed(node.session_announce(session)).is_empty());
        }
        node.close_session(old);
        let new = node.open_session();
        assert_eq!(new, old, "the lowest free bit is handed out again");
        assert_eq!(bits(&node, new), [[false; 3]; 5]);
        assert_eq!(listed(node.session_announce(new)), all);
        assert!(listed(node.session_announce(keep)).is_empty(), "other sessions keep theirs");
    }

    /// 64 sessions have a bit; the 65th has none, is sent the full set on
    /// every tick whatever it says, and still converges.
    #[test]
    fn a_session_without_a_bit_gets_the_full_set() {
        let mut node = GossipState::new();
        let sessions: Vec<Session> = (0..64).map(|_| node.open_session()).collect();
        assert!(sessions.iter().all(|s| s.0.count_ones() == 1));
        assert_eq!(sessions.iter().fold(0, |all, s| all | s.0), u64::MAX, "64 distinct bits");
        let extra = node.open_session();
        assert_eq!(extra, Session::NONE);
        for seq in 0..5 {
            node.insert(order(seq));
        }
        let all = node.ids();

        let mut peer = GossipState::new();
        let back = peer.open_session();
        let Some(Message::GossipRequest { ids }) =
            peer.on_announce_from(back, &listed(node.session_announce(extra)))
        else {
            panic!("the peer holds nothing")
        };
        let Some(Message::GossipPayload { items }) = node.on_request(&ids) else { panic!() };
        assert_eq!(peer.on_payload(back, items).len(), 5);
        assert_eq!(peer.ids(), all);

        for _ in 0..3 {
            node.on_announce_from(extra, &listed(peer.session_announce(back)));
            assert_eq!(listed(node.session_announce(extra)), all, "nothing is remembered");
        }
        assert!(sessions.iter().all(|s| bits(&node, *s) == [[false; 3]; 5]));
        // Closing it frees nothing and clears nothing.
        node.close_session(extra);
        assert_eq!(node.open_session(), Session::NONE);
    }
}
