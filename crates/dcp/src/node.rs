//! The async node runtime: transport listener, per-peer reader/writer
//! tasks, periodic anti-entropy, backoff dialing, and graceful shutdown.
//!
//! Concurrency layout (one node):
//!
//! * an **accept loop** task owning the [`crate::transport::Listener`];
//! * a **dialer task** draining a queue of addresses to (re)connect, each
//!   dial retrying with capped exponential backoff ([`BackoffConfig`]);
//! * per connection, a **reader task** (dispatches inbound frames) and a
//!   **writer task** (drains an unbounded mpsc of outbound frames) over
//!   the split connection;
//! * an **anti-entropy task** that on a timer pings every peer and
//!   announces to each the ids that peer is not known to hold (see
//!   [`crate::gossip`]; an empty list is still sent, so a link carries the
//!   same kinds of frame at the same times whatever the peer has proven);
//! * shared state ([`GossipState`], [`Ledger`], [`OrderBook`], withdrawal
//!   log) behind a `parking_lot::Mutex` — never held across an await.
//!
//! The node is transport-agnostic: production runs on [`Transport::Tcp`],
//! tests on [`Transport::Sim`] under paused tokio time (see
//! [`crate::testkit`]). When a dialed connection drops, the reader task
//! re-queues the address on the dialer, so nodes ride out peer restarts
//! and link kills without operator action.
//!
//! A peer's outbound queue carries **encoded frames**, not messages:
//! `queue_frames` encodes a message once and queues the same `Arc<[u8]>`
//! for every recipient, so a publish announced to eight peers is one JSON
//! encoding, not eight, and no `Message` is cloned per peer. Each queue
//! still receives what it received before, in the same order — the writer
//! tasks, the links' RNG draws and the `SimNet` event log cannot tell.
//! (The anti-entropy announce is the one message made per peer: its list is
//! what that peer's session has not proven.)
//! It is also where a gossip list too long for one frame
//! ([`crate::wire::MAX_FRAME_BYTES`]) is cut in halves until the pieces
//! fit, so the writer task only ever sees frames the codec accepted.
//!
//! Shutdown is a `tokio::sync::watch` broadcast: every task selects on it.

use crate::control::ReplicatedControl;
use crate::crypto::KeyDirectory;
use crate::discovery::AddressBook;
use crate::gossip::{GossipState, Session};
use crate::ledger::{Ledger, LedgerConfig, SettlementOutcome};
use crate::market::{verify_order, OrderBook, Trade};
use crate::messages::{GossipItem, Message, NodeId, SettlementNote, WithdrawalNotice};
use crate::poc::{verify_attestation, verify_receipt, Attestation, Scenario};
use crate::transport::{Connection, Transport};
use crate::wire;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::{mpsc, watch};

/// Dial retry policy: capped exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the second attempt (doubles each failure).
    pub initial: Duration,
    /// Ceiling on the per-attempt delay.
    pub max: Duration,
    /// Give up after this many failed attempts (0 = retry until shutdown).
    pub max_attempts: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            initial: Duration::from_millis(50),
            max: Duration::from_secs(2),
            max_attempts: 8,
        }
    }
}

/// Node configuration.
#[derive(Clone)]
pub struct NodeConfig {
    /// This node's identity (also its signing party id).
    pub node_id: NodeId,
    /// Address to listen on (use port 0 for an ephemeral port / fresh sim
    /// address).
    pub listen: SocketAddr,
    /// How this node reaches peers (real TCP or the fault simulator).
    pub transport: Transport,
    /// The shared key directory.
    pub keys: KeyDirectory,
    /// Ledger policy.
    pub ledger: LedgerConfig,
    /// Shared scenario knowledge for receipt verification. When present and
    /// `auto_attest` is set, the node attests every incoming receipt.
    pub scenario: Option<Arc<Scenario>>,
    /// Attest receipts automatically on arrival.
    pub auto_attest: bool,
    /// Multi-party control group this node participates in (None = the
    /// node ignores control-plane events).
    pub control: Option<mpleo::control::ControlGroup>,
    /// Anti-entropy announce interval.
    pub anti_entropy: Duration,
    /// Advertise the listen address and run peer exchange.
    pub advertise: bool,
    /// Ticks of silence (anti-entropy intervals) before a peer is evicted.
    pub silence_limit: u32,
    /// Dial retry policy.
    pub backoff: BackoffConfig,
}

impl NodeConfig {
    /// A localhost TCP config with sane test defaults.
    pub fn local(node_id: impl Into<NodeId>, keys: KeyDirectory) -> Self {
        NodeConfig {
            node_id: node_id.into(),
            listen: "127.0.0.1:0".parse().expect("static addr"),
            transport: Transport::Tcp,
            keys,
            ledger: LedgerConfig::default(),
            scenario: None,
            auto_attest: false,
            control: None,
            anti_entropy: Duration::from_millis(200),
            advertise: false,
            silence_limit: 50,
            backoff: BackoffConfig::default(),
        }
    }

    /// A config on the given simulated network (fresh sim address).
    pub fn sim(node_id: impl Into<NodeId>, keys: KeyDirectory, net: &Arc<crate::transport::SimNet>) -> Self {
        let mut cfg = Self::local(node_id, keys);
        cfg.transport = net.transport();
        cfg
    }
}

/// When advertising, keep dialing discovered peers until this many sessions
/// are up.
const TARGET_DEGREE: usize = 3;

/// One encoded message, shared by every queue it waits in.
type Frame = Arc<[u8]>;

/// Sending end of a peer's outbound queue.
type FrameTx = mpsc::UnboundedSender<Frame>;

struct PeerSlot {
    tx: FrameTx,
    /// Ticks since we last heard a frame from this peer.
    silent_ticks: u32,
    /// This connection's bit in the gossip store's per-item masks, opened
    /// with the slot and closed wherever the slot is removed
    /// ([`State::retain_peers`]). Frames are attributed to it only through
    /// the slot: a reader that outlives its slot has no session.
    session: Session,
}

struct State {
    gossip: GossipState,
    ledger: Ledger,
    book: OrderBook,
    withdrawals: Vec<WithdrawalNotice>,
    control: Option<ReplicatedControl>,
    book_addr: AddressBook,
    peers: Vec<PeerSlot>,
    rejected: u64,
    /// Ids listed in tick announces, and held ids those lists left out.
    tick_ids: (u64, u64),
}

impl State {
    fn new(config: &NodeConfig, local_addr: SocketAddr) -> State {
        State {
            gossip: GossipState::new(),
            ledger: Ledger::new(config.ledger),
            book: OrderBook::new(),
            withdrawals: Vec::new(),
            control: config.control.clone().map(ReplicatedControl::new),
            book_addr: AddressBook::new(Some(local_addr)),
            peers: Vec::new(),
            rejected: 0,
            tick_ids: (0, 0),
        }
    }

    /// Queue `msg` for every peer.
    fn broadcast(&mut self, msg: Message) {
        self.rejected += queue_frames(self.peers.iter().map(|p| &p.tx), msg);
    }

    /// Queue `msg` for one peer.
    fn reply(&mut self, to: &FrameTx, msg: Message) {
        self.rejected += queue_frames([to], msg);
    }

    /// Register a connection whose outbound queue is `tx`: open its
    /// session and queue the handshake and the session's first announce —
    /// nothing is known about a new session's peer, so the full id set.
    fn add_peer(&mut self, config: &NodeConfig, tx: FrameTx) {
        let hello = Message::Hello {
            node_id: config.node_id.clone(),
            listen_addr: config.advertise.then(|| config.listen.to_string()),
        };
        self.reply(&tx, hello);
        let session = self.gossip.open_session();
        if let Some(announce) = self.gossip.session_announce(session) {
            self.reply(&tx, announce);
        }
        self.peers.push(PeerSlot { tx, silent_ticks: 0, session });
    }

    /// Remove the peers `keep` refuses, closing their sessions.
    fn retain_peers(&mut self, keep: impl Fn(&PeerSlot) -> bool) {
        let State { peers, gossip, .. } = self;
        peers.retain(|p| {
            let kept = keep(p);
            if !kept {
                gossip.close_session(p.session);
            }
            kept
        });
    }

    /// The tick's anti-entropy announce, one list per peer in `peers`
    /// order. A store that holds anything queues a frame for every peer,
    /// empty list or not.
    fn announce_tick(&mut self) {
        let State { peers, gossip, rejected, tick_ids, .. } = self;
        for peer in peers.iter() {
            let Some(announce) = gossip.session_announce(peer.session) else { return };
            if let Message::GossipAnnounce { ids } = &announce {
                tick_ids.0 += ids.len() as u64;
                tick_ids.1 += (gossip.len() - ids.len()) as u64;
            }
            *rejected += queue_frames([&peer.tx], announce);
        }
    }
}

/// Encode `msg` once and queue that one frame on every queue in `to`.
///
/// A gossip list the codec refuses as over [`wire::MAX_FRAME_BYTES`] goes
/// out as its two halves instead, each sent the same way; ids and items are
/// independent, so the receiver cannot tell one long list from several
/// short ones. Returns how many ids or items were dropped because one alone
/// does not fit a frame — an oversized message must never reach the writer
/// task, which could only close the link over it, and the redial would find
/// the same message waiting.
fn queue_frames<'a>(to: impl IntoIterator<Item = &'a FrameTx> + Clone, msg: Message) -> u64 {
    match wire::encode(&msg) {
        Ok(bytes) => {
            let frame = Frame::from(bytes);
            for tx in to {
                let _ = tx.send(frame.clone());
            }
            0
        }
        Err(_) => match halves(msg) {
            Some((head, tail)) => queue_frames(to.clone(), head) + queue_frames(to, tail),
            None => 1,
        },
    }
}

/// Cut a gossip list of two or more entries in two; `None` for anything
/// that cannot be made smaller.
fn halves(msg: Message) -> Option<(Message, Message)> {
    fn cut<T>(mut list: Vec<T>) -> Option<(Vec<T>, Vec<T>)> {
        (list.len() > 1).then(|| {
            let tail = list.split_off(list.len() / 2);
            (list, tail)
        })
    }
    match msg {
        Message::GossipAnnounce { ids } => cut(ids)
            .map(|(a, b)| (Message::GossipAnnounce { ids: a }, Message::GossipAnnounce { ids: b })),
        Message::GossipRequest { ids } => cut(ids)
            .map(|(a, b)| (Message::GossipRequest { ids: a }, Message::GossipRequest { ids: b })),
        Message::GossipPayload { items } => cut(items).map(|(a, b)| {
            (Message::GossipPayload { items: a }, Message::GossipPayload { items: b })
        }),
        _ => None,
    }
}

/// The node entry point.
pub struct Node;

impl Node {
    /// Bind the listener and spawn the node's tasks. Returns a handle for
    /// interaction and shutdown.
    pub async fn start(mut config: NodeConfig) -> io::Result<NodeHandle> {
        let (mut listener, local_addr) = config.transport.bind(config.listen).await?;
        config.listen = local_addr; // publish the resolved address
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        let (dial_tx, mut dial_rx) = mpsc::unbounded_channel::<SocketAddr>();
        let state = Arc::new(Mutex::new(State::new(&config, local_addr)));
        let config = Arc::new(config);

        // Accept loop.
        {
            let state = state.clone();
            let config = config.clone();
            let dial_tx = dial_tx.clone();
            let mut shutdown = shutdown_rx.clone();
            tokio::spawn(async move {
                loop {
                    tokio::select! {
                        _ = shutdown.changed() => break,
                        accepted = listener.accept() => {
                            match accepted {
                                Ok(conn) => {
                                    spawn_peer(conn, state.clone(), config.clone(), shutdown.clone(), None, dial_tx.clone());
                                }
                                Err(_) => break,
                            }
                        }
                    }
                }
            });
        }

        // Dialer: drains the (re)connect queue; each dial retries with
        // backoff in its own task so a dead peer never blocks the rest.
        {
            let state = state.clone();
            let config = config.clone();
            let dial_tx = dial_tx.clone();
            let mut shutdown = shutdown_rx.clone();
            tokio::spawn(async move {
                loop {
                    let addr = tokio::select! {
                        _ = shutdown.changed() => break,
                        a = dial_rx.recv() => match a {
                            Some(a) => a,
                            None => break,
                        },
                    };
                    let state = state.clone();
                    let config = config.clone();
                    let shutdown = shutdown.clone();
                    let dial_tx = dial_tx.clone();
                    tokio::spawn(async move {
                        match dial_with_backoff(&config, addr, shutdown.clone()).await {
                            Ok(conn) => {
                                state.lock().book_addr.mark_connected(addr);
                                spawn_peer(conn, state, config, shutdown, Some(addr), dial_tx);
                            }
                            Err(_) => state.lock().book_addr.mark_disconnected(addr),
                        }
                    });
                }
            });
        }

        // Anti-entropy + peer-exchange loop.
        {
            let state = state.clone();
            let mut shutdown = shutdown_rx.clone();
            let interval = config.anti_entropy;
            let config2 = config.clone();
            let dial_tx = dial_tx.clone();
            tokio::spawn(async move {
                let mut ticker = tokio::time::interval(interval);
                ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Skip);
                loop {
                    tokio::select! {
                        _ = shutdown.changed() => break,
                        _ = ticker.tick() => {
                            let dials = {
                                let mut st = state.lock();
                                // Liveness: ping everyone, age the silence
                                // counters, and drop peers that have said
                                // nothing for many ticks (a pong resets).
                                st.broadcast(Message::Ping { nonce: 0 });
                                for p in st.peers.iter_mut() {
                                    p.silent_ticks = p.silent_ticks.saturating_add(1);
                                }
                                let limit = config2.silence_limit;
                                st.retain_peers(|p| p.silent_ticks <= limit && !p.tx.is_closed());
                                st.announce_tick();
                                if config2.advertise {
                                    let addrs: Vec<String> = st
                                        .book_addr
                                        .shareable()
                                        .iter()
                                        .map(|a| a.to_string())
                                        .collect();
                                    if !addrs.is_empty() {
                                        st.broadcast(Message::PeerExchange { addrs });
                                    }
                                    let cands = st.book_addr.dial_candidates(TARGET_DEGREE);
                                    for c in &cands {
                                        st.book_addr.mark_connected(*c); // optimistic
                                    }
                                    cands
                                } else {
                                    Vec::new()
                                }
                            };
                            for addr in dials {
                                let _ = dial_tx.send(addr);
                            }
                        }
                    }
                }
            });
        }

        Ok(NodeHandle { config, local_addr, state, shutdown: shutdown_tx, shutdown_rx, dial_tx })
    }
}

/// Dial `addr` with capped exponential backoff. Returns the connection, the
/// final error after `max_attempts` failures, or `Interrupted` on shutdown.
async fn dial_with_backoff(
    config: &NodeConfig,
    addr: SocketAddr,
    mut shutdown: watch::Receiver<bool>,
) -> io::Result<Connection> {
    let policy = config.backoff;
    let mut delay = policy.initial;
    let mut attempts = 0u32;
    loop {
        if *shutdown.borrow() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "node shutting down"));
        }
        match config.transport.connect(config.listen, addr).await {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                attempts += 1;
                if policy.max_attempts != 0 && attempts >= policy.max_attempts {
                    return Err(e);
                }
                tokio::select! {
                    _ = shutdown.changed() => {
                        return Err(io::Error::new(io::ErrorKind::Interrupted, "node shutting down"));
                    }
                    _ = tokio::time::sleep(delay) => {}
                }
                delay = (delay * 2).min(policy.max);
            }
        }
    }
}

/// Handle to a running node.
pub struct NodeHandle {
    config: Arc<NodeConfig>,
    /// Bound listen address (with the resolved ephemeral port).
    pub local_addr: SocketAddr,
    state: Arc<Mutex<State>>,
    shutdown: watch::Sender<bool>,
    shutdown_rx: watch::Receiver<bool>,
    dial_tx: mpsc::UnboundedSender<SocketAddr>,
}

impl NodeHandle {
    /// This node's id.
    pub fn node_id(&self) -> &NodeId {
        &self.config.node_id
    }

    /// Dial a peer (retrying per the node's [`BackoffConfig`]) and start
    /// gossiping with it. Returns once a session is up, or with the last
    /// dial error after the attempt budget is spent.
    pub async fn connect(&self, addr: SocketAddr) -> io::Result<()> {
        let conn = dial_with_backoff(&self.config, addr, self.shutdown_rx.clone()).await?;
        self.state.lock().book_addr.mark_connected(addr);
        spawn_peer(
            conn,
            self.state.clone(),
            self.config.clone(),
            self.shutdown_rx.clone(),
            Some(addr),
            self.dial_tx.clone(),
        );
        Ok(())
    }

    /// Publish an application item: store, apply, and announce to peers.
    pub fn publish(&self, item: GossipItem) {
        let mut st = self.state.lock();
        publish_locked(&mut st, &self.config, item);
    }

    /// Number of gossip items held.
    pub fn item_count(&self) -> usize {
        self.state.lock().gossip.len()
    }

    /// Number of live peer connections.
    pub fn peer_count(&self) -> usize {
        self.state.lock().peers.iter().filter(|p| !p.tx.is_closed()).count()
    }

    /// Digest of the confirmed-receipt set (equal across converged nodes).
    pub fn ledger_digest(&self) -> String {
        self.state.lock().ledger.confirmed_digest()
    }

    /// Number of confirmed receipts.
    pub fn confirmed_count(&self) -> usize {
        self.state.lock().ledger.confirmed_ids().len()
    }

    /// Reward balances minted by confirmed receipts.
    pub fn reward_balances(&self) -> BTreeMap<String, f64> {
        self.state.lock().ledger.reward_balances()
    }

    /// Settled account balances (fed by gossiped settlement notes).
    pub fn account_balances(&self) -> BTreeMap<String, f64> {
        self.state.lock().ledger.accounts().balances().clone()
    }

    /// Number of settlement batches applied to the account book.
    pub fn settlements_applied(&self) -> usize {
        self.state.lock().ledger.accounts().settlements_applied()
    }

    /// Trades executed by the local replica of the market.
    pub fn trades(&self) -> Vec<Trade> {
        self.state.lock().book.trades().to_vec()
    }

    /// Net market settlement per party.
    pub fn market_settlement(&self) -> BTreeMap<String, f64> {
        self.state.lock().book.settlement()
    }

    /// Withdrawal notices seen (signature-verified).
    pub fn withdrawals(&self) -> Vec<WithdrawalNotice> {
        self.state.lock().withdrawals.clone()
    }

    /// Items rejected by verification (bad signature / failed physics),
    /// plus ids and items dropped because one alone overflows a frame.
    pub fn rejected_count(&self) -> u64 {
        self.state.lock().rejected
    }

    /// Work done by this node's anti-entropy ticks so far, as `(ids listed
    /// in tick announces, held ids those lists left out because the peer
    /// had proven it holds them)`. The two add up to what full-set
    /// announces would have carried.
    pub fn tick_announce_ids(&self) -> (u64, u64) {
        self.state.lock().tick_ids
    }

    /// Number of peer addresses learned via handshake / peer exchange.
    pub fn known_peer_addrs(&self) -> usize {
        self.state.lock().book_addr.known_count()
    }

    /// State of a control proposal, if this node runs a control group and
    /// has seen the proposal.
    pub fn control_state(&self, proposal_id: u64) -> Option<mpleo::control::ProposalState> {
        self.state.lock().control.as_ref().and_then(|c| c.state(proposal_id))
    }

    /// Digest of the executed control-command log (compare across nodes).
    pub fn control_log_digest(&self) -> Option<u64> {
        self.state.lock().control.as_ref().map(|c| c.group.log_digest())
    }

    /// Signal all tasks to stop. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.shutdown.send(true);
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        let _ = self.shutdown.send(true);
    }
}

fn spawn_peer(
    conn: Connection,
    state: Arc<Mutex<State>>,
    config: Arc<NodeConfig>,
    mut shutdown: watch::Receiver<bool>,
    dialed_addr: Option<SocketAddr>,
    dial_tx: mpsc::UnboundedSender<SocketAddr>,
) {
    let (mut reader, mut writer) = conn.into_split();
    let (tx, mut rx) = mpsc::unbounded_channel::<Frame>();

    // Register the peer slot and queue the handshake + initial announce.
    state.lock().add_peer(&config, tx.clone());

    // Writer task.
    {
        let mut shutdown = shutdown.clone();
        tokio::spawn(async move {
            loop {
                tokio::select! {
                    _ = shutdown.changed() => break,
                    frame = rx.recv() => {
                        let Some(frame) = frame else { break };
                        if writer.send_frame(frame).await.is_err() {
                            break;
                        }
                    }
                }
            }
        });
    }

    // Reader task.
    tokio::spawn(async move {
        loop {
            tokio::select! {
                _ = shutdown.changed() => break,
                frame = reader.recv() => {
                    match frame {
                        Ok(Some(msg)) => {
                            let mut st = state.lock();
                            dispatch(&mut st, &config, &tx, msg);
                        }
                        Ok(None) | Err(_) => break,
                    }
                }
            }
        }
        // Connection gone: drop our sender so the slot reads as closed.
        {
            let mut st = state.lock();
            st.retain_peers(|p| !p.tx.same_channel(&tx));
            if let Some(addr) = dialed_addr {
                st.book_addr.mark_disconnected(addr);
            }
        }
        // We dialed this peer: hand the address back to the dialer so the
        // session is re-established with backoff once the peer returns.
        if let Some(addr) = dialed_addr {
            if !*shutdown.borrow() {
                let _ = dial_tx.send(addr);
            }
        }
    });
}

/// Handle one inbound message. Runs under the state lock; must not await.
fn dispatch(st: &mut State, config: &NodeConfig, from: &FrameTx, msg: Message) {
    // A peer evicted for silence may still be talking: it has no slot, so
    // no session, and what it says proves nothing to whoever took its bit.
    let mut session = Session::NONE;
    if let Some(slot) = st.peers.iter_mut().find(|p| p.tx.same_channel(from)) {
        slot.silent_ticks = 0;
        session = slot.session;
    }
    match msg {
        Message::Hello { listen_addr, .. } => {
            if let Some(addr) = listen_addr.and_then(|a| a.parse().ok()) {
                st.book_addr.learn([addr]);
            }
        }
        Message::Ping { nonce } => st.reply(from, Message::Pong { nonce }),
        Message::Pong { .. } => {}
        Message::PeerExchange { addrs } => {
            st.book_addr.learn(addrs.iter().filter_map(|a| a.parse().ok()));
        }
        Message::GossipAnnounce { ids } => {
            if let Some(req) = st.gossip.on_announce_from(session, &ids) {
                st.reply(from, req);
            }
        }
        Message::GossipRequest { ids } => {
            if let Some(payload) = st.gossip.on_request(&ids) {
                st.reply(from, payload);
            }
        }
        Message::GossipPayload { items } => {
            let fresh = st.gossip.on_payload(session, items);
            if fresh.is_empty() {
                return;
            }
            let ids: Vec<String> = fresh.iter().map(|(id, _)| id.clone()).collect();
            for (id, item) in fresh {
                apply_item(st, config, &id, &item);
            }
            // Re-announce the new items to every other peer.
            let others = st.peers.iter().map(|p| &p.tx).filter(|tx| !tx.same_channel(from));
            st.rejected += queue_frames(others, Message::GossipAnnounce { ids });
        }
    }
}

/// Publish a locally originated item under the lock.
fn publish_locked(st: &mut State, config: &NodeConfig, item: GossipItem) {
    let Some(id) = st.gossip.insert(item.clone()) else {
        return; // duplicate
    };
    apply_item(st, config, &id, &item);
    st.broadcast(Message::GossipAnnounce { ids: vec![id] });
}

/// Apply a freshly learned item to the application state (ledger / book /
/// withdrawal log), with verification.
fn apply_item(st: &mut State, config: &NodeConfig, id: &str, item: &GossipItem) {
    match item {
        GossipItem::Receipt(receipt) => {
            st.ledger.insert_receipt(id.to_string(), receipt.clone());
            if config.auto_attest {
                if let Some(scenario) = &config.scenario {
                    let valid = verify_receipt(receipt, scenario, &config.keys).is_ok();
                    if let Some(att) =
                        Attestation::create(&config.keys, id, &config.node_id.0, valid)
                    {
                        publish_locked(st, config, GossipItem::Attestation(att));
                    }
                }
            }
        }
        GossipItem::Attestation(att) => {
            if verify_attestation(att, &config.keys) {
                st.ledger.insert_attestation(att);
            } else {
                st.rejected += 1;
            }
        }
        GossipItem::Order(order) => {
            if verify_order(&config.keys, order) {
                st.book.submit(order.clone());
            } else {
                st.rejected += 1;
            }
        }
        GossipItem::Withdrawal(notice) => {
            let bytes = WithdrawalNotice::signing_bytes(&notice.party, &notice.sat_ids, notice.effective_s);
            if config.keys.verify(&notice.party, &bytes, &notice.signature) {
                st.withdrawals.push(notice.clone());
            } else {
                st.rejected += 1;
            }
        }
        GossipItem::Control(event) => {
            if !event.verify(&config.keys) {
                st.rejected += 1;
            } else if let Some(control) = st.control.as_mut() {
                control.apply(event);
            }
        }
        GossipItem::Settlement(note) => {
            let bytes = SettlementNote::signing_bytes(note.epoch, &note.proposer, &note.transfers);
            // Short-circuit: a note with a bad signature never reaches the ledger.
            if !config.keys.verify(&note.proposer, &bytes, &note.signature)
                || st.ledger.apply_settlement_note(note) == SettlementOutcome::Rejected
            {
                st.rejected += 1;
            }
        }
    }
}

/// [`queue_frames`] without a network: plain tests on the queues alone.
#[cfg(test)]
mod frame_tests {
    use super::*;
    use crate::market::make_order;
    use bytes::BytesMut;

    /// Everything queued on `rx`, as `(frame, decoded message)`. Every
    /// sender must be gone, or this waits for more.
    fn drain(mut rx: mpsc::UnboundedReceiver<Frame>) -> Vec<(Frame, Message)> {
        let rt = tokio::runtime::Builder::new_current_thread().build().unwrap();
        rt.block_on(async {
            let mut out = Vec::new();
            while let Some(frame) = rx.recv().await {
                let msg = wire::decode(&mut BytesMut::from(&frame[..])).unwrap().unwrap();
                out.push((frame, msg));
            }
            out
        })
    }

    /// `msg` through [`queue_frames`] to one queue: the dropped count and
    /// what was queued.
    fn queued(msg: Message) -> (u64, Vec<Message>) {
        let (tx, rx) = mpsc::unbounded_channel::<Frame>();
        let dropped = queue_frames([&tx], msg);
        drop(tx);
        (dropped, drain(rx).into_iter().map(|(_, msg)| msg).collect())
    }

    #[test]
    fn one_frame_serves_every_queue() {
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..3).map(|_| mpsc::unbounded_channel::<Frame>()).unzip();
        let announce = Message::GossipAnnounce { ids: vec!["ab".repeat(32), "cd".repeat(32)] };
        assert_eq!(queue_frames(&txs, announce.clone()), 0);
        drop(txs);
        let got: Vec<_> = rxs.into_iter().map(drain).collect();
        for queue in &got {
            assert_eq!(queue.len(), 1, "one message, one frame");
            assert_eq!(queue[0].1, announce);
            assert!(Arc::ptr_eq(&queue[0].0, &got[0][0].0), "the frame is shared, not copied");
        }
    }

    #[test]
    fn a_list_over_the_frame_cap_goes_out_in_halves() {
        // 67 bytes an id: 16 000 of them are just over the 1 MiB cap.
        let ids: Vec<String> = (0..16_000).map(|i| format!("{i:064x}")).collect();
        let announce = Message::GossipAnnounce { ids: ids.clone() };
        assert!(wire::encode(&announce).is_err(), "the list must not fit one frame");
        let (dropped, frames) = queued(announce);
        assert_eq!((dropped, frames.len()), (0, 2));
        let seen: Vec<String> = frames
            .into_iter()
            .flat_map(|msg| match msg {
                Message::GossipAnnounce { ids } => ids,
                other => panic!("not an announce: {other:?}"),
            })
            .collect();
        assert_eq!(seen, ids, "every id once, in order");

        // One entry that alone overflows a frame is dropped and counted;
        // its neighbours still go out.
        let huge = "f".repeat(wire::MAX_FRAME_BYTES);
        assert_eq!(queued(Message::GossipRequest { ids: vec![huge.clone()] }), (1, vec![]));
        assert_eq!(
            queued(Message::GossipRequest { ids: vec![huge, "0".repeat(64)] }),
            (1, vec![Message::GossipRequest { ids: vec!["0".repeat(64)] }])
        );
    }

    /// The lists of the announces in `frames`.
    fn announces(frames: Vec<(Frame, Message)>) -> Vec<Vec<String>> {
        let lists = frames.into_iter().filter_map(|(_, msg)| match msg {
            Message::GossipAnnounce { ids } => Some(ids),
            _ => None,
        });
        lists.collect()
    }

    /// A peer evicted for silence keeps its connection until it closes it,
    /// and its reader keeps dispatching what it says. By then its session
    /// bit may be another peer's: the evicted peer's frames must prove
    /// nothing about that one, while the same frame from the slot's owner
    /// does.
    #[test]
    fn an_evicted_peer_proves_nothing_for_the_next_owner_of_its_bit() {
        let keys = crate::testkit::test_keys(&["a"]);
        let config = NodeConfig::local("a", keys.clone());
        let mut st = State::new(&config, config.listen);
        for seq in 0..3 {
            let order = make_order(&keys, "a", true, 1.0, 1, seq).unwrap();
            publish_locked(&mut st, &config, GossipItem::Order(order));
        }
        let all = st.gossip.ids();

        let (evicted_tx, _evicted_rx) = mpsc::unbounded_channel::<Frame>();
        st.add_peer(&config, evicted_tx.clone());
        let bit = st.peers[0].session;
        st.retain_peers(|_| false);
        let (owner_tx, owner_rx) = mpsc::unbounded_channel::<Frame>();
        st.add_peer(&config, owner_tx.clone());
        assert_eq!(st.peers[0].session, bit, "the slot is recycled");

        // The evicted peer's reader is still running.
        dispatch(&mut st, &config, &evicted_tx, Message::GossipAnnounce { ids: all.clone() });
        st.announce_tick();
        st.announce_tick();
        assert_eq!(st.tick_ids, (6, 0), "the owner is still not known to hold anything");
        // The owner says the same thing: one acknowledgement, then silence.
        dispatch(&mut st, &config, &owner_tx, Message::GossipAnnounce { ids: all.clone() });
        st.announce_tick();
        st.announce_tick();
        assert_eq!(st.tick_ids, (9, 3));

        drop((st, evicted_tx, owner_tx));
        let lists = [all.clone(), all.clone(), all.clone(), all, Vec::new()];
        assert_eq!(announces(drain(owner_rx)), lists, "the first announce, then the four ticks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::make_order;
    use crate::poc::CoverageReceipt;
    use crate::testkit::converge_until;
    use crate::transport::SimNet;

    fn keys() -> KeyDirectory {
        let mut k = KeyDirectory::new();
        for p in ["n1", "n2", "n3", "owner", "gs"] {
            k.register_derived(p, b"net-seed");
        }
        k
    }

    /// Virtual-time convergence on an item-count floor (replaces the old
    /// wall-clock sleep-and-poll helper).
    async fn converged(nodes: &[&NodeHandle], items: usize, timeout_ms: u64) -> bool {
        converge_until(Duration::from_millis(timeout_ms), || {
            nodes.iter().all(|n| n.item_count() >= items)
        })
        .await
    }

    #[tokio::test(start_paused = true)]
    async fn two_nodes_gossip_an_item() {
        let net = SimNet::new(1);
        let a = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let b = Node::start(NodeConfig::sim("n2", keys(), &net)).await.unwrap();
        b.connect(a.local_addr).await.unwrap();

        let receipt = CoverageReceipt::create(&keys(), 1, "gs", "owner", 10.0, 50.0).unwrap();
        a.publish(GossipItem::Receipt(receipt));
        assert!(converged(&[&a, &b], 1, 2000).await, "item did not propagate");
        a.shutdown();
        b.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn line_topology_floods() {
        // n1 - n2 - n3: items published at n1 must reach n3 through n2.
        let net = SimNet::new(2);
        let n1 = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let n2 = Node::start(NodeConfig::sim("n2", keys(), &net)).await.unwrap();
        let n3 = Node::start(NodeConfig::sim("n3", keys(), &net)).await.unwrap();
        n2.connect(n1.local_addr).await.unwrap();
        n3.connect(n2.local_addr).await.unwrap();

        for seq in 0..5 {
            let order = make_order(&keys(), "n1", seq % 2 == 0, 1.0 + seq as f64, 10, seq).unwrap();
            n1.publish(GossipItem::Order(order));
        }
        assert!(converged(&[&n1, &n2, &n3], 5, 3000).await, "flood incomplete");
        for n in [&n1, &n2, &n3] {
            n.shutdown();
        }
    }

    #[tokio::test(start_paused = true)]
    async fn late_joiner_syncs_via_anti_entropy() {
        let net = SimNet::new(3);
        let a = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let order = make_order(&keys(), "n1", true, 2.0, 5, 0).unwrap();
        a.publish(GossipItem::Order(order));

        // b joins after the item exists.
        let b = Node::start(NodeConfig::sim("n2", keys(), &net)).await.unwrap();
        b.connect(a.local_addr).await.unwrap();
        assert!(converged(&[&b], 1, 2000).await, "late joiner did not sync");
        a.shutdown();
        b.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn bad_signature_rejected_but_gossiped() {
        let net = SimNet::new(4);
        let a = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let b = Node::start(NodeConfig::sim("n2", keys(), &net)).await.unwrap();
        b.connect(a.local_addr).await.unwrap();

        let mut order = make_order(&keys(), "n1", true, 2.0, 5, 0).unwrap();
        order.signature = "00".repeat(32);
        a.publish(GossipItem::Order(order));
        assert!(converged(&[&a, &b], 1, 2000).await);
        assert_eq!(a.trades().len(), 0);
        assert_eq!(a.rejected_count(), 1);
        assert_eq!(b.rejected_count(), 1);
        a.shutdown();
        b.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn replicated_market_converges() {
        let net = SimNet::new(5);
        let a = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let b = Node::start(NodeConfig::sim("n2", keys(), &net)).await.unwrap();
        b.connect(a.local_addr).await.unwrap();
        // Let the mesh settle so both replicas see orders in gossip order.
        tokio::time::sleep(Duration::from_millis(50)).await;

        let ask = make_order(&keys(), "n1", false, 1.0, 10, 0).unwrap();
        a.publish(GossipItem::Order(ask));
        assert!(converged(&[&a, &b], 1, 2000).await);
        let bid = make_order(&keys(), "n2", true, 1.5, 4, 0).unwrap();
        b.publish(GossipItem::Order(bid));
        assert!(converged(&[&a, &b], 2, 2000).await);

        // Both replicas executed the same trade.
        assert!(
            converge_until(Duration::from_secs(2), || {
                !a.trades().is_empty() && !b.trades().is_empty()
            })
            .await,
            "trade did not replicate"
        );
        assert_eq!(a.trades(), b.trades());
        assert_eq!(a.trades().len(), 1);
        assert_eq!(a.trades()[0].quantity, 4);
        let s = a.market_settlement();
        assert!((s.values().sum::<f64>()).abs() < 1e-9);
        a.shutdown();
        b.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn peer_exchange_self_assembles_mesh() {
        // a <- b, a <- c: with PEX enabled, b and c discover each other
        // through a and dial directly, densifying the mesh.
        let net = SimNet::new(6);
        let mk = |id: &str| {
            let mut cfg = NodeConfig::sim(id, keys(), &net);
            cfg.advertise = true;
            cfg.anti_entropy = Duration::from_millis(50);
            cfg
        };
        let a = Node::start(mk("n1")).await.unwrap();
        let b = Node::start(mk("n2")).await.unwrap();
        let c = Node::start(mk("n3")).await.unwrap();
        b.connect(a.local_addr).await.unwrap();
        c.connect(a.local_addr).await.unwrap();

        // Everyone learns both other addresses via handshake + PEX.
        assert!(
            converge_until(Duration::from_secs(2), || {
                [&a, &b, &c].iter().all(|n| n.known_peer_addrs() >= 2)
            })
            .await,
            "peer exchange did not spread addresses: {} {} {}",
            a.known_peer_addrs(),
            b.known_peer_addrs(),
            c.known_peer_addrs()
        );

        // The dial loop raises everyone's degree beyond the initial link.
        assert!(
            converge_until(Duration::from_secs(2), || b.peer_count() >= 2 && c.peer_count() >= 2)
                .await,
            "PEX dialing did not densify the mesh: b={} c={}",
            b.peer_count(),
            c.peer_count()
        );

        let order = make_order(&keys(), "n2", true, 1.0, 1, 0).unwrap();
        b.publish(GossipItem::Order(order));
        assert!(converged(&[&a, &b, &c], 1, 3000).await);
        for n in [&a, &b, &c] {
            n.shutdown();
        }
    }

    #[tokio::test(start_paused = true)]
    async fn connect_retries_until_listener_appears() {
        // The dial target comes up 300 virtual ms after the first attempt:
        // backoff must ride out the refusals and then converge.
        let net = SimNet::new(7);
        let a = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let target: SocketAddr = "10.66.200.1:9000".parse().unwrap();

        let late_start = async {
            tokio::time::sleep(Duration::from_millis(300)).await;
            let mut cfg = NodeConfig::sim("n2", keys(), &net);
            cfg.listen = target;
            Node::start(cfg).await.unwrap()
        };
        let (dial, b) = tokio::join!(a.connect(target), late_start);
        dial.expect("backoff should outlast the 300ms outage");

        let order = make_order(&keys(), "n1", true, 1.0, 1, 0).unwrap();
        a.publish(GossipItem::Order(order));
        assert!(converged(&[&a, &b], 1, 2000).await);
        a.shutdown();
        b.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn silent_peer_evicted_after_configured_ticks() {
        let net = SimNet::new(8);
        let mut cfg = NodeConfig::sim("n1", keys(), &net);
        cfg.anti_entropy = Duration::from_millis(10);
        cfg.silence_limit = 3;
        let a = Node::start(cfg).await.unwrap();

        // A raw connection that never says anything.
        let probe_local: SocketAddr = "10.99.0.1:1".parse().unwrap();
        let _mute = net.transport().connect(probe_local, a.local_addr).await.unwrap();
        assert!(
            converge_until(Duration::from_secs(1), || a.peer_count() == 1).await,
            "mute peer should register"
        );
        assert!(
            converge_until(Duration::from_secs(1), || a.peer_count() == 0).await,
            "mute peer should be evicted after silence_limit ticks"
        );
        a.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn shutdown_stops_node() {
        let net = SimNet::new(9);
        let a = Node::start(NodeConfig::sim("n1", keys(), &net)).await.unwrap();
        let addr = a.local_addr;
        a.shutdown();
        tokio::time::sleep(Duration::from_millis(100)).await;
        // The listener is gone: new dials are refused, and calling shutdown
        // twice must not panic.
        let probe: SocketAddr = "10.99.0.2:1".parse().unwrap();
        assert!(net.transport().connect(probe, addr).await.is_err());
        a.shutdown();
    }
}
