//! Pluggable transports: real TCP and an in-process fault-injecting
//! simulator.
//!
//! The node runtime ([`crate::node`]) speaks to peers through the
//! [`Transport`] / [`Listener`] / [`Connection`] abstraction instead of
//! `TcpStream` directly. Two implementations exist:
//!
//! * [`Transport::Tcp`] — the production path: length-prefixed frames over
//!   real sockets (identical behavior to the pre-abstraction code);
//! * [`Transport::Sim`] — an in-process network ([`SimNet`]) whose links
//!   inject faults from the network's [`FaultPlan`]: seeded-RNG message drop,
//!   fixed + jittered delay, bandwidth-free partition/heal, and connection
//!   kill. Everything is driven by tokio timers, so under
//!   `tokio::time::pause()` whole protocol scenarios run deterministically
//!   in milliseconds of real time (see [`crate::testkit`]).
//!
//! Both transports carry **frames** — the bytes [`wire::encode`] makes,
//! shared as an `Arc<[u8]>` so that one encoding serves every recipient.
//! [`ConnWriter::send_frame`] is the one send path: TCP writes the frame to
//! the socket, a sim link queues it and decodes it on delivery, so
//! frame-size limits and serialization behave exactly as on TCP.
//! [`ConnWriter::send`] is `wire::encode` followed by `send_frame`.

use crate::messages::Message;
use crate::wire;
use bytes::BytesMut;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::io::AsyncWriteExt;
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, watch};

/// Fault injection parameters, applied to every link. The default plan is a
/// perfect link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_probability: f64,
    /// Fixed one-way delivery delay.
    pub delay: Duration,
    /// Uniform random extra delay in `[0, jitter]` (seeded RNG).
    pub jitter: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { drop_probability: 0.0, delay: Duration::ZERO, jitter: Duration::ZERO }
    }
}

impl FaultPlan {
    /// A lossy link: drop with `p`, no delay.
    pub fn lossy(p: f64) -> Self {
        FaultPlan { drop_probability: p, ..Default::default() }
    }

    /// A slow link: fixed `delay` plus up to `jitter` extra.
    pub fn slow(delay: Duration, jitter: Duration) -> Self {
        FaultPlan { delay, jitter, ..Default::default() }
    }
}

/// Kill switch for one directional link.
struct LinkCtl {
    src: SocketAddr,
    dst: SocketAddr,
    kill: watch::Sender<bool>,
}

struct SimInner {
    next_host: u32,
    listeners: HashMap<SocketAddr, mpsc::UnboundedSender<Connection>>,
    default_plan: FaultPlan,
    blocked: HashSet<(SocketAddr, SocketAddr)>,
    links: Vec<LinkCtl>,
    delivered: u64,
    dropped: u64,
    log: Vec<String>,
    t0: Option<tokio::time::Instant>,
}

/// The in-process simulated network: address allocation, listener registry,
/// one network-wide fault plan, partitions, and a delivery event log.
///
/// All nodes sharing one `Arc<SimNet>` can reach each other; links are
/// keyed by the *listen* addresses of their endpoints, which is also the
/// key used for [`SimNet::partition`].
pub struct SimNet {
    seed: u64,
    inner: Mutex<SimInner>,
}

impl SimNet {
    /// A fresh simulated network. `seed` drives every per-link RNG, so the
    /// same seed + the same scenario reproduces the same drops and jitter.
    pub fn new(seed: u64) -> Arc<SimNet> {
        Arc::new(SimNet {
            seed,
            inner: Mutex::new(SimInner {
                next_host: 1,
                listeners: HashMap::new(),
                default_plan: FaultPlan::default(),
                blocked: HashSet::new(),
                links: Vec::new(),
                delivered: 0,
                dropped: 0,
                log: Vec::new(),
                t0: None,
            }),
        })
    }

    /// The [`Transport`] handle for this network.
    pub fn transport(self: &Arc<Self>) -> Transport {
        Transport::Sim(self.clone())
    }

    /// Set the fault plan applied to every link.
    pub fn set_default_fault(&self, plan: FaultPlan) {
        self.inner.lock().default_plan = plan;
    }

    /// Partition the network between `left` and `right`: every message
    /// crossing the cut is dropped at delivery time, and new dials across
    /// the cut are refused. Existing connections stay up (the silence is
    /// indistinguishable from loss, as on a real network).
    pub fn partition(&self, left: &[SocketAddr], right: &[SocketAddr]) {
        let mut inner = self.inner.lock();
        for &l in left {
            for &r in right {
                inner.blocked.insert((l, r));
                inner.blocked.insert((r, l));
            }
        }
    }

    /// Heal all partitions.
    pub fn heal(&self) {
        self.inner.lock().blocked.clear();
    }

    /// Kill every established link between `a` and `b` (both directions).
    /// Each end observes a clean connection close, as if the TCP session
    /// was reset; reconnect logic may then dial again.
    pub fn kill_links(&self, a: SocketAddr, b: SocketAddr) {
        let mut inner = self.inner.lock();
        for l in &inner.links {
            if (l.src == a && l.dst == b) || (l.src == b && l.dst == a) {
                let _ = l.kill.send(true);
            }
        }
        inner.links.retain(|l| !l.kill.is_closed());
    }

    /// `(delivered, dropped)` message counters across all links.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.delivered, inner.dropped)
    }

    /// Snapshot of the delivery event log (one line per delivered/dropped
    /// message, with virtual timestamps). Two runs of the same seeded
    /// scenario under paused time produce identical logs.
    pub fn log_snapshot(&self) -> Vec<String> {
        self.inner.lock().log.clone()
    }

    /// Allocate a fresh listen address (used when binding port 0).
    fn alloc_addr(&self) -> SocketAddr {
        let mut inner = self.inner.lock();
        let h = inner.next_host;
        inner.next_host += 1;
        format!("10.66.{}.{}:9000", (h >> 8) & 255, h & 255)
            .parse()
            .expect("synthesized sim address")
    }

    fn bind(self: &Arc<Self>, addr: SocketAddr) -> io::Result<(Listener, SocketAddr)> {
        let resolved = if addr.port() == 0 { self.alloc_addr() } else { addr };
        let (tx, rx) = mpsc::unbounded_channel();
        {
            let mut inner = self.inner.lock();
            if let Some(existing) = inner.listeners.get(&resolved) {
                if !existing.is_closed() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("sim address {resolved} already bound"),
                    ));
                }
            }
            inner.listeners.insert(resolved, tx);
        }
        Ok((Listener::Sim { addr: resolved, rx }, resolved))
    }

    fn connect(self: &Arc<Self>, local: SocketAddr, addr: SocketAddr) -> io::Result<Connection> {
        {
            let inner = self.inner.lock();
            if inner.blocked.contains(&(local, addr)) || inner.blocked.contains(&(addr, local)) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("sim partition blocks {local} -> {addr}"),
                ));
            }
        }
        let accept_tx = {
            let mut inner = self.inner.lock();
            match inner.listeners.get(&addr) {
                Some(tx) if !tx.is_closed() => tx.clone(),
                _ => {
                    inner.listeners.remove(&addr);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("no sim listener at {addr}"),
                    ));
                }
            }
        };
        let (fwd_tx, fwd_rx) = sim_link(self, local, addr);
        let (rev_tx, rev_rx) = sim_link(self, addr, local);
        let accepted = Connection {
            reader: ConnReader::Sim(fwd_rx),
            writer: ConnWriter::Sim(rev_tx),
        };
        accept_tx.send(accepted).map_err(|_| {
            io::Error::new(io::ErrorKind::ConnectionRefused, format!("sim listener at {addr} gone"))
        })?;
        Ok(Connection { reader: ConnReader::Sim(rev_rx), writer: ConnWriter::Sim(fwd_tx) })
    }

    fn is_blocked(&self, src: SocketAddr, dst: SocketAddr) -> bool {
        self.inner.lock().blocked.contains(&(src, dst))
    }

    fn record(&self, src: SocketAddr, dst: SocketAddr, kind: &str, outcome: &str) {
        let mut inner = self.inner.lock();
        let t0 = *inner.t0.get_or_insert_with(tokio::time::Instant::now);
        let t_ms = t0.elapsed().as_millis();
        match outcome {
            "drop" => inner.dropped += 1,
            _ => inner.delivered += 1,
        }
        inner.log.push(format!("{t_ms:>8}ms {src} -> {dst} {kind} {outcome}"));
    }
}

/// Deterministic per-link RNG seed: network seed mixed with a content hash
/// of the endpoint pair (no `RandomState` involved).
fn link_seed(seed: u64, src: SocketAddr, dst: SocketAddr) -> u64 {
    let digest = crate::crypto::sha256(format!("link|{src}|{dst}").as_bytes());
    let mut x = [0u8; 8];
    x.copy_from_slice(&digest[..8]);
    seed ^ u64::from_be_bytes(x)
}

/// Sending half of one directional sim link.
pub struct SimSender {
    tx: mpsc::UnboundedSender<Arc<[u8]>>,
}

/// Build one directional link `src -> dst`: an ingress queue, a delivery
/// task applying the link's [`FaultPlan`] serially (FIFO preserved), and an
/// egress queue feeding the receiving node.
fn sim_link(
    net: &Arc<SimNet>,
    src: SocketAddr,
    dst: SocketAddr,
) -> (SimSender, mpsc::UnboundedReceiver<Message>) {
    let (in_tx, mut in_rx) = mpsc::unbounded_channel::<Arc<[u8]>>();
    let (out_tx, out_rx) = mpsc::unbounded_channel::<Message>();
    let (kill_tx, mut kill_rx) = watch::channel(false);
    net.inner.lock().links.push(LinkCtl { src, dst, kill: kill_tx });
    let mut rng = StdRng::seed_from_u64(link_seed(net.seed, src, dst));
    let net = net.clone();
    tokio::spawn(async move {
        loop {
            let bytes = tokio::select! {
                _ = kill_rx.changed() => break,
                b = in_rx.recv() => match b {
                    Some(b) => b,
                    None => break,
                },
            };
            let mut buf = BytesMut::from(&bytes[..]);
            let msg = match wire::decode(&mut buf) {
                Ok(Some(m)) => m,
                _ => break, // a malformed frame closes the link, as on TCP
            };
            let plan = net.inner.lock().default_plan;
            // Draw in a fixed order per message so the RNG stream is
            // scenario-deterministic.
            let dropped =
                plan.drop_probability > 0.0 && rng.gen::<f64>() < plan.drop_probability;
            let jitter_us = if plan.jitter.is_zero() {
                0
            } else {
                rng.gen_range(0..=plan.jitter.as_micros() as u64)
            };
            let delay = plan.delay + Duration::from_micros(jitter_us);
            if !delay.is_zero() {
                tokio::select! {
                    _ = kill_rx.changed() => break,
                    _ = tokio::time::sleep(delay) => {}
                }
            }
            if dropped || net.is_blocked(src, dst) {
                net.record(src, dst, msg.kind(), "drop");
                continue;
            }
            net.record(src, dst, msg.kind(), "deliver");
            if out_tx.send(msg).is_err() {
                break; // receiver gone
            }
        }
        // Dropping `out_tx` closes the peer's reader (clean EOF).
    });
    (SimSender { tx: in_tx }, out_rx)
}

/// How a node reaches its peers.
#[derive(Clone)]
pub enum Transport {
    /// Real sockets (the production path).
    Tcp,
    /// The in-process fault-injecting simulator.
    Sim(Arc<SimNet>),
}

impl Transport {
    /// Bind a listener. Port 0 allocates an ephemeral port (TCP) or a fresh
    /// simulated address (sim). Returns the listener and the resolved
    /// address.
    pub async fn bind(&self, addr: SocketAddr) -> io::Result<(Listener, SocketAddr)> {
        match self {
            Transport::Tcp => {
                let listener = TcpListener::bind(addr).await?;
                let local = listener.local_addr()?;
                Ok((Listener::Tcp(listener), local))
            }
            Transport::Sim(net) => net.bind(addr),
        }
    }

    /// Dial a peer once. `local` is the dialer's listen address — it names
    /// the near end of the simulated link (ignored on TCP).
    pub async fn connect(&self, local: SocketAddr, addr: SocketAddr) -> io::Result<Connection> {
        match self {
            Transport::Tcp => {
                let stream = TcpStream::connect(addr).await?;
                let (r, w) = stream.into_split();
                Ok(Connection {
                    reader: ConnReader::Tcp(r, BytesMut::new()),
                    writer: ConnWriter::Tcp(w),
                })
            }
            Transport::Sim(net) => net.connect(local, addr),
        }
    }
}

/// A bound listener on either transport.
pub enum Listener {
    /// Real TCP listener.
    Tcp(TcpListener),
    /// Simulated listener: a queue of accepted connections.
    Sim {
        /// The bound simulated address.
        addr: SocketAddr,
        /// Incoming connections from dialers.
        rx: mpsc::UnboundedReceiver<Connection>,
    },
}

impl Listener {
    /// Accept the next inbound connection.
    pub async fn accept(&mut self) -> io::Result<Connection> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept().await?;
                let (r, w) = stream.into_split();
                Ok(Connection {
                    reader: ConnReader::Tcp(r, BytesMut::new()),
                    writer: ConnWriter::Tcp(w),
                })
            }
            Listener::Sim { rx, addr } => rx.recv().await.ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, format!("sim net dropped {addr}"))
            }),
        }
    }
}

/// An established peer connection (both directions).
pub struct Connection {
    pub(crate) reader: ConnReader,
    pub(crate) writer: ConnWriter,
}

impl Connection {
    /// Split into independently owned halves for the reader/writer tasks.
    pub fn into_split(self) -> (ConnReader, ConnWriter) {
        (self.reader, self.writer)
    }
}

/// Receiving half of a connection.
pub enum ConnReader {
    /// TCP read half plus its reassembly buffer.
    Tcp(OwnedReadHalf, BytesMut),
    /// Simulated link egress.
    Sim(mpsc::UnboundedReceiver<Message>),
}

impl ConnReader {
    /// Receive the next message. `Ok(None)` means the peer closed cleanly.
    pub async fn recv(&mut self) -> io::Result<Option<Message>> {
        match self {
            ConnReader::Tcp(r, buf) => wire::read_frame(r, buf).await,
            ConnReader::Sim(rx) => Ok(rx.recv().await),
        }
    }
}

/// Sending half of a connection.
pub enum ConnWriter {
    /// TCP write half.
    Tcp(OwnedWriteHalf),
    /// Simulated link ingress.
    Sim(SimSender),
}

impl ConnWriter {
    /// Encode one message and send it.
    pub async fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.send_frame(wire::encode(msg)?.into()).await
    }

    /// Send one frame made by [`wire::encode`].
    pub async fn send_frame(&mut self, frame: Arc<[u8]>) -> io::Result<()> {
        match self {
            ConnWriter::Tcp(w) => {
                w.write_all(&frame).await?;
                w.flush().await
            }
            ConnWriter::Sim(link) => link
                .tx
                .send(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "sim link closed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::NodeId;

    fn ping(nonce: u64) -> Message {
        Message::Ping { nonce }
    }

    async fn sim_pair(net: &Arc<SimNet>) -> (Connection, Connection, SocketAddr, SocketAddr) {
        let (mut listener, srv) = net.transport().bind("0.0.0.0:0".parse().unwrap()).await.unwrap();
        let (_, cli) = net.bind("0.0.0.0:0".parse().unwrap()).unwrap();
        let dialed = net.transport().connect(cli, srv).await.unwrap();
        let accepted = listener.accept().await.unwrap();
        (dialed, accepted, cli, srv)
    }

    #[tokio::test(start_paused = true)]
    async fn sim_roundtrip_both_directions() {
        let net = SimNet::new(1);
        let (mut dialed, mut accepted, _, _) = sim_pair(&net).await;
        dialed.writer.send(&ping(7)).await.unwrap();
        assert_eq!(accepted.reader.recv().await.unwrap(), Some(ping(7)));
        accepted
            .writer
            .send(&Message::Hello { node_id: NodeId::new("s"), listen_addr: None })
            .await
            .unwrap();
        assert!(matches!(dialed.reader.recv().await.unwrap(), Some(Message::Hello { .. })));
    }

    #[tokio::test(start_paused = true)]
    async fn connect_to_unbound_address_refused() {
        let net = SimNet::new(1);
        let err = net
            .transport()
            .connect("10.66.0.1:9000".parse().unwrap(), "10.66.9.9:9000".parse().unwrap())
            .await
            .err()
            .expect("nothing listens there");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[tokio::test(start_paused = true)]
    async fn drop_probability_one_drops_everything() {
        let net = SimNet::new(2);
        net.set_default_fault(FaultPlan::lossy(1.0));
        let (mut dialed, mut accepted, _, _) = sim_pair(&net).await;
        for i in 0..10 {
            dialed.writer.send(&ping(i)).await.unwrap();
        }
        drop(dialed); // close so the reader terminates after the queue drains
        assert_eq!(accepted.reader.recv().await.unwrap(), None);
        let (delivered, dropped) = net.stats();
        assert_eq!((delivered, dropped), (0, 10));
    }

    #[tokio::test(start_paused = true)]
    async fn delay_holds_messages_in_virtual_time() {
        let net = SimNet::new(3);
        net.set_default_fault(FaultPlan::slow(Duration::from_millis(250), Duration::ZERO));
        let (mut dialed, mut accepted, _, _) = sim_pair(&net).await;
        let t0 = tokio::time::Instant::now();
        dialed.writer.send(&ping(1)).await.unwrap();
        assert_eq!(accepted.reader.recv().await.unwrap(), Some(ping(1)));
        assert!(t0.elapsed() >= Duration::from_millis(250), "delivered early");
    }

    #[tokio::test(start_paused = true)]
    async fn partition_blocks_and_heal_restores() {
        let net = SimNet::new(4);
        let (mut dialed, mut accepted, cli, srv) = sim_pair(&net).await;
        net.partition(&[cli], &[srv]);
        dialed.writer.send(&ping(1)).await.unwrap();
        // Delivery is silently dropped; a fresh dial across the cut fails.
        tokio::time::sleep(Duration::from_millis(50)).await;
        assert_eq!(net.stats().1, 1, "message crossing the cut must drop");
        assert!(net.transport().connect(cli, srv).await.is_err());
        net.heal();
        dialed.writer.send(&ping(2)).await.unwrap();
        assert_eq!(accepted.reader.recv().await.unwrap(), Some(ping(2)));
    }

    #[tokio::test(start_paused = true)]
    async fn kill_links_closes_both_ends() {
        let net = SimNet::new(5);
        let (mut dialed, mut accepted, cli, srv) = sim_pair(&net).await;
        net.kill_links(cli, srv);
        assert_eq!(accepted.reader.recv().await.unwrap(), None);
        assert_eq!(dialed.reader.recv().await.unwrap(), None);
        assert!(dialed.writer.send(&ping(1)).await.is_err());
    }

    #[tokio::test(start_paused = true)]
    async fn rebinding_a_dead_address_succeeds() {
        let net = SimNet::new(6);
        let (listener, addr) = net.transport().bind("0.0.0.0:0".parse().unwrap()).await.unwrap();
        assert!(net.bind(addr).is_err(), "live address must not rebind");
        drop(listener);
        assert!(net.bind(addr).is_ok(), "dead address must rebind");
    }

    #[tokio::test(start_paused = true)]
    async fn seeded_drops_are_reproducible() {
        async fn run() -> Vec<String> {
            let net = SimNet::new(42);
            net.set_default_fault(FaultPlan { drop_probability: 0.5, ..Default::default() });
            let (mut dialed, mut accepted, _, _) = sim_pair(&net).await;
            for i in 0..32 {
                dialed.writer.send(&ping(i)).await.unwrap();
            }
            drop(dialed);
            while accepted.reader.recv().await.unwrap().is_some() {}
            net.log_snapshot()
        }
        let a = run().await;
        let b = run().await;
        assert_eq!(a, b, "same seed must reproduce the same delivery log");
        assert!(a.iter().any(|l| l.ends_with("drop")), "p=0.5 over 32 sends should drop some");
        assert!(a.iter().any(|l| l.ends_with("deliver")));
    }
}
