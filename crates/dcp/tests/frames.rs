//! Frame-level behaviour of the send path, on the sim transport under
//! virtual time: `send` and `send_frame` are one path, an item set too
//! large for one frame still replicates, and anti-entropy ticks go quiet
//! once every peer has proven what it holds.

use dcp::market::make_order;
use dcp::messages::{GossipItem, Message};
use dcp::node::{Node, NodeConfig};
use dcp::testkit::{converge_until, test_keys, TestNet};
use dcp::transport::{FaultPlan, SimNet};
use dcp::wire;
use std::future::Future;
use std::net::SocketAddr;
use std::time::Duration;

/// The nodes' default anti-entropy interval.
const TICK: Duration = Duration::from_millis(200);

/// Ticks after which two nodes that hold the same items and lose no frame
/// announce nothing to each other (`gossip::tests::QUIET_AFTER_TICKS`),
/// plus the one under way when they came to hold them.
const QUIET_TICKS: u32 = 5 + 1;

/// Kinds of the frames `src` sent `dst`, in order, from `log[from..]`.
fn kinds(log: &[String], from: usize, src: SocketAddr, dst: SocketAddr) -> Vec<&str> {
    let link = format!(" {src} -> {dst} ");
    let on_link = log[from..].iter().filter(|line| line.contains(&link));
    on_link.map(|line| line.split(' ').rev().nth(1).expect("kind")).collect()
}

/// As in `fault_matrix.rs`: a fresh current-thread runtime, clock paused.
fn run_paused<F: Future>(f: F) -> F::Output {
    tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .start_paused(true)
        .build()
        .unwrap()
        .block_on(f)
}

/// `ConnWriter::send(&msg)` is `send_frame(encode(&msg))`: both deliver the
/// same message over a sim link, in order.
#[test]
fn send_and_send_frame_deliver_equal_messages() {
    run_paused(async {
        let net = SimNet::new(11);
        let transport = net.transport();
        let (mut listener, srv) = transport.bind("0.0.0.0:0".parse().unwrap()).await.unwrap();
        let cli = "10.99.0.7:1".parse().unwrap();
        let (_, mut writer) = transport.connect(cli, srv).await.unwrap().into_split();
        let (mut reader, _accepted_writer) = listener.accept().await.unwrap().into_split();

        let msg = Message::GossipAnnounce { ids: vec!["ab".repeat(32), "cd".repeat(32)] };
        writer.send(&msg).await.unwrap();
        writer.send_frame(wire::encode(&msg).unwrap().into()).await.unwrap();
        let first = reader.recv().await.unwrap();
        let second = reader.recv().await.unwrap();
        assert_eq!(first, Some(msg));
        assert_eq!(first, second);
        assert_eq!(net.stats(), (2, 0));
    })
}

/// A node holding 16 000 items announces more ids than one frame holds
/// (67 B an id against the 1 MiB cap). The announce, the request it draws
/// and the payload replies must all cross in pieces: before the send path
/// split oversized lists, the writer task closed the link on the refused
/// frame, the dialer reconnected at once and found the same announce
/// waiting — with a paused clock, forever.
///
/// Once both ends hold the set and have said so, such a node stops queueing
/// 1 MiB per peer per tick: every tick announce is one frame with an empty
/// list. A new session starts from nothing known, so its first announce
/// goes out in halves again.
#[test]
fn a_set_larger_than_one_frame_still_replicates() {
    const ITEMS: u64 = 16_000;
    run_paused(async {
        let net = SimNet::new(12);
        let keys = test_keys(&["a", "b"]);
        let a = Node::start(NodeConfig::sim("a", keys.clone(), &net)).await.unwrap();
        let b = Node::start(NodeConfig::sim("b", keys.clone(), &net)).await.unwrap();
        for seq in 0..ITEMS {
            // Bids only: nothing crosses, so the book stays cheap.
            let order = make_order(&keys, "a", true, 1.0, 1, seq).unwrap();
            a.publish(GossipItem::Order(order));
        }
        b.connect(a.local_addr).await.unwrap();
        assert!(
            converge_until(Duration::from_secs(10), || b.item_count() == ITEMS as usize).await,
            "b holds {} of {ITEMS} items",
            b.item_count()
        );
        // The link is still the first one: nothing was closed and redialed.
        assert_eq!((a.peer_count(), b.peer_count()), (1, 1));

        a.publish(GossipItem::Order(make_order(&keys, "a", true, 1.0, 1, ITEMS).unwrap()));
        assert!(
            converge_until(Duration::from_secs(5), || b.item_count() == ITEMS as usize + 1).await,
            "an item published after the bulk sync must still arrive"
        );
        assert_eq!((a.rejected_count(), b.rejected_count()), (0, 0));

        // Quiet: five ticks, one announce frame each way per tick, no ids.
        let held = ITEMS + 1;
        tokio::time::sleep(TICK * QUIET_TICKS).await;
        let before = (a.tick_announce_ids(), b.tick_announce_ids(), net.log_snapshot().len());
        tokio::time::sleep(TICK * 5).await;
        for (node, (sent, withheld)) in [(&a, before.0), (&b, before.1)] {
            let now = node.tick_announce_ids();
            assert_eq!(now.0, sent, "{} listed ids in a quiet tick", node.node_id());
            assert_eq!(now.1, withheld + 5 * held, "five ticks, every id withheld");
        }
        let log = net.log_snapshot();
        for (src, dst) in [(&a, &b), (&b, &a)] {
            let frames = kinds(&log, before.2, src.local_addr, dst.local_addr);
            assert_eq!(frames.iter().filter(|kind| **kind == "announce").count(), 5, "{frames:?}");
        }
        let empty = wire::encode(&Message::GossipAnnounce { ids: Vec::new() }).unwrap();
        assert!(empty.len() < 1024, "a quiet tick's frame is {} bytes", empty.len());

        // A new session: b redials, and both first announces are the full
        // set again, in two frames.
        let mark = log.len();
        net.kill_links(a.local_addr, b.local_addr);
        assert!(
            converge_until(Duration::from_secs(5), || {
                let log = net.log_snapshot();
                kinds(&log, mark, a.local_addr, b.local_addr).len() >= 3
                    && kinds(&log, mark, b.local_addr, a.local_addr).len() >= 3
            })
            .await,
            "the link did not come back"
        );
        let log = net.log_snapshot();
        for (src, dst) in [(&a, &b), (&b, &a)] {
            let frames = kinds(&log, mark, src.local_addr, dst.local_addr);
            assert_eq!(frames[..3], ["hello", "announce", "announce"], "{frames:?}");
        }
        // And quiet again, by the same bound.
        tokio::time::sleep(TICK * QUIET_TICKS).await;
        let before = (a.tick_announce_ids().0, b.tick_announce_ids().0);
        tokio::time::sleep(TICK * 5).await;
        assert_eq!((a.tick_announce_ids().0, b.tick_announce_ids().0), before);
        a.shutdown();
        b.shutdown();
    })
}

/// Eight nodes, ring plus diameters, 5 % loss and jitter on every link, a
/// partition in the middle: for 20 ticks items are published, and from a
/// stated tick after the last publish every tick announce of every node is
/// an empty list, for the rest of a 60-tick run. (What the ticks listed is
/// read off [`dcp::NodeHandle::tick_announce_ids`].)
#[test]
fn tick_announces_go_quiet_on_a_lossy_mesh() {
    const NODES: usize = 8;
    const PUBLISH_TICKS: u32 = 20;
    const RUN_TICKS: u32 = 60;
    /// Ticks after the last publish by which the last id has been listed.
    /// Each id needs a mention to land each way on each of 24 directed
    /// links and a lost one costs two to three ticks, so the tail is
    /// geometric in the loss rate: seeds 13–17 read 4, 5, 5, 6 and 9.
    const QUIET_BY: u32 = 20;
    run_paused(async {
        let names: Vec<String> = (0..NODES).map(|i| format!("n{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let net = TestNet::new(13, &names).await.unwrap();
        net.net.set_default_fault(FaultPlan {
            drop_probability: 0.05,
            delay: Duration::from_millis(5),
            jitter: Duration::from_millis(10),
        });
        net.connect_ring().await.unwrap();
        for i in 0..NODES / 2 {
            net.connect(i, i + NODES / 2).await.unwrap();
        }
        let mut sequence = 0;
        let mut publish = |node: usize| {
            let order = make_order(&net.keys, names[node], true, 1.0, 1, sequence).unwrap();
            net.nodes[node].publish(GossipItem::Order(order));
            sequence += 1;
        };
        for _ in 0..50 {
            publish(0);
        }
        let listed = || net.nodes.iter().map(|n| n.tick_announce_ids().0).sum::<u64>();
        let mut last_listing = 0;
        let mut total = listed();
        // Sampled half a tick after each tick.
        tokio::time::sleep(TICK / 2).await;
        for tick in 1..=RUN_TICKS {
            if tick <= PUBLISH_TICKS {
                for k in 0..5 {
                    publish((tick as usize * 5 + k) % NODES);
                }
            }
            match tick {
                6 => net.partition(&[0, 1, 2, 3], &[4, 5, 6, 7]),
                12 => net.heal(),
                _ => {}
            }
            tokio::time::sleep(TICK).await;
            let now = listed();
            if now != total {
                (last_listing, total) = (tick, now);
            }
        }
        let items = 50 + 5 * PUBLISH_TICKS as usize;
        assert!(net.nodes.iter().all(|n| n.item_count() == items), "not converged");
        assert!(
            (PUBLISH_TICKS..=PUBLISH_TICKS + QUIET_BY).contains(&last_listing),
            "the last tick that listed an id was tick {last_listing}"
        );
        // The counter is not vacuous: ids were listed, and many more were
        // held and left out.
        let withheld: u64 = net.nodes.iter().map(|n| n.tick_announce_ids().1).sum();
        assert!(
            total > items as u64 && withheld > 10 * total,
            "{total} listed, {withheld} withheld"
        );
        net.shutdown_all();
    })
}
