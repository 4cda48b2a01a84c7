//! Frame-level behaviour of the send path, on the sim transport under
//! virtual time: `send` and `send_frame` are one path, and an item set too
//! large for one frame still replicates.

use dcp::market::make_order;
use dcp::messages::{GossipItem, Message};
use dcp::node::{Node, NodeConfig};
use dcp::testkit::{converge_until, test_keys};
use dcp::transport::SimNet;
use dcp::wire;
use std::future::Future;
use std::time::Duration;

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
        a.shutdown();
        b.shutdown();
    })
}
