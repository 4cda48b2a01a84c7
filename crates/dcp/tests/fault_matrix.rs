//! Fault-matrix tests: the protocol stack driven through the fault-injecting
//! sim transport — lossy links, partitions, node kill/restart — all in
//! virtual time with seeded randomness, so every scenario is reproducible.

use dcp::ledger::LedgerConfig;
use dcp::market::make_order;
use dcp::messages::GossipItem;
use dcp::node::{Node, NodeConfig};
use dcp::poc::{CoverageReceipt, Scenario};
use dcp::testkit::{converge_until, TestNet};
use dcp::transport::{FaultPlan, SimNet};
use orbital::constellation::single_plane;
use orbital::frames::{subpoint, Geodetic};
use orbital::ground::GroundSite;
use orbital::propagator::{KeplerJ2, Propagator};
use orbital::time::Epoch;
use std::future::Future;
use std::sync::Arc;
use std::time::Duration;

/// Drive `f` on a fresh current-thread runtime with the clock paused — what
/// `#[tokio::test(start_paused = true)]` expands to, spelled out so the file
/// needs no attribute macro.
fn run_paused<F: Future>(f: F) -> F::Output {
    tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .start_paused(true)
        .build()
        .unwrap()
        .block_on(f)
}

/// Gossip still converges when every link drops 30% of messages and adds
/// jittered delay: anti-entropy re-announces until the payload lands.
#[test]
fn gossip_converges_under_thirty_percent_drop() {
    run_paused(async {
        let net = TestNet::new(101, &["a", "b", "c", "d"]).await.unwrap();
        net.connect_ring().await.unwrap();
        net.net.set_default_fault(FaultPlan {
            drop_probability: 0.3,
            delay: Duration::from_millis(10),
            jitter: Duration::from_millis(5),
        });

        for (i, p) in ["a", "b", "c"].iter().enumerate() {
            let order = make_order(&net.keys, p, i % 2 == 0, 1.0 + i as f64, 10, 0).unwrap();
            net.nodes[i].publish(GossipItem::Order(order));
        }
        assert!(
            net.all_converged(Duration::from_secs(60), 3).await,
            "lossy links must only slow convergence, not prevent it: {:?}",
            net.nodes.iter().map(|n| n.item_count()).collect::<Vec<_>>()
        );
        let (delivered, dropped) = net.net.stats();
        assert!(dropped > 0, "a 30% drop plan must actually drop frames");
        assert!(delivered > 0);
        net.shutdown_all();
    })
}

fn poc_scenario() -> Arc<Scenario> {
    let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
    let mut sc = Scenario::new(epoch);
    let sats = single_plane(3, 550.0, 53.0, epoch);
    for s in &sats {
        sc.add_satellite(s.id, s.elements);
    }
    let prop = KeplerJ2::from_elements(&sats[0].elements, epoch);
    let sub = subpoint(prop.position_at(epoch), epoch.gmst());
    sc.add_ground_station(
        "alpha",
        GroundSite::new("gs", Geodetic::from_degrees(sub.latitude_deg(), sub.longitude_deg(), 0.0)),
    );
    Arc::new(sc)
}

/// A receipt published inside one partition side reaches quorum there, and
/// the isolated party catches up and confirms after the partition heals.
#[test]
fn poc_quorum_confirms_across_healed_partition() {
    run_paused(async {
        let scenario = poc_scenario();
        let sc = scenario.clone();
        let net = TestNet::with_config(102, &["alpha", "beta", "gamma"], move |_, mut cfg| {
            cfg.scenario = Some(sc.clone());
            cfg.auto_attest = true;
            cfg.ledger = LedgerConfig { quorum: 2, reward_per_receipt: 5.0, verifier_share: 0.4 };
            cfg
        })
        .await
        .unwrap();
        net.connect_chain().await.unwrap();

        // Cut gamma off, then publish a verifiable receipt on the majority side.
        net.partition(&[0, 1], &[2]);
        let el = scenario.computed_elevation_deg(0, "alpha", 0.0).unwrap();
        let receipt = CoverageReceipt::create(&net.keys, 0, "alpha", "beta", 0.0, el).unwrap();
        net.nodes[0].publish(GossipItem::Receipt(receipt));

        assert!(
            converge_until(Duration::from_secs(5), || {
                net.nodes[..2].iter().all(|h| h.confirmed_count() == 1)
            })
            .await,
            "alpha+beta alone are a quorum of 2"
        );
        assert_eq!(net.nodes[2].item_count(), 0, "gamma is partitioned off");

        net.heal();
        assert!(
            net.converged_when(Duration::from_secs(10), |h| h.confirmed_count() == 1).await,
            "healed gamma must replicate the confirmed receipt"
        );
        assert!(net.ledgers_agree(), "ledger digests diverged after heal");
        net.shutdown_all();
    })
}

/// Kill a node mid-run; the survivor's reconnect backoff keeps redialing,
/// and once the node restarts at the same address the ledgers reconverge —
/// including items published while it was down.
#[test]
fn ledger_reconverges_after_node_kill_and_restart() {
    run_paused(async {
        let sim = SimNet::new(103);
        let keys = dcp::testkit::test_keys(&["a", "b"]);
        let mut cfg_a = NodeConfig::sim("a", keys.clone(), &sim);
        cfg_a.backoff.max_attempts = 0; // redial forever
        let a = Node::start(cfg_a).await.unwrap();
        let b = Node::start(NodeConfig::sim("b", keys.clone(), &sim)).await.unwrap();
        let b_addr = b.local_addr;
        a.connect(b_addr).await.unwrap();

        a.publish(GossipItem::Order(make_order(&keys, "a", true, 1.0, 5, 0).unwrap()));
        assert!(
            converge_until(Duration::from_secs(5), || b.item_count() == 1).await,
            "baseline gossip before the kill"
        );

        // Kill b. The survivor keeps publishing into the void and redialing.
        b.shutdown();
        tokio::time::sleep(Duration::from_millis(100)).await;
        a.publish(GossipItem::Order(make_order(&keys, "a", false, 2.0, 7, 1).unwrap()));
        tokio::time::sleep(Duration::from_millis(500)).await;

        // Restart b at the same sim address, empty-handed.
        let mut cfg_b2 = NodeConfig::sim("b", keys.clone(), &sim);
        cfg_b2.listen = b_addr;
        let b2 = Node::start(cfg_b2).await.unwrap();
        assert_eq!(b2.local_addr, b_addr, "restart reclaims the dead address");

        // a's backoff loop finds the new listener; anti-entropy replays history.
        assert!(
            converge_until(Duration::from_secs(30), || b2.item_count() == 2).await,
            "restarted node must catch up on items published during the outage"
        );
        assert!(
            converge_until(Duration::from_secs(5), || a.ledger_digest() == b2.ledger_digest()).await,
            "ledgers must reconverge after restart"
        );
        a.shutdown();
        b2.shutdown();
    })
}

/// The same seeded scenario, run twice on fresh paused runtimes, produces
/// identical delivery logs and identical final state — the property every
/// other test in this file leans on when a failure needs reproducing.
#[test]
fn seeded_scenario_replays_identically() {
    fn run_once() -> (Vec<String>, Vec<String>, (u64, u64)) {
        run_paused(async {
            let net = TestNet::new(104, &["a", "b"]).await.unwrap();
            net.connect_chain().await.unwrap();
            net.net.set_default_fault(FaultPlan {
                drop_probability: 0.25,
                delay: Duration::from_millis(4),
                jitter: Duration::from_millis(3),
            });
            for seq in 0..3u64 {
                let order = make_order(&net.keys, "a", seq % 2 == 0, 1.0, 1, seq).unwrap();
                net.nodes[0].publish(GossipItem::Order(order));
                assert!(net.all_converged(Duration::from_secs(30), seq as usize + 1).await);
            }
            let digests = net.nodes.iter().map(|n| n.ledger_digest()).collect();
            let out = (net.net.log_snapshot(), digests, net.net.stats());
            net.shutdown_all();
            out
        })
    }

    let first = run_once();
    let second = run_once();
    assert_eq!(first.2, second.2, "delivered/dropped counts must match");
    assert_eq!(first.1, second.1, "final digests must match");
    assert_eq!(first.0, second.0, "full delivery logs must be identical");
}
