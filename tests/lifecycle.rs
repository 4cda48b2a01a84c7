//! The capstone: one MP-LEO constellation lived end to end.
//!
//! A single narrative test drives the whole stack through the paper's
//! story: parties bootstrap a constellation with gap-filling placement and
//! early-adopter tokens, coverage earns quorum-attested proof-of-coverage
//! rewards over a real TCP mesh, one party rage-quits, and the network
//! degrades exactly as gracefully as Fig. 5/6 promise.

use dcp::crypto::KeyDirectory;
use dcp::ledger::LedgerConfig;
use dcp::messages::{GossipItem, WithdrawalNotice};
use dcp::node::{Node, NodeConfig};
use dcp::poc::{CoverageReceipt, Scenario};
use leosim::visibility::{SimConfig, VisibilityTable};
use leosim::TimeGrid;
use mpleo::bootstrap::{simulate_bootstrap, EmissionSchedule};
use mpleo::placement::weighted_coverage_s;
use mpleo::robustness::withdrawal_loss;
use orbital::constellation::starlink_gen1_pool;
use orbital::time::Epoch;
use std::sync::Arc;
use std::time::Duration;

#[tokio::test]
async fn full_constellation_lifecycle() {
    let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
    let parties = ["alpha", "beta", "gamma", "delta"];

    // ---- Phase 1: bootstrap the constellation ------------------------
    let pool = starlink_gen1_pool(epoch);
    // A manageable candidate pool for the unit-test budget.
    let candidates: Vec<_> = pool.iter().step_by(11).cloned().collect();
    let cities = geodata::paper_cities();
    let sites = geodata::to_sites(&cities);
    let weights = geodata::population_weights(&cities);
    let grid = TimeGrid::new(epoch, 86_400.0, 300.0);
    let vt = VisibilityTable::compute(&candidates, &sites, &grid, &SimConfig::default());

    let outcome = simulate_bootstrap(&vt, &weights, &parties, 8, &EmissionSchedule::default());
    assert_eq!(outcome.constellation.len(), 32);
    // Coverage grew every round and tokens conserved.
    for pair in outcome.rounds.windows(2) {
        assert!(pair[1].coverage_s >= pair[0].coverage_s);
    }
    let total_tokens: f64 = outcome.balances.values().sum();
    assert!((total_tokens - 4.0 * 1000.0).abs() < 1e-6);
    // The founder ends richest (early-adopter bonus).
    assert!(outcome.balances["alpha"] > outcome.balances["delta"]);

    // ---- Phase 2: proof-of-coverage over a real TCP mesh --------------
    let constellation = outcome.constellation.clone();
    let mut keys = KeyDirectory::new();
    for p in parties {
        keys.register_derived(p, b"lifecycle");
    }
    let mut scenario = Scenario::new(epoch);
    for (pos, &ci) in constellation.iter().enumerate() {
        scenario.add_satellite(pos as u32, candidates[ci].elements);
    }
    // Alpha's ground station under satellite 0's start point.
    {
        use orbital::frames::{subpoint, Geodetic};
        use orbital::propagator::{KeplerJ2, Propagator};
        let prop = KeplerJ2::from_elements(&candidates[constellation[0]].elements, epoch);
        let sub = subpoint(prop.position_at(epoch), epoch.gmst());
        scenario.add_ground_station(
            "alpha",
            orbital::ground::GroundSite::new(
                "gs-alpha",
                Geodetic::from_degrees(sub.latitude_deg(), sub.longitude_deg(), 0.0),
            ),
        );
    }
    let scenario = Arc::new(scenario);
    let mut nodes = Vec::new();
    for p in parties {
        let mut cfg = NodeConfig::local(p, keys.clone());
        cfg.scenario = Some(scenario.clone());
        cfg.auto_attest = true;
        cfg.ledger = LedgerConfig { quorum: 3, reward_per_receipt: 2.0, verifier_share: 0.25 };
        nodes.push(Node::start(cfg).await.unwrap());
    }
    for i in 1..nodes.len() {
        nodes[i].connect(nodes[i - 1].local_addr).await.unwrap();
    }
    let elevation = scenario.computed_elevation_deg(0, "alpha", 0.0).unwrap();
    let receipt = CoverageReceipt::create(&keys, 0, "alpha", "beta", 0.0, elevation).unwrap();
    nodes[0].publish(GossipItem::Receipt(receipt));
    let mut confirmed = false;
    for _ in 0..500 {
        if nodes.iter().all(|n| n.confirmed_count() == 1) {
            confirmed = true;
            break;
        }
        tokio::time::sleep(Duration::from_millis(10)).await;
    }
    assert!(confirmed, "coverage receipt confirmed on every node");
    let balances = nodes[2].reward_balances();
    assert!((balances["beta"] - 1.5).abs() < 1e-9, "{balances:?}");
    assert!((balances["alpha"] - 0.5).abs() < 1e-9, "{balances:?}");

    // ---- Phase 3: delta rage-quits ------------------------------------
    let delta_sats: Vec<u32> = outcome.rounds[3].satellites.iter().map(|&s| s as u32).collect();
    let notice_sats: Vec<u32> = delta_sats.clone();
    let bytes = WithdrawalNotice::signing_bytes("delta", &notice_sats, 0.0);
    let notice = WithdrawalNotice {
        party: "delta".into(),
        sat_ids: notice_sats,
        effective_s: 0.0,
        signature: keys.sign("delta", &bytes).unwrap(),
    };
    nodes[3].publish(GossipItem::Withdrawal(notice));
    let mut seen = false;
    for _ in 0..500 {
        if nodes.iter().all(|n| !n.withdrawals().is_empty()) {
            seen = true;
            break;
        }
        tokio::time::sleep(Duration::from_millis(10)).await;
    }
    assert!(seen, "withdrawal notice replicated");
    for n in &nodes {
        n.shutdown();
    }

    // ---- Phase 4: the physics of the withdrawal -----------------------
    let withdrawn: Vec<usize> = outcome.rounds[3].satellites.clone();
    let loss = withdrawal_loss(&vt, &constellation, &withdrawn, &weights);
    // Delta held a quarter of the satellites; the loss is bounded and
    // proportional, not catastrophic (the paper's §3.4 promise).
    assert!(loss.loss_s >= 0.0);
    let before_frac = loss.before_s / grid.duration_s();
    let after_frac = loss.after_s / grid.duration_s();
    assert!(
        after_frac > 0.5 * before_frac,
        "degradation proportional: {before_frac} -> {after_frac}"
    );
    // And the remaining coverage still exceeds what delta could build
    // alone with the same stake.
    let delta_alone = weighted_coverage_s(&vt, &withdrawn, &weights);
    assert!(
        loss.after_s > delta_alone,
        "staying shared beats going alone even after the exit: {} vs {}",
        loss.after_s,
        delta_alone
    );
}
