//! Integration tests for the extension systems: latency, DTN, SLA,
//! handover, failures, maneuvers, and conjunction screening working
//! together over one shared scenario.

use leosim::coverage::CoverageStats;
use leosim::dtn::{dtn_stats, simulate_dtn};
use leosim::ephemeris::EphemerisStore;
use leosim::latency::geo_latency_ms;
use leosim::visibility::{SimConfig, VisibilityTable};
use leosim::TimeGrid;
use mpleo::failures::{simulate_failures, FailureModel};
use mpleo::handover::{simulate_handover, HandoverPolicy};
use mpleo::sla::quote;
use orbital::constellation::{starlink_gen1_pool, walker_delta, ShellSpec};
use orbital::ground::GroundSite;
use orbital::maneuver;
use orbital::time::Epoch;
use traffic::{GraphConfig, RouteTable};

fn epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

/// One shared scenario: a 160-satellite Walker constellation, a Taipei
/// terminal, and a nearby gateway, over one day.
struct Scenario {
    vt_term: VisibilityTable,
    vt_gs: VisibilityTable,
    sats: Vec<orbital::constellation::Satellite>,
    grid: TimeGrid,
}

fn scenario() -> Scenario {
    let spec = ShellSpec { planes: 16, sats_per_plane: 10, ..ShellSpec::starlink_like() };
    let sats = walker_delta(&spec, epoch());
    let term = [GroundSite::from_degrees("Taipei", 25.03, 121.56)];
    let gs = [GroundSite::from_degrees("Kaohsiung-GS", 22.63, 120.30)];
    let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
    let cfg = SimConfig::default();
    Scenario {
        vt_term: VisibilityTable::compute(&sats, &term, &grid, &cfg),
        vt_gs: VisibilityTable::compute(&sats, &gs, &grid, &cfg),
        sats,
        grid,
    }
}

#[test]
fn latency_beats_geo_whenever_connected() {
    let sc = scenario();
    let term = [GroundSite::from_degrees("Taipei", 25.03, 121.56)];
    let gs = [GroundSite::from_degrees("Kaohsiung-GS", 22.63, 120.30)];
    let cfg = SimConfig::default();
    let store = EphemerisStore::build(&sc.sats, &sc.grid, &cfg);
    let bent_pipe = GraphConfig { max_hops: 0, ..GraphConfig::default() };
    let table = RouteTable::build(&store, &term, &gs, &cfg, &bent_pipe);
    assert!(table.routability() > 0.3, "availability {}", table.routability());
    let geo = geo_latency_ms(500.0, 500.0);
    for r in table.steps.iter().filter_map(|s| s.routes[0]) {
        let d = r.latency_ms;
        assert!(d < geo / 10.0, "LEO delay {d} ms should be >10x below GEO {geo} ms");
    }
}

#[test]
fn sla_and_handover_consistent_with_coverage() {
    let sc = scenario();
    let all: Vec<usize> = (0..sc.sats.len()).collect();
    let covered = sc.vt_term.coverage_union(&all, 0);
    let stats = CoverageStats::from_bitset(&covered, &sc.grid);
    let q = quote(&stats);
    // The quote's availability must equal the measured coverage.
    assert!((q.availability - stats.covered_fraction).abs() < 1e-12);
    // Handover trace connects exactly the covered steps.
    let trace = simulate_handover(&sc.vt_term, 0, &all, HandoverPolicy::StickyMaxDwell);
    assert_eq!(trace.connected_steps, covered.count_ones());
}

#[test]
fn dtn_latency_upper_bounds_realtime_gaps() {
    // DTN delivery can never be *faster* than the real-time path when a
    // simultaneous path exists: if terminal and GS are jointly covered at
    // the creation step, delivery is immediate (same step).
    let sc = scenario();
    let all: Vec<usize> = (0..sc.sats.len()).collect();
    let deliveries = simulate_dtn(&sc.vt_term, &sc.vt_gs, 0, &all, &[0], 30);
    let stats = dtn_stats(&deliveries, &sc.grid);
    assert!(stats.delivery_ratio > 0.9, "dense constellation delivers: {}", stats.delivery_ratio);
    for d in &deliveries {
        if let Some(lat) = d.latency_steps() {
            // With 160 sats the terminal sees a satellite within minutes;
            // bundles should deliver within a couple of hours worst case.
            assert!(lat as f64 * sc.grid.step_s < 6.0 * 3600.0, "latency {lat} steps");
        }
    }
}

#[test]
fn failure_process_interoperates_with_sla() {
    let sc = scenario();
    let all: Vec<usize> = (0..sc.sats.len()).collect();
    let model = FailureModel { mtbf_s: 5.0 * 86_400.0, launch_interval_s: 0.0, batch_size: 0 };
    let run = simulate_failures(&sc.vt_term, &all, 0, &model, 60, 7);
    assert_eq!(run.alive_count.len(), sc.grid.steps);
    // Coverage trajectory stays within [0, 1] and correlates with deaths.
    assert!(run.coverage.iter().all(|c| (0.0..=1.0).contains(c)));
    assert!(run.min_alive() <= all.len());
}

#[test]
fn maneuver_costs_consistent_with_placement_story() {
    // The integration-level sanity check of the economics ablation: for a
    // 550 km shell, inclination changes cost orders of magnitude more than
    // phasing or an altitude change.
    let incl = maneuver::plane_change(550.0, 10f64.to_radians());
    let phase = maneuver::phasing(550.0, 45f64.to_radians(), 30);
    let alt = maneuver::hohmann(550.0, 604.0);
    assert!(incl.delta_v_km_s / phase.delta_v_km_s > 30.0);
    assert!(incl.delta_v_km_s / alt.delta_v_km_s > 30.0);
}

#[test]
fn walker_pool_is_conjunction_free_but_rogue_is_caught() {
    use orbital::conjunction::{screen_all_pairs, ScreeningConfig};
    let spec = ShellSpec { planes: 6, sats_per_plane: 6, phasing: 1, ..ShellSpec::starlink_like() };
    let mut els: Vec<_> = walker_delta(&spec, epoch()).iter().map(|s| s.elements).collect();
    let cfg = ScreeningConfig::default();
    assert!(screen_all_pairs(&els, epoch(), 6.0 * 3600.0, &cfg).is_empty());
    // Duplicate slot = guaranteed 0 km conjunction.
    els.push(els[0]);
    let found = screen_all_pairs(&els, epoch(), 3600.0, &cfg);
    assert!(!found.is_empty());
    assert!(found[0].miss_distance_km < 0.5);
}

#[test]
fn full_pool_smoke() {
    // The 4.2k-satellite pool flows through the stack end to end.
    let pool = starlink_gen1_pool(epoch());
    assert!(pool.len() > 4000);
    let term = [GroundSite::from_degrees("Taipei", 25.03, 121.56)];
    let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 300.0);
    let vt = VisibilityTable::compute(&pool, &term, &grid, &SimConfig::default());
    let all: Vec<usize> = (0..pool.len()).collect();
    let stats = CoverageStats::from_bitset(&vt.coverage_union(&all, 0), &grid);
    assert!(stats.covered_fraction > 0.999, "full pool covers Taipei continuously");
    assert_eq!(quote(&stats).tier.name, "real-time");
}
