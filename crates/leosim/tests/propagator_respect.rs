//! Regression tests for the config-plumbing bug fixed by the ephemeris
//! refactor: `CoverageMap::compute` and ISL connectivity used to hardcode
//! `KeplerJ2` (and single-threaded loops), silently ignoring
//! `SimConfig::propagator`. They now read an `EphemerisStore::build`, which
//! honors it and runs on the shared `simrt` pool. These tests pin that
//! behaviour:
//!
//! * SGP4-configured runs must differ from KeplerJ2 runs (the models are
//!   kilometres apart over a day, far beyond any float noise) — proving
//!   the config actually reaches the propagation layer; one-shot paths must
//!   agree exactly with an explicitly SGP4-built store.
//! * Thread count must not change any output bit.

use leosim::bentpipe::isl_connectivity_from_store;
use leosim::coveragemap::CoverageMap;
use leosim::ephemeris::EphemerisStore;
use leosim::visibility::{PropagatorKind, SimConfig};
use leosim::TimeGrid;
use orbital::constellation::{single_plane, walker_delta, ShellSpec};
use orbital::ground::GroundSite;
use orbital::time::Epoch;

fn epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

fn kj2() -> SimConfig {
    SimConfig { propagator: PropagatorKind::KeplerJ2, ..Default::default() }
}

fn sgp4() -> SimConfig {
    SimConfig { propagator: PropagatorKind::Sgp4, ..Default::default() }
}

#[test]
fn sgp4_positions_differ_from_keplerj2_beyond_tolerance() {
    let sats = single_plane(4, 550.0, 53.0, epoch());
    let grid = TimeGrid::new(epoch(), 86_400.0, 300.0);
    let a = EphemerisStore::build(&sats, &grid, &kj2());
    let b = EphemerisStore::build(&sats, &grid, &sgp4());
    let max_sep = (0..a.sat_count())
        .flat_map(|s| (0..a.steps()).map(move |k| (s, k)))
        .map(|(s, k)| a.position(s, k).distance(b.position(s, k)))
        .fold(0.0f64, f64::max);
    // Well beyond float tolerance; well below a broken model.
    assert!(max_sep > 0.1, "SGP4 and KeplerJ2 suspiciously close: {max_sep} km");
    assert!(max_sep < 100.0, "models diverged implausibly: {max_sep} km");
}

#[test]
fn coverage_map_respects_configured_propagator() {
    let spec = ShellSpec { planes: 10, sats_per_plane: 8, ..ShellSpec::starlink_like() };
    let sats = walker_delta(&spec, epoch());
    let grid = TimeGrid::new(epoch(), 86_400.0, 600.0);
    let map_kj2 = CoverageMap::compute(&sats, &grid, &kj2().with_mask_deg(10.0), 18, 36);
    let map_sgp4 = CoverageMap::compute(&sats, &grid, &sgp4().with_mask_deg(10.0), 18, 36);
    // The regression: compute() used to hardcode KeplerJ2, making these equal.
    assert_ne!(map_kj2.cells, map_sgp4.cells, "propagator config ignored by CoverageMap");
    // And the one-shot path must match the explicit store path exactly.
    let store = EphemerisStore::build(&sats, &grid, &sgp4());
    let via_store = CoverageMap::compute_from_store(&store, &sgp4().with_mask_deg(10.0), 18, 36);
    assert_eq!(map_sgp4.cells, via_store.cells);
}

#[test]
fn isl_connectivity_respects_configured_propagator() {
    let spec = ShellSpec { planes: 6, sats_per_plane: 8, ..ShellSpec::starlink_like() };
    let sats = walker_delta(&spec, epoch());
    let term = [GroundSite::from_degrees("T", 25.0, 121.5)];
    let gs = [GroundSite::from_degrees("G", 35.7, 139.7)];
    let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
    let connected = |cfg: &SimConfig| {
        let store = EphemerisStore::build(&sats, &grid, cfg);
        isl_connectivity_from_store(&store, &term, &gs, cfg, 3000.0, 4).remove(0).connected
    };
    let (a, b) = (connected(&kj2()), connected(&sgp4()));
    // Two empty bitsets would compare equal (or unequal) for no reason.
    assert!(a.count_ones() > 0 && b.count_ones() > 0, "no Taipei-Tokyo relay at all");
    assert_ne!(a, b, "propagator config ignored by ISL path");
}

#[test]
fn thread_count_does_not_change_any_consumer_output() {
    let sats = single_plane(9, 550.0, 53.0, epoch());
    let term = [GroundSite::from_degrees("T", 25.0, 121.5)];
    let gs = [GroundSite::from_degrees("G", 25.5, 121.0)];
    let grid = TimeGrid::new(epoch(), 12.0 * 3600.0, 120.0);
    let cfg = SimConfig::default();
    let map = || CoverageMap::compute(&sats, &grid, &cfg.clone().with_mask_deg(10.0), 9, 18);
    assert_eq!(simrt::with_thread_cap(1, map).cells, simrt::with_thread_cap(4, map).cells);
    let isl = || {
        let store = EphemerisStore::build(&sats, &grid, &cfg);
        isl_connectivity_from_store(&store, &term, &gs, &cfg, 3000.0, 2).remove(0).connected
    };
    assert_eq!(simrt::with_thread_cap(1, isl), simrt::with_thread_cap(4, isl));
}
