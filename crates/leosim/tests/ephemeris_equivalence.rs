//! Equivalence property: the store-backed visibility kernel is bit-identical
//! to the pre-refactor per-step propagation path.
//!
//! `reference_visibility` below is a faithful copy of the per-step
//! implementation `VisibilityTable::compute` used before the ephemeris layer
//! existed: per satellite, instantiate the configured propagator, and per
//! grid step propagate, rotate to ECEF with the grid's precomputed GMST, and
//! screen against every site. Any divergence — a reordered float operation,
//! a racy chunk boundary — fails these tests exactly, not within a
//! tolerance.

use leosim::bitset::TimeBitset;
use leosim::ephemeris::EphemerisStore;
use leosim::visibility::{PropagatorKind, SimConfig, VisibilityTable};
use leosim::TimeGrid;
use orbital::constellation::{walker_delta, Satellite, ShellSpec};
use orbital::frames::eci_to_ecef;
use orbital::ground::GroundSite;
use orbital::propagator::{KeplerJ2, Propagator, Sgp4};
use orbital::time::Epoch;

fn epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

fn pool() -> Vec<Satellite> {
    let spec = ShellSpec { planes: 8, sats_per_plane: 6, ..ShellSpec::starlink_like() };
    walker_delta(&spec, epoch())
}

fn sites() -> Vec<GroundSite> {
    vec![
        GroundSite::from_degrees("Taipei", 25.03, 121.56),
        GroundSite::from_degrees("Tokyo", 35.69, 139.69),
        GroundSite::from_degrees("Lagos", 6.52, 3.38),
    ]
}

/// The pre-refactor per-step visibility path, kept verbatim as the oracle.
fn reference_visibility(
    sats: &[Satellite],
    sites: &[GroundSite],
    grid: &TimeGrid,
    config: &SimConfig,
) -> Vec<Vec<TimeBitset>> {
    let sin_mask = config.min_elevation_deg.to_radians().sin();
    sats.iter()
        .map(|sat| {
            let mut row: Vec<TimeBitset> =
                (0..sites.len()).map(|_| TimeBitset::zeros(grid.steps)).collect();
            let kj2;
            let sgp4;
            let prop: &dyn Propagator = match config.propagator {
                PropagatorKind::KeplerJ2 => {
                    kj2 = KeplerJ2::from_elements(&sat.elements, sat.epoch);
                    &kj2
                }
                PropagatorKind::Sgp4 => {
                    let tle = sat.to_tle();
                    sgp4 = Sgp4::from_tle(&tle).expect("constellation TLEs are near-Earth");
                    &sgp4
                }
            };
            for k in 0..grid.steps {
                let eci = prop.position_at(grid.epoch_at(k));
                let ecef = eci_to_ecef(eci, grid.gmst_at(k));
                for (si, site) in sites.iter().enumerate() {
                    if site.sees_ecef_sin(ecef, sin_mask) {
                        row[si].set(k);
                    }
                }
            }
            row
        })
        .collect()
}

fn assert_tables_identical(vt: &VisibilityTable, reference: &[Vec<TimeBitset>], label: &str) {
    assert_eq!(vt.sat_count(), reference.len(), "{label}: satellite count");
    for (s, row) in reference.iter().enumerate() {
        for (site, bits) in row.iter().enumerate() {
            assert_eq!(vt.bitset(s, site), bits, "{label}: sat {s} site {site}");
        }
    }
}

#[test]
fn store_path_bit_identical_across_masks_and_threads() {
    let sats = pool();
    let sites = sites();
    let grid = TimeGrid::new(epoch(), 12.0 * 3600.0, 120.0);
    for mask in [10.0, 25.0, 40.0] {
        let cfg = SimConfig::default().with_mask_deg(mask);
        let reference = reference_visibility(&sats, &sites, &grid, &cfg);
        for threads in [1usize, 4] {
            simrt::with_thread_cap(threads, || {
                let store = EphemerisStore::build(&sats, &grid, &cfg);
                let vt = VisibilityTable::from_store(&store, &sites, &cfg);
                assert_tables_identical(&vt, &reference, &format!("mask {mask} threads {threads}"));
                // The one-shot convenience must agree too.
                let direct = VisibilityTable::compute(&sats, &sites, &grid, &cfg);
                assert_tables_identical(&direct, &reference, &format!("compute mask {mask}"));
            });
        }
    }
}

#[test]
fn store_path_bit_identical_for_sgp4() {
    let sats = pool();
    let sites = sites();
    let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 120.0);
    let cfg = SimConfig { propagator: PropagatorKind::Sgp4, ..Default::default() };
    let reference = reference_visibility(&sats, &sites, &grid, &cfg);
    let store = EphemerisStore::build(&sats, &grid, &cfg);
    let vt = VisibilityTable::from_store(&store, &sites, &cfg);
    assert_tables_identical(&vt, &reference, "sgp4");
}

#[test]
fn subset_rows_bit_identical_to_reference_subset() {
    let sats = pool();
    let sites = sites();
    let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 120.0);
    let cfg = SimConfig::default();
    let store = EphemerisStore::build(&sats, &grid, &cfg);
    let picks = [17usize, 3, 41, 8];
    let subset_sats: Vec<Satellite> = picks.iter().map(|&i| sats[i].clone()).collect();
    let reference = reference_visibility(&subset_sats, &sites, &grid, &cfg);
    let vt = VisibilityTable::from_store_subset(&store, &picks, &sites, &cfg);
    assert_tables_identical(&vt, &reference, "subset");
    // select() then from_store must agree as well.
    let selected = store.select(&picks);
    let vt2 = VisibilityTable::from_store(&selected, &sites, &cfg);
    assert_tables_identical(&vt2, &reference, "select + from_store");
}
