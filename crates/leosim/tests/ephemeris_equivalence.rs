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
use orbital::frames::{eci_to_ecef, Geodetic};
use orbital::ground::GroundSite;
use orbital::kepler::ClassicalElements;
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

/// Beyond the circular pool: planes of eccentric, polar and retrograde
/// orbits in more than one shell, with element epochs of their own.
fn mixed_pool() -> Vec<Satellite> {
    let mut sats = Vec::new();
    // (a km, e, inclination deg, argument of perigee, element epoch offset s)
    let shells: [(f64, f64, f64, f64, f64); 5] = [
        (6928.0, 0.0, 53.0, 0.0, 0.0),
        (6928.0, 1e-13, 97.6, 1.0, 0.0),
        (7050.0, 0.001, 90.0, 2.0, -5400.0),
        (7400.0, 0.05, 142.0, 4.0, 0.0),
        (9000.0, 0.12, 63.4, 4.712, 1800.0),
    ];
    for (shell, &(a_km, e, inc_deg, argp, epoch_offset_s)) in shells.iter().enumerate() {
        for plane in 0..3u32 {
            for slot in 0..4u32 {
                let id = sats.len() as u32;
                sats.push(Satellite {
                    id,
                    name: format!("MIX{shell}-P{plane}-S{slot}"),
                    shell: format!("MIX{shell}"),
                    plane,
                    slot,
                    elements: ClassicalElements {
                        semi_major_axis_km: a_km,
                        eccentricity: e,
                        inclination_rad: inc_deg.to_radians(),
                        raan_rad: 0.4 + 2.0 * plane as f64,
                        arg_perigee_rad: argp,
                        mean_anomaly_rad: 0.2 + 1.5 * slot as f64,
                    },
                    epoch: epoch().plus_seconds(epoch_offset_s),
                });
            }
        }
    }
    sats
}

/// Sites where the geodetic zenith leaves the geocentric radial the most
/// (mid-latitudes), not at all (equator, poles), and one at altitude.
fn awkward_sites() -> Vec<GroundSite> {
    vec![
        GroundSite::from_degrees("North Pole", 90.0, 0.0),
        GroundSite::from_degrees("South Pole", -90.0, 45.0),
        GroundSite::from_degrees("Quito", 0.0, -78.5),
        GroundSite::from_degrees("Bordeaux", 44.84, -0.58),
        GroundSite::from_degrees("Dunedin", -45.87, 170.5),
        GroundSite::new("La Rinconada", Geodetic::from_degrees(-14.63, -69.45, 4.0)),
    ]
}

fn assert_positions_match_per_step(store: &EphemerisStore, sats: &[Satellite], label: &str) {
    let grid = &store.grid;
    let bits = |v: orbital::Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    for (i, sat) in sats.iter().enumerate() {
        let prop = KeplerJ2::from_elements(&sat.elements, sat.epoch);
        for k in 0..grid.steps {
            let want = eci_to_ecef(prop.position_at(grid.epoch_at(k)), grid.gmst_at(k));
            assert_eq!(bits(store.position(i, k)), bits(want), "{label}: sat {i} step {k}");
        }
    }
}

#[test]
fn mixed_pool_positions_bit_identical_on_awkward_grids() {
    let sats = mixed_pool();
    let grids = [
        // Starts before every element epoch and crosses midnight.
        ("before epoch", TimeGrid::new(epoch().plus_seconds(-3.0 * 3600.0), 6.0 * 3600.0, 90.0)),
        // Off the minute, across the next midnight.
        ("off the minute", TimeGrid::new(epoch().plus_seconds(85_000.5), 3000.0, 47.0)),
        ("one step", TimeGrid::new(epoch().plus_seconds(600.0), 0.0, 60.0)),
        ("a thousand steps", TimeGrid::new(epoch(), 999.0 * 20.0, 20.0)),
    ];
    let cfg = SimConfig::default();
    for (label, grid) in &grids {
        for threads in [1usize, 4] {
            let store =
                simrt::with_thread_cap(threads, || EphemerisStore::build(&sats, grid, &cfg));
            assert_positions_match_per_step(&store, &sats, &format!("{label}, {threads} threads"));
        }
    }
    assert_eq!(grids[2].1.steps, 1);
    assert_eq!(grids[3].1.steps, 1000);
}

#[test]
fn max_radius_sq_bounds_every_stored_position() {
    // The highest shell comes last, so a maximum folded over the first
    // chunk only is too small.
    let sats = mixed_pool();
    let grid = TimeGrid::new(epoch(), 4.0 * 3600.0, 120.0);
    let largest = |store: &EphemerisStore| {
        (0..store.sat_count())
            .flat_map(|s| (0..store.steps()).map(move |k| (s, k)))
            .map(|(s, k)| store.position(s, k).norm_sq())
            .fold(0.0f64, f64::max)
    };
    for threads in [1usize, 2, 4] {
        let store = simrt::with_thread_cap(threads, || {
            EphemerisStore::build(&sats, &grid, &SimConfig::default())
        });
        assert_eq!(store.max_radius_sq(), largest(&store), "{threads} threads");
        assert!(store.max_radius_sq() > 9000.0 * 9000.0, "the eccentric shell's apogee");
        // A selection keeps the pool's bound, whatever rows it holds.
        for picks in [vec![0usize, 5, 59], vec![3, 1]] {
            let sub = store.select(&picks);
            assert!(sub.max_radius_sq() >= largest(&sub));
            assert_eq!(sub.max_radius_sq(), store.max_radius_sq());
        }
    }
    let empty = EphemerisStore::build(&[], &grid, &SimConfig::default());
    assert_eq!(empty.max_radius_sq(), 0.0);
}

#[test]
fn range_screen_keeps_every_bit_across_masks_and_sites() {
    // The squared-range compare in front of the predicate must never drop a
    // set bit: every mask from below the horizon to the zenith, against the
    // per-step full-scan oracle, over the whole store, a subset of its rows
    // and a `select`ed sub-store (which carries the pool's radius bound).
    let mut sats = mixed_pool();
    sats.extend(pool());
    let sites = awkward_sites();
    let grid = TimeGrid::new(epoch(), 8.0 * 3600.0, 60.0);
    let picks = [61usize, 0, 37, 93, 12, 50];
    let picked: Vec<Satellite> = picks.iter().map(|&i| sats[i].clone()).collect();
    let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
    let selected = store.select(&picks);
    let mut set_bits = 0;
    for mask in [-5.0, 0.0, 10.0, 25.0, 40.0, 89.0] {
        let cfg = SimConfig::default().with_mask_deg(mask);
        let reference = reference_visibility(&sats, &sites, &grid, &cfg);
        set_bits += reference.iter().flatten().map(|b| b.count_ones()).sum::<usize>();
        let vt = VisibilityTable::from_store(&store, &sites, &cfg);
        assert_tables_identical(&vt, &reference, &format!("mask {mask}"));
        let picked_reference = reference_visibility(&picked, &sites, &grid, &cfg);
        let subset = VisibilityTable::from_store_subset(&store, &picks, &sites, &cfg);
        assert_tables_identical(&subset, &picked_reference, &format!("subset, mask {mask}"));
        let sub = VisibilityTable::from_store(&selected, &sites, &cfg);
        assert_tables_identical(&sub, &picked_reference, &format!("select, mask {mask}"));
    }
    assert!(set_bits > 10_000, "the sweep saw {set_bits} visible samples");
}
