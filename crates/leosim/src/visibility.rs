//! The visibility engine: per-(satellite, site) visibility bitsets over a
//! time grid.
//!
//! Propagation itself lives in the [`crate::ephemeris`] layer;
//! [`VisibilityTable::from_store`] is a pure, propagation-free geometry
//! kernel over an [`EphemerisStore`]'s columnar ECEF rows.
//! [`VisibilityTable::compute`] remains as the one-shot convenience that
//! builds a throwaway store first. Work is partitioned across threads by
//! satellite on the shared `simrt` worker pool, whose scoped primitives let
//! the store and site slices be borrowed without cloning.
//!
//! The kernel is all pairs — every (satellite, site, step) — but only about
//! one pair in a hundred is close enough to be above any mask, and the
//! exact predicate ([`GroundSite::sees_ecef_sin`]) costs a square root and
//! a divide. So each pair is first compared, squared distance against
//! squared bound, with the site's conservative slant range
//! ([`orbital::ground::SlantBound`], which holds the derivation and the
//! sweep that tests it); only the survivors reach the predicate, which
//! alone sets bits. The per-step oracle in `tests/ephemeris_equivalence.rs`
//! pins the result bit for bit.

use crate::bitset::TimeBitset;
use crate::ephemeris::EphemerisStore;
use crate::timegrid::TimeGrid;
use orbital::constellation::Satellite;
use orbital::ground::GroundSite;
use orbital::math::Vec3;
use serde::{Deserialize, Serialize};

/// Which propagator model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PropagatorKind {
    /// Two-body + secular J2 (fast; default).
    #[default]
    KeplerJ2,
    /// Full near-Earth SGP4 (slower; for TLE-sourced elements with drag).
    Sgp4,
}

/// Simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Minimum elevation angle for a usable link, degrees. Starlink-class
    /// user terminals use ~25 degrees.
    pub min_elevation_deg: f64,
    /// Propagator model.
    pub propagator: PropagatorKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { min_elevation_deg: 25.0, propagator: PropagatorKind::KeplerJ2 }
    }
}

impl SimConfig {
    /// Config with a different elevation mask.
    pub fn with_mask_deg(mut self, deg: f64) -> Self {
        self.min_elevation_deg = deg;
        self
    }

    /// Sine of the elevation mask — the constant every visibility hot loop
    /// compares [`orbital::ground::GroundSite::sees_ecef_sin`] against.
    /// One canonical definition so every consumer computes the same bits.
    #[inline]
    pub fn sin_mask(&self) -> f64 {
        self.min_elevation_deg.to_radians().sin()
    }
}

/// Per-(satellite, site) visibility over a time grid.
///
/// Layout: `table[sat_index][site_index]` is the bitset of steps where that
/// satellite is above the elevation mask at that site. Satellite order
/// matches the input slice; `sat_ids` records their stable IDs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VisibilityTable {
    /// The time grid the bitsets are indexed by.
    pub grid: TimeGrid,
    /// Stable satellite IDs in table order.
    pub sat_ids: Vec<u32>,
    /// Site names in table order.
    pub site_names: Vec<String>,
    /// `table[sat][site]` visibility bitsets.
    pub table: Vec<Vec<TimeBitset>>,
}

impl VisibilityTable {
    /// Propagate `sats` over `grid` and test visibility against every site.
    ///
    /// Convenience for one-shot callers: builds a throwaway
    /// [`EphemerisStore`] and runs [`VisibilityTable::from_store`] over it.
    /// Callers that evaluate several masks or consumers on the same pool
    /// should build the store once and share it.
    pub fn compute(
        sats: &[Satellite],
        sites: &[GroundSite],
        grid: &TimeGrid,
        config: &SimConfig,
    ) -> VisibilityTable {
        let store = EphemerisStore::build(sats, grid, config);
        Self::from_store(&store, sites, config)
    }

    /// The propagation-free geometry kernel: test every satellite row of a
    /// prebuilt [`EphemerisStore`] against every site. Output is bit-identical
    /// to [`VisibilityTable::compute`] on the pool the store was built from.
    pub fn from_store(
        store: &EphemerisStore,
        sites: &[GroundSite],
        config: &SimConfig,
    ) -> VisibilityTable {
        let all: Vec<usize> = (0..store.sat_count()).collect();
        Self::from_store_subset(store, &all, sites, config)
    }

    /// [`VisibilityTable::from_store`] restricted to the given store rows.
    /// Table order follows `indices`, so sampling experiments can reuse one
    /// pool-wide store without copying positions.
    pub fn from_store_subset(
        store: &EphemerisStore,
        indices: &[usize],
        sites: &[GroundSite],
        config: &SimConfig,
    ) -> VisibilityTable {
        let sin_mask = config.sin_mask();
        let range_sq = site_range_sq(store, sites, config);
        let n = indices.len();
        // One task per satellite row on the shared pool; results land in
        // index order, so the table is identical at every thread count.
        let table: Vec<Vec<TimeBitset>> = simrt::par_map_indexed(n, 0, |i| {
            visibility_row(store, indices[i], sites, &range_sq, sin_mask)
        });

        VisibilityTable {
            grid: store.grid.clone(),
            sat_ids: indices.iter().map(|&s| store.sat_ids[s]).collect(),
            site_names: sites.iter().map(|s| s.name.clone()).collect(),
            table,
        }
    }

    /// Number of satellites in the table.
    pub fn sat_count(&self) -> usize {
        self.table.len()
    }

    /// Number of sites in the table.
    pub fn site_count(&self) -> usize {
        self.site_names.len()
    }

    /// The visibility bitset of `sat` at `site` (indices in table order).
    pub fn bitset(&self, sat: usize, site: usize) -> &TimeBitset {
        &self.table[sat][site]
    }

    /// Union coverage of a subset of satellites at one site: the steps where
    /// *any* satellite in `sat_indices` is visible.
    pub fn coverage_union(&self, sat_indices: &[usize], site: usize) -> TimeBitset {
        let mut acc = TimeBitset::zeros(self.grid.steps);
        for &s in sat_indices {
            acc.union_assign(&self.table[s][site]);
        }
        acc
    }

    /// For every site, the union coverage of a subset of satellites.
    pub fn coverage_unions(&self, sat_indices: &[usize]) -> Vec<TimeBitset> {
        (0..self.site_count()).map(|site| self.coverage_union(sat_indices, site)).collect()
    }

    /// The steps where satellite `sat` is visible from *at least one* of the
    /// given sites (used for idle-time analysis).
    pub fn visible_to_any(&self, sat: usize, site_indices: &[usize]) -> TimeBitset {
        let mut acc = TimeBitset::zeros(self.grid.steps);
        for &site in site_indices {
            acc.union_assign(&self.table[sat][site]);
        }
        acc
    }
}

/// Per site, the square of the largest range at which anything in `store`
/// can be above the mask ([`orbital::ground::SlantBound`], at the store's
/// [`EphemerisStore::max_radius_sq`]), km²: what the all-pairs kernels here
/// and in [`crate::coveragemap`] compare `|p − site|²` against before the
/// exact predicate.
pub(crate) fn site_range_sq(
    store: &EphemerisStore,
    sites: &[GroundSite],
    config: &SimConfig,
) -> Vec<f64> {
    let r_max_sq = store.max_radius_sq();
    sites
        .iter()
        .map(|site| {
            let d = site.slant_bound(config.min_elevation_deg).max_range_km(r_max_sq);
            d * d
        })
        .collect()
}

/// Screen one columnar ephemeris row against every site. Positions are read
/// straight from the store, so this is pure geometry — no propagator here.
/// Site-outer over the contiguous row: a squared-distance compare against
/// `range_sq[site]` discards the ~99 % of pairs too far apart to be above
/// the mask, and every set bit comes from the predicate itself.
fn visibility_row(
    store: &EphemerisStore,
    sat: usize,
    sites: &[GroundSite],
    range_sq: &[f64],
    sin_mask: f64,
) -> Vec<TimeBitset> {
    let steps = store.steps();
    let (xs, ys, zs) = store.row(sat);
    sites
        .iter()
        .zip(range_sq)
        .map(|(site, &bound_sq)| {
            let mut bits = TimeBitset::zeros(steps);
            for (k, ((&x, &y), &z)) in xs.iter().zip(ys).zip(zs).enumerate() {
                let ecef = Vec3::new(x, y, z);
                if (ecef - site.ecef).norm_sq() <= bound_sq && site.sees_ecef_sin(ecef, sin_mask) {
                    bits.set(k);
                }
            }
            bits
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbital::constellation::{single_plane, walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn taipei() -> GroundSite {
        GroundSite::from_degrees("Taipei", 25.03, 121.56)
    }

    #[test]
    fn single_satellite_small_coverage() {
        // Paper Sec. 2: a single satellite covers a site < 1% of the time.
        let sats = single_plane(1, 550.0, 53.0, epoch());
        let sites = [taipei()];
        let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
        let vt = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default());
        let frac = vt.bitset(0, 0).fraction_ones();
        assert!(frac < 0.02, "single-sat coverage fraction {frac}");
    }

    #[test]
    fn more_satellites_more_coverage() {
        let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
        let sites = [taipei()];
        let small = single_plane(4, 550.0, 53.0, epoch());
        let spec = ShellSpec {
            planes: 12,
            sats_per_plane: 12,
            ..ShellSpec::starlink_like()
        };
        let big = walker_delta(&spec, epoch());
        let cfg = SimConfig::default();
        let vt_small = VisibilityTable::compute(&small, &sites, &grid, &cfg);
        let vt_big = VisibilityTable::compute(&big, &sites, &grid, &cfg);
        let idx_small: Vec<usize> = (0..small.len()).collect();
        let idx_big: Vec<usize> = (0..big.len()).collect();
        let c_small = vt_small.coverage_union(&idx_small, 0).fraction_ones();
        let c_big = vt_big.coverage_union(&idx_big, 0).fraction_ones();
        assert!(c_big > c_small, "144 sats {c_big} vs 4 sats {c_small}");
    }

    #[test]
    fn mask_monotonicity() {
        let sats = single_plane(8, 550.0, 53.0, epoch());
        let sites = [taipei()];
        let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
        let lo = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default().with_mask_deg(10.0));
        let hi = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default().with_mask_deg(40.0));
        for s in 0..sats.len() {
            let a = lo.bitset(s, 0);
            let b = hi.bitset(s, 0);
            // Everything visible at 40 deg is visible at 10 deg.
            assert_eq!(a.intersection_count(b), b.count_ones(), "sat {s}");
        }
    }

    #[test]
    fn equatorial_orbit_never_seen_from_high_latitude() {
        let sats = single_plane(4, 550.0, 0.0, epoch());
        let sites = [GroundSite::from_degrees("Oslo", 59.9, 10.7)];
        let grid = TimeGrid::new(epoch(), 86_400.0, 30.0);
        let vt = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default());
        for s in 0..sats.len() {
            assert_eq!(vt.bitset(s, 0).count_ones(), 0, "sat {s}");
        }
    }

    #[test]
    fn thread_counts_agree() {
        let sats = single_plane(6, 550.0, 53.0, epoch());
        let sites = [taipei(), GroundSite::from_degrees("Tokyo", 35.69, 139.69)];
        let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 60.0);
        let compute = || VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default());
        let t1 = simrt::with_thread_cap(1, compute);
        let t4 = simrt::with_thread_cap(4, compute);
        for s in 0..sats.len() {
            for site in 0..2 {
                assert_eq!(t1.bitset(s, site), t4.bitset(s, site), "sat {s} site {site}");
            }
        }
    }

    #[test]
    fn sgp4_and_keplerj2_similar_coverage() {
        let sats = single_plane(8, 550.0, 53.0, epoch());
        let sites = [taipei()];
        let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
        let a = VisibilityTable::compute(
            &sats,
            &sites,
            &grid,
            &SimConfig { propagator: PropagatorKind::KeplerJ2, ..Default::default() },
        );
        let b = VisibilityTable::compute(
            &sats,
            &sites,
            &grid,
            &SimConfig { propagator: PropagatorKind::Sgp4, ..Default::default() },
        );
        let idx: Vec<usize> = (0..sats.len()).collect();
        let ca = a.coverage_union(&idx, 0).fraction_ones();
        let cb = b.coverage_union(&idx, 0).fraction_ones();
        assert!((ca - cb).abs() < 0.01, "KeplerJ2 {ca} vs SGP4 {cb}");
    }

    #[test]
    fn from_store_subset_matches_direct_compute() {
        use crate::ephemeris::EphemerisStore;
        let sats = single_plane(6, 550.0, 53.0, epoch());
        let sites = [taipei(), GroundSite::from_degrees("Tokyo", 35.69, 139.69)];
        let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 120.0);
        let cfg = SimConfig::default();
        let store = EphemerisStore::build(&sats, &grid, &cfg);
        let picks = [5usize, 2, 0];
        let sub = VisibilityTable::from_store_subset(&store, &picks, &sites, &cfg);
        let direct = VisibilityTable::compute(
            &[sats[5].clone(), sats[2].clone(), sats[0].clone()],
            &sites,
            &grid,
            &cfg,
        );
        assert_eq!(sub.sat_ids, direct.sat_ids);
        for s in 0..picks.len() {
            for site in 0..sites.len() {
                assert_eq!(sub.bitset(s, site), direct.bitset(s, site), "sat {s} site {site}");
            }
        }
    }

    #[test]
    fn visible_to_any_unions_sites() {
        let sats = single_plane(2, 550.0, 53.0, epoch());
        let sites = [taipei(), GroundSite::from_degrees("Seoul", 37.57, 126.98)];
        let grid = TimeGrid::new(epoch(), 12.0 * 3600.0, 60.0);
        let vt = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default());
        let any = vt.visible_to_any(0, &[0, 1]);
        let mut manual = vt.bitset(0, 0).clone();
        manual.union_assign(vt.bitset(0, 1));
        assert_eq!(any, manual);
    }

    #[test]
    fn passes_have_leo_durations() {
        // Runs of visibility should be minutes, not hours (LEO passes).
        let sats = single_plane(1, 550.0, 53.0, epoch());
        let sites = [taipei()];
        let grid = TimeGrid::new(epoch(), 3.0 * 86_400.0, 30.0);
        let vt = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default());
        for run in vt.bitset(0, 0).runs_of_ones() {
            let dur = grid.steps_to_seconds(run.len());
            assert!(dur <= 12.0 * 60.0, "pass of {dur} s");
        }
    }
}
