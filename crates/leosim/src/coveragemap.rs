//! World coverage maps: coverage fraction on a latitude/longitude grid.
//!
//! The figures quantify coverage at *points*; the map shows its *shape* —
//! an inclined Walker constellation concentrates coverage in the latitude
//! bands around ±inclination and leaves the poles dark, which is the
//! geometric root of every experiment in the paper. Rendered as ASCII for
//! terminals and dumped as numbers for plotting.
//!
//! ```
//! use leosim::coveragemap::CoverageMap;
//! use leosim::visibility::SimConfig;
//! use leosim::TimeGrid;
//! use orbital::constellation::{walker_delta, ShellSpec};
//! use orbital::time::Epoch;
//!
//! let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
//! let shell = ShellSpec { planes: 3, sats_per_plane: 4, ..ShellSpec::starlink_like() };
//! let sats = walker_delta(&shell, epoch);
//! let grid = TimeGrid::new(epoch, 2.0 * 3600.0, 600.0);
//!
//! let map = CoverageMap::compute(&sats, &grid, &SimConfig::default(), 8, 16);
//! assert_eq!((map.rows, map.cols), (8, 16));
//! assert!((0.0..=1.0).contains(&map.global_mean()));
//! // An inclined shell cannot see the poles: the northernmost band is
//! // never better covered than the map as a whole.
//! assert!(map.row_mean(0) <= map.global_mean() + 1e-12);
//! // The ASCII rendering has one line per latitude row (plus its legend).
//! assert!(map.ascii().lines().count() >= map.rows);
//! ```

use crate::ephemeris::EphemerisStore;
use crate::timegrid::TimeGrid;
use crate::visibility::{site_range_sq, SimConfig};
use orbital::constellation::Satellite;
use orbital::ground::GroundSite;
use serde::{Deserialize, Serialize};

/// A coverage-fraction grid over the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageMap {
    /// Rows from north (+lat) to south, each a band of `cols` cells.
    pub cells: Vec<Vec<f64>>,
    /// Latitude rows.
    pub rows: usize,
    /// Longitude columns.
    pub cols: usize,
}

impl CoverageMap {
    /// Compute the map: for each cell center, the fraction of grid steps
    /// with at least one satellite above the mask.
    ///
    /// Convenience for one-shot callers: builds a throwaway
    /// [`EphemerisStore`] (honoring `config.propagator`) and delegates to
    /// [`CoverageMap::compute_from_store`].
    pub fn compute(
        sats: &[Satellite],
        grid: &TimeGrid,
        config: &SimConfig,
        rows: usize,
        cols: usize,
    ) -> CoverageMap {
        let store = EphemerisStore::build(sats, grid, config);
        Self::compute_from_store(&store, config, rows, cols)
    }

    /// Propagation-free map kernel over a prebuilt [`EphemerisStore`].
    pub fn compute_from_store(
        store: &EphemerisStore,
        config: &SimConfig,
        rows: usize,
        cols: usize,
    ) -> CoverageMap {
        assert!(rows >= 2 && cols >= 2, "grid too small");
        let sin_mask = config.sin_mask();
        // Cell-center sites.
        let sites: Vec<GroundSite> = (0..rows)
            .flat_map(|r| {
                let lat = 90.0 - 180.0 * (r as f64 + 0.5) / rows as f64;
                (0..cols).map(move |c| {
                    let lon = -180.0 + 360.0 * (c as f64 + 0.5) / cols as f64;
                    GroundSite::from_degrees(format!("cell-{r}-{c}"), lat, lon)
                })
            })
            .collect();
        // The same squared-range screen as the visibility table's kernel:
        // only a satellite within the cell's slant bound meets the predicate.
        let range_sq = site_range_sq(store, &sites, config);
        let steps = store.steps();
        let mut covered_steps = vec![0usize; sites.len()];
        let mut positions = vec![orbital::Vec3::ZERO; store.sat_count()];
        for k in 0..steps {
            for (i, slot) in positions.iter_mut().enumerate() {
                *slot = store.position(i, k);
            }
            for (ci, site) in sites.iter().enumerate() {
                let covered = positions.iter().any(|&pos| {
                    (pos - site.ecef).norm_sq() <= range_sq[ci] && site.sees_ecef_sin(pos, sin_mask)
                });
                if covered {
                    covered_steps[ci] += 1;
                }
            }
        }
        let cells = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| covered_steps[r * cols + c] as f64 / steps as f64)
                    .collect()
            })
            .collect();
        CoverageMap { cells, rows, cols }
    }

    /// Mean coverage of a latitude row, `[0, 1]`.
    pub fn row_mean(&self, row: usize) -> f64 {
        self.cells[row].iter().sum::<f64>() / self.cols as f64
    }

    /// The latitude (degrees) of a row's center.
    pub fn row_latitude_deg(&self, row: usize) -> f64 {
        90.0 - 180.0 * (row as f64 + 0.5) / self.rows as f64
    }

    /// Global area-weighted mean coverage (weights rows by cos(latitude)).
    pub fn global_mean(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for r in 0..self.rows {
            let w = self.row_latitude_deg(r).to_radians().cos().max(0.0);
            num += w * self.row_mean(r);
            den += w;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Render as ASCII art: one character per cell, darker = better covered.
    pub fn ascii(&self) -> String {
        const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.cells[r][c].clamp(0.0, 1.0);
                let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx]);
            }
            out.push_str(&format!("  {:+05.1}\n", self.row_latitude_deg(r)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbital::constellation::{walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn map(inclination_deg: f64) -> CoverageMap {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let spec = ShellSpec {
            planes: 10,
            sats_per_plane: 8,
            inclination_deg,
            ..ShellSpec::starlink_like()
        };
        let sats = walker_delta(&spec, epoch);
        let grid = TimeGrid::new(epoch, 6.0 * 3600.0, 600.0);
        CoverageMap::compute(&sats, &grid, &SimConfig::default().with_mask_deg(10.0), 18, 36)
    }

    #[test]
    fn inclined_shell_leaves_poles_dark() {
        let m = map(53.0);
        // Poles (first/last rows) get essentially nothing; mid-latitudes do.
        assert!(m.row_mean(0) < 0.05, "north pole {}", m.row_mean(0));
        assert!(m.row_mean(17) < 0.05, "south pole {}", m.row_mean(17));
        // The band near 50 degrees is the best covered.
        let band: f64 = (0..m.rows)
            .filter(|&r| (m.row_latitude_deg(r).abs() - 50.0).abs() < 10.0)
            .map(|r| m.row_mean(r))
            .fold(0.0, f64::max);
        let equator = m.row_mean(m.rows / 2);
        assert!(band > equator, "band {band} vs equator {equator}");
        assert!(band > 0.2, "band coverage {band}");
    }

    #[test]
    fn polar_shell_reaches_poles() {
        let m = map(90.0);
        assert!(m.row_mean(0) > 0.3, "polar shell must cover the pole: {}", m.row_mean(0));
    }

    #[test]
    fn global_mean_bounded_and_sane() {
        let m = map(53.0);
        let g = m.global_mean();
        assert!((0.0..=1.0).contains(&g));
        assert!(g > 0.05, "80 satellites at 10 deg mask cover something: {g}");
    }

    #[test]
    fn range_screen_changes_no_cell() {
        // The oracle is the unscreened scan: every cell centre against every
        // satellite with the predicate alone.
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let spec = ShellSpec { planes: 6, sats_per_plane: 5, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch);
        let grid = TimeGrid::new(epoch, 3.0 * 3600.0, 300.0);
        let (rows, cols) = (9, 12);
        for mask in [-5.0, 10.0, 25.0, 60.0] {
            let cfg = SimConfig::default().with_mask_deg(mask);
            let store = EphemerisStore::build(&sats, &grid, &cfg);
            let m = CoverageMap::compute_from_store(&store, &cfg, rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    let lat = 90.0 - 180.0 * (r as f64 + 0.5) / rows as f64;
                    let lon = -180.0 + 360.0 * (c as f64 + 0.5) / cols as f64;
                    let site = GroundSite::from_degrees("cell", lat, lon);
                    let covered = (0..grid.steps)
                        .filter(|&k| {
                            (0..sats.len())
                                .any(|s| site.sees_ecef_sin(store.position(s, k), cfg.sin_mask()))
                        })
                        .count();
                    let want = covered as f64 / grid.steps as f64;
                    assert_eq!(m.cells[r][c], want, "mask {mask} cell {r},{c}");
                }
            }
        }
    }

    #[test]
    fn ascii_renders_all_rows() {
        let m = map(53.0);
        let art = m.ascii();
        assert_eq!(art.lines().count(), 18);
        for line in art.lines() {
            assert!(line.len() >= 36, "row too short: {line:?}");
        }
    }

    #[test]
    fn symmetry_north_south() {
        // A Walker shell covers hemispheres symmetrically (up to sampling).
        let m = map(53.0);
        for r in 0..m.rows / 2 {
            let north = m.row_mean(r);
            let south = m.row_mean(m.rows - 1 - r);
            assert!(
                (north - south).abs() < 0.15,
                "row {r}: north {north} vs south {south}"
            );
        }
    }
}
