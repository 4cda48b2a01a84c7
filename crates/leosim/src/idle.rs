//! Satellite idle-time analysis (the paper's Fig. 3).
//!
//! A satellite is *idle* at a step when it is not serving any user terminal
//! — for a region-specific constellation, that is whenever the satellite is
//! not above the elevation mask of any served city. The paper shows that a
//! constellation serving one city leaves each satellite idle ~99% of the
//! time, and that idle time falls as the served set grows toward global
//! coverage — the core utilization argument for MP-LEO.

use crate::visibility::VisibilityTable;
use serde::{Deserialize, Serialize};

/// Idle-time summary for one satellite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatelliteIdle {
    /// Satellite ID.
    pub sat_id: u32,
    /// Fraction of time idle, `[0, 1]`.
    pub idle_fraction: f64,
    /// Fraction of time busy (visible to at least one served site).
    pub busy_fraction: f64,
}

/// Compute idle fractions for every satellite in the table against the
/// served subset of sites.
pub fn idle_per_satellite(vt: &VisibilityTable, served_sites: &[usize]) -> Vec<SatelliteIdle> {
    (0..vt.sat_count())
        .map(|s| {
            let busy = vt.visible_to_any(s, served_sites).fraction_ones();
            SatelliteIdle {
                sat_id: vt.sat_ids[s],
                idle_fraction: 1.0 - busy,
                busy_fraction: busy,
            }
        })
        .collect()
}

/// Mean idle fraction across the constellation for a served-site subset —
/// one point of the Fig. 3 curve.
pub fn mean_idle_fraction(vt: &VisibilityTable, served_sites: &[usize]) -> f64 {
    let per_sat = idle_per_satellite(vt, served_sites);
    per_sat.iter().map(|s| s.idle_fraction).sum::<f64>() / per_sat.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timegrid::TimeGrid;
    use crate::visibility::SimConfig;
    use orbital::constellation::single_plane;
    use orbital::ground::GroundSite;
    use orbital::time::Epoch;

    fn table(n_sites: usize) -> VisibilityTable {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let sats = single_plane(6, 550.0, 53.0, epoch);
        let all_sites = [GroundSite::from_degrees("Tokyo", 35.69, 139.69),
            GroundSite::from_degrees("Delhi", 28.61, 77.21),
            GroundSite::from_degrees("SaoPaulo", -23.55, -46.63),
            GroundSite::from_degrees("NewYork", 40.71, -74.01),
            GroundSite::from_degrees("Lagos", 6.52, 3.38)];
        let grid = TimeGrid::new(epoch, 2.0 * 86_400.0, 60.0);
        VisibilityTable::compute(&sats, &all_sites[..n_sites], &grid, &SimConfig::default())
    }

    #[test]
    fn one_city_mostly_idle() {
        let vt = table(1);
        let idle = mean_idle_fraction(&vt, &[0]);
        // Paper: ~99% idle when serving a single city.
        assert!(idle > 0.95, "idle {idle}");
    }

    #[test]
    fn idle_decreases_with_more_cities() {
        let vt = table(5);
        let idle1 = mean_idle_fraction(&vt, &[0]);
        let idle3 = mean_idle_fraction(&vt, &[0, 1, 2]);
        let idle5 = mean_idle_fraction(&vt, &[0, 1, 2, 3, 4]);
        assert!(idle1 >= idle3, "{idle1} vs {idle3}");
        assert!(idle3 >= idle5, "{idle3} vs {idle5}");
        assert!(idle5 < idle1, "serving 5 cities must beat 1");
    }

    #[test]
    fn per_satellite_fields_consistent() {
        let vt = table(2);
        for s in idle_per_satellite(&vt, &[0, 1]) {
            assert!((s.idle_fraction + s.busy_fraction - 1.0).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&s.idle_fraction));
        }
    }

    #[test]
    fn no_served_sites_fully_idle() {
        let vt = table(1);
        let idle = mean_idle_fraction(&vt, &[]);
        assert!((idle - 1.0).abs() < 1e-12);
    }
}
