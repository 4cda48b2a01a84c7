//! Link latency: propagation delay through the bent pipe.
//!
//! The paper dismisses geostationary satellites because their altitude
//! "leads to orders of magnitude degradation in network latency
//! (second-level)" (§2). This module holds the per-step delay series of a
//! terminal → satellite → ground station path with its statistics, and the
//! closed-form GEO comparison. The series itself is read off `traffic`'s
//! routes (`Route::latency_ms` at `max_hops = 0`: the minimum-path
//! satellite that sees both endpoints carries the traffic).

use serde::{Deserialize, Serialize};

/// Speed of light, km/s.
pub const C_KM_S: f64 = 299_792.458;

/// One-way bent-pipe latency series for a terminal/ground-station pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySeries {
    /// Per-step one-way delay, milliseconds; `None` when no satellite
    /// simultaneously sees both endpoints.
    pub delay_ms: Vec<Option<f64>>,
    /// Step size of the underlying grid, seconds.
    pub step_s: f64,
}

impl LatencySeries {
    /// Fraction of steps with a usable path.
    pub fn availability(&self) -> f64 {
        if self.delay_ms.is_empty() {
            return 0.0;
        }
        self.delay_ms.iter().filter(|d| d.is_some()).count() as f64 / self.delay_ms.len() as f64
    }

    /// Mean delay over connected steps, ms. `None` if never connected.
    pub fn mean_ms(&self) -> Option<f64> {
        let connected: Vec<f64> = self.delay_ms.iter().flatten().cloned().collect();
        if connected.is_empty() {
            None
        } else {
            Some(connected.iter().sum::<f64>() / connected.len() as f64)
        }
    }

    /// Delay percentile over connected steps, nearest-rank convention:
    /// the connected delays are sorted and the sample at (0-based) index
    /// `round((n - 1) * q)` is returned — always an observed value, never
    /// an interpolation. Returns `None` when `q` is outside `[0, 1]` or
    /// no step is connected.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut connected: Vec<f64> = self.delay_ms.iter().flatten().cloned().collect();
        if connected.is_empty() {
            return None;
        }
        connected.sort_by(f64::total_cmp);
        let idx = ((connected.len() - 1) as f64 * q).round() as usize;
        Some(connected[idx])
    }
}

/// One-way bent-pipe delay through a geostationary satellite for endpoints
/// at the given great-circle distances from the sub-satellite point
/// (closed form; the paper's §2 comparison baseline).
pub fn geo_latency_ms(terminal_offset_km: f64, gs_offset_km: f64) -> f64 {
    const GEO_ALT_KM: f64 = 35_786.0;
    let r = orbital::EARTH_RADIUS_KM;
    let leg = |surface_offset_km: f64| -> f64 {
        // Slant range from a surface point to the GEO satellite, via the
        // central angle subtended by the surface offset.
        let theta = surface_offset_km / r;
        let geo_r = r + GEO_ALT_KM;
        (r * r + geo_r * geo_r - 2.0 * r * geo_r * theta.cos()).sqrt()
    };
    (leg(terminal_offset_km) + leg(gs_offset_km)) / C_KM_S * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_latency_is_orders_of_magnitude_worse() {
        // Paper Sec. 2: GEO is second-level vs LEO millisecond-level.
        let geo_oneway = geo_latency_ms(1000.0, 1000.0);
        // One-way bent pipe through GEO: ~240 ms.
        assert!(geo_oneway > 230.0 && geo_oneway < 260.0, "geo {geo_oneway} ms");
        // Round trip with a request/response (4 legs): ~0.5 s — "second
        // level" in the paper's words.
        assert!(2.0 * geo_oneway > 450.0);
        // Versus LEO's ~8 ms: more than an order of magnitude.
        assert!(geo_oneway / 8.0 > 25.0);
    }

    #[test]
    fn geo_latency_grows_with_offset() {
        assert!(geo_latency_ms(0.0, 0.0) < geo_latency_ms(3000.0, 3000.0));
    }

    #[test]
    fn empty_series_behaviour() {
        let s = LatencySeries { delay_ms: vec![], step_s: 60.0 };
        assert_eq!(s.availability(), 0.0);
        assert!(s.mean_ms().is_none());
        assert!(s.percentile_ms(0.5).is_none());
    }

    #[test]
    fn percentile_rejects_out_of_range_q() {
        let s = LatencySeries { delay_ms: vec![Some(5.0), Some(7.0), None], step_s: 60.0 };
        assert!(s.percentile_ms(-0.01).is_none());
        assert!(s.percentile_ms(1.01).is_none());
        assert!(s.percentile_ms(f64::NAN).is_none());
        // In-range q still answers on the same series.
        assert_eq!(s.percentile_ms(0.0), Some(5.0));
        assert_eq!(s.percentile_ms(1.0), Some(7.0));
    }

    #[test]
    fn percentile_nearest_rank_picks_observed_values() {
        // Nearest rank: with n = 3 samples, q = 0.5 maps to index
        // round(2 * 0.5) = 1 — the middle observation, never an average.
        let s =
            LatencySeries { delay_ms: vec![Some(4.0), Some(6.0), Some(10.0)], step_s: 60.0 };
        assert_eq!(s.percentile_ms(0.5), Some(6.0));
        // q = 0.75 maps to round(1.5) = 2.
        assert_eq!(s.percentile_ms(0.75), Some(10.0));
    }
}
