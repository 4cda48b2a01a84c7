//! The demand model: diurnal per-city offered load.
//!
//! Each metro contributes `population_m × take_rate` million subscribers,
//! each offering `mbps_per_user` Mbps at the local busy hour. Load follows
//! a sinusoidal diurnal shape in *local solar time* (UTC + longitude/15°),
//! peaking at `peak_local_hour` and bottoming out at `diurnal_floor` of the
//! peak twelve hours away. Per-city seeded jitter perturbs the amplitude
//! and the peak hour so the 21 cities never move in lockstep; city `c`
//! draws only from `run_rng(seed, c)`, so adding cities never perturbs
//! existing ones and the matrix is reproducible bit-for-bit.
//!
//! ```
//! use geodata::paper_cities;
//! use leosim::TimeGrid;
//! use orbital::time::Epoch;
//! use traffic::demand::{DemandConfig, DemandMatrix};
//!
//! let cities = paper_cities();
//! let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
//! let grid = TimeGrid::new(epoch, 24.0 * 3600.0, 3600.0);
//!
//! let demand = DemandMatrix::generate(&cities, &grid, &DemandConfig::default());
//! assert_eq!(demand.steps, grid.steps);
//! assert_eq!(demand.cities.len(), cities.len());
//! // Offered load is strictly positive (the diurnal floor is > 0) ...
//! assert!(demand.offered_mbps.iter().all(|&v| v > 0.0));
//! // ... and genuinely diurnal: the busiest hour of the day carries more
//! // total load than the quietest one.
//! let totals: Vec<f64> =
//!     (0..demand.steps).map(|k| demand.step_offered(k).iter().sum()).collect();
//! let peak = totals.iter().cloned().fold(f64::MIN, f64::max);
//! let trough = totals.iter().cloned().fold(f64::MAX, f64::min);
//! assert!(peak > trough);
//! // Regenerating is bit-identical — the matrix is a pure function of
//! // (cities, grid, config).
//! let again = DemandMatrix::generate(&cities, &grid, &DemandConfig::default());
//! assert_eq!(again.offered_mbps, demand.offered_mbps);
//! ```

use geodata::City;
use leosim::montecarlo::run_rng;
use leosim::TimeGrid;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the demand model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandConfig {
    /// Fraction of the metro population subscribed to the constellation.
    pub take_rate: f64,
    /// Busy-hour offered load per subscriber, Mbps.
    pub mbps_per_user: f64,
    /// Trough load as a fraction of the peak, `(0, 1]`.
    pub diurnal_floor: f64,
    /// Local solar hour of the demand peak.
    pub peak_local_hour: f64,
    /// Relative amplitude jitter per city (0.1 = ±10%).
    pub jitter: f64,
    /// Base RNG seed for the per-city jitter streams.
    pub seed: u64,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            take_rate: 0.0015,
            mbps_per_user: 0.25,
            diurnal_floor: 0.25,
            peak_local_hour: 20.0,
            jitter: 0.1,
            seed: 0x7AF1C,
        }
    }
}

impl DemandConfig {
    /// Subscribers in `city`, in users (not millions).
    pub fn subscribers(&self, city: &City) -> f64 {
        city.population_m * 1e6 * self.take_rate
    }

    /// Peak offered load of `city`, Mbps, before jitter.
    pub fn peak_mbps(&self, city: &City) -> f64 {
        self.subscribers(city) * self.mbps_per_user
    }
}

/// The diurnal shape: 1.0 at `peak_hour`, `floor` twelve hours away,
/// cosine in between.
///
/// ```
/// use traffic::demand::diurnal_shape;
/// assert!((diurnal_shape(20.0, 20.0, 0.25) - 1.0).abs() < 1e-12); // peak
/// assert!((diurnal_shape(8.0, 20.0, 0.25) - 0.25).abs() < 1e-12); // trough
/// ```
pub fn diurnal_shape(local_hour: f64, peak_hour: f64, floor: f64) -> f64 {
    let phase = (local_hour - peak_hour) / 24.0 * std::f64::consts::TAU;
    floor + (1.0 - floor) * 0.5 * (1.0 + phase.cos())
}

/// Columnar offered-load matrix: `offered_mbps[city * steps + k]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandMatrix {
    /// City names, matrix row order.
    pub cities: Vec<String>,
    /// Steps per city row.
    pub steps: usize,
    /// Step size, seconds.
    pub step_s: f64,
    /// Offered load, Mbps, `[city * steps + k]`.
    pub offered_mbps: Vec<f64>,
}

impl DemandMatrix {
    /// Generate the matrix over `grid` for `cities`. Each city is an
    /// independent `simrt` job (work by index, results by index), so the
    /// output is identical at any thread count.
    pub fn generate(cities: &[City], grid: &TimeGrid, config: &DemandConfig) -> DemandMatrix {
        let steps = grid.steps;
        // Epochs are shared by every city; precompute once.
        let hours_utc: Vec<f64> = (0..steps)
            .map(|k| {
                let (_, sod) = grid.epoch_at(k).jd_parts();
                sod / 3600.0
            })
            .collect();
        let rows: Vec<Vec<f64>> = simrt::par_map_indexed(cities.len(), 0, |c| {
            let city = &cities[c];
            let mut rng = run_rng(config.seed, c as u64);
            let amp_jitter: f64 = 1.0 + config.jitter * (2.0 * rng.gen::<f64>() - 1.0);
            let phase_jitter: f64 = 1.5 * (2.0 * rng.gen::<f64>() - 1.0);
            let peak = config.peak_mbps(city) * amp_jitter;
            let peak_hour = config.peak_local_hour + phase_jitter;
            hours_utc
                .iter()
                .map(|h| {
                    let local = (h + city.lon_deg / 15.0).rem_euclid(24.0);
                    peak * diurnal_shape(local, peak_hour, config.diurnal_floor)
                })
                .collect()
        });
        DemandMatrix {
            cities: cities.iter().map(|c| c.name.to_string()).collect(),
            steps,
            step_s: grid.step_s,
            offered_mbps: rows.concat(),
        }
    }

    /// Offered load of city `c` at step `k`, Mbps.
    #[inline]
    pub fn offered(&self, c: usize, k: usize) -> f64 {
        self.offered_mbps[c * self.steps + k]
    }

    /// Offered load of every city at step `k`, Mbps.
    pub fn step_offered(&self, k: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.step_offered_into(k, &mut out);
        out
    }

    /// [`Self::step_offered`] into a caller-provided buffer, for sequential
    /// loops over steps that reuse one column.
    pub fn step_offered_into(&self, k: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.cities.len());
        out.extend((0..self.cities.len()).map(|c| self.offered(c, k)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodata::paper_cities;
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    #[test]
    fn shape_peaks_and_floors() {
        let s_peak = diurnal_shape(20.0, 20.0, 0.25);
        let s_trough = diurnal_shape(8.0, 20.0, 0.25);
        assert!((s_peak - 1.0).abs() < 1e-12);
        assert!((s_trough - 0.25).abs() < 1e-12);
        // Midway between peak and trough.
        let s_mid = diurnal_shape(14.0, 20.0, 0.25);
        assert!((s_mid - 0.625).abs() < 1e-12);
    }

    #[test]
    fn matrix_deterministic_and_diurnal() {
        let cities = paper_cities();
        let grid = TimeGrid::new(epoch(), 86_400.0, 600.0);
        let cfg = DemandConfig::default();
        let a = DemandMatrix::generate(&cities, &grid, &cfg);
        let b = DemandMatrix::generate(&cities, &grid, &cfg);
        assert_eq!(a.offered_mbps, b.offered_mbps, "generation must be deterministic");
        // Thread-count independence.
        let c = simrt::with_thread_cap(1, || DemandMatrix::generate(&cities, &grid, &cfg));
        for (x, y) in a.offered_mbps.iter().zip(&c.offered_mbps) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Every city shows a clear diurnal swing over a full day.
        for (ci, city) in cities.iter().enumerate() {
            let load = (0..a.steps).map(|k| a.offered(ci, k));
            let peak = load.clone().fold(f64::MIN, f64::max);
            let trough = load.fold(f64::MAX, f64::min);
            let ratio = peak / trough;
            assert!(ratio > 2.0 && ratio < 6.0, "{}: peak/trough {ratio}", city.name);
        }
    }

    #[test]
    fn bigger_cities_offer_more() {
        let cities = paper_cities();
        let grid = TimeGrid::new(epoch(), 86_400.0, 3600.0);
        let cfg = DemandConfig { jitter: 0.0, ..DemandConfig::default() };
        let m = DemandMatrix::generate(&cities, &grid, &cfg);
        // Tokyo (37.1M) must out-offer Melbourne (5.2M) on average.
        let mean = |c: usize| (0..m.steps).map(|k| m.offered(c, k)).sum::<f64>() / m.steps as f64;
        assert!(mean(0) > 5.0 * mean(20));
        // Sanity scale: Tokyo ~14 Gbps at the busy hour at defaults.
        let tokyo_peak = cfg.peak_mbps(&cities[0]);
        assert!(tokyo_peak > 10_000.0 && tokyo_peak < 20_000.0, "{tokyo_peak}");
    }

    #[test]
    fn jitter_stays_bounded() {
        let cities = paper_cities();
        let grid = TimeGrid::new(epoch(), 43_200.0, 1800.0);
        let cfg = DemandConfig::default();
        let m = DemandMatrix::generate(&cities, &grid, &cfg);
        for (c, city) in cities.iter().enumerate() {
            let peak_no_jitter = cfg.peak_mbps(city);
            for k in 0..m.steps {
                let v = m.offered(c, k);
                assert!(v >= 0.0);
                assert!(v <= peak_no_jitter * (1.0 + cfg.jitter) + 1e-9, "{}: {v}", city.name);
            }
        }
    }
}
