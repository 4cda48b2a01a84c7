//! The discrete simulation clock.
//!
//! All leosim computations happen on a [`TimeGrid`]: `steps` instants spaced
//! `step_s` seconds apart starting at `start`. The grid precomputes the GMST
//! rotation angle of every step, since every satellite shares the same
//! Earth-rotation sequence.

use orbital::time::Epoch;
use serde::{Deserialize, Serialize};

/// A uniform grid of simulation instants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeGrid {
    /// First instant.
    pub start: Epoch,
    /// Step size, seconds.
    pub step_s: f64,
    /// Number of instants (including `start`).
    pub steps: usize,
    /// Precomputed GMST (radians) per instant.
    gmst: Vec<f64>,
}

impl TimeGrid {
    /// Build a grid covering `[start, start + duration_s]` with the given
    /// step. The end instant is included when it lands on the grid.
    pub fn new(start: Epoch, duration_s: f64, step_s: f64) -> Self {
        assert!(step_s > 0.0, "step must be positive");
        assert!(duration_s >= 0.0, "duration must be non-negative");
        let steps = (duration_s / step_s).floor() as usize + 1;
        let gmst = (0..steps)
            .map(|k| start.plus_seconds(k as f64 * step_s).gmst())
            .collect();
        TimeGrid { start, step_s, steps, gmst }
    }

    /// The epoch of step `k`.
    pub fn epoch_at(&self, k: usize) -> Epoch {
        debug_assert!(k < self.steps);
        self.start.plus_seconds(k as f64 * self.step_s)
    }

    /// Precomputed GMST of step `k`, radians.
    #[inline]
    pub fn gmst_at(&self, k: usize) -> f64 {
        self.gmst[k]
    }

    /// Total simulated span, seconds (from the first to the last instant).
    pub fn duration_s(&self) -> f64 {
        (self.steps.saturating_sub(1)) as f64 * self.step_s
    }

    /// Seconds represented by `n` grid steps.
    pub fn steps_to_seconds(&self, n: usize) -> f64 {
        n as f64 * self.step_s
    }

    /// Iterate `(step_index, epoch)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Epoch)> + '_ {
        (0..self.steps).map(move |k| (k, self.epoch_at(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    #[test]
    fn step_count_inclusive() {
        let g = TimeGrid::new(start(), 600.0, 60.0);
        assert_eq!(g.steps, 11);
        assert!((g.duration_s() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn epochs_line_up() {
        let g = TimeGrid::new(start(), 3600.0, 30.0);
        let e10 = g.epoch_at(10);
        assert!((e10.seconds_since(&start()) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn gmst_precomputed_matches_epoch() {
        let g = TimeGrid::new(start(), 7200.0, 600.0);
        for (k, e) in g.iter() {
            assert!((g.gmst_at(k) - e.gmst()).abs() < 1e-12);
        }
    }

    #[test]
    fn gmst_monotone_within_day_wrap() {
        let g = TimeGrid::new(start(), 3600.0, 60.0);
        // Earth rotates ~15 deg/hour; successive steps differ by ~0.0044 rad.
        for k in 1..g.steps {
            let d = orbital::math::wrap_pi(g.gmst_at(k) - g.gmst_at(k - 1));
            assert!(d > 0.004 && d < 0.005, "step {k}: {d}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_step_panics() {
        TimeGrid::new(start(), 100.0, 0.0);
    }
}
