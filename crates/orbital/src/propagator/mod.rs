//! Orbit propagators.
//!
//! Two implementations of the [`Propagator`] trait:
//!
//! * [`KeplerJ2`] — two-body motion plus the secular effects of Earth's J2
//!   oblateness (nodal regression, apsidal rotation, mean-anomaly drift).
//!   Fast and smooth; the workhorse of the coverage simulator.
//! * [`Sgp4`] — the near-Earth SGP4 model of Spacetrack Report #3 (with the
//!   Vallado corrections), implemented from scratch. Operates directly on
//!   TLE mean elements including drag (B*). Used to propagate TLE inputs and
//!   to cross-validate `KeplerJ2`.
//!
//! Both output position/velocity in the TEME/ECI frame in km and km/s.

mod kepler_j2;
mod sgp4;

pub use kepler_j2::KeplerJ2;
pub use sgp4::{Sgp4, Sgp4Error};

use crate::math::Vec3;
use crate::time::Epoch;
use serde::{Deserialize, Serialize};

/// An inertial (TEME/ECI) position and velocity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    /// Position, km.
    pub position: Vec3,
    /// Velocity, km/s.
    pub velocity: Vec3,
}

impl StateVector {
    /// Altitude above the mean equatorial radius, km. (Geodetic altitude
    /// differs by up to ~21 km with latitude; use `frames` for that.)
    pub fn altitude_km(&self) -> f64 {
        self.position.norm() - crate::earth::EARTH_RADIUS_KM
    }
}

/// Something that can produce an inertial state at an absolute epoch.
pub trait Propagator: Send + Sync {
    /// Inertial (TEME/ECI) state at `epoch`.
    fn propagate(&self, epoch: Epoch) -> StateVector;

    /// The epoch the underlying elements refer to.
    fn epoch(&self) -> Epoch;

    /// Position only, for callers that do not need velocity. Default
    /// implementation delegates to [`Propagator::propagate`].
    fn position_at(&self, epoch: Epoch) -> Vec3 {
        self.propagate(epoch).position
    }

    /// Batch positions over a uniform time grid: fills `out[k]` with the
    /// inertial position at `start + k * step_s` seconds.
    ///
    /// The default implementation evaluates [`Propagator::position_at`] at
    /// `start.plus_seconds(k as f64 * step_s)` for each step — the exact
    /// instants a `leosim` `TimeGrid` produces, so batch and per-step
    /// propagation are bit-identical. Implementations may override this to
    /// amortize per-epoch setup (trig series, drag terms) across the grid.
    fn positions_into(&self, start: Epoch, step_s: f64, out: &mut [Vec3]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.position_at(start.plus_seconds(k as f64 * step_s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kepler::ClassicalElements;
    use crate::math::deg_to_rad;

    #[test]
    fn state_vector_altitude() {
        let el = ClassicalElements::circular(550.0, deg_to_rad(53.0), 0.0, 0.0);
        let st = el.state_at_mean_anomaly(0.0);
        assert!((st.altitude_km() - 550.0).abs() < 1e-6);
    }

    #[test]
    fn batch_positions_match_per_step() {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let el = ClassicalElements::circular(550.0, deg_to_rad(53.0), 0.3, 1.1);
        let p = KeplerJ2::from_elements(&el, epoch);
        let mut batch = vec![Vec3::ZERO; 32];
        p.positions_into(epoch, 60.0, &mut batch);
        for (k, got) in batch.iter().enumerate() {
            let want = p.position_at(epoch.plus_seconds(k as f64 * 60.0));
            // Bit-identical, not approximately equal: the ephemeris layer
            // relies on batch == per-step exactly.
            assert_eq!(*got, want, "step {k}");
        }
    }

    #[test]
    fn trait_object_usable() {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let el = ClassicalElements::circular(550.0, deg_to_rad(53.0), 0.0, 0.0);
        let p: Box<dyn Propagator> = Box::new(KeplerJ2::from_elements(&el, epoch));
        let st = p.propagate(epoch.plus_minutes(10.0));
        assert!(st.position.is_finite());
        assert_eq!(p.position_at(epoch.plus_minutes(10.0)), st.position);
    }
}
