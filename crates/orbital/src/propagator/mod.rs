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

pub use kepler_j2::{KeplerJ2, KeplerJ2Scratch};
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

    /// `positions_into_with` on `scratch` and the trait's `positions_into`
    /// both equal `position_at` per step — bit for bit, not approximately:
    /// the ephemeris layer relies on batch == per-step exactly.
    fn assert_batch_matches_per_step(
        p: &KeplerJ2,
        start: Epoch,
        step_s: f64,
        steps: usize,
        scratch: &mut KeplerJ2Scratch,
        label: &str,
    ) {
        let mut held = vec![Vec3::ZERO; steps];
        p.positions_into_with(start, step_s, &mut held, scratch);
        let mut fresh = vec![Vec3::ZERO; steps];
        p.positions_into(start, step_s, &mut fresh);
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        for k in 0..steps {
            let want = p.position_at(start.plus_seconds(k as f64 * step_s));
            assert!(want.is_finite(), "{label}: step {k}");
            assert_eq!(bits(held[k]), bits(want), "{label}: held scratch, step {k}");
            assert_eq!(bits(fresh[k]), bits(want), "{label}: fresh scratch, step {k}");
        }
    }

    fn elements(
        a_km: f64,
        e: f64,
        inc_deg: f64,
        raan: f64,
        argp: f64,
        m: f64,
    ) -> ClassicalElements {
        ClassicalElements {
            semi_major_axis_km: a_km,
            eccentricity: e,
            inclination_rad: deg_to_rad(inc_deg),
            raan_rad: raan,
            arg_perigee_rad: argp,
            mean_anomaly_rad: m,
        }
    }

    #[test]
    fn batch_positions_match_per_step() {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        // Circular through near-parabolic (1e-13 is below `solve_kepler`'s
        // circular cut-off, 0.85 above its high-e starting guess), on
        // prograde, polar, retrograde and equatorial planes.
        for e in [0.0, 1e-13, 0.001, 0.12, 0.7, 0.85] {
            for inc_deg in [53.0, 90.0, 97.6, 142.0, 0.0] {
                let a_km = if e < 0.1 { 6928.0 } else { 26_600.0 };
                let p = KeplerJ2::from_elements(&elements(a_km, e, inc_deg, 0.3, 4.9, 1.1), epoch);
                let label = format!("e {e} i {inc_deg}");
                let scratch = &mut KeplerJ2Scratch::default();
                assert_batch_matches_per_step(&p, epoch, 60.0, 32, scratch, &label);
                // A grid that starts before the element epoch, and one that
                // crosses midnight off the minute.
                let before = epoch.plus_seconds(-7200.0);
                assert_batch_matches_per_step(&p, before, 120.0, 90, scratch, &label);
                let late = Epoch::from_ymdhms(2024, 6, 3, 23, 50, 12.5);
                assert_batch_matches_per_step(&p, late, 47.0, 40, scratch, &label);
            }
        }
        // One step, and a thousand.
        let p = KeplerJ2::from_elements(&elements(7100.0, 0.02, 70.0, 5.5, 0.4, 3.0), epoch);
        for steps in [1, 1000] {
            let (scratch, label) = (&mut KeplerJ2Scratch::default(), format!("{steps} steps"));
            assert_batch_matches_per_step(&p, epoch, 30.0, steps, scratch, &label);
        }
    }

    #[test]
    fn held_scratch_never_serves_a_stale_table() {
        // One scratch across an interleaved list: every neighbouring pair
        // differs in exactly what one part of a memo key has to notice — the
        // node angle, the apsidal angle, a drift rate, the element epoch,
        // the grid's start, step or length — and returns to an earlier
        // entry afterwards. A table served on a partial key fails the
        // comparison against `position_at`.
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let later = epoch.plus_seconds(3.0 * 3600.0);
        let kj2 = |a_km, e, inc, raan, argp, m, at| {
            KeplerJ2::from_elements(&elements(a_km, e, inc, raan, argp, m), at)
        };
        let plane_a1 = kj2(6928.0, 0.01, 53.0, 0.3, 1.0, 0.1, epoch);
        let plane_a2 = kj2(6928.0, 0.01, 53.0, 0.3, 1.0, 1.2, epoch);
        let plane_b = kj2(6928.0, 0.01, 53.0, 1.4, 1.0, 0.1, epoch);
        let apsis_b = kj2(6928.0, 0.01, 53.0, 0.3, 2.0, 0.1, epoch);
        let shell_2 = kj2(7500.0, 0.01, 70.0, 0.3, 1.0, 0.1, epoch);
        let epoch_2 = kj2(6928.0, 0.01, 53.0, 0.3, 1.0, 0.1, later);
        let calls: [(&KeplerJ2, Epoch, f64, usize, &str); 14] = [
            (&plane_a1, epoch, 60.0, 48, "plane A"),
            (&plane_a2, epoch, 60.0, 48, "plane A, next slot"),
            (&plane_b, epoch, 60.0, 48, "plane B"),
            (&plane_a1, epoch, 60.0, 48, "plane A again"),
            (&apsis_b, epoch, 60.0, 48, "another perigee"),
            (&plane_a2, epoch, 60.0, 48, "plane A after another perigee"),
            (&shell_2, epoch, 60.0, 48, "another shell: same angles, other rates"),
            (&plane_a1, epoch, 60.0, 48, "plane A after another shell"),
            (&epoch_2, epoch, 60.0, 48, "another element epoch: same angles and rates"),
            (&plane_a1, later, 60.0, 48, "another start"),
            (&plane_a1, later, 90.0, 48, "another step"),
            (&plane_a1, later, 90.0, 20, "a shorter grid"),
            (&plane_a1, later, 90.0, 48, "and a longer one"),
            (&plane_a2, epoch, 60.0, 48, "back to the first grid"),
        ];
        let scratch = &mut KeplerJ2Scratch::default();
        for (p, start, step_s, steps, label) in calls {
            assert_batch_matches_per_step(p, start, step_s, steps, scratch, label);
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
