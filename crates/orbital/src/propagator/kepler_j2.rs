//! Two-body propagation with secular J2 corrections.
//!
//! Earth's oblateness (the J2 zonal harmonic) causes three secular drifts
//! that matter enormously for constellation design:
//!
//! * **nodal regression** — the orbital plane's RAAN drifts westward for
//!   prograde orbits (~-5°/day for Starlink-class orbits), which is what
//!   makes the relative geometry of multi-plane constellations stable only
//!   when planes share inclination and altitude;
//! * **apsidal rotation** — the argument of perigee rotates;
//! * **mean-motion correction** — the effective mean motion differs slightly
//!   from the two-body value.
//!
//! This propagator applies those drifts linearly and then solves the
//! two-body problem. It is accurate to a few kilometers over a week for
//! near-circular LEO (the short-period J2 oscillations it omits are ±10 km
//! in radius, which moves link elevations by hundredths of a degree — far
//! below the elevation-mask granularity the coverage experiments use), and
//! it is several times faster than SGP4.
//!
//! ## The batch path
//!
//! [`KeplerJ2::positions_into_with`] fills a whole time grid for one
//! satellite and is what the ephemeris layer spends its time in. It returns
//! the bits [`Propagator::position_at`] would, step by step — every
//! expression below is the one [`KeplerJ2::elements_at`] and
//! [`perifocal_to_eci`] evaluate, in their order — and differs in three
//! ways only:
//!
//! * **Hoisted:** `sin_cos(i)`, the semi-latus rectum and
//!   `sqrt((1+e)/(1−e))` are per satellite, not per step; the velocity is
//!   not computed; `cos ν` is read from the one `sin_cos(ν)`.
//! * **Staged:** the per-step work runs as passes over arrays the length of
//!   the grid — Δt, then `E/2` (through [`solve_kepler`], so an eccentric
//!   orbit keeps its Newton loop), then `tan`, then `atan` and the wrap,
//!   then `sin_cos`, then the PQW→ECI rotation. Fused into one loop the
//!   libm calls of a step form a dependent chain and the core pays their
//!   latency; as passes, consecutive iterations are independent and it
//!   pays their throughput (95 against 52 ns a state for the same
//!   arithmetic, DESIGN.md "Ephemeris layer").
//! * **Memoised:** the per-step `(sin, cos)` of the drifting RAAN and of
//!   the drifting argument of perigee are kept in the caller's
//!   [`KeplerJ2Scratch`] and recomputed only when the bits of `(angle at
//!   epoch, drift rate, Δt grid)` differ from the previous call's. The
//!   satellites of a Walker plane share all three for the node, the
//!   satellites of a shell for the apsides, so a pool built plane by plane
//!   computes one node table per plane and one apsidal table per shell;
//!   any other sequence of calls just misses.

use crate::earth::{EARTH_J2, EARTH_RADIUS_KM};
use crate::kepler::{perifocal_to_eci, solve_kepler, ClassicalElements};
use crate::math::{wrap_two_pi, Vec3};
use crate::propagator::{Propagator, StateVector};
use crate::time::Epoch;
use serde::{Deserialize, Serialize};

/// Two-body + secular-J2 analytic propagator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeplerJ2 {
    elements: ClassicalElements,
    epoch: Epoch,
    /// Mean motion including the J2 secular correction, rad/s.
    mean_motion_rad_s: f64,
    /// RAAN drift rate, rad/s.
    raan_dot_rad_s: f64,
    /// Argument-of-perigee drift rate, rad/s.
    argp_dot_rad_s: f64,
}

impl KeplerJ2 {
    /// Build a propagator from classical elements valid at `epoch`.
    pub fn from_elements(elements: &ClassicalElements, epoch: Epoch) -> Self {
        let el = *elements;
        let n0 = el.mean_motion_rad_s();
        let e = el.eccentricity;
        let one_minus_e2 = 1.0 - e * e;
        let p = el.semi_major_axis_km * one_minus_e2;
        let k = 1.5 * EARTH_J2 * (EARTH_RADIUS_KM / p).powi(2);
        let cos_i = el.inclination_rad.cos();
        let cos2_i = cos_i * cos_i;
        let sqrt_1me2 = one_minus_e2.sqrt();
        // Standard secular J2 rates (e.g. Vallado 9.38-9.40).
        let raan_dot = -k * n0 * cos_i;
        let argp_dot = k * n0 * (2.0 - 2.5 * (1.0 - cos2_i));
        let m_dot = n0 * (1.0 + k * sqrt_1me2 * (1.0 - 1.5 * (1.0 - cos2_i)));
        KeplerJ2 {
            elements: el,
            epoch,
            mean_motion_rad_s: m_dot,
            raan_dot_rad_s: raan_dot,
            argp_dot_rad_s: argp_dot,
        }
    }

    /// The epoch elements this propagator was built from.
    pub fn elements(&self) -> &ClassicalElements {
        &self.elements
    }

    /// Osculating-style elements at a later epoch (secular terms applied).
    pub fn elements_at(&self, epoch: Epoch) -> ClassicalElements {
        let dt = epoch.seconds_since(&self.epoch);
        ClassicalElements {
            raan_rad: wrap_two_pi(self.elements.raan_rad + self.raan_dot_rad_s * dt),
            arg_perigee_rad: wrap_two_pi(self.elements.arg_perigee_rad + self.argp_dot_rad_s * dt),
            mean_anomaly_rad: wrap_two_pi(self.elements.mean_anomaly_rad + self.mean_motion_rad_s * dt),
            ..self.elements
        }
    }

    /// Nodal regression rate in degrees per day (useful for sanity checks
    /// and sun-synchronous design).
    pub fn raan_drift_deg_per_day(&self) -> f64 {
        self.raan_dot_rad_s.to_degrees() * 86_400.0
    }

    /// [`Propagator::positions_into`] with a caller-held workspace: fills
    /// `out[k]` with the inertial position at `start + k * step_s` seconds,
    /// bit for bit what [`Propagator::position_at`] returns there. A
    /// `scratch` kept across the satellites of a pool saves the allocations
    /// and shares the node and apsidal tables (module docs); its previous
    /// contents never reach `out`.
    pub fn positions_into_with(
        &self,
        start: Epoch,
        step_s: f64,
        out: &mut [Vec3],
        scratch: &mut KeplerJ2Scratch,
    ) {
        let n = out.len();
        let KeplerJ2Scratch { dt, node, apsis, u, nu } = scratch;
        // Δt of every step, compared against the grid the tables were
        // computed on while it is overwritten.
        let mut same_grid = dt.len() == n;
        dt.resize(n, 0.0);
        for (k, slot) in dt.iter_mut().enumerate() {
            let t = start.plus_seconds(k as f64 * step_s).seconds_since(&self.epoch);
            same_grid &= slot.to_bits() == t.to_bits();
            *slot = t;
        }
        let el = &self.elements;
        node.fill(el.raan_rad, self.raan_dot_rad_s, dt, same_grid);
        apsis.fill(el.arg_perigee_rad, self.argp_dot_rad_s, dt, same_grid);

        let e = el.eccentricity;
        let factor = ((1.0 + e) / (1.0 - e)).sqrt();
        let p = el.semi_major_axis_km * (1.0 - e * e);
        let (si, ci) = el.inclination_rad.sin_cos();

        u.clear();
        u.extend(dt.iter().map(|&t| {
            let m = wrap_two_pi(el.mean_anomaly_rad + self.mean_motion_rad_s * t);
            solve_kepler(m, e) / 2.0
        }));
        for half in u.iter_mut() {
            *half = factor * half.tan();
        }
        for t in u.iter_mut() {
            *t = wrap_two_pi(2.0 * t.atan());
        }
        nu.clear();
        nu.extend(u.iter().map(|v| v.sin_cos()));
        for (slot, ((&(snu, cnu), &(so, co)), &(sw, cw))) in
            out.iter_mut().zip(nu.iter().zip(&node.sin_cos).zip(&apsis.sin_cos))
        {
            let r_mag = p / (1.0 + e * cnu);
            let v = Vec3::new(r_mag * cnu, r_mag * snu, 0.0);
            // Rotate PQW -> ECI: R3(-RAAN) R1(-i) R3(-argp), the literal
            // expressions of `perifocal_to_eci`.
            let x1 = cw * v.x - sw * v.y;
            let y1 = sw * v.x + cw * v.y;
            let z1 = v.z;
            let x2 = x1;
            let y2 = ci * y1 - si * z1;
            let z2 = si * y1 + ci * z1;
            *slot = Vec3::new(co * x2 - so * y2, so * x2 + co * y2, z2);
        }
    }
}

/// The workspace of [`KeplerJ2::positions_into_with`]: the staged passes'
/// arrays and the two memo tables, all the length of the last grid. What it
/// holds only ever saves work — a fresh one gives the same positions.
#[derive(Debug, Default)]
pub struct KeplerJ2Scratch {
    /// Seconds from the element epoch to every step of the last call.
    dt: Vec<f64>,
    /// The drifting RAAN.
    node: AngleTable,
    /// The drifting argument of perigee.
    apsis: AngleTable,
    /// `E/2`, then `factor·tan(E/2)`, then the true anomaly `ν`.
    u: Vec<f64>,
    /// `(sin ν, cos ν)`.
    nu: Vec<(f64, f64)>,
}

/// Per-step `(sin, cos)` of `wrap_two_pi(angle0 + rate · Δt)`, remembered
/// with the `(angle0, rate)` bits it was computed from.
#[derive(Debug, Default)]
struct AngleTable {
    key: Option<(u64, u64)>,
    sin_cos: Vec<(f64, f64)>,
}

impl AngleTable {
    /// Make the table hold `angle0 + rate · dt[k]` for every step. A hit
    /// needs the same `(angle0, rate)` bits *and* the Δt grid the table was
    /// computed on (`same_grid`, from the caller's comparison).
    fn fill(&mut self, angle0: f64, rate: f64, dt: &[f64], same_grid: bool) {
        let key = Some((angle0.to_bits(), rate.to_bits()));
        if same_grid && self.key == key {
            return;
        }
        self.key = key;
        self.sin_cos.clear();
        self.sin_cos.extend(dt.iter().map(|&t| wrap_two_pi(angle0 + rate * t).sin_cos()));
    }
}

impl Propagator for KeplerJ2 {
    fn propagate(&self, epoch: Epoch) -> StateVector {
        let el = self.elements_at(epoch);
        perifocal_to_eci(&el, el.mean_anomaly_rad)
    }

    fn epoch(&self) -> Epoch {
        self.epoch
    }

    fn positions_into(&self, start: Epoch, step_s: f64, out: &mut [Vec3]) {
        self.positions_into_with(start, step_s, out, &mut KeplerJ2Scratch::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{deg_to_rad, wrap_pi};

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn starlink() -> KeplerJ2 {
        let el = ClassicalElements::circular(546.0, deg_to_rad(53.0), deg_to_rad(100.0), 0.0);
        KeplerJ2::from_elements(&el, epoch())
    }

    #[test]
    fn radius_stays_circular() {
        let p = starlink();
        for m in (0..1440).step_by(10) {
            let st = p.propagate(epoch().plus_minutes(m as f64));
            assert!((st.altitude_km() - 546.0).abs() < 1e-6, "alt at {m} min");
        }
    }

    #[test]
    fn nodal_regression_westward_for_prograde() {
        let p = starlink();
        let rate = p.raan_drift_deg_per_day();
        // Starlink-class orbit: about -5 deg/day.
        assert!(rate < -4.0 && rate > -6.0, "raan rate {rate}");
    }

    #[test]
    fn nodal_regression_eastward_for_retrograde() {
        let el = ClassicalElements::circular(546.0, deg_to_rad(110.0), 0.0, 0.0);
        let p = KeplerJ2::from_elements(&el, epoch());
        assert!(p.raan_drift_deg_per_day() > 0.0);
    }

    #[test]
    fn polar_orbit_has_no_regression() {
        let el = ClassicalElements::circular(546.0, deg_to_rad(90.0), 0.0, 0.0);
        let p = KeplerJ2::from_elements(&el, epoch());
        assert!(p.raan_drift_deg_per_day().abs() < 1e-9);
    }

    #[test]
    fn sun_synchronous_inclination() {
        // At ~800 km, sun-synchronous (+0.9856 deg/day) needs ~98.6 deg.
        let el = ClassicalElements::circular(800.0, deg_to_rad(98.6), 0.0, 0.0);
        let p = KeplerJ2::from_elements(&el, epoch());
        let rate = p.raan_drift_deg_per_day();
        assert!((rate - 0.9856).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn raan_advance_matches_rate() {
        let p = starlink();
        let one_day = epoch().plus_days(1.0);
        let el1 = p.elements_at(one_day);
        let drift = wrap_pi(el1.raan_rad - p.elements().raan_rad).to_degrees();
        assert!((drift - p.raan_drift_deg_per_day()).abs() < 1e-9);
    }

    #[test]
    fn period_close_to_two_body() {
        let p = starlink();
        let n = p.mean_motion_rad_s;
        let n0 = p.elements().mean_motion_rad_s();
        // J2 correction is a fraction of a percent.
        assert!((n / n0 - 1.0).abs() < 2e-3);
    }

    #[test]
    fn ground_track_drifts_west_each_orbit() {
        // Fig 1a behaviour: successive orbits cross the equator further west.
        use crate::frames::subpoint;
        let p = starlink();
        let period = p.elements().period_s();
        let lon_at = |t: f64| {
            let e = epoch().plus_seconds(t);
            subpoint(p.propagate(e).position, e.gmst()).longitude_deg()
        };
        let l0 = lon_at(0.0);
        let l1 = lon_at(period);
        let delta = wrap_pi(deg_to_rad(l1 - l0)).to_degrees();
        // Earth rotates ~24 degrees east per 95.6-min orbit, so the track
        // moves ~24 degrees west (minus a small J2 term).
        assert!(delta < -20.0 && delta > -28.0, "drift per orbit {delta}");
    }

    #[test]
    fn propagation_is_deterministic() {
        let p = starlink();
        let t = epoch().plus_minutes(777.0);
        assert_eq!(p.propagate(t), p.propagate(t));
    }

    #[test]
    fn backward_propagation_consistent() {
        let p = starlink();
        let st0 = p.propagate(epoch());
        let back = p.propagate(epoch().plus_minutes(-95.6 * 3.0));
        // Three periods back should be close to the initial state (exact up
        // to the J2 drift of the plane).
        assert!((back.position.norm() - st0.position.norm()).abs() < 1e-6);
    }
}
