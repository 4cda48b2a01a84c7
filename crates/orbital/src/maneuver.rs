//! Maneuver planning: the delta-v cost of reaching an orbital slot.
//!
//! The paper's placement argument (§3.3) says participants should deploy
//! *far* from existing satellites — different phase, altitude, or
//! inclination. Those three options have wildly different propellant costs,
//! which is what makes the Fig. 4c comparison an economic trade-off and not
//! just a coverage one. This module prices them with the standard
//! impulsive-maneuver formulas (Vallado ch. 6):
//!
//! * **Hohmann transfer** between circular altitudes;
//! * **plane change** (inclination) at orbital speed — brutally expensive;
//! * **phasing maneuver** — nearly free in delta-v, paid in *time* spent in
//!   a drift orbit.

use crate::earth::{circular_speed_km_s, EARTH_MU_KM3_S2, EARTH_RADIUS_KM};
use serde::{Deserialize, Serialize};

/// Result of a maneuver plan: propellant and clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ManeuverCost {
    /// Total delta-v, km/s.
    pub delta_v_km_s: f64,
    /// Wall-clock duration of the maneuver, seconds.
    pub duration_s: f64,
}

impl ManeuverCost {
    /// The zero-cost maneuver.
    pub const FREE: ManeuverCost = ManeuverCost { delta_v_km_s: 0.0, duration_s: 0.0 };

    /// Propellant mass fraction consumed for this delta-v at a specific
    /// impulse `isp_s` (Tsiolkovsky). Typical electric propulsion:
    /// 1500-2500 s; chemical: ~300 s.
    pub fn propellant_fraction(&self, isp_s: f64) -> f64 {
        assert!(isp_s > 0.0);
        let ve = isp_s * 9.80665e-3; // km/s
        1.0 - (-self.delta_v_km_s / ve).exp()
    }
}

/// Delta-v and time for a Hohmann transfer between two circular altitudes.
pub fn hohmann(from_alt_km: f64, to_alt_km: f64) -> ManeuverCost {
    if (from_alt_km - to_alt_km).abs() < 1e-12 {
        return ManeuverCost::FREE;
    }
    let r1 = EARTH_RADIUS_KM + from_alt_km;
    let r2 = EARTH_RADIUS_KM + to_alt_km;
    let mu = EARTH_MU_KM3_S2;
    let a_t = (r1 + r2) / 2.0;
    let v1 = (mu / r1).sqrt();
    let v2 = (mu / r2).sqrt();
    let v_peri = (mu * (2.0 / r1 - 1.0 / a_t)).sqrt();
    let v_apo = (mu * (2.0 / r2 - 1.0 / a_t)).sqrt();
    let dv = (v_peri - v1).abs() + (v2 - v_apo).abs();
    let transfer_time = std::f64::consts::PI * (a_t * a_t * a_t / mu).sqrt();
    ManeuverCost { delta_v_km_s: dv, duration_s: transfer_time }
}

/// Delta-v for a pure inclination change of `delta_i_rad` on a circular
/// orbit at `alt_km` (executed at a node).
pub fn plane_change(alt_km: f64, delta_i_rad: f64) -> ManeuverCost {
    let v = circular_speed_km_s(alt_km);
    ManeuverCost {
        delta_v_km_s: 2.0 * v * (delta_i_rad.abs() / 2.0).sin(),
        duration_s: 0.0,
    }
}

/// A phasing maneuver: change the in-plane phase by `delta_phase_rad`
/// within `revolutions` of drift, by temporarily raising/lowering the
/// orbit. More revolutions = less delta-v but more time.
pub fn phasing(alt_km: f64, delta_phase_rad: f64, revolutions: u32) -> ManeuverCost {
    assert!(revolutions >= 1, "phasing needs at least one drift revolution");
    let r = EARTH_RADIUS_KM + alt_km;
    let mu = EARTH_MU_KM3_S2;
    let period = 2.0 * std::f64::consts::PI * (r * r * r / mu).sqrt();
    // The drift orbit's period must differ so that after `revolutions` the
    // accumulated phase difference equals delta_phase.
    let k = revolutions as f64;
    let target_period = period * (1.0 - delta_phase_rad / (2.0 * std::f64::consts::PI * k));
    let a_t = (mu * (target_period / (2.0 * std::f64::consts::PI)).powi(2)).cbrt();
    let v = (mu / r).sqrt();
    let v_t = (mu * (2.0 / r - 1.0 / a_t)).sqrt();
    // Enter and exit the drift orbit.
    ManeuverCost {
        delta_v_km_s: 2.0 * (v_t - v).abs(),
        duration_s: k * target_period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hohmann_leo_to_leo() {
        // 550 -> 600 km is a few tens of m/s.
        let c = hohmann(550.0, 600.0);
        assert!(c.delta_v_km_s > 0.02 && c.delta_v_km_s < 0.04, "dv {}", c.delta_v_km_s);
        // Transfer takes about half an orbit (~48 min).
        assert!((c.duration_s / 60.0 - 48.0).abs() < 2.0, "t {}", c.duration_s / 60.0);
    }

    #[test]
    fn hohmann_leo_to_geo_reference() {
        // Classic textbook value: ~3.9 km/s from a 300 km LEO to GEO.
        let c = hohmann(300.0, 35_786.0);
        assert!((c.delta_v_km_s - 3.9).abs() < 0.1, "dv {}", c.delta_v_km_s);
    }

    #[test]
    fn hohmann_symmetric() {
        let up = hohmann(550.0, 600.0);
        let down = hohmann(600.0, 550.0);
        assert!((up.delta_v_km_s - down.delta_v_km_s).abs() < 1e-12);
        assert_eq!(hohmann(550.0, 550.0), ManeuverCost::FREE);
    }

    #[test]
    fn plane_change_is_expensive() {
        // 10 degrees at LEO speed ~ 1.3 km/s; 60 degrees ~ one full orbital
        // speed.
        let c10 = plane_change(550.0, 10f64.to_radians());
        assert!((c10.delta_v_km_s - 1.32).abs() < 0.05, "dv {}", c10.delta_v_km_s);
        let c60 = plane_change(550.0, 60f64.to_radians());
        let v = circular_speed_km_s(550.0);
        assert!((c60.delta_v_km_s - v).abs() < 1e-9);
    }

    #[test]
    fn phasing_nearly_free_given_time() {
        let fast = phasing(550.0, 45f64.to_radians(), 3);
        let slow = phasing(550.0, 45f64.to_radians(), 30);
        assert!(slow.delta_v_km_s < fast.delta_v_km_s, "more revs, less dv");
        assert!(slow.duration_s > fast.duration_s, "more revs, more time");
        assert!(slow.delta_v_km_s < 0.03, "slow phasing dv {}", slow.delta_v_km_s);
    }

    #[test]
    fn category_economics_order() {
        // The paper's Fig. 4c winner (inclination) is the delta-v loser:
        // phase < altitude << inclination.
        let incl = plane_change(546.0, 10f64.to_radians()).delta_v_km_s;
        let alt = hohmann(546.0, 600.0).delta_v_km_s;
        let phase = phasing(546.0, 45f64.to_radians(), 30).delta_v_km_s;
        assert!(phase < alt, "phase {phase} < altitude {alt}");
        assert!(alt < incl, "altitude {alt} < inclination {incl}");
        assert!(incl / alt > 10.0, "inclination is an order of magnitude pricier");
    }

    #[test]
    fn propellant_fraction_tsiolkovsky() {
        let c = ManeuverCost { delta_v_km_s: 1.0, duration_s: 0.0 };
        // Electric propulsion (isp 2000 s): ve = 19.6 km/s.
        let f = c.propellant_fraction(2000.0);
        assert!((f - (1.0 - (-1.0f64 / 19.6133).exp())).abs() < 1e-9);
        assert!(f > 0.0 && f < 0.06);
        // Chemical (isp 300): much worse.
        assert!(c.propellant_fraction(300.0) > 0.28);
    }
}
