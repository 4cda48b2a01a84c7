//! Physical constants for Earth and its gravity field.
//!
//! Values follow the WGS-84 ellipsoid and the WGS-72 set used by SGP4 where
//! noted. Units are kilometers, seconds, and radians unless stated otherwise.

/// Mean equatorial radius of Earth (WGS-84), km.
pub const EARTH_RADIUS_KM: f64 = 6378.137;

/// Earth gravitational parameter GM (WGS-84), km^3/s^2.
pub const EARTH_MU_KM3_S2: f64 = 398600.4418;

/// Flattening of the WGS-84 reference ellipsoid (dimensionless).
pub const EARTH_FLATTENING: f64 = 1.0 / 298.257223563;

/// First eccentricity squared of the WGS-84 ellipsoid.
pub const EARTH_ECC2: f64 = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING);

/// Second zonal harmonic J2 of Earth's gravity field (EGM-96).
pub const EARTH_J2: f64 = 1.082_626_68e-3;

/// Solar day length in seconds.
pub const SOLAR_DAY_S: f64 = 86400.0;

/// SGP4/WGS-72 value of Earth radius, km (kept separate from WGS-84 because
/// the SGP4 constants are calibrated against it).
pub const SGP4_EARTH_RADIUS_KM: f64 = 6378.135;

/// SGP4/WGS-72 value of sqrt(GM) expressed in (earth radii)^1.5 / min,
/// i.e. the `XKE` constant of Spacetrack Report #3.
pub const SGP4_XKE: f64 = 0.074_669_161_33;

/// SGP4/WGS-72 J2.
pub const SGP4_J2: f64 = 1.082_616e-3;

/// SGP4/WGS-72 J3.
pub const SGP4_J3: f64 = -2.538_81e-6;

/// SGP4/WGS-72 J4.
pub const SGP4_J4: f64 = -1.655_97e-6;

/// Circular orbital speed at the given altitude, km/s.
pub fn circular_speed_km_s(altitude_km: f64) -> f64 {
    let a = EARTH_RADIUS_KM + altitude_km;
    (EARTH_MU_KM3_S2 / a).sqrt()
}

/// Semi-major axis (km) of an orbit with the given mean motion in
/// revolutions per (solar) day.
pub fn sma_from_mean_motion(revs_per_day: f64) -> f64 {
    let n_rad_s = revs_per_day * 2.0 * std::f64::consts::PI / SOLAR_DAY_S;
    (EARTH_MU_KM3_S2 / (n_rad_s * n_rad_s)).cbrt()
}

/// Mean motion (revs/day) of an orbit with the given semi-major axis (km).
pub fn mean_motion_from_sma(sma_km: f64) -> f64 {
    let n_rad_s = (EARTH_MU_KM3_S2 / (sma_km * sma_km * sma_km)).sqrt();
    n_rad_s * SOLAR_DAY_S / (2.0 * std::f64::consts::PI)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leo_speed() {
        // LEO speed is ~7.6 km/s at 550 km.
        let v = circular_speed_km_s(550.0);
        assert!((v - 7.585).abs() < 0.05, "speed {v}");
    }

    #[test]
    fn sma_mean_motion_roundtrip() {
        for alt in [300.0, 550.0, 1200.0, 2000.0] {
            let a = EARTH_RADIUS_KM + alt;
            let n = mean_motion_from_sma(a);
            let a2 = sma_from_mean_motion(n);
            assert!((a - a2).abs() < 1e-6, "alt {alt}: {a} vs {a2}");
        }
    }

    #[test]
    fn starlink_mean_motion() {
        // Starlink at 550 km has mean motion ~15.06 rev/day.
        let n = mean_motion_from_sma(EARTH_RADIUS_KM + 550.0);
        assert!((n - 15.06).abs() < 0.05, "mean motion {n}");
    }

    #[test]
    fn geostationary_sma() {
        // GEO: mean motion 1.0027 revs/day -> a ~42164 km.
        let a = sma_from_mean_motion(1.0027379);
        assert!((a - 42164.0).abs() < 10.0, "geo sma {a}");
    }

    #[test]
    fn ecc2_consistent_with_flattening() {
        let f = EARTH_FLATTENING;
        assert!((EARTH_ECC2 - (2.0 * f - f * f)).abs() < 1e-15);
    }
}
