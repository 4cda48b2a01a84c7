//! Reference frames and coordinate conversions.
//!
//! The propagators in this crate output positions in an inertial frame
//! (TEME for SGP4; for the Kepler/J2 propagator we use the same axes). Link
//! geometry, however, lives on the rotating Earth. This module provides:
//!
//! * ECI (TEME) ⇄ ECEF rotation via GMST,
//! * ECEF ⇄ WGS-84 geodetic latitude/longitude/altitude,
//! * topocentric SEZ look angles (azimuth / elevation / range) from a ground
//!   site to a satellite.

use crate::earth::{EARTH_ECC2, EARTH_RADIUS_KM};
use crate::math::{rad_to_deg, wrap_two_pi, Mat3, Vec3};
use serde::{Deserialize, Serialize};

/// A WGS-84 geodetic position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geodetic {
    /// Geodetic latitude, radians, positive north.
    pub latitude_rad: f64,
    /// Longitude, radians, positive east, in `(-pi, pi]`.
    pub longitude_rad: f64,
    /// Height above the WGS-84 ellipsoid, km.
    pub altitude_km: f64,
}

impl Geodetic {
    /// Construct from degrees latitude/longitude and altitude in km.
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, altitude_km: f64) -> Self {
        Geodetic {
            latitude_rad: lat_deg.to_radians(),
            longitude_rad: lon_deg.to_radians(),
            altitude_km,
        }
    }

    /// Latitude in degrees.
    pub fn latitude_deg(&self) -> f64 {
        rad_to_deg(self.latitude_rad)
    }

    /// Longitude in degrees.
    pub fn longitude_deg(&self) -> f64 {
        rad_to_deg(self.longitude_rad)
    }
}

/// Topocentric look angles from a ground site to a target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LookAngles {
    /// Azimuth, radians clockwise from true north, `[0, 2pi)`.
    pub azimuth_rad: f64,
    /// Elevation above the local horizon, radians, `[-pi/2, pi/2]`.
    pub elevation_rad: f64,
    /// Slant range, km.
    pub range_km: f64,
}

impl LookAngles {
    /// Elevation in degrees.
    pub fn elevation_deg(&self) -> f64 {
        rad_to_deg(self.elevation_rad)
    }

    /// Azimuth in degrees.
    pub fn azimuth_deg(&self) -> f64 {
        rad_to_deg(self.azimuth_rad)
    }
}

/// Rotate an ECI (TEME) position into ECEF given the GMST angle (radians).
pub fn eci_to_ecef(eci: Vec3, gmst: f64) -> Vec3 {
    Mat3::rot_z(gmst).mul_vec(eci)
}

/// Rotate an ECEF position into ECI (TEME) given the GMST angle (radians).
pub fn ecef_to_eci(ecef: Vec3, gmst: f64) -> Vec3 {
    Mat3::rot_z(-gmst).mul_vec(ecef)
}

/// Convert a WGS-84 geodetic position to ECEF Cartesian coordinates (km).
pub fn geodetic_to_ecef(geo: Geodetic) -> Vec3 {
    let (slat, clat) = geo.latitude_rad.sin_cos();
    let (slon, clon) = geo.longitude_rad.sin_cos();
    // Radius of curvature in the prime vertical.
    let n = EARTH_RADIUS_KM / (1.0 - EARTH_ECC2 * slat * slat).sqrt();
    let h = geo.altitude_km;
    Vec3::new(
        (n + h) * clat * clon,
        (n + h) * clat * slon,
        (n * (1.0 - EARTH_ECC2) + h) * slat,
    )
}

/// Convert an ECEF Cartesian position (km) to WGS-84 geodetic coordinates.
///
/// Uses Bowring-style fixed-point iteration on the geodetic latitude; three
/// iterations reach sub-millimeter accuracy for any LEO-relevant altitude.
pub fn ecef_to_geodetic(ecef: Vec3) -> Geodetic {
    let p = (ecef.x * ecef.x + ecef.y * ecef.y).sqrt();
    let longitude_rad = ecef.y.atan2(ecef.x);
    if p < 1e-9 {
        // On the polar axis.
        let sign = if ecef.z >= 0.0 { 1.0 } else { -1.0 };
        let b = EARTH_RADIUS_KM * (1.0 - EARTH_ECC2).sqrt();
        return Geodetic {
            latitude_rad: sign * std::f64::consts::FRAC_PI_2,
            longitude_rad: 0.0,
            altitude_km: ecef.z.abs() - b,
        };
    }
    let mut lat = (ecef.z / (p * (1.0 - EARTH_ECC2))).atan();
    let mut n = EARTH_RADIUS_KM;
    for _ in 0..5 {
        let slat = lat.sin();
        n = EARTH_RADIUS_KM / (1.0 - EARTH_ECC2 * slat * slat).sqrt();
        lat = ((ecef.z + EARTH_ECC2 * n * slat) / p).atan();
    }
    let altitude_km = p / lat.cos() - n;
    Geodetic { latitude_rad: lat, longitude_rad, altitude_km }
}

/// Geodetic sub-satellite point from an ECI position at the given GMST.
pub fn subpoint(eci: Vec3, gmst: f64) -> Geodetic {
    ecef_to_geodetic(eci_to_ecef(eci, gmst))
}

/// Compute look angles (azimuth/elevation/range) from a ground site to a
/// target, both given in ECEF (km).
///
/// The topocentric frame is SEZ (south-east-zenith) built on the site's
/// *geodetic* vertical, which is what antenna pointing uses.
pub fn look_angles(site_geo: Geodetic, site_ecef: Vec3, target_ecef: Vec3) -> LookAngles {
    let rho = target_ecef - site_ecef;
    let (slat, clat) = site_geo.latitude_rad.sin_cos();
    let (slon, clon) = site_geo.longitude_rad.sin_cos();
    // SEZ unit vectors in ECEF.
    let south = Vec3::new(slat * clon, slat * slon, -clat);
    let east = Vec3::new(-slon, clon, 0.0);
    let zenith = Vec3::new(clat * clon, clat * slon, slat);
    let rs = rho.dot(south);
    let re = rho.dot(east);
    let rz = rho.dot(zenith);
    let range_km = rho.norm();
    let elevation_rad = if range_km > 0.0 { (rz / range_km).clamp(-1.0, 1.0).asin() } else { 0.0 };
    // Azimuth measured clockwise from north: north = -south component.
    let azimuth_rad = wrap_two_pi((re).atan2(-rs));
    LookAngles { azimuth_rad, elevation_rad, range_km }
}

/// Fast elevation-only computation, the hot predicate of the whole
/// simulator. Returns the sine of the elevation angle from the site to the
/// target (both ECEF), without computing azimuth or trigonometric inverses.
///
/// `zenith` must be the site's precomputed geodetic zenith unit vector in
/// ECEF (see [`site_zenith`]).
#[inline]
pub fn sin_elevation(site_ecef: Vec3, zenith: Vec3, target_ecef: Vec3) -> f64 {
    let rho = target_ecef - site_ecef;
    let n = rho.norm();
    if n == 0.0 {
        return 1.0;
    }
    rho.dot(zenith) / n
}

/// The geodetic zenith unit vector of a site, in ECEF.
pub fn site_zenith(geo: Geodetic) -> Vec3 {
    let (slat, clat) = geo.latitude_rad.sin_cos();
    let (slon, clon) = geo.longitude_rad.sin_cos();
    Vec3::new(clat * clon, clat * slon, slat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::deg_to_rad;

    #[test]
    fn geodetic_ecef_roundtrip() {
        for &(lat, lon, alt) in &[
            (0.0, 0.0, 0.0),
            (25.03, 121.56, 0.02),   // Taipei
            (-37.81, 144.96, 0.05),  // Melbourne
            (89.9, 10.0, 0.1),
            (-89.9, -170.0, 3.0),
            (45.0, 180.0, 550.0),
        ] {
            let g = Geodetic::from_degrees(lat, lon, alt);
            let e = geodetic_to_ecef(g);
            let g2 = ecef_to_geodetic(e);
            assert!((g2.latitude_deg() - lat).abs() < 1e-6, "lat {lat}: {}", g2.latitude_deg());
            let dl = crate::math::wrap_pi(g2.longitude_rad - g.longitude_rad);
            assert!(dl.abs() < 1e-9, "lon {lon}");
            assert!((g2.altitude_km - alt).abs() < 1e-6, "alt {alt}: {}", g2.altitude_km);
        }
    }

    #[test]
    fn ecef_equator_prime_meridian() {
        let g = Geodetic::from_degrees(0.0, 0.0, 0.0);
        let e = geodetic_to_ecef(g);
        assert!((e.x - EARTH_RADIUS_KM).abs() < 1e-9);
        assert!(e.y.abs() < 1e-9 && e.z.abs() < 1e-9);
    }

    #[test]
    fn polar_radius_shorter() {
        let pole = geodetic_to_ecef(Geodetic::from_degrees(90.0, 0.0, 0.0));
        // WGS-84 polar radius is ~6356.75 km.
        assert!((pole.z - 6356.752).abs() < 0.01, "polar z {}", pole.z);
    }

    #[test]
    fn eci_ecef_rotation_roundtrip() {
        let v = Vec3::new(4000.0, -5000.0, 3000.0);
        for gmst in [0.0, 1.0, 3.5, 6.0] {
            let back = ecef_to_eci(eci_to_ecef(v, gmst), gmst);
            assert!((back - v).norm() < 1e-9);
        }
    }

    #[test]
    fn eci_to_ecef_rotates_with_earth() {
        // A point fixed in ECI above the prime meridian at gmst=0 should
        // appear to move westward in ECEF as gmst increases.
        let eci = Vec3::new(7000.0, 0.0, 0.0);
        let e0 = ecef_to_geodetic(eci_to_ecef(eci, 0.0));
        let e1 = ecef_to_geodetic(eci_to_ecef(eci, deg_to_rad(10.0)));
        assert!(e0.longitude_deg().abs() < 1e-9);
        assert!((e1.longitude_deg() + 10.0).abs() < 1e-9, "lon {}", e1.longitude_deg());
    }

    #[test]
    fn overhead_satellite_elevation_90() {
        let site = Geodetic::from_degrees(25.0, 121.5, 0.0);
        let site_e = geodetic_to_ecef(site);
        let sat = geodetic_to_ecef(Geodetic::from_degrees(25.0, 121.5, 550.0));
        let la = look_angles(site, site_e, sat);
        assert!(la.elevation_deg() > 89.9, "elev {}", la.elevation_deg());
        assert!((la.range_km - 550.0).abs() < 2.0, "range {}", la.range_km);
    }

    #[test]
    fn horizon_satellite_low_elevation() {
        let site = Geodetic::from_degrees(0.0, 0.0, 0.0);
        let site_e = geodetic_to_ecef(site);
        // Satellite 550 km up but 25 degrees of longitude away: near horizon.
        let sat = geodetic_to_ecef(Geodetic::from_degrees(0.0, 25.0, 550.0));
        let la = look_angles(site, site_e, sat);
        assert!(la.elevation_deg() < 10.0, "elev {}", la.elevation_deg());
        assert!(la.elevation_deg() > -10.0);
        // Azimuth should be due east (90 degrees).
        assert!((la.azimuth_deg() - 90.0).abs() < 1.0, "az {}", la.azimuth_deg());
    }

    #[test]
    fn azimuth_cardinal_directions() {
        let site = Geodetic::from_degrees(10.0, 20.0, 0.0);
        let site_e = geodetic_to_ecef(site);
        let north = geodetic_to_ecef(Geodetic::from_degrees(15.0, 20.0, 550.0));
        let south = geodetic_to_ecef(Geodetic::from_degrees(5.0, 20.0, 550.0));
        let west = geodetic_to_ecef(Geodetic::from_degrees(10.0, 15.0, 550.0));
        let az_n = look_angles(site, site_e, north).azimuth_deg();
        assert!(!(2.0..=358.0).contains(&az_n), "north az {az_n}");
        assert!((look_angles(site, site_e, south).azimuth_deg() - 180.0).abs() < 2.0);
        assert!((look_angles(site, site_e, west).azimuth_deg() - 270.0).abs() < 2.0);
    }

    #[test]
    fn sin_elevation_matches_look_angles() {
        let site = Geodetic::from_degrees(25.03, 121.56, 0.0);
        let site_e = geodetic_to_ecef(site);
        let z = site_zenith(site);
        for &(lat, lon) in &[(30.0, 125.0), (20.0, 110.0), (25.0, 121.0), (60.0, 121.0)] {
            let sat = geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 550.0));
            let la = look_angles(site, site_e, sat);
            let s = sin_elevation(site_e, z, sat);
            assert!((s - la.elevation_rad.sin()).abs() < 1e-12);
        }
    }

    #[test]
    fn subpoint_altitude_reasonable() {
        let eci = Vec3::new(6928.0, 0.0, 0.0);
        let g = subpoint(eci, 0.0);
        assert!((g.altitude_km - (6928.0 - EARTH_RADIUS_KM)).abs() < 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn geodetic_roundtrip_everywhere(
            lat in -89.5..89.5f64,
            lon in -179.9..179.9f64,
            alt in 0.0..3000.0f64,
        ) {
            let g = Geodetic::from_degrees(lat, lon, alt);
            let back = ecef_to_geodetic(geodetic_to_ecef(g));
            prop_assert!((back.latitude_deg() - lat).abs() < 1e-6);
            prop_assert!(crate::math::wrap_pi(back.longitude_rad - g.longitude_rad).abs() < 1e-9);
            prop_assert!((back.altitude_km - alt).abs() < 1e-5);
        }

        #[test]
        fn rotation_roundtrip_preserves_vectors(
            x in -1e4..1e4f64,
            y in -1e4..1e4f64,
            z in -1e4..1e4f64,
            gmst in 0.0..std::f64::consts::TAU,
        ) {
            let v = Vec3::new(x, y, z);
            let back = ecef_to_eci(eci_to_ecef(v, gmst), gmst);
            prop_assert!((back - v).norm() < 1e-9);
            prop_assert!((eci_to_ecef(v, gmst).norm() - v.norm()).abs() < 1e-9);
        }

        #[test]
        fn elevation_bounded(
            site_lat in -80.0..80.0f64,
            site_lon in -179.0..179.0f64,
            sat_lat in -80.0..80.0f64,
            sat_lon in -179.0..179.0f64,
        ) {
            let site = Geodetic::from_degrees(site_lat, site_lon, 0.0);
            let site_e = geodetic_to_ecef(site);
            let sat = geodetic_to_ecef(Geodetic::from_degrees(sat_lat, sat_lon, 550.0));
            let la = look_angles(site, site_e, sat);
            prop_assert!(la.elevation_rad <= std::f64::consts::FRAC_PI_2 + 1e-12);
            prop_assert!(la.elevation_rad >= -std::f64::consts::FRAC_PI_2 - 1e-12);
            prop_assert!((0.0..std::f64::consts::TAU).contains(&la.azimuth_rad));
            prop_assert!(la.range_km > 0.0);
            // sin_elevation agrees with the full computation.
            let s = sin_elevation(site_e, site_zenith(site), sat);
            prop_assert!((s - la.elevation_rad.sin()).abs() < 1e-10);
        }
    }
}
