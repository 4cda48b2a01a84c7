//! Ground sites and their visibility predicate.
//!
//! A [`GroundSite`] precomputes its ECEF position and zenith direction so
//! the per-step visibility predicate is a handful of flops — this predicate
//! is evaluated hundreds of millions of times in the coverage experiments.

use crate::frames::{geodetic_to_ecef, look_angles, sin_elevation, site_zenith, Geodetic, LookAngles};
use crate::math::Vec3;
use serde::{Deserialize, Serialize};

/// A fixed site on the ground (user terminal, ground station, or receiver).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundSite {
    /// Site name.
    pub name: String,
    /// Geodetic position.
    pub geodetic: Geodetic,
    /// Precomputed ECEF position, km.
    pub ecef: Vec3,
    /// Precomputed geodetic zenith unit vector in ECEF.
    pub zenith: Vec3,
}

impl GroundSite {
    /// Create a site from a name and geodetic position.
    pub fn new(name: impl Into<String>, geodetic: Geodetic) -> Self {
        GroundSite {
            name: name.into(),
            ecef: geodetic_to_ecef(geodetic),
            zenith: site_zenith(geodetic),
            geodetic,
        }
    }

    /// Create a site from degrees latitude/longitude at sea level.
    pub fn from_degrees(name: impl Into<String>, lat_deg: f64, lon_deg: f64) -> Self {
        Self::new(name, Geodetic::from_degrees(lat_deg, lon_deg, 0.0))
    }

    /// Is a target at the given ECEF position at or above the elevation
    /// mask? The caller passes the sine of the mask, computed once outside
    /// the hot loop of the simulator.
    #[inline]
    pub fn sees_ecef_sin(&self, target_ecef: Vec3, sin_mask: f64) -> bool {
        sin_elevation(self.ecef, self.zenith, target_ecef) >= sin_mask
    }

    /// Full look angles to a target in ECEF.
    pub fn look_angles(&self, target_ecef: Vec3) -> LookAngles {
        look_angles(self.geodetic, self.ecef, target_ecef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::deg_to_rad;

    fn taipei() -> GroundSite {
        GroundSite::from_degrees("Taipei", 25.03, 121.56)
    }

    #[test]
    fn site_precomputations_consistent() {
        let s = taipei();
        assert!((s.ecef.norm() - 6370.0).abs() < 20.0);
        assert!((s.zenith.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sees_overhead() {
        let s = taipei();
        let overhead = geodetic_to_ecef(Geodetic::from_degrees(25.03, 121.56, 550.0));
        assert!(s.sees_ecef_sin(overhead, deg_to_rad(85.0).sin()));
        let far = geodetic_to_ecef(Geodetic::from_degrees(-25.0, -60.0, 550.0));
        assert!(!s.sees_ecef_sin(far, deg_to_rad(5.0).sin()));
    }
}
