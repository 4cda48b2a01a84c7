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

    /// The slant-range bound of this site under an elevation mask.
    pub fn slant_bound(&self, min_elevation_deg: f64) -> SlantBound {
        let e_pad = (min_elevation_deg - ZENITH_PAD_DEG).max(-90.0).to_radians();
        let (sin_e, cos_e) = (e_pad.sin(), e_pad.cos());
        let r = self.ecef.norm();
        let rc = r * cos_e;
        SlantBound { r_sin: r * sin_e, r_cos_sq: rc * rc }
    }
}

/// Padding subtracted from the elevation mask before deriving the
/// slant-range bound, degrees: covers the geodetic-vs-geocentric zenith
/// deflection (max ~0.192° on WGS84) with margin.
const ZENITH_PAD_DEG: f64 = 0.25;

/// A conservative upper bound on the distance at which a site can see a
/// satellite, for screening candidates before the exact predicate
/// ([`GroundSite::sees_ecef_sin`]) — a compare of squared distances instead
/// of a square root and a divide.
///
/// A site at geocentric radius `R` sees a satellite at geocentric radius
/// `r` and geocentric elevation `ε` at range `sqrt(r² − R²·cos²ε) − R·sin ε`,
/// which grows with `r` and shrinks as `ε` rises. So every satellite at
/// radius `≤ r_max` above elevation `e` is within
/// `sqrt(r_max² − R²·cos²e′) − R·sin e′`, where `e′ = e − 0.25°` pads for the
/// deflection between the site's geodetic zenith (what
/// [`crate::frames::sin_elevation`] measures against) and the geocentric
/// radial (what the bound is derived from). A non-positive discriminant
/// proves no satellite can be visible at all. The bound only ever discards
/// candidates the predicate would reject; what it keeps is still decided
/// by the predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlantBound {
    /// `R·sin e′`, km.
    r_sin: f64,
    /// `(R·cos e′)²`, km².
    r_cos_sq: f64,
}

impl SlantBound {
    /// The largest range at which a satellite no farther than
    /// `sqrt(r_max_sq)` km from the geocenter can be above the mask, km;
    /// `0.0` when none can be.
    #[inline]
    pub fn max_range_km(&self, r_max_sq: f64) -> f64 {
        let disc = r_max_sq - self.r_cos_sq;
        if disc <= 0.0 {
            0.0
        } else {
            disc.sqrt() - self.r_sin
        }
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

    #[test]
    fn slant_bound_covers_everything_visible() {
        // Targets on the shell `r_max` along rays at and above the mask,
        // all round the compass, from sites where the zenith deflection is
        // largest (mid-latitudes), zero (equator, pole) and at altitude:
        // whatever the predicate accepts lies within the bound. Without the
        // 0.25 degree pad the mid-latitude rays at the mask itself fail.
        let r_max = 6378.137 + 1200.0;
        for (lat, alt) in [(45.0, 0.0), (-44.0, 0.0), (0.0, 0.0), (90.0, 0.0), (35.0, 4.0)] {
            let site = GroundSite::new("s", Geodetic::from_degrees(lat, 10.0, alt));
            let east = if lat == 90.0 { Vec3::Y } else { Vec3::Z.cross(site.zenith).normalized() };
            let north = site.zenith.cross(east);
            for mask in [-5.0, 0.0, 10.0, 25.0, 40.0, 89.0] {
                let bound = site.slant_bound(mask).max_range_km(r_max * r_max);
                let sin_mask = deg_to_rad(mask).sin();
                let mut seen = 0;
                for el in [mask, mask + 0.05, mask + 0.5, 0.5 * (mask + 90.0), 90.0] {
                    for az in (0..360).step_by(5) {
                        let (sin_el, cos_el) = deg_to_rad(el).sin_cos();
                        let (sin_az, cos_az) = deg_to_rad(az as f64).sin_cos();
                        let dir = site.zenith * sin_el + (north * cos_az + east * sin_az) * cos_el;
                        // Where the ray leaves the shell: |site + rho*dir| = r_max.
                        let b = site.ecef.dot(dir);
                        let rho = -b + (b * b - site.ecef.norm_sq() + r_max * r_max).sqrt();
                        let target = site.ecef + dir * rho;
                        if site.sees_ecef_sin(target, sin_mask) {
                            seen += 1;
                            assert!(
                                rho <= bound,
                                "lat {lat} mask {mask} el {el} az {az}: {rho} > {bound}"
                            );
                        }
                    }
                }
                assert!(seen >= 3 * 72, "lat {lat} mask {mask}: only {seen} rays seen");
            }
        }
    }

    #[test]
    fn slant_bound_zero_when_shell_is_below_the_horizon_cone() {
        let site = taipei();
        let r = site.ecef.norm();
        // A "shell" at the site's own radius cannot rise above 10 degrees.
        assert_eq!(site.slant_bound(10.0).max_range_km(r * r * 0.9), 0.0);
        assert!(site.slant_bound(10.0).max_range_km((r + 550.0) * (r + 550.0)) > 550.0);
    }
}
