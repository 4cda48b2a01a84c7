//! Constellation synthesis: Walker patterns and Starlink-like shells.
//!
//! The paper's experiments sample satellites from the real Starlink
//! constellation; since live TLEs are not shippable, this module generates a
//! statistically equivalent constellation: Walker-delta shells with
//! Starlink's published inclination/altitude/plane parameters. Each
//! satellite carries classical elements, a synthesized TLE identity, and the
//! shell it belongs to.

use crate::kepler::ClassicalElements;
use crate::math::{deg_to_rad, wrap_two_pi};
use crate::time::Epoch;
use crate::tle::Tle;
use serde::{Deserialize, Serialize};

/// Specification of one Walker-delta shell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShellSpec {
    /// Shell name (used in generated satellite names).
    pub name: String,
    /// Altitude above the mean equatorial radius, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Number of orbital planes.
    pub planes: u32,
    /// Satellites per plane.
    pub sats_per_plane: u32,
    /// Walker phasing factor F in `0..planes`: the inter-plane phase offset
    /// is `F * 360 / (planes * sats_per_plane)` degrees.
    pub phasing: u32,
    /// RAAN of the first plane, degrees.
    pub raan_offset_deg: f64,
}

impl ShellSpec {
    /// The primary Starlink shell: 53.0 degrees, 550 km, 72 planes of 22.
    pub fn starlink_like() -> ShellSpec {
        ShellSpec {
            name: "SHELL1".to_string(),
            altitude_km: 550.0,
            inclination_deg: 53.0,
            planes: 72,
            sats_per_plane: 22,
            phasing: 39,
            raan_offset_deg: 0.0,
        }
    }

    /// Total number of satellites in the shell.
    pub fn count(&self) -> u32 {
        self.planes * self.sats_per_plane
    }
}

/// A generated constellation member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Satellite {
    /// Stable identifier within the generated constellation.
    pub id: u32,
    /// Human-readable name, e.g. `"SHELL1-P03-S07"`.
    pub name: String,
    /// Shell the satellite belongs to.
    pub shell: String,
    /// Plane index within the shell.
    pub plane: u32,
    /// Slot index within the plane.
    pub slot: u32,
    /// Classical elements at the constellation epoch.
    pub elements: ClassicalElements,
    /// Epoch of the elements.
    pub epoch: Epoch,
}

impl Satellite {
    /// Synthesize the TLE identity of this satellite (drag-free).
    pub fn to_tle(&self) -> Tle {
        Tle::from_elements(&self.name, 90_000 + self.id, &self.elements, self.epoch)
    }
}

/// Generate a Walker-delta pattern for one shell.
///
/// Planes are spread evenly over 360 degrees of RAAN (delta pattern);
/// within a plane, satellites are evenly spaced in mean anomaly; the
/// inter-plane phasing follows the Walker `F` parameter.
pub fn walker_delta(spec: &ShellSpec, epoch: Epoch) -> Vec<Satellite> {
    let total = spec.count();
    let mut sats = Vec::with_capacity(total as usize);
    let inc = deg_to_rad(spec.inclination_deg);
    let phase_unit = 360.0 / total as f64; // degrees of in-plane phase per F
    for plane in 0..spec.planes {
        let raan = deg_to_rad(spec.raan_offset_deg + plane as f64 * 360.0 / spec.planes as f64);
        for slot in 0..spec.sats_per_plane {
            let in_plane = 360.0 * slot as f64 / spec.sats_per_plane as f64;
            let walker_phase = spec.phasing as f64 * phase_unit * plane as f64;
            let phase = deg_to_rad(in_plane + walker_phase);
            let id = plane * spec.sats_per_plane + slot;
            sats.push(Satellite {
                id,
                name: format!("{}-P{plane:02}-S{slot:02}", spec.name),
                shell: spec.name.clone(),
                plane,
                slot,
                elements: ClassicalElements::circular(spec.altitude_km, inc, raan, phase),
                epoch,
            });
        }
    }
    sats
}

/// Generate the multi-shell Starlink-like constellation used as the
/// satellite pool for the paper's sampling experiments (~4400 satellites
/// across the four Gen1 shells).
pub fn starlink_gen1_pool(epoch: Epoch) -> Vec<Satellite> {
    let shells = [
        ShellSpec {
            name: "S550".into(),
            altitude_km: 550.0,
            inclination_deg: 53.0,
            planes: 72,
            sats_per_plane: 22,
            phasing: 39,
            raan_offset_deg: 0.0,
        },
        ShellSpec {
            name: "S540".into(),
            altitude_km: 540.0,
            inclination_deg: 53.2,
            planes: 72,
            sats_per_plane: 22,
            phasing: 31,
            raan_offset_deg: 2.5,
        },
        ShellSpec {
            name: "S570".into(),
            altitude_km: 570.0,
            inclination_deg: 70.0,
            planes: 36,
            sats_per_plane: 20,
            phasing: 11,
            raan_offset_deg: 1.0,
        },
        ShellSpec {
            name: "S560".into(),
            altitude_km: 560.0,
            inclination_deg: 97.6,
            planes: 6,
            sats_per_plane: 58,
            phasing: 1,
            raan_offset_deg: 0.5,
        },
    ];
    let mut all = Vec::new();
    let mut id_base = 0u32;
    for spec in &shells {
        let mut sats = walker_delta(spec, epoch);
        for s in &mut sats {
            s.id += id_base;
        }
        id_base += spec.count();
        all.extend(sats);
    }
    all
}

/// A single orbital plane of evenly spaced satellites — the configuration of
/// the paper's Fig. 4b phase-sweep experiment (12 satellites, 30 degrees
/// apart, 53 degrees inclination, 546 km).
pub fn single_plane(count: u32, altitude_km: f64, inclination_deg: f64, epoch: Epoch) -> Vec<Satellite> {
    let spec = ShellSpec {
        name: "PLANE".into(),
        altitude_km,
        inclination_deg,
        planes: 1,
        sats_per_plane: count,
        phasing: 0,
        raan_offset_deg: 0.0,
    };
    walker_delta(&spec, epoch)
}

/// Build one extra satellite in a given shell geometry at an explicit phase
/// (argument of latitude) and RAAN, used by the placement experiments.
pub fn satellite_at(
    name: &str,
    id: u32,
    altitude_km: f64,
    inclination_deg: f64,
    raan_deg: f64,
    phase_deg: f64,
    epoch: Epoch,
) -> Satellite {
    Satellite {
        id,
        name: name.to_string(),
        shell: "CUSTOM".into(),
        plane: 0,
        slot: 0,
        elements: ClassicalElements::circular(
            altitude_km,
            deg_to_rad(inclination_deg),
            deg_to_rad(raan_deg),
            wrap_two_pi(deg_to_rad(phase_deg)),
        ),
        epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::rad_to_deg;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    #[test]
    fn walker_counts() {
        let spec = ShellSpec::starlink_like();
        let sats = walker_delta(&spec, epoch());
        assert_eq!(sats.len(), 72 * 22);
        // IDs unique and dense.
        let mut ids: Vec<u32> = sats.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sats.len());
    }

    #[test]
    fn planes_evenly_spread_in_raan() {
        let spec = ShellSpec { planes: 8, sats_per_plane: 3, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        for p in 0..8 {
            let raan = rad_to_deg(sats[(p * 3) as usize].elements.raan_rad);
            assert!((raan - p as f64 * 45.0).abs() < 1e-9, "plane {p}: raan {raan}");
        }
    }

    #[test]
    fn in_plane_spacing() {
        let sats = single_plane(12, 546.0, 53.0, epoch());
        assert_eq!(sats.len(), 12);
        for (k, s) in sats.iter().enumerate() {
            let phase = rad_to_deg(s.elements.mean_anomaly_rad);
            assert!((phase - 30.0 * k as f64).abs() < 1e-9, "slot {k}: {phase}");
            assert!((s.elements.inclination_rad.to_degrees() - 53.0).abs() < 1e-12);
        }
    }

    #[test]
    fn walker_phasing_offsets_adjacent_planes() {
        let spec = ShellSpec {
            planes: 4,
            sats_per_plane: 4,
            phasing: 1,
            ..ShellSpec::starlink_like()
        };
        let sats = walker_delta(&spec, epoch());
        // F=1, total 16 -> inter-plane phase offset = 360/16 = 22.5 deg.
        let p0s0 = rad_to_deg(sats[0].elements.mean_anomaly_rad);
        let p1s0 = rad_to_deg(sats[4].elements.mean_anomaly_rad);
        assert!((p1s0 - p0s0 - 22.5).abs() < 1e-9, "{p0s0} vs {p1s0}");
    }

    #[test]
    fn pool_size_and_shell_mix() {
        let pool = starlink_gen1_pool(epoch());
        assert_eq!(pool.len(), 72 * 22 + 72 * 22 + 36 * 20 + 6 * 58);
        let shells: std::collections::HashSet<&str> = pool.iter().map(|s| s.shell.as_str()).collect();
        assert_eq!(shells.len(), 4);
        // IDs unique across shells.
        let mut ids: Vec<u32> = pool.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pool.len());
    }

    #[test]
    fn satellites_propagate_sanely() {
        use crate::propagator::{KeplerJ2, Propagator};
        let pool = starlink_gen1_pool(epoch());
        for s in pool.iter().step_by(500) {
            let p = KeplerJ2::from_elements(&s.elements, s.epoch);
            let st = p.propagate(epoch().plus_minutes(45.0));
            assert!(st.altitude_km() > 500.0 && st.altitude_km() < 600.0, "{}", s.name);
        }
    }

    #[test]
    fn tle_identity_valid() {
        let sats = single_plane(3, 546.0, 53.0, epoch());
        for s in &sats {
            let tle = s.to_tle();
            let text = tle.to_string();
            let back = crate::tle::Tle::parse(&text).expect("generated TLE must parse");
            assert_eq!(back.norad_id, 90_000 + s.id);
        }
    }

    #[test]
    fn satellite_at_places_phase() {
        let s = satellite_at("X", 1, 546.0, 53.0, 10.0, 45.0, epoch());
        assert!((rad_to_deg(s.elements.mean_anomaly_rad) - 45.0).abs() < 1e-9);
        assert!((rad_to_deg(s.elements.raan_rad) - 10.0).abs() < 1e-9);
    }
}
