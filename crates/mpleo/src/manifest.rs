//! The constellation manifest: MP-LEO's interchange file.
//!
//! Parties need one canonical document that says who is in the
//! constellation, which satellites each contributed (with published
//! elements), where the verifier ground stations are, and what policies
//! (quorum, rewards) the network runs. This module defines that document,
//! its JSON serialization, and its validation rules — the file an operator
//! would commit to a public repository and every node would load at boot.

use crate::party::PartyKind;
use orbital::kepler::ClassicalElements;
use orbital::time::Epoch;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One party in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestParty {
    /// Party id (also its signing identity in `dcp`).
    pub id: String,
    /// Country or company.
    pub kind: PartyKind,
}

/// One satellite entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestSatellite {
    /// Stable satellite id.
    pub sat_id: u32,
    /// Display name.
    pub name: String,
    /// Owning party id.
    pub owner: String,
    /// Published orbital elements at the manifest epoch.
    pub elements: ClassicalElements,
}

/// One verifier ground station.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestGroundStation {
    /// Operating party id.
    pub party: String,
    /// Station name.
    pub name: String,
    /// Latitude, degrees.
    pub lat_deg: f64,
    /// Longitude, degrees.
    pub lon_deg: f64,
}

/// Network policy constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ManifestPolicies {
    /// Attestation quorum for proof-of-coverage confirmation.
    pub poc_quorum: usize,
    /// Approval quorum for sensitive satellite commands.
    pub control_quorum: usize,
    /// Elevation mask for valid coverage, degrees.
    pub min_elevation_deg: f64,
}

/// The manifest document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstellationManifest {
    /// Constellation name.
    pub name: String,
    /// Manifest epoch: `(year, month, day, hour, minute, second)` UTC.
    pub epoch_utc: (i32, u32, u32, u32, u32, f64),
    /// Participating parties.
    pub parties: Vec<ManifestParty>,
    /// Satellites with published elements.
    pub satellites: Vec<ManifestSatellite>,
    /// Verifier ground stations.
    pub ground_stations: Vec<ManifestGroundStation>,
    /// Policy constants.
    pub policies: ManifestPolicies,
}

/// Validation failures (all of them, not just the first).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestErrors(pub Vec<String>);

impl std::fmt::Display for ManifestErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid manifest: {}", self.0.join("; "))
    }
}

impl std::error::Error for ManifestErrors {}

impl ConstellationManifest {
    /// The manifest epoch as an [`Epoch`].
    pub fn epoch(&self) -> Epoch {
        let (y, mo, d, h, mi, s) = self.epoch_utc;
        Epoch::from_ymdhms(y, mo, d, h, mi, s)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Parse from JSON and validate.
    pub fn from_json(text: &str) -> Result<ConstellationManifest, Box<dyn std::error::Error>> {
        let m: ConstellationManifest = serde_json::from_str(text)?;
        m.validate()?;
        Ok(m)
    }

    /// Structural validation: unique ids, resolvable owners, physical
    /// orbits, achievable quorums.
    pub fn validate(&self) -> Result<(), ManifestErrors> {
        let mut errors = Vec::new();
        let party_ids: BTreeSet<&str> = self.parties.iter().map(|p| p.id.as_str()).collect();
        if party_ids.len() != self.parties.len() {
            errors.push("duplicate party ids".into());
        }
        let mut sat_ids = BTreeSet::new();
        for s in &self.satellites {
            if !sat_ids.insert(s.sat_id) {
                errors.push(format!("duplicate satellite id {}", s.sat_id));
            }
            if !party_ids.contains(s.owner.as_str()) {
                errors.push(format!("satellite {} owned by unknown party '{}'", s.sat_id, s.owner));
            }
            if s.elements.perigee_altitude_km() < 120.0 {
                errors.push(format!(
                    "satellite {} perigee {:.0} km is not an orbit",
                    s.sat_id,
                    s.elements.perigee_altitude_km()
                ));
            }
            if !(0.0..1.0).contains(&s.elements.eccentricity) {
                errors.push(format!("satellite {} eccentricity out of range", s.sat_id));
            }
        }
        for g in &self.ground_stations {
            if !party_ids.contains(g.party.as_str()) {
                errors.push(format!("ground station '{}' has unknown party '{}'", g.name, g.party));
            }
            if g.lat_deg.abs() > 90.0 || g.lon_deg.abs() > 180.0 {
                errors.push(format!("ground station '{}' has invalid coordinates", g.name));
            }
        }
        if self.policies.poc_quorum < 1 || self.policies.poc_quorum > self.parties.len() {
            errors.push("poc_quorum unachievable".into());
        }
        if self.policies.control_quorum < 2 || self.policies.control_quorum > self.parties.len() {
            errors.push("control_quorum must be 2..=parties".into());
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(ManifestErrors(errors))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbital::math::deg_to_rad;

    fn manifest() -> ConstellationManifest {
        let mk = |sat_id: u32, owner: &str, phase: f64| ManifestSatellite {
            sat_id,
            name: format!("SAT-{sat_id}"),
            owner: owner.into(),
            elements: ClassicalElements::circular(550.0, deg_to_rad(53.0), 0.0, deg_to_rad(phase)),
        };
        ConstellationManifest {
            name: "demo".into(),
            epoch_utc: (2024, 6, 1, 0, 0, 0.0),
            parties: vec![
                ManifestParty { id: "taiwan".into(), kind: PartyKind::Country },
                ManifestParty { id: "acme-isp".into(), kind: PartyKind::Company },
                ManifestParty { id: "korea".into(), kind: PartyKind::Country },
            ],
            satellites: vec![mk(1, "taiwan", 0.0), mk(2, "acme-isp", 120.0), mk(3, "korea", 240.0)],
            ground_stations: vec![ManifestGroundStation {
                party: "taiwan".into(),
                name: "gs-taipei".into(),
                lat_deg: 25.03,
                lon_deg: 121.56,
            }],
            policies: ManifestPolicies {
                poc_quorum: 2,
                control_quorum: 2,
                min_elevation_deg: 25.0,
            },
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = manifest();
        let text = m.to_json();
        let back = ConstellationManifest::from_json(&text).expect("roundtrip");
        assert_eq!(back, m);
        assert!(text.contains("gs-taipei"));
    }

    #[test]
    fn epoch_resolves() {
        let e = manifest().epoch();
        assert_eq!(e.ymd(), (2024, 6, 1));
    }

    #[test]
    fn validation_catches_everything_at_once() {
        let mut m = manifest();
        m.satellites[0].owner = "ghost".into();
        m.satellites.push(m.satellites[1].clone()); // duplicate sat id
        m.ground_stations[0].lat_deg = 200.0;
        m.policies.control_quorum = 1;
        let errs = m.validate().unwrap_err();
        assert!(errs.0.len() >= 4, "{errs}");
        let msg = errs.to_string();
        assert!(msg.contains("ghost"));
        assert!(msg.contains("duplicate satellite"));
        assert!(msg.contains("control_quorum"));
    }

    #[test]
    fn suborbital_elements_rejected() {
        let mut m = manifest();
        m.satellites[0].elements.semi_major_axis_km = orbital::EARTH_RADIUS_KM + 50.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn from_json_validates() {
        let mut m = manifest();
        m.policies.poc_quorum = 99;
        let text = m.to_json();
        assert!(ConstellationManifest::from_json(&text).is_err());
    }
}
