//! Proof-of-coverage: receipts, attestations, and physics-based
//! verification.
//!
//! The paper (§3.2): "Ground stations at random locations can verify
//! coverage by pinging satellites when they are overhead, and provide
//! proof-of-coverage to earn rewards." The crucial property making this
//! *decentralized* is that coverage claims are independently checkable:
//! every party knows every satellite's published orbital elements, so any
//! node can re-propagate the orbit and confirm the satellite really was
//! above the claimed ground station at the claimed time. A fraudulent
//! receipt is rejected by physics, not by authority.

use crate::crypto::{KeyDirectory, Signature};
use orbital::frames::{eci_to_ecef, sin_elevation};
use orbital::ground::GroundSite;
use orbital::kepler::ClassicalElements;
use orbital::propagator::{KeplerJ2, Propagator};
use orbital::time::Epoch;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A signed claim that `verifier` observed satellite `sat_id` overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageReceipt {
    /// Observed satellite.
    pub sat_id: u32,
    /// The verifying ground station's party id.
    pub verifier: String,
    /// The satellite-owning party (named so settlement can credit it).
    pub owner: String,
    /// Observation time, seconds after the scenario epoch.
    pub t_offset_s: f64,
    /// Claimed elevation of the satellite at observation, degrees.
    pub elevation_deg: f64,
    /// Verifier's HMAC tag over the canonical receipt bytes.
    pub signature: Signature,
}

impl CoverageReceipt {
    /// Canonical bytes covered by the receipt signature.
    pub fn signing_bytes(sat_id: u32, verifier: &str, owner: &str, t_offset_s: f64, elevation_deg: f64) -> Vec<u8> {
        format!("poc|{sat_id}|{verifier}|{owner}|{t_offset_s:.3}|{elevation_deg:.3}").into_bytes()
    }

    /// Create and sign a receipt on behalf of `verifier`.
    pub fn create(
        keys: &KeyDirectory,
        sat_id: u32,
        verifier: &str,
        owner: &str,
        t_offset_s: f64,
        elevation_deg: f64,
    ) -> Option<CoverageReceipt> {
        let sig = keys.sign(
            verifier,
            &Self::signing_bytes(sat_id, verifier, owner, t_offset_s, elevation_deg),
        )?;
        Some(CoverageReceipt {
            sat_id,
            verifier: verifier.to_string(),
            owner: owner.to_string(),
            t_offset_s,
            elevation_deg,
            signature: sig,
        })
    }
}

/// A signed verdict on a receipt by another party.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attestation {
    /// Content id of the receipt being attested (hex SHA-256).
    pub receipt_id: String,
    /// Attesting party.
    pub attestor: String,
    /// Whether the attestor's independent check passed.
    pub valid: bool,
    /// Attestor's HMAC tag.
    pub signature: Signature,
}

impl Attestation {
    /// Canonical bytes covered by the attestation signature.
    pub fn signing_bytes(receipt_id: &str, attestor: &str, valid: bool) -> Vec<u8> {
        format!("attest|{receipt_id}|{attestor}|{valid}").into_bytes()
    }

    /// Create and sign an attestation.
    pub fn create(keys: &KeyDirectory, receipt_id: &str, attestor: &str, valid: bool) -> Option<Attestation> {
        let sig = keys.sign(attestor, &Self::signing_bytes(receipt_id, attestor, valid))?;
        Some(Attestation {
            receipt_id: receipt_id.to_string(),
            attestor: attestor.to_string(),
            valid,
            signature: sig,
        })
    }
}

/// Shared scenario knowledge every node holds: the constellation's published
/// elements, the registered ground stations, and the link mask.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario epoch (all receipt offsets are relative to it).
    pub epoch: Epoch,
    /// Published orbital elements per satellite id.
    pub satellites: HashMap<u32, ClassicalElements>,
    /// Registered verifier ground stations per party id.
    pub ground_stations: HashMap<String, GroundSite>,
    /// Minimum elevation for a valid coverage claim, degrees.
    pub min_elevation_deg: f64,
    /// Tolerance on the claimed elevation, degrees (accounts for propagator
    /// disagreement between parties).
    pub elevation_tolerance_deg: f64,
}

impl Scenario {
    /// New scenario with default mask/tolerance.
    pub fn new(epoch: Epoch) -> Scenario {
        Scenario {
            epoch,
            satellites: HashMap::new(),
            ground_stations: HashMap::new(),
            min_elevation_deg: 25.0,
            elevation_tolerance_deg: 3.0,
        }
    }

    /// Register a satellite's published elements.
    pub fn add_satellite(&mut self, sat_id: u32, elements: ClassicalElements) {
        self.satellites.insert(sat_id, elements);
    }

    /// Register a verifier ground station.
    pub fn add_ground_station(&mut self, party: impl Into<String>, site: GroundSite) {
        self.ground_stations.insert(party.into(), site);
    }

    /// Independently compute the elevation (degrees) of a satellite above a
    /// verifier's station at a receipt's claimed time.
    pub fn computed_elevation_deg(&self, sat_id: u32, verifier: &str, t_offset_s: f64) -> Option<f64> {
        let el = self.satellites.get(&sat_id)?;
        let site = self.ground_stations.get(verifier)?;
        let prop = KeplerJ2::from_elements(el, self.epoch);
        let t = self.epoch.plus_seconds(t_offset_s);
        let ecef = eci_to_ecef(prop.position_at(t), t.gmst());
        let s = sin_elevation(site.ecef, site.zenith, ecef);
        Some(s.clamp(-1.0, 1.0).asin().to_degrees())
    }
}

/// Why a receipt was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PocError {
    /// The signature did not verify against the verifier's registered key.
    BadSignature,
    /// The claimed satellite is not in the published constellation.
    UnknownSatellite,
    /// The verifier is not a registered ground station.
    UnknownVerifier,
    /// Independent propagation puts the satellite below the mask at the
    /// claimed time; carries the computed elevation (centi-degrees,
    /// truncated) for diagnostics.
    NotOverhead(i32),
    /// The claimed elevation deviates from the computed one beyond
    /// tolerance.
    ElevationMismatch(i32),
}

/// Verify a receipt: signature + physics.
pub fn verify_receipt(
    receipt: &CoverageReceipt,
    scenario: &Scenario,
    keys: &KeyDirectory,
) -> Result<(), PocError> {
    let bytes = CoverageReceipt::signing_bytes(
        receipt.sat_id,
        &receipt.verifier,
        &receipt.owner,
        receipt.t_offset_s,
        receipt.elevation_deg,
    );
    if !keys.verify(&receipt.verifier, &bytes, &receipt.signature) {
        return Err(PocError::BadSignature);
    }
    if !scenario.satellites.contains_key(&receipt.sat_id) {
        return Err(PocError::UnknownSatellite);
    }
    if !scenario.ground_stations.contains_key(&receipt.verifier) {
        return Err(PocError::UnknownVerifier);
    }
    let computed = scenario
        .computed_elevation_deg(receipt.sat_id, &receipt.verifier, receipt.t_offset_s)
        .expect("ids checked above");
    if computed < scenario.min_elevation_deg - scenario.elevation_tolerance_deg {
        return Err(PocError::NotOverhead((computed * 100.0) as i32));
    }
    if (computed - receipt.elevation_deg).abs() > scenario.elevation_tolerance_deg {
        return Err(PocError::ElevationMismatch(
            ((computed - receipt.elevation_deg) * 100.0) as i32,
        ));
    }
    Ok(())
}

/// Verify an attestation's signature.
pub fn verify_attestation(att: &Attestation, keys: &KeyDirectory) -> bool {
    keys.verify(
        &att.attestor,
        &Attestation::signing_bytes(&att.receipt_id, &att.attestor, att.valid),
        &att.signature,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbital::frames::Geodetic;

    fn setup() -> (Scenario, KeyDirectory) {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let mut sc = Scenario::new(epoch);
        // A satellite that starts directly over the equator/prime meridian
        // region; ground station placed under its track.
        let el = ClassicalElements::circular(550.0, 53f64.to_radians(), 0.0, 0.0);
        sc.add_satellite(1, el);
        // Put the verifier exactly at the sub-satellite point at t=0.
        let prop = KeplerJ2::from_elements(&el, epoch);
        let sub = orbital::frames::subpoint(prop.position_at(epoch), epoch.gmst());
        let site = GroundSite::new(
            "gs-a",
            Geodetic::from_degrees(sub.latitude_deg(), sub.longitude_deg(), 0.0),
        );
        sc.add_ground_station("party-a", site);
        let mut keys = KeyDirectory::new();
        keys.register_derived("party-a", b"seed");
        keys.register_derived("party-b", b"seed");
        (sc, keys)
    }

    #[test]
    fn honest_receipt_verifies() {
        let (sc, keys) = setup();
        let el = sc.computed_elevation_deg(1, "party-a", 0.0).unwrap();
        assert!(el > 85.0, "satellite overhead at t=0, elevation {el}");
        let r = CoverageReceipt::create(&keys, 1, "party-a", "owner-x", 0.0, el).unwrap();
        assert_eq!(verify_receipt(&r, &sc, &keys), Ok(()));
    }

    #[test]
    fn fraudulent_time_rejected_by_physics() {
        let (sc, keys) = setup();
        // Half an orbit later the satellite is on the other side of Earth.
        let r = CoverageReceipt::create(&keys, 1, "party-a", "owner-x", 48.0 * 60.0, 80.0).unwrap();
        match verify_receipt(&r, &sc, &keys) {
            Err(PocError::NotOverhead(_)) => {}
            other => panic!("expected NotOverhead, got {other:?}"),
        }
    }

    #[test]
    fn inflated_elevation_rejected() {
        let (sc, keys) = setup();
        let el = sc.computed_elevation_deg(1, "party-a", 0.0).unwrap();
        let r = CoverageReceipt::create(&keys, 1, "party-a", "owner-x", 0.0, el - 20.0).unwrap();
        match verify_receipt(&r, &sc, &keys) {
            Err(PocError::ElevationMismatch(_)) => {}
            other => panic!("expected ElevationMismatch, got {other:?}"),
        }
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sc, keys) = setup();
        let el = sc.computed_elevation_deg(1, "party-a", 0.0).unwrap();
        let mut r = CoverageReceipt::create(&keys, 1, "party-a", "owner-x", 0.0, el).unwrap();
        r.t_offset_s = 60.0; // resign nothing: signature now stale
        assert_eq!(verify_receipt(&r, &sc, &keys), Err(PocError::BadSignature));
    }

    #[test]
    fn unknown_ids_rejected() {
        let (sc, keys) = setup();
        let el = sc.computed_elevation_deg(1, "party-a", 0.0).unwrap();
        let r = CoverageReceipt::create(&keys, 99, "party-a", "owner-x", 0.0, el).unwrap();
        assert_eq!(verify_receipt(&r, &sc, &keys), Err(PocError::UnknownSatellite));
        // Verifier signs with a registered key but is not a ground station.
        let r2 = CoverageReceipt::create(&keys, 1, "party-b", "owner-x", 0.0, el).unwrap();
        assert_eq!(verify_receipt(&r2, &sc, &keys), Err(PocError::UnknownVerifier));
    }

    #[test]
    fn attestation_roundtrip() {
        let (_sc, keys) = setup();
        let a = Attestation::create(&keys, "deadbeef", "party-b", true).unwrap();
        assert!(verify_attestation(&a, &keys));
        let mut tampered = a.clone();
        tampered.valid = false;
        assert!(!verify_attestation(&tampered, &keys));
        let unknown = Attestation {
            receipt_id: "x".into(),
            attestor: "ghost".into(),
            valid: true,
            signature: "00".into(),
        };
        assert!(!verify_attestation(&unknown, &keys));
    }

    #[test]
    fn elevation_computation_sane_over_pass() {
        let (sc, _keys) = setup();
        // Elevation peaks near t=0 and decays within minutes.
        let e0 = sc.computed_elevation_deg(1, "party-a", 0.0).unwrap();
        let e5 = sc.computed_elevation_deg(1, "party-a", 300.0).unwrap();
        let e20 = sc.computed_elevation_deg(1, "party-a", 1200.0).unwrap();
        assert!(e0 > e5, "{e0} vs {e5}");
        assert!(e5 > e20, "{e5} vs {e20}");
        assert!(e20 < 0.0, "20 minutes later the satellite is below horizon: {e20}");
    }
}

/// Result of auditing a satellite's *published* elements against a party's
/// own ranging observations (see [`orbital::od`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ElementAudit {
    /// Published elements explain the observations (residual below the
    /// ranging-noise threshold).
    Consistent {
        /// RMS range residual of the published elements, km.
        rms_km: f64,
    },
    /// Published elements misfit the observations; the refit exposes where
    /// the satellite actually is.
    Forged {
        /// RMS residual of the published elements, km.
        published_rms_km: f64,
        /// The independently fitted elements.
        fitted: orbital::kepler::ClassicalElements,
        /// RMS residual of the fit, km.
        fitted_rms_km: f64,
    },
    /// The fit did not converge (too few / degenerate observations); no
    /// verdict.
    Inconclusive,
}

/// Audit published elements for `sat_id` against range observations taken
/// by `verifier`'s ground station. `threshold_km` is the residual above
/// which the published elements are declared inconsistent (set it a few x
/// above the station's ranging noise).
pub fn audit_published_elements(
    scenario: &Scenario,
    sat_id: u32,
    verifier: &str,
    observations: &[orbital::od::RangeObservation],
    threshold_km: f64,
) -> Option<ElementAudit> {
    let published = scenario.satellites.get(&sat_id)?;
    let site = scenario.ground_stations.get(verifier)?;
    // Residual of the published elements directly.
    let prop = KeplerJ2::from_elements(published, scenario.epoch);
    let ss: f64 = observations
        .iter()
        .map(|o| {
            let t = scenario.epoch.plus_seconds(o.t_offset_s);
            let ecef = eci_to_ecef(prop.position_at(t), t.gmst());
            let r = site.ecef.distance(ecef) - o.range_km;
            r * r
        })
        .sum();
    let published_rms = (ss / observations.len().max(1) as f64).sqrt();
    if published_rms <= threshold_km {
        return Some(ElementAudit::Consistent { rms_km: published_rms });
    }
    match orbital::od::fit_elements(published, scenario.epoch, site, observations) {
        Ok(fit) if fit.rms_km <= threshold_km => Some(ElementAudit::Forged {
            published_rms_km: published_rms,
            fitted: fit.elements,
            fitted_rms_km: fit.rms_km,
        }),
        _ => Some(ElementAudit::Inconclusive),
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use orbital::kepler::ClassicalElements;
    use orbital::od::synthesize_observations;

    fn setup_audit() -> (Scenario, ClassicalElements, GroundSite) {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let truth = ClassicalElements::circular(
            550.0,
            53f64.to_radians(),
            120f64.to_radians(),
            30f64.to_radians(),
        );
        let site = GroundSite::from_degrees("gs", 25.03, 121.56);
        let mut sc = Scenario::new(epoch);
        sc.add_ground_station("auditor", site.clone());
        (sc, truth, site)
    }

    #[test]
    fn honest_publication_passes_audit() {
        let (mut sc, truth, site) = setup_audit();
        sc.add_satellite(1, truth);
        let obs = synthesize_observations(&truth, sc.epoch, &site, 43_200.0, 30.0, 10.0, 0.1, 3);
        let audit = audit_published_elements(&sc, 1, "auditor", &obs, 1.0).unwrap();
        match audit {
            ElementAudit::Consistent { rms_km } => assert!(rms_km < 1.0),
            other => panic!("expected Consistent, got {other:?}"),
        }
    }

    #[test]
    fn forged_publication_exposed_and_refit() {
        let (mut sc, truth, site) = setup_audit();
        // Publish elements 5 degrees of RAAN away from where the satellite
        // actually flies.
        let forged = ClassicalElements {
            raan_rad: truth.raan_rad + 5f64.to_radians(),
            ..truth
        };
        sc.add_satellite(1, forged);
        let obs = synthesize_observations(&truth, sc.epoch, &site, 43_200.0, 30.0, 10.0, 0.1, 4);
        let audit = audit_published_elements(&sc, 1, "auditor", &obs, 1.0).unwrap();
        match audit {
            ElementAudit::Forged { published_rms_km, fitted, fitted_rms_km } => {
                assert!(published_rms_km > 10.0, "misfit {published_rms_km}");
                assert!(fitted_rms_km < 1.0);
                let d = orbital::math::wrap_pi(fitted.raan_rad - truth.raan_rad).abs();
                assert!(d < 0.01, "refit found the real plane (off by {d} rad)");
            }
            other => panic!("expected Forged, got {other:?}"),
        }
    }

    #[test]
    fn unknown_ids_yield_none() {
        let (sc, truth, site) = setup_audit();
        let obs = synthesize_observations(&truth, sc.epoch, &site, 3600.0, 60.0, 10.0, 0.0, 5);
        assert!(audit_published_elements(&sc, 99, "auditor", &obs, 1.0).is_none());
        assert!(audit_published_elements(&sc, 1, "ghost", &obs, 1.0).is_none());
    }
}
