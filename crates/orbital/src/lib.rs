//! # orbital — orbital mechanics substrate for MP-LEO
//!
//! This crate implements everything needed to simulate Low Earth Orbit
//! satellite constellations from first principles:
//!
//! * **Time systems** ([`time`]): UTC epochs, Julian dates, and Greenwich
//!   Mean Sidereal Time (GMST, IAU 1982 model) for Earth-rotation handling.
//! * **Math** ([`math`]): small fixed-size vector/matrix types tuned for
//!   astrodynamics work.
//! * **Reference frames** ([`frames`]): conversions between the inertial
//!   TEME/ECI frame, the rotating Earth-fixed ECEF frame, WGS-84 geodetic
//!   coordinates, and topocentric (SEZ) look angles.
//! * **Keplerian orbits** ([`kepler`]): classical orbital elements, the
//!   Kepler equation solver, and element/state-vector conversions.
//! * **Propagators** ([`propagator`]): a common [`propagator::Propagator`]
//!   trait with two implementations — a fast two-body + J2-secular
//!   propagator, and a from-scratch SGP4 (near-Earth, Spacetrack Report #3).
//! * **TLEs** ([`tle`]): parsing, formatting, checksumming, and synthesis of
//!   Two-Line Element sets, the lingua franca of orbit distribution.
//! * **Constellations** ([`constellation`]): a Walker delta generator and a
//!   Starlink-like multi-shell synthesizer used throughout the MP-LEO
//!   experiments.
//! * **Ground geometry** ([`ground`]): ground sites and the elevation-mask
//!   visibility predicate.
//!
//! The crate is deliberately dependency-light (only `serde` for data
//! interchange) so it can serve as the trusted computational base for both
//! the simulator (`leosim`) and the decentralized protocol's independent
//! proof-of-coverage verification (`dcp`).
//!
//! ## Quick example
//!
//! ```
//! use orbital::constellation::{ShellSpec, walker_delta};
//! use orbital::propagator::{KeplerJ2, Propagator};
//! use orbital::time::Epoch;
//! use orbital::frames::{eci_to_ecef, ecef_to_geodetic};
//!
//! let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
//! let shell = ShellSpec::starlink_like();
//! let sats = walker_delta(&shell, epoch);
//! let prop = KeplerJ2::from_elements(&sats[0].elements, epoch);
//! let state = prop.propagate(epoch.plus_seconds(600.0));
//! let gmst = epoch.plus_seconds(600.0).gmst();
//! let ecef = eci_to_ecef(state.position, gmst);
//! let geo = ecef_to_geodetic(ecef);
//! assert!(geo.altitude_km > 400.0 && geo.altitude_km < 700.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod conjunction;
pub mod constellation;
pub mod earth;
pub mod frames;
pub mod ground;
pub mod kepler;
pub mod maneuver;
pub mod math;
pub mod od;
pub mod propagator;
pub mod time;
pub mod tle;

pub use earth::{EARTH_MU_KM3_S2, EARTH_RADIUS_KM};
pub use frames::{ecef_to_geodetic, eci_to_ecef, geodetic_to_ecef, Geodetic, LookAngles};
pub use kepler::ClassicalElements;
pub use math::Vec3;
pub use propagator::{KeplerJ2, Propagator, Sgp4, StateVector};
pub use time::Epoch;
pub use tle::Tle;
