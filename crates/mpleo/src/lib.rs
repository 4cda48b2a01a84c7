//! # mpleo — multi-party LEO constellations
//!
//! The paper's core contribution: a model of *shared* constellations where
//! multiple parties each contribute a small number of satellites, trade
//! spare capacity, and retain robustness when participants withdraw.
//!
//! Modules:
//!
//! * [`party`] — parties, stakes, and stake-ratio satellite allocation
//!   (the 1:1:…:1 through 10:1:…:1 splits of Fig. 6).
//! * [`registry`] — the multi-party constellation registry: who owns which
//!   satellite, withdrawal bookkeeping.
//! * [`placement`] — coverage-gap-filling placement: marginal
//!   population-weighted coverage of a candidate satellite, the Fig. 4b
//!   phase sweep, the Fig. 4c inclination/altitude/phase category study, and
//!   a greedy multi-satellite planner with an exhaustive-search comparator.
//! * [`robustness`] — withdrawal experiments: random half-constellation
//!   withdrawal (Fig. 5) and largest-party withdrawal under skewed stakes
//!   (Fig. 6).
//! * [`incentives`] — pricing models and epoch settlement between consumer
//!   and provider parties.
//!
//! ## Quick example
//!
//! ```
//! use mpleo::party::{skewed_ratios, PartyKind};
//! use mpleo::registry::ConstellationRegistry;
//!
//! // The paper's Fig. 6 stake pattern: 10:1:...:1 across 11 parties.
//! let reg = ConstellationRegistry::from_ratios(
//!     1000,
//!     &skewed_ratios(10.0, 10),
//!     PartyKind::Country,
//!     None,
//! );
//! reg.validate().unwrap();
//! let largest = reg.largest_party();
//! assert_eq!(largest.stake(), 500);
//! assert_eq!(reg.remaining_after_withdrawal(&largest.id.clone()).len(), 500);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bootstrap;
pub mod control;
pub mod downlink;
pub mod economics;
pub mod failures;
#[cfg(test)]
pub(crate) mod fixtures;
pub mod handover;
pub mod incentives;
pub mod manifest;
pub mod party;
pub mod placement;
pub mod registry;
pub mod robustness;
pub mod sla;

pub use party::{allocate_by_ratio, Party, PartyId, PartyKind};
pub use registry::ConstellationRegistry;
