//! # leosim — a CosmicBeats-equivalent LEO coverage simulator
//!
//! The paper's evaluation runs on Microsoft's CosmicBeats simulator: orbits
//! are propagated from TLE descriptors, satellite–ground visibility is
//! evaluated against an elevation mask on a fixed time grid, and coverage /
//! idle-time statistics are extracted. This crate rebuilds that pipeline
//! with a layout optimized for the paper's *sampling* experiments: per
//! (satellite, site) visibility is materialized once as a compact time
//! bitset, after which every Monte-Carlo run (random subsets, withdrawals,
//! placements) is pure bitset algebra — thousands of runs per second instead
//! of re-propagating orbits.
//!
//! Pipeline:
//!
//! 1. [`timegrid::TimeGrid`] — the discrete simulation clock (start, step,
//!    horizon) with precomputed Earth-rotation angles.
//! 2. [`ephemeris::EphemerisStore`] — propagate every satellite over the
//!    grid exactly once into a columnar table of ECEF positions, shared by
//!    every downstream consumer.
//! 3. [`visibility::VisibilityTable`] — a pure geometry kernel over the
//!    store: for every site, the steps where each satellite is above the
//!    elevation mask.
//! 4. [`bitset::TimeBitset`] — the compact set-of-steps representation with
//!    union/intersection/gap extraction.
//! 5. [`coverage`] — coverage fraction, gap statistics, and the paper's
//!    population-weighted coverage-time metric.
//! 6. [`idle`] — satellite idle-time analysis (Fig. 3).
//! 7. [`bentpipe`] — the brute-force connectivity oracle: transparent
//!    bent pipe (terminal → satellite → ground station joint visibility) at
//!    zero hops, ISL relay above. Production routing lives in `traffic`'s
//!    step kernel, which is tested against it.
//! 8. [`montecarlo`] — seeded sampling harness for the 100-run averages.
//!
//! ## Quick example
//!
//! ```
//! use leosim::{TimeGrid, visibility::{SimConfig, VisibilityTable}};
//! use leosim::coverage::CoverageStats;
//! use orbital::constellation::single_plane;
//! use orbital::ground::GroundSite;
//! use orbital::time::Epoch;
//!
//! let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
//! let sats = single_plane(8, 550.0, 53.0, epoch);
//! let sites = [GroundSite::from_degrees("Taipei", 25.03, 121.56)];
//! let grid = TimeGrid::new(epoch, 6.0 * 3600.0, 120.0);
//! let vt = VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default());
//! let all: Vec<usize> = (0..sats.len()).collect();
//! let stats = CoverageStats::from_bitset(&vt.coverage_union(&all, 0), &grid);
//! assert!(stats.covered_fraction < 1.0); // 8 satellites cannot blanket a site
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bentpipe;
pub mod bitset;
pub mod coverage;
pub mod coveragemap;
pub mod dtn;
pub mod ephemeris;
pub mod idle;
pub mod latency;
pub mod linkbudget;
pub mod montecarlo;
pub mod region;
pub mod timegrid;
pub mod visibility;

pub use bitset::TimeBitset;
pub use coverage::{population_weighted_coverage, CoverageStats};
pub use ephemeris::EphemerisStore;
pub use timegrid::TimeGrid;
pub use visibility::{SimConfig, VisibilityTable};
