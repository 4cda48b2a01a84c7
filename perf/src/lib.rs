//! The repository's benchmark. See `README.md` beside this package for the
//! metric and workload definitions; `BENCHMARK.json` at the repository root
//! is [`spec`] printed.

pub mod compare;
pub mod digest;
pub mod harness;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
