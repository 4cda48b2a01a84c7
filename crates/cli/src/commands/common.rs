//! Helpers shared by the subcommand modules: the common epoch, the
//! `--threads` flag, and the sampled-pool scene builders used by every
//! command that simulates the shared constellation.

use crate::args::Args;
use leosim::montecarlo::{run_rng, sample_indices};
use leosim::visibility::{SimConfig, VisibilityTable};
use leosim::TimeGrid;
use orbital::constellation::{starlink_gen1_pool, Satellite};
use orbital::ground::GroundSite;
use orbital::time::Epoch;

pub(crate) type CmdResult = Result<(), Box<dyn std::error::Error>>;

pub(crate) fn epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

/// The `--threads <n>` flag: pin the shared `simrt` worker pool to `n`
/// threads for this invocation. 0 (or absent) leaves the decision to
/// `MPLEO_THREADS`, falling back to auto-detection.
pub(crate) fn configure_threads(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let threads = args.get_usize("threads", 0)?;
    if threads > 0 {
        simrt::configure(threads);
    }
    Ok(())
}

/// Shared: a seeded `sats_n`-satellite sample of the Starlink-like pool.
pub(crate) fn sampled_sats(
    seed: u64,
    sats_n: usize,
) -> Result<Vec<Satellite>, Box<dyn std::error::Error>> {
    let pool = starlink_gen1_pool(epoch());
    if sats_n > pool.len() {
        return Err(format!("--sats {} exceeds the pool of {}", sats_n, pool.len()).into());
    }
    let mut rng = run_rng(seed, 0);
    let idx = sample_indices(&mut rng, pool.len(), sats_n);
    Ok(idx.iter().map(|&i| pool[i].clone()).collect())
}

/// Shared: build a sampled pool visibility table for one site.
pub(crate) fn site_table(
    args: &Args,
    lat: f64,
    lon: f64,
) -> Result<(VisibilityTable, usize), Box<dyn std::error::Error>> {
    let sats_n = args.get_usize("sats", 500)?;
    let days = args.get_f64("days", 1.0)?;
    let step = args.get_f64("step", 60.0)?;
    let mask = args.get_f64("mask", 25.0)?;
    let sats = sampled_sats(0xC11, sats_n)?;
    let site = [GroundSite::from_degrees("site", lat, lon)];
    let grid = TimeGrid::new(epoch(), days * 86_400.0, step);
    let cfg = SimConfig::default().with_mask_deg(mask);
    let vt = VisibilityTable::compute(&sats, &site, &grid, &cfg);
    Ok((vt, sats_n))
}
