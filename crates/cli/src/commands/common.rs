//! Helpers shared by the subcommand modules: the common epoch and the
//! sampled-pool scene builders used by every command that simulates the
//! shared constellation.

use crate::args::Args;
use geodata::City;
use leosim::ephemeris::EphemerisStore;
use leosim::montecarlo::{run_rng, sample_indices};
use leosim::visibility::{SimConfig, VisibilityTable};
use leosim::TimeGrid;
use mpleo::party::PartyId;
use orbital::constellation::{starlink_gen1_pool, Satellite};
use orbital::ground::GroundSite;
use orbital::time::{format_duration, Epoch};

pub(crate) type CmdResult = Result<(), Box<dyn std::error::Error>>;

pub(crate) fn epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
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

/// Shared by `traffic` and `churn`: the multi-party scene both commands
/// simulate — a sampled constellation propagated over the grid, the
/// paper's cities with every `--gateway-stride`-th one hosting a gateway,
/// and satellites and cities dealt round-robin to `--parties` parties.
pub(crate) struct TrafficScene {
    pub(crate) cfg: SimConfig,
    pub(crate) store: EphemerisStore,
    pub(crate) cities: Vec<City>,
    pub(crate) gateways: Vec<GroundSite>,
    pub(crate) parties: Vec<PartyId>,
    pub(crate) sat_party: Vec<usize>,
    pub(crate) city_party: Vec<usize>,
    /// `--scale`: multiplier on the offered demand.
    pub(crate) scale: f64,
    /// Market epoch length: 6 hours, at least one step.
    pub(crate) epoch_steps: usize,
}

impl TrafficScene {
    /// Parse and validate the flags the two commands share (rejecting any
    /// flag outside those and `own_flags`), then build the scene from a
    /// `sample_seed`-seeded constellation sample.
    pub(crate) fn from_args(
        args: &Args,
        own_flags: &[&str],
        sample_seed: u64,
    ) -> Result<TrafficScene, Box<dyn std::error::Error>> {
        let mut allowed =
            vec!["sats", "hours", "step", "parties", "gateway-stride", "scale", "mask"];
        allowed.extend_from_slice(own_flags);
        args.expect_only(&allowed)?;
        let sats_n = args.get_usize("sats", 300)?;
        let hours = args.get_f64("hours", 12.0)?;
        let step = args.get_f64("step", 600.0)?;
        let n_parties = args.get_usize("parties", 3)?;
        let stride = args.get_usize("gateway-stride", 3)?;
        let scale = args.get_f64("scale", 1.0)?;
        let mask = args.get_f64("mask", 25.0)?;
        if n_parties == 0 {
            return Err("--parties must be at least 1".into());
        }
        if stride == 0 {
            return Err("--gateway-stride must be at least 1".into());
        }
        if scale < 0.0 {
            return Err("--scale must be non-negative".into());
        }

        let grid = TimeGrid::new(epoch(), hours * 3600.0, step);
        let cfg = SimConfig::default().with_mask_deg(mask);
        let store = EphemerisStore::build(&sampled_sats(sample_seed, sats_n)?, &grid, &cfg);
        let cities = geodata::paper_cities();
        Ok(TrafficScene {
            gateways: traffic::gateways_every_nth(&cities, stride),
            parties: (0..n_parties).map(|p| PartyId::new(format!("party-{p}"))).collect(),
            sat_party: (0..store.sat_count()).map(|s| s % n_parties).collect(),
            city_party: (0..cities.len()).map(|c| c % n_parties).collect(),
            scale,
            epoch_steps: ((6.0 * 3600.0 / step).round() as usize).max(1),
            cfg,
            store,
            cities,
        })
    }

    /// The two header lines both reports open with.
    pub(crate) fn print_header(&self) {
        println!(
            "constellation sample: {} satellites, {} parties, {} gateways",
            self.store.sat_count(),
            self.parties.len(),
            self.gateways.len()
        );
        let grid = &self.store.grid;
        println!(
            "horizon: {} ({} steps of {:.0} s)",
            format_duration(grid.duration_s()),
            grid.steps,
            grid.step_s
        );
    }
}
