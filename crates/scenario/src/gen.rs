//! The seeded scenario generator.
//!
//! A [`Scenario`] is a complete, self-describing, JSON-serializable
//! description of one end-to-end run of the stack: the constellation shell,
//! the time grid, the city/gateway/party scene, the demand and routing
//! knobs, the capacity limits, and the churn schedule. Everything downstream
//! ([`Scenario::build`], the oracles, the engines) is a pure function of
//! this struct, so a scenario reproduces bit-for-bit from its JSON — the
//! shrinker mutates the struct directly and never needs the generator
//! again.
//!
//! Generation draws every dimension from an independent
//! [`leosim::montecarlo::run_rng`] stream of the scenario seed (see
//! [`crate::seeds`]), so tweaking the distribution of one dimension never
//! perturbs the samples of another.

use crate::seeds;
use geodata::{paper_cities, City};
use leosim::ephemeris::EphemerisStore;
use leosim::montecarlo::run_rng;
use leosim::visibility::{PropagatorKind, SimConfig};
use leosim::TimeGrid;
use mpleo::party::PartyId;
use orbital::constellation::{walker_delta, ShellSpec};
use orbital::ground::GroundSite;
use orbital::time::Epoch;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use traffic::{
    gateways_every_nth, CampaignConfig, ChurnEvent, ChurnSchedule, DemandConfig, GraphConfig,
    TrafficConfig,
};

/// How satellites and cities are split between the parties (derived
/// deterministically in [`Scenario::build`], so shrinking the party count
/// keeps the map well-formed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ownership {
    /// `index % parties` — maximally interleaved.
    RoundRobin,
    /// Contiguous blocks of roughly equal size.
    Blocks,
    /// A seeded shuffle of the round-robin map (stream
    /// [`seeds::STREAM_OWNERSHIP`] of the scenario seed).
    Shuffled,
}

/// A complete scenario: every knob the stack exposes, in one
/// JSON-serializable struct. See the module docs for the design contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The generating seed (kept for repro labelling; the fields below are
    /// authoritative).
    pub seed: u64,
    /// Walker shell: orbital planes.
    pub planes: u32,
    /// Walker shell: satellites per plane.
    pub sats_per_plane: u32,
    /// Shell altitude, km.
    pub altitude_km: f64,
    /// Shell inclination, degrees.
    pub inclination_deg: f64,
    /// Propagate with full SGP4 instead of Kepler+J2.
    pub sgp4: bool,
    /// Elevation mask, degrees.
    pub mask_deg: f64,
    /// Horizon, seconds.
    pub horizon_s: f64,
    /// Grid step, seconds.
    pub step_s: f64,
    /// Indices into [`geodata::paper_cities`] (sorted, distinct).
    pub cities: Vec<usize>,
    /// Gateways colocated with every `n`-th selected city.
    pub gateway_stride: usize,
    /// Number of parties.
    pub n_parties: usize,
    /// Ownership split of satellites and cities.
    pub ownership: Ownership,
    /// Multiplier on every city's offered load.
    pub demand_scale: f64,
    /// Per-city demand amplitude jitter.
    pub jitter: f64,
    /// Maximum ISL edge length, km.
    pub isl_range_km: f64,
    /// Maximum ISL hops (0 = bent pipe only).
    pub max_hops: usize,
    /// Ku channels aggregated per city access link.
    pub channels_per_link: usize,
    /// Per-satellite throughput cap, Mbps.
    pub sat_capacity_mbps: f64,
    /// Per-gateway backhaul cap, Mbps.
    pub gateway_capacity_mbps: f64,
    /// Market epoch length, grid steps.
    pub epoch_steps: usize,
    /// Base capacity price, credits per Mbps-epoch.
    pub base_price: f64,
    /// The timed churn events.
    pub schedule: ChurnSchedule,
}

/// The materialized scene a scenario runs over.
pub struct Built {
    /// Propagated ephemerides of the shell.
    pub store: EphemerisStore,
    /// The simulation grid.
    pub grid: TimeGrid,
    /// Elevation mask / propagator configuration.
    pub sim: SimConfig,
    /// The selected cities.
    pub cities: Vec<City>,
    /// Gateways (every `gateway_stride`-th city).
    pub gateways: Vec<GroundSite>,
    /// Party identities (`party-0` …).
    pub parties: Vec<PartyId>,
    /// Satellite owner map (store row → party index).
    pub sat_party: Vec<usize>,
    /// City sponsor map (city → party index).
    pub city_party: Vec<usize>,
    /// The campaign configuration (traffic knobs + schedule + market).
    pub cfg: CampaignConfig,
}

/// The shared scenario epoch (same instant every other layer uses).
pub fn scenario_epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

impl Scenario {
    /// Satellites in the shell.
    pub fn n_sats(&self) -> usize {
        (self.planes * self.sats_per_plane) as usize
    }

    /// Grid steps over the horizon (matches [`TimeGrid::new`]).
    pub fn steps(&self) -> usize {
        (self.horizon_s / self.step_s).floor() as usize + 1
    }

    /// Gateways the scene will have.
    pub fn n_gateways(&self) -> usize {
        self.cities.len().div_ceil(self.gateway_stride)
    }

    /// Generate the scenario for `seed`. Deterministic: the same seed
    /// always yields the same scenario, and each dimension draws from its
    /// own `run_rng(seed, stream)` stream.
    pub fn generate(seed: u64) -> Scenario {
        let mut shell = run_rng(seed, seeds::STREAM_SHELL);
        let planes = shell.gen_range(2usize..7) as u32;
        let sats_per_plane = shell.gen_range(3usize..11) as u32;
        let altitude_km = shell.gen_range(450.0..1200.0);
        let inclination_deg = shell.gen_range(45.0..97.5);
        let sgp4 = shell.gen_bool(0.15);
        let mask_deg = shell.gen_range(10.0..40.0);

        let mut grid = run_rng(seed, seeds::STREAM_GRID);
        let step_s = [300.0, 600.0, 900.0][grid.gen_range(0usize..3)];
        let horizon_s = grid.gen_range(2.0..8.0) * 3600.0;

        let mut scene = run_rng(seed, seeds::STREAM_SCENE);
        let pool = paper_cities().len();
        let n_cities = scene.gen_range(2usize..11);
        let mut all: Vec<usize> = (0..pool).collect();
        all.shuffle(&mut scene);
        let mut cities = all[..n_cities].to_vec();
        cities.sort_unstable();
        let gateway_stride = scene.gen_range(1usize..4.min(n_cities) + 1);
        let n_parties = scene.gen_range(1usize..5);
        let ownership = [Ownership::RoundRobin, Ownership::Blocks, Ownership::Shuffled]
            [scene.gen_range(0usize..3)];

        let mut knobs = run_rng(seed, seeds::STREAM_KNOBS);
        // Occasionally zero demand (everything downstream must degrade to
        // the trivial fixed point); otherwise a wide scale range so both
        // slack and saturated allocations appear.
        let demand_scale = if knobs.gen_bool(0.05) { 0.0 } else { knobs.gen_range(0.2..3.0) };
        let jitter = knobs.gen_range(0.0..0.3);
        let isl_range_km = knobs.gen_range(1500.0..5000.0);
        let max_hops = knobs.gen_range(0usize..4);
        let channels_per_link = knobs.gen_range(8usize..33);
        // Log-uniform-ish capacity draws reach both starved and unconstrained
        // regimes (10^2 .. 10^4.5 Mbps).
        let sat_capacity_mbps = 10f64.powf(knobs.gen_range(2.0..4.5));
        let gateway_capacity_mbps = 10f64.powf(knobs.gen_range(2.0..4.5));
        let base_price = knobs.gen_range(0.5..2.0);

        let mut sc = Scenario {
            seed,
            planes,
            sats_per_plane,
            altitude_km,
            inclination_deg,
            sgp4,
            mask_deg,
            horizon_s,
            step_s,
            cities,
            gateway_stride,
            n_parties,
            ownership,
            demand_scale,
            jitter,
            isl_range_km,
            max_hops,
            channels_per_link,
            sat_capacity_mbps,
            gateway_capacity_mbps,
            epoch_steps: 0, // filled below, needs steps()
            base_price,
            schedule: ChurnSchedule::new(),
        };
        let steps = sc.steps();
        sc.epoch_steps = knobs.gen_range(1usize..steps + 3);
        sc.schedule = generate_schedule(seed, steps, sc.n_sats(), sc.n_gateways(), n_parties);
        sc.sanitize();
        sc
    }

    /// Clamp every field into its valid range and drop schedule events the
    /// dimensions cannot carry. Idempotent; called after generation and
    /// after every shrink mutation so mutated scenarios always validate.
    pub fn sanitize(&mut self) {
        self.planes = self.planes.clamp(1, 12);
        self.sats_per_plane = self.sats_per_plane.clamp(1, 16);
        self.altitude_km = self.altitude_km.clamp(350.0, 2000.0);
        self.inclination_deg = self.inclination_deg.clamp(10.0, 120.0);
        self.mask_deg = self.mask_deg.clamp(5.0, 60.0);
        self.step_s = self.step_s.clamp(60.0, 3600.0);
        self.horizon_s = self.horizon_s.clamp(self.step_s, 48.0 * 3600.0);
        let pool = paper_cities().len();
        self.cities.retain(|&c| c < pool);
        self.cities.sort_unstable();
        self.cities.dedup();
        if self.cities.is_empty() {
            self.cities.push(0);
        }
        self.gateway_stride = self.gateway_stride.clamp(1, self.cities.len());
        self.n_parties = self.n_parties.clamp(1, 8);
        self.demand_scale = self.demand_scale.clamp(0.0, 10.0);
        self.jitter = self.jitter.clamp(0.0, 1.0);
        self.isl_range_km = self.isl_range_km.clamp(100.0, 10_000.0);
        self.max_hops = self.max_hops.min(6);
        self.channels_per_link = self.channels_per_link.clamp(1, 64);
        self.sat_capacity_mbps = self.sat_capacity_mbps.clamp(1.0, 1e6);
        self.gateway_capacity_mbps = self.gateway_capacity_mbps.clamp(1.0, 1e6);
        self.epoch_steps = self.epoch_steps.clamp(1, self.steps() + 2);
        self.base_price = self.base_price.clamp(0.01, 100.0);
        let (steps, n_sats, n_gateways, n_parties) =
            (self.steps(), self.n_sats(), self.n_gateways(), self.n_parties);
        self.schedule.events.retain(|(step, event)| {
            *step < steps
                && match event {
                    ChurnEvent::SatFail { sat } | ChurnEvent::SatRecover { sat } => *sat < n_sats,
                    ChurnEvent::PartyWithdraw { party } | ChurnEvent::PartyRejoin { party } => {
                        *party < n_parties
                    }
                    ChurnEvent::GatewayOutage { gateway }
                    | ChurnEvent::GatewayRestore { gateway } => *gateway < n_gateways,
                    ChurnEvent::RegionDegrade { factor, .. } => (0.0..=1.0).contains(factor),
                    ChurnEvent::RegionRestore { .. } => true,
                }
        });
    }

    /// Whether the schedule's final state is nominal — every failure healed,
    /// every withdrawal rejoined, every outage restored, every degradation
    /// lifted. Derived by rolling the schedule, so it stays correct under
    /// arbitrary shrinker edits.
    pub fn fully_heals(&self) -> bool {
        let cities: Vec<City> = self.cities.iter().map(|&c| paper_cities()[c].clone()).collect();
        let states = traffic::churn::roll_states(
            &self.schedule,
            self.steps(),
            self.n_sats(),
            self.n_gateways(),
            self.n_parties,
            &cities,
        );
        states.last().is_none_or(|st| st.is_nominal())
    }

    /// Materialize the scene: propagate the shell, select the cities, place
    /// the gateways, derive the ownership maps, and assemble the campaign
    /// configuration. Pure function of `self`.
    pub fn build(&self) -> Built {
        let epoch = scenario_epoch();
        let spec = ShellSpec {
            altitude_km: self.altitude_km,
            inclination_deg: self.inclination_deg,
            planes: self.planes,
            sats_per_plane: self.sats_per_plane,
            ..ShellSpec::starlink_like()
        };
        let sats = walker_delta(&spec, epoch);
        let grid = TimeGrid::new(epoch, self.horizon_s, self.step_s);
        let sim = SimConfig {
            min_elevation_deg: self.mask_deg,
            propagator: if self.sgp4 { PropagatorKind::Sgp4 } else { PropagatorKind::KeplerJ2 },
        };
        let store = EphemerisStore::build(&sats, &grid, &sim);
        let pool = paper_cities();
        let cities: Vec<City> = self.cities.iter().map(|&c| pool[c].clone()).collect();
        let gateways = gateways_every_nth(&cities, self.gateway_stride);
        let parties: Vec<PartyId> =
            (0..self.n_parties).map(|p| PartyId::new(format!("party-{p}"))).collect();
        let sat_party = self.owner_map(store.sat_count());
        let city_party = self.owner_map(cities.len());
        let cfg = CampaignConfig {
            traffic: TrafficConfig {
                demand: DemandConfig {
                    jitter: self.jitter,
                    seed: self.seed,
                    ..DemandConfig::default()
                },
                graph: GraphConfig {
                    isl_range_km: self.isl_range_km,
                    max_hops: self.max_hops,
                    channels_per_link: self.channels_per_link,
                },
                sat_capacity_mbps: self.sat_capacity_mbps,
                gateway_capacity_mbps: self.gateway_capacity_mbps,
                demand_scale: self.demand_scale,
            },
            schedule: self.schedule.clone(),
            epoch_steps: self.epoch_steps,
            base_price: self.base_price,
            key_seed: format!("scenario-{}", self.seed).into_bytes(),
        };
        Built { store, grid, sim, cities, gateways, parties, sat_party, city_party, cfg }
    }

    /// The ownership map over `n` items for the configured split.
    fn owner_map(&self, n: usize) -> Vec<usize> {
        let p = self.n_parties;
        match self.ownership {
            Ownership::RoundRobin => (0..n).map(|i| i % p).collect(),
            Ownership::Blocks => (0..n).map(|i| (i * p / n.max(1)).min(p - 1)).collect(),
            Ownership::Shuffled => {
                let mut map: Vec<usize> = (0..n).map(|i| i % p).collect();
                map.shuffle(&mut run_rng(self.seed, seeds::STREAM_OWNERSHIP));
                map
            }
        }
    }
}

/// Sample a churn schedule: a handful of disturbance windows (satellite
/// failure, party withdrawal, gateway outage, regional degradation), each
/// healing within the horizon with high probability, plus occasional
/// orphan heal events (which must be no-ops) and same-step fail/heal pairs
/// (zero-length windows) to stress event ordering.
fn generate_schedule(
    seed: u64,
    steps: usize,
    n_sats: usize,
    n_gateways: usize,
    n_parties: usize,
) -> ChurnSchedule {
    let mut rng = run_rng(seed, seeds::STREAM_SCHEDULE);
    let mut schedule = ChurnSchedule::new();
    // With probability ~0.4 force a fully-healing campaign: every window
    // closes strictly before the horizon so the recovery oracle has teeth.
    let heal_all = rng.gen_bool(0.4);
    let n_windows = rng.gen_range(0usize..9);
    for _ in 0..n_windows {
        let t0 = rng.gen_range(0..steps);
        // Zero-length windows (heal in the same step) are deliberately
        // reachable: t1 == t0.
        let t1 = if heal_all || rng.gen_bool(0.7) { Some(rng.gen_range(t0..steps)) } else { None };
        match rng.gen_range(0u64..4) {
            0 => {
                let sat = rng.gen_range(0..n_sats);
                schedule = schedule.at(t0, ChurnEvent::SatFail { sat });
                if let Some(t1) = t1 {
                    schedule = schedule.at(t1, ChurnEvent::SatRecover { sat });
                }
            }
            1 if n_parties > 0 => {
                let party = rng.gen_range(0..n_parties);
                schedule = schedule.at(t0, ChurnEvent::PartyWithdraw { party });
                if let Some(t1) = t1 {
                    schedule = schedule.at(t1, ChurnEvent::PartyRejoin { party });
                }
            }
            2 if n_gateways > 0 => {
                let gateway = rng.gen_range(0..n_gateways);
                schedule = schedule.at(t0, ChurnEvent::GatewayOutage { gateway });
                if let Some(t1) = t1 {
                    schedule = schedule.at(t1, ChurnEvent::GatewayRestore { gateway });
                }
            }
            _ => {
                let lat0 = rng.gen_range(-60.0..50.0);
                let lon0 = rng.gen_range(-180.0..120.0);
                let (lat1, lon1) =
                    (lat0 + rng.gen_range(5.0..40.0), lon0 + rng.gen_range(5.0..60.0));
                let factor = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..1.0) };
                schedule = schedule.at(
                    t0,
                    ChurnEvent::RegionDegrade {
                        lat_min_deg: lat0,
                        lat_max_deg: lat1,
                        lon_min_deg: lon0,
                        lon_max_deg: lon1,
                        factor,
                    },
                );
                if let Some(t1) = t1 {
                    schedule = schedule.at(
                        t1,
                        ChurnEvent::RegionRestore {
                            lat_min_deg: lat0,
                            lat_max_deg: lat1,
                            lon_min_deg: lon0,
                            lon_max_deg: lon1,
                        },
                    );
                }
            }
        }
    }
    // Orphan heals: recovering something that never failed must be a no-op
    // everywhere downstream.
    if !heal_all && rng.gen_bool(0.3) {
        let t = rng.gen_range(0..steps);
        schedule = schedule.at(t, ChurnEvent::SatRecover { sat: rng.gen_range(0..n_sats) });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xF022, u64::MAX] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a, b, "seed {seed} generated two different scenarios");
        }
    }

    #[test]
    fn generated_scenarios_validate_and_roundtrip_json() {
        for seed in 0..50u64 {
            let sc = Scenario::generate(seed);
            assert!(sc.n_sats() >= 6 && sc.n_sats() <= 60, "seed {seed}: {} sats", sc.n_sats());
            assert!(sc.steps() >= 8, "seed {seed}: {} steps", sc.steps());
            sc.schedule
                .validate(sc.steps(), sc.n_sats(), sc.n_gateways(), sc.n_parties)
                .unwrap_or_else(|e| panic!("seed {seed}: invalid schedule: {e}"));
            let json = serde_json::to_string(&sc).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(back, sc, "seed {seed} JSON round-trip");
        }
    }

    #[test]
    fn seeds_vary_the_scenario() {
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        assert_ne!(a, b, "distinct seeds should not collide");
    }

    #[test]
    fn sanitize_drops_out_of_range_events_and_is_idempotent() {
        let mut sc = Scenario::generate(3);
        let steps = sc.steps();
        sc.schedule = sc
            .schedule
            .clone()
            .at(steps - 1, ChurnEvent::SatFail { sat: usize::MAX })
            .at(steps - 1, ChurnEvent::GatewayOutage { gateway: usize::MAX })
            .at(steps - 1, ChurnEvent::PartyWithdraw { party: usize::MAX });
        sc.sanitize();
        sc.schedule.validate(sc.steps(), sc.n_sats(), sc.n_gateways(), sc.n_parties).unwrap();
        let once = sc.clone();
        sc.sanitize();
        assert_eq!(sc, once, "sanitize must be idempotent");
    }

    #[test]
    fn build_matches_declared_dimensions() {
        let sc = Scenario::generate(11);
        let b = sc.build();
        assert_eq!(b.store.sat_count(), sc.n_sats());
        assert_eq!(b.store.steps(), sc.steps());
        assert_eq!(b.cities.len(), sc.cities.len());
        assert_eq!(b.gateways.len(), sc.n_gateways());
        assert_eq!(b.parties.len(), sc.n_parties);
        assert_eq!(b.sat_party.len(), sc.n_sats());
        assert_eq!(b.city_party.len(), sc.cities.len());
        assert!(b.sat_party.iter().chain(&b.city_party).all(|&p| p < sc.n_parties));
    }

    #[test]
    fn ownership_modes_cover_every_party_when_items_allow() {
        for ownership in [Ownership::RoundRobin, Ownership::Blocks, Ownership::Shuffled] {
            let mut sc = Scenario::generate(5);
            sc.ownership = ownership;
            sc.n_parties = 3;
            sc.sanitize();
            let map = sc.owner_map(12);
            for p in 0..3 {
                assert!(map.contains(&p), "{ownership:?} missed party {p}: {map:?}");
            }
        }
    }

    #[test]
    fn fully_heals_tracks_the_rolled_final_state() {
        let mut sc = Scenario::generate(9);
        sc.schedule = ChurnSchedule::new();
        assert!(sc.fully_heals(), "empty schedule is trivially healed");
        sc.schedule = ChurnSchedule::new().at(0, ChurnEvent::SatFail { sat: 0 });
        assert!(!sc.fully_heals());
        sc.schedule = ChurnSchedule::new()
            .at(0, ChurnEvent::SatFail { sat: 0 })
            .at(1, ChurnEvent::SatRecover { sat: 0 });
        assert!(sc.fully_heals());
        // Recover listed *before* fail at the same step: the sat stays down.
        sc.schedule = ChurnSchedule::new()
            .at(2, ChurnEvent::SatRecover { sat: 0 })
            .at(2, ChurnEvent::SatFail { sat: 0 });
        assert!(!sc.fully_heals(), "recover-before-fail leaves the sat failed");
    }
}
