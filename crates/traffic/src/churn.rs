//! Time-scheduled churn campaigns over the traffic engine.
//!
//! The paper argues a shared MP-LEO constellation degrades gracefully when
//! members leave or satellites fail; the static before/after snapshots in
//! `mpleo::failures` cannot show that because nothing fails *while* demand
//! is being allocated. A [`ChurnSchedule`] is a declarative list of timed
//! events — satellite hard-fail/recover, party withdrawal/rejoin, gateway
//! outage windows, regional link-budget degradation — applied between the
//! engine's steps: [`run_campaign`] rolls the schedule into a per-step
//! membership state, recomputes routing under the resulting
//! [`StepMask`]s, reruns the max-min allocation, and compares against the
//! undisturbed baseline to produce per-step graceful-degradation metrics
//! (served fraction vs. offered, per-party delta, reroute count,
//! time-to-recover). Withdrawals also flow to the settlement side: a
//! signed [`dcp::messages::WithdrawalNotice`] per event, and the withdrawn
//! party sits out the market for every epoch its absence touches, so the
//! cleared book stays zero-sum over the shrinking membership.
//!
//! Determinism contract: the schedule is rolled sequentially into
//! per-step states *before* any parallel work; each step's masked routing
//! and allocation is then a pure function of that precomputed state,
//! fanned out over `simrt` and collected in step order. Campaign reports
//! are therefore byte-identical at any thread count, like the engine
//! underneath (enforced by `tests/determinism_threads.rs`).

use crate::demand::DemandMatrix;
use crate::engine::{run_traffic_with_routes, TrafficConfig, TrafficReport};
use crate::graph::{RouteTable, StepMask, StepRoutes};
use crate::pipeline::{StepKernel, StepScratch};
use crate::market::{clear_market, epoch_orders, party_keys, summarize_epochs};
use dcp::crypto::KeyDirectory;
use dcp::messages::{MarketOrder, WithdrawalNotice};
use geodata::City;
use leosim::ephemeris::EphemerisStore;
use leosim::montecarlo::run_rng;
use leosim::visibility::SimConfig;
use mpleo::party::PartyId;
use orbital::ground::GroundSite;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A deficit at or below this (as a fraction of offered load) counts as
/// fully recovered. After a complete heal the masked steps clone the
/// baseline routes, so the deficit is exactly zero and this tolerance
/// only guards float noise in partially healed campaigns.
pub const RECOVERY_EPS: f64 = 1e-9;

/// One timed membership/topology event. Indices refer to the scenario the
/// campaign runs over: satellites are store rows, gateways and parties are
/// positions in the respective input slices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// Hard failure: the satellite can neither serve nor relay.
    SatFail {
        /// Store row of the failed satellite.
        sat: usize,
    },
    /// The satellite comes back (no-op if it never failed).
    SatRecover {
        /// Store row of the recovering satellite.
        sat: usize,
    },
    /// The party withdraws: its satellites leave the constellation and its
    /// sponsored cities stop offering demand.
    PartyWithdraw {
        /// Index into the campaign's party list.
        party: usize,
    },
    /// The party rejoins with its satellites and demand.
    PartyRejoin {
        /// Index into the campaign's party list.
        party: usize,
    },
    /// The gateway goes dark (backhaul cut, power loss, …).
    GatewayOutage {
        /// Index into the campaign's gateway list.
        gateway: usize,
    },
    /// The gateway comes back.
    GatewayRestore {
        /// Index into the campaign's gateway list.
        gateway: usize,
    },
    /// Regional link-budget degradation: every city inside the lat/lon box
    /// has its access capacity scaled by `factor` (weather, interference).
    RegionDegrade {
        /// Southern box edge, degrees.
        lat_min_deg: f64,
        /// Northern box edge, degrees.
        lat_max_deg: f64,
        /// Western box edge, degrees.
        lon_min_deg: f64,
        /// Eastern box edge, degrees.
        lon_max_deg: f64,
        /// Multiplier on access capacity, `[0, 1]` (0 = total outage).
        factor: f64,
    },
    /// Clears the degradation factor (back to 1.0) inside the box.
    RegionRestore {
        /// Southern box edge, degrees.
        lat_min_deg: f64,
        /// Northern box edge, degrees.
        lat_max_deg: f64,
        /// Western box edge, degrees.
        lon_min_deg: f64,
        /// Eastern box edge, degrees.
        lon_max_deg: f64,
    },
}

/// A declarative campaign: `(step, event)` pairs. Events fire at the
/// *start* of their step, in list order within a step, so a schedule is a
/// complete, reproducible description of the campaign — there is no
/// hidden randomness at run time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    /// The timed events.
    pub events: Vec<(usize, ChurnEvent)>,
}

/// Deterministic failure set: the first `round(fraction * n)` entries of a
/// seeded permutation of `0..n_sats`, sorted. Sets drawn at increasing
/// fractions of the same seed are nested, which keeps churn-rate sweeps
/// monotone by construction.
pub fn sample_failures(seed: u64, n_sats: usize, fraction: f64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    let mut order: Vec<usize> = (0..n_sats).collect();
    order.shuffle(&mut run_rng(seed, 0));
    let k = ((fraction * n_sats as f64).round() as usize).min(n_sats);
    let mut chosen = order[..k].to_vec();
    chosen.sort_unstable();
    chosen
}

impl ChurnSchedule {
    /// An empty schedule (a campaign over it reproduces the baseline).
    pub fn new() -> ChurnSchedule {
        ChurnSchedule::default()
    }

    /// Builder: append one event at `step`.
    pub fn at(mut self, step: usize, event: ChurnEvent) -> ChurnSchedule {
        self.events.push((step, event));
        self
    }

    /// Builder: hard-fail a seeded `fraction` of `n_sats` at `fail_step`,
    /// recovering them all at `recover_step` if given (see
    /// [`sample_failures`] for the nesting guarantee).
    pub fn fail_random_sats(
        mut self,
        seed: u64,
        n_sats: usize,
        fraction: f64,
        fail_step: usize,
        recover_step: Option<usize>,
    ) -> ChurnSchedule {
        for sat in sample_failures(seed, n_sats, fraction) {
            self.events.push((fail_step, ChurnEvent::SatFail { sat }));
            if let Some(r) = recover_step {
                self.events.push((r, ChurnEvent::SatRecover { sat }));
            }
        }
        self
    }

    /// The step of the last scheduled event (`None` when empty).
    pub fn last_event_step(&self) -> Option<usize> {
        self.events.iter().map(|(k, _)| *k).max()
    }

    /// Check every event against the scenario's dimensions.
    pub fn validate(
        &self,
        steps: usize,
        n_sats: usize,
        n_gateways: usize,
        n_parties: usize,
    ) -> Result<(), String> {
        for (step, event) in &self.events {
            if *step >= steps {
                return Err(format!("event at step {step} beyond horizon of {steps} steps"));
            }
            match event {
                ChurnEvent::SatFail { sat } | ChurnEvent::SatRecover { sat } => {
                    if *sat >= n_sats {
                        return Err(format!("satellite {sat} out of range ({n_sats})"));
                    }
                }
                ChurnEvent::PartyWithdraw { party } | ChurnEvent::PartyRejoin { party } => {
                    if *party >= n_parties {
                        return Err(format!("party {party} out of range ({n_parties})"));
                    }
                }
                ChurnEvent::GatewayOutage { gateway } | ChurnEvent::GatewayRestore { gateway } => {
                    if *gateway >= n_gateways {
                        return Err(format!("gateway {gateway} out of range ({n_gateways})"));
                    }
                }
                ChurnEvent::RegionDegrade { factor, .. } => {
                    if !(0.0..=1.0).contains(factor) {
                        return Err(format!("degradation factor {factor} outside [0, 1]"));
                    }
                }
                ChurnEvent::RegionRestore { .. } => {}
            }
        }
        Ok(())
    }
}

/// The membership/availability state in force during one step.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnState {
    /// Hard-failed satellites (store row order).
    pub sat_failed: Vec<bool>,
    /// Gateways currently dark.
    pub gateway_down: Vec<bool>,
    /// Parties currently withdrawn.
    pub party_withdrawn: Vec<bool>,
    /// Per-city access-capacity factor from regional degradation.
    pub city_factor: Vec<f64>,
}

impl ChurnState {
    fn nominal(n_sats: usize, n_gateways: usize, n_parties: usize, n_cities: usize) -> ChurnState {
        ChurnState {
            sat_failed: vec![false; n_sats],
            gateway_down: vec![false; n_gateways],
            party_withdrawn: vec![false; n_parties],
            city_factor: vec![1.0; n_cities],
        }
    }

    /// Whether this state changes nothing relative to the baseline.
    pub fn is_nominal(&self) -> bool {
        !self.sat_failed.iter().any(|&v| v)
            && !self.gateway_down.iter().any(|&v| v)
            && !self.party_withdrawn.iter().any(|&v| v)
            && self.city_factor.iter().all(|&f| f == 1.0)
    }

    /// Satellites out of service: hard-failed or owned by a withdrawn
    /// party.
    pub fn down_sats(&self, sat_party: &[usize]) -> usize {
        (0..self.sat_failed.len())
            .filter(|&s| self.sat_failed[s] || self.party_withdrawn[sat_party[s]])
            .count()
    }

    fn apply(&mut self, event: &ChurnEvent, cities: &[City]) {
        let in_box = |c: &City, lat0: f64, lat1: f64, lon0: f64, lon1: f64| {
            c.lat_deg >= lat0 && c.lat_deg <= lat1 && c.lon_deg >= lon0 && c.lon_deg <= lon1
        };
        match event {
            ChurnEvent::SatFail { sat } => self.sat_failed[*sat] = true,
            ChurnEvent::SatRecover { sat } => self.sat_failed[*sat] = false,
            ChurnEvent::PartyWithdraw { party } => self.party_withdrawn[*party] = true,
            ChurnEvent::PartyRejoin { party } => self.party_withdrawn[*party] = false,
            ChurnEvent::GatewayOutage { gateway } => self.gateway_down[*gateway] = true,
            ChurnEvent::GatewayRestore { gateway } => self.gateway_down[*gateway] = false,
            ChurnEvent::RegionDegrade {
                lat_min_deg,
                lat_max_deg,
                lon_min_deg,
                lon_max_deg,
                factor,
            } => {
                for (c, city) in cities.iter().enumerate() {
                    if in_box(city, *lat_min_deg, *lat_max_deg, *lon_min_deg, *lon_max_deg) {
                        self.city_factor[c] = factor.clamp(0.0, 1.0);
                    }
                }
            }
            ChurnEvent::RegionRestore { lat_min_deg, lat_max_deg, lon_min_deg, lon_max_deg } => {
                for (c, city) in cities.iter().enumerate() {
                    if in_box(city, *lat_min_deg, *lat_max_deg, *lon_min_deg, *lon_max_deg) {
                        self.city_factor[c] = 1.0;
                    }
                }
            }
        }
    }
}

/// Roll the schedule into one state snapshot per step (strictly
/// sequential; this is the only stateful part of a campaign and it runs
/// before any parallel work).
pub fn roll_states(
    schedule: &ChurnSchedule,
    steps: usize,
    n_sats: usize,
    n_gateways: usize,
    n_parties: usize,
    cities: &[City],
) -> Vec<ChurnState> {
    let mut state = ChurnState::nominal(n_sats, n_gateways, n_parties, cities.len());
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps {
        for (step, event) in &schedule.events {
            if *step == k {
                state.apply(event, cities);
            }
        }
        out.push(state.clone());
    }
    out
}

/// Campaign parameters: the traffic engine's own configuration plus the
/// schedule and the settlement knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Demand/routing/capacity parameters shared with the plain engine.
    pub traffic: TrafficConfig,
    /// The timed events.
    pub schedule: ChurnSchedule,
    /// Market epoch length, grid steps.
    pub epoch_steps: usize,
    /// Base capacity price, credits per Mbps-epoch.
    pub base_price: f64,
    /// Seed material for the parties' derived signing keys.
    pub key_seed: Vec<u8>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            traffic: TrafficConfig::default(),
            schedule: ChurnSchedule::default(),
            epoch_steps: 36,
            base_price: 1.0,
            key_seed: b"churn-campaign".to_vec(),
        }
    }
}

/// What a campaign produced: the disturbed and undisturbed engine runs,
/// the per-step graceful-degradation series derived from them, and the
/// settlement artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The engine run under churn.
    pub churn: TrafficReport,
    /// The undisturbed run over the same scenario.
    pub baseline: TrafficReport,
    /// Served / offered per step under churn (1.0 when nothing offered).
    pub served_fraction: Vec<f64>,
    /// Served / offered per step in the baseline.
    pub baseline_fraction: Vec<f64>,
    /// `max(baseline_fraction - served_fraction, 0)` per step.
    pub deficit_fraction: Vec<f64>,
    /// Cities whose (satellite, gateway) differs from the baseline route
    /// while still offering demand, per step.
    pub reroutes: Vec<usize>,
    /// Satellites out of service (failed or withdrawn) per step.
    pub down_sats: Vec<usize>,
    /// Gateways dark per step.
    pub down_gateways: Vec<usize>,
    /// Parties withdrawn per step.
    pub withdrawn_parties: Vec<usize>,
    /// Served delta (churn − baseline) per party per step, Mbps,
    /// `[party * steps + k]`.
    pub party_served_delta: Vec<f64>,
    /// One signed notice per `PartyWithdraw` event, schedule order.
    pub notices: Vec<WithdrawalNotice>,
    /// The signed order flow of the churn run's market epochs.
    pub orders: Vec<MarketOrder>,
    /// Net credit transfer per party after clearing (sums to zero).
    pub settlement: BTreeMap<String, f64>,
    /// Trades executed by the book.
    pub trades: usize,
    /// Step of the last scheduled event.
    pub last_event_step: Option<usize>,
    /// Steps from the last event until the deficit first drops to
    /// [`RECOVERY_EPS`] (`None`: never recovered within the horizon).
    pub time_to_recover_steps: Option<usize>,
}

impl CampaignReport {
    /// Worst per-step deficit fraction over the campaign.
    pub fn worst_deficit(&self) -> f64 {
        self.deficit_fraction.iter().fold(0.0, |a, &d| a.max(d))
    }

    /// Mean per-step deficit fraction.
    pub fn mean_deficit(&self) -> f64 {
        if self.deficit_fraction.is_empty() {
            return 0.0;
        }
        self.deficit_fraction.iter().sum::<f64>() / self.deficit_fraction.len() as f64
    }

    /// Total reroutes over the campaign.
    pub fn reroutes_total(&self) -> usize {
        self.reroutes.iter().sum()
    }

    /// Net settlement over every party (zero for a sound market).
    pub fn settlement_net(&self) -> f64 {
        self.settlement.values().sum()
    }

    /// Whether the campaign returned to baseline service (trivially true
    /// for an empty schedule).
    pub fn recovered(&self) -> bool {
        self.last_event_step.is_none() || self.time_to_recover_steps.is_some()
    }

    /// Mean served delta (churn − baseline) of party `p`, Mbps.
    pub fn party_delta_mean(&self, p: usize) -> f64 {
        let steps = self.churn.steps.max(1);
        self.party_served_delta[p * self.churn.steps..(p + 1) * self.churn.steps]
            .iter()
            .sum::<f64>()
            / steps as f64
    }
}

/// Run a churn campaign end to end: generate demand, build the baseline
/// route table, and hand off to [`run_campaign_with_routes`]. Party maps
/// follow [`run_traffic`](crate::engine::run_traffic): `sat_party[s]`
/// owns store row `s`, `city_party[c]` sponsors city `c`.
#[allow(clippy::too_many_arguments)] // scene + config + the three party maps
pub fn run_campaign(
    store: &EphemerisStore,
    cities: &[City],
    gateways: &[GroundSite],
    sim: &SimConfig,
    cfg: &CampaignConfig,
    sat_party: &[usize],
    city_party: &[usize],
    parties: &[PartyId],
) -> CampaignReport {
    let sites: Vec<GroundSite> = cities.iter().map(|c| c.site()).collect();
    let demand = cfg.traffic.demand_matrix(cities, &store.grid);
    let routes = RouteTable::build(store, &sites, gateways, sim, &cfg.traffic.graph);
    run_campaign_with_routes(
        store, cities, gateways, sim, &demand, &routes, cfg, sat_party, city_party, parties,
    )
}

/// [`run_campaign`] over a precomputed (already scaled) demand matrix and
/// baseline route table, so sweeps reuse the expensive routing pass. The
/// baseline table must have been built over the same store, sites,
/// gateways, `sim`, and `cfg.traffic.graph` — nominal steps reuse its
/// snapshots verbatim.
#[allow(clippy::too_many_arguments)] // scene + config + the three party maps
pub fn run_campaign_with_routes(
    store: &EphemerisStore,
    cities: &[City],
    gateways: &[GroundSite],
    sim: &SimConfig,
    demand: &DemandMatrix,
    baseline_routes: &RouteTable,
    cfg: &CampaignConfig,
    sat_party: &[usize],
    city_party: &[usize],
    parties: &[PartyId],
) -> CampaignReport {
    let steps = demand.steps;
    let n_cities = cities.len();
    let n_sats = store.sat_count();
    assert_eq!(sat_party.len(), n_sats, "one owner per satellite");
    assert_eq!(city_party.len(), n_cities, "one sponsor per city");
    assert!(sat_party.iter().chain(city_party.iter()).all(|&p| p < parties.len()));
    assert_eq!(baseline_routes.steps.len(), steps, "route table covers the demand grid");
    if let Err(e) = cfg.schedule.validate(steps, n_sats, gateways.len(), parties.len()) {
        panic!("invalid churn schedule: {e}");
    }

    // Sequential prologue: roll the schedule into per-step states and
    // derive the routing masks (None = nominal, reuse the baseline step).
    let states = roll_states(&cfg.schedule, steps, n_sats, gateways.len(), parties.len(), cities);
    let masks: Vec<Option<StepMask>> = states
        .iter()
        .map(|st| {
            if st.is_nominal() {
                return None;
            }
            Some(StepMask {
                sat_ok: (0..n_sats)
                    .map(|s| !st.sat_failed[s] && !st.party_withdrawn[sat_party[s]])
                    .collect(),
                gateway_ok: st.gateway_down.iter().map(|&d| !d).collect(),
                terminal_factor: st.city_factor.clone(),
            })
        })
        .collect();

    // Withdrawn sponsors stop offering demand from their step on.
    let mut churn_demand = demand.clone();
    for (c, &party) in city_party.iter().enumerate().take(n_cities) {
        for (k, st) in states.iter().enumerate() {
            if st.party_withdrawn[party] {
                churn_demand.offered_mbps[c * steps + k] = 0.0;
            }
        }
    }

    // Parallel: recompute only the disturbed steps' routes, through the
    // same step kernel as the baseline build.
    let sites: Vec<GroundSite> = cities.iter().map(|c| c.site()).collect();
    let kernel = StepKernel::new(store, &sites, gateways, sim, &cfg.traffic.graph);
    let churn_steps: Vec<StepRoutes> = simrt::par_map_indexed(steps, 0, |k| match &masks[k] {
        None => baseline_routes.steps[k].clone(),
        Some(m) => kernel.routes(&mut StepScratch::default(), k, Some(m)),
    });
    let churn_routes = RouteTable {
        steps: churn_steps,
        terminals: baseline_routes.terminals.clone(),
        gateways: baseline_routes.gateways.clone(),
    };

    let churn = run_traffic_with_routes(
        &churn_demand,
        &churn_routes,
        &cfg.traffic,
        sat_party,
        city_party,
        parties,
    );
    let baseline = run_traffic_with_routes(
        demand,
        baseline_routes,
        &cfg.traffic,
        sat_party,
        city_party,
        parties,
    );

    // Graceful-degradation series (sequential, fixed step order).
    let fraction = |offered: f64, served: f64| if offered > 0.0 { served / offered } else { 1.0 };
    let served_fraction: Vec<f64> = (0..steps)
        .map(|k| fraction(churn.total_offered_steps[k], churn.total_served_steps[k]))
        .collect();
    let baseline_fraction: Vec<f64> = (0..steps)
        .map(|k| fraction(baseline.total_offered_steps[k], baseline.total_served_steps[k]))
        .collect();
    let deficit_fraction: Vec<f64> =
        (0..steps).map(|k| (baseline_fraction[k] - served_fraction[k]).max(0.0)).collect();
    let reroutes: Vec<usize> = (0..steps)
        .map(|k| {
            (0..n_cities)
                .filter(|&c| {
                    let pair =
                        |r: &Option<crate::graph::Route>| r.as_ref().map(|r| (r.sat, r.gateway));
                    churn_demand.offered(c, k) > 0.0
                        && pair(&churn_routes.steps[k].routes[c])
                            != pair(&baseline_routes.steps[k].routes[c])
                })
                .count()
        })
        .collect();
    let down_sats: Vec<usize> = states.iter().map(|st| st.down_sats(sat_party)).collect();
    let down_gateways: Vec<usize> =
        states.iter().map(|st| st.gateway_down.iter().filter(|&&d| d).count()).collect();
    let withdrawn_parties: Vec<usize> =
        states.iter().map(|st| st.party_withdrawn.iter().filter(|&&w| w).count()).collect();
    let party_served_delta: Vec<f64> =
        churn.party_served.iter().zip(&baseline.party_served).map(|(c, b)| c - b).collect();

    // Settlement side: a signed notice per withdrawal, and the market run
    // over the churn report with withdrawn parties censored out of every
    // epoch their absence touches.
    let keys = party_keys(parties, &cfg.key_seed);
    let notices = withdrawal_notices(&cfg.schedule, demand.step_s, sat_party, parties, &keys);
    let mut summaries = summarize_epochs(&churn, cfg.epoch_steps);
    for summary in &mut summaries {
        for (p, pe) in summary.per_party.iter_mut().enumerate() {
            let mut span = summary.start_step..summary.start_step + summary.steps;
            if span.any(|k| states[k].party_withdrawn[p]) {
                pe.offered_mbps = 0.0;
                pe.served_mbps = 0.0;
                pe.carried_mbps = 0.0;
                pe.spare_mbps = 0.0;
            }
        }
    }
    let orders = epoch_orders(&summaries, &keys, cfg.base_price);
    let book = clear_market(&orders);
    let settlement = book.settlement();
    let trades = book.trades().len();

    let last_event_step = cfg.schedule.last_event_step();
    let time_to_recover_steps = last_event_step
        .and_then(|t| (t..steps).find(|&k| deficit_fraction[k] <= RECOVERY_EPS).map(|k| k - t));

    CampaignReport {
        churn,
        baseline,
        served_fraction,
        baseline_fraction,
        deficit_fraction,
        reroutes,
        down_sats,
        down_gateways,
        withdrawn_parties,
        party_served_delta,
        notices,
        orders,
        settlement,
        trades,
        last_event_step,
        time_to_recover_steps,
    }
}

/// One signed [`WithdrawalNotice`] per `PartyWithdraw` event, in schedule
/// order: the party announces which store rows leave and when.
fn withdrawal_notices(
    schedule: &ChurnSchedule,
    step_s: f64,
    sat_party: &[usize],
    parties: &[PartyId],
    keys: &KeyDirectory,
) -> Vec<WithdrawalNotice> {
    let mut notices = Vec::new();
    for (step, event) in &schedule.events {
        let ChurnEvent::PartyWithdraw { party } = event else {
            continue;
        };
        let sat_ids: Vec<u32> = sat_party
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == *party)
            .map(|(s, _)| s as u32)
            .collect();
        let effective_s = *step as f64 * step_s;
        let name = &parties[*party].0;
        let bytes = WithdrawalNotice::signing_bytes(name, &sat_ids, effective_s);
        let signature = keys.sign(name, &bytes).expect("campaign parties are registered");
        notices.push(WithdrawalNotice { party: name.clone(), sat_ids, effective_s, signature });
    }
    notices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::gateways_every_nth;
    use geodata::paper_cities;
    use leosim::TimeGrid;
    use orbital::constellation::{walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn scenario() -> (EphemerisStore, Vec<City>, Vec<GroundSite>) {
        let spec = ShellSpec { planes: 6, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 4.0 * 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let cities = paper_cities();
        let gateways = gateways_every_nth(&cities, 3);
        (store, cities, gateways)
    }

    fn owners(n_sats: usize, n_cities: usize, n_parties: usize) -> (Vec<usize>, Vec<usize>) {
        (
            (0..n_sats).map(|s| s % n_parties).collect(),
            (0..n_cities).map(|c| c % n_parties).collect(),
        )
    }

    fn run(cfg: &CampaignConfig) -> CampaignReport {
        let (store, cities, gateways) = scenario();
        let parties: Vec<PartyId> = ["alpha", "beta", "gamma"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 3);
        run_campaign(
            &store,
            &cities,
            &gateways,
            &SimConfig::default(),
            cfg,
            &sat_party,
            &city_party,
            &parties,
        )
    }

    #[test]
    fn empty_schedule_reproduces_the_baseline() {
        let report = run(&CampaignConfig::default());
        for (c, b) in
            report.churn.total_served_steps.iter().zip(&report.baseline.total_served_steps)
        {
            assert_eq!(c.to_bits(), b.to_bits(), "empty campaign must match baseline");
        }
        assert!(report.deficit_fraction.iter().all(|&d| d == 0.0));
        assert_eq!(report.reroutes_total(), 0);
        assert!(report.recovered());
        assert!(report.notices.is_empty());
    }

    #[test]
    fn total_blackout_serves_nothing_then_recovers() {
        let (store, cities, gateways) = scenario();
        let n = store.sat_count();
        let steps = store.steps();
        let mut schedule = ChurnSchedule::new();
        for sat in 0..n {
            schedule = schedule
                .at(steps / 4, ChurnEvent::SatFail { sat })
                .at(steps / 2, ChurnEvent::SatRecover { sat });
        }
        let cfg = CampaignConfig { schedule, ..CampaignConfig::default() };
        let parties: Vec<PartyId> = ["alpha", "beta", "gamma"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(n, cities.len(), 3);
        let report = run_campaign(
            &store,
            &cities,
            &gateways,
            &SimConfig::default(),
            &cfg,
            &sat_party,
            &city_party,
            &parties,
        );
        for k in steps / 4..steps / 2 {
            assert_eq!(report.churn.total_served_steps[k], 0.0, "blackout step {k} served");
            assert_eq!(report.down_sats[k], n);
        }
        for k in steps / 2..steps {
            assert_eq!(report.deficit_fraction[k], 0.0, "post-heal step {k} off baseline");
        }
        assert_eq!(report.time_to_recover_steps, Some(0), "heal was the last event");
        assert!(report.worst_deficit() > 0.0, "a blackout must show a deficit");
    }

    #[test]
    fn withdrawal_zeroes_demand_and_emits_a_signed_notice() {
        let (store, cities, gateways) = scenario();
        let steps = store.steps();
        let schedule = ChurnSchedule::new().at(steps / 3, ChurnEvent::PartyWithdraw { party: 1 });
        let cfg = CampaignConfig { schedule, ..CampaignConfig::default() };
        let parties: Vec<PartyId> = ["alpha", "beta", "gamma"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 3);
        let report = run_campaign(
            &store,
            &cities,
            &gateways,
            &SimConfig::default(),
            &cfg,
            &sat_party,
            &city_party,
            &parties,
        );
        for k in steps / 3..steps {
            assert_eq!(report.churn.party_offered[store.steps() + k], 0.0, "beta offered at {k}");
            assert_eq!(report.withdrawn_parties[k], 1);
        }
        assert_eq!(report.notices.len(), 1);
        let n = &report.notices[0];
        assert_eq!(n.party, "beta");
        assert_eq!(n.sat_ids.len(), sat_party.iter().filter(|&&p| p == 1).count());
        let keys = party_keys(&parties, &cfg.key_seed);
        let bytes = WithdrawalNotice::signing_bytes(&n.party, &n.sat_ids, n.effective_s);
        assert!(keys.verify(&n.party, &bytes, &n.signature), "notice signature");
        // A withdrawn party places no orders after its exit epoch starts.
        let exit_epoch = (steps / 3) / cfg.epoch_steps;
        for o in &report.orders {
            if o.party == "beta" {
                assert!(
                    (o.sequence / 2 / parties.len() as u64) < exit_epoch as u64,
                    "withdrawn party ordered in epoch {}",
                    o.sequence / 2 / parties.len() as u64
                );
            }
        }
        assert!(report.settlement_net().abs() < 1e-9, "settlement must stay zero-sum");
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let (store, cities, gateways) = scenario();
        let n = store.sat_count();
        let steps = store.steps();
        let schedule = ChurnSchedule::new()
            .fail_random_sats(0xC0FE, n, 0.25, steps / 4, Some(3 * steps / 4))
            .at(steps / 3, ChurnEvent::PartyWithdraw { party: 2 })
            .at(2 * steps / 3, ChurnEvent::PartyRejoin { party: 2 });
        let cfg = CampaignConfig { schedule, ..CampaignConfig::default() };
        let parties: Vec<PartyId> = ["alpha", "beta", "gamma"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(n, cities.len(), 3);
        let run = || {
            run_campaign(
                &store,
                &cities,
                &gateways,
                &SimConfig::default(),
                &cfg,
                &sat_party,
                &city_party,
                &parties,
            )
        };
        let a = run();
        let b = simrt::with_thread_cap(1, run);
        let c = simrt::with_thread_cap(4, run);
        for r in [&b, &c] {
            for (x, y) in a.served_fraction.iter().zip(&r.served_fraction) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.reroutes, r.reroutes);
            assert_eq!(a.orders, r.orders);
            assert_eq!(a.notices, r.notices);
        }
    }

    #[test]
    fn gateway_outage_and_region_degradation_bite_and_heal() {
        let (store, cities, _) = scenario();
        let steps = store.steps();
        // A single colocated gateway so the outage is total.
        let gateways = gateways_every_nth(&cities, cities.len());
        let schedule = ChurnSchedule::new()
            .at(2, ChurnEvent::GatewayOutage { gateway: 0 })
            .at(5, ChurnEvent::GatewayRestore { gateway: 0 })
            .at(
                8,
                ChurnEvent::RegionDegrade {
                    lat_min_deg: -90.0,
                    lat_max_deg: 90.0,
                    lon_min_deg: -180.0,
                    lon_max_deg: 180.0,
                    factor: 0.0,
                },
            )
            .at(
                11,
                ChurnEvent::RegionRestore {
                    lat_min_deg: -90.0,
                    lat_max_deg: 90.0,
                    lon_min_deg: -180.0,
                    lon_max_deg: 180.0,
                },
            );
        let cfg = CampaignConfig { schedule, ..CampaignConfig::default() };
        let parties: Vec<PartyId> = ["solo"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 1);
        let report = run_campaign(
            &store,
            &cities,
            &gateways,
            &SimConfig::default(),
            &cfg,
            &sat_party,
            &city_party,
            &parties,
        );
        for k in 2..5 {
            assert_eq!(report.churn.total_served_steps[k], 0.0, "gateway outage step {k}");
        }
        for k in 8..11 {
            assert_eq!(report.churn.total_served_steps[k], 0.0, "degraded-to-zero step {k}");
        }
        for k in 11..steps {
            assert_eq!(report.deficit_fraction[k], 0.0, "post-restore step {k}");
        }
        assert!(report.recovered());
    }

    #[test]
    fn failure_samples_are_nested_across_fractions() {
        let small = sample_failures(7, 100, 0.1);
        let large = sample_failures(7, 100, 0.4);
        assert_eq!(small.len(), 10);
        assert_eq!(large.len(), 40);
        assert!(small.iter().all(|s| large.contains(s)), "sets must be nested");
        // Different seeds draw different sets.
        assert_ne!(sample_failures(8, 100, 0.1), small);
    }

    #[test]
    fn schedule_validation_rejects_out_of_range_events() {
        let steps = 10;
        let bad_step = ChurnSchedule::new().at(10, ChurnEvent::SatFail { sat: 0 });
        assert!(bad_step.validate(steps, 5, 2, 2).is_err());
        let bad_sat = ChurnSchedule::new().at(0, ChurnEvent::SatFail { sat: 5 });
        assert!(bad_sat.validate(steps, 5, 2, 2).is_err());
        let bad_party = ChurnSchedule::new().at(0, ChurnEvent::PartyWithdraw { party: 2 });
        assert!(bad_party.validate(steps, 5, 2, 2).is_err());
        let bad_gw = ChurnSchedule::new().at(0, ChurnEvent::GatewayOutage { gateway: 2 });
        assert!(bad_gw.validate(steps, 5, 2, 2).is_err());
        let bad_factor = ChurnSchedule::new().at(
            0,
            ChurnEvent::RegionDegrade {
                lat_min_deg: 0.0,
                lat_max_deg: 1.0,
                lon_min_deg: 0.0,
                lon_max_deg: 1.0,
                factor: 1.5,
            },
        );
        assert!(bad_factor.validate(steps, 5, 2, 2).is_err());
        let ok = ChurnSchedule::new().at(9, ChurnEvent::SatRecover { sat: 4 });
        assert!(ok.validate(steps, 5, 2, 2).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One satellite fail/recover event for the rolled-state model:
    /// `(step, sat, is_fail)`.
    fn arb_sat_events(
        steps: usize,
        n_sats: usize,
    ) -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
        prop::collection::vec((0..steps, 0..n_sats, any::<bool>()), 0..24)
    }

    fn schedule_of(events: &[(usize, usize, bool)]) -> ChurnSchedule {
        let mut schedule = ChurnSchedule::new();
        for &(step, sat, is_fail) in events {
            let event =
                if is_fail { ChurnEvent::SatFail { sat } } else { ChurnEvent::SatRecover { sat } };
            schedule = schedule.at(step, event);
        }
        schedule
    }

    /// The mask a campaign derives from one rolled state (mirrors
    /// `run_campaign_with_routes`): `None` on nominal steps, else per-item
    /// availability.
    fn mask_of(state: &ChurnState, sat_party: &[usize]) -> Option<StepMask> {
        if state.is_nominal() {
            return None;
        }
        Some(StepMask {
            sat_ok: (0..state.sat_failed.len())
                .map(|s| !state.sat_failed[s] && !state.party_withdrawn[sat_party[s]])
                .collect(),
            gateway_ok: state.gateway_down.iter().map(|&d| !d).collect(),
            terminal_factor: state.city_factor.clone(),
        })
    }

    proptest! {
        /// A zero-length outage window — fail and recover at the same
        /// step, fail listed first — is invisible: events fire in list
        /// order at the start of the step, so every rolled state stays
        /// nominal and no step ever gets a mask.
        #[test]
        fn zero_length_window_is_invisible(
            steps in 1usize..40,
            step_frac in 0.0f64..1.0,
            sat in 0usize..12,
        ) {
            let k = ((steps - 1) as f64 * step_frac) as usize;
            let schedule = ChurnSchedule::new()
                .at(k, ChurnEvent::SatFail { sat })
                .at(k, ChurnEvent::SatRecover { sat });
            let states = roll_states(&schedule, steps, 12, 1, 1, &[]);
            let sat_party = vec![0usize; 12];
            for (j, state) in states.iter().enumerate() {
                prop_assert!(state.is_nominal(), "step {j} disturbed by a zero-length window");
                prop_assert!(mask_of(state, &sat_party).is_none());
            }
        }

        /// Recover listed *before* fail at the same step leaves the
        /// satellite down from that step to the horizon — within-step list
        /// order is semantic, not cosmetic.
        #[test]
        fn recover_before_fail_leaves_the_sat_down(
            steps in 1usize..40,
            step_frac in 0.0f64..1.0,
            sat in 0usize..12,
        ) {
            let k = ((steps - 1) as f64 * step_frac) as usize;
            let schedule = ChurnSchedule::new()
                .at(k, ChurnEvent::SatRecover { sat })
                .at(k, ChurnEvent::SatFail { sat });
            let states = roll_states(&schedule, steps, 12, 1, 1, &[]);
            let sat_party = vec![0usize; 12];
            for (j, state) in states.iter().enumerate() {
                prop_assert_eq!(state.sat_failed[sat], j >= k, "step {}", j);
                match mask_of(state, &sat_party) {
                    Some(mask) => {
                        prop_assert!(j >= k);
                        prop_assert!(!mask.sat_ok[sat]);
                        prop_assert!(mask.sat_ok.iter().filter(|&&ok| !ok).count() == 1);
                    }
                    None => prop_assert!(j < k),
                }
            }
        }

        /// Arbitrary overlapping fail/recover windows reduce to
        /// last-event-wins per satellite: at step `k` the satellite is down
        /// iff the latest event at or before `k` — ordered by (step, list
        /// position) — touching it is a `SatFail`. Pins the boolean-flag
        /// semantics (a recover inside an overlapping window clears the
        /// flag for *all* windows).
        #[test]
        fn overlapping_windows_follow_last_event_wins(
            (steps, events) in (2usize..30).prop_flat_map(|steps| {
                (Just(steps), arb_sat_events(steps, 6))
            }),
        ) {
            let schedule = schedule_of(&events);
            let states = roll_states(&schedule, steps, 6, 1, 1, &[]);
            for k in 0..steps {
                for sat in 0..6 {
                    let expected = events
                        .iter()
                        .enumerate()
                        .filter(|&(_, &(step, s, _))| step <= k && s == sat)
                        .max_by_key(|&(idx, &(step, _, _))| (step, idx))
                        .is_some_and(|(_, &(_, _, is_fail))| is_fail);
                    prop_assert_eq!(
                        states[k].sat_failed[sat],
                        expected,
                        "step {} sat {}",
                        k,
                        sat
                    );
                }
            }
        }

        /// The mask derivation is exact: a step gets `None` iff its rolled
        /// state is nominal, and a present mask marks a satellite usable
        /// iff it is neither failed nor owned by a withdrawn party.
        #[test]
        fn masks_match_rolled_states_exactly(
            (steps, events) in (2usize..24).prop_flat_map(|steps| {
                (Just(steps), arb_sat_events(steps, 6))
            }),
            withdraw_step_frac in 0.0f64..1.0,
            with_withdrawal in any::<bool>(),
        ) {
            let mut schedule = schedule_of(&events);
            if with_withdrawal {
                let k = ((steps - 1) as f64 * withdraw_step_frac) as usize;
                schedule = schedule.at(k, ChurnEvent::PartyWithdraw { party: 1 });
            }
            let sat_party: Vec<usize> = (0..6).map(|s| s % 2).collect();
            let states = roll_states(&schedule, steps, 6, 2, 2, &[]);
            for state in &states {
                match mask_of(state, &sat_party) {
                    None => prop_assert!(state.is_nominal()),
                    Some(mask) => {
                        prop_assert!(!state.is_nominal());
                        prop_assert!(!mask.is_nominal());
                        for s in 0..6 {
                            let usable = !state.sat_failed[s]
                                && !state.party_withdrawn[sat_party[s]];
                            prop_assert_eq!(mask.sat_ok[s], usable);
                        }
                    }
                }
            }
        }
    }
}
