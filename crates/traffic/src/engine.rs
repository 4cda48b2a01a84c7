//! The traffic engine driver: demand → routes → allocation → report.
//!
//! [`run_traffic`] generates the demand matrix, builds the per-step route
//! table over a prebuilt ephemeris, fans the max-min-fair allocation out
//! over `simrt` (one independent job per step, collected in step order),
//! and aggregates the results into a [`TrafficReport`]: per-city and
//! per-party served/offered load, drop rate, and latency under load.
//!
//! Party accounting follows the paper's roles: a party *owns* satellites
//! (supply) and *sponsors* cities (demand). `carried` is the traffic a
//! party's satellites relayed for anyone; `spare` is the unused capacity of
//! its engaged satellites — the two quantities the capacity market prices.

use crate::allocate::{allocate_step, StepAllocation};
use crate::demand::{DemandConfig, DemandMatrix};
use crate::graph::{GraphConfig, RouteTable};
use geodata::City;
use leosim::ephemeris::EphemerisStore;
use leosim::latency::LatencySeries;
use leosim::visibility::SimConfig;
use leosim::TimeGrid;
use mpleo::party::PartyId;
use orbital::ground::GroundSite;
use serde::{Deserialize, Serialize};

/// Engine parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Demand model parameters.
    pub demand: DemandConfig,
    /// Routing parameters (ISL range/hops, channels per access link).
    pub graph: GraphConfig,
    /// Per-satellite throughput cap, Mbps.
    pub sat_capacity_mbps: f64,
    /// Per-gateway backhaul cap, Mbps.
    pub gateway_capacity_mbps: f64,
    /// Multiplier on every city's offered load (ablation knob).
    pub demand_scale: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            demand: DemandConfig::default(),
            graph: GraphConfig::default(),
            sat_capacity_mbps: 17_000.0,
            gateway_capacity_mbps: 40_000.0,
            demand_scale: 1.0,
        }
    }
}

impl TrafficConfig {
    /// The offered load this configuration puts on `cities` over `grid`:
    /// the generated diurnal matrix times `demand_scale` (left untouched at
    /// exactly 1.0, so the default reproduces [`DemandMatrix::generate`]
    /// bit for bit).
    pub fn demand_matrix(&self, cities: &[City], grid: &TimeGrid) -> DemandMatrix {
        assert!(self.demand_scale >= 0.0, "demand scale must be non-negative");
        let mut demand = DemandMatrix::generate(cities, grid, &self.demand);
        if self.demand_scale != 1.0 {
            for v in &mut demand.offered_mbps {
                *v *= self.demand_scale;
            }
        }
        demand
    }
}

/// Per-party traffic summary (horizon means, Mbps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartyTraffic {
    /// The party.
    pub party: PartyId,
    /// Mean offered load of the party's cities.
    pub offered_mbps: f64,
    /// Mean served load of the party's cities.
    pub served_mbps: f64,
    /// Mean traffic carried by the party's satellites (for anyone).
    pub carried_mbps: f64,
    /// Mean unused capacity of the party's engaged satellites.
    pub spare_mbps: f64,
}

/// The engine's aggregate output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficReport {
    /// City names (report row order).
    pub cities: Vec<String>,
    /// Parties (index order used by the columnar party series).
    pub parties: Vec<PartyId>,
    /// Grid steps.
    pub steps: usize,
    /// Step size, seconds.
    pub step_s: f64,
    /// Mean offered load per city, Mbps.
    pub offered_mean_mbps: Vec<f64>,
    /// Mean served load per city, Mbps.
    pub served_mean_mbps: Vec<f64>,
    /// Latency under load per city: delay of the carrying route at steps
    /// where the city was actually served, `None` elsewhere.
    pub latency: Vec<LatencySeries>,
    /// Total offered load per step, Mbps.
    pub total_offered_steps: Vec<f64>,
    /// Total served load per step, Mbps.
    pub total_served_steps: Vec<f64>,
    /// Offered load per party per step, Mbps, `[party * steps + k]`.
    pub party_offered: Vec<f64>,
    /// Served load per party per step, Mbps, `[party * steps + k]`.
    pub party_served: Vec<f64>,
    /// Carried load per party per step, Mbps, `[party * steps + k]`.
    pub party_carried: Vec<f64>,
    /// Spare engaged capacity per party per step, Mbps,
    /// `[party * steps + k]`.
    pub party_spare: Vec<f64>,
}

impl TrafficReport {
    /// Fraction of offered traffic served over the horizon, `[0, 1]`
    /// (1.0 when nothing was offered).
    pub fn served_ratio(&self) -> f64 {
        let offered: f64 = self.total_offered_steps.iter().sum();
        let served: f64 = self.total_served_steps.iter().sum();
        if offered <= 0.0 {
            1.0
        } else {
            served / offered
        }
    }

    /// Dropped fraction of offered traffic, percent.
    pub fn drop_pct(&self) -> f64 {
        (1.0 - self.served_ratio()) * 100.0
    }

    /// Latency percentile pooled over every served (city, step) sample
    /// (`None` if nothing was ever served or `q` is out of range).
    pub fn pooled_latency_ms(&self, q: f64) -> Option<f64> {
        let pooled: Vec<Option<f64>> =
            self.latency.iter().flat_map(|s| s.delay_ms.iter().copied()).collect();
        LatencySeries { delay_ms: pooled, step_s: self.step_s }.percentile_ms(q)
    }

    /// Peak-to-trough ratio of the total offered load.
    pub fn offered_peak_trough(&self) -> f64 {
        peak_trough(&self.total_offered_steps)
    }

    /// Per-party horizon means.
    pub fn party_summary(&self) -> Vec<PartyTraffic> {
        let n = self.steps.max(1) as f64;
        self.parties
            .iter()
            .enumerate()
            .map(|(p, party)| {
                let mean = |series: &[f64]| {
                    series[p * self.steps..(p + 1) * self.steps].iter().sum::<f64>() / n
                };
                PartyTraffic {
                    party: party.clone(),
                    offered_mbps: mean(&self.party_offered),
                    served_mbps: mean(&self.party_served),
                    carried_mbps: mean(&self.party_carried),
                    spare_mbps: mean(&self.party_spare),
                }
            })
            .collect()
    }
}

fn peak_trough(series: &[f64]) -> f64 {
    let mut peak = f64::NEG_INFINITY;
    let mut trough = f64::INFINITY;
    for &v in series {
        peak = peak.max(v);
        trough = trough.min(v);
    }
    if trough > 0.0 {
        peak / trough
    } else {
        f64::INFINITY
    }
}

/// Run the full engine. `sat_party[s]` is the owner (index into `parties`)
/// of store row `s`; `city_party[c]` the sponsor of city `c`. Both must
/// cover their domains.
#[allow(clippy::too_many_arguments)] // scene + config + the three party maps
pub fn run_traffic(
    store: &EphemerisStore,
    cities: &[City],
    gateways: &[GroundSite],
    sim: &SimConfig,
    cfg: &TrafficConfig,
    sat_party: &[usize],
    city_party: &[usize],
    parties: &[PartyId],
) -> TrafficReport {
    assert_eq!(sat_party.len(), store.sat_count(), "one owner per satellite");
    assert_eq!(city_party.len(), cities.len(), "one sponsor per city");
    assert!(sat_party.iter().chain(city_party.iter()).all(|&p| p < parties.len()));

    let sites: Vec<GroundSite> = cities.iter().map(|c| c.site()).collect();
    let demand = cfg.demand_matrix(cities, &store.grid);
    let routes = RouteTable::build(store, &sites, gateways, sim, &cfg.graph);
    run_traffic_with_routes(&demand, &routes, cfg, sat_party, city_party, parties)
}

/// [`run_traffic`] over a precomputed demand matrix and route table, so
/// sweeps (e.g. demand scaling) can reuse the expensive routing pass.
pub fn run_traffic_with_routes(
    demand: &DemandMatrix,
    routes: &RouteTable,
    cfg: &TrafficConfig,
    sat_party: &[usize],
    city_party: &[usize],
    parties: &[PartyId],
) -> TrafficReport {
    let steps = demand.steps;
    let n_cities = demand.cities.len();
    let n_gateways = routes.gateways.len();
    assert_eq!(routes.steps.len(), steps, "route table covers the demand grid");
    assert_eq!(routes.terminals.len(), n_cities, "route table covers the cities");

    // Independent per-step allocation; results land in step order.
    let allocations: Vec<StepAllocation> = simrt::par_map_indexed(steps, 0, |k| {
        allocate_step(
            &demand.step_offered(k),
            &routes.steps[k],
            cfg.sat_capacity_mbps,
            cfg.gateway_capacity_mbps,
            n_gateways,
        )
    });

    // Sequential aggregation in fixed (step, city) order.
    let n_parties = parties.len();
    let mut offered_mean = vec![0.0; n_cities];
    let mut served_mean = vec![0.0; n_cities];
    let mut latency: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(steps); n_cities];
    let mut total_offered = Vec::with_capacity(steps);
    let mut total_served = Vec::with_capacity(steps);
    let mut party_offered = vec![0.0; n_parties * steps];
    let mut party_served = vec![0.0; n_parties * steps];
    let mut party_carried = vec![0.0; n_parties * steps];
    let mut party_spare = vec![0.0; n_parties * steps];

    for (k, alloc) in allocations.iter().enumerate() {
        let mut step_offered_total = 0.0;
        for c in 0..n_cities {
            let offered = demand.offered(c, k);
            let served = alloc.served_mbps[c];
            offered_mean[c] += offered;
            served_mean[c] += served;
            step_offered_total += offered;
            party_offered[city_party[c] * steps + k] += offered;
            party_served[city_party[c] * steps + k] += served;
            latency[c].push(if served > 0.0 {
                routes.steps[k].routes[c].as_ref().map(|r| r.latency_ms)
            } else {
                None
            });
        }
        total_offered.push(step_offered_total);
        total_served.push(alloc.total_served());
        // Engaged satellites: best-route access sats this step. Their
        // unused headroom is the party's sellable spare.
        let mut engaged: Vec<usize> =
            routes.steps[k].routes.iter().flatten().map(|r| r.sat).collect();
        engaged.sort_unstable();
        engaged.dedup();
        for s in engaged {
            let carried = alloc.sat_carried.get(&s).copied().unwrap_or(0.0);
            let p = sat_party[s];
            party_carried[p * steps + k] += carried;
            party_spare[p * steps + k] += (cfg.sat_capacity_mbps - carried).max(0.0);
        }
    }
    let n = steps.max(1) as f64;
    for c in 0..n_cities {
        offered_mean[c] /= n;
        served_mean[c] /= n;
    }

    TrafficReport {
        cities: demand.cities.clone(),
        parties: parties.to_vec(),
        steps,
        step_s: demand.step_s,
        offered_mean_mbps: offered_mean,
        served_mean_mbps: served_mean,
        latency: latency
            .into_iter()
            .map(|delay_ms| LatencySeries { delay_ms, step_s: demand.step_s })
            .collect(),
        total_offered_steps: total_offered,
        total_served_steps: total_served,
        party_offered,
        party_served,
        party_carried,
        party_spare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::gateways_every_nth;
    use geodata::paper_cities;
    use orbital::constellation::{walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn scenario() -> (EphemerisStore, Vec<City>, Vec<GroundSite>) {
        let spec = ShellSpec { planes: 8, sats_per_plane: 10, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 600.0);
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

    #[test]
    fn engine_end_to_end_invariants() {
        let (store, cities, gateways) = scenario();
        let parties: Vec<PartyId> = ["alpha", "beta", "gamma"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 3);
        let cfg = TrafficConfig::default();
        let report = run_traffic(
            &store,
            &cities,
            &gateways,
            &SimConfig::default(),
            &cfg,
            &sat_party,
            &city_party,
            &parties,
        );
        assert_eq!(report.cities.len(), 21);
        let ratio = report.served_ratio();
        assert!((0.0..=1.0).contains(&ratio), "served ratio {ratio}");
        assert!(ratio > 0.0, "an 80-sat shell must serve some demand");
        // Served <= offered pointwise.
        for (o, s) in report.total_offered_steps.iter().zip(&report.total_served_steps) {
            assert!(s <= &(o + 1e-6), "served {s} > offered {o}");
        }
        // Party accounting closes: sums of party series match the totals.
        for k in 0..report.steps {
            let po: f64 = (0..3).map(|p| report.party_offered[p * report.steps + k]).sum();
            let ps: f64 = (0..3).map(|p| report.party_served[p * report.steps + k]).sum();
            let pc: f64 = (0..3).map(|p| report.party_carried[p * report.steps + k]).sum();
            assert!((po - report.total_offered_steps[k]).abs() < 1e-6);
            assert!((ps - report.total_served_steps[k]).abs() < 1e-6);
            assert!((pc - report.total_served_steps[k]).abs() < 1e-6, "carried = served");
        }
        // Latency under load is physical when present.
        if let Some(p99) = report.pooled_latency_ms(0.99) {
            let p50 = report.pooled_latency_ms(0.5).unwrap();
            assert!(p50 <= p99);
            assert!(p50 > 2.0 && p99 < 100.0, "p50 {p50} p99 {p99}");
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let (store, cities, gateways) = scenario();
        let parties: Vec<PartyId> = ["a", "b"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 2);
        let cfg = TrafficConfig::default();
        let run = || {
            run_traffic(
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
            assert_eq!(a.total_served_steps.len(), r.total_served_steps.len());
            for (x, y) in a.total_served_steps.iter().zip(&r.total_served_steps) {
                assert_eq!(x.to_bits(), y.to_bits(), "served series must be bit-identical");
            }
            for (x, y) in a.party_spare.iter().zip(&r.party_spare) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn more_demand_cannot_reduce_served_traffic() {
        let (store, cities, gateways) = scenario();
        let parties: Vec<PartyId> = ["solo"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 1);
        let served_at = |scale: f64| {
            let cfg = TrafficConfig { demand_scale: scale, ..TrafficConfig::default() };
            run_traffic(
                &store,
                &cities,
                &gateways,
                &SimConfig::default(),
                &cfg,
                &sat_party,
                &city_party,
                &parties,
            )
            .total_served_steps
            .iter()
            .sum::<f64>()
        };
        let low = served_at(0.5);
        let high = served_at(2.0);
        assert!(high >= low - 1e-6, "served must grow with offered: {low} vs {high}");
    }

    #[test]
    fn zero_scale_serves_nothing_with_ratio_one() {
        let (store, cities, gateways) = scenario();
        let parties: Vec<PartyId> = ["solo"].map(PartyId::new).into();
        let (sat_party, city_party) = owners(store.sat_count(), cities.len(), 1);
        let cfg = TrafficConfig { demand_scale: 0.0, ..TrafficConfig::default() };
        let report = run_traffic(
            &store,
            &cities,
            &gateways,
            &SimConfig::default(),
            &cfg,
            &sat_party,
            &city_party,
            &parties,
        );
        assert_eq!(report.served_ratio(), 1.0, "no demand means nothing to drop");
        assert!(report.total_served_steps.iter().all(|&s| s == 0.0));
        assert!(report.pooled_latency_ms(0.5).is_none());
    }
}
