//! Per-step routing snapshots over the ephemeris.
//!
//! At each grid step the engine needs, for every city terminal, the best
//! end-to-end path to a gateway: terminal → access satellite (uplink),
//! optionally a few ISL hops between satellites, then satellite → gateway
//! (downlink). This module builds that snapshot straight from a prebuilt
//! [`EphemerisStore`] — no re-propagation — using the same range-limited
//! ISL proximity rule as [`leosim::bentpipe::isl_connectivity_from_store`],
//! but tracking actual path length, hop count, and link-budget capacity
//! instead of a connectivity bit. It is the workspace's one answer to
//! "which satellite chain connects this terminal to a ground station at
//! step k?": a terminal is connected iff it has a route, so bent-pipe and
//! ISL connectivity are [`RouteTable::routability`] at `max_hops` 0 and
//! above, and bent-pipe latency is [`Route::latency_ms`] at `max_hops = 0`.
//!
//! Route selection is deterministic: the minimum-path-length reachable
//! access satellite wins, ties broken by the lowest satellite row. Steps
//! are independent `simrt` jobs collected in step order, so the table is
//! byte-identical at any thread count.
//!
//! The production per-step computation lives in [`crate::pipeline`]: a
//! grid-pruned [`crate::pipeline::StepKernel`] shared by
//! [`RouteTable::build`], the traffic engine, and the churn campaign
//! engine. This module keeps the route/mask types and the brute-force
//! [`step_routes_reference`] the kernel is property-tested against (the
//! fuzzer's oracle and the benchmark's speedup baseline call it too, so it
//! stays public).

use crate::pipeline::{StepKernel, StepScratch};
use leosim::ephemeris::EphemerisStore;
use leosim::latency::C_KM_S;
use leosim::linkbudget::{end_to_end_capacity_bps, PayloadArchitecture, RfLeg};
use leosim::visibility::SimConfig;
use orbital::ground::GroundSite;
use orbital::Vec3;
use serde::{Deserialize, Serialize};

/// One end-to-end route for a city at a step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Access satellite (row in the store the table was built from).
    pub sat: usize,
    /// Gateway index the flow lands on.
    pub gateway: usize,
    /// ISL hops between the access and the downlink satellite (0 = pure
    /// bent pipe: the access satellite sees the gateway itself).
    pub hops: usize,
    /// Total path length, km (uplink + ISL segments + downlink).
    pub path_km: f64,
    /// One-way propagation latency over the path, ms.
    pub latency_ms: f64,
    /// Link-budget capacity of this city's access path, Mbps (Shannon
    /// bound over `channels_per_link` channels; transparent composition
    /// for 0-hop routes, regenerative once a relay decodes in between).
    pub access_mbps: f64,
}

/// The routes of every city at one step (`None` = no reachable gateway).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepRoutes {
    /// Per-city route, city order of the table's terminal list.
    pub routes: Vec<Option<Route>>,
}

/// Routing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Maximum ISL edge length, km.
    pub isl_range_km: f64,
    /// Maximum ISL hops between access and downlink satellite
    /// (0 = bent pipe only).
    pub max_hops: usize,
    /// Ku-band channels aggregated per city access link.
    pub channels_per_link: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig { isl_range_km: 3000.0, max_hops: 1, channels_per_link: 24 }
    }
}

/// The per-step routing table over a grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouteTable {
    /// One entry per grid step.
    pub steps: Vec<StepRoutes>,
    /// Terminal (city) names, route order.
    pub terminals: Vec<String>,
    /// Gateway names, `Route::gateway` order.
    pub gateways: Vec<String>,
}

impl RouteTable {
    /// Build the table: one independent job per step over the shared
    /// `simrt` pool, collected in step order.
    pub fn build(
        store: &EphemerisStore,
        terminals: &[GroundSite],
        gateways: &[GroundSite],
        sim: &SimConfig,
        graph: &GraphConfig,
    ) -> RouteTable {
        let kernel = StepKernel::new(store, terminals, gateways, sim, graph);
        let steps = simrt::par_map_indexed(store.steps(), 0, |k| {
            kernel.routes(&mut StepScratch::default(), k, None)
        });
        RouteTable {
            steps,
            terminals: terminals.iter().map(|t| t.name.clone()).collect(),
            gateways: gateways.iter().map(|g| g.name.clone()).collect(),
        }
    }

    /// Fraction of (city, step) pairs with a route.
    pub fn routability(&self) -> f64 {
        let total = self.steps.len() * self.terminals.len();
        if total == 0 {
            return 0.0;
        }
        let routed: usize = self.steps.iter().map(|s| s.routes.iter().flatten().count()).sum();
        routed as f64 / total as f64
    }
}

/// Availability and degradation overlay for one step of masked routing.
///
/// The churn engine (see [`crate::churn`]) fails satellites, takes
/// gateways offline, and degrades regional link budgets mid-campaign;
/// routing reacts by recomputing the step under this mask. An all-up mask
/// reproduces the unmasked snapshot bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct StepMask {
    /// Per-satellite availability (store row order); a down satellite can
    /// neither serve terminals nor relay ISL traffic.
    pub sat_ok: Vec<bool>,
    /// Per-gateway availability.
    pub gateway_ok: Vec<bool>,
    /// Per-terminal multiplier on access-link capacity, `[0, 1]` (regional
    /// link-budget degradation; 0 = total outage, the route stays for
    /// latency accounting but carries nothing).
    pub terminal_factor: Vec<f64>,
}

impl StepMask {
    /// Everything up, nothing degraded.
    pub fn nominal(n_sats: usize, n_gateways: usize, n_terminals: usize) -> StepMask {
        StepMask {
            sat_ok: vec![true; n_sats],
            gateway_ok: vec![true; n_gateways],
            terminal_factor: vec![1.0; n_terminals],
        }
    }

    /// Whether the mask changes nothing.
    pub fn is_nominal(&self) -> bool {
        self.sat_ok.iter().all(|&v| v)
            && self.gateway_ok.iter().all(|&v| v)
            && self.terminal_factor.iter().all(|&f| f == 1.0)
    }
}

/// Per-satellite downlink chain state built by the routing BFS (shared
/// with [`crate::pipeline`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Downlink {
    /// Gateway the chain lands on.
    pub(crate) gateway: usize,
    /// Distance from this satellite to the gateway along the chain, km.
    pub(crate) dist_km: f64,
    /// ISL hops used by the chain.
    pub(crate) hops: usize,
    /// Slant range of the chain's final downlink leg, km.
    pub(crate) down_range_km: f64,
}

/// The brute-force reference kernel: all-satellite scans, first-wins
/// strict-less-than selection in ascending index order. The grid-pruned
/// [`crate::pipeline::StepKernel`] is required to reproduce this function
/// bit for bit (property-tested in `pipeline::proptests`); keep the two in
/// lockstep when touching route semantics. Benchmarks also use it as the
/// speedup baseline.
pub fn step_routes_reference(
    store: &EphemerisStore,
    terminals: &[GroundSite],
    gateways: &[GroundSite],
    sim: &SimConfig,
    graph: &GraphConfig,
    k: usize,
    mask: Option<&StepMask>,
) -> StepRoutes {
    let n = store.sat_count();
    let sin_mask = sim.min_elevation_deg.to_radians().sin();
    let positions: Vec<Vec3> = (0..n).map(|s| store.position(s, k)).collect();
    let sat_ok = |s: usize| mask.is_none_or(|m| m.sat_ok[s]);
    let gateway_ok = |g: usize| mask.is_none_or(|m| m.gateway_ok[g]);

    // Layer 0: satellites that see a gateway directly (best = nearest).
    let mut chain: Vec<Option<Downlink>> = positions
        .iter()
        .enumerate()
        .map(|(s, &p)| {
            if !sat_ok(s) {
                return None;
            }
            let mut best: Option<(usize, f64)> = None;
            for (g, gw) in gateways.iter().enumerate() {
                if gateway_ok(g) && gw.sees_ecef_sin(p, sin_mask) {
                    let r = gw.ecef.distance(p);
                    if best.is_none_or(|(_, br)| r < br) {
                        best = Some((g, r));
                    }
                }
            }
            best.map(|(gateway, r)| Downlink { gateway, dist_km: r, hops: 0, down_range_km: r })
        })
        .collect();

    // BFS layers: each hop lets an unreached satellite join the chain of
    // the nearest already-reached neighbour within ISL range.
    let mut frontier: Vec<usize> =
        chain.iter().enumerate().filter_map(|(s, c)| c.is_some().then_some(s)).collect();
    for _hop in 0..graph.max_hops {
        if frontier.is_empty() {
            break;
        }
        let mut joined = Vec::new();
        for s in 0..n {
            if chain[s].is_some() || !sat_ok(s) {
                continue;
            }
            let mut best: Option<Downlink> = None;
            for &f in &frontier {
                let d = positions[f].distance(positions[s]);
                if d <= graph.isl_range_km {
                    let prev = chain[f].as_ref().expect("frontier is reached");
                    let cand = Downlink {
                        gateway: prev.gateway,
                        dist_km: prev.dist_km + d,
                        hops: prev.hops + 1,
                        down_range_km: prev.down_range_km,
                    };
                    if best.as_ref().is_none_or(|b| cand.dist_km < b.dist_km) {
                        best = Some(cand);
                    }
                }
            }
            if best.is_some() {
                joined.push((s, best));
            }
        }
        frontier = joined.iter().map(|(s, _)| *s).collect();
        for (s, d) in joined {
            chain[s] = d;
        }
    }

    let up = RfLeg::ku_user_uplink();
    let down = RfLeg::ku_gateway_downlink();
    let routes = terminals
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let factor = mask.map_or(1.0, |m| m.terminal_factor[ti]).clamp(0.0, 1.0);
            let mut best: Option<Route> = None;
            for (s, c) in chain.iter().enumerate() {
                let Some(c) = c else { continue };
                if !t.sees_ecef_sin(positions[s], sin_mask) {
                    continue;
                }
                let up_range = t.ecef.distance(positions[s]);
                let path_km = up_range + c.dist_km;
                if best.as_ref().is_none_or(|b| path_km < b.path_km) {
                    let arch = if c.hops == 0 {
                        PayloadArchitecture::Transparent
                    } else {
                        PayloadArchitecture::Regenerative
                    };
                    let per_channel =
                        end_to_end_capacity_bps(arch, &up, up_range, &down, c.down_range_km);
                    best = Some(Route {
                        sat: s,
                        gateway: c.gateway,
                        hops: c.hops,
                        path_km,
                        latency_ms: path_km / C_KM_S * 1000.0,
                        access_mbps: factor * per_channel * graph.channels_per_link as f64 / 1e6,
                    });
                }
            }
            best
        })
        .collect();
    StepRoutes { routes }
}

/// Gateways colocated with every `n`-th city of `cities` (a party that
/// serves a metro typically lands traffic near it). Names get a `-GS`
/// suffix so tables stay readable.
pub fn gateways_every_nth(cities: &[geodata::City], n: usize) -> Vec<GroundSite> {
    assert!(n >= 1, "need a positive stride");
    cities
        .iter()
        .step_by(n)
        .map(|c| GroundSite::from_degrees(format!("{}-GS", c.name), c.lat_deg, c.lon_deg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::assert_steps_bit_identical;
    use geodata::paper_cities;
    use leosim::TimeGrid;
    use orbital::constellation::{single_plane, walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn store(planes: u32, per_plane: u32, hours: f64) -> EphemerisStore {
        let spec = ShellSpec { planes, sats_per_plane: per_plane, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), hours * 3600.0, 300.0);
        EphemerisStore::build(&sats, &grid, &SimConfig::default())
    }

    #[test]
    fn colocated_gateway_gives_bentpipe_routes() {
        let sats = single_plane(12, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 300.0);
        let st = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let term = [GroundSite::from_degrees("T", 25.0, 121.5)];
        let gw = [GroundSite::from_degrees("T-GS", 25.0, 121.5)];
        let table =
            RouteTable::build(&st, &term, &gw, &SimConfig::default(), &GraphConfig::default());
        assert!(table.routability() > 0.0, "a 12-sat plane overhead must route sometimes");
        // No path can beat twice the altitude at lightspeed.
        let floor_ms = 2.0 * 550.0 / C_KM_S * 1000.0;
        for s in &table.steps {
            if let Some(r) = &s.routes[0] {
                assert_eq!(r.hops, 0, "colocated gateway never needs ISL hops");
                assert!(r.latency_ms >= floor_ms - 1e-9, "latency {} below floor", r.latency_ms);
                assert!(r.latency_ms < 30.0, "latency {}", r.latency_ms);
                assert!(r.access_mbps > 100.0, "capacity {}", r.access_mbps);
            }
        }
    }

    #[test]
    fn isl_hops_extend_reach() {
        let st = store(6, 8, 6.0);
        let term = [GroundSite::from_degrees("T", 25.0, 121.5)];
        let gw = [GroundSite::from_degrees("G", 40.7, -74.0)]; // other side of the world
        let sim = SimConfig::default();
        let bent = GraphConfig { max_hops: 0, ..GraphConfig::default() };
        let isl = GraphConfig { max_hops: 6, isl_range_km: 5000.0, ..GraphConfig::default() };
        let t_bent = RouteTable::build(&st, &term, &gw, &sim, &bent);
        let t_isl = RouteTable::build(&st, &term, &gw, &sim, &isl);
        assert_eq!(t_bent.routability(), 0.0, "no satellite sees both sides of the Pacific");
        // Relay routes must actually report hops and longer paths.
        let hops: usize =
            t_isl.steps.iter().flat_map(|s| s.routes.iter().flatten()).map(|r| r.hops).sum();
        assert!(hops > 0, "a trans-Pacific gateway requires relaying");
    }

    #[test]
    fn routes_are_thread_count_invariant() {
        let st = store(4, 6, 3.0);
        let cities = paper_cities();
        let terms: Vec<GroundSite> = cities.iter().take(5).map(|c| c.site()).collect();
        let gw = gateways_every_nth(&cities[..5], 2);
        let sim = SimConfig::default();
        let cfg = GraphConfig::default();
        let a = RouteTable::build(&st, &terms, &gw, &sim, &cfg);
        let b = simrt::with_thread_cap(1, || RouteTable::build(&st, &terms, &gw, &sim, &cfg));
        for (k, (sa, sb)) in a.steps.iter().zip(&b.steps).enumerate() {
            assert_steps_bit_identical(sa, sb, &format!("thread counts, step {k}"));
        }
    }

    #[test]
    fn nominal_mask_reproduces_unmasked_routes() {
        let st = store(4, 6, 3.0);
        let cities = paper_cities();
        let terms: Vec<GroundSite> = cities.iter().take(5).map(|c| c.site()).collect();
        let gw = gateways_every_nth(&cities[..5], 2);
        let sim = SimConfig::default();
        let cfg = GraphConfig::default();
        let table = RouteTable::build(&st, &terms, &gw, &sim, &cfg);
        let mask = StepMask::nominal(st.sat_count(), gw.len(), terms.len());
        assert!(mask.is_nominal());
        let kernel = StepKernel::new(&st, &terms, &gw, &sim, &cfg);
        let mut scratch = StepScratch::default();
        for (k, unmasked) in table.steps.iter().enumerate() {
            let masked = kernel.routes(&mut scratch, k, Some(&mask));
            assert_steps_bit_identical(&masked, unmasked, &format!("nominal mask, step {k}"));
        }
    }

    #[test]
    fn downed_satellites_and_gateways_kill_routes() {
        let st = store(4, 6, 3.0);
        let cities = paper_cities();
        let terms: Vec<GroundSite> = cities.iter().take(4).map(|c| c.site()).collect();
        let gw = gateways_every_nth(&cities[..4], 2);
        let sim = SimConfig::default();
        let cfg = GraphConfig::default();
        let mut all_sats_down = StepMask::nominal(st.sat_count(), gw.len(), terms.len());
        all_sats_down.sat_ok.fill(false);
        let mut all_gws_down = StepMask::nominal(st.sat_count(), gw.len(), terms.len());
        all_gws_down.gateway_ok.fill(false);
        let kernel = StepKernel::new(&st, &terms, &gw, &sim, &cfg);
        let mut scratch = StepScratch::default();
        for k in 0..st.steps() {
            for mask in [&all_sats_down, &all_gws_down] {
                let routes = kernel.routes(&mut scratch, k, Some(mask));
                assert!(routes.routes.iter().all(|r| r.is_none()), "step {k} still routed");
            }
        }
    }

    #[test]
    fn failed_access_satellite_is_rerouted_or_dropped() {
        let st = store(4, 6, 3.0);
        let cities = paper_cities();
        let terms: Vec<GroundSite> = cities.iter().take(3).map(|c| c.site()).collect();
        let gw = gateways_every_nth(&cities[..3], 1);
        let sim = SimConfig::default();
        let cfg = GraphConfig::default();
        let table = RouteTable::build(&st, &terms, &gw, &sim, &cfg);
        let kernel = StepKernel::new(&st, &terms, &gw, &sim, &cfg);
        let mut scratch = StepScratch::default();
        let mut exercised = false;
        for (k, step) in table.steps.iter().enumerate() {
            let Some(r) = &step.routes[0] else { continue };
            let mut mask = StepMask::nominal(st.sat_count(), gw.len(), terms.len());
            mask.sat_ok[r.sat] = false;
            let masked = kernel.routes(&mut scratch, k, Some(&mask));
            if let Some(m) = &masked.routes[0] {
                assert_ne!(m.sat, r.sat, "step {k} kept its failed access satellite");
            }
            exercised = true;
        }
        assert!(exercised, "scenario never routed terminal 0");
    }

    #[test]
    fn terminal_factor_scales_access_capacity() {
        let st = store(4, 6, 3.0);
        let cities = paper_cities();
        let terms: Vec<GroundSite> = cities.iter().take(2).map(|c| c.site()).collect();
        let gw = gateways_every_nth(&cities[..2], 1);
        let sim = SimConfig::default();
        let cfg = GraphConfig::default();
        let table = RouteTable::build(&st, &terms, &gw, &sim, &cfg);
        let mut mask = StepMask::nominal(st.sat_count(), gw.len(), terms.len());
        mask.terminal_factor[0] = 0.5;
        let kernel = StepKernel::new(&st, &terms, &gw, &sim, &cfg);
        let mut scratch = StepScratch::default();
        for (k, step) in table.steps.iter().enumerate() {
            let masked = kernel.routes(&mut scratch, k, Some(&mask));
            if let (Some(m), Some(u)) = (&masked.routes[0], &step.routes[0]) {
                // Path selection ignores capacity, so the route is the same
                // and its capacity is exactly halved.
                assert_eq!(m.sat, u.sat);
                assert_eq!(m.access_mbps.to_bits(), (0.5 * u.access_mbps).to_bits());
            }
            if let (Some(m), Some(u)) = (&masked.routes[1], &step.routes[1]) {
                assert_eq!(m.access_mbps.to_bits(), u.access_mbps.to_bits());
            }
        }
    }

    #[test]
    fn gateway_stride_selects_every_nth() {
        let cities = paper_cities();
        let gs = gateways_every_nth(&cities, 3);
        assert_eq!(gs.len(), cities.len().div_ceil(3));
        assert_eq!(gs[0].name, format!("{}-GS", cities[0].name));
        assert_eq!(gs[1].name, format!("{}-GS", cities[3].name));
    }
}
