//! Max-min-fair flow allocation (progressive filling).
//!
//! At each step every routed city wants its offered load; the flows share
//! the access satellite's throughput and the landing gateway's backhaul.
//! The allocator implements the textbook progressive-filling algorithm:
//! all active flows grow at the same rate until either a flow reaches its
//! own cap (offered load or access-link capacity) or a shared resource
//! saturates, freezing every flow crossing it. The result is the unique
//! max-min-fair allocation for this resource model.
//!
//! The per-step computation is strictly sequential (city order, then
//! sorted resource order), so a step's output is a pure function of its
//! inputs; the engine fans steps out over `simrt` and collects them in
//! step order — byte-identical at any thread count.

use crate::graph::StepRoutes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Allocation result for one step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepAllocation {
    /// Served rate per city, Mbps (0 when unrouted).
    pub served_mbps: Vec<f64>,
    /// Traffic carried per access satellite, Mbps (store row → rate).
    pub sat_carried: BTreeMap<usize, f64>,
    /// Traffic landed per gateway, Mbps.
    pub gateway_carried: Vec<f64>,
}

impl StepAllocation {
    /// Total served rate, Mbps.
    pub fn total_served(&self) -> f64 {
        self.served_mbps.iter().sum()
    }
}

/// Reusable buffers for [`allocate_step_with`]: a sequential caller that
/// keeps one across steps runs the progressive-filling rounds with no
/// per-step heap allocation in steady state (only the returned
/// [`StepAllocation`] is freshly allocated).
#[derive(Debug, Default)]
pub struct AllocScratch {
    caps: Vec<f64>,
    active: Vec<bool>,
    /// Engaged access satellites, sorted ascending (the dense stand-in for
    /// the old `BTreeMap` keyed by satellite: ascending iteration keeps
    /// every float reduction in the exact same order).
    engaged: Vec<usize>,
    sat_left: Vec<f64>,
    sat_members: Vec<Vec<usize>>,
    gw_left: Vec<f64>,
    gw_members: Vec<Vec<usize>>,
    live: Vec<usize>,
}

/// Clear the first `len` inner vectors, growing the pool as needed; inner
/// allocations persist across steps.
fn reset_member_pool(pool: &mut Vec<Vec<usize>>, len: usize) {
    if pool.len() < len {
        pool.resize_with(len, Vec::new);
    }
    for members in &mut pool[..len] {
        members.clear();
    }
}

/// Progressive-filling allocation of `offered` (Mbps per city) over the
/// step's routes, subject to per-satellite and per-gateway capacity.
pub fn allocate_step(
    offered: &[f64],
    routes: &StepRoutes,
    sat_capacity_mbps: f64,
    gateway_capacity_mbps: f64,
    n_gateways: usize,
) -> StepAllocation {
    allocate_step_with(
        &mut AllocScratch::default(),
        offered,
        routes,
        sat_capacity_mbps,
        gateway_capacity_mbps,
        n_gateways,
    )
}

/// [`allocate_step`] with caller-provided scratch. The shared-resource
/// state lives in dense arrays indexed by the sorted `engaged` satellite
/// list; every reduction iterates in the same ascending order as the old
/// `BTreeMap`-based implementation, so results are bit-identical.
pub fn allocate_step_with(
    scratch: &mut AllocScratch,
    offered: &[f64],
    routes: &StepRoutes,
    sat_capacity_mbps: f64,
    gateway_capacity_mbps: f64,
    n_gateways: usize,
) -> StepAllocation {
    assert_eq!(offered.len(), routes.routes.len(), "city sets differ");
    const EPS: f64 = 1e-9;

    let n = offered.len();
    let mut rate = vec![0.0f64; n];
    let AllocScratch { caps, active, engaged, sat_left, sat_members, gw_left, gw_members, live } =
        scratch;
    // Individual cap: offered load and the city's own access-link bound.
    caps.clear();
    caps.extend((0..n).map(|c| match &routes.routes[c] {
        Some(r) => offered[c].min(r.access_mbps).max(0.0),
        None => 0.0,
    }));
    active.clear();
    active.extend((0..n).map(|c| caps[c] > EPS));

    // Shared resources: remaining capacity + member cities. `engaged` is
    // sorted so slot order is satellite order; members are collected in a
    // second pass so each list is in ascending city order — both match the
    // old sorted-map iteration exactly.
    engaged.clear();
    engaged.extend(
        active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(c, _)| routes.routes[c].as_ref().expect("active implies routed").sat),
    );
    engaged.sort_unstable();
    engaged.dedup();
    let slot_of = |engaged: &[usize], sat: usize| {
        engaged.binary_search(&sat).expect("engaged access satellite")
    };
    sat_left.clear();
    sat_left.resize(engaged.len(), sat_capacity_mbps);
    reset_member_pool(sat_members, engaged.len());
    gw_left.clear();
    gw_left.resize(n_gateways, gateway_capacity_mbps);
    reset_member_pool(gw_members, n_gateways);
    for (c, &is_active) in active.iter().enumerate() {
        if !is_active {
            continue;
        }
        let r = routes.routes[c].as_ref().expect("active implies routed");
        sat_members[slot_of(engaged, r.sat)].push(c);
        gw_members[r.gateway].push(c);
    }

    // Progressive filling: at most one flow or one resource freezes per
    // round, so the loop is bounded by cities + resources.
    for _round in 0..(n + engaged.len() + n_gateways + 1) {
        live.clear();
        live.extend((0..n).filter(|&c| active[c]));
        if live.is_empty() {
            break;
        }
        // Largest uniform increment every live flow can take.
        let mut delta = f64::INFINITY;
        for &c in live.iter() {
            delta = delta.min(caps[c] - rate[c]);
        }
        for (slot, &left) in sat_left.iter().enumerate() {
            let users = sat_members[slot].iter().filter(|&&c| active[c]).count();
            if users > 0 {
                delta = delta.min(left / users as f64);
            }
        }
        for (g, &left) in gw_left.iter().enumerate() {
            let users = gw_members[g].iter().filter(|&&c| active[c]).count();
            if users > 0 {
                delta = delta.min(left / users as f64);
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            break;
        }
        // Apply the increment and charge the shared resources.
        for &c in live.iter() {
            rate[c] += delta;
            let r = routes.routes[c].as_ref().expect("live implies routed");
            sat_left[slot_of(engaged, r.sat)] -= delta;
            gw_left[r.gateway] -= delta;
        }
        // Freeze flows at their individual cap, then flows on a saturated
        // resource.
        for &c in live.iter() {
            if caps[c] - rate[c] <= EPS {
                active[c] = false;
            }
        }
        for (slot, &left) in sat_left.iter().enumerate() {
            if left <= EPS {
                for &c in &sat_members[slot] {
                    active[c] = false;
                }
            }
        }
        for (g, &left) in gw_left.iter().enumerate() {
            if left <= EPS {
                for &c in &gw_members[g] {
                    active[c] = false;
                }
            }
        }
        if delta <= EPS {
            break;
        }
    }

    let mut sat_carried: BTreeMap<usize, f64> = BTreeMap::new();
    let mut gateway_carried = vec![0.0f64; n_gateways];
    for (c, &r_mbps) in rate.iter().enumerate() {
        if r_mbps > 0.0 {
            let r = routes.routes[c].as_ref().expect("rate implies routed");
            *sat_carried.entry(r.sat).or_insert(0.0) += r_mbps;
            gateway_carried[r.gateway] += r_mbps;
        }
    }
    StepAllocation { served_mbps: rate, sat_carried, gateway_carried }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Route;

    fn route(sat: usize, gateway: usize, access_mbps: f64) -> Option<Route> {
        Some(Route { sat, gateway, hops: 0, path_km: 1000.0, latency_ms: 5.0, access_mbps })
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        // One scratch across dissimilar steps (different city counts,
        // engaged satellites, gateways) must not leak state between calls.
        let steps = [
            StepRoutes { routes: vec![route(5, 2, 1e9), route(1, 0, 40.0), None] },
            StepRoutes { routes: vec![route(0, 0, 1e9)] },
            StepRoutes {
                routes: vec![route(3, 1, 120.0), route(3, 1, 1e9), route(4, 2, 1e9), None],
            },
        ];
        let offers: [&[f64]; 3] = [&[100.0, 90.0, 10.0], &[500.0], &[80.0, 80.0, 80.0, 5.0]];
        let mut scratch = AllocScratch::default();
        for (routes, offered) in steps.iter().zip(offers) {
            let reused = allocate_step_with(&mut scratch, offered, routes, 150.0, 200.0, 3);
            let fresh = allocate_step(offered, routes, 150.0, 200.0, 3);
            for (a, b) in reused.served_mbps.iter().zip(&fresh.served_mbps) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(reused.sat_carried, fresh.sat_carried);
            assert_eq!(reused.gateway_carried, fresh.gateway_carried);
        }
    }

    #[test]
    fn unconstrained_serves_everything() {
        let routes = StepRoutes { routes: vec![route(0, 0, 1e9), route(1, 0, 1e9)] };
        let a = allocate_step(&[100.0, 50.0], &routes, 1e9, 1e9, 1);
        assert!((a.served_mbps[0] - 100.0).abs() < 1e-6);
        assert!((a.served_mbps[1] - 50.0).abs() < 1e-6);
        assert!((a.gateway_carried[0] - 150.0).abs() < 1e-6);
    }

    #[test]
    fn shared_satellite_splits_fairly() {
        // Two equal flows on one satellite of capacity 100: 50 each.
        let routes = StepRoutes { routes: vec![route(7, 0, 1e9), route(7, 0, 1e9)] };
        let a = allocate_step(&[500.0, 500.0], &routes, 100.0, 1e9, 1);
        assert!((a.served_mbps[0] - 50.0).abs() < 1e-6, "{:?}", a.served_mbps);
        assert!((a.served_mbps[1] - 50.0).abs() < 1e-6);
        assert!((a.sat_carried[&7] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_redistributes_slack() {
        // A small flow (10) and a big one share a 100-capacity satellite:
        // max-min gives the big flow the leftover 90, not just 50.
        let routes = StepRoutes { routes: vec![route(0, 0, 1e9), route(0, 0, 1e9)] };
        let a = allocate_step(&[10.0, 500.0], &routes, 100.0, 1e9, 1);
        assert!((a.served_mbps[0] - 10.0).abs() < 1e-6);
        assert!((a.served_mbps[1] - 90.0).abs() < 1e-6, "{:?}", a.served_mbps);
    }

    #[test]
    fn gateway_bottleneck_caps_the_sum() {
        // Three flows on distinct satellites land on one 60-Mbps gateway.
        let routes =
            StepRoutes { routes: vec![route(0, 0, 1e9), route(1, 0, 1e9), route(2, 0, 1e9)] };
        let a = allocate_step(&[100.0, 100.0, 100.0], &routes, 1e9, 60.0, 1);
        for r in &a.served_mbps {
            assert!((r - 20.0).abs() < 1e-6, "{:?}", a.served_mbps);
        }
        assert!((a.gateway_carried[0] - 60.0).abs() < 1e-6);
    }

    #[test]
    fn access_link_bounds_a_single_flow() {
        let routes = StepRoutes { routes: vec![route(0, 0, 30.0)] };
        let a = allocate_step(&[100.0], &routes, 1e9, 1e9, 1);
        assert!((a.served_mbps[0] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn unrouted_cities_get_nothing() {
        let routes = StepRoutes { routes: vec![None, route(0, 0, 1e9)] };
        let a = allocate_step(&[100.0, 100.0], &routes, 1e9, 1e9, 1);
        assert_eq!(a.served_mbps[0], 0.0);
        assert!(a.served_mbps[1] > 0.0);
    }

    #[test]
    fn served_never_exceeds_offered_or_capacity() {
        // A mixed scenario; spot-check global invariants.
        let routes = StepRoutes {
            routes: vec![
                route(0, 0, 200.0),
                route(0, 1, 1e9),
                route(1, 0, 1e9),
                None,
                route(1, 1, 50.0),
            ],
        };
        let offered = [120.0, 300.0, 80.0, 10.0, 500.0];
        let a = allocate_step(&offered, &routes, 250.0, 260.0, 2);
        for (c, r) in a.served_mbps.iter().enumerate() {
            assert!(*r <= offered[c] + 1e-6, "city {c} over-served");
        }
        for (&s, &carried) in &a.sat_carried {
            assert!(carried <= 250.0 + 1e-6, "sat {s} over capacity: {carried}");
        }
        for (g, &carried) in a.gateway_carried.iter().enumerate() {
            assert!(carried <= 260.0 + 1e-6, "gateway {g} over capacity: {carried}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::{Route, StepRoutes};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    const N_GATEWAYS: usize = 3;
    /// Saturation/fairness slack: the allocator freezes at `EPS = 1e-9`
    /// residuals, so with magnitudes up to a few thousand Mbps any real
    /// violation dwarfs this.
    const TOL: f64 = 1e-5;

    fn arb_route() -> impl Strategy<Value = Option<Route>> {
        prop_oneof![
            1 => Just(None),
            4 => (0usize..6, 0usize..N_GATEWAYS, 1.0f64..2000.0).prop_map(
                |(sat, gateway, access_mbps)| Some(Route {
                    sat,
                    gateway,
                    hops: 0,
                    path_km: 1500.0,
                    latency_ms: 7.0,
                    access_mbps,
                })
            ),
        ]
    }

    /// (offered, routes, sat capacity, gateway capacity) scenarios small
    /// enough to shrink well but rich enough to saturate either resource.
    fn arb_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Option<Route>>, f64, f64)> {
        (1usize..10).prop_flat_map(|n| {
            (
                prop::collection::vec(0.0f64..1000.0, n),
                prop::collection::vec(arb_route(), n),
                50.0f64..4000.0,
                50.0f64..4000.0,
            )
        })
    }

    proptest! {
        /// Served rates never exceed the offered load, the access link,
        /// any satellite's throughput, or any gateway's backhaul; cities
        /// without a route get nothing.
        #[test]
        fn never_exceeds_any_capacity((offered, routes, sat_cap, gw_cap) in arb_scenario()) {
            let step = StepRoutes { routes: routes.clone() };
            let a = allocate_step(&offered, &step, sat_cap, gw_cap, N_GATEWAYS);
            for (c, &served) in a.served_mbps.iter().enumerate() {
                prop_assert!(served >= 0.0);
                match &routes[c] {
                    Some(r) => prop_assert!(served <= offered[c].min(r.access_mbps) + TOL),
                    None => prop_assert_eq!(served, 0.0),
                }
            }
            for (&s, &carried) in &a.sat_carried {
                prop_assert!(carried <= sat_cap + TOL, "sat {} over capacity: {}", s, carried);
            }
            for (g, &carried) in a.gateway_carried.iter().enumerate() {
                prop_assert!(carried <= gw_cap + TOL, "gateway {} over capacity: {}", g, carried);
            }
        }

        /// The allocation is invariant under permutation of the demand
        /// order: progressive filling grows every active flow by the same
        /// increment, so city order only changes the order of identical
        /// float operations.
        #[test]
        fn invariant_under_demand_permutation(
            (offered, routes, sat_cap, gw_cap) in arb_scenario(),
            seed in 0u64..1_000,
        ) {
            let n = offered.len();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let p_offered: Vec<f64> = perm.iter().map(|&c| offered[c]).collect();
            let p_routes: Vec<Option<Route>> = perm.iter().map(|&c| routes[c]).collect();
            let direct = allocate_step(
                &offered,
                &StepRoutes { routes: routes.clone() },
                sat_cap,
                gw_cap,
                N_GATEWAYS,
            );
            let permuted = allocate_step(
                &p_offered,
                &StepRoutes { routes: p_routes },
                sat_cap,
                gw_cap,
                N_GATEWAYS,
            );
            for (i, &c) in perm.iter().enumerate() {
                let x = direct.served_mbps[c];
                let y = permuted.served_mbps[i];
                prop_assert!((x - y).abs() <= 1e-9, "city {}: {} vs {}", c, x, y);
            }
        }

        /// Max-min fairness (bottleneck characterization): a flow below
        /// its individual cap must cross a saturated resource on which no
        /// co-member receives more — so no flow can gain without taking
        /// from a flow that is no better off.
        #[test]
        fn max_min_bottleneck_condition((offered, routes, sat_cap, gw_cap) in arb_scenario()) {
            let step = StepRoutes { routes: routes.clone() };
            let a = allocate_step(&offered, &step, sat_cap, gw_cap, N_GATEWAYS);
            for (c, &served) in a.served_mbps.iter().enumerate() {
                let Some(r) = &routes[c] else { continue };
                let cap = offered[c].min(r.access_mbps);
                if cap <= TOL || served >= cap - TOL {
                    continue; // individually capped: nothing to redistribute
                }
                let sat_carried = a.sat_carried.get(&r.sat).copied().unwrap_or(0.0);
                let sat_saturated = sat_carried >= sat_cap - TOL;
                let gw_saturated = a.gateway_carried[r.gateway] >= gw_cap - TOL;
                prop_assert!(
                    sat_saturated || gw_saturated,
                    "flow {} sits at {} below its cap {} with slack everywhere",
                    c,
                    served,
                    cap
                );
                let max_rate = |on: &dyn Fn(&Route) -> bool| {
                    (0..routes.len())
                        .filter(|&d| routes[d].as_ref().is_some_and(|rd| on(rd)))
                        .map(|d| a.served_mbps[d])
                        .fold(0.0, f64::max)
                };
                let mut bottlenecked = false;
                if sat_saturated {
                    bottlenecked |= served >= max_rate(&|rd: &Route| rd.sat == r.sat) - TOL;
                }
                if gw_saturated {
                    bottlenecked |=
                        served >= max_rate(&|rd: &Route| rd.gateway == r.gateway) - TOL;
                }
                prop_assert!(
                    bottlenecked,
                    "flow {} is not maximal on any of its saturated resources",
                    c
                );
            }
        }
    }
}
