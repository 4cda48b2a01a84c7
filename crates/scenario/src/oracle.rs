//! Cross-layer invariant oracles over one scenario run.
//!
//! [`check_scenario`] drives a generated [`Scenario`] through the whole
//! stack — ephemeris build, step-kernel routing, max-min allocation, churn
//! campaign, market settlement — and checks every invariant the layers
//! promise each other:
//!
//! 1. **allocation-feasible** — no flow exceeds its offered load or access
//!    link; no satellite or gateway exceeds its capacity; unrouted cities
//!    get nothing.
//! 2. **flow-conservation** — per step, the served rates sum to the
//!    satellite-carried and gateway-carried totals, and each resource's
//!    recorded load equals the sum of its member flows.
//! 3. **max-min** — the bottleneck characterization of max-min fairness: a
//!    flow below its individual cap must cross a saturated resource on
//!    which no co-member receives more.
//! 4. **kernel-reference** — on sampled steps the grid-pruned
//!    [`StepKernel`] reproduces the brute-force
//!    [`step_routes_reference`] bit for bit, mask included.
//! 5. **nominal-reuse** — an explicit all-up [`StepMask`] reproduces the
//!    baseline (unmasked) snapshot bit for bit, so the campaign's
//!    baseline-reuse of undisturbed steps is sound.
//! 6. **report-consistency** — the campaign's per-step served totals are
//!    bit-identical to an independent sequential re-allocation, and the
//!    per-party series sum back to the totals.
//! 7. **recovery** — steps whose rolled churn state is nominal show a
//!    deficit of exactly zero, and a fully-healing schedule reports
//!    recovery.
//! 8. **settlement-zero-sum** / **order-signature** / **notice-signature**
//!    — the cleared market transfers sum to zero and every order and
//!    withdrawal notice carries a valid signature.
//! 9. **thread-identity** — the whole campaign report serializes to the
//!    same JSON under `MPLEO_THREADS=1` and `=4`.
//!
//! The per-step checks are pure functions of plain data
//! ([`check_step_allocation`]), so the unit tests can feed them
//! deliberately broken allocations (mutation testing) and the shrinker can
//! replay them cheaply.

use crate::gen::{Built, Scenario};
use crate::seeds;
use leosim::montecarlo::{run_rng, sample_indices};
use orbital::ground::GroundSite;
use traffic::allocate::allocate_step;
use traffic::churn::{roll_states, run_campaign_with_routes, CampaignReport};
use traffic::graph::{step_routes_reference, RouteTable, StepMask, StepRoutes};
use traffic::market::party_keys;
use traffic::pipeline::{StepKernel, StepScratch};
use traffic::StepAllocation;

/// Saturation/fairness slack shared with the allocator's property tests:
/// the allocator freezes at `1e-9` residuals, so with magnitudes up to a
/// few thousand Mbps any real violation dwarfs this.
pub const TOL: f64 = 1e-5;

/// Steps spot-checked against the brute-force reference kernel per
/// scenario (the full check would be quadratic in satellites × steps).
const REFERENCE_SAMPLES: usize = 6;

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// Stable oracle name (see the module docs).
    pub oracle: String,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &str, detail: String) -> Violation {
        Violation { oracle: oracle.to_string(), detail }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Summary of a clean run (for fuzz-loop logging).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScenarioOutcome {
    /// Satellites in the shell.
    pub n_sats: usize,
    /// Grid steps checked.
    pub steps: usize,
    /// Served / offered over the churn run.
    pub served_ratio: f64,
    /// Worst per-step deficit fraction.
    pub worst_deficit: f64,
    /// Trades the market cleared.
    pub trades: usize,
    /// Steps compared against the brute-force reference.
    pub reference_steps: usize,
}

/// An allocator the harness can be parameterized with — the production
/// [`allocate_step`] by default, or a deliberately broken one in mutation
/// tests proving the oracles have teeth.
pub type AllocatorFn<'a> = &'a dyn Fn(&[f64], &StepRoutes, f64, f64, usize) -> StepAllocation;

/// Feasibility + flow conservation + the max-min bottleneck condition for
/// one step's allocation. Pure function of its arguments so mutation tests
/// can feed it arbitrary (broken) allocations.
pub fn check_step_allocation(
    step: usize,
    offered: &[f64],
    routes: &StepRoutes,
    alloc: &StepAllocation,
    sat_cap: f64,
    gw_cap: f64,
    n_gateways: usize,
) -> Result<(), Violation> {
    let n = offered.len();
    if alloc.served_mbps.len() != n || routes.routes.len() != n {
        return Err(Violation::new(
            "allocation-feasible",
            format!(
                "step {step}: city-count mismatch ({n} offered, {} served)",
                alloc.served_mbps.len()
            ),
        ));
    }

    // 1. Feasibility per flow and per shared resource.
    for (c, &served) in alloc.served_mbps.iter().enumerate() {
        match &routes.routes[c] {
            Some(r) => {
                let cap = offered[c].min(r.access_mbps);
                if !(0.0..=cap + TOL).contains(&served) {
                    return Err(Violation::new(
                        "allocation-feasible",
                        format!("step {step} city {c}: served {served} outside [0, {cap}]"),
                    ));
                }
            }
            None => {
                if served != 0.0 {
                    return Err(Violation::new(
                        "allocation-feasible",
                        format!("step {step} city {c}: served {served} without a route"),
                    ));
                }
            }
        }
    }
    for (&s, &carried) in &alloc.sat_carried {
        if carried > sat_cap + TOL {
            return Err(Violation::new(
                "allocation-feasible",
                format!("step {step} sat {s}: carried {carried} > capacity {sat_cap}"),
            ));
        }
    }
    for (g, &carried) in alloc.gateway_carried.iter().enumerate() {
        if carried > gw_cap + TOL {
            return Err(Violation::new(
                "allocation-feasible",
                format!("step {step} gateway {g}: carried {carried} > capacity {gw_cap}"),
            ));
        }
    }

    // 2. Flow conservation: each resource's recorded load is the sum of
    //    its member flows, and the three totals agree.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 + 1e-9 * a.abs().max(b.abs());
    for (&s, &carried) in &alloc.sat_carried {
        let members: f64 = (0..n)
            .filter(|&c| routes.routes[c].as_ref().is_some_and(|r| r.sat == s))
            .map(|c| alloc.served_mbps[c])
            .sum();
        if !close(carried, members) {
            return Err(Violation::new(
                "flow-conservation",
                format!("step {step} sat {s}: carried {carried} != member sum {members}"),
            ));
        }
    }
    if alloc.gateway_carried.len() != n_gateways {
        return Err(Violation::new(
            "flow-conservation",
            format!(
                "step {step}: {} gateway rows, expected {n_gateways}",
                alloc.gateway_carried.len()
            ),
        ));
    }
    for (g, &carried) in alloc.gateway_carried.iter().enumerate() {
        let members: f64 = (0..n)
            .filter(|&c| routes.routes[c].as_ref().is_some_and(|r| r.gateway == g))
            .map(|c| alloc.served_mbps[c])
            .sum();
        if !close(carried, members) {
            return Err(Violation::new(
                "flow-conservation",
                format!("step {step} gateway {g}: carried {carried} != member sum {members}"),
            ));
        }
    }
    let served_total: f64 = alloc.served_mbps.iter().sum();
    let sat_total: f64 = alloc.sat_carried.values().sum();
    let gw_total: f64 = alloc.gateway_carried.iter().sum();
    if !close(served_total, sat_total) || !close(served_total, gw_total) {
        return Err(Violation::new(
            "flow-conservation",
            format!("step {step}: served {served_total} vs sat {sat_total} vs gateway {gw_total}"),
        ));
    }

    // 3. Max-min bottleneck condition: a flow below its individual cap
    //    must cross a saturated resource on which it is maximal.
    for (c, &served) in alloc.served_mbps.iter().enumerate() {
        let Some(r) = &routes.routes[c] else { continue };
        let cap = offered[c].min(r.access_mbps);
        if cap <= TOL || served >= cap - TOL {
            continue; // individually capped: nothing to redistribute
        }
        let sat_carried = alloc.sat_carried.get(&r.sat).copied().unwrap_or(0.0);
        let sat_saturated = sat_carried >= sat_cap - TOL;
        let gw_saturated = alloc.gateway_carried[r.gateway] >= gw_cap - TOL;
        if !sat_saturated && !gw_saturated {
            return Err(Violation::new(
                "max-min",
                format!(
                    "step {step} city {c}: served {served} below cap {cap} with slack everywhere"
                ),
            ));
        }
        let max_rate = |on: &dyn Fn(&traffic::graph::Route) -> bool| {
            (0..n)
                .filter(|&d| routes.routes[d].as_ref().is_some_and(on))
                .map(|d| alloc.served_mbps[d])
                .fold(0.0, f64::max)
        };
        let mut bottlenecked = false;
        if sat_saturated {
            bottlenecked |= served >= max_rate(&|rd| rd.sat == r.sat) - TOL;
        }
        if gw_saturated {
            bottlenecked |= served >= max_rate(&|rd| rd.gateway == r.gateway) - TOL;
        }
        if !bottlenecked {
            return Err(Violation::new(
                "max-min",
                format!(
                    "step {step} city {c}: served {served} not maximal on any saturated resource"
                ),
            ));
        }
    }
    Ok(())
}

/// Exact bit equality of two step snapshots (f64 fields compared by bits,
/// so `-0.0` vs `0.0` or NaN payload drift is caught too).
pub fn routes_bits_equal(a: &StepRoutes, b: &StepRoutes) -> bool {
    a.routes.len() == b.routes.len()
        && a.routes.iter().zip(&b.routes).all(|(ra, rb)| match (ra, rb) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.sat == y.sat
                    && x.gateway == y.gateway
                    && x.hops == y.hops
                    && x.path_km.to_bits() == y.path_km.to_bits()
                    && x.latency_ms.to_bits() == y.latency_ms.to_bits()
                    && x.access_mbps.to_bits() == y.access_mbps.to_bits()
            }
            _ => false,
        })
}

/// Run every oracle over the scenario with the production allocator.
pub fn check_scenario(sc: &Scenario) -> Result<ScenarioOutcome, Violation> {
    check_scenario_with(sc, &|offered, routes, sat_cap, gw_cap, n_gw| {
        allocate_step(offered, routes, sat_cap, gw_cap, n_gw)
    })
}

/// [`check_scenario`] with a caller-supplied allocator for the independent
/// re-allocation pass — the hook the mutation tests use to prove a broken
/// max-min allocator is caught.
pub fn check_scenario_with(
    sc: &Scenario,
    allocator: AllocatorFn<'_>,
) -> Result<ScenarioOutcome, Violation> {
    let built = sc.build();
    let Built { store, sim, cities, gateways, parties, sat_party, city_party, cfg, .. } = &built;
    let steps = store.steps();
    let n_sats = store.sat_count();
    let n_gateways = gateways.len();
    let sites: Vec<GroundSite> = cities.iter().map(|c| c.site()).collect();

    // Stage 1: demand, exactly as `run_campaign` scales it.
    let demand = cfg.traffic.demand_matrix(cities, &store.grid);

    // Stage 2: baseline routing and the rolled churn states/masks.
    let baseline = RouteTable::build(store, &sites, gateways, sim, &cfg.traffic.graph);
    let states = roll_states(&cfg.schedule, steps, n_sats, n_gateways, parties.len(), cities);
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
    let kernel = StepKernel::new(store, &sites, gateways, sim, &cfg.traffic.graph);
    let mut scratch = StepScratch::default();
    let churn_routes: Vec<StepRoutes> = (0..steps)
        .map(|k| match &masks[k] {
            None => baseline.steps[k].clone(),
            Some(m) => kernel.routes(&mut scratch, k, Some(m)),
        })
        .collect();

    // Oracle: grid kernel ≡ brute-force reference on sampled steps (mask
    // included), and nominal-mask identity with the baseline snapshot.
    let mut sampler = run_rng(sc.seed, seeds::STREAM_ORACLE_SAMPLE);
    let sampled = sample_indices(&mut sampler, steps, REFERENCE_SAMPLES.min(steps));
    for &k in &sampled {
        let reference = step_routes_reference(
            store,
            &sites,
            gateways,
            sim,
            &cfg.traffic.graph,
            k,
            masks[k].as_ref(),
        );
        if !routes_bits_equal(&churn_routes[k], &reference) {
            return Err(Violation::new(
                "kernel-reference",
                format!("step {k}: grid kernel diverges from the brute-force reference"),
            ));
        }
        if masks[k].is_none() {
            let nominal = StepMask::nominal(n_sats, n_gateways, cities.len());
            let masked = kernel.routes(&mut scratch, k, Some(&nominal));
            if !routes_bits_equal(&masked, &baseline.steps[k]) {
                return Err(Violation::new(
                    "nominal-reuse",
                    format!("step {k}: all-up mask diverges from the unmasked snapshot"),
                ));
            }
        }
    }

    // Stage 3: independent sequential re-allocation over the churn routes
    // with the (possibly mutated) allocator, checked per step.
    let mut churn_demand = demand.clone();
    for (c, &party) in city_party.iter().enumerate() {
        for (k, st) in states.iter().enumerate() {
            if st.party_withdrawn[party] {
                churn_demand.offered_mbps[c * steps + k] = 0.0;
            }
        }
    }
    let mut offered = Vec::new();
    let mut served_totals = Vec::with_capacity(steps);
    for (k, step_routes) in churn_routes.iter().enumerate() {
        churn_demand.step_offered_into(k, &mut offered);
        let alloc = allocator(
            &offered,
            step_routes,
            cfg.traffic.sat_capacity_mbps,
            cfg.traffic.gateway_capacity_mbps,
            n_gateways,
        );
        check_step_allocation(
            k,
            &offered,
            step_routes,
            &alloc,
            cfg.traffic.sat_capacity_mbps,
            cfg.traffic.gateway_capacity_mbps,
            n_gateways,
        )?;
        served_totals.push(alloc.total_served());
    }

    // Stage 4: the campaign engine over the same scenario.
    let run = || {
        run_campaign_with_routes(
            store, cities, gateways, sim, &demand, &baseline, cfg, sat_party, city_party, parties,
        )
    };
    let report = run();
    check_report(sc, &built, &states, &served_totals, &report)?;

    // Oracle: thread bit-identity — the full report serializes identically
    // at 1 worker and 4.
    let json_1 = simrt::with_thread_cap(1, || serde_json::to_string(&run()).expect("report JSON"));
    let json_n = simrt::with_thread_cap(4, || serde_json::to_string(&run()).expect("report JSON"));
    if json_1 != json_n {
        let at = json_1.bytes().zip(json_n.bytes()).position(|(a, b)| a != b);
        return Err(Violation::new(
            "thread-identity",
            format!("campaign JSON differs between 1 and 4 threads (first byte {at:?})"),
        ));
    }

    Ok(ScenarioOutcome {
        n_sats,
        steps,
        served_ratio: report.churn.served_ratio(),
        worst_deficit: report.worst_deficit(),
        trades: report.trades,
        reference_steps: sampled.len(),
    })
}

/// The report-level oracles: consistency with the independent
/// re-allocation, party accounting, recovery, settlement, signatures.
fn check_report(
    sc: &Scenario,
    built: &Built,
    states: &[traffic::ChurnState],
    served_totals: &[f64],
    report: &CampaignReport,
) -> Result<(), Violation> {
    let steps = report.churn.steps;

    // Consistency: the engine's served totals match the sequential
    // re-allocation bit for bit (when the production allocator is used).
    for (k, (&ours, &engines)) in
        served_totals.iter().zip(&report.churn.total_served_steps).enumerate()
    {
        if ours.to_bits() != engines.to_bits() {
            return Err(Violation::new(
                "report-consistency",
                format!("step {k}: engine served {engines}, re-allocation served {ours}"),
            ));
        }
    }
    // Party accounting closes: per-step party sums reproduce the totals,
    // and served never exceeds offered.
    let n_parties = report.churn.parties.len();
    for k in 0..steps {
        let po: f64 = (0..n_parties).map(|p| report.churn.party_offered[p * steps + k]).sum();
        let ps: f64 = (0..n_parties).map(|p| report.churn.party_served[p * steps + k]).sum();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 + 1e-9 * a.abs().max(b.abs());
        if !close(po, report.churn.total_offered_steps[k])
            || !close(ps, report.churn.total_served_steps[k])
        {
            return Err(Violation::new(
                "report-consistency",
                format!("step {k}: party sums ({po}, {ps}) diverge from totals"),
            ));
        }
        if report.churn.total_served_steps[k] > report.churn.total_offered_steps[k] + 1e-6 {
            return Err(Violation::new(
                "report-consistency",
                format!(
                    "step {k}: served {} exceeds offered {}",
                    report.churn.total_served_steps[k], report.churn.total_offered_steps[k]
                ),
            ));
        }
    }

    // Recovery: nominal steps reuse the baseline bit for bit, so their
    // deficit is exactly zero; fully-healing schedules must report
    // recovery.
    for (k, st) in states.iter().enumerate() {
        if st.is_nominal() && report.deficit_fraction[k] != 0.0 {
            return Err(Violation::new(
                "recovery",
                format!("nominal step {k} shows deficit {}", report.deficit_fraction[k]),
            ));
        }
    }
    if !sc.schedule.events.is_empty() && sc.fully_heals() && !report.recovered() {
        return Err(Violation::new(
            "recovery",
            "schedule fully heals but the campaign never recovered".to_string(),
        ));
    }

    // Settlement: zero-sum transfers, verifiable orders and notices.
    let net = report.settlement_net();
    if net.abs() > 1e-6 {
        return Err(Violation::new(
            "settlement-zero-sum",
            format!("settlement transfers sum to {net}"),
        ));
    }
    let keys = party_keys(&built.parties, &built.cfg.key_seed);
    for o in &report.orders {
        if !dcp::market::verify_order(&keys, o) {
            return Err(Violation::new(
                "order-signature",
                format!("order seq {} by {} fails verification", o.sequence, o.party),
            ));
        }
    }
    for n in &report.notices {
        let bytes =
            dcp::messages::WithdrawalNotice::signing_bytes(&n.party, &n.sat_ids, n.effective_s);
        if !keys.verify(&n.party, &bytes, &n.signature) {
            return Err(Violation::new(
                "notice-signature",
                format!("withdrawal notice by {} fails verification", n.party),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::{shrink, Repro};
    use traffic::graph::Route;

    fn route(sat: usize, gateway: usize, access_mbps: f64) -> Option<Route> {
        Some(Route { sat, gateway, hops: 0, path_km: 1000.0, latency_ms: 5.0, access_mbps })
    }

    #[test]
    fn clean_scenarios_pass_every_oracle() {
        for seed in [0u64, 1, 2] {
            let sc = Scenario::generate(seed);
            let outcome = check_scenario(&sc)
                .unwrap_or_else(|v| panic!("seed {seed} violated an invariant: {v}"));
            assert_eq!(outcome.steps, sc.steps());
            assert!(outcome.reference_steps > 0, "reference oracle must sample steps");
        }
    }

    #[test]
    fn step_oracle_accepts_the_production_allocator() {
        let routes = StepRoutes {
            routes: vec![route(0, 0, 200.0), route(0, 1, 1e9), route(1, 0, 1e9), None],
        };
        let offered = [120.0, 300.0, 80.0, 10.0];
        let alloc = allocate_step(&offered, &routes, 250.0, 260.0, 2);
        check_step_allocation(0, &offered, &routes, &alloc, 250.0, 260.0, 2).unwrap();
    }

    #[test]
    fn step_oracle_accepts_a_step_with_a_sub_eps_filling_round() {
        // Satellite 0 is emptied by an increment below the allocator's
        // freeze threshold; flow 3 on satellite 2 must still fill up
        // (`allocate::tests::a_resource_emptied_by_a_sub_eps_round_...`).
        let routes = StepRoutes {
            routes: vec![route(0, 0, 1e9), route(0, 0, 1e9), route(1, 1, 1e9), route(2, 1, 1e9)],
        };
        let offered = [500.0, 500.0, 50.0 - 0.9e-9, 1000.0];
        let alloc = allocate_step(&offered, &routes, 100.0, 1e9, 2);
        check_step_allocation(0, &offered, &routes, &alloc, 100.0, 1e9, 2).unwrap();
    }

    #[test]
    fn over_capacity_allocation_is_caught() {
        let routes = StepRoutes { routes: vec![route(3, 0, 1e9)] };
        let mut alloc = allocate_step(&[50.0], &routes, 1e9, 1e9, 1);
        alloc.served_mbps[0] = 80.0; // above the offered load
        let v = check_step_allocation(4, &[50.0], &routes, &alloc, 1e9, 1e9, 1).unwrap_err();
        assert_eq!(v.oracle, "allocation-feasible", "{v}");
    }

    #[test]
    fn leaky_accounting_is_caught() {
        let routes = StepRoutes { routes: vec![route(2, 0, 1e9), route(2, 0, 1e9)] };
        let offered = [40.0, 40.0];
        let mut alloc = allocate_step(&offered, &routes, 1e9, 1e9, 1);
        *alloc.sat_carried.get_mut(&2).unwrap() += 25.0; // phantom carried load
        let v = check_step_allocation(0, &offered, &routes, &alloc, 1e9, 1e9, 1).unwrap_err();
        assert_eq!(v.oracle, "flow-conservation", "{v}");
    }

    #[test]
    fn unfair_but_feasible_allocation_is_caught() {
        // Two equal flows share a saturated satellite; giving one flow the
        // lion's share stays feasible and conserving but breaks max-min.
        let routes = StepRoutes { routes: vec![route(0, 0, 1e9), route(0, 0, 1e9)] };
        let offered = [500.0, 500.0];
        let alloc = StepAllocation {
            served_mbps: vec![90.0, 10.0],
            sat_carried: [(0, 100.0)].into(),
            gateway_carried: vec![100.0],
        };
        let v = check_step_allocation(0, &offered, &routes, &alloc, 100.0, 1e9, 1).unwrap_err();
        assert_eq!(v.oracle, "max-min", "{v}");
    }

    /// The acceptance-criteria mutation test: a broken max-min allocator
    /// (uniformly halving every served rate keeps the allocation feasible
    /// and flow-conserving but leaves slack everywhere) must be caught by
    /// the whole-scenario harness and shrunk to a one-line JSON repro.
    #[test]
    fn broken_max_min_is_caught_and_shrinks_to_a_tiny_repro() {
        let halved: AllocatorFn<'_> = &|offered, routes, sat_cap, gw_cap, n_gw| {
            let mut alloc = allocate_step(offered, routes, sat_cap, gw_cap, n_gw);
            for r in &mut alloc.served_mbps {
                *r *= 0.5;
            }
            for v in alloc.sat_carried.values_mut() {
                *v *= 0.5;
            }
            for v in &mut alloc.gateway_carried {
                *v *= 0.5;
            }
            alloc
        };
        // Find a seed the mutation bites on (any scenario that serves
        // traffic); the generator makes these overwhelmingly common.
        let (sc, violation) = (0u64..20)
            .find_map(|seed| {
                let sc = Scenario::generate(seed);
                check_scenario_with(&sc, halved).err().map(|v| (sc, v))
            })
            .expect("a halved allocator must violate max-min on some seed");
        assert_eq!(violation.oracle, "max-min", "{violation}");

        let fails = |candidate: &Scenario| check_scenario_with(candidate, halved).err();
        let small = shrink(&sc, &violation.oracle, 200, fails);
        let final_violation =
            check_scenario_with(&small, halved).expect_err("shrunk scenario still fails");
        assert_eq!(final_violation.oracle, "max-min");
        assert!(
            small.schedule.events.len() <= sc.schedule.events.len()
                && small.n_sats() <= sc.n_sats()
                && small.cities.len() <= sc.cities.len(),
            "shrinking must not grow the scenario"
        );
        let repro = Repro::new(&small, &final_violation);
        let json = repro.to_json();
        assert!(
            json.lines().count() <= 5,
            "repro must be at most 5 lines, got {}:\n{json}",
            json.lines().count()
        );
        // And the repro replays: parsing it back reproduces the violation.
        let replayed = Repro::from_json(&json).expect("repro parses");
        let v = check_scenario_with(&replayed.scenario, halved).unwrap_err();
        assert_eq!(v.oracle, "max-min");
    }
}
