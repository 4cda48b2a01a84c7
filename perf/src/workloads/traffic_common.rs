//! What the two `traffic_*` workloads share: the scene, the staged replay
//! of `RouteTable::build`, the kernel probes and the routing/allocation
//! oracles.

use crate::harness::{Checks, Metrics, POOL_THREADS};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;
use geodata::City;
use leosim::ephemeris::EphemerisStore;
use leosim::visibility::{PropagatorKind, SimConfig};
use leosim::TimeGrid;
use mpleo::party::PartyId;
use orbital::constellation::Satellite;
use orbital::ground::GroundSite;
use orbital::Vec3;
use scenario::oracle::{check_step_allocation, routes_bits_equal};
use traffic::allocate::{allocate_step, allocate_step_with, AllocScratch};
use traffic::graph::{step_routes_reference, GraphConfig, RouteTable, StepMask};
use traffic::pipeline::{CellGrid, StepKernel, StepScratch};
use traffic::{DemandMatrix, TrafficConfig, TrafficReport};

/// Calls per per-call probe: enough for a 99th percentile.
const PROBE_CALLS: usize = 1000;

/// Everything a traffic body takes as given.
pub struct Scene {
    /// SGP4 ephemeris of the scene's satellites.
    pub store: EphemerisStore,
    /// Terminals, as the engine takes them.
    pub cities: Vec<City>,
    /// The same terminals as ground sites.
    pub sites: Vec<GroundSite>,
    /// Gateways.
    pub gateways: Vec<GroundSite>,
    /// Link configuration (SGP4, default mask).
    pub sim: SimConfig,
    /// The parties.
    pub parties: Vec<PartyId>,
    /// Owner of each store row.
    pub sat_party: Vec<usize>,
    /// Sponsor of each terminal.
    pub city_party: Vec<usize>,
}

impl Scene {
    /// Propagate `sats` over `grid` under SGP4 and assemble the scene;
    /// satellites and terminals are dealt to `n_parties` parties round
    /// robin unless `city_party` says otherwise.
    pub fn build(
        sats: &[Satellite],
        grid: &TimeGrid,
        cities: Vec<City>,
        gateways: Vec<GroundSite>,
        n_parties: usize,
        city_party: Option<Vec<usize>>,
    ) -> Scene {
        let sim = SimConfig { propagator: PropagatorKind::Sgp4, ..SimConfig::default() };
        let store = EphemerisStore::build(sats, grid, &sim);
        let sites = cities.iter().map(City::site).collect();
        Scene {
            sat_party: (0..sats.len()).map(|s| s % n_parties).collect(),
            city_party: city_party
                .unwrap_or_else(|| (0..cities.len()).map(|c| c % n_parties).collect()),
            parties: (0..n_parties).map(|p| PartyId::new(format!("party-{p}"))).collect(),
            store,
            cities,
            sites,
            gateways,
            sim,
        }
    }

    /// The step kernel over this scene.
    pub fn kernel<'a>(&'a self, graph: &'a GraphConfig) -> StepKernel<'a> {
        StepKernel::new(&self.store, &self.sites, &self.gateways, &self.sim, graph)
    }
}

/// The demand matrix exactly as `run_traffic` / `run_campaign` make it.
pub fn scaled_demand(scene: &Scene, cfg: &TrafficConfig) -> DemandMatrix {
    let mut demand = DemandMatrix::generate(&scene.cities, &scene.store.grid, &cfg.demand);
    if cfg.demand_scale != 1.0 {
        for v in &mut demand.offered_mbps {
            *v *= cfg.demand_scale;
        }
    }
    demand
}

/// `RouteTable::build` replayed from outside: the same kernel calls in the
/// same step order, one span per step under `traffic.route_table_build`.
pub fn replay_route_table(scene: &Scene, graph: &GraphConfig, tracer: &mut Tracer) -> RouteTable {
    tracer.span("traffic.route_table_build", |t| {
        let kernel = scene.kernel(graph);
        let mut scratch = StepScratch::default();
        let steps = (0..scene.store.steps())
            .map(|k| t.span("traffic.kernel_routes", |_| kernel.routes(&mut scratch, k, None)))
            .collect();
        RouteTable {
            steps,
            terminals: scene.sites.iter().map(|s| s.name.clone()).collect(),
            gateways: scene.gateways.iter().map(|g| g.name.clone()).collect(),
        }
    })
}

/// A mask with a seeded tenth of the satellites down.
pub fn tenth_down_mask(scene: &Scene, seed: u64) -> StepMask {
    let n = scene.store.sat_count();
    let mut mask = StepMask::nominal(n, scene.gateways.len(), scene.sites.len());
    for s in traffic::sample_failures(seed, n, 0.10) {
        mask.sat_ok[s] = false;
    }
    mask
}

/// `count` steps spread evenly over the grid.
pub fn spread_steps(steps: usize, count: usize) -> Vec<usize> {
    (0..count.min(steps)).map(|i| i * steps / count.min(steps)).collect()
}

/// The kernel must reproduce the brute-force reference bit for bit:
/// checked on `samples`, each `(step, mask)`.
pub fn check_against_reference(
    scene: &Scene,
    graph: &GraphConfig,
    samples: &[(usize, Option<&StepMask>)],
    checks: &mut Checks,
) {
    let kernel = scene.kernel(graph);
    let mut scratch = StepScratch::default();
    for &(k, mask) in samples {
        let fast = kernel.routes(&mut scratch, k, mask);
        let reference = step_routes_reference(
            &scene.store,
            &scene.sites,
            &scene.gateways,
            &scene.sim,
            graph,
            k,
            mask,
        );
        checks.check(
            "kernel routes equal the reference",
            routes_bits_equal(&fast, &reference),
            || format!("step {k} ({})", if mask.is_some() { "masked" } else { "nominal" }),
        );
    }
}

/// On every 10th step: re-route, re-allocate, run the allocation oracle,
/// and tie the step to the body's report through its total served load.
/// `mask_at(k)` is the mask the body routed step `k` under; `offered_at(k)`
/// the load it offered.
pub fn check_allocations(
    scene: &Scene,
    cfg: &TrafficConfig,
    report: &TrafficReport,
    mask_at: impl Fn(usize) -> Option<StepMask>,
    offered_at: impl Fn(usize) -> Vec<f64>,
    checks: &mut Checks,
) {
    let kernel = scene.kernel(&cfg.graph);
    let mut scratch = StepScratch::default();
    let n_gateways = scene.gateways.len();
    for k in (0..scene.store.steps()).step_by(10) {
        let mask = mask_at(k);
        let routes = kernel.routes(&mut scratch, k, mask.as_ref());
        let offered = offered_at(k);
        let alloc = allocate_step(
            &offered,
            &routes,
            cfg.sat_capacity_mbps,
            cfg.gateway_capacity_mbps,
            n_gateways,
        );
        checks.check_result(
            "allocation oracle",
            check_step_allocation(
                k,
                &offered,
                &routes,
                &alloc,
                cfg.sat_capacity_mbps,
                cfg.gateway_capacity_mbps,
                n_gateways,
            ),
        );
        let (redone, reported) = (alloc.total_served(), report.total_served_steps[k]);
        checks.check("reported step equals the re-allocation", redone == reported, || {
            format!("step {k}: re-allocated {redone} Mbps, report says {reported}")
        });
    }
}

/// MiB a route table of `steps × terminals` optional routes takes.
pub fn route_table_mib(steps: usize, terminals: usize) -> f64 {
    (steps * terminals * std::mem::size_of::<Option<traffic::Route>>()) as f64 / (1024.0 * 1024.0)
}

/// Per-call kernel, grid, gather and allocator probes over the scene, plus
/// the table-level build time and its two-thread speed-up. `replayed` is
/// the route table of the last traced repetition, `demand` its demand.
pub fn kernel_probes(
    scene: &Scene,
    cfg: &TrafficConfig,
    demand: &DemandMatrix,
    replayed: &RouteTable,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let graph = &cfg.graph;
    let steps = scene.store.steps();
    let kernel = scene.kernel(graph);
    let us = 1e6;

    // Read off the traced repetitions: per-step kernel calls, table build.
    let per_step = tracer.durations("traffic.kernel_routes");
    m.set("traffic.kernel_routes_us", stats::median(&per_step) * us);
    m.set(
        "traffic.route_table_build_s",
        stats::median(&tracer.durations("traffic.route_table_build")),
    );
    m.set("traffic.route_table_mib", route_table_mib(steps, scene.sites.len()));
    m.set("traffic.routability", replayed.routability());

    // Persistent scratch, nominal: enough calls for a 99th percentile.
    let mut scratch = StepScratch::default();
    kernel.routes(&mut scratch, 0, None);
    let calls = probes::sample(tracer, "traffic.kernel_routes_probe", PROBE_CALLS, |i| {
        kernel.routes(&mut scratch, i % steps, None)
    });
    m.set("traffic.kernel_routes_us_p99", stats::quantile(&calls, 0.99) * us);
    let full = stats::median(&calls);

    let mask = tenth_down_mask(scene, 0x5EED);
    m.set(
        "traffic.kernel_routes_masked_us",
        probes::median_s(tracer, "traffic.kernel_routes_masked", steps.min(200), |i| {
            kernel.routes(&mut scratch, i % steps, Some(&mask))
        }) * us,
    );
    m.set(
        "traffic.kernel_routes_cold_us",
        probes::median_s(tracer, "traffic.kernel_routes_cold", steps.min(100), |i| {
            kernel.routes(&mut StepScratch::default(), i % steps, None)
        }) * us,
    );

    // Stage split by difference: no terminals and no hops is gather + grid
    // + downlink; adding the workload's hops adds the BFS; adding the
    // terminals adds the uplink.
    let bent = GraphConfig { max_hops: 0, ..*graph };
    let no_terminals: [GroundSite; 0] = [];
    let downlink_kernel =
        StepKernel::new(&scene.store, &no_terminals, &scene.gateways, &scene.sim, &bent);
    let hops_kernel =
        StepKernel::new(&scene.store, &no_terminals, &scene.gateways, &scene.sim, graph);
    let n = steps.min(200);
    let downlink = probes::median_s(tracer, "traffic.kernel_downlink", n, |i| {
        downlink_kernel.routes(&mut scratch, i % steps, None)
    });
    let with_hops = probes::median_s(tracer, "traffic.kernel_bfs", n, |i| {
        hops_kernel.routes(&mut scratch, i % steps, None)
    });
    m.set("traffic.kernel_downlink_us", downlink * us);
    m.set("traffic.kernel_bfs_us", (with_hops - downlink).max(0.0) * us);
    m.set("traffic.kernel_uplink_us", (full - with_hops).max(0.0) * us);

    // The reference on a few steps: the prose "at least 2x" as a number.
    let sampled = spread_steps(steps, 4);
    let reference = probes::median_s(tracer, "traffic.step_routes_reference", sampled.len(), |i| {
        step_routes_reference(
            &scene.store,
            &scene.sites,
            &scene.gateways,
            &scene.sim,
            graph,
            sampled[i],
            None,
        )
    });
    m.set("traffic.kernel_vs_reference", reference / full);

    // leosim gather and the cell grid alone.
    let mut positions: Vec<Vec3> = Vec::new();
    m.set(
        "leosim.positions_gather_us",
        probes::median_s(tracer, "leosim.positions_gather", PROBE_CALLS, |i| {
            scene.store.positions_at_step_into(i % steps, &mut positions)
        }) * us,
    );
    let mut grid = CellGrid::default();
    m.set(
        "traffic.grid_rebuild_us",
        probes::median_s(tracer, "traffic.grid_rebuild", PROBE_CALLS, |i| {
            scene.store.positions_at_step_into(i % steps, &mut positions);
            grid.rebuild(&positions, graph.isl_range_km)
        }) * us
            - m.get("leosim.positions_gather_us").expect("set above"),
    );

    // The allocator per step, over the replayed routes.
    let mut alloc = AllocScratch::default();
    let mut offered = Vec::new();
    let n_gateways = scene.gateways.len();
    let calls = probes::sample(tracer, "traffic.allocate_step", PROBE_CALLS, |i| {
        let k = i % steps;
        demand.step_offered_into(k, &mut offered);
        allocate_step_with(
            &mut alloc,
            &offered,
            &replayed.steps[k],
            cfg.sat_capacity_mbps,
            cfg.gateway_capacity_mbps,
            n_gateways,
        )
    });
    m.set("traffic.allocate_us", stats::median(&calls) * us);
    m.set("traffic.allocate_us_p99", stats::quantile(&calls, 0.99) * us);

    // What the second thread buys on the table build.
    let build = |_: usize| {
        RouteTable::build(&scene.store, &scene.sites, &scene.gateways, &scene.sim, graph)
    };
    let one = probes::median_s(tracer, "traffic.route_table_build_1t", 3, build);
    let two = simrt::with_thread_cap(POOL_THREADS, || {
        probes::median_s(tracer, "traffic.route_table_build_2t", 3, build)
    });
    m.set("simrt.speedup_2t.route_table", one / two);
}

/// `leosim.ephemeris_*` for a traffic scene: one more build of its store.
pub fn ephemeris_probes(scene: &Scene, sats: &[Satellite], tracer: &mut Tracer, m: &mut Metrics) {
    let grid = &scene.store.grid;
    let build_s = probes::median_s(tracer, "leosim.ephemeris_build", 2, |_| {
        EphemerisStore::build(sats, grid, &scene.sim)
    });
    probes::set_ephemeris_metrics(m, sats.len(), grid.steps, build_s);
}
