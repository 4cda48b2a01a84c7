//! `traffic_dense_terminals`: the traffic engine with the load inverted.
//!
//! Set-up draws a seeded 600-satellite sample of the Gen1 pool, propagates
//! it under SGP4 over a 120 s grid, and splits every paper city into 100
//! seeded sites within ±2° that each carry 1/100 of its population: 2100
//! terminals, 21 parties (one per city), a gateway at every city. The
//! satellite capacity is tightened until about half the offered load is
//! served. The body is `run_traffic` with `max_hops = 0` (bent pipe, so the
//! ISL search does nothing while 2100 uplink searches and multi-round
//! max-min filling over contended satellites dominate), then
//! `summarize_epochs`, `epoch_orders` and `clear_market` over the 21
//! parties' order flow.

use super::traffic_common::{self as common, Scene};
use crate::digest;
use crate::harness::{Checks, Metrics, Size, Workload};
use crate::probes;
use crate::stats;
use crate::trace::{span_if, Tracer};
use dcp::market::OrderBook;
use dcp::messages::MarketOrder;
use dcp::KeyDirectory;
use geodata::{paper_cities, City};
use leosim::montecarlo::sample_indices;
use leosim::TimeGrid;
use mpleo_bench::scenario_epoch;
use orbital::constellation::{starlink_gen1_pool, Satellite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::corpus::load_corpus;
use scenario::oracle::check_scenario;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use traffic::graph::{gateways_every_nth, RouteTable};
use traffic::market::{clear_market, epoch_orders, party_keys, summarize_epochs};
use traffic::{run_traffic, run_traffic_with_routes, DemandMatrix, TrafficConfig, TrafficReport};

/// Sites each paper city is split into.
const SITES_PER_CITY: usize = 100;

/// Satellite throughput cap, Mbps, at which about half of the offered load
/// of the full-size scene is served (the engine's default is 17 000; the
/// served ratio reads 0.50 ± 0.01 at this cap on every seed tried).
const SAT_CAPACITY_MBPS: f64 = 1_800.0;

/// Where the pinned fuzz corpus lives, from the root of a checkout.
const CORPUS_DIR: &str = "tests/corpus";

/// Scenarios the `scenario.check_ms_p50` probe checks.
const FUZZ_SEEDS: u64 = 100;

/// What the body produces.
#[derive(Serialize)]
struct Output {
    report: TrafficReport,
    orders: Vec<MarketOrder>,
    settlement: BTreeMap<String, f64>,
    trades: usize,
}

/// See the module documentation.
pub struct TrafficDenseTerminals {
    seed: u64,
    size: Size,
    sample: usize,
    sites_per_city: usize,
    horizon_s: f64,
    step_s: f64,
    epoch_steps: usize,
    sats: Vec<Satellite>,
    scene: Option<Scene>,
    keys: KeyDirectory,
    cfg: TrafficConfig,
    output: Option<Output>,
    /// Demand and routes of the last traced repetition.
    replayed: Option<(DemandMatrix, RouteTable)>,
}

/// Site names, interned once per process: `City::name` is `&'static str`,
/// so a name made at run time has to be leaked, and repeated set-ups must
/// not leak again.
fn site_name(city: usize, site: usize) -> &'static str {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        paper_cities()
            .iter()
            .flat_map(|c| (0..SITES_PER_CITY).map(move |s| &*format!("{}#{s:02}", c.name).leak()))
            .collect()
    })[city * SITES_PER_CITY + site]
}

impl TrafficDenseTerminals {
    /// The workload at `size`, with inputs made from `seed`.
    pub fn new(seed: u64, size: Size) -> TrafficDenseTerminals {
        let (sample, sites_per_city, horizon_s, step_s) = match size {
            Size::Full => (600, SITES_PER_CITY, 14_400.0, 120.0),
            Size::Smoke => (120, 3, 3_600.0, 120.0),
        };
        TrafficDenseTerminals {
            seed,
            size,
            sample,
            sites_per_city,
            horizon_s,
            step_s,
            epoch_steps: 15,
            sats: Vec::new(),
            scene: None,
            keys: KeyDirectory::new(),
            cfg: TrafficConfig::default(),
            output: None,
            replayed: None,
        }
    }

    fn scene(&self) -> &Scene {
        self.scene.as_ref().expect("set-up ran")
    }

    fn output(&self) -> &Output {
        self.output.as_ref().expect("a body ran")
    }

    /// The market stages over a finished report.
    fn market(&self, report: TrafficReport, tracer: Option<&mut Tracer>) -> Output {
        let (orders, settlement, trades) = span_if(tracer, "traffic.market", || {
            let summaries = summarize_epochs(&report, self.epoch_steps);
            let orders = epoch_orders(&summaries, &self.keys, 1.0);
            let book: OrderBook = clear_market(&orders);
            (orders, book.settlement(), book.trades().len())
        });
        Output { report, orders, settlement, trades }
    }
}

/// Every paper city split into `per_city` seeded sites, with the party
/// (the city's index) of each.
fn dense_terminals(seed: u64, per_city: usize) -> (Vec<City>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut terminals = Vec::new();
    let mut party = Vec::new();
    for (c, city) in paper_cities().iter().enumerate() {
        for s in 0..per_city {
            terminals.push(City {
                name: site_name(c, s),
                country: city.country,
                lat_deg: (city.lat_deg + rng.gen_range(-2.0..2.0f64)).clamp(-89.0, 89.0),
                lon_deg: city.lon_deg + rng.gen_range(-2.0..2.0f64),
                population_m: city.population_m / per_city as f64,
            });
            party.push(c);
        }
    }
    (terminals, party)
}

impl Workload for TrafficDenseTerminals {
    fn name(&self) -> &'static str {
        "traffic_dense_terminals"
    }

    fn sim_span_s(&self) -> f64 {
        self.horizon_s
    }

    fn consumes_setup(&self) -> bool {
        false
    }

    fn uses_pool(&self) -> bool {
        true
    }

    fn setup(&mut self) {
        self.scene = None;
        let epoch = scenario_epoch();
        let pool = starlink_gen1_pool(epoch);
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.sats = sample_indices(&mut rng, pool.len(), self.sample)
            .into_iter()
            .map(|i| pool[i].clone())
            .collect();
        let grid = TimeGrid::new(epoch, self.horizon_s, self.step_s);
        let (terminals, city_party) = dense_terminals(self.seed, self.sites_per_city);
        let cities = paper_cities();
        let gateways = gateways_every_nth(&cities, 1);
        let scene =
            Scene::build(&self.sats, &grid, terminals, gateways, cities.len(), Some(city_party));
        self.keys = party_keys(&scene.parties, b"dense-terminals");
        let mut cfg = TrafficConfig::default();
        cfg.graph.max_hops = 0;
        cfg.demand.seed = self.seed;
        cfg.sat_capacity_mbps = SAT_CAPACITY_MBPS;
        self.cfg = cfg;
        self.scene = Some(scene);
    }

    fn body(&mut self) {
        let s = self.scene();
        let report = run_traffic(
            &s.store,
            &s.cities,
            &s.gateways,
            &s.sim,
            &self.cfg,
            &s.sat_party,
            &s.city_party,
            &s.parties,
        );
        self.output = Some(self.market(report, None));
    }

    fn digest(&mut self) -> String {
        digest::of(self.output())
    }

    fn check(&mut self, checks: &mut Checks) {
        let (scene, out) = (self.scene(), self.output());
        let net: f64 = out.settlement.values().sum();
        checks.check("settlement sums to zero", net.abs() < 1e-6, || format!("nets {net}"));

        // Eight steps against the reference: four nominal, four under a
        // seeded 10 %-down mask.
        let mask = common::tenth_down_mask(scene, self.seed);
        let steps = common::spread_steps(scene.store.steps(), 8);
        let samples: Vec<_> =
            steps.iter().enumerate().map(|(i, &k)| (k, (i % 2 == 1).then_some(&mask))).collect();
        common::check_against_reference(scene, &self.cfg.graph, &samples, checks);

        let demand = common::scaled_demand(scene, &self.cfg);
        common::check_allocations(
            scene,
            &self.cfg,
            &out.report,
            |_| None,
            |k| demand.step_offered(k),
            checks,
        );
    }

    fn traced_body(&mut self, tracer: &mut Tracer) {
        let s = self.scene.as_ref().expect("set-up ran");
        let demand =
            tracer.span("traffic.demand_generate", |_| common::scaled_demand(s, &self.cfg));
        let routes = common::replay_route_table(s, &self.cfg.graph, tracer);
        let report = tracer.span("traffic.engine", |_| {
            run_traffic_with_routes(
                &demand,
                &routes,
                &self.cfg,
                &s.sat_party,
                &s.city_party,
                &s.parties,
            )
        });
        self.output = Some(self.market(report, Some(tracer)));
        self.replayed = Some((demand, routes));
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, m: &mut Metrics, checks: &mut Checks) {
        let (scene, out) = (self.scene(), self.output());
        let (demand, routes) = self.replayed.as_ref().expect("a traced repetition ran");
        m.set(
            "traffic.demand_generate_ms",
            stats::median(&tracer.durations("traffic.demand_generate")) * 1e3,
        );
        m.set("traffic.engine_s", stats::median(&tracer.durations("traffic.engine")));
        m.set("traffic.market_ms", stats::median(&tracer.durations("traffic.market")) * 1e3);
        m.set("traffic.orders", out.orders.len() as f64);
        m.set("traffic.trades", out.trades as f64);
        m.set("traffic.served_ratio", out.report.served_ratio());
        common::kernel_probes(scene, &self.cfg, demand, routes, tracer, m);
        common::ephemeris_probes(scene, &self.sats, tracer, m);
        probes::orbital_probes(tracer, m, &self.sats);
        scenario_probes(self.seed, self.size, tracer, m, checks);
        probes::simrt_probes(tracer, m, self);
    }
}

/// `scenario.*`: the whole stack at small N — scenario generation, the
/// pinned corpus, and the oracle sweep over seeds made from `--seed`.
fn scenario_probes(
    seed: u64,
    size: Size,
    tracer: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let seeds = if size == Size::Full { FUZZ_SEEDS } else { 3 };
    m.set(
        "scenario.generate_us",
        probes::median_s(tracer, "scenario.generate", seeds as usize, |i| {
            scenario::Scenario::generate(seed.wrapping_add(i as u64))
        }) * 1e6,
    );
    let mut violations = 0u64;
    match load_corpus(Path::new(CORPUS_DIR)) {
        Ok(corpus) => {
            let s = probes::median_s(tracer, "scenario.corpus_check", 3, |_| {
                corpus.iter().filter(|(_, entry)| entry.check().is_err()).count()
            });
            m.set("scenario.corpus_check_ms", s * 1e3);
            for (path, entry) in &corpus {
                let result = entry.check().map(drop);
                violations += result.is_err() as u64;
                checks.check_result(&format!("corpus entry {}", path.display()), result);
            }
        }
        Err(e) => checks.check("the pinned corpus loads", false, || e),
    }
    let mut per_seed = Vec::with_capacity(seeds as usize);
    for i in 0..seeds {
        let sc = scenario::Scenario::generate(seed.wrapping_mul(1_000_003).wrapping_add(i));
        let t = std::time::Instant::now();
        let result = tracer.span("scenario.check_scenario", |_| check_scenario(&sc)).map(drop);
        per_seed.push(t.elapsed().as_secs_f64());
        violations += result.is_err() as u64;
        checks.check_result("scenario oracles", result);
    }
    m.set("scenario.check_ms_p50", stats::median(&per_seed) * 1e3);
    m.set("scenario.violations", violations as f64);
}
