//! `traffic_megashell`: a churn campaign over the whole Gen1 pool.
//!
//! Set-up synthesises the full `starlink_gen1_pool`, propagates it under
//! SGP4 over a 60 s grid, places terminals at the 21 paper cities and a
//! gateway at every third, deals satellites and cities to 3 parties, and
//! draws a churn schedule from `--seed`: 10 % of the satellites fail at
//! 25 % of the horizon and heal at 60 %, one party withdraws at 40 % and
//! rejoins at 75 %, one gateway is dark from 10 % to 20 %, and one region
//! is degraded from 80 % to 90 %. The body is one
//! `traffic::churn::run_campaign` with 4 ISL hops at 3000 km: baseline
//! `RouteTable::build`, masked re-routing of every disturbed step, both
//! engine passes and the settlement.

use super::traffic_common::{self as common, Scene};
use crate::digest;
use crate::harness::{Checks, Metrics, Size, Workload};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;
use geodata::paper_cities;
use leosim::TimeGrid;
use mpleo_bench::scenario_epoch;
use orbital::constellation::{starlink_gen1_pool, Satellite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traffic::churn::{roll_states, ChurnEvent, ChurnState};
use traffic::graph::{gateways_every_nth, RouteTable, StepMask};
use traffic::market::party_keys;
use traffic::{
    run_campaign, run_campaign_with_routes, CampaignConfig, CampaignReport, ChurnSchedule,
    DemandMatrix,
};

const PARTIES: usize = 3;

/// See the module documentation.
pub struct TrafficMegashell {
    seed: u64,
    /// Keep every `stride`-th pool satellite (1 = the whole pool).
    stride: usize,
    horizon_s: f64,
    step_s: f64,
    sats: Vec<Satellite>,
    scene: Option<Scene>,
    cfg: CampaignConfig,
    report: Option<CampaignReport>,
    /// Demand and baseline routes of the last traced repetition.
    replayed: Option<(DemandMatrix, RouteTable)>,
}

impl TrafficMegashell {
    /// The workload at `size`, with inputs made from `seed`.
    pub fn new(seed: u64, size: Size) -> TrafficMegashell {
        let (stride, horizon_s, step_s) = match size {
            Size::Full => (1, 7_200.0, 60.0),
            Size::Smoke => (24, 1_200.0, 60.0),
        };
        TrafficMegashell {
            seed,
            stride,
            horizon_s,
            step_s,
            sats: Vec::new(),
            scene: None,
            cfg: CampaignConfig::default(),
            report: None,
            replayed: None,
        }
    }

    fn scene(&self) -> &Scene {
        self.scene.as_ref().expect("set-up ran")
    }

    fn report(&self) -> &CampaignReport {
        self.report.as_ref().expect("a body ran")
    }

    /// The per-step states the campaign rolled its schedule into.
    fn states(&self) -> Vec<ChurnState> {
        let scene = self.scene();
        roll_states(
            &self.cfg.schedule,
            scene.store.steps(),
            scene.store.sat_count(),
            scene.gateways.len(),
            scene.parties.len(),
            &scene.cities,
        )
    }

    /// The mask the campaign routes a step under, as `run_campaign` derives
    /// it from the step's state.
    fn mask_of(&self, state: &ChurnState) -> Option<StepMask> {
        if state.is_nominal() {
            return None;
        }
        let scene = self.scene();
        Some(StepMask {
            sat_ok: (0..scene.store.sat_count())
                .map(|s| !state.sat_failed[s] && !state.party_withdrawn[scene.sat_party[s]])
                .collect(),
            gateway_ok: state.gateway_down.iter().map(|&d| !d).collect(),
            terminal_factor: state.city_factor.clone(),
        })
    }
}

/// The seeded campaign: every event heals, so the campaign must recover.
fn schedule(seed: u64, scene: &Scene) -> ChurnSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = scene.store.steps();
    let at = |share: f64| ((steps - 1) as f64 * share) as usize;
    let party = rng.gen_range(0..scene.parties.len());
    let gateway = rng.gen_range(0..scene.gateways.len());
    let centre = &scene.cities[rng.gen_range(0..scene.cities.len())];
    let (lat_min_deg, lat_max_deg) = (centre.lat_deg - 15.0, centre.lat_deg + 15.0);
    let (lon_min_deg, lon_max_deg) = (centre.lon_deg - 15.0, centre.lon_deg + 15.0);
    ChurnSchedule::new()
        .at(at(0.10), ChurnEvent::GatewayOutage { gateway })
        .at(at(0.20), ChurnEvent::GatewayRestore { gateway })
        .fail_random_sats(rng.gen(), scene.store.sat_count(), 0.10, at(0.25), Some(at(0.60)))
        .at(at(0.40), ChurnEvent::PartyWithdraw { party })
        .at(at(0.75), ChurnEvent::PartyRejoin { party })
        .at(
            at(0.80),
            ChurnEvent::RegionDegrade {
                lat_min_deg,
                lat_max_deg,
                lon_min_deg,
                lon_max_deg,
                factor: 0.3,
            },
        )
        .at(
            at(0.90),
            ChurnEvent::RegionRestore { lat_min_deg, lat_max_deg, lon_min_deg, lon_max_deg },
        )
}

impl Workload for TrafficMegashell {
    fn name(&self) -> &'static str {
        "traffic_megashell"
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
        self.sats = starlink_gen1_pool(epoch).into_iter().step_by(self.stride).collect();
        let grid = TimeGrid::new(epoch, self.horizon_s, self.step_s);
        let cities = paper_cities();
        let gateways = gateways_every_nth(&cities, 3);
        let scene = Scene::build(&self.sats, &grid, cities, gateways, PARTIES, None);
        let mut cfg = CampaignConfig::default();
        cfg.traffic.graph.max_hops = 4;
        cfg.traffic.graph.isl_range_km = 3000.0;
        cfg.traffic.demand.seed = self.seed;
        cfg.epoch_steps = (scene.store.steps() / 8).max(1);
        cfg.schedule = schedule(self.seed, &scene);
        self.cfg = cfg;
        self.scene = Some(scene);
    }

    fn body(&mut self) {
        let s = self.scene();
        self.report = Some(run_campaign(
            &s.store,
            &s.cities,
            &s.gateways,
            &s.sim,
            &self.cfg,
            &s.sat_party,
            &s.city_party,
            &s.parties,
        ));
    }

    fn digest(&mut self) -> String {
        digest::of(self.report())
    }

    fn check(&mut self, checks: &mut Checks) {
        let (scene, report) = (self.scene(), self.report());
        checks.check("the campaign recovered", report.recovered(), || {
            format!("last event at {:?}, never back to baseline", report.last_event_step)
        });
        let net = report.settlement_net();
        checks.check("settlement sums to zero", net.abs() < 1e-6, || format!("nets {net}"));
        let keys = party_keys(&scene.parties, &self.cfg.key_seed);
        for notice in &report.notices {
            let bytes = dcp::messages::WithdrawalNotice::signing_bytes(
                &notice.party,
                &notice.sat_ids,
                notice.effective_s,
            );
            checks.check(
                "withdrawal notice verifies",
                keys.verify(&notice.party, &bytes, &notice.signature),
                || format!("notice of {} at {} s", notice.party, notice.effective_s),
            );
        }

        let states = self.states();
        let steps = scene.store.steps();
        // Four nominal and four disturbed steps against the reference.
        let masks: Vec<Option<StepMask>> = states.iter().map(|st| self.mask_of(st)).collect();
        let pick = |disturbed: bool| -> Vec<usize> {
            let all: Vec<usize> = (0..steps).filter(|&k| masks[k].is_some() == disturbed).collect();
            common::spread_steps(all.len(), 4).into_iter().map(|i| all[i]).collect()
        };
        let samples: Vec<(usize, Option<&StepMask>)> =
            pick(false).into_iter().chain(pick(true)).map(|k| (k, masks[k].as_ref())).collect();
        common::check_against_reference(scene, &self.cfg.traffic.graph, &samples, checks);

        let demand = common::scaled_demand(scene, &self.cfg.traffic);
        common::check_allocations(
            scene,
            &self.cfg.traffic,
            &report.churn,
            |k| masks[k].clone(),
            |k| {
                let mut offered = demand.step_offered(k);
                for (c, v) in offered.iter_mut().enumerate() {
                    if states[k].party_withdrawn[scene.city_party[c]] {
                        *v = 0.0;
                    }
                }
                offered
            },
            checks,
        );
    }

    fn traced_body(&mut self, tracer: &mut Tracer) {
        let s = self.scene.as_ref().expect("set-up ran");
        let demand =
            tracer.span("traffic.demand_generate", |_| common::scaled_demand(s, &self.cfg.traffic));
        let routes = common::replay_route_table(s, &self.cfg.traffic.graph, tracer);
        self.report = Some(tracer.span("traffic.campaign", |_| {
            run_campaign_with_routes(
                &s.store,
                &s.cities,
                &s.gateways,
                &s.sim,
                &demand,
                &routes,
                &self.cfg,
                &s.sat_party,
                &s.city_party,
                &s.parties,
            )
        }));
        self.replayed = Some((demand, routes));
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, m: &mut Metrics, _checks: &mut Checks) {
        let (scene, report) = (self.scene(), self.report());
        let (demand, routes) = self.replayed.as_ref().expect("a traced repetition ran");
        m.set(
            "traffic.demand_generate_ms",
            stats::median(&tracer.durations("traffic.demand_generate")) * 1e3,
        );
        m.set("traffic.campaign_s", stats::median(&tracer.durations("traffic.campaign")));
        m.set(
            "traffic.masked_steps",
            self.states().iter().filter(|st| !st.is_nominal()).count() as f64,
        );
        m.set("traffic.reroutes", report.reroutes_total() as f64);
        m.set("traffic.orders", report.orders.len() as f64);
        m.set("traffic.trades", report.trades as f64);
        m.set("traffic.served_ratio", report.churn.served_ratio());
        common::kernel_probes(scene, &self.cfg.traffic, demand, routes, tracer, m);
        common::ephemeris_probes(scene, &self.sats, tracer, m);
        probes::orbital_probes(tracer, m, &self.sats);
        probes::simrt_probes(tracer, m, self);
    }
}
