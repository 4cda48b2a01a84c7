//! `paper_figures`: the paper's own evaluation path.
//!
//! Set-up builds an `mpleo_bench::Context` at a pinned fidelity (1 day,
//! 120 s step, 5 Monte-Carlo runs, KeplerJ2). The body propagates the pool
//! (`ctx.pool_ephemeris()`) and runs nine registered experiments through
//! `mpleo_bench::registry` — the same calls `mpleo experiments` makes. The
//! context memoises its ephemeris, so every repetition gets a fresh one.
//!
//! The experiments draw from the repository's pinned seeds; `--seed` picks
//! the start of the simulated day instead (a whole number of steps after
//! the scenario epoch), which moves every satellite track relative to the
//! cities without changing the amount of work.

use crate::digest;
use crate::harness::{Checks, Metrics, Size, Workload, POOL_THREADS};
use crate::probes;
use crate::stats;
use crate::trace::{span_if, Tracer};
use leosim::bentpipe::isl_connectivity_from_store;
use leosim::ephemeris::EphemerisStore;
use leosim::montecarlo::{run_rng, sample_indices};
use leosim::visibility::VisibilityTable;
use leosim::TimeGrid;
use mpleo::failures::{simulate_failures, FailureModel};
use mpleo::placement::random_addition_experiment;
use mpleo::robustness::half_withdrawal_experiment;
use mpleo_bench::expectations::{evaluate, Status};
use mpleo_bench::experiment::ExperimentResult;
use mpleo_bench::{registry, scenario_epoch, Context, Fidelity};
use orbital::ground::GroundSite;
use rand::Rng;

/// `(experiment id, span name, metric name)` of the experiments the body
/// runs, in order.
const EXPERIMENTS: [(&str, &str, &str); 9] = [
    ("fig2", "bench.fig2", "bench.fig2_s"),
    ("fig3", "bench.fig3", "bench.fig3_s"),
    ("fig4a", "bench.fig4a", "bench.fig4a_s"),
    ("fig4b", "bench.fig4b", "bench.fig4b_s"),
    ("fig4c", "bench.fig4c", "bench.fig4c_s"),
    ("fig5", "bench.fig5", "bench.fig5_s"),
    ("fig6", "bench.fig6", "bench.fig6_s"),
    ("ablation_isl", "bench.ablation_isl", "bench.ablation_isl_s"),
    ("ablation_failures", "bench.ablation_failures", "bench.ablation_failures_s"),
];

/// See the module documentation.
pub struct PaperFigures {
    fidelity: Fidelity,
    start_offset_steps: u64,
    strict_expectations: bool,
    ctx: Option<Context>,
    results: Vec<ExperimentResult>,
}

impl PaperFigures {
    /// The workload at `size`, with inputs made from `seed`.
    pub fn new(seed: u64, size: Size) -> PaperFigures {
        let fidelity = match size {
            Size::Full => Fidelity {
                horizon_s: 86_400.0,
                step_s: 120.0,
                runs: 5,
                full: false,
                threads: POOL_THREADS,
            },
            Size::Smoke => Fidelity {
                horizon_s: 7_200.0,
                step_s: 600.0,
                runs: 1,
                full: false,
                threads: POOL_THREADS,
            },
        };
        let steps_per_day = (86_400.0 / fidelity.step_s) as u64;
        PaperFigures {
            fidelity,
            start_offset_steps: run_rng(seed, 0).gen_range(0..steps_per_day),
            // Two hours of one Monte-Carlo run say nothing about the
            // paper's bands; the smoke size evaluates them in warn-only
            // mode so the check still executes.
            strict_expectations: size == Size::Full,
            ctx: None,
            results: Vec::new(),
        }
    }

    fn ctx(&self) -> &Context {
        self.ctx.as_ref().expect("set-up ran")
    }

    /// The body; with a tracer, each stage runs in a span.
    fn run(&mut self, mut tracer: Option<&mut Tracer>) {
        let ctx = self.ctx.as_ref().expect("set-up ran");
        span_if(tracer.as_deref_mut(), "leosim.ephemeris_build", || {
            ctx.pool_ephemeris();
        });
        self.results = EXPERIMENTS
            .iter()
            .map(|(id, span, _)| {
                let experiment = registry::get(id).expect("registered experiment");
                span_if(tracer.as_deref_mut(), span, || experiment.run(ctx, &self.fidelity))
            })
            .collect();
    }
}

impl Workload for PaperFigures {
    fn name(&self) -> &'static str {
        "paper_figures"
    }

    fn sim_span_s(&self) -> f64 {
        self.fidelity.horizon_s
    }

    fn consumes_setup(&self) -> bool {
        true
    }

    fn uses_pool(&self) -> bool {
        true
    }

    fn setup(&mut self) {
        self.ctx = None;
        let mut ctx = Context::new(&self.fidelity);
        let start =
            scenario_epoch().plus_seconds(self.start_offset_steps as f64 * self.fidelity.step_s);
        ctx.grid = TimeGrid::new(start, self.fidelity.horizon_s, self.fidelity.step_s);
        self.ctx = Some(ctx);
    }

    fn body(&mut self) {
        self.run(None);
    }

    fn digest(&mut self) -> String {
        digest::of(&self.results)
    }

    fn check(&mut self, checks: &mut Checks) {
        for ((id, _, _), result) in EXPERIMENTS.iter().zip(&self.results) {
            let experiment = registry::get(id).expect("registered experiment");
            for exp in experiment.expectations() {
                let outcome =
                    evaluate(&exp, &result.scalars, self.fidelity.full, !self.strict_expectations);
                checks.check("paper expectation holds", outcome.status != Status::Fail, || {
                    format!(
                        "{id}: {} {} {} (tol {}), measured {:?}",
                        exp.metric, outcome.comparator, exp.target, exp.tol, outcome.measured
                    )
                });
            }
        }
    }

    fn traced_body(&mut self, tracer: &mut Tracer) {
        self.run(Some(tracer));
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, m: &mut Metrics, _checks: &mut Checks) {
        // bench + leosim.ephemeris: read off the traced repetitions.
        for (_, span, metric) in EXPERIMENTS {
            m.set(metric, stats::median(&tracer.durations(span)));
        }
        let ctx = self.ctx();
        let (sats, steps) = (ctx.pool.len(), ctx.grid.steps);
        let build_s = stats::median(&tracer.durations("leosim.ephemeris_build"));
        probes::set_ephemeris_metrics(m, sats, steps, build_s);

        probes::orbital_probes(tracer, m, &ctx.pool);

        // leosim: the kernels the figures call, over the whole pool.
        let store = ctx.pool_ephemeris();
        let vt_s = probes::median_s(tracer, "leosim.visibility_build", 3, |_| {
            VisibilityTable::from_store(store, &ctx.sites, &ctx.config)
        });
        m.set("leosim.visibility_build_s", vt_s);
        m.set(
            "leosim.visibility_mpred_per_s",
            (sats * ctx.sites.len() * steps) as f64 / vt_s / 1e6,
        );
        let vt = ctx.city_table();
        let subset = sample_indices(&mut run_rng(0x5EED, 0), sats, 500.min(sats));
        m.set(
            "leosim.coverage_union_us",
            probes::median_s(tracer, "leosim.coverage_unions", 200, |_| {
                vt.coverage_unions(&subset)
            }) * 1e6,
        );
        let terminal = [GroundSite::from_degrees("Tonga", -21.13, -175.2)];
        let gs = [GroundSite::from_degrees("Sydney-GS", -33.87, 151.21)];
        let sub_store = store.select(&sample_indices(&mut run_rng(0x5EED, 1), sats, 150.min(sats)));
        m.set(
            "leosim.isl_connectivity_s",
            probes::median_s(tracer, "leosim.isl_connectivity", 3, |_| {
                isl_connectivity_from_store(&sub_store, &terminal, &gs, &ctx.config, 3000.0, 4)
            }),
        );

        // mpleo: the Monte-Carlo bodies behind fig5, fig4a, ablation_failures.
        let runs = self.fidelity.runs;
        let base = 500.min(sats / 2);
        m.set(
            "mpleo.withdrawal_s",
            probes::median_s(tracer, "mpleo.half_withdrawal", 3, |_| {
                half_withdrawal_experiment(&vt, base, &ctx.weights, runs, 0x5EED)
            }),
        );
        m.set(
            "mpleo.placement_s",
            probes::median_s(tracer, "mpleo.random_addition", 3, |_| {
                random_addition_experiment(&vt, base, &ctx.weights, runs, 0x5EED)
            }),
        );
        let all: Vec<usize> = (0..base).collect();
        let model =
            FailureModel { mtbf_s: 20.0 * 86_400.0, launch_interval_s: 86_400.0, batch_size: 5 };
        let window = (3600.0 / ctx.grid.step_s).max(1.0) as usize;
        m.set(
            "mpleo.failures_s",
            probes::median_s(tracer, "mpleo.simulate_failures", 3, |_| {
                simulate_failures(&vt, &all, 0, &model, window, 0x5EED)
            }),
        );

        // simrt: what the second thread buys on the ephemeris build, and
        // what one two-thread body costs the pool.
        let one = probes::median_s(tracer, "leosim.ephemeris_build_1t", 3, |_| {
            EphemerisStore::build(&ctx.pool, &ctx.grid, &ctx.config)
        });
        let two = simrt::with_thread_cap(POOL_THREADS, || {
            probes::median_s(tracer, "leosim.ephemeris_build_2t", 3, |_| {
                EphemerisStore::build(&ctx.pool, &ctx.grid, &ctx.config)
            })
        });
        m.set("simrt.speedup_2t.ephemeris", one / two);
        probes::simrt_probes(tracer, m, self);
    }
}
