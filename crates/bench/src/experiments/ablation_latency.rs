//! Ablation: LEO bent-pipe latency vs the geostationary alternative.
//!
//! The paper's §2 dismisses GEO because its altitude means "orders of
//! magnitude degradation in network latency (second-level)". This study
//! measures the actual bent-pipe delay distribution through the MP-LEO
//! constellation and compares it with the closed-form GEO path.

use crate::expectations::{Comparator, Expectation};
use crate::experiment::{Experiment, ExperimentResult};
use crate::experiments::expect;
use crate::{seeds, Context, Fidelity};
use leosim::latency::{geo_latency_ms, LatencySeries};
use leosim::montecarlo::{run_rng, sample_indices};
use orbital::ground::GroundSite;
use traffic::{GraphConfig, RouteTable};

/// See module docs.
pub struct AblationLatency;

fn sample_size(fidelity: &Fidelity) -> usize {
    if fidelity.full {
        600
    } else {
        200
    }
}

fn fmt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "-".into())
}

impl Experiment for AblationLatency {
    fn id(&self) -> &'static str {
        "ablation_latency"
    }

    fn title(&self) -> &'static str {
        "LEO bent-pipe latency vs GEO (one-way)"
    }

    fn seeds(&self) -> Vec<u64> {
        vec![seeds::ABLATION_LATENCY]
    }

    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)> {
        vec![
            ("terminal".into(), "Taipei".into()),
            ("ground_station".into(), "Kaohsiung".into()),
            ("sample".into(), sample_size(fidelity).to_string()),
        ]
    }

    fn expectations(&self) -> Vec<Expectation> {
        vec![
            expect(
                "leo_mean_ms",
                Comparator::Le,
                15.0,
                10.0,
                "§2: LEO one-way bent-pipe delay is milliseconds-scale",
                true,
            ),
            expect(
                "geo_over_leo_ratio",
                Comparator::Ge,
                10.0,
                5.0,
                "§2: GEO means orders-of-magnitude latency degradation",
                true,
            ),
        ]
    }

    fn run(&self, ctx: &Context, fidelity: &Fidelity) -> ExperimentResult {
        let sample = sample_size(fidelity);
        let mut rng = run_rng(seeds::ABLATION_LATENCY, 0);
        let idx = sample_indices(&mut rng, ctx.pool.len(), sample);
        let store = ctx.subset_ephemeris(&idx);

        let terminal = [GroundSite::from_degrees("Taipei", 25.03, 121.56)];
        let gs = [GroundSite::from_degrees("Kaohsiung-GS", 22.63, 120.30)];
        // Bent pipe = 0 ISL hops: each step's route is the minimum-path
        // satellite that sees both endpoints.
        let bent_pipe = GraphConfig { max_hops: 0, ..GraphConfig::default() };
        let table = RouteTable::build(&store, &terminal, &gs, &ctx.config, &bent_pipe);
        let series = LatencySeries {
            delay_ms: table.steps.iter().map(|s| s.routes[0].map(|r| r.latency_ms)).collect(),
            step_s: store.grid.step_s,
        };

        let mut rows = Vec::new();
        rows.push(vec![
            format!("LEO bent pipe ({sample} sats)"),
            fmt(series.mean_ms()),
            fmt(series.percentile_ms(0.5)),
            fmt(series.percentile_ms(0.99)),
            format!("{:.1}", series.availability() * 100.0),
        ]);
        // GEO: terminal and GS are ~a few hundred km from the sub-satellite
        // point in the best case; also show a poorly placed case.
        let geo_best = geo_latency_ms(500.0, 500.0);
        let geo_worst = geo_latency_ms(6000.0, 6000.0);
        rows.push(vec![
            "GEO bent pipe (best slot)".into(),
            format!("{geo_best:.1}"),
            format!("{geo_best:.1}"),
            format!("{geo_best:.1}"),
            "100.0".into(),
        ]);
        rows.push(vec![
            "GEO bent pipe (edge of footprint)".into(),
            format!("{geo_worst:.1}"),
            format!("{geo_worst:.1}"),
            format!("{geo_worst:.1}"),
            "100.0".into(),
        ]);
        let leo_mean = series.mean_ms().unwrap_or(f64::NAN);
        ExperimentResult::data()
            .scalar("leo_mean_ms", leo_mean)
            .scalar("leo_p99_ms", series.percentile_ms(0.99).unwrap_or(f64::NAN))
            .scalar("leo_availability_pct", series.availability() * 100.0)
            .scalar("geo_best_ms", geo_best)
            .scalar("geo_over_leo_ratio", geo_best / leo_mean)
            .table(
                "latency",
                &["path", "mean (ms)", "p50 (ms)", "p99 (ms)", "availability %"],
                rows,
            )
            .note(format!(
                "LEO one-way delay is ~{:.0} ms vs GEO's ~{:.0} ms — {}x; a",
                leo_mean,
                geo_best,
                (geo_best / leo_mean).round()
            ))
            .note("request/response over GEO costs ~0.5 s, the paper's 'second-level'.")
    }
}
