//! Figure 4a: coverage gained by adding one random satellite to bases of
//! 1, 100, and 500 satellites.
//!
//! Paper protocol: population-weighted coverage over the 21 cities across
//! one week, 100 runs; each run samples the base and the added satellite
//! from the Starlink network. Headline: adding to a 1-satellite base gains
//! over 1 hour on average (max over 4 hours); gains shrink as the base
//! grows.

use crate::expectations::{Comparator, Expectation};
use crate::experiment::{Experiment, ExperimentResult};
use crate::experiments::{expect, week_scale};
use crate::{fmt_dur, seeds, Context, Fidelity};
use mpleo::placement::random_addition_experiment;

/// Base constellation sizes swept.
pub const BASES: [usize; 3] = [1, 100, 500];

/// See module docs.
pub struct Fig4a;

impl Experiment for Fig4a {
    fn id(&self) -> &'static str {
        "fig4a"
    }

    fn title(&self) -> &'static str {
        "marginal coverage of one added satellite vs base size"
    }

    fn seeds(&self) -> Vec<u64> {
        vec![seeds::FIG4A]
    }

    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)> {
        vec![
            ("bases".into(), format!("{BASES:?}")),
            ("runs".into(), fidelity.runs.to_string()),
            ("weighting".into(), "population, 21 cities".into()),
        ]
    }

    fn expectations(&self) -> Vec<Expectation> {
        vec![
            expect(
                "mean_gain_s_base1",
                Comparator::Ge,
                2400.0,
                1500.0,
                "§3.3 Fig 4a: >1 h mean weekly gain on a 1-satellite base",
                false,
            ),
            expect(
                "diminishing_ratio",
                Comparator::Ge,
                2.0,
                1.0,
                "§3.3 Fig 4a: gains clearly diminish from base 1 to base 500",
                true,
            ),
        ]
    }

    fn run(&self, ctx: &Context, fidelity: &Fidelity) -> ExperimentResult {
        let vt = ctx.city_table();
        // Scale gains to a one-week horizon so quick runs print
        // paper-comparable numbers.
        let scale = week_scale(ctx.grid.duration_s());
        let mut rows = Vec::new();
        let mut mean_series = Vec::new();
        let mut result = ExperimentResult::data();
        for &base in &BASES {
            let agg =
                random_addition_experiment(vt, base, &ctx.weights, fidelity.runs, seeds::FIG4A);
            mean_series.push(agg.mean * scale);
            result = result.scalar(&format!("mean_gain_s_base{base}"), agg.mean * scale);
            rows.push(vec![
                base.to_string(),
                fmt_dur(agg.mean * scale),
                fmt_dur(agg.max * scale),
                fmt_dur(agg.min * scale),
                format!("{:.1}", agg.std_dev * scale / 60.0),
            ]);
        }
        let ratio =
            if mean_series[2] > 0.0 { mean_series[0] / mean_series[2] } else { f64::INFINITY };
        result
            .scalar("diminishing_ratio", ratio)
            .series("bases", BASES.iter().map(|&b| b as f64).collect())
            .series("mean_gain_s_per_week", mean_series)
            .table(
                "marginal_gain",
                &["base size", "mean gain /wk", "max gain /wk", "min gain /wk", "std (min)"],
                rows,
            )
            .note("paper shape: >1 h mean (max >4 h) on a 1-satellite base;")
            .note("             clearly diminishing at 100 and 500 satellites.")
    }
}
