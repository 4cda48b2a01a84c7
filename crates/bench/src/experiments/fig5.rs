//! Figure 5: coverage reduction when half the constellation denies service.
//!
//! Paper protocol: base constellations of L in {200, 500, 1000, 2000}
//! satellites; withdraw a random L/2; population-weighted coverage over one
//! week, 100 runs. Headline: 24.17% reduction (1 d 16 h) at L=200,
//! shrinking to 0.37% at L=2000.

use crate::expectations::{Comparator, Expectation};
use crate::experiment::{Experiment, ExperimentResult};
use crate::experiments::expect;
use crate::{fmt_dur, seeds, Context, Fidelity};
use mpleo::robustness::half_withdrawal_experiment;

/// Constellation sizes swept.
pub const SIZES: [usize; 4] = [200, 500, 1000, 2000];

/// See module docs.
pub struct Fig5;

impl Experiment for Fig5 {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "coverage lost when half the satellites withdraw"
    }

    fn seeds(&self) -> Vec<u64> {
        vec![seeds::FIG5]
    }

    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)> {
        vec![
            ("sizes".into(), format!("{SIZES:?}")),
            ("withdrawn".into(), "random L/2".into()),
            ("runs".into(), fidelity.runs.to_string()),
        ]
    }

    fn expectations(&self) -> Vec<Expectation> {
        vec![
            expect(
                "loss_pct_200",
                Comparator::Within,
                24.17,
                8.0,
                "§3.3 Fig 5: 24.17% reduction (1 d 16 h per week) at L=200",
                false,
            ),
            expect(
                "loss_pct_2000",
                Comparator::Le,
                2.0,
                1.0,
                "§3.3 Fig 5: 0.37% reduction at L=2000",
                true,
            ),
            expect(
                "loss_monotone",
                Comparator::Ge,
                1.0,
                0.0,
                "§3.3 Fig 5: loss subsides as the constellation grows",
                true,
            ),
        ]
    }

    fn run(&self, ctx: &Context, fidelity: &Fidelity) -> ExperimentResult {
        let vt = ctx.city_table();
        let week_s = 7.0 * 86_400.0;

        let mut rows = Vec::new();
        let mut losses = Vec::new();
        let mut result = ExperimentResult::data();
        for &l in &SIZES {
            let agg = half_withdrawal_experiment(vt, l, &ctx.weights, fidelity.runs, seeds::FIG5);
            losses.push(agg.mean);
            result = result.scalar(&format!("loss_pct_{l}"), agg.mean);
            rows.push(vec![
                l.to_string(),
                format!("{:.2}", agg.mean),
                format!("{:.2}", agg.std_dev),
                fmt_dur(agg.mean / 100.0 * week_s),
            ]);
        }
        let monotone = losses.windows(2).all(|w| w[1] <= w[0]);
        result
            .scalar("loss_monotone", if monotone { 1.0 } else { 0.0 })
            .series("sizes", SIZES.iter().map(|&s| s as f64).collect())
            .series("loss_pct", losses)
            .table(
                "half_withdrawal",
                &["constellation L", "coverage loss %", "std", "loss per week"],
                rows,
            )
            .note("paper shape: large loss at L=200 (24.17%, i.e. 1d 16h/week),")
            .note("             subsiding to 0.37% at L=2000.")
    }
}
