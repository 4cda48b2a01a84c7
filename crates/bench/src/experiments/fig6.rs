//! Figure 6: coverage reduction vs stake skew when the largest party
//! withdraws.
//!
//! Paper protocol: 1000 satellites split across 11 parties with stake
//! ratio r:1:…:1 for r in 1..=10; the largest party withdraws;
//! population-weighted coverage over one week, 100 runs. Headline: equal
//! stakes (91 sats each) minimize the loss; at 10:1 (500 sats) the loss
//! grows to ~5.5% (10 h of no coverage per week) yet the network stays
//! serviceable.

use crate::expectations::{Comparator, Expectation};
use crate::experiment::{Experiment, ExperimentResult};
use crate::experiments::expect;
use crate::{fmt_dur, seeds, Context, Fidelity};
use mpleo::party::{allocate_by_ratio, skewed_ratios};
use mpleo::robustness::skewed_withdrawal_experiment;

/// See module docs.
pub struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "coverage loss vs stake ratio (largest of 11 parties withdraws)"
    }

    fn seeds(&self) -> Vec<u64> {
        vec![seeds::FIG6]
    }

    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)> {
        vec![
            ("total_sats".into(), "1000".into()),
            ("parties".into(), "11".into()),
            ("ratios".into(), "r:1:...:1 for r in 1..=10".into()),
            ("runs".into(), fidelity.runs.to_string()),
        ]
    }

    fn expectations(&self) -> Vec<Expectation> {
        vec![
            expect(
                "loss_pct_r1",
                Comparator::Le,
                1.0,
                0.5,
                "§3.3 Fig 6: equal stakes minimize the loss",
                true,
            ),
            expect(
                "loss_pct_r10",
                Comparator::Within,
                5.5,
                3.0,
                "§3.3 Fig 6: ~5.5% loss (10 h/week) at 10:1, still serviceable",
                false,
            ),
            expect(
                "skew_monotone",
                Comparator::Ge,
                1.0,
                0.0,
                "§3.3 Fig 6: loss grows with stake skew (r=1 < r=5 < r=10)",
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
        for r in 1..=10u32 {
            let agg = skewed_withdrawal_experiment(
                vt,
                1000,
                r as f64,
                10,
                &ctx.weights,
                fidelity.runs,
                seeds::FIG6,
            );
            losses.push(agg.mean);
            if r == 1 || r == 5 || r == 10 {
                result = result.scalar(&format!("loss_pct_r{r}"), agg.mean);
            }
            let largest = allocate_by_ratio(1000, &skewed_ratios(r as f64, 10))[0];
            rows.push(vec![
                format!("{r}:1:...:1"),
                largest.to_string(),
                format!("{:.2}", agg.mean),
                format!("{:.2}", agg.std_dev),
                fmt_dur(agg.mean / 100.0 * week_s),
            ]);
        }
        let monotone = losses[0] < losses[4] && losses[4] < losses[9];
        result
            .scalar("skew_monotone", if monotone { 1.0 } else { 0.0 })
            .series("stake_ratio", (1..=10).map(|r| r as f64).collect())
            .series("loss_pct", losses)
            .table(
                "skewed_withdrawal",
                &["stake ratio", "largest party sats", "coverage loss %", "std", "loss per week"],
                rows,
            )
            .note("paper shape: loss grows with skew; ~5.5% (10 h/week) at 10:1,")
            .note("             still serviceable because the rest hold ~half the network.")
    }
}
