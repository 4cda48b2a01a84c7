//! Ablation: interleaved vs clustered satellite ownership.
//!
//! The paper's §3.3 closes: coverage-optimal placement "naturally leads to
//! a constellation where satellites from multiple parties do not form a
//! cluster and are interspersed", and that this interspersion is what
//! makes withdrawal graceful. This study isolates that claim: same
//! constellation, same stakes, only the *assignment* of satellites to
//! parties differs — random interleaving vs contiguous orbital-plane
//! blocks.

use crate::expectations::{Comparator, Expectation};
use crate::experiment::{Experiment, ExperimentResult};
use crate::experiments::expect;
use crate::{fmt_dur, seeds, Context, Fidelity};
use leosim::montecarlo::{run_rng, run_samples, sample_indices};
use mpleo::party::{skewed_ratios, PartyKind};
use mpleo::registry::ConstellationRegistry;
use mpleo::robustness::withdrawal_loss;

/// See module docs.
pub struct AblationOwnership;

impl Experiment for AblationOwnership {
    fn id(&self) -> &'static str {
        "ablation_ownership"
    }

    fn title(&self) -> &'static str {
        "interleaved vs clustered ownership (largest of 5 parties withdraws)"
    }

    fn seeds(&self) -> Vec<u64> {
        vec![seeds::ABLATION_OWNERSHIP, seeds::ABLATION_OWNERSHIP_SHUFFLE]
    }

    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)> {
        vec![
            ("total_sats".into(), "500".into()),
            ("stakes".into(), "2:1:1:1:1".into()),
            ("runs".into(), fidelity.runs.to_string()),
        ]
    }

    fn expectations(&self) -> Vec<Expectation> {
        vec![expect(
            "clustered_minus_interleaved_pct",
            Comparator::Ge,
            0.0,
            1.5,
            "§3.3: interspersion makes withdrawal graceful; clustering opens plane-wide holes",
            false,
        )]
    }

    fn run(&self, ctx: &Context, fidelity: &Fidelity) -> ExperimentResult {
        let vt = ctx.city_table();
        let week_s = 7.0 * 86_400.0;
        let total = 500;
        let ratios = skewed_ratios(2.0, 4); // 2:1:1:1:1 over 500 sats

        let mut rows = Vec::new();
        let mut result = ExperimentResult::data();
        let mut means = Vec::new();
        for (label, key, shuffle) in [
            ("clustered (contiguous planes)", "clustered_loss_pct", false),
            ("interleaved (random)", "interleaved_loss_pct", true),
        ] {
            // Parallel runs on the shared pool, collected in run order.
            let losses = run_samples(seeds::ABLATION_OWNERSHIP, fidelity.runs, |rng, run| {
                let base = sample_indices(rng, vt.sat_count(), total);
                let reg = if shuffle {
                    let mut reg_rng = run_rng(seeds::ABLATION_OWNERSHIP_SHUFFLE, run as u64);
                    ConstellationRegistry::from_ratios(
                        total,
                        &ratios,
                        PartyKind::Country,
                        Some(&mut reg_rng),
                    )
                } else {
                    ConstellationRegistry::from_ratios(total, &ratios, PartyKind::Country, None)
                };
                let largest = reg.largest_party();
                let withdrawn: Vec<usize> = largest.satellites.iter().map(|&p| base[p]).collect();
                withdrawal_loss(vt, &base, &withdrawn, &ctx.weights)
            });
            let mean_pct =
                losses.iter().map(|l| l.loss_pct_of_horizon).sum::<f64>() / losses.len() as f64;
            means.push(mean_pct);
            result = result.scalar(key, mean_pct);
            rows.push(vec![
                label.to_string(),
                format!("{mean_pct:.2}"),
                fmt_dur(mean_pct / 100.0 * week_s),
            ]);
        }
        result
            .scalar("clustered_minus_interleaved_pct", means[0] - means[1])
            .table(
                "ownership_layouts",
                &["ownership layout", "coverage loss %", "loss per week"],
                rows,
            )
            .note("note: the pool is sampled randomly, so 'contiguous' blocks are")
            .note("contiguous in *sample order*, which for a Walker pool means whole")
            .note("planes/shells — the clustered worst case the paper warns about.")
            .note("Interleaving spreads each party across orbital geometry, so one")
            .note("party's exit thins coverage evenly instead of opening plane-wide holes.")
    }
}
