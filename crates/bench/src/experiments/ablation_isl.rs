//! Ablation: bent-pipe vs inter-satellite-link (ISL) relay connectivity.
//!
//! The paper's design omits ISLs to keep satellites simple (§3.1) and
//! lists them as an open question (§4). This ablation quantifies what the
//! omission costs: terminal connectivity under the transparent bent pipe
//! (terminal and ground station must see the *same* satellite) vs an
//! ISL-relay design where traffic may hop between satellites to reach a
//! ground station.

use crate::expectations::{Comparator, Expectation};
use crate::experiment::{Experiment, ExperimentResult};
use crate::experiments::expect;
use crate::{seeds, Context, Fidelity};
use leosim::montecarlo::{run_rng, sample_indices};
use orbital::ground::GroundSite;
use traffic::{GraphConfig, RouteTable};

/// See module docs.
pub struct AblationIsl;

fn sample_size(fidelity: &Fidelity) -> usize {
    if fidelity.full {
        400
    } else {
        150
    }
}

impl Experiment for AblationIsl {
    fn id(&self) -> &'static str {
        "ablation_isl"
    }

    fn title(&self) -> &'static str {
        "bent-pipe vs ISL relay connectivity"
    }

    fn seeds(&self) -> Vec<u64> {
        vec![seeds::ABLATION_ISL]
    }

    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)> {
        vec![
            ("terminal".into(), "Tonga".into()),
            ("ground_station".into(), "Sydney".into()),
            ("sample".into(), sample_size(fidelity).to_string()),
            ("isl_range_km".into(), "3000".into()),
        ]
    }

    fn expectations(&self) -> Vec<Expectation> {
        vec![
            expect(
                "bentpipe_pct",
                Comparator::Le,
                5.0,
                5.0,
                "§3.1/§4 ablation: bent pipe ~0% connectivity far from ground stations",
                true,
            ),
            expect(
                "isl4_minus_bentpipe_pct",
                Comparator::Ge,
                10.0,
                10.0,
                "§4 ablation: ISL hops recover a slice of the visibility ceiling",
                false,
            ),
            expect(
                "visibility_minus_isl4_pct",
                Comparator::Ge,
                0.0,
                2.0,
                "sanity: relays cannot beat raw visibility",
                true,
            ),
        ]
    }

    fn run(&self, ctx: &Context, fidelity: &Fidelity) -> ExperimentResult {
        // A remote terminal (Tonga — the paper's §1 disaster scenario) with
        // the operator's only ground station in Sydney.
        let terminal = [GroundSite::from_degrees("Tonga", -21.13, -175.2)];
        let gs = [GroundSite::from_degrees("Sydney-GS", -33.87, 151.21)];

        let sample = sample_size(fidelity);
        let mut rng = run_rng(seeds::ABLATION_ISL, 0);
        let idx = sample_indices(&mut rng, ctx.pool.len(), sample);
        // One copied ephemeris slice serves the visibility table and all
        // three route tables — the pool is propagated once for all rows.
        let store = ctx.subset_ephemeris(&idx);

        let vt_t = ctx.subset_table(&idx, &terminal);
        let plain: Vec<usize> = (0..idx.len()).collect();
        let visibility = vt_t.coverage_union(&plain, 0).fraction_ones() * 100.0;

        // Connected at a step ⇔ the step kernel finds a route within the
        // hop budget (0 hops = the transparent bent pipe).
        let connectivity_pct = |max_hops: usize| {
            let graph = GraphConfig { max_hops, isl_range_km: 3000.0, ..GraphConfig::default() };
            RouteTable::build(&store, &terminal, &gs, &ctx.config, &graph).routability() * 100.0
        };
        let bp = connectivity_pct(0);
        let isl1 = connectivity_pct(1);
        let isl4 = connectivity_pct(4);

        let rows = vec![
            vec!["satellite visibility (upper bound)".into(), format!("{visibility:.2}")],
            vec!["bent-pipe (no ISL)".into(), format!("{bp:.2}")],
            vec!["ISL relay, 1 hop".into(), format!("{isl1:.2}")],
            vec!["ISL relay, 4 hops".into(), format!("{isl4:.2}")],
        ];
        ExperimentResult::data()
            .scalar("visibility_pct", visibility)
            .scalar("bentpipe_pct", bp)
            .scalar("isl1_pct", isl1)
            .scalar("isl4_pct", isl4)
            .scalar("isl4_minus_bentpipe_pct", isl4 - bp)
            .scalar("visibility_minus_isl4_pct", visibility - isl4)
            .table("connectivity", &["architecture", "terminal connectivity %"], rows)
            .note("takeaway: the bent pipe pays a connectivity penalty whenever the")
            .note("terminal is far from the operator's ground stations; each ISL hop")
            .note("recovers a slice of the raw-visibility ceiling, at satellite-")
            .note("complexity cost — or deploy an in-region ground station instead.")
    }
}
