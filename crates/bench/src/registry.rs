//! The experiment registry: the single list of every figure/ablation the
//! harness can run, keyed by stable id. The `suite` binary resolves
//! through here.

use crate::experiment::Experiment;
use crate::experiments::*;

/// Every registered experiment, in EXPERIMENTS.md order: figures first,
/// then the ablations.
pub static ALL: [&dyn Experiment; 25] = [
    &fig1a::Fig1a,
    &fig2::Fig2,
    &fig3::Fig3,
    &fig4a::Fig4a,
    &fig4b::Fig4b,
    &fig4c::Fig4c,
    &fig5::Fig5,
    &fig6::Fig6,
    &ablation_elevation::AblationElevation,
    &ablation_isl::AblationIsl,
    &ablation_pricing::AblationPricing,
    &ablation_latency::AblationLatency,
    &ablation_congestion::AblationCongestion,
    &ablation_bootstrap::AblationBootstrap,
    &ablation_ownership::AblationOwnership,
    &ablation_maneuver::AblationManeuver,
    &ablation_payload::AblationPayload,
    &ablation_qos::AblationQos,
    &ablation_failures::AblationFailures,
    &ablation_downlink::AblationDownlink,
    &ablation_economics::AblationEconomics,
    &traffic_diurnal::TrafficDiurnal,
    &ablation_traffic_mix::AblationTrafficMix,
    &churn_withdrawal::ChurnWithdrawal,
    &ablation_churn_rate::AblationChurnRate,
];

/// All experiment ids, registry order.
pub fn ids() -> Vec<&'static str> {
    ALL.iter().map(|e| e.id()).collect()
}

/// Look an experiment up by id.
pub fn get(id: &str) -> Option<&'static dyn Experiment> {
    ALL.iter().find(|e| e.id() == id).copied()
}

/// Resolve `--only` / `--skip` filters into the selected experiments
/// (registry order preserved). Unknown ids are an error naming the known
/// set.
pub fn select(only: &[String], skip: &[String]) -> Result<Vec<&'static dyn Experiment>, String> {
    for id in only.iter().chain(skip.iter()) {
        if get(id).is_none() {
            return Err(format!("unknown experiment '{}'; known ids: {}", id, ids().join(", ")));
        }
    }
    Ok(ALL
        .iter()
        .filter(|e| only.is_empty() || only.iter().any(|id| id == e.id()))
        .filter(|e| !skip.iter().any(|id| id == e.id()))
        .copied()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_has_all_25_experiments_with_distinct_ids() {
        assert_eq!(ALL.len(), 25);
        let unique: BTreeSet<&str> = ids().into_iter().collect();
        assert_eq!(unique.len(), 25, "duplicate experiment ids");
        // The ids are a stable interface (`--only <id>`, `results/<id>.json`).
        for id in [
            "fig1a",
            "fig2",
            "fig3",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig5",
            "fig6",
            "ablation_elevation",
            "ablation_isl",
            "ablation_pricing",
            "ablation_latency",
            "ablation_congestion",
            "ablation_bootstrap",
            "ablation_ownership",
            "ablation_maneuver",
            "ablation_payload",
            "ablation_qos",
            "ablation_failures",
            "ablation_downlink",
            "ablation_economics",
            "traffic_diurnal",
            "ablation_traffic_mix",
            "churn_withdrawal",
            "ablation_churn_rate",
        ] {
            assert!(get(id).is_some(), "missing experiment {id}");
        }
    }

    #[test]
    fn select_filters() {
        let sel = select(&[], &[]).unwrap();
        assert_eq!(sel.len(), 25);
        let sel = select(&["fig2".into(), "fig3".into()], &[]).unwrap();
        assert_eq!(sel.iter().map(|e| e.id()).collect::<Vec<_>>(), vec!["fig2", "fig3"]);
        let sel = select(&["fig2".into(), "fig3".into()], &["fig2".into()]).unwrap();
        assert_eq!(sel.iter().map(|e| e.id()).collect::<Vec<_>>(), vec!["fig3"]);
        assert!(select(&["figZZ".into()], &[]).err().unwrap().contains("figZZ"));
    }

    #[test]
    fn every_experiment_declares_params_and_valid_expectation_tolerances() {
        let f = crate::Fidelity::quick();
        for e in ALL {
            assert!(!e.params(&f).is_empty(), "{} has no params", e.id());
            for exp in e.expectations() {
                assert!(exp.tol >= 0.0, "{}: negative tol on {}", e.id(), exp.metric);
                assert!(!exp.paper_ref.is_empty(), "{}: empty paper_ref", e.id());
            }
        }
    }
}
