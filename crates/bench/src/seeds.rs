//! The one place every experiment RNG seed lives.
//!
//! Each figure/ablation draws its Monte-Carlo streams from a dedicated
//! base seed (mixed with the run index by `leosim::montecarlo::run_rng`),
//! so experiments are reproducible independently and never share a stream.
//! Seeds used to be magic literals scattered across the experiments; they
//! are centralized here with a distinctness test so two experiments can
//! never silently correlate.

/// Fig 2 — coverage vs constellation size (Taipei sampling).
pub const FIG2: u64 = 0xF162;
/// Fig 3 — idle time (constellation sample).
pub const FIG3: u64 = 0xF163;
/// Fig 4a — random-addition experiment.
pub const FIG4A: u64 = 0xF164A;
/// Fig 5 — half-withdrawal experiment.
pub const FIG5: u64 = 0xF165;
/// Fig 6 — skewed-withdrawal experiment.
pub const FIG6: u64 = 0xF166;
/// Ablation: elevation-mask sensitivity (subset sampling).
pub const ABLATION_ELEVATION: u64 = 0xAB1;
/// Ablation: bent-pipe vs ISL (subset sampling).
pub const ABLATION_ISL: u64 = 0xAB2;
/// Ablation: fixed vs dynamic pricing (subset sampling).
pub const ABLATION_PRICING: u64 = 0xAB3;
/// Ablation: LEO vs GEO latency (subset sampling).
pub const ABLATION_LATENCY: u64 = 0xAB4;
/// Ablation: bootstrapping (DTN subsets + token-economy sample).
pub const ABLATION_BOOTSTRAP: u64 = 0xAB5;
/// Ablation: ownership interleaving (base sampling).
pub const ABLATION_OWNERSHIP: u64 = 0xAB6;
/// Ablation: ownership interleaving — the independent registry-shuffle
/// stream (historically `0xAB6 ^ 0xFF`).
pub const ABLATION_OWNERSHIP_SHUFFLE: u64 = 0xAB6 ^ 0xFF;
/// Ablation: sellable SLA tiers (subset sampling).
pub const ABLATION_QOS: u64 = 0xAB8;
/// Ablation: failures + replenishment (subset sampling).
pub const ABLATION_FAILURES: u64 = 0xAB9;
/// Ablation: failures + replenishment — the failure-process stream.
pub const ABLATION_FAILURES_PROCESS: u64 = 0xF411;
/// Ablation: downlink arbitration (subset sampling).
pub const ABLATION_DOWNLINK: u64 = 0xABA;
/// Ablation: cost of coverage (subset sampling).
pub const ABLATION_ECONOMICS: u64 = 0xABE;
/// Traffic engine: diurnal demand run (subset sampling + demand jitter).
pub const TRAFFIC: u64 = 0x7AF1C;
/// Ablation: demand-scale sweep over the traffic engine.
pub const ABLATION_TRAFFIC_MIX: u64 = 0x7AF2;
/// Churn campaign: mid-run failures + party withdrawal (subset sampling,
/// demand jitter, failure-set permutation).
pub const CHURN_WITHDRAWAL: u64 = 0xC4012;
/// Ablation: churn-rate sweep over the campaign engine.
pub const ABLATION_CHURN_RATE: u64 = 0xC4013;

/// Every seed above, labelled. The registry records these in each
/// experiment's JSON result and the test below keeps them distinct.
pub const ALL: &[(&str, u64)] = &[
    ("fig2", FIG2),
    ("fig3", FIG3),
    ("fig4a", FIG4A),
    ("fig5", FIG5),
    ("fig6", FIG6),
    ("ablation_elevation", ABLATION_ELEVATION),
    ("ablation_isl", ABLATION_ISL),
    ("ablation_pricing", ABLATION_PRICING),
    ("ablation_latency", ABLATION_LATENCY),
    ("ablation_bootstrap", ABLATION_BOOTSTRAP),
    ("ablation_ownership", ABLATION_OWNERSHIP),
    ("ablation_ownership_shuffle", ABLATION_OWNERSHIP_SHUFFLE),
    ("ablation_qos", ABLATION_QOS),
    ("ablation_failures", ABLATION_FAILURES),
    ("ablation_failures_process", ABLATION_FAILURES_PROCESS),
    ("ablation_downlink", ABLATION_DOWNLINK),
    ("ablation_economics", ABLATION_ECONOMICS),
    ("traffic_diurnal", TRAFFIC),
    ("ablation_traffic_mix", ABLATION_TRAFFIC_MIX),
    ("churn_withdrawal", CHURN_WITHDRAWAL),
    ("ablation_churn_rate", ABLATION_CHURN_RATE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_seeds_distinct() {
        let unique: BTreeSet<u64> = ALL.iter().map(|(_, s)| *s).collect();
        assert_eq!(unique.len(), ALL.len(), "duplicate experiment seeds in {ALL:?}");
    }

    #[test]
    fn labels_distinct() {
        let unique: BTreeSet<&str> = ALL.iter().map(|(l, _)| *l).collect();
        assert_eq!(unique.len(), ALL.len());
    }
}
