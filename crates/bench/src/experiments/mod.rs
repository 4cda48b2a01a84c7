//! The concrete experiments: one module per figure/ablation of the
//! paper's evaluation, each implementing [`crate::experiment::Experiment`]
//! and listed in [`crate::registry`]; [`crate::runner`] is the only way to
//! run them.

pub mod ablation_bootstrap;
pub mod ablation_churn_rate;
pub mod ablation_congestion;
pub mod ablation_downlink;
pub mod ablation_economics;
pub mod ablation_elevation;
pub mod ablation_failures;
pub mod ablation_isl;
pub mod ablation_latency;
pub mod ablation_maneuver;
pub mod ablation_ownership;
pub mod ablation_payload;
pub mod ablation_pricing;
pub mod ablation_qos;
pub mod ablation_traffic_mix;
pub mod churn_withdrawal;
pub mod fig1a;
pub mod fig2;
pub mod fig3;
pub mod fig4a;
pub mod fig4b;
pub mod fig4c;
pub mod fig5;
pub mod fig6;
pub mod traffic_diurnal;

use crate::expectations::{Comparator, Expectation};

/// Terse [`Expectation`] constructor used by the experiment modules.
pub(crate) fn expect(
    metric: &'static str,
    comparator: Comparator,
    target: f64,
    tol: f64,
    paper_ref: &'static str,
    quick_strict: bool,
) -> Expectation {
    Expectation { metric, comparator, target, tol, paper_ref, quick_strict }
}

/// Week-scaling factor: quick horizons report gains scaled to the paper's
/// one-week window so numbers stay paper-comparable.
pub(crate) fn week_scale(duration_s: f64) -> f64 {
    7.0 * 86_400.0 / duration_s
}
