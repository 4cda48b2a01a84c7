//! End-to-end tests of the experiment engine: registry completeness, one
//! shared ephemeris build across a multi-experiment suite, JSON schema
//! round-tripping, and expectation evaluation in the written results.

use mpleo_bench::experiment::{ExperimentResult, SCHEMA_VERSION};
use mpleo_bench::runner::{run_suite, SuiteOptions};
use mpleo_bench::{registry, Fidelity};
use std::fs;
use std::path::PathBuf;

/// A tiny fidelity so suite runs stay fast: one hour at 10-minute steps,
/// two Monte-Carlo runs.
fn tiny_fidelity() -> Fidelity {
    Fidelity { horizon_s: 3600.0, step_s: 600.0, runs: 2, full: false, threads: 0 }
}

fn tmp_out(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpleo-engine-test-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn registry_lists_25_filesystem_safe_ids() {
    let ids = registry::ids();
    assert_eq!(ids.len(), 25);
    for id in [
        "fig2",
        "fig5",
        "ablation_economics",
        "traffic_diurnal",
        "ablation_traffic_mix",
        "churn_withdrawal",
        "ablation_churn_rate",
    ] {
        assert!(registry::get(id).is_some(), "missing {id}");
    }
    // Ids are the JSON file stems; they must be filesystem-safe.
    for id in &ids {
        assert!(
            id.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "id {id} is not filesystem-safe"
        );
    }
}

#[test]
fn suite_shares_one_ephemeris_build_and_writes_schema_valid_json() {
    let out = tmp_out("shared");
    // fig2 and fig3 both read the pool ephemeris of the suite's one Context.
    let opts = SuiteOptions {
        only: vec!["fig2".into(), "fig3".into()],
        out_dir: Some(out.clone()),
        quiet: true,
        fidelity: Some(tiny_fidelity()),
        ..Default::default()
    };
    let summary = run_suite(&opts).expect("suite runs");
    assert_eq!(summary.results.len(), 2);

    for r in &summary.results {
        // Metadata filled by the runner.
        assert_eq!(r.schema_version, SCHEMA_VERSION);
        assert!(!r.title.is_empty());
        assert_eq!(r.fidelity.runs, 2);
        assert!(!r.params.is_empty());
        assert!(r.timing.wall_s > 0.0);
        // Every declared expectation is evaluated and recorded.
        let exp = registry::get(&r.id).unwrap();
        assert_eq!(r.expectations.len(), exp.expectations().len());
        assert!(!r.expectations.is_empty(), "{} declares no expectations", r.id);

        // The JSON on disk parses back to the same record.
        let path = out.join(format!("{}.json", r.id));
        let text = fs::read_to_string(&path).expect("result written");
        let parsed: ExperimentResult = serde_json::from_str(&text).expect("schema-valid JSON");
        assert_eq!(&parsed, r);
    }
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn suite_rejects_unknown_ids() {
    let opts = SuiteOptions {
        only: vec!["fig99".into()],
        fidelity: Some(tiny_fidelity()),
        ..Default::default()
    };
    let err = run_suite(&opts).unwrap_err();
    assert!(err.contains("fig99"), "error should name the bad id: {err}");
    assert!(err.contains("fig2"), "error should list known ids: {err}");
}

#[test]
fn expectation_failures_are_downgraded_at_quick_fidelity_only_when_lenient() {
    // At the tiny fidelity, fig2's absolute-coverage bands may miss; the
    // quick_strict=false ones must downgrade to warnings rather than fail.
    let out = tmp_out("downgrade");
    let opts = SuiteOptions {
        only: vec!["fig2".into()],
        out_dir: Some(out.clone()),
        quiet: true,
        warn_only: true,
        fidelity: Some(tiny_fidelity()),
        ..Default::default()
    };
    let summary = run_suite(&opts).expect("suite runs");
    assert_eq!(summary.fail, 0, "warn-only mode must not report hard failures");
    let r = &summary.results[0];
    for e in &r.expectations {
        assert!(e.measured.is_some(), "metric {} missing from scalars", e.metric);
    }
    let _ = fs::remove_dir_all(&out);
}
