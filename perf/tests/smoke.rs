//! Every workload at a tiny internal size: one repetition, every
//! correctness check, the traced variant, and the agreement between what
//! runs report and what `BENCHMARK.json` declares.

use perf::harness::{self, Size};
use perf::report;
use perf::spec::{self, BenchmarkFile};
use perf::workloads;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;

/// The workloads share the process-wide `simrt` pool and its global
/// counters; run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    simrt::configure(harness::POOL_THREADS);
    // The corpus probe opens `tests/corpus` relative to the repository root.
    std::env::set_current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .expect("repository root");
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn names<'a>(it: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    it.map(str::to_string).collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn every_workload_runs_untraced_and_passes_its_checks() {
    let _guard = serial();
    for (name, _) in spec::WORKLOADS {
        let mut w = workloads::by_name(name, 7, Size::Smoke).expect("spec workloads exist");
        let result = harness::run_untraced(w.as_mut(), 0.05, 1).expect("one repetition fits");
        assert!(result.reps >= 1, "{name}");
        assert!(result.checks.attempted > result.reps as u64, "{name}: only digest checks ran");
        assert_eq!(result.checks.failed, 0, "{name}: {:?}", result.checks.failures);
        let line = report::final_line(&result);
        assert!(line.correct);
        let expected = names(spec::END_TO_END.iter().map(|m| m.0));
        assert_eq!(names(line.metrics.keys().map(String::as_str)), expected, "{name}");
        for (metric, value) in &line.metrics {
            assert!(value.value > 0.0, "{name}: {metric} is {}", value.value);
        }
        assert_eq!(result.digest.len(), 64, "{name}: digest is hex SHA-256");
    }
}

#[test]
fn every_workload_runs_traced_and_reports_every_per_layer_metric() {
    let _guard = serial();
    let expected = names(spec::PER_LAYER.iter().map(|m| m.0));
    for (name, _) in spec::WORKLOADS {
        let mut w = workloads::by_name(name, 7, Size::Smoke).expect("spec workloads exist");
        let result = harness::run_traced(w.as_mut(), 1);
        assert_eq!(result.checks.failed, 0, "{name}: {:?}", result.checks.failures);
        let line = report::final_line(&result);
        assert_eq!(names(line.metrics.keys().map(String::as_str)), expected, "{name}");
        let tracer = result.tracer.as_ref().expect("traced runs keep their spans");
        assert!(tracer.coverage("rep") > 0.5, "{name}: spans cover {}", tracer.coverage("rep"));
        // A workload's trace holds spans of its own layers only.
        let foreign: &[&str] = match name {
            "paper_figures" => &["traffic.", "dcp.", "scenario."],
            "dcp_gossip" => &["traffic.", "leosim.", "orbital.", "bench.", "mpleo.", "scenario."],
            _ => &["dcp.", "bench.", "mpleo."],
        };
        for span in tracer.spans() {
            assert!(
                !foreign.iter().any(|layer| span.name.starts_with(layer)),
                "{name}: foreign span {}",
                span.name
            );
        }
        let path = std::env::temp_dir().join(format!("perf-smoke-{name}.jsonl"));
        tracer.write_jsonl(&path, name).expect("spans write");
        let text = std::fs::read_to_string(&path).expect("spans read back");
        assert_eq!(text.lines().count(), tracer.spans().len());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_corrupted_digest_counts_as_a_failed_operation() {
    /// A workload whose output changes on every repetition.
    struct Drifting(perf::workloads::dcp_gossip::DcpGossip, u32);
    impl harness::Workload for Drifting {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn sim_span_s(&self) -> f64 {
            self.0.sim_span_s()
        }
        fn consumes_setup(&self) -> bool {
            self.0.consumes_setup()
        }
        fn uses_pool(&self) -> bool {
            self.0.uses_pool()
        }
        fn setup(&mut self) {
            self.0.setup()
        }
        fn body(&mut self) {
            self.0.body()
        }
        fn digest(&mut self) -> String {
            self.1 += 1;
            format!("{}{}", self.0.digest(), self.1)
        }
        fn check(&mut self, checks: &mut harness::Checks) {
            self.0.check(checks)
        }
        fn traced_body(&mut self, tracer: &mut perf::trace::Tracer) {
            self.0.traced_body(tracer)
        }
        fn layer_metrics(
            &mut self,
            tracer: &mut perf::trace::Tracer,
            metrics: &mut harness::Metrics,
            checks: &mut harness::Checks,
        ) {
            self.0.layer_metrics(tracer, metrics, checks)
        }
    }
    let _guard = serial();
    let mut w = Drifting(perf::workloads::dcp_gossip::DcpGossip::new(7, Size::Smoke), 0);
    let result = harness::run_untraced(&mut w, 0.05, 1).expect("one repetition fits");
    assert!(result.checks.failed >= 1, "the drifting digest went unnoticed");
    assert!(result.checks.failed <= result.checks.attempted);
    assert!(!report::final_line(&result).correct);
}

#[test]
fn too_few_repetitions_is_an_error_not_a_thin_median() {
    let _guard = serial();
    let mut w = workloads::by_name("dcp_gossip", 7, Size::Smoke).expect("spec workloads exist");
    let err =
        harness::run_untraced(w.as_mut(), 0.001, 1_000).expect_err("1000 repetitions do not fit");
    assert!(err.to_string().contains("workload oversized"), "{err}");
}

#[test]
fn benchmark_json_is_the_spec_printed_and_within_the_contract() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(text, spec::benchmark_json(), "BENCHMARK.json drifted: regenerate with `perf spec`");
    assert!(text.len() <= 64 * 1024);
    let file: BenchmarkFile = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(file, spec::benchmark_file());

    assert!((1..=60).contains(&file.run_seconds));
    assert!((2..=8).contains(&file.workloads.len()));
    assert!((1..=16).contains(&file.end_to_end.len()));
    assert!((1..=128).contains(&file.per_layer.len()));
    assert!(file.command.len() <= 32 && file.command.iter().all(|c| c.len() <= 200));
    assert_eq!(file.paths, ["perf"]);
    let mut seen = BTreeSet::new();
    for w in &file.workloads {
        assert!(valid_name(&w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why has {} chars",
            w.name,
            w.why.len()
        );
        assert!(seen.insert(w.name.clone()), "{} used twice", w.name);
        assert!(
            workloads::by_name(&w.name, 0, Size::Smoke).is_some(),
            "{} has no implementation",
            w.name
        );
    }
    let valid_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for m in &file.end_to_end {
        assert!(valid_name(&m.name) && valid_unit(&m.unit), "{} [{}]", m.name, m.unit);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
    }
    for m in &file.per_layer {
        assert!(valid_name(&m.name) && valid_unit(&m.unit), "{} [{}]", m.name, m.unit);
        assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
    }
    let setup = file.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(
        file.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn repeat_flags_a_gap_beyond_the_bound() {
    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("perf-smoke-repeat-{}", std::process::id()));
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::remove_dir_all(&dir).ok();
    let env = report::Environment::probe();
    for (name, _) in spec::WORKLOADS {
        let mut w = workloads::by_name(name, 7, Size::Smoke).expect("spec workloads exist");
        let result = harness::run_untraced(w.as_mut(), 0.01, 1).expect("one repetition fits");
        let entry = report::workload_result(&result, 7, 0.01);
        let mut slower = entry.clone();
        slower.metrics.get_mut("rtf").expect("rtf is reported").value *= 0.5;
        report::ResultSet::merge_into(&a, &env, name, false, entry).expect("a.json writes");
        report::ResultSet::merge_into(&b, &env, name, false, slower).expect("b.json writes");
    }
    let (set_a, set_b) =
        (report::ResultSet::load(&a).unwrap(), report::ResultSet::load(&b).unwrap());
    let same = perf::compare::compare(&set_a, &set_a).expect("comparable");
    assert_eq!(same.len(), spec::WORKLOADS.len() * spec::END_TO_END.len());
    assert!(same.iter().all(|r| r.within()));
    let rows = perf::compare::compare(&set_a, &set_b).expect("comparable");
    let outside: Vec<_> = rows.iter().filter(|r| !r.within()).collect();
    assert_eq!(outside.len(), spec::WORKLOADS.len(), "{outside:?}");
    assert!(outside.iter().all(|r| r.metric == "rtf"));
    std::fs::remove_dir_all(&dir).ok();
}
