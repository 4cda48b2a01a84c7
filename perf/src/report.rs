//! What a run prints, and the result files `--out` keeps.

use crate::harness::{RunResult, POOL_THREADS};
use crate::spec;
use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Version of the result-file layout.
pub const SCHEMA: u32 = 1;

/// How the registry dependencies of `crates/*` were resolved. The package
/// patches every one of them to the stand-ins under `perf/stubs`, so
/// numbers from this benchmark are only comparable with each other.
pub const DEPENDENCIES: &str =
    "vendored stand-ins under perf/stubs (rand, serde, serde_json, tokio, bytes, parking_lot)";

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// `git describe --always --dirty`, or `unknown` outside a repository.
    pub git_describe: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Processors available to the process.
    pub nproc: usize,
    /// Threads the `simrt` pool is pinned to.
    pub pool_threads: usize,
    /// How registry dependencies were resolved.
    pub dependencies: String,
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(|l| l.trim().to_string())
}

impl Environment {
    /// Probe the current environment.
    pub fn probe() -> Environment {
        Environment {
            // Only inside a repository: a bare checkout must not send git
            // looking through the directories above it.
            git_describe: Path::new(".git")
                .exists()
                .then(|| first_line("git", &["describe", "--always", "--dirty"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: simrt::available_parallelism(),
            pool_threads: POOL_THREADS,
            dependencies: DEPENDENCIES.into(),
        }
    }

    /// Whether numbers from `self` and `other` may be compared: everything
    /// but the commit must match.
    pub fn comparable_with(&self, other: &Environment) -> bool {
        self.rustc == other.rustc
            && self.nproc == other.nproc
            && self.pool_threads == other.pool_threads
            && self.dependencies == other.dependencies
    }
}

/// One metric as printed and stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The last line a run prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinalLine {
    /// Every correctness check held.
    pub correct: bool,
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// The metrics of this kind of run.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// One run's entry in a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Timed repetitions.
    pub repetitions: usize,
    /// Digest of the body's output.
    pub digest: String,
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// A saved set of results: one environment, any number of runs per
/// workload (the steadiness protocol saves ten, each with another seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Layout version.
    pub schema: u32,
    /// Where the set was measured.
    pub environment: Environment,
    /// Untraced runs by workload, in the order they were made.
    pub end_to_end: BTreeMap<String, Vec<WorkloadResult>>,
    /// Traced runs by workload, in the order they were made.
    pub per_layer: BTreeMap<String, Vec<WorkloadResult>>,
}

impl ResultSet {
    /// Read a result file.
    pub fn load(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let set: ResultSet =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if set.schema != SCHEMA {
            return Err(format!(
                "{}: schema {} (this build reads {SCHEMA})",
                path.display(),
                set.schema
            ));
        }
        Ok(set)
    }

    /// Append `result` to the file at `path`, creating it if need be. A
    /// file measured in another environment is refused, not mixed into.
    pub fn merge_into(
        path: &Path,
        environment: &Environment,
        workload: &str,
        traced: bool,
        result: WorkloadResult,
    ) -> Result<(), String> {
        let mut set = if path.exists() {
            let set = ResultSet::load(path)?;
            if set.environment != *environment {
                return Err(format!(
                    "{}: measured in another environment ({:?}); refusing to mix results",
                    path.display(),
                    set.environment
                ));
            }
            set
        } else {
            ResultSet {
                schema: SCHEMA,
                environment: environment.clone(),
                end_to_end: BTreeMap::new(),
                per_layer: BTreeMap::new(),
            }
        };
        let side = if traced { &mut set.per_layer } else { &mut set.end_to_end };
        side.entry(workload.to_string()).or_default().push(result);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut text = serde_json::to_string_pretty(&set).expect("result sets serialise");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn metric_map(result: &RunResult) -> BTreeMap<String, MetricValue> {
    result
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).expect("Metrics::set checked the name").to_string();
            (name.to_string(), MetricValue { value, unit })
        })
        .collect()
}

/// The final JSON line of `result`.
pub fn final_line(result: &RunResult) -> FinalLine {
    FinalLine {
        correct: result.checks.failed == 0,
        attempted: result.checks.attempted,
        failed: result.checks.failed,
        metrics: metric_map(result),
    }
}

/// `result` as a result-file entry.
pub fn workload_result(result: &RunResult, seed: u64, seconds: f64) -> WorkloadResult {
    WorkloadResult {
        seed,
        seconds,
        repetitions: result.reps,
        digest: result.digest.clone(),
        attempted: result.checks.attempted,
        failed: result.checks.failed,
        metrics: metric_map(result),
    }
}

fn spread(label: &str, unit: &str, s: &Summary) -> String {
    format!(
        "{label:<14} median {:.6} {unit}  (n {}, q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6})",
        s.median, s.n, s.q1, s.q3, s.min, s.max
    )
}

/// Print the header, every metric by name with its unit, the digest, the
/// check counts and, last, the JSON line.
pub fn print(result: &RunResult, environment: &Environment, seed: u64, seconds: f64) {
    println!(
        "# perf: workload {} seed {seed} seconds {seconds} trace {}",
        result.workload, result.traced as u8
    );
    println!(
        "# git {} | {} | nproc {} | pool threads {} | repetitions {}",
        environment.git_describe,
        environment.rustc,
        environment.nproc,
        environment.pool_threads,
        result.reps
    );
    println!("# dependencies: {}", environment.dependencies);
    if let Some(s) = &result.rtf {
        println!("{}  [reported: max, the fastest repetition]", spread("rtf", "sim_s/s", s));
    }
    if let Some(s) = &result.wall_s {
        let note =
            if result.traced { "one pool thread, untraced" } else { "information only, not gated" };
        println!("{}  [{note}]", spread("wall_s/rep", "s", s));
    }
    if let Some(s) = &result.setup_s {
        println!("{}  [reported: min]", spread("setup_s", "s", s));
    }
    for (name, value) in result.metrics.iter() {
        println!(
            "{name} = {value} {}",
            spec::unit_of(name).expect("Metrics::set checked the name")
        );
    }
    println!("digest.{} = {}", result.workload, result.digest);
    println!("checks: attempted {} failed {}", result.checks.attempted, result.checks.failed);
    for failure in &result.checks.failures {
        println!("FAILED {failure}");
    }
    println!("{}", serde_json::to_string(&final_line(result)).expect("the final line serialises"));
}
