//! The `Experiment` abstraction: every figure and ablation of the paper's
//! evaluation is one implementation of [`Experiment`], producing a
//! serde-serializable [`ExperimentResult`] instead of a human-only table.
//!
//! The split of responsibilities:
//!
//! * an experiment's `run` fills the **data** fields (scalars, series,
//!   tables, notes) from a shared [`Context`];
//! * the [runner](crate::runner) fills the **metadata** fields (id, title,
//!   fidelity, seeds, params, git describe, timing) and evaluates the
//!   experiment's [expectations](crate::expectations) into the same record
//!   before writing `results/<id>.json`.

use crate::expectations::{Expectation, ExpectationOutcome};
use crate::{Context, Fidelity};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version of the JSON result schema; bump on breaking field changes.
pub const SCHEMA_VERSION: u32 = 1;

/// One experiment of the paper's evaluation (a figure or an ablation).
pub trait Experiment: Sync {
    /// Stable identifier (`fig2`, `ablation_isl`, …); what `--only` takes
    /// and the `results/<id>.json` stem.
    fn id(&self) -> &'static str;

    /// Human title, printed in the banner.
    fn title(&self) -> &'static str;

    /// The base RNG seeds this experiment draws from (see [`crate::seeds`]).
    fn seeds(&self) -> Vec<u64> {
        Vec::new()
    }

    /// The experiment-specific parameter set at a fidelity, recorded in the
    /// result so "measured" is never ambiguous.
    fn params(&self, fidelity: &Fidelity) -> Vec<(String, String)>;

    /// Paper-expectation bands checked against the scalars `run` produces.
    fn expectations(&self) -> Vec<Expectation> {
        Vec::new()
    }

    /// Run the experiment over the shared context. Implementations fill
    /// only the data fields of the result (via [`ExperimentResult::data`]);
    /// the runner owns the metadata.
    fn run(&self, ctx: &Context, fidelity: &Fidelity) -> ExperimentResult;
}

/// A named table of string cells — the machine form of what the binaries
/// used to `print_table`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Short name, unique within the experiment.
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

/// The fidelity an experiment actually ran at.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FidelityRecord {
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Time step, seconds.
    pub step_s: f64,
    /// Monte-Carlo runs per point.
    pub runs: usize,
    /// True when running the paper's full settings.
    pub full: bool,
}

impl From<&Fidelity> for FidelityRecord {
    fn from(f: &Fidelity) -> FidelityRecord {
        FidelityRecord { horizon_s: f.horizon_s, step_s: f.step_s, runs: f.runs, full: f.full }
    }
}

/// Per-experiment timing, filled by the runner. All fields are measured,
/// never part of the deterministic payload — result-comparison tooling
/// (e.g. the CI thread-count determinism gate) strips the whole `timing`
/// object before diffing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the driving thread (best effort; `None` where the
    /// platform offers no per-thread accounting).
    pub cpu_s: Option<f64>,
    /// Summed busy seconds across every `simrt` scope claimant this
    /// experiment started (`busy_s / wall_s` approximates its effective
    /// parallelism). `None` when the experiment ran no parallel scopes.
    #[serde(default)]
    pub busy_s: Option<f64>,
    /// Seconds this experiment's helper jobs waited in the `simrt` pool
    /// queue before a worker picked them up — the contention signal.
    #[serde(default)]
    pub queue_wait_s: Option<f64>,
}

/// The structured record of one experiment run; serialized to
/// `results/<id>.json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Result schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id.
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// The fidelity the run used.
    pub fidelity: FidelityRecord,
    /// `git describe` of the tree that produced the result, when available.
    pub git_describe: Option<String>,
    /// Base RNG seeds.
    pub seeds: Vec<u64>,
    /// Parameter set (ordered key/value pairs).
    pub params: Vec<(String, String)>,
    /// Named headline scalars — the values expectations test.
    pub scalars: BTreeMap<String, f64>,
    /// Named numeric series (the figure's plotted data).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Row-level tables.
    pub tables: Vec<Table>,
    /// Free-form notes (the old binaries' epilogue text).
    pub notes: Vec<String>,
    /// Wall/CPU timing.
    pub timing: Timing,
    /// Evaluated paper expectations.
    pub expectations: Vec<ExpectationOutcome>,
}

impl ExperimentResult {
    /// Start a data-only result; experiments chain the builder methods
    /// below and the runner fills the metadata.
    pub fn data() -> ExperimentResult {
        ExperimentResult { schema_version: SCHEMA_VERSION, ..Default::default() }
    }

    /// Record a headline scalar.
    pub fn scalar(mut self, key: &str, value: f64) -> Self {
        self.scalars.insert(key.to_string(), value);
        self
    }

    /// Record a named series.
    pub fn series(mut self, key: &str, values: Vec<f64>) -> Self {
        self.series.insert(key.to_string(), values);
        self
    }

    /// Record a table.
    pub fn table(mut self, name: &str, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        self.tables.push(Table {
            name: name.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        });
        self
    }

    /// Record a note line.
    pub fn note(mut self, text: impl Into<String>) -> Self {
        self.notes.push(text.into());
        self
    }
}
