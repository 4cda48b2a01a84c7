//! The run loop shared by every workload: set-up, warm-up, timed
//! repetitions, correctness checks, and the traced variant.

use crate::spec::{self, MIN_REPS};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Threads the `simrt` pool is pinned to for every measurement.
pub const POOL_THREADS: usize = 2;

/// Input scale: the frozen benchmark size, or the tiny size the smoke
/// tests use (never reachable from the command line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark is defined at.
    Full,
    /// A few satellites, a few steps: exercises every code path in
    /// seconds.
    Smoke,
}

/// Correctness checks, each counted as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; `detail` is only evaluated on failure.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", detail()));
        }
    }

    /// Count one check that either passes or explains itself.
    pub fn check_result<E: std::fmt::Display>(&mut self, what: &str, result: Result<(), E>) {
        let detail = result.as_ref().err().map(|e| e.to_string());
        self.check(what, result.is_ok(), || detail.unwrap_or_default());
    }
}

/// Named metric values; units come from [`crate::spec`].
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`. Panics on a name the benchmark does not define, so a
    /// metric cannot be reported without being in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::unit_of(name).is_some(), "metric `{name}` is not in the spec");
        self.values.insert(name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every recorded `(name, value)`, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(&n, &v)| (n, v))
    }
}

/// One pinned workload. The harness owns timing, repetition and counting;
/// the workload owns its inputs, its body and its checks.
pub trait Workload {
    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Simulated seconds one repetition of the body covers (the numerator
    /// of the real-time factor).
    fn sim_span_s(&self) -> f64;

    /// Whether the body uses up what set-up built, so that every
    /// repetition needs a fresh (untimed) set-up.
    fn consumes_setup(&self) -> bool;

    /// Whether the body runs on the `simrt` pool, so that the result must
    /// be identical at one and two threads.
    fn uses_pool(&self) -> bool;

    /// Build the inputs and everything the timed body takes as given.
    fn setup(&mut self);

    /// The timed body. Keeps its output for [`Workload::digest`] and
    /// [`Workload::check`].
    fn body(&mut self);

    /// SHA-256 (hex) of the last body's serialised output. Untimed.
    fn digest(&mut self) -> String;

    /// Check the last body's output; each check is one attempted operation.
    fn check(&mut self, checks: &mut Checks);

    /// The body replayed stage by stage through public calls, each in a
    /// span under the open repetition span. Keeps its output like
    /// [`Workload::body`], so [`Workload::digest`] must match.
    fn traced_body(&mut self, tracer: &mut Tracer);

    /// Per-layer metrics for the layers this workload runs: direct probes
    /// of public calls (each in a span) plus numbers read off the spans of
    /// the traced repetitions and the last output.
    fn layer_metrics(&mut self, tracer: &mut Tracer, metrics: &mut Metrics, checks: &mut Checks);
}

/// What a run produced, before printing.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced variant.
    pub traced: bool,
    /// The metrics this kind of run reports (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Correctness checks.
    pub checks: Checks,
    /// Timed repetitions.
    pub reps: usize,
    /// Digest of the body's output (equal across repetitions on success).
    pub digest: String,
    /// Distribution of `rtf` over the timed repetitions.
    pub rtf: Option<Summary>,
    /// Distribution of wall seconds per repetition (information only).
    pub wall_s: Option<Summary>,
    /// Distribution of set-up seconds.
    pub setup_s: Option<Summary>,
    /// The span recorder of a traced run.
    pub tracer: Option<Tracer>,
}

/// A run that cannot report a result.
#[derive(Debug)]
pub enum RunError {
    /// Fewer than [`MIN_REPS`] timed repetitions fit in the run.
    Oversized {
        /// Repetitions completed.
        reps: usize,
        /// Seconds measured.
        seconds: f64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Oversized { reps, seconds } => write!(
                f,
                "workload oversized: {reps} timed repetitions in {seconds:.1} s, need {MIN_REPS}"
            ),
        }
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed set-ups after the discarded first one of a batch: at most this many.
const SETUPS_PER_BATCH: usize = 8;

/// A batch of set-ups stops growing once it has taken this long, seconds.
const SETUP_BATCH_S: f64 = 0.05;

/// One batch of set-ups, back to back, pushed onto `setups`. The first of a
/// batch is not kept: it drops what the last body left behind and runs on
/// the body's caches, several times slower than the same call warm, and that
/// difference is the machine's, not the set-up's. Slow set-ups give one
/// sample per batch, millisecond ones [`SETUPS_PER_BATCH`]. Leaves fresh
/// inputs behind.
fn setup_batch(w: &mut dyn Workload, setups: &mut Vec<f64>) {
    let batch = Instant::now();
    w.setup();
    for kept in 0..SETUPS_PER_BATCH {
        if kept > 0 && batch.elapsed().as_secs_f64() >= SETUP_BATCH_S {
            break;
        }
        setups.push(timed(|| w.setup()));
    }
}

/// The untraced run: end-to-end metrics.
///
/// One set-up and one warm-up repetition at one pool thread (its digest is
/// the reference), then for `seconds` a batch of timed set-ups and one timed
/// repetition at two threads, in turn; every repetition's digest must equal
/// the reference, which checks repeatability and the one-vs-two-thread
/// determinism contract in one go. Set-ups are timed between the
/// repetitions, not in one stretch before or after them: this machine's
/// speed wanders by a third over seconds, so a stretch of a quarter second
/// reads whatever state it falls in, while samples spread over the run see
/// the same mix of states as the repetitions. `min_reps` is [`MIN_REPS`] for real runs; the smoke
/// tests pass 1.
pub fn run_untraced(
    w: &mut dyn Workload,
    seconds: f64,
    min_reps: usize,
) -> Result<RunResult, RunError> {
    let mut checks = Checks::default();
    let mut setups = Vec::new();

    // First set-up and warm-up, untimed; the warm-up's digest is the
    // reference.
    w.setup();
    let cap = if w.uses_pool() { 1 } else { 0 };
    simrt::with_thread_cap(cap, || w.body());
    let reference = w.digest();

    let mut walls = Vec::new();
    let loop_start = Instant::now();
    while loop_start.elapsed().as_secs_f64() < seconds {
        setup_batch(w, &mut setups);
        walls.push(timed(|| w.body()));
        let digest = w.digest();
        checks.check("digest equals the reference", digest == reference, || {
            format!("repetition {} gave {digest}, reference {reference}", walls.len())
        });
    }
    let measured = loop_start.elapsed().as_secs_f64();
    if walls.len() < min_reps {
        return Err(RunError::Oversized { reps: walls.len(), seconds: measured });
    }
    w.check(&mut checks);
    let span = w.sim_span_s();
    let rtfs: Vec<f64> = walls.iter().map(|&s| span / s).collect();
    let (rtf, setup_s) = (stats::summarize(&rtfs), stats::summarize(&setups));
    // The fastest repetition and the fastest set-up are what is reported,
    // not the medians: every repetition does the same work on the same
    // inputs, so all the variation between them is the machine's, and on a
    // shared host it only ever slows a repetition down, by up to half for
    // stretches longer than a run. Over ten runs the medians spread by a
    // third of their value, the fastest by half of that.
    let mut metrics = Metrics::default();
    metrics.set("rtf", rtf.max);
    metrics.set("setup_s", setup_s.min);
    metrics.set("peak_rss_mib", peak_rss_mib());
    Ok(RunResult {
        workload: w.name(),
        traced: false,
        metrics,
        checks,
        reps: walls.len(),
        digest: reference,
        rtf: Some(rtf),
        wall_s: Some(stats::summarize(&walls)),
        setup_s: Some(setup_s),
        tracer: None,
    })
}

/// The traced run: per-layer metrics.
///
/// Everything runs under `simrt::with_thread_cap(1)` so that spans nest on
/// one thread: `reps` pairs of an untraced body (the single-thread
/// baseline) and a traced replay (its digest must match), then the
/// workload's layer probes. The tracing overhead is the median traced wall
/// ÷ the median untraced wall, minus one; the two kinds alternate so that
/// both medians see the same stretch of machine time. Metrics the workload's layers do not produce
/// are reported as 0 — "not measured in this workload's traced run".
pub fn run_traced(w: &mut dyn Workload, reps: usize) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut tracer = Tracer::default();
    let fresh = w.consumes_setup();

    w.setup();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reference = String::new();
    simrt::with_thread_cap(1, || {
        // Untraced and traced repetitions alternate, so that each pair
        // shares whatever state the machine is in.
        for rep in 0..reps {
            if fresh && rep > 0 {
                w.setup();
            }
            plain.push(timed(|| w.body()));
            let digest = w.digest();
            if rep == 0 {
                reference = digest.clone();
            }
            checks.check("digest equals the reference", digest == reference, || {
                format!("untraced repetition {rep} gave {digest}, reference {reference}")
            });
            if fresh {
                w.setup();
            }
            tracer.set_rep(rep);
            traced.push(timed(|| tracer.span("rep", |t| w.traced_body(t))));
            let digest = w.digest();
            checks.check("traced replay reproduces the body", digest == reference, || {
                format!("traced repetition {rep} gave {digest}, reference {reference}")
            });
        }
        tracer.set_rep(reps);
        if fresh {
            w.setup();
        }
        w.layer_metrics(&mut tracer, &mut metrics, &mut checks);
    });

    let (plain_s, traced_s) = (stats::median(&plain), stats::median(&traced));
    metrics.set("run.rtf_1t", w.sim_span_s() / plain_s);
    metrics.set("trace.overhead_frac", traced_s / plain_s - 1.0);
    metrics.set("trace.coverage_frac", tracer.coverage("rep"));
    for &(name, _, _) in spec::PER_LAYER {
        if metrics.get(name).is_none() {
            metrics.set(name, 0.0);
        }
    }
    RunResult {
        workload: w.name(),
        traced: true,
        metrics,
        checks,
        reps,
        digest: reference,
        rtf: None,
        wall_s: Some(stats::summarize(&plain)),
        setup_s: None,
        tracer: Some(tracer),
    }
}
