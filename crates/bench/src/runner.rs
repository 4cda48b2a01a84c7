//! The experiment runner.
//!
//! One process, one shared [`Context`] (and therefore one pool ephemeris
//! build), any subset of the registry. The `suite` binary
//! (`--only`/`--skip`/`--strict`/`--report`, …) is its one front end; a
//! single experiment is `--only <id>`.
//!
//! Independent experiments fan out on the shared `simrt` worker pool (one
//! task per experiment; the pool's token budget keeps this outer
//! parallelism and each experiment's inner Monte-Carlo parallelism within
//! one core budget) with per-experiment wall, CPU, and pool timing; each
//! produces a structured [`ExperimentResult`] written to
//! `results/<id>.json`, with paper expectations evaluated to
//! pass/warn/fail both in the JSON and in the exit code (`--strict`).

use crate::expectations::{self, Status};
use crate::experiment::{Experiment, ExperimentResult, Timing};
use crate::{registry, render_table, report, Context, Fidelity};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Options for one suite invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteOptions {
    /// Run only these ids (registry order); empty means all.
    pub only: Vec<String>,
    /// Skip these ids.
    pub skip: Vec<String>,
    /// Results directory (default `results/`).
    pub out_dir: Option<PathBuf>,
    /// Evaluate every expectation failure as a warning (the CI mode).
    pub warn_only: bool,
    /// Suppress per-experiment human output (results JSON still written).
    pub quiet: bool,
    /// Use this fidelity instead of reading the environment (tests).
    pub fidelity: Option<Fidelity>,
}

/// What a suite run produced, for exit-code decisions and tests.
#[derive(Debug, Default)]
pub struct SuiteSummary {
    /// All results, registry order.
    pub results: Vec<ExperimentResult>,
    /// Expectation counts across every experiment.
    pub pass: usize,
    /// See `pass`.
    pub warn: usize,
    /// See `pass`.
    pub fail: usize,
}

/// `git describe` of the working tree, when git is available.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// CPU seconds consumed by the calling thread, best effort. Reads
/// `/proc/thread-self/stat` (utime+stime at the kernel's usual 100 Hz
/// tick); returns `None` off Linux or on any parse surprise.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The comm field is parenthesised and may contain spaces; fields
    // resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state), so utime/stime (fields 14/15) are at
    // indices 11/12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

fn results_dir(opts: &SuiteOptions) -> PathBuf {
    opts.out_dir.clone().unwrap_or_else(|| "results".into())
}

/// Run one experiment: fill the metadata around its data-only result and
/// evaluate its expectations. Must be called on the thread that does the
/// work so the CPU accounting is per-experiment.
fn run_one(
    exp: &dyn Experiment,
    ctx: &Context,
    fidelity: &Fidelity,
    git: Option<&str>,
    warn_only: bool,
) -> ExperimentResult {
    let _ = simrt::take_thread_metrics();
    let cpu0 = thread_cpu_s();
    let wall0 = Instant::now();
    let mut r = exp.run(ctx, fidelity);
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, thread_cpu_s()) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    };
    // Parallel scopes started by this experiment (this thread) since the
    // drain above. Measured timing only — never diffed for determinism.
    let pool = simrt::take_thread_metrics();
    r.id = exp.id().to_string();
    r.title = exp.title().to_string();
    r.fidelity = fidelity.into();
    r.seeds = exp.seeds();
    r.params = exp.params(fidelity);
    r.git_describe = git.map(str::to_string);
    r.timing = Timing {
        wall_s,
        cpu_s,
        busy_s: (pool.scopes > 0).then_some(pool.busy_s),
        queue_wait_s: (pool.scopes > 0).then_some(pool.queue_wait_s),
    };
    r.expectations =
        expectations::evaluate_all(&exp.expectations(), &r.scalars, fidelity.full, warn_only);
    r
}

/// Render one finished experiment as the human block the old binaries
/// printed: banner, params, tables, notes, expectation verdicts, timing.
fn render_block(r: &ExperimentResult) -> String {
    let mut out = String::new();
    let line = "=".repeat(64);
    out.push_str(&format!("{line}\n  {}: {}\n{line}\n", r.id, r.title));
    let params: Vec<String> = r.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out.push_str(&format!(
        "fidelity: {} ({:.0} s horizon, {:.0} s step, {} runs)\n",
        if r.fidelity.full { "full" } else { "quick" },
        r.fidelity.horizon_s,
        r.fidelity.step_s,
        r.fidelity.runs
    ));
    if !params.is_empty() {
        out.push_str(&format!("params:   {}\n", params.join(", ")));
    }
    for t in &r.tables {
        out.push('\n');
        let headers: Vec<&str> = t.headers.iter().map(String::as_str).collect();
        out.push_str(&render_table(&headers, &t.rows));
    }
    if !r.notes.is_empty() {
        out.push('\n');
        for n in &r.notes {
            out.push_str(n);
            out.push('\n');
        }
    }
    if !r.expectations.is_empty() {
        out.push_str("\npaper expectations:\n");
        for e in &r.expectations {
            let measured = match e.measured {
                Some(m) => format!("{m:.3}"),
                None => "missing".to_string(),
            };
            let why = match &e.downgraded {
                Some(w) => format!(" [downgraded: {w}]"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  [{}] {} {} {} (tol {}): measured {}{} — {}\n",
                e.status.label(),
                e.metric,
                e.comparator,
                e.target,
                e.tol,
                measured,
                why,
                e.paper_ref
            ));
        }
    }
    out.push_str(&format!(
        "timing: {:.2} s wall{}{}{}\n",
        r.timing.wall_s,
        match r.timing.cpu_s {
            Some(c) => format!(", {c:.2} s cpu"),
            None => String::new(),
        },
        match r.timing.busy_s {
            Some(b) => format!(", {b:.2} s busy"),
            None => String::new(),
        },
        match r.timing.queue_wait_s {
            Some(q) => format!(", {q:.2} s queued"),
            None => String::new(),
        }
    ));
    out
}

/// Run the selected experiments over one shared context, write their JSON
/// results, and return the summary. Errors (bad ids, bad env, unwritable
/// results dir) come back as strings for the caller to print and exit on.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteSummary, String> {
    let selected = registry::select(&opts.only, &opts.skip)?;
    if selected.is_empty() {
        return Err("no experiments selected".to_string());
    }
    let fidelity = match &opts.fidelity {
        Some(f) => *f,
        None => Fidelity::from_env().map_err(|e| e.to_string())?,
    };
    let dir = results_dir(opts);
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let git = git_describe();
    let ctx = Context::new(&fidelity);

    let stdout = Mutex::new(());
    let run_and_emit = |exp: &dyn Experiment| -> Result<ExperimentResult, String> {
        let r = run_one(exp, &ctx, &fidelity, git.as_deref(), opts.warn_only);
        let path = dir.join(format!("{}.json", r.id));
        let json = serde_json::to_string_pretty(&r)
            .map_err(|e| format!("cannot serialize {}: {e}", r.id))?;
        fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        if !opts.quiet {
            let block = render_block(&r);
            let _guard = stdout.lock().unwrap();
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{block}");
        }
        Ok(r)
    };

    // Scopes started under this cap (the fan-out below, plus — at cap 1 —
    // every transitively inline inner scope) honor the fidelity's thread
    // count, which is how the determinism tests compare threads=1 against
    // threads=N inside one process.
    let results: Vec<Result<ExperimentResult, String>> =
        simrt::with_thread_cap(fidelity.threads, || {
            // One pool task per experiment; panics stay inside the task.
            simrt::par_map_indexed(selected.len(), 0, |i| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_and_emit(selected[i])
                }))
                .unwrap_or_else(|_| Err("experiment thread panicked".to_string()))
            })
        });

    let mut summary = SuiteSummary::default();
    for (res, exp) in results.into_iter().zip(&selected) {
        let r = res.map_err(|e| format!("{}: {e}", exp.id()))?;
        for o in &r.expectations {
            match o.status {
                Status::Pass => summary.pass += 1,
                Status::Warn => summary.warn += 1,
                Status::Fail => summary.fail += 1,
            }
        }
        summary.results.push(r);
    }
    Ok(summary)
}

fn print_summary(s: &SuiteSummary) {
    println!(
        "suite: {} experiment(s), expectations {} pass / {} warn / {} fail",
        s.results.len(),
        s.pass,
        s.warn,
        s.fail
    );
}

/// What a parsed `suite` command line asks for.
#[derive(Debug, PartialEq)]
pub enum SuiteCommand {
    /// Print the registry and exit.
    List,
    /// Run the suite. `strict` exits non-zero when any expectation fails.
    Run {
        /// Runner options.
        opts: SuiteOptions,
        /// Exit non-zero on expectation failures.
        strict: bool,
        /// Regenerate the EXPERIMENTS.md report block afterwards.
        report: bool,
    },
    /// Only regenerate the report from the existing results in this
    /// directory.
    Report(PathBuf),
    /// Print usage.
    Help,
}

/// Usage text of `--bin suite`.
pub fn usage() -> &'static str {
    "usage: suite [--list] [--only id,id,...] [--skip id,id,...]\n\
     \x20        [--out DIR] [--strict] [--warn-only] [--quiet]\n\
     \x20        [--report] [--report-only]\n\
     \n\
     Runs the registered experiments (all by default) in one process\n\
     over a shared context, writing results/<id>.json per experiment.\n\
     \n\
     --list         print the experiment ids and titles, then exit\n\
     --only IDS     run only these comma-separated experiment ids\n\
     --skip IDS     skip these comma-separated experiment ids\n\
     --out DIR      results directory (default: results/)\n\
     --strict       exit non-zero if any paper expectation fails\n\
     --warn-only    downgrade every expectation failure to a warning\n\
     --quiet        suppress per-experiment output (JSON still written)\n\
     --report       after running, regenerate EXPERIMENTS.md's report block\n\
     --report-only  regenerate the report from existing results, run nothing\n\
     \n\
     Fidelity comes from the environment: MPLEO_FULL=1 for the paper's\n\
     protocol, MPLEO_RUNS / MPLEO_HORIZON_S / MPLEO_STEP_S to override.\n\
     MPLEO_THREADS sets the worker count (0 or unset = auto-detect)."
}

/// Parse `suite`-style arguments (everything after the program name).
pub fn parse_args(args: &[String]) -> Result<SuiteCommand, String> {
    let mut opts = SuiteOptions::default();
    let mut strict = false;
    let mut report = false;
    let mut report_only = false;
    let mut list = false;
    fn split_ids(v: &str) -> Vec<String> {
        v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--only" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--only needs a comma-separated id list".to_string())?;
                opts.only = split_ids(v);
            }
            "--skip" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--skip needs a comma-separated id list".to_string())?;
                opts.skip = split_ids(v);
            }
            "--out" => {
                opts.out_dir =
                    Some(it.next().ok_or_else(|| "--out needs a directory".to_string())?.into());
            }
            "--strict" => strict = true,
            "--warn-only" => opts.warn_only = true,
            "--quiet" => opts.quiet = true,
            "--report" => report = true,
            "--report-only" => report_only = true,
            "--help" | "-h" => return Ok(SuiteCommand::Help),
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    if list {
        return Ok(SuiteCommand::List);
    }
    if report_only {
        return Ok(SuiteCommand::Report(results_dir(&opts)));
    }
    Ok(SuiteCommand::Run { opts, strict, report })
}

/// Execute a parsed command; returns the process exit code. This is the
/// whole body of `--bin suite`.
pub fn execute(cmd: SuiteCommand) -> i32 {
    match cmd {
        SuiteCommand::Help => {
            println!("{}", usage());
            0
        }
        SuiteCommand::List => {
            for exp in registry::ALL {
                println!("{:22} {}", exp.id(), exp.title());
            }
            0
        }
        SuiteCommand::Report(dir) => {
            match report::update_markdown(&dir, std::path::Path::new("EXPERIMENTS.md")) {
                Ok(n) => {
                    println!("EXPERIMENTS.md report block regenerated from {n} result(s)");
                    0
                }
                Err(e) => {
                    eprintln!("report: {e}");
                    2
                }
            }
        }
        SuiteCommand::Run { opts, strict, report: do_report } => match run_suite(&opts) {
            Ok(summary) => {
                print_summary(&summary);
                if do_report {
                    let dir = results_dir(&opts);
                    if let Err(e) =
                        report::update_markdown(&dir, std::path::Path::new("EXPERIMENTS.md"))
                    {
                        eprintln!("report: {e}");
                        return 2;
                    }
                    println!("EXPERIMENTS.md report block regenerated");
                }
                if strict && summary.fail > 0 {
                    eprintln!("strict mode: {} expectation failure(s)", summary.fail);
                    1
                } else {
                    0
                }
            }
            Err(e) => {
                eprintln!("suite: {e}");
                2
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_run_flags() {
        let cmd = parse_args(&s(&["--only", "fig2,fig3", "--strict", "--out", "/tmp/r"])).unwrap();
        match cmd {
            SuiteCommand::Run { opts, strict, report } => {
                assert_eq!(opts.only, vec!["fig2", "fig3"]);
                assert_eq!(opts.out_dir, Some(PathBuf::from("/tmp/r")));
                assert!(strict);
                assert!(!report);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_list_help_and_errors() {
        assert_eq!(parse_args(&s(&["--list"])).unwrap(), SuiteCommand::List);
        assert_eq!(parse_args(&s(&["--help"])).unwrap(), SuiteCommand::Help);
        assert_eq!(
            parse_args(&s(&["--report-only"])).unwrap(),
            SuiteCommand::Report("results".into())
        );
        assert_eq!(
            parse_args(&s(&["--report-only", "--out", "/tmp/r"])).unwrap(),
            SuiteCommand::Report("/tmp/r".into())
        );
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--only"])).is_err());
    }

    #[test]
    fn thread_cpu_is_monotone_when_available() {
        if let (Some(a), Some(b)) = (thread_cpu_s(), thread_cpu_s()) {
            assert!(b >= a);
        }
    }
}
