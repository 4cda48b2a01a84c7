//! `perf`: run one workload of the repository's benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--spans <file>]
//! perf spec                      print BENCHMARK.json
//! perf repeat <a.json> <b.json>  do two saved result sets agree within the bounds?
//! ```

use perf::harness::{self, Size, POOL_THREADS};
use perf::report::{self, Environment, ResultSet};
use perf::{compare, spec, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Traced repetitions (and untraced single-thread repetitions) per traced
/// run.
const TRACED_REPS: usize = 5;

/// Environment variables that would silently change what is measured.
const REJECTED_ENV: [&str; 2] = ["MPLEO_THREADS", "MPLEO_EPHEMERIS_CACHE"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing `--{name}`"));
    let workload = take("workload")?;
    let seed = take("seed")?;
    let seconds = take("seconds")?;
    let trace = take("trace")?;
    let args = Args {
        workload,
        seed: seed.parse().map_err(|_| format!("`--seed {seed}`: expected a whole number"))?,
        seconds: seconds
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("`--seconds {seconds}`: expected a positive number"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("`--trace {other}`: expected 0 or 1")),
        },
        out: flags.remove("out").map(PathBuf::from),
        spans: flags.remove("spans").map(PathBuf::from),
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag `--{extra}`")),
        None => Ok(args),
    }
}

/// Where span files go unless `--spans` says otherwise: the cargo target
/// directory, which every checkout already ignores.
fn default_spans_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perf/target"), PathBuf::from);
    target.join("perf-spans").join(format!("{workload}.jsonl"))
}

/// Run one workload and print its result. A result that was measured is
/// reported with exit code 0 whatever its checks say: `correct` and `failed`
/// in the final line carry the verdict.
fn run(args: Args) -> Result<bool, String> {
    for var in REJECTED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: it would change what is measured; unset it (the pool is pinned to {POOL_THREADS} threads, the ephemeris is never cached)"
            ));
        }
    }
    let mut workload =
        workloads::by_name(&args.workload, args.seed, Size::Full).ok_or_else(|| {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload `{}`; the workloads are {}", args.workload, names.join(", "))
        })?;
    simrt::configure(POOL_THREADS);
    let environment = Environment::probe();
    let result = if args.trace {
        harness::run_traced(workload.as_mut(), TRACED_REPS)
    } else {
        harness::run_untraced(workload.as_mut(), args.seconds, spec::MIN_REPS)
            .map_err(|e| e.to_string())?
    };
    if let Some(tracer) = &result.tracer {
        let path = args.spans.clone().unwrap_or_else(|| default_spans_path(result.workload));
        tracer
            .write_jsonl(&path, result.workload)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {} ({} spans)", path.display(), tracer.spans().len());
    }
    if let Some(out) = &args.out {
        let entry = report::workload_result(&result, args.seed, args.seconds);
        ResultSet::merge_into(out, &environment, result.workload, result.traced, entry)?;
    }
    report::print(&result, &environment, args.seed, args.seconds);
    Ok(true)
}

fn repeat(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (ResultSet::load(Path::new(a))?, ResultSet::load(Path::new(b))?);
    let rows = compare::compare(&a, &b)?;
    println!(
        "{:<26} {:<14} {:>16} {:>16} {:>7} {:>8} {:>7}",
        "workload", "metric", "median a", "median b", "runs", "gap", "bound"
    );
    for r in &rows {
        println!(
            "{:<26} {:<14} {:>16.6} {:>16.6} {:>7} {:>7.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            format!("{}/{}", r.runs.0, r.runs.1),
            r.gap * 100.0,
            r.bound * 100.0,
            if r.within() { "" } else { "  OUTSIDE" }
        );
    }
    Ok(rows.iter().all(compare::Row::within))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") if args.len() == 1 => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("repeat") if args.len() == 3 => repeat(&args[1], &args[2]),
        Some("spec" | "repeat") => {
            Err("usage: perf spec | perf repeat <a.json> <b.json>".to_string())
        }
        _ => parse(&args).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
