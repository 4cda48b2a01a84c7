//! The `fuzz` command: the seeded whole-stack scenario fuzzer.
//!
//! Drives `scenario::run_fuzz` over a contiguous seed range (and,
//! optionally, the checked-in corpus first), printing one line per seed
//! and a shrunk one-line JSON repro for every failure. Exits nonzero if
//! anything failed, so CI can gate on it directly.

use super::common::CmdResult;
use crate::args::Args;
use scenario::seeds::FUZZ_SMOKE_START;
use std::path::Path;
use std::time::Duration;

/// `mpleo fuzz` — generate seeded whole-stack scenarios and check every
/// cross-layer invariant oracle over each one; shrink and print failures
/// as replayable one-line JSON repros.
pub fn fuzz(args: &Args) -> CmdResult {
    args.expect_only(&["seeds", "budget", "start-seed", "corpus", "out"])?;
    let seeds = args.get_u64("seeds", 25)?;
    let budget_s = args.get_f64("budget", 0.0)?;
    let start_seed = args.get_u64("start-seed", FUZZ_SMOKE_START)?;
    let corpus_dir = args.get_str("corpus", "");
    let out_dir = args.get_str("out", "");
    if seeds == 0 && corpus_dir.is_empty() {
        return Err("--seeds 0 with no --corpus checks nothing".into());
    }
    if budget_s < 0.0 {
        return Err("--budget must be non-negative seconds".into());
    }
    let budget = (budget_s > 0.0).then(|| Duration::from_secs_f64(budget_s));

    let mut failing_repros: Vec<scenario::Repro> = Vec::new();

    // The pinned corpus first: these are known-good (or fixed-and-pinned)
    // scenarios whose oracles must keep passing.
    if !corpus_dir.is_empty() {
        let entries = scenario::load_corpus(Path::new(&corpus_dir))?;
        println!("corpus: {} entr{} from {corpus_dir}", entries.len(), plural_y(entries.len()));
        for (path, entry) in &entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            match entry.check() {
                Ok(outcome) => println!(
                    "  {name}: ok (seed {}, {} sats, {} steps, served {:.1}%)",
                    entry.seed,
                    outcome.n_sats,
                    outcome.steps,
                    outcome.served_ratio * 100.0
                ),
                Err(violation) => {
                    println!("  {name}: FAIL {violation}");
                    failing_repros.push(scenario::Repro::new(&entry.scenario(), &violation));
                }
            }
        }
    }

    // Then the fresh seed range.
    if seeds > 0 {
        println!(
            "fuzz: {seeds} seed(s) from {start_seed:#x}{}",
            match budget {
                Some(b) => format!(", budget {:.0} s", b.as_secs_f64()),
                None => String::new(),
            }
        );
        let report =
            scenario::run_fuzz(start_seed, seeds, budget, &mut |seed, result| match result {
                Ok(outcome) => println!(
                    "  seed {seed:#x}: ok ({} sats, {} steps, served {:.1}%, {} trades)",
                    outcome.n_sats,
                    outcome.steps,
                    outcome.served_ratio * 100.0,
                    outcome.trades
                ),
                Err(violation) => println!("  seed {seed:#x}: FAIL {violation} (shrinking...)"),
            });
        println!(
            "checked {} seed(s) in {:.1} s: {} failure(s)",
            report.checked,
            report.elapsed.as_secs_f64(),
            report.failures.len()
        );
        failing_repros.extend(report.failures);
    }

    if failing_repros.is_empty() {
        println!("all oracles passed");
        return Ok(());
    }

    // Every failure as a replayable one-line JSON repro, optionally
    // persisted (the CI smoke job uploads this directory as an artifact).
    for (i, repro) in failing_repros.iter().enumerate() {
        println!("repro[{i}] [{}] {}", repro.oracle, repro.to_json());
    }
    if !out_dir.is_empty() {
        std::fs::create_dir_all(&out_dir)?;
        for (i, repro) in failing_repros.iter().enumerate() {
            let path = Path::new(&out_dir).join(format!("repro-{:04}-seed-{}.json", i, repro.seed));
            std::fs::write(&path, repro.to_json())?;
            println!("wrote {}", path.display());
        }
    }
    Err(format!("{} scenario(s) violated an oracle", failing_repros.len()).into())
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}
