//! `mpleo` — the MP-LEO command-line tool.
//!
//! Subcommands:
//!
//! * `tle`      — synthesize a Walker constellation as standard TLE text
//! * `coverage` — coverage statistics for a ground point
//! * `plan`     — gap-filling placement suggestions for a new contribution
//! * `screen`   — conjunction screening of a constellation
//! * `sla`      — quote the sellable service tier for a point
//! * `cities`   — print the embedded 21-city dataset
//! * `traffic`  — route diurnal metro demand and summarize the market
//! * `churn`    — run a timed failure/withdrawal campaign over the traffic stack
//! * `map`      — ASCII world map of coverage fraction
//! * `audit`    — fit an orbit from synthetic ranging and audit a publication
//! * `manifest` — emit a validated constellation manifest as JSON
//! * `node`     — run a live coordination-protocol node over TCP
//! * `fuzz`     — seeded whole-stack scenario fuzzing with invariant oracles
//!
//! Run `mpleo help` (or any subcommand with `--help`-style curiosity) for
//! usage; every command works offline and completes in seconds.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run 'mpleo help' for usage");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_deref() {
        None | Some("help") => {
            print_help();
            Ok(())
        }
        Some("tle") => commands::tle(&parsed),
        Some("coverage") => commands::coverage(&parsed),
        Some("plan") => commands::plan(&parsed),
        Some("screen") => commands::screen(&parsed),
        Some("sla") => commands::sla(&parsed),
        Some("cities") => commands::cities(&parsed),
        Some("traffic") => commands::traffic(&parsed),
        Some("churn") => commands::churn(&parsed),
        Some("map") => commands::map(&parsed),
        Some("audit") => commands::audit(&parsed),
        Some("manifest") => commands::manifest(&parsed),
        Some("node") => commands::node(&parsed),
        Some("fuzz") => commands::fuzz(&parsed),
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            print_help();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "mpleo — multi-party LEO constellation toolkit

USAGE:
    mpleo <command> [--flag value ...]

COMMANDS:
    tle       synthesize a Walker constellation as TLE text
                --planes N --per-plane M (default 4x4)
                --inclination DEG (53) --altitude KM (550) --phasing F (1)
    coverage  coverage statistics for a ground point or named region
                --lat DEG --lon DEG (default Taipei)
                --region taiwan|ukraine|korea (overrides lat/lon)
                --sats N (500) --days D (1) --step S (60) --mask DEG (25)
    plan      suggest gap-filling orbital slots for a new contribution
                --contribute K (3) --base N (40) --days D (1)
    screen    conjunction screening of a synthesized constellation
                --planes N (6) --per-plane M (6) --hours H (6)
                --threshold KM (10)
    sla       quote the sellable service tier for a point
                --lat DEG --lon DEG --sats N (500) --days D (1)
    cities    print the embedded 21-city dataset
    traffic   route diurnal metro demand over a shared constellation
                --sats N (300) --hours H (12) --step S (600)
                --parties P (3) --gateway-stride K (3)
                --isl-range KM (3000) --max-hops N (1) --scale F (1)
                --mask DEG (25)
    churn     run a timed failure/withdrawal campaign over the traffic stack
                --sats N (300) --hours H (12) --step S (600)
                --parties P (3) --gateway-stride K (3)
                --fail-fraction F (0.1) --withdraw IDX|none (1)
                --scale F (1) --mask DEG (25)
    map       ASCII world map of coverage fraction
                --sats N (200) --hours H (12) --mask DEG (25)
                --rows R (18) --cols C (72)
    audit     fit an orbit from synthetic ranging and audit a publication
                --forge-raan DEG (0 = honest publication)
    manifest  emit a validated constellation manifest as JSON
                --parties N (3) --per-party M (4) --name NAME
    node      run a live coordination-protocol node over TCP
                --id NAME (alpha) --listen ADDR (127.0.0.1:0)
                --peers ADDR,ADDR,... (dials retry with backoff)
                --parties a,b,c (alpha,beta,gamma) --secret S (mpleo-demo)
                --anti-entropy-ms MS (1000) --status-secs S (5)
                --retry-initial-ms MS (100) --retry-max-ms MS (5000)
                --retry-attempts N (0 = unlimited)
    fuzz      seeded whole-stack scenario fuzzing with invariant oracles
                --seeds N (25) --budget SECS (0 = unbounded)
                --start-seed S (the CI smoke base seed)
                --corpus DIR (re-check pinned tests/corpus entries first)
                --out DIR (write failing repros as one-line JSON files)
    help      this message

All commands run fully offline on a synthetic Starlink-like pool."
    );
}
