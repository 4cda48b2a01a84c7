//! Subcommand implementations, one module per command family; shared
//! flag/scene helpers live in [`common`]. `main.rs` keeps addressing
//! everything as `commands::<command>` through the re-exports below.

mod common;

mod churn;
mod coverage;
mod data;
mod fuzz;
mod node;
mod plan;
mod traffic;

pub use self::churn::churn;
pub use self::coverage::{coverage, map, sla};
pub use self::data::{cities, manifest, tle};
pub use self::fuzz::fuzz;
pub use self::node::{audit, node};
pub use self::plan::{plan, screen};
pub use self::traffic::traffic;

#[cfg(test)]
mod tests {
    use super::common::epoch;
    use super::*;
    use crate::args::Args;
    use orbital::constellation::{walker_delta, ShellSpec};

    fn argv(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn tle_command_emits_parseable_tles() {
        // Smoke test through the public API (stdout not captured; we
        // regenerate the same constellation and check parity).
        let spec = ShellSpec { planes: 2, sats_per_plane: 2, ..ShellSpec::starlink_like() };
        for sat in walker_delta(&spec, epoch()) {
            let text = sat.to_tle().to_string();
            orbital::tle::Tle::parse(&text).expect("CLI TLE output must parse");
        }
        assert!(tle(&argv("tle --planes 2 --per-plane 2")).is_ok());
    }

    #[test]
    fn coverage_runs_with_defaults() {
        assert!(coverage(&argv("coverage --sats 50 --days 0.25 --step 300")).is_ok());
    }

    #[test]
    fn coverage_region_runs() {
        assert!(
            coverage(&argv("coverage --region taiwan --sats 100 --days 0.25 --step 300")).is_ok()
        );
        assert!(coverage(&argv("coverage --region atlantis")).is_err());
    }

    #[test]
    fn coverage_rejects_oversample() {
        let err = coverage(&argv("coverage --sats 99999")).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(coverage(&argv("coverage --nope 1")).is_err());
        assert!(screen(&argv("screen --bogus 2")).is_err());
    }

    #[test]
    fn plan_runs_small() {
        assert!(plan(&argv("plan --contribute 2 --base 10 --days 0.25 --step 300")).is_ok());
    }

    #[test]
    fn screen_runs_small() {
        assert!(screen(&argv("screen --planes 3 --per-plane 3 --hours 2")).is_ok());
    }

    #[test]
    fn sla_runs_small() {
        assert!(sla(&argv("sla --sats 50 --days 0.25 --step 300")).is_ok());
    }

    #[test]
    fn cities_lists() {
        assert!(cities(&argv("cities")).is_ok());
    }

    #[test]
    fn map_runs_small() {
        assert!(map(&argv("map --sats 30 --hours 2 --rows 8 --cols 16")).is_ok());
        assert!(map(&argv("map --bogus 1")).is_err());
    }

    #[test]
    fn manifest_emits_valid_json() {
        assert!(manifest(&argv("manifest --parties 4 --per-party 2")).is_ok());
        assert!(manifest(&argv("manifest --oops 1")).is_err());
    }

    #[test]
    fn audit_runs_both_verdicts() {
        assert!(audit(&argv("audit")).is_ok());
        assert!(audit(&argv("audit --forge-raan 5")).is_ok());
    }

    #[test]
    fn traffic_runs_small() {
        assert!(traffic(&argv("traffic --sats 60 --hours 3 --step 600")).is_ok());
        assert!(traffic(&argv("traffic --bogus 1")).is_err());
    }

    #[test]
    fn traffic_rejects_bad_flags() {
        assert!(traffic(&argv("traffic --parties 0")).is_err());
        assert!(traffic(&argv("traffic --gateway-stride 0")).is_err());
        assert!(traffic(&argv("traffic --scale -1")).is_err());
        assert!(traffic(&argv("traffic --sats 99999")).is_err());
    }

    #[test]
    fn churn_runs_small() {
        assert!(churn(&argv("churn --sats 60 --hours 3 --step 600")).is_ok());
        assert!(churn(&argv("churn --sats 60 --hours 3 --step 600 --withdraw none")).is_ok());
        assert!(churn(&argv("churn --bogus 1")).is_err());
    }

    #[test]
    fn fuzz_runs_a_tiny_seed_range() {
        assert!(fuzz(&argv("fuzz --seeds 2 --start-seed 100")).is_ok());
        assert!(fuzz(&argv("fuzz --bogus 1")).is_err());
    }

    #[test]
    fn fuzz_rejects_bad_flags() {
        assert!(fuzz(&argv("fuzz --seeds 0")).is_err());
        assert!(fuzz(&argv("fuzz --budget -1")).is_err());
        assert!(fuzz(&argv("fuzz --seeds x")).is_err());
        assert!(fuzz(&argv("fuzz --corpus /nonexistent/corpus --seeds 0")).is_err());
    }

    #[test]
    fn churn_rejects_bad_flags() {
        assert!(churn(&argv("churn --parties 0")).is_err());
        assert!(churn(&argv("churn --gateway-stride 0")).is_err());
        assert!(churn(&argv("churn --fail-fraction 1.5")).is_err());
        assert!(churn(&argv("churn --fail-fraction -0.1")).is_err());
        assert!(churn(&argv("churn --withdraw 7")).is_err());
        assert!(churn(&argv("churn --withdraw x")).is_err());
        assert!(churn(&argv("churn --scale -1")).is_err());
        assert!(churn(&argv("churn --sats 99999")).is_err());
    }
}
