//! # mpleo-bench — the experiment harness
//!
//! One registered experiment per figure of the paper (`fig1a`, `fig2`, …
//! `fig6`) plus the ablation and traffic/churn studies (see [`registry`]);
//! each prints the series the paper plots. One binary runs any subset:
//! `cargo run --release -p mpleo-bench --bin suite -- --only fig2`.
//!
//! Two fidelity levels:
//!
//! * **default** — scaled-down (shorter horizon, coarser step, fewer
//!   Monte-Carlo runs) so every figure regenerates in seconds on a laptop;
//! * **full** — the paper's settings (1 week, 60 s step, 100 runs), enabled
//!   by setting `MPLEO_FULL=1`.
//!
//! Every run prints which fidelity it ran and the exact parameters, so
//! EXPERIMENTS.md can record paper-vs-measured unambiguously.

pub mod expectations;
pub mod experiment;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod runner;
pub mod seeds;

use geodata::{paper_cities, population_weights, City};
use leosim::ephemeris::EphemerisStore;
use leosim::visibility::{SimConfig, VisibilityTable};
use leosim::TimeGrid;
use orbital::constellation::{starlink_gen1_pool, Satellite};
use orbital::ground::GroundSite;
use orbital::time::Epoch;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Experiment fidelity settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Time step, seconds.
    pub step_s: f64,
    /// Monte-Carlo runs per point.
    pub runs: usize,
    /// True when running the paper's full settings.
    pub full: bool,
    /// Worker threads for the shared `simrt` pool (0 = auto-detect).
    pub threads: usize,
}

/// An invalid fidelity environment variable. The offending variable and
/// value are spelled out so a typo'd override fails loudly instead of
/// silently running the default settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidelityError {
    /// The environment variable at fault.
    pub var: &'static str,
    /// The rejected value.
    pub value: String,
    /// What was expected instead.
    pub expected: &'static str,
}

impl std::fmt::Display for FidelityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?} is invalid: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for FidelityError {}

impl Fidelity {
    /// The default quick settings: every experiment regenerates in seconds.
    pub fn quick() -> Fidelity {
        Fidelity { horizon_s: 2.0 * 86_400.0, step_s: 120.0, runs: 15, full: false, threads: 0 }
    }

    /// The paper's settings: one week, 60 s step, 100 Monte-Carlo runs.
    pub fn paper() -> Fidelity {
        Fidelity { horizon_s: 7.0 * 86_400.0, step_s: 60.0, runs: 100, full: true, threads: 0 }
    }

    /// Resolve fidelity from the process environment (`MPLEO_FULL`, plus
    /// validated `MPLEO_RUNS` / `MPLEO_HORIZON_S` / `MPLEO_STEP_S` /
    /// `MPLEO_THREADS` overrides).
    pub fn from_env() -> Result<Fidelity, FidelityError> {
        Self::from_env_map(&std::env::vars().collect())
    }

    /// [`Fidelity::from_env`] over an explicit map, so tests can inject an
    /// environment instead of mutating (and racing on) the process one.
    pub fn from_env_map(env: &BTreeMap<String, String>) -> Result<Fidelity, FidelityError> {
        let full = match env.get("MPLEO_FULL").map(String::as_str) {
            None | Some("") | Some("0") => false,
            Some("1") => true,
            Some(other) => {
                return Err(FidelityError {
                    var: "MPLEO_FULL",
                    value: other.to_string(),
                    expected: "0 or 1",
                })
            }
        };
        let mut fidelity = if full { Self::paper() } else { Self::quick() };
        if let Some(v) = env.get("MPLEO_RUNS").filter(|v| !v.is_empty()) {
            fidelity.runs = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or(FidelityError {
                var: "MPLEO_RUNS",
                value: v.clone(),
                expected: "a positive integer",
            })?;
        }
        if let Some(v) = env.get("MPLEO_HORIZON_S").filter(|v| !v.is_empty()) {
            fidelity.horizon_s =
                v.parse::<f64>().ok().filter(|h| h.is_finite() && *h > 0.0).ok_or(
                    FidelityError {
                        var: "MPLEO_HORIZON_S",
                        value: v.clone(),
                        expected: "a positive number of seconds",
                    },
                )?;
        }
        if let Some(v) = env.get("MPLEO_STEP_S").filter(|v| !v.is_empty()) {
            fidelity.step_s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0).ok_or(
                FidelityError {
                    var: "MPLEO_STEP_S",
                    value: v.clone(),
                    expected: "a positive number of seconds",
                },
            )?;
        }
        if let Some(v) = env.get(simrt::THREADS_ENV) {
            fidelity.threads = simrt::env_threads(Some(v))
                .map_err(|e| FidelityError {
                    var: simrt::THREADS_ENV,
                    value: e.value,
                    expected: "a non-negative integer (0 = auto)",
                })?
                .unwrap_or(0);
        }
        if fidelity.step_s > fidelity.horizon_s {
            return Err(FidelityError {
                var: "MPLEO_STEP_S",
                value: format!("{}", fidelity.step_s),
                expected: "a step no larger than the horizon",
            });
        }
        Ok(fidelity)
    }
}

/// The common scenario epoch for all experiments.
pub fn scenario_epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

/// The standard experiment context: Starlink-like pool, the paper's 21
/// cities with population weights, and a time grid.
pub struct Context {
    /// The satellite pool (Starlink Gen1-like, ~4.4k satellites).
    pub pool: Vec<Satellite>,
    /// The paper's 21-city terminal set.
    pub cities: Vec<City>,
    /// City ground sites (same order as `cities`).
    pub sites: Vec<GroundSite>,
    /// Population weights (same order, sum 1).
    pub weights: Vec<f64>,
    /// The simulation grid.
    pub grid: TimeGrid,
    /// Link configuration.
    pub config: SimConfig,
    /// The pool-wide ephemeris, propagated lazily at most once per process
    /// and shared by every table/figure this context produces.
    ephemeris: OnceLock<EphemerisStore>,
    /// The pool × 21-city visibility table, likewise built at most once.
    city_table: OnceLock<VisibilityTable>,
}

impl Context {
    /// Build the standard context at a fidelity.
    pub fn new(fidelity: &Fidelity) -> Context {
        let epoch = scenario_epoch();
        let pool = starlink_gen1_pool(epoch);
        let cities = paper_cities();
        let sites = geodata::to_sites(&cities);
        let weights = population_weights(&cities);
        let grid = TimeGrid::new(epoch, fidelity.horizon_s, fidelity.step_s);
        Context {
            pool,
            cities,
            sites,
            weights,
            grid,
            config: SimConfig::default(),
            ephemeris: OnceLock::new(),
            city_table: OnceLock::new(),
        }
    }

    /// The pool-wide ephemeris store: propagate the ~4.4k-satellite pool
    /// over the grid exactly once per process and reuse it for every table,
    /// mask, sample and figure.
    pub fn pool_ephemeris(&self) -> &EphemerisStore {
        self.ephemeris.get_or_init(|| EphemerisStore::build(&self.pool, &self.grid, &self.config))
    }

    /// The pool-wide visibility table against the 21 cities: pure geometry
    /// over [`Context::pool_ephemeris`], computed once and shared by every
    /// figure that reads it.
    pub fn city_table(&self) -> &VisibilityTable {
        self.city_table.get_or_init(|| self.table_for(&self.sites))
    }

    /// Compute a visibility table against a custom site list, reusing the
    /// shared pool ephemeris.
    pub fn table_for(&self, sites: &[GroundSite]) -> VisibilityTable {
        self.table_for_config(sites, &self.config)
    }

    /// [`Context::table_for`] with a custom config (e.g. a different
    /// elevation mask). `config.propagator` must match the context's — the
    /// shared store was propagated with the context's model.
    pub fn table_for_config(&self, sites: &[GroundSite], config: &SimConfig) -> VisibilityTable {
        assert_eq!(
            config.propagator, self.config.propagator,
            "shared ephemeris was built with the context's propagator"
        );
        VisibilityTable::from_store(self.pool_ephemeris(), sites, config)
    }

    /// Visibility table for a subset of pool rows (table order follows
    /// `indices`), reusing the shared pool ephemeris — no re-propagation.
    pub fn subset_table(&self, indices: &[usize], sites: &[GroundSite]) -> VisibilityTable {
        self.subset_table_config(indices, sites, &self.config)
    }

    /// [`Context::subset_table`] with a custom config (same propagator rule
    /// as [`Context::table_for_config`]).
    pub fn subset_table_config(
        &self,
        indices: &[usize],
        sites: &[GroundSite],
        config: &SimConfig,
    ) -> VisibilityTable {
        assert_eq!(
            config.propagator, self.config.propagator,
            "shared ephemeris was built with the context's propagator"
        );
        VisibilityTable::from_store_subset(self.pool_ephemeris(), indices, sites, config)
    }

    /// A standalone ephemeris store for a subset of pool rows (row order
    /// follows `indices`), copied from the shared store without
    /// re-propagating.
    pub fn subset_ephemeris(&self, indices: &[usize]) -> EphemerisStore {
        self.pool_ephemeris().select(indices)
    }
}

/// Render a simple aligned table as a string. Ragged rows are tolerated:
/// rows longer than the header grow extra columns, shorter rows pad with
/// empty cells.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(0);
            }
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let c = cells.get(i).unwrap_or(&empty);
            s.push_str(&format!("{:>width$}  ", c, width = w));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// Render a simple aligned table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// Format seconds as `Xh Ym` style via the orbital helper.
pub fn fmt_dur(seconds: f64) -> String {
    orbital::time::format_duration(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn fidelity_defaults_quick() {
        // Injected env map — no process-env mutation, so this cannot race
        // with other tests under the parallel harness.
        let f = Fidelity::from_env_map(&env(&[])).unwrap();
        assert!(!f.full);
        assert!(f.runs < 100);
        assert_eq!(f, Fidelity::quick());
    }

    #[test]
    fn fidelity_full_and_overrides() {
        let f = Fidelity::from_env_map(&env(&[("MPLEO_FULL", "1")])).unwrap();
        assert_eq!(f, Fidelity::paper());
        let f = Fidelity::from_env_map(&env(&[
            ("MPLEO_RUNS", "3"),
            ("MPLEO_HORIZON_S", "7200"),
            ("MPLEO_STEP_S", "600"),
        ]))
        .unwrap();
        assert!(!f.full);
        assert_eq!(f.runs, 3);
        assert_eq!(f.horizon_s, 7200.0);
        assert_eq!(f.step_s, 600.0);
    }

    #[test]
    fn fidelity_threads_override() {
        let f = Fidelity::from_env_map(&env(&[("MPLEO_THREADS", "6")])).unwrap();
        assert_eq!(f.threads, 6);
        // Empty and "0" both mean auto.
        let f = Fidelity::from_env_map(&env(&[("MPLEO_THREADS", "0")])).unwrap();
        assert_eq!(f.threads, 0);
        let f = Fidelity::from_env_map(&env(&[("MPLEO_THREADS", "")])).unwrap();
        assert_eq!(f.threads, 0);
    }

    #[test]
    fn fidelity_rejects_garbage_loudly() {
        for (var, value) in [
            ("MPLEO_FULL", "yes"),
            ("MPLEO_RUNS", "ten"),
            ("MPLEO_RUNS", "0"),
            ("MPLEO_RUNS", "-2"),
            ("MPLEO_HORIZON_S", "1week"),
            ("MPLEO_HORIZON_S", "-5"),
            ("MPLEO_STEP_S", "NaN"),
            ("MPLEO_STEP_S", "0"),
            ("MPLEO_THREADS", "four"),
            ("MPLEO_THREADS", "-1"),
            ("MPLEO_THREADS", "2.5"),
        ] {
            let err = Fidelity::from_env_map(&env(&[(var, value)])).unwrap_err();
            assert_eq!(err.var, var, "{var}={value}");
            assert_eq!(err.value, value);
            assert!(err.to_string().contains(var));
        }
        // A step larger than the horizon is rejected even if both parse.
        let err =
            Fidelity::from_env_map(&env(&[("MPLEO_HORIZON_S", "100"), ("MPLEO_STEP_S", "200")]))
                .unwrap_err();
        assert_eq!(err.var, "MPLEO_STEP_S");
    }

    #[test]
    fn context_builds() {
        let f = Fidelity { horizon_s: 3600.0, step_s: 600.0, runs: 1, full: false, threads: 0 };
        let ctx = Context::new(&f);
        assert_eq!(ctx.cities.len(), 21);
        assert_eq!(ctx.sites.len(), 21);
        assert!((ctx.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(ctx.pool.len() > 4000);
        assert_eq!(ctx.grid.steps, 7);
    }

    #[test]
    fn pool_ephemeris_built_once_and_reused() {
        let f = Fidelity { horizon_s: 3600.0, step_s: 600.0, runs: 1, full: false, threads: 0 };
        let ctx = Context::new(&f);
        let a: *const EphemerisStore = ctx.pool_ephemeris();
        let b: *const EphemerisStore = ctx.pool_ephemeris();
        assert_eq!(a, b, "store must be built at most once per context");
        let vt = ctx.subset_table(&[0, 5, 9], &ctx.sites[..2]);
        assert_eq!(vt.sat_count(), 3);
        assert_eq!(vt.sat_ids[0], ctx.pool[0].id);
        assert_eq!(vt.sat_ids[1], ctx.pool[5].id);
        let sub = ctx.subset_ephemeris(&[0, 5, 9]);
        assert_eq!(sub.sat_count(), 3);
        assert_eq!(sub.position(1, 0), ctx.pool_ephemeris().position(5, 0));
        // One Context admits one build: the subset paths read the same store.
        assert!(std::ptr::eq(a, ctx.pool_ephemeris()), "subset paths must not rebuild the store");
    }

    #[test]
    fn city_table_built_once_and_equal_to_a_fresh_one() {
        let f = Fidelity { horizon_s: 3600.0, step_s: 600.0, runs: 1, full: false, threads: 0 };
        let ctx = Context::new(&f);
        let shared = ctx.city_table();
        assert!(std::ptr::eq(shared, ctx.city_table()), "one table per context");
        let fresh = ctx.table_for(&ctx.sites);
        assert_eq!(shared.sat_ids, fresh.sat_ids);
        assert_eq!(shared.site_names, fresh.site_names);
        assert_eq!(shared.table, fresh.table, "bitset for bitset");
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn render_table_empty_rows() {
        let s = render_table(&["a", "b"], &[]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2, "header + rule only: {s:?}");
        assert!(lines[0].contains('a') && lines[0].contains('b'));
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
    }

    #[test]
    fn render_table_ragged_rows() {
        // A row longer than the header grows a column; a shorter row pads.
        let s = render_table(
            &["x"],
            &[vec!["1".into(), "extra".into(), "more".into()], vec![], vec!["22".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[2].contains("extra") && lines[2].contains("more"));
        assert!(lines[4].contains("22"));
    }

    #[test]
    fn fmt_dur_edges() {
        assert_eq!(fmt_dur(0.0), "0.0s");
        assert_eq!(fmt_dur(59.4), "59.4s");
        // Exactly one day and beyond 24 h both carry the day component.
        assert_eq!(fmt_dur(86_400.0), "1d 00h 00m");
        assert_eq!(fmt_dur(30.0 * 3600.0 + 90.0), "1d 06h 01m");
        assert_eq!(fmt_dur(10.0 * 86_400.0), "10d 00h 00m");
    }
}
