//! Satellite failure injection and replenishment policy.
//!
//! The paper's robustness questions (§1): "How do we deal with satellite
//! failures?" — withdrawals are adversarial and instantaneous; failures are
//! stochastic and continuous. This module simulates an exponential-lifetime
//! failure process over the simulation horizon, optional periodic
//! replenishment launches, and reports the coverage trajectory — the
//! steady-state a constellation operator actually lives in.

use leosim::montecarlo::run_rng;
use leosim::visibility::VisibilityTable;
use leosim::TimeBitset;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Failure / replenishment model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Mean time between failures per satellite, seconds (exponential).
    pub mtbf_s: f64,
    /// Replenishment cadence: every `launch_interval_s`, up to
    /// `batch_size` failed satellites are replaced (0 = no replenishment).
    pub launch_interval_s: f64,
    /// Satellites replaced per launch.
    pub batch_size: usize,
}

/// The alive-set trajectory of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureRun {
    /// Per-step count of alive satellites.
    pub alive_count: Vec<usize>,
    /// Per-step coverage fraction at the measured site.
    pub coverage: Vec<f64>,
    /// Total failures that occurred.
    pub failures: usize,
    /// Total replacements launched.
    pub replacements: usize,
}

impl FailureRun {
    /// Mean coverage over the horizon.
    pub fn mean_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        self.coverage.iter().sum::<f64>() / self.coverage.len() as f64
    }

    /// Minimum alive count over the horizon.
    pub fn min_alive(&self) -> usize {
        self.alive_count.iter().cloned().min().unwrap_or(0)
    }
}

/// Simulate failures over the table's grid for the subset `sat_indices`,
/// measuring coverage at `site` in sliding windows of `window_steps`.
///
/// Failures strike alive satellites as a Poisson process (rate =
/// alive / MTBF); replacements revive the longest-dead satellites at each
/// launch epoch (modeling a like-for-like spare into the same slot).
pub fn simulate_failures(
    vt: &VisibilityTable,
    sat_indices: &[usize],
    site: usize,
    model: &FailureModel,
    window_steps: usize,
    seed: u64,
) -> FailureRun {
    assert!(window_steps >= 1);
    let steps = vt.grid.steps;
    let step_s = vt.grid.step_s;
    let mut rng = run_rng(seed, 0);
    let mut alive: Vec<bool> = vec![true; sat_indices.len()];
    let mut died_at: Vec<Option<usize>> = vec![None; sat_indices.len()];
    let mut failures = 0;
    let mut replacements = 0;
    let mut alive_count = Vec::with_capacity(steps);
    let mut coverage = Vec::with_capacity(steps);
    let mut next_launch = model.launch_interval_s;

    for k in 0..steps {
        // Failure draws: each alive satellite fails this step w.p.
        // step/MTBF (exponential hazard, first-order).
        let p_fail = (step_s / model.mtbf_s).min(1.0);
        for (i, a) in alive.iter_mut().enumerate() {
            if *a && rng.gen::<f64>() < p_fail {
                *a = false;
                died_at[i] = Some(k);
                failures += 1;
            }
        }
        // Replenishment.
        let t = k as f64 * step_s;
        if model.launch_interval_s > 0.0 && t >= next_launch {
            next_launch += model.launch_interval_s;
            // Revive the longest-dead first (their slots have gaped
            // longest).
            let mut dead: Vec<(usize, usize)> = died_at
                .iter()
                .enumerate()
                .filter_map(|(i, d)| d.map(|when| (when, i)))
                .filter(|&(_, i)| !alive[i])
                .collect();
            dead.sort_unstable();
            for &(_, i) in dead.iter().take(model.batch_size) {
                alive[i] = true;
                died_at[i] = None;
                replacements += 1;
            }
        }
        let n_alive = alive.iter().filter(|&&a| a).count();
        alive_count.push(n_alive);
        // Windowed coverage: fraction of the trailing window covered by
        // currently-alive satellites.
        let w_start = k.saturating_sub(window_steps - 1);
        let mut covered = TimeBitset::zeros(steps);
        for (i, &sat) in sat_indices.iter().enumerate() {
            if alive[i] {
                covered.union_assign(vt.bitset(sat, site));
            }
        }
        let win: usize = (w_start..=k).filter(|&s| covered.get(s)).count();
        coverage.push(win as f64 / (k - w_start + 1) as f64);
    }
    FailureRun { alive_count, coverage, failures, replacements }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use leosim::visibility::SimConfig;
    use leosim::TimeGrid;
    use orbital::constellation::{walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn table() -> VisibilityTable {
        let epoch = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let spec = ShellSpec { planes: 10, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch);
        let sites = [fixtures::taipei()];
        let grid = TimeGrid::new(epoch, 2.0 * 86_400.0, 300.0);
        VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default().with_mask_deg(10.0))
    }

    #[test]
    fn no_failures_with_infinite_mtbf() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let model = FailureModel { mtbf_s: f64::INFINITY, launch_interval_s: 0.0, batch_size: 0 };
        let run = simulate_failures(&vt, &idx, 0, &model, 12, 1);
        assert_eq!(run.failures, 0);
        assert_eq!(run.min_alive(), idx.len());
    }

    #[test]
    fn aggressive_failures_thin_the_fleet() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        // MTBF of 10 days: over 2 days ~18% of the fleet dies.
        let model = FailureModel { mtbf_s: 10.0 * 86_400.0, launch_interval_s: 0.0, batch_size: 0 };
        let run = simulate_failures(&vt, &idx, 0, &model, 12, 2);
        assert!(run.failures > 0, "failures expected");
        assert!(run.min_alive() < idx.len());
        // Alive count is non-increasing without replenishment.
        for w in run.alive_count.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn replenishment_restores_fleet() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let no_fix = FailureModel { mtbf_s: 5.0 * 86_400.0, launch_interval_s: 0.0, batch_size: 0 };
        let with_fix = FailureModel {
            mtbf_s: 5.0 * 86_400.0,
            launch_interval_s: 0.5 * 86_400.0,
            batch_size: 20,
        };
        let bare = simulate_failures(&vt, &idx, 0, &no_fix, 12, 3);
        let fixed = simulate_failures(&vt, &idx, 0, &with_fix, 12, 3);
        assert!(fixed.replacements > 0);
        assert!(
            fixed.alive_count.last().unwrap() > bare.alive_count.last().unwrap(),
            "replenished fleet ends larger"
        );
        assert!(fixed.mean_coverage() >= bare.mean_coverage());
    }

    #[test]
    fn coverage_degrades_with_failures() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let healthy = FailureModel { mtbf_s: f64::INFINITY, launch_interval_s: 0.0, batch_size: 0 };
        let dying = FailureModel { mtbf_s: 2.0 * 86_400.0, launch_interval_s: 0.0, batch_size: 0 };
        let h = simulate_failures(&vt, &idx, 0, &healthy, 12, 4);
        let d = simulate_failures(&vt, &idx, 0, &dying, 12, 4);
        assert!(
            d.mean_coverage() < h.mean_coverage(),
            "{} vs {}",
            d.mean_coverage(),
            h.mean_coverage()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        // ~2-year MTBF, quarterly launches of 10.
        let model = FailureModel {
            mtbf_s: 2.0 * 365.25 * 86_400.0,
            launch_interval_s: 91.0 * 86_400.0,
            batch_size: 10,
        };
        let a = simulate_failures(&vt, &idx, 0, &model, 12, 5);
        let b = simulate_failures(&vt, &idx, 0, &model, 12, 5);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.alive_count, b.alive_count);
        let c = simulate_failures(&vt, &idx, 0, &model, 12, 6);
        // Different seed, almost surely different trajectory (tiny chance
        // of equality tolerated by comparing only when failures differ).
        if a.failures != c.failures {
            assert_ne!(a.alive_count, c.alive_count);
        }
    }
}
