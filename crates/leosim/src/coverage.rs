//! Coverage statistics: gap analysis and the paper's population-weighted
//! coverage-time metric.

use crate::bitset::TimeBitset;
use crate::timegrid::TimeGrid;
use serde::{Deserialize, Serialize};

/// Summary statistics of a coverage bitset at one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Fraction of time covered, `[0, 1]`.
    pub covered_fraction: f64,
    /// Fraction of time *without* coverage (the paper's Fig. 2 y-axis).
    pub uncovered_fraction: f64,
    /// Total covered time, seconds.
    pub covered_s: f64,
    /// Total uncovered time, seconds.
    pub uncovered_s: f64,
    /// Longest continuous gap, seconds.
    pub max_gap_s: f64,
    /// Mean gap length, seconds (0 when fully covered).
    pub mean_gap_s: f64,
    /// Number of distinct gaps.
    pub gap_count: usize,
}

impl CoverageStats {
    /// Compute statistics from a coverage bitset on its grid.
    pub fn from_bitset(covered: &TimeBitset, grid: &TimeGrid) -> CoverageStats {
        assert_eq!(covered.len(), grid.steps, "bitset/grid mismatch");
        let ones = covered.count_ones();
        let zeros = covered.count_zeros();
        let gaps = covered.runs_of_zeros();
        let max_gap = gaps.iter().map(|r| r.len()).max().unwrap_or(0);
        let mean_gap = if gaps.is_empty() {
            0.0
        } else {
            zeros as f64 / gaps.len() as f64
        };
        CoverageStats {
            covered_fraction: covered.fraction_ones(),
            uncovered_fraction: 1.0 - covered.fraction_ones(),
            covered_s: grid.steps_to_seconds(ones),
            uncovered_s: grid.steps_to_seconds(zeros),
            max_gap_s: grid.steps_to_seconds(max_gap),
            mean_gap_s: mean_gap * grid.step_s,
            gap_count: gaps.len(),
        }
    }
}

/// Population-weighted coverage time in seconds: `sum_i w_i * covered_s_i`.
///
/// This is the paper's §3.2 objective ("population weighted coverage over 21
/// most populous cities"); weights must sum to 1 (see
/// [`geodata::population_weights`]).
pub fn population_weighted_coverage(
    per_site_coverage: &[TimeBitset],
    weights: &[f64],
    grid: &TimeGrid,
) -> f64 {
    assert_eq!(per_site_coverage.len(), weights.len(), "site/weight count mismatch");
    per_site_coverage
        .iter()
        .zip(weights)
        .map(|(c, w)| w * grid.steps_to_seconds(c.count_ones()))
        .sum()
}

/// Aggregate of repeated scalar measurements (Monte-Carlo outputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Aggregate {
    /// Compute over a slice of samples. Panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> Aggregate {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Aggregate {
            n,
            mean,
            std_dev: var.sqrt(),
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbital::time::Epoch;

    fn grid(steps: usize) -> TimeGrid {
        TimeGrid::new(
            Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0),
            (steps - 1) as f64 * 60.0,
            60.0,
        )
    }

    #[test]
    fn stats_full_coverage() {
        let g = grid(100);
        let s = CoverageStats::from_bitset(&TimeBitset::ones(100), &g);
        assert_eq!(s.gap_count, 0);
        assert!((s.covered_fraction - 1.0).abs() < 1e-12);
        assert_eq!(s.max_gap_s, 0.0);
        assert_eq!(s.mean_gap_s, 0.0);
        assert!((s.covered_s - 100.0 * 60.0).abs() < 1e-9);
    }

    #[test]
    fn stats_no_coverage() {
        let g = grid(50);
        let s = CoverageStats::from_bitset(&TimeBitset::zeros(50), &g);
        assert_eq!(s.gap_count, 1);
        assert!((s.uncovered_fraction - 1.0).abs() < 1e-12);
        assert!((s.max_gap_s - 50.0 * 60.0).abs() < 1e-9);
    }

    #[test]
    fn stats_gap_structure() {
        let g = grid(10);
        let mut b = TimeBitset::zeros(10);
        for k in [0, 1, 5, 9] {
            b.set(k);
        }
        // gaps: [2,5) len 3, [6,9) len 3.
        let s = CoverageStats::from_bitset(&b, &g);
        assert_eq!(s.gap_count, 2);
        assert!((s.max_gap_s - 180.0).abs() < 1e-9);
        assert!((s.mean_gap_s - 180.0).abs() < 1e-9);
        assert!((s.covered_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn weighted_coverage_linear_in_weights() {
        let g = grid(100);
        let mut a = TimeBitset::zeros(100);
        for k in 0..50 {
            a.set(k);
        }
        let b = TimeBitset::ones(100);
        let cov = population_weighted_coverage(&[a, b], &[0.5, 0.5], &g);
        // 0.5*3000s + 0.5*6000s = 4500s.
        assert!((cov - 4500.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_coverage_degenerate_weight() {
        let g = grid(10);
        let empty = TimeBitset::zeros(10);
        let full = TimeBitset::ones(10);
        let cov = population_weighted_coverage(&[empty, full], &[1.0, 0.0], &g);
        assert_eq!(cov, 0.0);
    }

    #[test]
    fn aggregate_basics() {
        let a = Aggregate::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.n, 4);
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert!((a.min - 1.0).abs() < 1e-12);
        assert!((a.max - 4.0).abs() < 1e-12);
        assert!((a.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn aggregate_single_sample() {
        let a = Aggregate::from_samples(&[7.0]);
        assert_eq!(a.std_dev, 0.0);
        assert_eq!(a.mean, 7.0);
    }

    #[test]
    #[should_panic]
    fn aggregate_empty_panics() {
        Aggregate::from_samples(&[]);
    }
}
