//! `perf repeat <a.json> <b.json>`: do two saved result sets agree within
//! the benchmark's own bounds? Each side of a comparison is the median over
//! the runs the set holds for that workload.

use crate::report::ResultSet;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats;

/// One end-to-end metric of one workload in both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static str,
    /// Median over the first set's runs.
    pub a: f64,
    /// Median over the second set's runs.
    pub b: f64,
    /// Runs behind `a` and `b`.
    pub runs: (usize, usize),
    /// `|a − b|` as a share of the better of the two.
    pub gap: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// Whether the two values agree within the bound.
    pub fn within(&self) -> bool {
        self.gap <= self.bound
    }
}

/// Compare every end-to-end metric of every workload. Errors when the sets
/// were measured in environments that must not be compared, or when one
/// lacks a workload or a metric.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<Vec<Row>, String> {
    if !a.environment.comparable_with(&b.environment) {
        return Err(format!(
            "environments differ beyond the commit:\n  a: {:?}\n  b: {:?}",
            a.environment, b.environment
        ));
    }
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        let values = |set: &ResultSet, which: &str, metric: &str| {
            let runs = set.end_to_end.get(workload).map(Vec::as_slice).unwrap_or_default();
            let values: Option<Vec<f64>> =
                runs.iter().map(|r| r.metrics.get(metric).map(|m| m.value)).collect();
            values
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("set {which} has no `{metric}` for `{workload}`"))
        };
        for (metric, _, better, bound) in END_TO_END {
            let (runs_a, runs_b) = (values(a, "a", metric)?, values(b, "b", metric)?);
            let (va, vb) = (stats::median(&runs_a), stats::median(&runs_b));
            // The worse value as a share of the better one, which is how a
            // regression of that size would read.
            let base = match better {
                Better::Higher => va.max(vb),
                Better::Lower => va.min(vb),
            };
            rows.push(Row {
                workload,
                metric,
                a: va,
                b: vb,
                runs: (runs_a.len(), runs_b.len()),
                gap: (va - vb).abs() / base,
                bound,
            });
        }
    }
    Ok(rows)
}
