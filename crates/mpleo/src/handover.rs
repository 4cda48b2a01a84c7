//! Satellite handover analysis for terminals.
//!
//! LEO terminals switch satellites every few minutes; each switch is a
//! service blip and a scheduling event, so handover *rate* and *gap
//! exposure* are the QoS quantities behind the paper's §4 market-design
//! question ("What kinds of quality-of-service can they provide?"). This
//! module replays a terminal's serving-satellite sequence under a
//! configurable selection policy and reports the handover statistics.

use leosim::visibility::VisibilityTable;
use serde::{Deserialize, Serialize};

/// How the terminal picks among visible satellites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandoverPolicy {
    /// Stay on the current satellite until it sets, then pick the
    /// lowest-index visible one (minimizes handovers).
    StickyMaxDwell,
    /// Always use the lowest-index visible satellite (a proxy for
    /// "best satellite now" policies that churn more).
    AlwaysBest,
}

/// The serving timeline of one terminal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HandoverTrace {
    /// Serving satellite per step (`None` = outage).
    pub serving: Vec<Option<usize>>,
    /// Number of satellite-to-satellite handovers (outage transitions not
    /// counted).
    pub handovers: usize,
    /// Number of outage periods entered.
    pub outages: usize,
    /// Steps spent connected.
    pub connected_steps: usize,
}

impl HandoverTrace {
    /// Handovers per connected hour.
    pub fn handover_rate_per_hour(&self, step_s: f64) -> f64 {
        let hours = self.connected_steps as f64 * step_s / 3600.0;
        if hours == 0.0 {
            0.0
        } else {
            self.handovers as f64 / hours
        }
    }
}

/// Replay the serving sequence of `site` under `policy` over the subset
/// `sat_indices`.
pub fn simulate_handover(
    vt: &VisibilityTable,
    site: usize,
    sat_indices: &[usize],
    policy: HandoverPolicy,
) -> HandoverTrace {
    let steps = vt.grid.steps;
    let mut serving: Vec<Option<usize>> = Vec::with_capacity(steps);
    let mut current: Option<usize> = None;
    let mut handovers = 0;
    let mut outages = 0;
    let mut connected_steps = 0;
    for k in 0..steps {
        let visible = |s: usize| vt.bitset(s, site).get(k);
        let next = match policy {
            HandoverPolicy::StickyMaxDwell => match current {
                Some(c) if visible(c) => Some(c),
                _ => sat_indices.iter().cloned().find(|&s| visible(s)),
            },
            HandoverPolicy::AlwaysBest => sat_indices.iter().cloned().find(|&s| visible(s)),
        };
        match (current, next) {
            (Some(a), Some(b)) if a != b => handovers += 1,
            (Some(_), None) => outages += 1,
            _ => {}
        }
        if next.is_some() {
            connected_steps += 1;
        }
        serving.push(next);
        current = next;
    }
    HandoverTrace { serving, handovers, outages, connected_steps }
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
        let spec = ShellSpec { planes: 12, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch);
        let sites = [fixtures::taipei()];
        let grid = TimeGrid::new(epoch, 86_400.0, 60.0);
        VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default())
    }

    #[test]
    fn serving_respects_visibility() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let trace = simulate_handover(&vt, 0, &idx, HandoverPolicy::StickyMaxDwell);
        for (k, s) in trace.serving.iter().enumerate() {
            if let Some(s) = s {
                assert!(vt.bitset(*s, 0).get(k), "serving an invisible satellite at {k}");
            }
        }
        assert_eq!(trace.connected_steps, trace.serving.iter().filter(|s| s.is_some()).count());
    }

    #[test]
    fn sticky_never_switches_while_visible() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let trace = simulate_handover(&vt, 0, &idx, HandoverPolicy::StickyMaxDwell);
        for k in 1..trace.serving.len() {
            if let (Some(a), Some(b)) = (trace.serving[k - 1], trace.serving[k]) {
                if a != b {
                    assert!(
                        !vt.bitset(a, 0).get(k),
                        "sticky policy switched away from a visible satellite at step {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn sticky_hands_over_no_more_than_always_best() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let sticky = simulate_handover(&vt, 0, &idx, HandoverPolicy::StickyMaxDwell);
        let churny = simulate_handover(&vt, 0, &idx, HandoverPolicy::AlwaysBest);
        assert!(
            sticky.handovers <= churny.handovers,
            "{} vs {}",
            sticky.handovers,
            churny.handovers
        );
        // Same connectivity either way — policy only affects who serves.
        assert_eq!(sticky.connected_steps, churny.connected_steps);
    }

    #[test]
    fn handover_rate_plausible() {
        let vt = table();
        let idx: Vec<usize> = (0..vt.sat_count()).collect();
        let trace = simulate_handover(&vt, 0, &idx, HandoverPolicy::StickyMaxDwell);
        if trace.connected_steps > 0 && trace.handovers > 0 {
            let rate = trace.handover_rate_per_hour(60.0);
            assert!(rate > 0.1 && rate < 60.0, "rate {rate}/h");
        }
    }

    #[test]
    fn empty_subset_never_serves() {
        let vt = table();
        let trace = simulate_handover(&vt, 0, &[], HandoverPolicy::AlwaysBest);
        assert_eq!(trace.connected_steps, 0);
        assert_eq!(trace.handovers, 0);
        assert_eq!(trace.handover_rate_per_hour(60.0), 0.0);
    }
}
