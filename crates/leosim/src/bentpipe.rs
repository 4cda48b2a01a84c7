//! Brute-force connectivity oracle: the transparent bent pipe (the paper's
//! §3.1 architecture) and its ISL-relay relaxation (the §4 question).
//!
//! In a transparent bent pipe the satellite is a dumb RF repeater: a user
//! terminal is *connected* at a step only if some satellite simultaneously
//! sees both the terminal and one of the operator's ground stations. No
//! inter-satellite links, no on-board processing.
//!
//! The ISL variant relaxes the joint-visibility requirement: a terminal is
//! connected if some satellite sees it and that satellite can reach, via up
//! to `max_hops` satellite-to-satellite hops, a satellite that sees a ground
//! station. ISL reachability uses a range-limited proximity graph evaluated
//! per step; `max_hops = 0` is the bent pipe.
//!
//! Production code asks this question of `traffic`'s step kernel
//! (`RouteTable::build(..).routability()`: connected ⇔ a route exists),
//! which also yields the path, latency and capacity.
//! [`isl_connectivity_from_store`] stays as the independent all-pairs scan
//! that kernel is tested against (`traffic::pipeline` tests) and that the
//! benchmark times as `leosim.isl_connectivity_s`.

use crate::bitset::TimeBitset;
use crate::ephemeris::EphemerisStore;
use crate::visibility::{SimConfig, VisibilityTable};
use orbital::ground::GroundSite;
use serde::{Deserialize, Serialize};

/// Result of a connectivity computation for one terminal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TerminalConnectivity {
    /// Terminal (site) name.
    pub terminal: String,
    /// Steps where the terminal has an end-to-end path to a ground station.
    pub connected: TimeBitset,
}

/// ISL-relay connectivity over a prebuilt [`EphemerisStore`]: a terminal is
/// connected at a step iff some satellite sees it whose ISL neighbourhood
/// (edges between satellites closer than `isl_range_km`, up to `max_hops`
/// hops) contains a satellite that sees a ground station. Both visibility
/// tables and the per-step proximity graph read positions straight from
/// the store; every hop is an all-pairs scan.
pub fn isl_connectivity_from_store(
    store: &EphemerisStore,
    terminals: &[GroundSite],
    ground_stations: &[GroundSite],
    config: &SimConfig,
    isl_range_km: f64,
    max_hops: usize,
) -> Vec<TerminalConnectivity> {
    let n = store.sat_count();
    let steps = store.steps();
    let vt_term = VisibilityTable::from_store(store, terminals, config);
    let vt_gs = VisibilityTable::from_store(store, ground_stations, config);
    let gs_indices: Vec<usize> = (0..ground_stations.len()).collect();
    let sat_to_ground: Vec<TimeBitset> =
        (0..n).map(|s| vt_gs.visible_to_any(s, &gs_indices)).collect();

    let mut result: Vec<TerminalConnectivity> = terminals
        .iter()
        .map(|t| TerminalConnectivity {
            terminal: t.name.clone(),
            connected: TimeBitset::zeros(steps),
        })
        .collect();

    let mut positions = vec![orbital::Vec3::ZERO; n];
    for k in 0..steps {
        for (i, slot) in positions.iter_mut().enumerate() {
            *slot = store.position(i, k);
        }
        // BFS from the set of ground-connected satellites, up to max_hops.
        let mut reach: Vec<bool> = (0..n).map(|s| sat_to_ground[s].get(k)).collect();
        let mut frontier: Vec<usize> = reach
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| r.then_some(i))
            .collect();
        for _hop in 0..max_hops {
            if frontier.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for &f in &frontier {
                for s in 0..n {
                    if !reach[s] && positions[f].distance(positions[s]) <= isl_range_km {
                        reach[s] = true;
                        next.push(s);
                    }
                }
            }
            frontier = next;
        }
        for (ti, out) in result.iter_mut().enumerate() {
            let connected = (0..n).any(|s| reach[s] && vt_term.bitset(s, ti).get(k));
            if connected {
                out.connected.set(k);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timegrid::TimeGrid;
    use orbital::constellation::{single_plane, walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn connected(
        store: &EphemerisStore,
        term: (f64, f64),
        gs: (f64, f64),
        isl_range_km: f64,
        max_hops: usize,
    ) -> TimeBitset {
        let term = [GroundSite::from_degrees("T", term.0, term.1)];
        let gs = [GroundSite::from_degrees("G", gs.0, gs.1)];
        let cfg = SimConfig::default();
        isl_connectivity_from_store(store, &term, &gs, &cfg, isl_range_km, max_hops)
            .remove(0)
            .connected
    }

    #[test]
    fn bent_pipe_is_bounded_by_terminal_visibility() {
        let sats = single_plane(8, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 86_400.0, 60.0);
        let cfg = SimConfig::default();
        let store = EphemerisStore::build(&sats, &grid, &cfg);
        let term = [GroundSite::from_degrees("T", 25.0, 121.5)];
        let idx: Vec<usize> = (0..sats.len()).collect();
        let plain =
            VisibilityTable::from_store(&store, &term, &cfg).coverage_unions(&idx).remove(0);
        // Ground station next to the terminal: exactly plain visibility.
        assert_eq!(connected(&store, (25.0, 121.5), (25.0, 121.5), 5000.0, 0), plain);
        // ~700 km away: a pointwise subset of it.
        let near = connected(&store, (25.0, 121.5), (31.2, 121.5), 5000.0, 0);
        assert_eq!(near.intersection_count(&plain), near.count_ones());
        // Other side of the world: joint visibility is impossible.
        assert_eq!(connected(&store, (25.0, 121.5), (-25.0, -58.5), 5000.0, 0).count_ones(), 0);
    }

    #[test]
    fn hops_only_add_connectivity() {
        let spec = ShellSpec { planes: 6, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 120.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let at = |hops| connected(&store, (25.0, 121.5), (40.7, -74.0), 5000.0, hops);
        let (bp, isl2, isl8) = (at(0), at(2), at(8));
        // Pointwise supersets as the hop budget grows.
        assert_eq!(isl2.intersection_count(&bp), bp.count_ones());
        assert_eq!(isl8.intersection_count(&isl2), isl2.count_ones());
        assert!(isl8.count_ones() > bp.count_ones(), "a trans-Pacific station needs relays");
    }
}
