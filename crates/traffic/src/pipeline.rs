//! The shared per-step routing kernel: one code path under the traffic
//! engine, the churn campaign engine, and every routing experiment.
//!
//! [`StepKernel`] owns everything that is constant across steps (scene
//! references, the elevation mask's sine, per-site pruning constants);
//! [`StepScratch`] owns everything that varies per step (the positions
//! column, the two cell grids, the BFS chain, frontier and pending
//! labels): a caller-provided workspace whose contents never reach the
//! output. The `simrt` fan-outs hand each step a fresh one; a sequential
//! caller may keep one across steps to skip the buffer allocations.
//!
//! ## Grid-pruned candidate search
//!
//! The kernel replaces the reference implementation's all-satellite scans
//! (`O(sats)` per terminal, `O(sats²)` per ISL hop) with ball queries over
//! uniform [`CellGrid`]s. A grid keeps its members' coordinates in bucket
//! order beside their rows, so a query streams contiguous memory. One grid
//! per step holds every satellite; its cells are cut at the smallest radius
//! any stage will query in the step (capped at a few cells a satellite).
//!
//! - **Site access** (gateway downlink and terminal uplink) queries that
//!   grid, pruned by the conservative slant-range bound of
//!   [`orbital::ground::SlantBound`] (derivation there) at the step's
//!   largest satellite radius. A bound of zero proves no satellite can be
//!   visible at all.
//! - **ISL hops** go one way: before each hop the available satellites no
//!   chain has reached yet are re-bucketed into the same cells as a second
//!   grid, and every frontier member queries *that* within exactly
//!   `isl_range_km`. A query meets nothing already chained, and a frontier
//!   member whose neighbours all are costs its empty rows and no more.
//!
//! ## Determinism argument
//!
//! The reference kernel resolves every choice by a first-wins
//! strict-less-than scan in ascending index order, which selects the
//! lexicographic minimum of `(value, index)`. The grids visit candidates in
//! bucket order instead, and the kernel reaches the same minimum in one of
//! two ways. Where the tie-breaking index is the *visited* one — terminal
//! access, `(path length, satellite)` — the comparison is lexicographic and
//! explicit. Where it is the *visiting* one — downlink, `(range, gateway)`;
//! ISL hop, `(chain length, frontier member)` — the outer loop ascends
//! (gateways by index; the frontier read back off the chain in row order
//! after every hop) and each satellite keeps its first strict improvement:
//! the lowest index among equals, in whatever order buckets are swept. The
//! pruning radii are conservative supersets, any cell size and any member
//! list holding every eligible satellite yield a superset of the ball, and
//! every candidate is re-checked with the exact reference predicates
//! (visibility, range) before competing, so the surviving candidate set is
//! identical. Winner fields are computed with the reference expressions in
//! the reference order. The result is byte-identical to
//! [`crate::graph::step_routes_reference`] — tested below over random
//! constellations, pool samples, ranges, hop budgets and masks, and on a
//! constructed exact tie — and therefore byte-identical at any thread
//! count, since each step is a pure function of `(step, mask)` fanned out
//! index-deterministically.

use crate::graph::{Downlink, GraphConfig, Route, StepMask, StepRoutes};
use leosim::ephemeris::EphemerisStore;
use leosim::latency::C_KM_S;
use leosim::linkbudget::{shannon_bps, PayloadArchitecture, PreparedLeg, RfLeg};
use leosim::visibility::SimConfig;
use orbital::ground::{GroundSite, SlantBound};
use orbital::Vec3;

/// Slack added to ball-query radii when mapping them to grid cells, km.
/// Absorbs floating-point rounding in the AABB arithmetic; candidacy is
/// decided by exact predicates, so this only needs to be conservative.
const AABB_SLACK_KM: f64 = 1e-6;

/// Cap on grid cells per rebuilt position; the cell edge is doubled until
/// the grid fits, so a rebuild stays `O(positions)` however small the
/// requested edge. Purely a memory/speed trade — any cell size yields the
/// same routes because candidates are re-checked exactly.
const CELLS_PER_POSITION: usize = 4;

/// Cell edge of a step in which no stage has a positive finite radius,
/// km. No site can see the shell then, so no chain starts and no ball query
/// runs: any finite positive edge does.
const FALLBACK_CELL_KM: f64 = 1000.0;

/// The cell edge for one step, km: the smallest positive finite radius
/// among `radii`, so every query spans a few cells of its own scale
/// rather than one cell of the largest one's.
fn cell_edge_km(radii: impl Iterator<Item = f64>) -> f64 {
    let edge = radii.filter(|r| *r > 0.0).fold(f64::INFINITY, f64::min);
    if edge.is_finite() {
        edge
    } else {
        FALLBACK_CELL_KM
    }
}

/// Where a grid's cells lie: shared by every member list bucketed into it.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    origin: Vec3,
    /// `1 / cell edge`: cell coordinates are computed by multiplication,
    /// which is much cheaper than division in the per-satellite loops.
    /// Rebuild and query use the *same* expression, and multiplication by
    /// a positive constant is monotone, so the query AABB always covers
    /// every cell a ball member was sorted into.
    inv_cell: f64,
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Frame {
    #[inline]
    fn cell_of(&self, p: Vec3) -> usize {
        // Positions are inside the bounding box the frame was built from,
        // so the products are non-negative and truncation is floor.
        let ix = (((p.x - self.origin.x) * self.inv_cell) as usize).min(self.nx - 1);
        let iy = (((p.y - self.origin.y) * self.inv_cell) as usize).min(self.ny - 1);
        let iz = (((p.z - self.origin.z) * self.inv_cell) as usize).min(self.nz - 1);
        (iz * self.ny + iy) * self.nx + ix
    }

    fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// One grid member in bucket order: its coordinates beside its satellite
/// row, so a ball query streams contiguous memory.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    p: Vec3,
    id: u32,
}

/// A uniform 3-D cell grid over a subset of one step's satellite positions
/// (the members), rebuilt in place (CSR buckets: `starts` offsets into
/// `entries`). The kernel keeps two per step: every satellite, for the
/// site stages, and — re-bucketed before each ISL hop into the same cells —
/// the satellites no chain has reached yet.
#[derive(Debug, Default)]
pub struct CellGrid {
    frame: Frame,
    /// Bucket `c` is `entries[starts[c]..starts[c + 1]]`; length
    /// `cells + 2` — the spare slot lets the counting sort fill in place.
    starts: Vec<u32>,
    /// The members grouped by bucket, ascending row within a bucket.
    entries: Vec<Entry>,
    /// Cell of every position given to `rebuild`, member or not: what
    /// `rebucket` sorts a subset by. Empty in a grid only ever rebucketed.
    cell_ids: Vec<u32>,
}

impl CellGrid {
    /// Rebuild the grid over `positions`, every one a member, with cells of
    /// roughly `cell_km` (doubled until the grid has at most
    /// `CELLS_PER_POSITION` cells a position).
    pub fn rebuild(&mut self, positions: &[Vec3], cell_km: f64) {
        assert!(cell_km > 0.0 && cell_km.is_finite(), "bad cell size {cell_km}");
        let n = positions.len();
        let mut min = positions.first().copied().unwrap_or_default();
        let mut max = min;
        for p in positions {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            min.z = min.z.min(p.z);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
            max.z = max.z.max(p.z);
        }
        let mut cell_km = cell_km;
        let axis = |extent: f64, cell_km: f64| ((extent / cell_km) as usize).saturating_add(1);
        self.frame = loop {
            let (nx, ny, nz) = (
                axis(max.x - min.x, cell_km),
                axis(max.y - min.y, cell_km),
                axis(max.z - min.z, cell_km),
            );
            if nx.saturating_mul(ny).saturating_mul(nz) <= CELLS_PER_POSITION * n.max(1) {
                break Frame { origin: min, inv_cell: 1.0 / cell_km, nx, ny, nz };
            }
            cell_km *= 2.0;
        };
        let mut cell_ids = std::mem::take(&mut self.cell_ids);
        cell_ids.clear();
        cell_ids.extend(positions.iter().map(|p| self.frame.cell_of(*p) as u32));
        self.bucket(&cell_ids, positions, 0..n as u32);
        self.cell_ids = cell_ids;
    }

    /// Make this the grid of `members` — ascending rows of the `positions`
    /// `all` was last rebuilt over — in `all`'s cells.
    fn rebucket(
        &mut self,
        all: &CellGrid,
        positions: &[Vec3],
        members: impl Iterator<Item = u32> + Clone,
    ) {
        self.frame = all.frame;
        self.bucket(&all.cell_ids, positions, members);
    }

    /// Counting sort of `members` by cell, coordinates copied beside the
    /// rows: `O(members + cells)`.
    fn bucket(
        &mut self,
        cell_ids: &[u32],
        positions: &[Vec3],
        members: impl Iterator<Item = u32> + Clone,
    ) {
        let cells = self.frame.cells();
        self.starts.clear();
        self.starts.resize(cells + 2, 0);
        for s in members.clone() {
            self.starts[cell_ids[s as usize] as usize + 2] += 1;
        }
        for c in 2..cells + 2 {
            self.starts[c] += self.starts[c - 1];
        }
        // `starts[c + 1]` is now where bucket `c` begins and serves as its
        // fill cursor, which leaves it where bucket `c + 1` begins.
        self.entries.clear();
        self.entries.resize(self.starts[cells + 1] as usize, Entry::default());
        for s in members {
            let at = &mut self.starts[cell_ids[s as usize] as usize + 1];
            self.entries[*at as usize] = Entry { p: positions[s as usize], id: s };
            *at += 1;
        }
    }

    /// Visit every member whose cell overlaps the ball of radius
    /// `radius_km` around `q`, with its slot in bucket order — a superset
    /// of the members within the ball; the caller re-checks exact
    /// predicates.
    #[inline]
    fn query_ball(&self, q: Vec3, radius_km: f64, mut visit: impl FnMut(usize, &Entry)) {
        if self.entries.is_empty() {
            return;
        }
        let Frame { origin, inv_cell, nx, ny, nz } = self.frame;
        let r = radius_km + AABB_SLACK_KM;
        let lo = |v: f64, o: f64, n: usize| -> Option<usize> {
            let c = (v - r - o) * inv_cell;
            if c >= n as f64 {
                return None;
            }
            Some(if c < 0.0 { 0 } else { c as usize })
        };
        let hi = |v: f64, o: f64, n: usize| -> Option<usize> {
            let c = (v + r - o) * inv_cell;
            if c < 0.0 {
                return None;
            }
            Some((c as usize).min(n - 1))
        };
        let (Some(x0), Some(x1)) = (lo(q.x, origin.x, nx), hi(q.x, origin.x, nx)) else {
            return;
        };
        let (Some(y0), Some(y1)) = (lo(q.y, origin.y, ny), hi(q.y, origin.y, ny)) else {
            return;
        };
        let (Some(z0), Some(z1)) = (lo(q.z, origin.z, nz), hi(q.z, origin.z, nz)) else {
            return;
        };
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                let row = (iz * ny + iy) * nx;
                let (a, b) = (self.starts[row + x0] as usize, self.starts[row + x1 + 1] as usize);
                for (slot, e) in (a..b).zip(&self.entries[a..b]) {
                    visit(slot, e);
                }
            }
        }
    }
}

/// "No frontier member in range yet" in [`StepScratch`]'s `best`.
const NO_LABEL: (f64, u32) = (f64::INFINITY, u32::MAX);

/// Caller-provided workspace for the step kernel: everything the per-step
/// computation writes. `Default` is the empty scratch; buffers size
/// themselves on first use and stay allocated for a caller that reuses it.
#[derive(Debug, Default)]
pub struct StepScratch {
    positions: Vec<Vec3>,
    /// Every satellite, for the downlink and uplink stages.
    grid: CellGrid,
    /// The `sat_ok` satellites no chain has reached, re-bucketed per hop.
    unreached: CellGrid,
    chain: Vec<Option<Downlink>>,
    frontier: Vec<u32>,
    /// Per `unreached` slot, the best pending (chain length, frontier
    /// member) of the hop in progress.
    best: Vec<(f64, u32)>,
    term_dmax: Vec<f64>,
    gw_dmax: Vec<f64>,
}

/// The per-step routing kernel shared by [`crate::graph::RouteTable::build`],
/// the traffic engine, and the churn campaign engine. Construct once per
/// table build; call [`Self::routes`] per step with any [`StepScratch`].
pub struct StepKernel<'a> {
    store: &'a EphemerisStore,
    terminals: &'a [GroundSite],
    gateways: &'a [GroundSite],
    graph: &'a GraphConfig,
    sin_mask: f64,
    /// Per-site constants of the slant-range bound.
    term_bound: Vec<SlantBound>,
    gw_bound: Vec<SlantBound>,
    /// The two legs of every route's link budget, and the bandwidth the
    /// end-to-end rate is taken over (the smaller of theirs).
    up: PreparedLeg,
    down: PreparedLeg,
    bandwidth_hz: f64,
}

impl<'a> StepKernel<'a> {
    /// Precompute the step-invariant state: the mask sine, the per-site
    /// constants of the slant-range pruning bound, and the link budget's
    /// range-independent terms.
    pub fn new(
        store: &'a EphemerisStore,
        terminals: &'a [GroundSite],
        gateways: &'a [GroundSite],
        sim: &SimConfig,
        graph: &'a GraphConfig,
    ) -> StepKernel<'a> {
        let bound = |s: &GroundSite| s.slant_bound(sim.min_elevation_deg);
        let (up, down) = (RfLeg::ku_user_uplink(), RfLeg::ku_gateway_downlink());
        StepKernel {
            store,
            terminals,
            gateways,
            graph,
            sin_mask: sim.sin_mask(),
            term_bound: terminals.iter().map(bound).collect(),
            gw_bound: gateways.iter().map(bound).collect(),
            up: up.prepared(),
            down: down.prepared(),
            bandwidth_hz: up.bandwidth_hz.min(down.bandwidth_hz),
        }
    }

    /// Compute every terminal's best route at step `k`, optionally under an
    /// availability/degradation mask (`None` = nominal). Byte-identical to
    /// [`crate::graph::step_routes_reference`] with the same arguments.
    pub fn routes(&self, scratch: &mut StepScratch, k: usize, mask: Option<&StepMask>) -> StepRoutes {
        let n = self.store.sat_count();
        if let Some(m) = mask {
            assert_eq!(m.sat_ok.len(), n, "one flag per satellite");
            assert_eq!(m.gateway_ok.len(), self.gateways.len(), "one flag per gateway");
            assert_eq!(m.terminal_factor.len(), self.terminals.len(), "one factor per terminal");
        }
        let StepScratch { positions, grid, unreached, chain, frontier, best, term_dmax, gw_dmax } =
            scratch;
        let sat_ok = |s: usize| mask.is_none_or(|m| m.sat_ok[s]);

        self.store.positions_at_step_into(k, positions);
        let r_max_sq = positions.iter().fold(0.0f64, |acc, p| acc.max(p.norm_sq()));

        // Conservative squared-radius for the cheap norm² precheck that
        // runs before each exact predicate: the slack absorbs the rounding
        // difference between `norm_sq` and the reference's `distance`.
        let pad_sq = |r: f64| {
            let r = r + AABB_SLACK_KM;
            r * r
        };
        // Access bound per site at this step's shell radius.
        term_dmax.clear();
        term_dmax.extend(self.term_bound.iter().map(|b| b.max_range_km(r_max_sq)));
        gw_dmax.clear();
        gw_dmax.extend(self.gw_bound.iter().map(|b| b.max_range_km(r_max_sq)));

        let isl_range_km = self.graph.isl_range_km;
        let queried = (self.graph.max_hops > 0).then_some(isl_range_km);
        let site_radii = gw_dmax.iter().chain(term_dmax.iter()).copied();
        grid.rebuild(positions, cell_edge_km(queried.into_iter().chain(site_radii)));

        // Layer 0, inverted: each gateway ball-queries its reachable shell
        // slice. Ascending gateway order plus strict `<` preserves the
        // reference tie-break (nearest gateway, lowest index on ties).
        chain.clear();
        chain.resize(n, None);
        for (g, gw) in self.gateways.iter().enumerate() {
            if !mask.is_none_or(|m| m.gateway_ok[g]) || gw_dmax[g] <= 0.0 {
                continue;
            }
            let prune_sq = pad_sq(gw_dmax[g]);
            grid.query_ball(gw.ecef, gw_dmax[g], |_, e| {
                let s = e.id as usize;
                // `rel.norm_sq()` is bitwise symmetric in operand order, and
                // its sqrt reproduces both `sin_elevation`'s norm and
                // `Vec3::distance` exactly, so one computation serves the
                // precheck, the visibility test, and the range.
                let rel = e.p - gw.ecef;
                let d_sq = rel.norm_sq();
                if d_sq > prune_sq || !sat_ok(s) {
                    return;
                }
                let r = d_sq.sqrt();
                if r != 0.0 && rel.dot(gw.zenith) / r < self.sin_mask {
                    return;
                }
                if chain[s].as_ref().is_none_or(|b| r < b.dist_km) {
                    chain[s] =
                        Some(Downlink { gateway: g, dist_km: r, hops: 0, down_range_km: r });
                }
            });
        }

        // BFS layers: an unreached satellite joins the chain of the
        // frontier member minimizing (chain length, member index). Each hop
        // buckets the satellites still to be reached — those alone, so a
        // query meets nothing already chained — and sweeps the frontier
        // over them in ascending index, so strict `<` per slot is that
        // lexicographic minimum.
        let prune_sq = pad_sq(isl_range_km);
        for hop in 0..self.graph.max_hops {
            // The layer reached last: ascending, as the reference's is.
            frontier.clear();
            let reached_last = |&s: &u32| chain[s as usize].as_ref().is_some_and(|c| c.hops == hop);
            frontier.extend((0..n as u32).filter(reached_last));
            if frontier.is_empty() {
                break;
            }
            let still_out = |&s: &u32| chain[s as usize].is_none() && sat_ok(s as usize);
            unreached.rebucket(grid, positions, (0..n as u32).filter(still_out));
            best.clear();
            best.resize(unreached.entries.len(), NO_LABEL);
            for &f in frontier.iter() {
                let from = positions[f as usize];
                let prev_km = chain[f as usize].as_ref().expect("frontier is reached").dist_km;
                unreached.query_ball(from, isl_range_km, |slot, e| {
                    let d_sq = (from - e.p).norm_sq();
                    if d_sq > prune_sq {
                        return;
                    }
                    let d = d_sq.sqrt();
                    let dist_km = prev_km + d;
                    if d <= isl_range_km && dist_km < best[slot].0 {
                        best[slot] = (dist_km, f);
                    }
                });
            }
            for (e, &(dist_km, f)) in unreached.entries.iter().zip(best.iter()) {
                if f == NO_LABEL.1 {
                    continue;
                }
                let prev = chain[f as usize].as_ref().expect("frontier is reached");
                chain[e.id as usize] = Some(Downlink {
                    gateway: prev.gateway,
                    dist_km,
                    hops: prev.hops + 1,
                    down_range_km: prev.down_range_km,
                });
            }
        }

        // Terminal access: ball query, then the exact reference selection —
        // lexicographic minimum of (path length, satellite row). The
        // budget is `end_to_end_capacity_bps` taken apart: its downlink
        // C/N depends on the winner's chain alone, and a city's terminals
        // mostly share a winner, so the last one priced is kept.
        let mut down_cn_at = (f64::NAN, f64::NAN);
        let routes = self
            .terminals
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let factor = mask.map_or(1.0, |m| m.terminal_factor[ti]).clamp(0.0, 1.0);
                if term_dmax[ti] <= 0.0 {
                    return None;
                }
                let mut best: Option<(f64, u32, f64)> = None;
                let prune_sq = pad_sq(term_dmax[ti]);
                grid.query_ball(t.ecef, term_dmax[ti], |_, e| {
                    let s = e.id;
                    let rel = e.p - t.ecef;
                    let d_sq = rel.norm_sq();
                    if chain[s as usize].is_none() || d_sq > prune_sq {
                        return;
                    }
                    let up_range = d_sq.sqrt();
                    if up_range != 0.0 && rel.dot(t.zenith) / up_range < self.sin_mask {
                        return;
                    }
                    let path_km = up_range + chain[s as usize].as_ref().unwrap().dist_km;
                    if best.is_none_or(|(bp, bs, _)| path_km < bp || (path_km == bp && s < bs)) {
                        best = Some((path_km, s, up_range));
                    }
                });
                best.map(|(path_km, s, up_range)| {
                    let c = chain[s as usize].as_ref().expect("winner is chained");
                    let arch = if c.hops == 0 {
                        PayloadArchitecture::Transparent
                    } else {
                        PayloadArchitecture::Regenerative
                    };
                    if down_cn_at.0 != c.down_range_km {
                        down_cn_at = (c.down_range_km, self.down.cn_linear(c.down_range_km));
                    }
                    let cn = arch.compose_cn(self.up.cn_linear(up_range), down_cn_at.1);
                    let per_channel = shannon_bps(self.bandwidth_hz, cn);
                    Route {
                        sat: s as usize,
                        gateway: c.gateway,
                        hops: c.hops,
                        path_km,
                        latency_ms: path_km / C_KM_S * 1000.0,
                        access_mbps: factor * per_channel * self.graph.channels_per_link as f64
                            / 1e6,
                    }
                })
            })
            .collect();
        StepRoutes { routes }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::{step_routes_reference, RouteTable};
    use leosim::TimeGrid;
    use orbital::constellation::{single_plane, walker_delta, ShellSpec};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    pub(crate) fn assert_steps_bit_identical(a: &StepRoutes, b: &StepRoutes, ctx: &str) {
        assert_eq!(a.routes.len(), b.routes.len(), "{ctx}: terminal counts differ");
        for (t, (x, y)) in a.routes.iter().zip(&b.routes).enumerate() {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.sat, y.sat, "{ctx}: terminal {t} sat");
                    assert_eq!(x.gateway, y.gateway, "{ctx}: terminal {t} gateway");
                    assert_eq!(x.hops, y.hops, "{ctx}: terminal {t} hops");
                    assert_eq!(
                        x.path_km.to_bits(),
                        y.path_km.to_bits(),
                        "{ctx}: terminal {t} path_km {} vs {}",
                        x.path_km,
                        y.path_km
                    );
                    assert_eq!(
                        x.latency_ms.to_bits(),
                        y.latency_ms.to_bits(),
                        "{ctx}: terminal {t} latency"
                    );
                    assert_eq!(
                        x.access_mbps.to_bits(),
                        y.access_mbps.to_bits(),
                        "{ctx}: terminal {t} access_mbps {} vs {}",
                        x.access_mbps,
                        y.access_mbps
                    );
                }
                _ => panic!("{ctx}: terminal {t} presence differs ({x:?} vs {y:?})"),
            }
        }
    }

    /// What [`check_store_matches_reference`] saw besides equality: routes
    /// of three hops or more, and calls whose last swept hop had a frontier
    /// larger / smaller than the unreached set it swept.
    #[derive(Debug, Default)]
    pub(crate) struct Seen {
        deep_routes: usize,
        frontier_larger: usize,
        frontier_smaller: usize,
    }

    /// The sea-level site a satellite at `p` is overhead of.
    fn under(name: &str, p: Vec3) -> GroundSite {
        use orbital::frames::{ecef_to_geodetic, Geodetic};
        GroundSite::new(name, Geodetic { altitude_km: 0.0, ..ecef_to_geodetic(p) })
    }

    pub(crate) fn check_store_matches_reference(
        store: &EphemerisStore,
        terminals: &[GroundSite],
        gateways: &[GroundSite],
        sim: &SimConfig,
        graph: &GraphConfig,
        mask: Option<&StepMask>,
    ) -> Seen {
        let kernel = StepKernel::new(store, terminals, gateways, sim, graph);
        // ONE scratch across every step next to a fresh one per step:
        // scratch contents must never reach the output.
        let mut scratch = StepScratch::default();
        let mut seen = Seen::default();
        for k in 0..store.steps() {
            let fast = kernel.routes(&mut scratch, k, mask);
            let slow = step_routes_reference(store, terminals, gateways, sim, graph, k, mask);
            assert_steps_bit_identical(&fast, &slow, &format!("step {k}"));
            let cold = kernel.routes(&mut StepScratch::default(), k, mask);
            assert_steps_bit_identical(&cold, &fast, &format!("step {k}, fresh scratch"));
            // Ties rest on the sweep order: the frontier ascends.
            assert!(scratch.frontier.windows(2).all(|w| w[0] < w[1]), "step {k}: frontier order");
            let (f, u) = (scratch.frontier.len(), scratch.unreached.entries.len());
            seen.deep_routes += fast.routes.iter().flatten().filter(|r| r.hops >= 3).count();
            seen.frontier_larger += (u > 0 && f > u) as usize;
            seen.frontier_smaller += (f > 0 && f < u) as usize;
        }
        seen
    }

    #[test]
    fn kernel_matches_reference_on_walker_shell() {
        let spec = ShellSpec { planes: 6, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 3.0 * 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let cities = geodata::paper_cities();
        let terminals: Vec<GroundSite> = cities.iter().take(8).map(|c| c.site()).collect();
        let gateways = crate::graph::gateways_every_nth(&cities[..8], 3);
        for graph in [
            GraphConfig::default(),
            GraphConfig { max_hops: 0, ..GraphConfig::default() },
            GraphConfig { max_hops: 4, isl_range_km: 4500.0, ..GraphConfig::default() },
        ] {
            check_store_matches_reference(
                &store,
                &terminals,
                &gateways,
                &SimConfig::default(),
                &graph,
                None,
            );
        }
    }

    #[test]
    fn kernel_matches_reference_under_masks() {
        let spec = ShellSpec { planes: 5, sats_per_plane: 6, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 2.0 * 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let cities = geodata::paper_cities();
        let terminals: Vec<GroundSite> = cities.iter().take(6).map(|c| c.site()).collect();
        let gateways = crate::graph::gateways_every_nth(&cities[..6], 2);
        let n = store.sat_count();
        let mut mask = StepMask::nominal(n, gateways.len(), terminals.len());
        for s in (0..n).step_by(3) {
            mask.sat_ok[s] = false;
        }
        mask.gateway_ok[0] = false;
        mask.terminal_factor[1] = 0.25;
        mask.terminal_factor[3] = 0.0;
        check_store_matches_reference(
            &store,
            &terminals,
            &gateways,
            &SimConfig::default(),
            &GraphConfig::default(),
            Some(&mask),
        );
    }

    /// What the kept downlink C/N is for, and what could break it: 242
    /// terminals in two clusters, so that runs of consecutive terminals
    /// share an access satellite and runs end — one cluster around a
    /// gateway, the other an ISL hop or two from any, so transparent and
    /// regenerative budgets are priced in the same step.
    #[test]
    fn clustered_terminals_sharing_access_satellites_equal_the_reference() {
        let spec = ShellSpec { planes: 18, sats_per_plane: 14, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 3600.0, 600.0);
        let sim = SimConfig::default();
        let store = EphemerisStore::build(&sats, &grid, &sim);
        // An 11 × 11 lattice, 0.3° apart, around each centre.
        let cluster = |name: &str, lat: f64, lon: f64| {
            let name = name.to_string();
            (0..121).map(move |i| {
                let (row, col) = ((i / 11) as f64 - 5.0, (i % 11) as f64 - 5.0);
                GroundSite::from_degrees(format!("{name}{i}"), lat + 0.3 * row, lon + 0.3 * col)
            })
        };
        let (taipei, tonga) = (cluster("Taipei", 25.03, 121.56), cluster("Tonga", -21.13, -175.2));
        // One cluster after the other, then alternating between them.
        let by_cluster: Vec<GroundSite> = taipei.clone().chain(tonga.clone()).collect();
        let alternating: Vec<GroundSite> = taipei.zip(tonga).flat_map(|(a, b)| [a, b]).collect();
        let gateways = [
            GroundSite::from_degrees("Kaohsiung-GS", 22.63, 120.30),
            GroundSite::from_degrees("Sydney-GS", -33.87, 151.21),
        ];
        let mut mask = StepMask::nominal(store.sat_count(), gateways.len(), by_cluster.len());
        for s in (0..store.sat_count()).step_by(4) {
            mask.sat_ok[s] = false;
        }
        for t in (0..by_cluster.len()).step_by(5) {
            mask.terminal_factor[t] = 0.1 * (t % 11) as f64;
        }
        let (mut shared, mut switched, mut transparent, mut regenerative) = (0, 0, 0, 0);
        for (terminals, max_hops) in
            [(&by_cluster, 0), (&by_cluster, 2), (&alternating, 0), (&alternating, 2)]
        {
            let graph = GraphConfig { max_hops, ..GraphConfig::default() };
            for mask in [None, Some(&mask)] {
                check_store_matches_reference(&store, terminals, &gateways, &sim, &graph, mask);
                let kernel = StepKernel::new(&store, terminals, &gateways, &sim, &graph);
                for k in 0..store.steps() {
                    let step = kernel.routes(&mut StepScratch::default(), k, mask);
                    let routed: Vec<&Route> = step.routes.iter().flatten().collect();
                    shared += routed.windows(2).filter(|w| w[0].sat == w[1].sat).count();
                    switched += routed.windows(2).filter(|w| w[0].sat != w[1].sat).count();
                    let bent = routed.iter().filter(|r| r.hops == 0).count();
                    if bent > 0 && bent < routed.len() {
                        transparent += bent;
                        regenerative += routed.len() - bent;
                    }
                }
            }
        }
        assert!(
            shared >= 2000 && switched >= 1000 && transparent >= 500 && regenerative >= 500,
            "vacuous: shared {shared} switched {switched}, in steps with both: \
             transparent {transparent} regenerative {regenerative}"
        );
    }

    /// Any-to-any ISLs: the cell edge comes from the smallest radius a
    /// stage queries, so an infinite one leaves it finite (the largest would
    /// not). Beside it, the ranges no ISL satisfies.
    #[test]
    fn infinite_isl_range_equals_the_reference() {
        let spec = ShellSpec { planes: 6, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid = TimeGrid::new(epoch(), 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let cities = geodata::paper_cities();
        let terminals: Vec<GroundSite> = cities.iter().take(8).map(|c| c.site()).collect();
        let gateways = crate::graph::gateways_every_nth(&cities[..8], 3);
        for isl_range_km in [f64::INFINITY, f64::NAN, -1.0] {
            let graph = GraphConfig { isl_range_km, max_hops: 2, ..GraphConfig::default() };
            check_store_matches_reference(
                &store,
                &terminals,
                &gateways,
                &SimConfig::default(),
                &graph,
                None,
            );
        }
    }

    /// A seeded `sample`-satellite draw of the Starlink pool over an hour,
    /// the paper's cities with a gateway at every eighth, and a mask with a
    /// third of the satellites down, gateway 0 out and one terminal faded.
    pub(crate) fn pool_sample_scene(
        seed: u64,
        sample: usize,
    ) -> (EphemerisStore, Vec<GroundSite>, Vec<GroundSite>, StepMask) {
        use leosim::montecarlo::{run_rng, sample_indices};
        let pool = orbital::constellation::starlink_gen1_pool(epoch());
        let idx = sample_indices(&mut run_rng(seed, 0), pool.len(), sample);
        let sats: Vec<_> = idx.iter().map(|&i| pool[i].clone()).collect();
        let grid = TimeGrid::new(epoch(), 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let cities = geodata::paper_cities();
        let terminals: Vec<GroundSite> = cities.iter().map(|c| c.site()).collect();
        let gateways = crate::graph::gateways_every_nth(&cities, 8);
        let mut mask = StepMask::nominal(sample, gateways.len(), terminals.len());
        for s in (0..sample).step_by(3) {
            mask.sat_ok[s] = false;
        }
        mask.gateway_ok[0] = false;
        mask.terminal_factor[2] = 0.3;
        (store, terminals, gateways, mask)
    }

    /// Kernel ≡ reference where the hops are deep and the layers large:
    /// seeded pool samples × hop budgets × ISL ranges × {nominal, masked}.
    /// (`proptests::grid_kernel_equals_brute_force_at_depth` is the same
    /// property with shrinking; this one runs without `proptest`.)
    #[test]
    fn kernel_matches_reference_at_depth_on_pool_samples() {
        let sim = SimConfig::default();
        let mut seen = Seen::default();
        for (seed, sample) in [(21, 150), (22, 400)] {
            let (store, terminals, gateways, mask) = pool_sample_scene(seed, sample);
            // Every budget, so each hop is some run's last: what the
            // scratch shows afterwards.
            for max_hops in 1..=6 {
                for isl_range_km in [800.0, 3000.0, 6000.0] {
                    let graph = GraphConfig { isl_range_km, max_hops, ..GraphConfig::default() };
                    for mask in [None, Some(&mask)] {
                        let s = check_store_matches_reference(
                            &store, &terminals, &gateways, &sim, &graph, mask,
                        );
                        seen.deep_routes += s.deep_routes;
                        seen.frontier_larger += s.frontier_larger;
                        seen.frontier_smaller += s.frontier_smaller;
                    }
                }
            }
        }
        // (500 / 46 / 285 under the offline stand-in `rand`.)
        assert!(
            seen.deep_routes >= 20 && seen.frontier_larger >= 5 && seen.frontier_smaller >= 20,
            "vacuous: {seen:?}"
        );
    }

    /// Every satellite twice, as identical rows: every chain length ties
    /// with its twin's, every cell holds repeated members and every twin
    /// pair is a zero-length ISL.
    #[test]
    fn duplicated_satellites_equal_the_reference() {
        let spec = ShellSpec { planes: 5, sats_per_plane: 7, ..ShellSpec::starlink_like() };
        let shell = walker_delta(&spec, epoch());
        let sats: Vec<_> = shell.iter().flat_map(|s| [s.clone(), s.clone()]).collect();
        let grid = TimeGrid::new(epoch(), 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let cities = geodata::paper_cities();
        let terminals: Vec<GroundSite> = cities.iter().take(10).map(|c| c.site()).collect();
        let gateways = crate::graph::gateways_every_nth(&cities[..10], 4);
        let mut mask = StepMask::nominal(sats.len(), gateways.len(), terminals.len());
        for s in (0..sats.len()).step_by(3) {
            mask.sat_ok[s] = false;
        }
        let graph = GraphConfig { max_hops: 3, ..GraphConfig::default() };
        for mask in [None, Some(&mask)] {
            check_store_matches_reference(
                &store,
                &terminals,
                &gateways,
                &SimConfig::default(),
                &graph,
                mask,
            );
        }
    }

    /// The ISL range is exact, not the padded square the precheck prunes
    /// by: a ring whose only chain is `t-a-a0-G` routes at the longer of its
    /// two links and not a tenth of a millimetre under it.
    #[test]
    fn isl_range_is_exact_beside_the_padded_precheck() {
        let ring = single_plane(20, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 1800.0, 600.0);
        let sim = SimConfig::default();
        let store = EphemerisStore::build(&ring, &grid, &sim);
        let (a0, a, t) = (0, 1, 2);
        let mut routed = [0usize; 2];
        for k in 0..store.steps() {
            let p = |s: usize| store.position(s, k);
            let (terminals, gateways) = ([under("T", p(t))], [under("G", p(a0))]);
            let link_km = p(a0).distance(p(a)).max(p(a).distance(p(t)));
            for (i, isl_range_km) in [link_km, link_km - 1e-7].into_iter().enumerate() {
                let graph = GraphConfig { isl_range_km, max_hops: 2, ..GraphConfig::default() };
                let kernel = StepKernel::new(&store, &terminals, &gateways, &sim, &graph);
                let fast = kernel.routes(&mut StepScratch::default(), k, None);
                let slow =
                    step_routes_reference(&store, &terminals, &gateways, &sim, &graph, k, None);
                assert_steps_bit_identical(&fast, &slow, &format!("step {k} range {isl_range_km}"));
                routed[i] += fast.routes[0].is_some() as usize;
            }
        }
        assert_eq!(routed, [store.steps(), 0]);
    }

    /// Twins share their labels, so which twin wins a tie never shows. This
    /// scene makes a tie that does: a ring `a0 a t b b0` of one plane's
    /// neighbours, gateway 0 under `a0`, gateway 1 under `b0`, a terminal
    /// under `t`, and gateway 1 moved (by far less than a micrometre) to
    /// where the chains `t-a-a0-G0` and `t-b-b0-G1` are the same `f64`. The
    /// reference gives `t` to the lower row of `a`/`b`; the kernel has only
    /// its sweep order to do the same with, in either row order.
    #[test]
    fn an_exact_tie_between_frontier_members_goes_to_the_lower_row() {
        let ring = single_plane(20, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 3600.0, 300.0);
        let sim = SimConfig::default();
        let graph = GraphConfig { max_hops: 2, ..GraphConfig::default() };
        let (mut winners, mut split_cells) = ([0usize; 2], 0);
        for reversed in [false, true] {
            let sats: Vec<_> =
                if reversed { ring.iter().rev().cloned().collect() } else { ring.clone() };
            let store = EphemerisStore::build(&sats, &grid, &sim);
            // Rows of the ring's first five satellites in this order.
            let row = |i: usize| if reversed { ring.len() - 1 - i } else { i };
            let [a0, a, t, b, b0] = [0, 1, 2, 3, 4].map(row);
            for k in 0..store.steps() {
                let p = |s: usize| store.position(s, k);
                let via = |gw: Vec3, s0: usize, s1: usize| {
                    gw.distance(p(s0)) + p(s0).distance(p(s1)) + p(s1).distance(p(t))
                };
                let terminals = [under("T", p(t))];
                let mut gateways = [under("G0", p(a0)), under("G1", p(b0))];
                let target = via(gateways[0].ecef, a0, a);
                // Radially to within rounding (the downlink is all but
                // radial, so a few rounds), then every combination of a few
                // ulps on the three coordinates: together they reach each
                // `f64` around the target.
                let g1 = (0..4).fold(gateways[1].ecef, |g1, _| {
                    g1 * (1.0 - (target - via(g1, b0, b)) / g1.norm())
                });
                let nudged = |c: f64, ulps: i64| f64::from_bits((c.to_bits() as i64 + ulps) as u64);
                let ulps = || -12..=12i64;
                gateways[1].ecef = ulps()
                    .flat_map(|i| ulps().flat_map(move |j| ulps().map(move |l| (i, j, l))))
                    .map(|(i, j, l)| Vec3::new(nudged(g1.x, i), nudged(g1.y, j), nudged(g1.z, l)))
                    .find(|&g1| via(g1, b0, b) == target)
                    .expect("an exact tie a few ulps away");
                let kernel = StepKernel::new(&store, &terminals, &gateways, &sim, &graph);
                let mut scratch = StepScratch::default();
                let fast = kernel.routes(&mut scratch, k, None);
                let slow =
                    step_routes_reference(&store, &terminals, &gateways, &sim, &graph, k, None);
                assert_steps_bit_identical(&fast, &slow, &format!("reversed {reversed} step {k}"));
                let route = fast.routes[0].expect("t is two hops from either gateway");
                assert_eq!((route.sat, route.hops), (t, 2));
                assert_eq!(route.gateway, (b < a) as usize, "the lower row's gateway");
                winners[route.gateway] += 1;
                split_cells += (scratch.grid.cell_ids[a] != scratch.grid.cell_ids[b]) as usize;
            }
        }
        // Both gateways won, and bucket order could have told `a` from `b`.
        assert!(winners[0] > 0 && winners[1] > 0 && split_cells > 0, "{winners:?} {split_cells}");
    }

    /// What licenses the experiments to read connectivity and bent-pipe
    /// latency off kernel routes: on seeded samples of the Starlink pool,
    /// "a route exists" is leosim's all-pairs ISL oracle bit at every hop
    /// budget, and the 0-hop latency is a direct joint-visibility min-path
    /// scan, to the bit.
    #[test]
    fn kernel_routes_equal_leosim_connectivity_and_direct_latency_scan() {
        use leosim::bentpipe::isl_connectivity_from_store;
        use leosim::montecarlo::{run_rng, sample_indices};
        let pool = orbital::constellation::starlink_gen1_pool(epoch());
        let grid = TimeGrid::new(epoch(), 6.0 * 3600.0, 120.0);
        let sim = SimConfig::default();
        let sin_mask = sim.sin_mask();
        let site = |name: &str, lat, lon| GroundSite::from_degrees(name, lat, lon);
        let scenes = [
            (
                vec![site("Tonga", -21.13, -175.2), site("Taipei", 25.03, 121.56)],
                vec![site("Sydney-GS", -33.87, 151.21), site("Kaohsiung-GS", 22.63, 120.30)],
            ),
            (vec![site("Taipei", 25.03, 121.56)], vec![site("New-York-GS", 40.7, -74.0)]),
        ];
        let (mut connected, mut disconnected, mut latencies) = (0, 0, 0);
        for (seed, sample) in [(11, 60), (12, 150), (13, 300)] {
            let idx = sample_indices(&mut run_rng(seed, 0), pool.len(), sample);
            let sats: Vec<_> = idx.iter().map(|&i| pool[i].clone()).collect();
            let store = EphemerisStore::build(&sats, &grid, &sim);
            for (terminals, gateways) in &scenes {
                for max_hops in [0, 1, 4] {
                    let graph = GraphConfig { max_hops, ..GraphConfig::default() };
                    let table = RouteTable::build(&store, terminals, gateways, &sim, &graph);
                    let oracle = isl_connectivity_from_store(
                        &store,
                        terminals,
                        gateways,
                        &sim,
                        graph.isl_range_km,
                        max_hops,
                    );
                    for (k, step) in table.steps.iter().enumerate() {
                        for (t, route) in step.routes.iter().enumerate() {
                            let bit = oracle[t].connected.get(k);
                            assert_eq!(
                                route.is_some(),
                                bit,
                                "seed {seed} hops {max_hops} step {k} terminal {t}"
                            );
                            connected += bit as usize;
                            disconnected += !bit as usize;
                            if max_hops > 0 {
                                continue;
                            }
                            let term = &terminals[t];
                            let scan = (0..store.sat_count())
                                .map(|s| store.position(s, k))
                                .filter(|&p| term.sees_ecef_sin(p, sin_mask))
                                .flat_map(|p| {
                                    gateways
                                        .iter()
                                        .filter(move |g| g.sees_ecef_sin(p, sin_mask))
                                        .map(move |g| term.ecef.distance(p) + p.distance(g.ecef))
                                })
                                .min_by(f64::total_cmp)
                                .map(|path_km| path_km / C_KM_S * 1000.0);
                            assert_eq!(
                                route.map(|r| r.latency_ms.to_bits()),
                                scan.map(f64::to_bits),
                                "seed {seed} step {k} terminal {t}: {route:?} vs {scan:?}"
                            );
                            latencies += scan.is_some() as usize;
                        }
                    }
                }
            }
        }
        assert!(connected > 100 && disconnected > 100 && latencies > 100, "vacuous scenes");
    }

    #[test]
    fn empty_scenes_produce_empty_routes() {
        let sats = single_plane(4, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let term = [GroundSite::from_degrees("T", 25.0, 121.5)];
        let sim = SimConfig::default();
        let graph = GraphConfig::default();
        // No gateways: every terminal is unroutable.
        let kernel = StepKernel::new(&store, &term, &[], &sim, &graph);
        let mut scratch = StepScratch::default();
        for k in 0..store.steps() {
            let r = kernel.routes(&mut scratch, k, None);
            assert!(r.routes.iter().all(|r| r.is_none()));
        }
        // No terminals: empty route rows.
        let kernel = StepKernel::new(&store, &[], &term, &sim, &graph);
        for k in 0..store.steps() {
            assert!(kernel.routes(&mut scratch, k, None).routes.is_empty());
        }
    }

    #[test]
    fn grid_ball_query_is_a_superset_of_the_ball() {
        let spec = ShellSpec { planes: 7, sats_per_plane: 7, ..ShellSpec::starlink_like() };
        let sats = walker_delta(&spec, epoch());
        let grid_t = TimeGrid::new(epoch(), 3600.0, 600.0);
        let store = EphemerisStore::build(&sats, &grid_t, &SimConfig::default());
        let n = store.sat_count() as u32;
        let member_lists: [Vec<u32>; 4] =
            [(0..n).collect(), (0..n).step_by(3).collect(), vec![], vec![17]];
        let mut positions = Vec::new();
        for k in 0..store.steps() {
            store.positions_at_step_into(k, &mut positions);
            let (mut grid, mut subset) = (CellGrid::default(), CellGrid::default());
            for cell_km in [400.0, 1500.0, 9000.0] {
                grid.rebuild(&positions, cell_km);
                for members in &member_lists {
                    subset.rebucket(&grid, &positions, members.iter().copied());
                    assert_eq!(subset.entries.len(), members.len());
                    for (q, radius) in
                        [(positions[0], 3000.0), (Vec3::new(6371.0, 0.0, 0.0), 2500.0)]
                    {
                        let mut hit = vec![false; positions.len()];
                        subset.query_ball(q, radius, |slot, e| {
                            assert_eq!(subset.entries[slot].id, e.id);
                            assert_eq!(e.p, positions[e.id as usize]);
                            hit[e.id as usize] = true;
                        });
                        for (s, p) in positions.iter().enumerate() {
                            let member = members.contains(&(s as u32));
                            assert!(member || !hit[s], "cell {cell_km}: non-member {s} visited");
                            if member && p.distance(q) <= radius {
                                assert!(hit[s], "cell {cell_km}: sat {s} within {radius} missed");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_edge_is_the_smallest_positive_finite_radius() {
        let edge = |radii: &[f64]| cell_edge_km(radii.iter().copied());
        assert_eq!(edge(&[3000.0, 1100.0, 1900.0]), 1100.0);
        assert_eq!(edge(&[f64::INFINITY, 0.0, -5.0, f64::NAN, 1100.0]), 1100.0);
        for none in [&[][..], &[0.0, -1.0], &[f64::INFINITY], &[f64::NAN]] {
            assert_eq!(edge(none), FALLBACK_CELL_KM);
        }
    }

    /// The edge rule's corners through the kernel: equality with the
    /// reference, and the grid each leaves in the scratch.
    #[test]
    fn cell_edge_corners_equal_the_reference() {
        let sim = SimConfig::default();
        let grid = TimeGrid::new(epoch(), 1800.0, 600.0);
        let cities = geodata::paper_cities();
        let terminals: Vec<GroundSite> = cities.iter().take(8).map(|c| c.site()).collect();
        let gateways = crate::graph::gateways_every_nth(&cities[..8], 3);
        let spec = ShellSpec { planes: 6, sats_per_plane: 8, ..ShellSpec::starlink_like() };
        let shell = walker_delta(&spec, epoch());
        // (satellites, ISL range, hops, smallest cell edge the grid may have)
        let corners = [
            // 50 km cells over a shell would be ~10⁷ of them: the cap holds,
            // as it does where the count overflows.
            (48, 50.0, 2, 50.0),
            (48, 1e-300, 2, 50.0),
            // Bent pipe never queries the ISL range, so it sets no edge.
            (48, 1e-3, 0, 500.0),
            (48, f64::INFINITY, 0, 500.0),
            (1, 3000.0, 2, 500.0),
            (0, 3000.0, 2, FALLBACK_CELL_KM),
        ];
        for (n, isl_range_km, max_hops, min_edge_km) in corners {
            let store = EphemerisStore::build(&shell[..n], &grid, &sim);
            let graph = GraphConfig { isl_range_km, max_hops, ..GraphConfig::default() };
            check_store_matches_reference(&store, &terminals, &gateways, &sim, &graph, None);
            let mut scratch = StepScratch::default();
            let kernel = StepKernel::new(&store, &terminals, &gateways, &sim, &graph);
            kernel.routes(&mut scratch, 0, None);
            let frame = scratch.grid.frame;
            let ctx = format!("{n} sats, range {isl_range_km}, {max_hops} hops: {frame:?}");
            assert!(frame.cells() <= CELLS_PER_POSITION * n.max(1), "{ctx}");
            assert!(1.0 / frame.inv_cell >= min_edge_km, "{ctx}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::step_routes_reference;
    use leosim::TimeGrid;
    use orbital::constellation::{single_plane, walker_delta, ShellSpec};
    use orbital::time::Epoch;
    use proptest::prelude::*;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    /// A small random scene: constellation shape, ISL range/hops, mask.
    #[derive(Debug, Clone)]
    struct Scene {
        planes: u32,
        per_plane: u32,
        single: bool,
        alt_km: f64,
        incl_deg: f64,
        isl_range_km: f64,
        max_hops: usize,
        mask_deg: f64,
        n_terms: usize,
        n_gws: usize,
        fail_stride: usize,
    }

    fn arb_scene() -> impl Strategy<Value = Scene> {
        (
            1u32..6,
            2u32..8,
            any::<bool>(),
            400.0f64..1400.0,
            20.0f64..98.0,
            500.0f64..6000.0,
            0usize..4,
            0.0f64..60.0,
            1usize..6,
            1usize..4,
            0usize..4,
        )
            .prop_map(
                |(
                    planes,
                    per_plane,
                    single,
                    alt_km,
                    incl_deg,
                    isl_range_km,
                    max_hops,
                    mask_deg,
                    n_terms,
                    n_gws,
                    fail_stride,
                )| Scene {
                    planes,
                    per_plane,
                    single,
                    alt_km,
                    incl_deg,
                    isl_range_km,
                    max_hops,
                    mask_deg,
                    n_terms,
                    n_gws,
                    fail_stride,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The grid-pruned kernel returns exactly the brute-force scan's
        /// routes — same satellites, same tie-breaks, same bits — over
        /// random constellations, ISL ranges, hop budgets, and elevation
        /// masks, with and without masks, while reusing one scratch.
        #[test]
        fn grid_kernel_equals_brute_force(scene in arb_scene()) {
            let sats = if scene.single {
                single_plane(scene.planes * scene.per_plane, scene.alt_km, scene.incl_deg, epoch())
            } else {
                let spec = ShellSpec {
                    planes: scene.planes,
                    sats_per_plane: scene.per_plane,
                    altitude_km: scene.alt_km,
                    inclination_deg: scene.incl_deg,
                    ..ShellSpec::starlink_like()
                };
                walker_delta(&spec, epoch())
            };
            let grid = TimeGrid::new(epoch(), 6.0 * 600.0, 600.0);
            let sim = SimConfig::default().with_mask_deg(scene.mask_deg);
            let store = EphemerisStore::build(&sats, &grid, &sim);
            let cities = geodata::paper_cities();
            let terminals: Vec<_> = cities.iter().take(scene.n_terms).map(|c| c.site()).collect();
            let gateways =
                crate::graph::gateways_every_nth(&cities, cities.len() / scene.n_gws);
            let graph = GraphConfig {
                isl_range_km: scene.isl_range_km,
                max_hops: scene.max_hops,
                ..GraphConfig::default()
            };
            let mask = if scene.fail_stride == 0 { None } else {
                let mut m = StepMask::nominal(store.sat_count(), gateways.len(), terminals.len());
                for s in (0..store.sat_count()).step_by(scene.fail_stride + 1) {
                    m.sat_ok[s] = false;
                }
                if scene.fail_stride == 1 && !m.gateway_ok.is_empty() {
                    m.gateway_ok[0] = false;
                }
                m.terminal_factor[0] = 0.5;
                Some(m)
            };
            let kernel = StepKernel::new(&store, &terminals, &gateways, &sim, &graph);
            let mut scratch = StepScratch::default();
            for k in 0..store.steps() {
                let fast = kernel.routes(&mut scratch, k, mask.as_ref());
                let slow = step_routes_reference(
                    &store, &terminals, &gateways, &sim, &graph, k, mask.as_ref(),
                );
                prop_assert_eq!(fast.routes.len(), slow.routes.len());
                for (t, (x, y)) in fast.routes.iter().zip(&slow.routes).enumerate() {
                    match (x, y) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.sat, y.sat, "step {} terminal {}", k, t);
                            prop_assert_eq!(x.gateway, y.gateway, "step {} terminal {}", k, t);
                            prop_assert_eq!(x.hops, y.hops, "step {} terminal {}", k, t);
                            prop_assert_eq!(x.path_km.to_bits(), y.path_km.to_bits(),
                                "step {} terminal {}: {} vs {}", k, t, x.path_km, y.path_km);
                            prop_assert_eq!(x.latency_ms.to_bits(), y.latency_ms.to_bits());
                            prop_assert_eq!(x.access_mbps.to_bits(), y.access_mbps.to_bits(),
                                "step {} terminal {}: {} vs {}", k, t, x.access_mbps, y.access_mbps);
                        }
                        _ => prop_assert!(false, "step {} terminal {} presence differs", k, t),
                    }
                }
            }
        }

        /// The same equality where hops are deep and layers large: seeded
        /// draws of the Starlink pool, up to six hops, frontiers larger and
        /// smaller than what they sweep, with and without a mask.
        #[test]
        fn grid_kernel_equals_brute_force_at_depth(
            seed in 0u64..1_000,
            sample in 50usize..300,
            max_hops in 1usize..7,
            isl_range_km in 600.0f64..6500.0,
            masked in any::<bool>(),
        ) {
            let (store, terminals, gateways, mask) = super::tests::pool_sample_scene(seed, sample);
            let graph = GraphConfig { isl_range_km, max_hops, ..GraphConfig::default() };
            super::tests::check_store_matches_reference(
                &store,
                &terminals,
                &gateways,
                &SimConfig::default(),
                &graph,
                masked.then_some(&mask),
            );
        }
    }
}
