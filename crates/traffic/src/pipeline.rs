//! The shared per-step routing kernel: one code path under the traffic
//! engine, the churn campaign engine, and every routing experiment.
//!
//! [`StepKernel`] owns everything that is constant across steps (scene
//! references, the elevation mask's sine, per-site pruning constants);
//! [`StepScratch`] owns everything that varies per step (the positions
//! column, the cell-grid index, the BFS chain and frontier queues): a
//! caller-provided workspace whose contents never reach the output. The
//! `simrt` fan-outs hand each step a fresh one; a sequential caller may
//! keep one across steps to skip the buffer allocations.
//!
//! ## Grid-pruned candidate search
//!
//! The kernel replaces the reference implementation's all-satellite scans
//! (`O(sats)` per terminal, `O(sats²)` per ISL hop) with ball queries over
//! a uniform [`CellGrid`] rebuilt per step:
//!
//! - **ISL neighbours** are searched within exactly `isl_range_km` of the
//!   joining satellite.
//! - **Site access** (gateway downlink and terminal uplink) is pruned by a
//!   conservative slant-range bound: a site at geocentric radius `R` can
//!   only see a satellite at radius `≤ r_max` above elevation `e` if their
//!   distance is at most `sqrt(r_max² − R²·cos²e′) − R·sin e′`, where
//!   `e′ = e − 0.25°` pads for the deflection between the site's geodetic
//!   zenith (what [`orbital::frames::sin_elevation`] measures against) and
//!   the geocentric radial (what the bound is derived from; the deflection
//!   is at most ~0.192° on WGS84). A non-positive discriminant proves no
//!   satellite can be visible at all.
//!
//! ## Determinism argument
//!
//! The reference kernel resolves every choice by a first-wins
//! strict-less-than scan in ascending index order, which selects the
//! lexicographic minimum of `(value, index)`. The grid visits candidates
//! in bucket order instead, so every selection here compares
//! `(value, index)` lexicographically and explicitly — same winner, any
//! visitation order. The pruning radii are conservative supersets and
//! every candidate is re-checked with the exact reference predicates
//! (visibility, range) before competing, so the surviving candidate set is
//! identical. Winner fields are computed with the reference expressions in
//! the reference order. The result is byte-identical to
//! [`crate::graph::step_routes_reference`] — property-tested below over
//! random constellations, ranges, and masks — and therefore byte-identical
//! at any thread count, since each step is a pure function of `(step,
//! mask)` fanned out index-deterministically.

use crate::graph::{Downlink, GraphConfig, Route, StepMask, StepRoutes};
use leosim::ephemeris::EphemerisStore;
use leosim::latency::C_KM_S;
use leosim::linkbudget::{end_to_end_capacity_bps, PayloadArchitecture, RfLeg};
use leosim::visibility::SimConfig;
use orbital::ground::GroundSite;
use orbital::Vec3;

/// Padding subtracted from the elevation mask before deriving the
/// slant-range bound, degrees: covers the geodetic-vs-geocentric zenith
/// deflection (max ~0.192° on WGS84) with margin.
const ZENITH_PAD_DEG: f64 = 0.25;

/// Slack added to ball-query radii when mapping them to grid cells, km.
/// Absorbs floating-point rounding in the AABB arithmetic; candidacy is
/// decided by exact predicates, so this only needs to be conservative.
const AABB_SLACK_KM: f64 = 1e-6;

/// Soft cap on grid cells per rebuild; the cell edge is doubled until the
/// grid fits. Purely a memory/speed trade — any cell size yields the same
/// routes because candidates are re-checked exactly.
const MAX_CELLS: usize = 65_536;

/// A uniform 3-D cell grid over one step's satellite positions, rebuilt in
/// place each step (CSR buckets: `starts` offsets into `order`).
#[derive(Debug, Default)]
pub struct CellGrid {
    origin: Vec3,
    cell_km: f64,
    /// `1 / cell_km`: cell coordinates are computed by multiplication,
    /// which is much cheaper than division in the per-satellite loops.
    /// Rebuild and query use the *same* expression, and multiplication by
    /// a positive constant is monotone, so the query AABB always covers
    /// every cell a ball member was sorted into.
    inv_cell: f64,
    nx: usize,
    ny: usize,
    nz: usize,
    /// Bucket offsets, length `nx·ny·nz + 1`.
    starts: Vec<usize>,
    /// Satellite rows grouped by bucket, length `positions.len()`.
    order: Vec<u32>,
    /// Fill cursors, reused across rebuilds.
    cursor: Vec<usize>,
    /// Per-satellite cell ids computed once per rebuild.
    cell_ids: Vec<u32>,
}

impl CellGrid {
    #[inline]
    fn cell_of(&self, p: Vec3) -> usize {
        // Positions are inside the bounding box the grid was built from,
        // so the products are non-negative and truncation is floor.
        let ix = (((p.x - self.origin.x) * self.inv_cell) as usize).min(self.nx - 1);
        let iy = (((p.y - self.origin.y) * self.inv_cell) as usize).min(self.ny - 1);
        let iz = (((p.z - self.origin.z) * self.inv_cell) as usize).min(self.nz - 1);
        (iz * self.ny + iy) * self.nx + ix
    }

    /// Rebuild the grid over `positions` with cells of roughly `cell_km`
    /// (doubled until the grid fits `MAX_CELLS`).
    pub fn rebuild(&mut self, positions: &[Vec3], cell_km: f64) {
        assert!(cell_km > 0.0 && cell_km.is_finite(), "bad cell size {cell_km}");
        let n = positions.len();
        if n == 0 {
            self.nx = 0;
            self.ny = 0;
            self.nz = 0;
            self.starts.clear();
            self.order.clear();
            return;
        }
        let mut min = positions[0];
        let mut max = positions[0];
        for p in positions {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            min.z = min.z.min(p.z);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
            max.z = max.z.max(p.z);
        }
        self.origin = min;
        self.cell_km = cell_km;
        loop {
            self.nx = ((max.x - min.x) / self.cell_km) as usize + 1;
            self.ny = ((max.y - min.y) / self.cell_km) as usize + 1;
            self.nz = ((max.z - min.z) / self.cell_km) as usize + 1;
            if self.nx * self.ny * self.nz <= MAX_CELLS {
                break;
            }
            self.cell_km *= 2.0;
        }
        self.inv_cell = 1.0 / self.cell_km;
        let cells = self.nx * self.ny * self.nz;
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        let mut cell_ids = std::mem::take(&mut self.cell_ids);
        cell_ids.clear();
        cell_ids.extend(positions.iter().map(|p| self.cell_of(*p) as u32));
        self.cell_ids = cell_ids;
        for &c in &self.cell_ids {
            self.starts[c as usize + 1] += 1;
        }
        for c in 0..cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..cells]);
        self.order.clear();
        self.order.resize(n, 0);
        for (s, &c) in self.cell_ids.iter().enumerate() {
            self.order[self.cursor[c as usize]] = s as u32;
            self.cursor[c as usize] += 1;
        }
    }

    /// Visit every satellite whose cell overlaps the ball of radius
    /// `radius_km` around `q` — a superset of the satellites within the
    /// ball; the caller re-checks exact predicates.
    #[inline]
    pub fn query_ball(&self, q: Vec3, radius_km: f64, mut visit: impl FnMut(u32)) {
        if self.nx == 0 {
            return;
        }
        let r = radius_km + AABB_SLACK_KM;
        let lo = |v: f64, o: f64, n: usize| -> Option<usize> {
            let c = (v - r - o) * self.inv_cell;
            if c >= n as f64 {
                return None;
            }
            Some(if c < 0.0 { 0 } else { c as usize })
        };
        let hi = |v: f64, o: f64, n: usize| -> Option<usize> {
            let c = (v + r - o) * self.inv_cell;
            if c < 0.0 {
                return None;
            }
            Some((c as usize).min(n - 1))
        };
        let (Some(x0), Some(x1)) = (lo(q.x, self.origin.x, self.nx), hi(q.x, self.origin.x, self.nx))
        else {
            return;
        };
        let (Some(y0), Some(y1)) = (lo(q.y, self.origin.y, self.ny), hi(q.y, self.origin.y, self.ny))
        else {
            return;
        };
        let (Some(z0), Some(z1)) = (lo(q.z, self.origin.z, self.nz), hi(q.z, self.origin.z, self.nz))
        else {
            return;
        };
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                let row = (iz * self.ny + iy) * self.nx;
                let (a, b) = (self.starts[row + x0], self.starts[row + x1 + 1]);
                for &s in &self.order[a..b] {
                    visit(s);
                }
            }
        }
    }
}

/// Caller-provided workspace for the step kernel: everything the per-step
/// computation writes. `Default` is the empty scratch; buffers size
/// themselves on first use and stay allocated for a caller that reuses it.
#[derive(Debug, Default)]
pub struct StepScratch {
    positions: Vec<Vec3>,
    grid: CellGrid,
    chain: Vec<Option<Downlink>>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// `frontier_mark[s] == mark` iff `s` is in the current BFS frontier.
    frontier_mark: Vec<u64>,
    mark: u64,
    /// Best pending (chain length, frontier member) per unreached
    /// satellite during a frontier-outer BFS hop; valid iff
    /// `best_mark[s] == mark`.
    best_d: Vec<f64>,
    best_f: Vec<u32>,
    best_mark: Vec<u64>,
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
    /// Per-terminal `R·sin e′` and `R²·cos²e′` for the slant-range bound.
    term_k1: Vec<f64>,
    term_k2: Vec<f64>,
    gw_k1: Vec<f64>,
    gw_k2: Vec<f64>,
}

impl<'a> StepKernel<'a> {
    /// Precompute the step-invariant state: the mask sine and the per-site
    /// constants of the slant-range pruning bound.
    pub fn new(
        store: &'a EphemerisStore,
        terminals: &'a [GroundSite],
        gateways: &'a [GroundSite],
        sim: &SimConfig,
        graph: &'a GraphConfig,
    ) -> StepKernel<'a> {
        let e_pad = (sim.min_elevation_deg - ZENITH_PAD_DEG).max(-90.0).to_radians();
        let (sin_e, cos_e) = (e_pad.sin(), e_pad.cos());
        let k1 = |s: &GroundSite| s.ecef.norm() * sin_e;
        let k2 = |s: &GroundSite| {
            let rc = s.ecef.norm() * cos_e;
            rc * rc
        };
        StepKernel {
            store,
            terminals,
            gateways,
            graph,
            sin_mask: sim.sin_mask(),
            term_k1: terminals.iter().map(k1).collect(),
            term_k2: terminals.iter().map(k2).collect(),
            gw_k1: gateways.iter().map(k1).collect(),
            gw_k2: gateways.iter().map(k2).collect(),
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
        let StepScratch {
            positions,
            grid,
            chain,
            frontier,
            next_frontier,
            frontier_mark,
            mark,
            best_d,
            best_f,
            best_mark,
            term_dmax,
            gw_dmax,
        } = scratch;
        let sat_ok = |s: usize| mask.is_none_or(|m| m.sat_ok[s]);

        self.store.positions_at_step_into(k, positions);
        let r_max_sq = positions.iter().fold(0.0f64, |acc, p| acc.max(p.norm_sq()));

        // Access bound per site at this step's shell radius: visible ⇒
        // range ≤ sqrt(r_max² − R²cos²e′) − R·sin e′; negative discriminant
        // ⇒ nothing can be visible.
        // Conservative squared-radius for the cheap norm² precheck that
        // runs before each exact predicate: the slack absorbs the rounding
        // difference between `norm_sq` and the reference's `distance`.
        let pad_sq = |r: f64| {
            let r = r + AABB_SLACK_KM;
            r * r
        };
        let dmax = |k1: f64, k2: f64| {
            let disc = r_max_sq - k2;
            if disc <= 0.0 {
                0.0
            } else {
                disc.sqrt() - k1
            }
        };
        term_dmax.clear();
        term_dmax.extend(self.term_k1.iter().zip(&self.term_k2).map(|(&k1, &k2)| dmax(k1, k2)));
        gw_dmax.clear();
        gw_dmax.extend(self.gw_k1.iter().zip(&self.gw_k2).map(|(&k1, &k2)| dmax(k1, k2)));

        let max_radius = gw_dmax
            .iter()
            .chain(term_dmax.iter())
            .fold(self.graph.isl_range_km, |acc, &d| acc.max(d))
            .max(1.0);
        grid.rebuild(positions, max_radius);

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
            grid.query_ball(gw.ecef, gw_dmax[g], |s| {
                let s = s as usize;
                // `rel.norm_sq()` is bitwise symmetric in operand order, and
                // its sqrt reproduces both `sin_elevation`'s norm and
                // `Vec3::distance` exactly, so one computation serves the
                // precheck, the visibility test, and the range.
                let rel = positions[s] - gw.ecef;
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
        // runs in whichever direction scans fewer ball queries — both
        // directions compute the same lexicographic minimum, so the choice
        // affects speed only, never bits.
        frontier.clear();
        frontier.extend((0..n as u32).filter(|&s| chain[s as usize].is_some()));
        if frontier_mark.len() != n {
            frontier_mark.clear();
            frontier_mark.resize(n, 0);
            best_d.clear();
            best_d.resize(n, 0.0);
            best_f.clear();
            best_f.resize(n, 0);
            best_mark.clear();
            best_mark.resize(n, 0);
        }
        let mut unchained = (0..n).filter(|&s| chain[s].is_none() && sat_ok(s)).count();
        for _hop in 0..self.graph.max_hops {
            if frontier.is_empty() || unchained == 0 {
                break;
            }
            *mark += 1;
            next_frontier.clear();
            if frontier.len() <= unchained {
                // Frontier-outer: ball-query around each frontier member
                // (ascending index) and keep each candidate's best
                // (chain length, member) — strict `<` suffices because the
                // member index ascends across the sweep.
                let prune_sq = pad_sq(self.graph.isl_range_km);
                for &f in frontier.iter() {
                    let prev = chain[f as usize].as_ref().expect("frontier is reached");
                    grid.query_ball(positions[f as usize], self.graph.isl_range_km, |s| {
                        let su = s as usize;
                        let d_sq = (positions[f as usize] - positions[su]).norm_sq();
                        if chain[su].is_some() || d_sq > prune_sq || !sat_ok(su) {
                            return;
                        }
                        let d = d_sq.sqrt();
                        if d > self.graph.isl_range_km {
                            return;
                        }
                        let dist = prev.dist_km + d;
                        if best_mark[su] != *mark || dist < best_d[su] {
                            best_mark[su] = *mark;
                            best_d[su] = dist;
                            best_f[su] = f;
                        }
                    });
                }
                for s in 0..n {
                    if best_mark[s] != *mark {
                        continue;
                    }
                    let prev = chain[best_f[s] as usize].as_ref().expect("frontier is reached");
                    chain[s] = Some(Downlink {
                        gateway: prev.gateway,
                        dist_km: best_d[s],
                        hops: prev.hops + 1,
                        down_range_km: prev.down_range_km,
                    });
                    next_frontier.push(s as u32);
                }
            } else {
                // Sat-outer: ball-query around each unreached satellite and
                // minimize over the frontier members it finds.
                for &f in frontier.iter() {
                    frontier_mark[f as usize] = *mark;
                }
                for s in 0..n {
                    if chain[s].is_some() || !sat_ok(s) {
                        continue;
                    }
                    let mut best: Option<(f64, u32)> = None;
                    let prune_sq = pad_sq(self.graph.isl_range_km);
                    grid.query_ball(positions[s], self.graph.isl_range_km, |f| {
                        let d_sq = (positions[f as usize] - positions[s]).norm_sq();
                        if frontier_mark[f as usize] != *mark || d_sq > prune_sq {
                            return;
                        }
                        let d = d_sq.sqrt();
                        if d > self.graph.isl_range_km {
                            return;
                        }
                        let prev = chain[f as usize].as_ref().expect("frontier is reached");
                        let dist = prev.dist_km + d;
                        if best.is_none_or(|(bd, bf)| dist < bd || (dist == bd && f < bf)) {
                            best = Some((dist, f));
                        }
                    });
                    if let Some((dist, f)) = best {
                        let prev = chain[f as usize].as_ref().expect("frontier is reached");
                        chain[s] = Some(Downlink {
                            gateway: prev.gateway,
                            dist_km: dist,
                            hops: prev.hops + 1,
                            down_range_km: prev.down_range_km,
                        });
                        next_frontier.push(s as u32);
                    }
                }
            }
            unchained -= next_frontier.len();
            std::mem::swap(frontier, next_frontier);
        }

        // Terminal access: ball query, then the exact reference selection —
        // lexicographic minimum of (path length, satellite row).
        let up = RfLeg::ku_user_uplink();
        let down = RfLeg::ku_gateway_downlink();
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
                grid.query_ball(t.ecef, term_dmax[ti], |s| {
                    let rel = positions[s as usize] - t.ecef;
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
                    let per_channel =
                        end_to_end_capacity_bps(arch, &up, up_range, &down, c.down_range_km);
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

    fn check_store_matches_reference(
        store: &EphemerisStore,
        terminals: &[GroundSite],
        gateways: &[GroundSite],
        sim: &SimConfig,
        graph: &GraphConfig,
        mask: Option<&StepMask>,
    ) {
        let kernel = StepKernel::new(store, terminals, gateways, sim, graph);
        // ONE scratch across every step next to a fresh one per step:
        // scratch contents must never reach the output.
        let mut scratch = StepScratch::default();
        for k in 0..store.steps() {
            let fast = kernel.routes(&mut scratch, k, mask);
            let slow = step_routes_reference(store, terminals, gateways, sim, graph, k, mask);
            assert_steps_bit_identical(&fast, &slow, &format!("step {k}"));
            let cold = kernel.routes(&mut StepScratch::default(), k, mask);
            assert_steps_bit_identical(&cold, &fast, &format!("step {k}, fresh scratch"));
        }
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
        let mut positions = Vec::new();
        for k in 0..store.steps() {
            store.positions_at_step_into(k, &mut positions);
            let mut grid = CellGrid::default();
            for cell_km in [400.0, 1500.0, 9000.0] {
                grid.rebuild(&positions, cell_km);
                for (q, radius) in
                    [(positions[0], 3000.0), (Vec3::new(6371.0, 0.0, 0.0), 2500.0)]
                {
                    let mut hit = vec![false; positions.len()];
                    grid.query_ball(q, radius, |s| hit[s as usize] = true);
                    for (s, p) in positions.iter().enumerate() {
                        if p.distance(q) <= radius {
                            assert!(hit[s], "cell {cell_km}: sat {s} within {radius} missed");
                        }
                    }
                }
            }
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
    }
}
