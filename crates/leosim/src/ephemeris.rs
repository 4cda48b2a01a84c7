//! The shared ephemeris layer: propagate once, consume everywhere.
//!
//! Every experiment in the paper's evaluation starts from the same expensive
//! step — propagate a Starlink-scale pool over a time grid. Before this layer
//! existed, that step was re-implemented (and re-run) independently by the
//! visibility engine, the coverage map, the latency model and the ISL relay;
//! sweeps such as the elevation-mask ablation paid it once *per mask* even
//! though positions do not depend on the mask.
//!
//! [`EphemerisStore`] materializes the positions exactly once, in a columnar
//! (structure-of-arrays) table of ECEF coordinates: `x`, `y`, `z` are flat
//! `Vec<f64>` indexed `[sat * steps + k]`, so one satellite's trajectory is a
//! contiguous cache-friendly row. The build is partitioned across threads by
//! satellite (on the shared `simrt` worker pool) and respects
//! `SimConfig::propagator`. Downstream consumers — the visibility kernel,
//! the coverage map, the routing step kernel, ISL relays — are pure geometry
//! over the store.
//!
//! The build pipeline, per chunk of satellites: one satellite's whole grid
//! of inertial positions from the propagator's batch entry (for KeplerJ2
//! [`KeplerJ2::positions_into_with`] on a workspace the chunk keeps, so the
//! satellites of a plane share one node table and those of a shell one
//! apsidal table), then one pass that rotates each position to ECEF and
//! stores it. Earth's rotation does not depend on the satellite, so the
//! `Mat3::rot_z(gmst)` of every step is computed once per build, not once
//! per state; the products are the ones `eci_to_ecef` forms. The same pass
//! records the largest `|r|²` it stores ([`EphemerisStore::max_radius_sq`])
//! for the consumers' slant-range screens.
//!
//! A store comes into existence in exactly two ways: [`EphemerisStore::build`]
//! propagates a pool, and [`EphemerisStore::select`] copies rows out of a
//! built one. Satellite rows are independent, so "build the pool, select a
//! sample" and "build the sample" give the same bits. There is no disk
//! format: a fresh build of the full pool costs about as much as reading the
//! same bytes back (numbers in DESIGN.md).
//!
//! Memory: `sats * steps * 3 * 8` bytes — ~150 MB for the full 4.4k-satellite
//! pool at the quick fidelity (2 days / 120 s), ~1 GB at the paper's full
//! fidelity (1 week / 60 s). That is the price of running propagation once
//! instead of once per experiment; sharding the grid is future work.

use crate::timegrid::TimeGrid;
use crate::visibility::{PropagatorKind, SimConfig};
use orbital::constellation::Satellite;
use orbital::math::Mat3;
use orbital::propagator::{KeplerJ2, KeplerJ2Scratch, Propagator, Sgp4};
use orbital::Vec3;

/// A columnar table of ECEF positions for a satellite pool over a time grid.
///
/// Layout: coordinate `c` of satellite `sat` at step `k` lives at index
/// `sat * grid.steps + k` of the `c` column. Satellite order matches the
/// slice the store was built from; `sat_ids` records their stable IDs.
#[derive(Debug, Clone)]
pub struct EphemerisStore {
    /// The time grid the positions are sampled on.
    pub grid: TimeGrid,
    /// Stable satellite IDs in row order.
    pub sat_ids: Vec<u32>,
    /// The propagator model that produced the positions.
    pub propagator: PropagatorKind,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    max_radius_sq: f64,
}

/// One per-chunk propagation job: a satellite slice, its x/y/z columns and
/// the largest `|r|²` written into them.
type ChunkJob<'a> = (&'a [Satellite], &'a mut [f64], &'a mut [f64], &'a mut [f64], f64);

impl EphemerisStore {
    /// Propagate `sats` over `grid` and materialize the columnar table.
    ///
    /// Work is partitioned across [`simrt::threads`] workers by satellite;
    /// the model is `config.propagator`. Positions are identical, bit for
    /// bit, to calling `Propagator::position_at` per step and rotating with
    /// the grid's precomputed GMST.
    pub fn build(sats: &[Satellite], grid: &TimeGrid, config: &SimConfig) -> EphemerisStore {
        let steps = grid.steps;
        let n = sats.len();
        let mut x = vec![0.0f64; n * steps];
        let mut y = vec![0.0f64; n * steps];
        let mut z = vec![0.0f64; n * steps];
        let threads = simrt::threads().max(1).min(n.max(1));
        let chunk = n.div_ceil(threads).max(1);
        // Pre-split the columns into per-chunk jobs, then run the jobs on
        // the shared simrt pool. The partitioning (and hence every floating
        // point result) is identical to the old scoped-thread version.
        let mut jobs: Vec<ChunkJob<'_>> = Vec::new();
        {
            let mut xs_rest: &mut [f64] = &mut x;
            let mut ys_rest: &mut [f64] = &mut y;
            let mut zs_rest: &mut [f64] = &mut z;
            for sat_chunk in sats.chunks(chunk) {
                let take = sat_chunk.len() * steps;
                let (xs, xr) = xs_rest.split_at_mut(take);
                let (ys, yr) = ys_rest.split_at_mut(take);
                let (zs, zr) = zs_rest.split_at_mut(take);
                xs_rest = xr;
                ys_rest = yr;
                zs_rest = zr;
                jobs.push((sat_chunk, xs, ys, zs, 0.0));
            }
        }
        // Earth's rotation is the same for every satellite: one matrix per
        // step for the whole build, the `Mat3` `eci_to_ecef` would make.
        let rots: Vec<Mat3> = (0..steps).map(|k| Mat3::rot_z(grid.gmst_at(k))).collect();
        let prop_kind = config.propagator;
        simrt::par_for_each_mut(&mut jobs, threads, |_, (sat_chunk, xs, ys, zs, max_sq)| {
            // One ECI buffer and one KeplerJ2 workspace per chunk, reused
            // across its satellites: consecutive satellites of a plane share
            // the workspace's node table, of a shell its apsidal table.
            let mut eci = vec![Vec3::ZERO; steps];
            let mut scratch = KeplerJ2Scratch::default();
            for (i, sat) in sat_chunk.iter().enumerate() {
                match prop_kind {
                    PropagatorKind::KeplerJ2 => KeplerJ2::from_elements(&sat.elements, sat.epoch)
                        .positions_into_with(grid.start, grid.step_s, &mut eci, &mut scratch),
                    PropagatorKind::Sgp4 => Sgp4::from_tle(&sat.to_tle())
                        .expect("constellation TLEs are near-Earth")
                        .positions_into(grid.start, grid.step_s, &mut eci),
                }
                let row = i * steps;
                for (k, (&p, rot)) in eci.iter().zip(&rots).enumerate() {
                    let ecef = rot.mul_vec(p);
                    xs[row + k] = ecef.x;
                    ys[row + k] = ecef.y;
                    zs[row + k] = ecef.z;
                    *max_sq = max_sq.max(ecef.norm_sq());
                }
            }
        });
        let max_radius_sq = jobs.iter().map(|&(.., max_sq)| max_sq).fold(0.0, f64::max);
        EphemerisStore {
            grid: grid.clone(),
            sat_ids: sats.iter().map(|s| s.id).collect(),
            propagator: config.propagator,
            x,
            y,
            z,
            max_radius_sq,
        }
    }

    /// An upper bound on `|r|²` over every stored position, km²: the
    /// largest the build wrote. [`Self::select`] carries the pool's value
    /// unchanged — its use, the slant-range screen of the visibility
    /// kernels ([`orbital::ground::SlantBound`]), needs a bound, not the
    /// maximum.
    pub fn max_radius_sq(&self) -> f64 {
        self.max_radius_sq
    }

    /// Number of satellites in the store.
    pub fn sat_count(&self) -> usize {
        self.sat_ids.len()
    }

    /// Number of grid steps per satellite row.
    pub fn steps(&self) -> usize {
        self.grid.steps
    }

    /// ECEF position of satellite `sat` (row order) at step `k`, km.
    #[inline]
    pub fn position(&self, sat: usize, k: usize) -> Vec3 {
        let i = sat * self.grid.steps + k;
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// The contiguous `(x, y, z)` coordinate rows of satellite `sat` — the
    /// layout the hot screening kernels iterate.
    #[inline]
    pub fn row(&self, sat: usize) -> (&[f64], &[f64], &[f64]) {
        let lo = sat * self.grid.steps;
        let hi = lo + self.grid.steps;
        (&self.x[lo..hi], &self.y[lo..hi], &self.z[lo..hi])
    }

    /// Gather the ECEF positions of every satellite at step `k` into `out`
    /// (row order), reusing its capacity — the step-kernel shape: one
    /// strided gather per step into a scratch buffer instead of a fresh
    /// `Vec` per step. Values are bit-identical to [`Self::position`].
    pub fn positions_at_step_into(&self, k: usize, out: &mut Vec<Vec3>) {
        assert!(k < self.grid.steps, "step {k} out of range");
        out.clear();
        out.reserve(self.sat_count());
        for sat in 0..self.sat_count() {
            let i = sat * self.grid.steps + k;
            out.push(Vec3::new(self.x[i], self.y[i], self.z[i]));
        }
    }

    /// A new store holding only the given satellites (row order follows
    /// `indices`). Pure memcpy — no re-propagation.
    pub fn select(&self, indices: &[usize]) -> EphemerisStore {
        let steps = self.grid.steps;
        let mut x = Vec::with_capacity(indices.len() * steps);
        let mut y = Vec::with_capacity(indices.len() * steps);
        let mut z = Vec::with_capacity(indices.len() * steps);
        for &s in indices {
            let lo = s * steps;
            x.extend_from_slice(&self.x[lo..lo + steps]);
            y.extend_from_slice(&self.y[lo..lo + steps]);
            z.extend_from_slice(&self.z[lo..lo + steps]);
        }
        EphemerisStore {
            grid: self.grid.clone(),
            sat_ids: indices.iter().map(|&s| self.sat_ids[s]).collect(),
            propagator: self.propagator,
            x,
            y,
            z,
            max_radius_sq: self.max_radius_sq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbital::constellation::single_plane;
    use orbital::frames::eci_to_ecef;
    use orbital::propagator::{KeplerJ2, Propagator};
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    #[test]
    fn store_matches_per_step_propagation() {
        let sats = single_plane(5, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 3.0 * 3600.0, 60.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        assert_eq!(store.sat_count(), 5);
        assert_eq!(store.steps(), grid.steps);
        for (i, sat) in sats.iter().enumerate() {
            let prop = KeplerJ2::from_elements(&sat.elements, sat.epoch);
            for k in 0..grid.steps {
                let want = eci_to_ecef(prop.position_at(grid.epoch_at(k)), grid.gmst_at(k));
                // Bit-identical to the pre-refactor per-step path.
                assert_eq!(store.position(i, k), want, "sat {i} step {k}");
            }
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let sats = single_plane(7, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 2.0 * 3600.0, 120.0);
        let cfg = SimConfig::default();
        let build = || EphemerisStore::build(&sats, &grid, &cfg);
        let t1 = simrt::with_thread_cap(1, build);
        let t4 = simrt::with_thread_cap(4, build);
        for s in 0..sats.len() {
            // The thread cap bounds parallelism, not the chunk count; a
            // one-satellite build pins that chunk boundaries never change a
            // bit either — what `select` and the CLI's sample builds rely on.
            let alone = EphemerisStore::build(&sats[s..=s], &grid, &cfg);
            for k in 0..grid.steps {
                assert_eq!(t1.position(s, k), t4.position(s, k), "sat {s} step {k}");
                assert_eq!(t1.position(s, k), alone.position(0, k), "sat {s} step {k} alone");
            }
        }
    }

    #[test]
    fn select_copies_rows() {
        let sats = single_plane(6, 550.0, 53.0, epoch());
        let grid = TimeGrid::new(epoch(), 3600.0, 300.0);
        let store = EphemerisStore::build(&sats, &grid, &SimConfig::default());
        let sub = store.select(&[4, 1]);
        assert_eq!(sub.sat_count(), 2);
        assert_eq!(sub.sat_ids, vec![store.sat_ids[4], store.sat_ids[1]]);
        for k in 0..grid.steps {
            assert_eq!(sub.position(0, k), store.position(4, k));
            assert_eq!(sub.position(1, k), store.position(1, k));
        }
    }
}
