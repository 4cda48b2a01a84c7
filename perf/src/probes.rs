//! Timing helpers for the per-layer probes: each probe is a direct call
//! into a layer's public function, wrapped in a span.

use crate::harness::{Metrics, Workload, POOL_THREADS};
use crate::stats;
use crate::trace::Tracer;
use mpleo_bench::scenario_epoch;
use orbital::constellation::{starlink_gen1_pool, Satellite};
use orbital::propagator::{KeplerJ2, Propagator, Sgp4};
use orbital::Vec3;

/// Run `f` `calls` times, each in a span called `name`; returns the
/// per-call durations in seconds.
pub fn sample<R>(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut(usize) -> R,
) -> Vec<f64> {
    let first = tracer.spans().len();
    for i in 0..calls {
        tracer.span(name, |_| std::hint::black_box(f(i)));
    }
    tracer.spans()[first..].iter().map(|s| s.seconds()).collect()
}

/// Median seconds per call of `f` over `calls` calls.
pub fn median_s<R>(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    f: impl FnMut(usize) -> R,
) -> f64 {
    stats::median(&sample(tracer, name, calls, f))
}

/// Median seconds per item when one call is too short to time: each of
/// `calls` spans runs `f` `batch` times.
pub fn median_batched_s<R>(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    batch: usize,
    mut f: impl FnMut(usize) -> R,
) -> f64 {
    median_s(tracer, name, calls, |c| {
        for i in 0..batch {
            std::hint::black_box(f(c * batch + i));
        }
    }) / batch as f64
}

/// `leosim.ephemeris_*` from one build of `sats × steps` positions that took
/// `build_s` (the size is computed: three `f64` per position).
pub fn set_ephemeris_metrics(m: &mut Metrics, sats: usize, steps: usize, build_s: f64) {
    let states = (sats * steps) as f64;
    m.set("leosim.ephemeris_build_s", build_s);
    m.set("leosim.ephemeris_mstates_per_s", states / build_s / 1e6);
    m.set("leosim.ephemeris_mib", states * 24.0 / (1024.0 * 1024.0));
}

/// `orbital.*`: both propagators over `pool` × 64 epochs, and the pool
/// synthesis itself.
pub fn orbital_probes(tracer: &mut Tracer, m: &mut Metrics, pool: &[Satellite]) {
    const EPOCHS: usize = 64;
    let start = scenario_epoch();
    let mut out = vec![Vec3::ZERO; EPOCHS];
    let states = (pool.len() * EPOCHS) as f64;
    let kepler = median_s(tracer, "orbital.keplerj2_positions", 5, |_| {
        for sat in pool {
            KeplerJ2::from_elements(&sat.elements, sat.epoch).positions_into(start, 60.0, &mut out);
        }
        out[EPOCHS - 1]
    });
    m.set("orbital.keplerj2_ns_per_state", kepler / states * 1e9);
    let sgp4 = median_s(tracer, "orbital.sgp4_positions", 5, |_| {
        for sat in pool {
            Sgp4::from_tle(&sat.to_tle())
                .expect("constellation TLEs are near-Earth")
                .positions_into(start, 60.0, &mut out);
        }
        out[EPOCHS - 1]
    });
    m.set("orbital.sgp4_ns_per_state", sgp4 / states * 1e9);
    m.set(
        "orbital.pool_synth_ms",
        median_s(tracer, "orbital.starlink_gen1_pool", 5, |_| starlink_gen1_pool(start)) * 1e3,
    );
}

/// `simrt.*`: the pool's own accounting over one two-thread body, and the
/// cost of dispatching an empty task.
pub fn simrt_probes(tracer: &mut Tracer, m: &mut Metrics, w: &mut dyn Workload) {
    if w.consumes_setup() {
        w.setup();
    }
    let before = simrt::global_metrics();
    simrt::with_thread_cap(POOL_THREADS, || tracer.span("run.body_2t", |_| w.body()));
    let after = simrt::global_metrics();
    m.set("simrt.busy_s", after.busy_s - before.busy_s);
    m.set("simrt.queue_wait_s", after.queue_wait_s - before.queue_wait_s);
    m.set("simrt.tasks", (after.tasks - before.tasks) as f64);
    const TASKS: usize = 10_000;
    let dispatch = simrt::with_thread_cap(POOL_THREADS, || {
        median_s(tracer, "simrt.par_map_empty", 20, |_| simrt::par_map_indexed(TASKS, 0, |i| i))
    });
    m.set("simrt.dispatch_us", dispatch / TASKS as f64 * 1e6);
}
