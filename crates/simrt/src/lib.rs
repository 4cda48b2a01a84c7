//! # simrt — the shared deterministic execution runtime
//!
//! One persistent worker pool under every parallel code path in the
//! workspace: the ephemeris build, the visibility kernel, the Monte-Carlo
//! harness, and the experiment runner's per-figure fan-out. Before this
//! crate each of those carried its own copy of scoped-thread chunking code
//! and spawned fresh OS threads on every call; now they all share one pool
//! built once per process.
//!
//! ## Execution model
//!
//! A parallel *scope* ([`par_map_indexed`], [`par_for_each_mut`]) is a
//! caller-participation construct: the calling thread enqueues up to
//! `cap - 1` *helper* jobs on the pool and then joins the same
//! index-claiming loop itself. Indices are claimed in blocks from a shared
//! atomic counter, so a scope always makes progress even when every worker
//! is busy elsewhere — the caller alone can finish the whole scope. Every
//! claimant runs the same shared `Fn(usize)` closure; no state persists on a
//! participant between indices. At scope exit, helpers that never started
//! are cancelled (a queued job is a single compare-and-swap away from being
//! a no-op) and running helpers are waited for; no work outlives the scope,
//! so task closures may borrow from the caller's stack.
//!
//! ## Determinism contract
//!
//! The primitives assign *work by index, results by index*: slot `i` of the
//! output is always `f(i)`, no matter which thread ran it or in what order
//! indices were claimed. Any caller whose `f(i)` is itself deterministic
//! (e.g. a Monte-Carlo body seeded from `run_rng(seed, i)`) therefore gets
//! bit-identical results at every thread count — determinism by
//! construction, not by locking.
//!
//! ## Nesting budget
//!
//! Helper slots are metered by a global token budget equal to the worker
//! count. A scope takes as many tokens as it can (non-blocking) and returns
//! them at exit; a nested scope that finds the budget empty simply runs
//! inline on its calling thread. Outer parallelism (the experiment runner's
//! per-figure fan-out) and inner parallelism (a figure's Monte-Carlo loop)
//! therefore share one core budget instead of multiplying into
//! oversubscription, and nesting can never deadlock: blocking waits happen
//! only on helpers that are actively running on dedicated pool threads.
//!
//! ## Panics
//!
//! A panic in any task closure stops further index claiming, is carried to
//! the scope's caller, and is re-raised there with the original payload.
//! The pool itself survives; on the panic path [`par_map_indexed`] leaks
//! the already-produced elements rather than risk dropping uninitialized
//! slots.
//!
//! ## Configuration
//!
//! The pool size resolves exactly once, from one place (the fix for the
//! old scattered `available_parallelism().unwrap_or(4)` fallbacks):
//! [`configure`] (an embedding program's explicit call) wins over a
//! validated `MPLEO_THREADS` environment override, which wins over
//! [`available_parallelism`].
//! `0` always means "auto". [`with_thread_cap`] additionally caps scopes
//! started by the current thread, which is how the determinism tests run
//! threads=1 and threads=4 inside one process (the global pool cannot be
//! resized once built).

mod metrics;
mod pool;

pub use metrics::{global_metrics, take_thread_metrics, thread_metrics, ScopeMetrics};
pub use pool::{par_for_each_mut, par_map_indexed};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit thread-count override set by [`configure`]; `0` = unset.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// The environment/auto part of the resolution, computed once.
static ENV_BASE: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Per-thread scope cap installed by [`with_thread_cap`]; `0` = none.
    static THREAD_CAP: Cell<usize> = const { Cell::new(0) };
}

/// The environment variable consulted by [`threads`].
pub const THREADS_ENV: &str = "MPLEO_THREADS";

/// An invalid `MPLEO_THREADS` value (see [`env_threads`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidThreads {
    /// The rejected value.
    pub value: String,
}

impl std::fmt::Display for InvalidThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{THREADS_ENV}={:?} is invalid: expected a non-negative integer (0 = auto)",
            self.value
        )
    }
}

impl std::error::Error for InvalidThreads {}

/// Parse an `MPLEO_THREADS`-style value. `None`, the empty string, and `"0"`
/// all mean "auto" (`Ok(None)`); a positive integer is an explicit count;
/// anything else is rejected loudly — never silently defaulted.
pub fn env_threads(value: Option<&str>) -> Result<Option<usize>, InvalidThreads> {
    let v = match value {
        None => return Ok(None),
        Some("") => return Ok(None),
        Some(v) => v,
    };
    match v.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(InvalidThreads { value: v.to_string() }),
    }
}

/// The machine's available parallelism, defaulting to 1 (not a made-up
/// count) when the platform cannot report it.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Set the process-wide thread count (`0` = back to auto). Call before the
/// first parallel scope for full effect: the pool is sized on first use, so
/// a later `configure` to a *smaller* count still caps concurrency, but a
/// larger one cannot grow an already-built pool.
pub fn configure(threads: usize) {
    CONFIGURED.store(threads, Ordering::Relaxed);
}

/// The resolved process-wide thread count: [`configure`] override, else a
/// validated `MPLEO_THREADS`, else [`available_parallelism`]. Panics (with
/// the [`InvalidThreads`] message) on a malformed `MPLEO_THREADS` — callers
/// wanting a `Result` should pre-validate via [`env_threads`], as the bench
/// harness does in `Fidelity::from_env`.
pub fn threads() -> usize {
    let explicit = CONFIGURED.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    *ENV_BASE.get_or_init(|| {
        match env_threads(std::env::var(THREADS_ENV).ok().as_deref()) {
            Ok(Some(n)) => n,
            Ok(None) => available_parallelism(),
            Err(e) => panic!("simrt: {e}"),
        }
    })
}

/// Run `f` with every parallel scope *started by this thread* capped at
/// `cap` claimants (`0` = uncapped). `cap = 1` forces those scopes inline,
/// which also carries the cap into any scopes they start transitively (they
/// run on this thread too). The previous cap is restored on exit, panic
/// included.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_CAP.with(|c| c.replace(cap));
    let _restore = Restore(prev);
    f()
}

/// The concrete claimant bound for a scope: the smallest of the requested
/// cap, the caller's [`with_thread_cap`], and the global [`threads`] count
/// (`0` anywhere = unbounded), floored at 1.
pub(crate) fn effective_cap(cap: usize) -> usize {
    let mut eff = threads();
    if cap > 0 {
        eff = eff.min(cap);
    }
    let tl = THREAD_CAP.with(|c| c.get());
    if tl > 0 {
        eff = eff.min(tl);
    }
    eff.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_threads_accepts_auto_and_counts() {
        assert_eq!(env_threads(None), Ok(None));
        assert_eq!(env_threads(Some("")), Ok(None));
        assert_eq!(env_threads(Some("0")), Ok(None));
        assert_eq!(env_threads(Some("1")), Ok(Some(1)));
        assert_eq!(env_threads(Some("16")), Ok(Some(16)));
    }

    #[test]
    fn env_threads_rejects_garbage_loudly() {
        for bad in ["four", "-1", "2.5", " 2", "0x4"] {
            let err = env_threads(Some(bad)).unwrap_err();
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains(THREADS_ENV), "{err}");
        }
    }

    #[test]
    fn thread_cap_nests_and_restores() {
        with_thread_cap(4, || {
            assert_eq!(effective_cap(0), 4.min(threads()).max(1));
            with_thread_cap(2, || {
                assert!(effective_cap(0) <= 2);
                assert_eq!(effective_cap(1), 1);
            });
            assert!(effective_cap(0) <= 4);
        });
        // Restored to uncapped.
        assert_eq!(effective_cap(0), threads());
    }

    #[test]
    fn effective_cap_is_at_least_one() {
        assert!(effective_cap(0) >= 1);
        assert_eq!(effective_cap(1), 1);
    }
}
