//! The persistent worker pool and the order-preserving parallel primitives.
//!
//! See the crate docs for the execution model. The short version: a scope
//! is a shared [`JobCore`] on the caller's stack; the caller and up to
//! `cap - 1` pool workers claim index blocks from its atomic counter. The
//! caller always participates, helpers are best-effort, and the scope does
//! not return until every helper that *started* has finished — which is
//! what makes the stack borrow sound.

use crate::metrics::{self, ScopeMetrics};
use std::any::Any;
use std::collections::VecDeque;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Helper-slot lifecycle: a worker moves `QUEUED -> RUNNING`, the owning
/// scope's exit path moves `QUEUED -> CANCELLED`; exactly one CAS wins.
const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const CANCELLED: u8 = 2;

/// The shared state of one parallel scope. Lives on the caller's stack for
/// the duration of the scope; helpers reach it through a raw pointer that
/// the slot-state protocol keeps from dangling.
struct JobCore<'a> {
    /// The task every claimant (caller and each helper) runs on the indices
    /// it wins.
    task: &'a (dyn Fn(usize) + Sync),
    n: usize,
    /// Indices are claimed in blocks of this size (smaller blocks balance
    /// uneven tasks, larger ones amortize the atomic).
    block: usize,
    next: AtomicUsize,
    /// Set on the first panic; stops further claiming everywhere.
    panicked: AtomicBool,
    /// The first panic payload, re-raised on the caller.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    busy_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    /// Helpers that won their CAS and actually worked on this scope.
    helpers: AtomicUsize,
}

impl JobCore<'_> {
    /// Record the first panic payload and stop further claiming everywhere.
    fn note_panic(&self, payload: Box<dyn Any + Send>) {
        self.panicked.store(true, Ordering::Relaxed);
        let mut slot = self.panic_payload.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// The claim loop every participant (caller and helpers) runs.
    fn work(&self) {
        let t0 = Instant::now();
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                break;
            }
            let start = self.next.fetch_add(self.block, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let end = (start + self.block).min(self.n);
            for i in start..end {
                if self.panicked.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                    self.note_panic(payload);
                }
            }
        }
        self.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One enqueued helper job. `Arc`-shared between the owning scope and the
/// pool queue, so a cancelled slot lingering in the queue is harmless: the
/// worker that eventually pops it loses the state CAS and never touches
/// `job`.
struct HelperSlot {
    state: AtomicU8,
    /// Points at the owning scope's [`JobCore`]. Only dereferenced after
    /// winning `QUEUED -> RUNNING`, which the scope's exit path observes
    /// and waits out — so the pointee is always alive when read.
    job: *const JobCore<'static>,
    submitted: Instant,
    done: Mutex<bool>,
    cv: Condvar,
}

// SAFETY: the raw pointer is only dereferenced under the state protocol
// described on `job`; everything else in the slot is Sync.
unsafe impl Send for HelperSlot {}
unsafe impl Sync for HelperSlot {}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<HelperSlot>>>,
    ready: Condvar,
    /// The nesting budget: helper tokens available, total == worker count.
    /// Scopes acquire non-blocking and release at exit; an empty budget
    /// degrades a scope to inline execution instead of oversubscribing.
    tokens: AtomicUsize,
}

struct Pool {
    shared: Arc<PoolShared>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process pool, built on first use with `threads() - 1` workers
/// (the calling thread is always the `1`). Workers are detached and live
/// for the rest of the process.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = crate::threads().saturating_sub(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            tokens: AtomicUsize::new(workers),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("simrt-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("simrt: cannot spawn worker thread");
        }
        Pool { shared, workers }
    })
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let slot = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(slot) = queue.pop_front() {
                    break slot;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        if slot
            .state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // The owning scope finished and cancelled this slot first.
            continue;
        }
        let wait_ns = slot.submitted.elapsed().as_nanos() as u64;
        // SAFETY: winning QUEUED -> RUNNING pins the owning scope inside
        // run_scope (its exit path waits on `done`), so the JobCore is
        // alive for the whole call below.
        let core = unsafe { &*slot.job };
        core.queue_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        core.helpers.fetch_add(1, Ordering::Relaxed);
        core.work();
        // Publish completion last; the Mutex handshake also makes every
        // result written above visible to the scope's caller.
        let mut done = slot.done.lock().unwrap();
        *done = true;
        slot.cv.notify_all();
    }
}

/// Take up to `want` helper tokens without blocking; returns how many were
/// actually acquired (possibly 0 — the inline-degradation path).
fn acquire_tokens(shared: &PoolShared, want: usize) -> usize {
    let mut have = shared.tokens.load(Ordering::Relaxed);
    loop {
        let take = have.min(want);
        if take == 0 {
            return 0;
        }
        match shared.tokens.compare_exchange_weak(
            have,
            have - take,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(actual) => have = actual,
        }
    }
}

/// The scope core every public primitive compiles down to: `task` is run
/// once for every index in `0..n` by at most `effective_cap(cap)`
/// claimants, caller included.
fn run_scope(n: usize, cap: usize, task: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let wall0 = Instant::now();
    let cap = crate::effective_cap(cap);
    let core = JobCore {
        task,
        n,
        block: (n / (cap * 4)).max(1),
        next: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
        busy_ns: AtomicU64::new(0),
        queue_wait_ns: AtomicU64::new(0),
        helpers: AtomicUsize::new(0),
    };

    let want_helpers = cap.min(n).saturating_sub(1);
    let p = if want_helpers > 0 { Some(pool()) } else { None };
    let got = match p {
        Some(p) => acquire_tokens(&p.shared, want_helpers.min(p.workers)),
        None => 0,
    };
    let slots: Vec<Arc<HelperSlot>> = (0..got)
        .map(|_| {
            Arc::new(HelperSlot {
                state: AtomicU8::new(QUEUED),
                job: (&core as *const JobCore<'_>).cast::<JobCore<'static>>(),
                submitted: Instant::now(),
                done: Mutex::new(false),
                cv: Condvar::new(),
            })
        })
        .collect();
    if got > 0 {
        let p = p.expect("tokens imply a pool");
        let mut queue = p.shared.queue.lock().unwrap();
        for slot in &slots {
            queue.push_back(Arc::clone(slot));
        }
        drop(queue);
        p.shared.ready.notify_all();
    }

    core.work();

    // Retire every helper: cancel the ones still queued, wait out the ones
    // that started. Waits are only ever on jobs actively running on
    // dedicated pool threads, so nested scopes cannot deadlock.
    for slot in &slots {
        if slot
            .state
            .compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            let mut done = slot.done.lock().unwrap();
            while !*done {
                done = slot.cv.wait(done).unwrap();
            }
        }
    }
    if got > 0 {
        p.expect("tokens imply a pool").shared.tokens.fetch_add(got, Ordering::AcqRel);
    }

    metrics::record(ScopeMetrics {
        scopes: 1,
        tasks: n as u64,
        workers: 1 + core.helpers.load(Ordering::Relaxed) as u64,
        wall_s: wall0.elapsed().as_secs_f64(),
        busy_s: core.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        queue_wait_s: core.queue_wait_ns.load(Ordering::Relaxed) as f64 * 1e-9,
    });

    let payload = core.panic_payload.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// A raw pointer that may cross threads. Soundness is the caller's
/// obligation: every use in this module writes disjoint, index-owned slots.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Map `f` over `0..n` on the shared pool and collect the results in index
/// order: `out[i] == f(i)` regardless of thread count or scheduling, which
/// is the workspace's determinism contract.
///
/// `cap` bounds the claimants for this scope (`0` = the process default);
/// the caller participates, so `cap = 1` runs inline. A panic in `f` is
/// re-raised here with its original payload after the scope quiesces; the
/// partially-built output is leaked, not dropped.
pub fn par_map_indexed<T, F>(n: usize, cap: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    out.resize_with(n, MaybeUninit::uninit);
    let base = SendPtr(out.as_mut_ptr());
    run_scope(n, cap, &move |i| {
        let base = base;
        // SAFETY: index i is claimed by exactly one participant, and slot i
        // is written only by the claimant of i.
        unsafe {
            (*base.0.add(i)).write(f(i));
        }
    });
    // run_scope returned normally, so every slot was claimed and written.
    let mut out = ManuallyDrop::new(out);
    let (ptr, len, capacity) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: Vec<MaybeUninit<T>> and Vec<T> share layout; all n slots are
    // initialized (see above).
    unsafe { Vec::from_raw_parts(ptr as *mut T, len, capacity) }
}

/// Run `f(i, &mut items[i])` for every element on the shared pool. Element
/// disjointness makes the `&mut` handouts sound; `cap` as in
/// [`par_map_indexed`].
pub fn par_for_each_mut<T, F>(items: &mut [T], cap: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let base = SendPtr(items.as_mut_ptr());
    run_scope(n, cap, &move |i| {
        let base = base;
        // SAFETY: index i is claimed exactly once, so this is the only live
        // &mut to items[i].
        f(i, unsafe { &mut *base.0.add(i) });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = par_map_indexed(10_000, 0, |i| i * 3);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn map_handles_tiny_and_empty() {
        assert_eq!(par_map_indexed(0, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 0, |i| i + 7), vec![7]);
        assert_eq!(par_map_indexed(3, 1, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_propagates_panics_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed(256, 0, |i| {
                if i == 97 {
                    panic!("boom at 97");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom at 97"), "unexpected payload {msg:?}");
        // The pool must keep working after a panicked scope.
        let out = par_map_indexed(1000, 0, |i| i + 1);
        assert_eq!(out[999], 1000);
    }

    #[test]
    fn for_each_mut_writes_disjoint_slots() {
        let mut v = vec![0u64; 5000];
        par_for_each_mut(&mut v, 0, |i, slot| *slot = i as u64 * 2);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn nested_scopes_complete_without_deadlock() {
        let outer = par_map_indexed(8, 0, |o| {
            let inner = par_map_indexed(500, 0, |i| (o * 500 + i) as u64);
            inner.iter().sum::<u64>()
        });
        for (o, sum) in outer.iter().enumerate() {
            let lo = (o * 500) as u64;
            let expect: u64 = (lo..lo + 500).sum();
            assert_eq!(*sum, expect, "outer {o}");
        }
    }

    #[test]
    fn concurrent_foreign_scopes_do_not_interfere() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..20 {
                        let out = par_map_indexed(200, 0, |i| t * 1_000_000 + round * 1000 + i);
                        for (i, v) in out.iter().enumerate() {
                            assert_eq!(*v, t * 1_000_000 + round * 1000 + i);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn thread_cap_one_is_fully_inline() {
        crate::with_thread_cap(1, || {
            let before = crate::take_thread_metrics();
            let _ = before;
            let out = par_map_indexed(100, 0, |i| i);
            assert_eq!(out[99], 99);
            let m = crate::take_thread_metrics();
            assert_eq!(m.scopes, 1);
            assert_eq!(m.tasks, 100);
            assert_eq!(m.workers, 1, "cap 1 must not recruit helpers");
        });
    }

    #[test]
    fn metrics_record_tasks_and_time() {
        let _ = crate::take_thread_metrics();
        let _ = par_map_indexed(64, 0, |i| {
            // Enough work to register nonzero busy time.
            (0..500).fold(i as u64, |a, b| a.wrapping_add(b))
        });
        let m = crate::take_thread_metrics();
        assert_eq!(m.scopes, 1);
        assert_eq!(m.tasks, 64);
        assert!(m.workers >= 1);
        assert!(m.wall_s >= 0.0);
        assert!(m.busy_s > 0.0);
    }
}
