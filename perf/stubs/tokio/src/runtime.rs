//! The executor: one thread, FIFO ready queue, pausable clock.

use std::cell::RefCell;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant as StdInstant;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

pub(crate) struct Task {
    id: u64,
    future: Mutex<Option<BoxFuture>>,
    queued: AtomicBool,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            let shared = self.shared.clone();
            shared.ready.lock().unwrap().push_back(self);
            shared.unpark();
        }
    }
}

/// One registered timer. Cancelled entries stay in the heap until they
/// surface and are skipped without moving the clock.
pub(crate) struct TimerEntry {
    pub(crate) waker: Mutex<Option<Waker>>,
    pub(crate) cancelled: AtomicBool,
}

struct HeapItem {
    deadline: StdInstant,
    seq: u64,
    entry: Arc<TimerEntry>,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    // Reversed: `BinaryHeap` is a max-heap and the earliest timer must win.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

struct Clock {
    /// `Some(now)` while paused: the frozen virtual instant.
    paused_at: Option<StdInstant>,
    timers: BinaryHeap<HeapItem>,
    next_seq: u64,
}

pub(crate) struct Shared {
    ready: Mutex<VecDeque<Arc<Task>>>,
    /// Every live spawned task, so that dropping the runtime can drop their
    /// futures (tasks and channels reference each other through wakers).
    tasks: Mutex<BTreeMap<u64, Arc<Task>>>,
    next_task: AtomicU64,
    clock: Mutex<Clock>,
    /// Set by any wake; lets a parked `block_on` skip or end its wait.
    notified: Mutex<bool>,
    unparker: Condvar,
}

impl Shared {
    fn unpark(&self) {
        *self.notified.lock().unwrap() = true;
        self.unparker.notify_one();
    }

    pub(crate) fn now(&self) -> StdInstant {
        self.clock.lock().unwrap().paused_at.unwrap_or_else(StdInstant::now)
    }

    pub(crate) fn register_timer(&self, deadline: StdInstant, entry: Arc<TimerEntry>) {
        let mut clock = self.clock.lock().unwrap();
        let seq = clock.next_seq;
        clock.next_seq += 1;
        clock.timers.push(HeapItem { deadline, seq, entry });
    }

    pub(crate) fn spawn_boxed(self: &Arc<Self>, future: BoxFuture) {
        let id = self.next_task.fetch_add(1, Ordering::Relaxed);
        let task = Arc::new(Task {
            id,
            future: Mutex::new(Some(future)),
            queued: AtomicBool::new(false),
            shared: self.clone(),
        });
        self.tasks.lock().unwrap().insert(id, task.clone());
        task.wake();
    }

    /// Wake every timer that is due. With a frozen clock and `jump` set,
    /// first move the clock to the earliest live deadline. Returns whether
    /// any timer fired.
    fn fire_timers(&self, jump: bool) -> bool {
        let mut due = Vec::new();
        {
            let mut clock = self.clock.lock().unwrap();
            while clock.timers.peek().is_some_and(|t| t.entry.cancelled.load(Ordering::Acquire)) {
                clock.timers.pop();
            }
            if jump {
                if let (Some(now), Some(first)) = (clock.paused_at, clock.timers.peek()) {
                    if first.deadline > now {
                        clock.paused_at = Some(first.deadline);
                    }
                }
            }
            let now = clock.paused_at.unwrap_or_else(StdInstant::now);
            while clock.timers.peek().is_some_and(|t| t.deadline <= now) {
                due.push(clock.timers.pop().expect("peeked").entry);
            }
        }
        let mut fired = false;
        for entry in due {
            if !entry.cancelled.load(Ordering::Acquire) {
                if let Some(w) = entry.waker.lock().unwrap().take() {
                    w.wake();
                    fired = true;
                }
            }
        }
        fired
    }

    /// The earliest live deadline, if any.
    fn next_deadline(&self) -> Option<StdInstant> {
        let mut clock = self.clock.lock().unwrap();
        while clock.timers.peek().is_some_and(|t| t.entry.cancelled.load(Ordering::Acquire)) {
            clock.timers.pop();
        }
        clock.timers.peek().map(|t| t.deadline)
    }

    fn is_paused(&self) -> bool {
        self.clock.lock().unwrap().paused_at.is_some()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// The runtime driving the current thread, if any.
pub(crate) fn try_current() -> Option<Arc<Shared>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The runtime driving the current thread; panics outside one.
pub(crate) fn current() -> Arc<Shared> {
    try_current()
        .expect("there is no reactor running, must be called from the context of a Tokio runtime")
}

struct MainWaker {
    woken: AtomicBool,
    shared: Arc<Shared>,
}

impl Wake for MainWaker {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.shared.unpark();
    }
}

/// Configures and builds a [`Runtime`].
#[derive(Debug, Default)]
pub struct Builder {
    start_paused: bool,
}

impl Builder {
    /// A current-thread runtime.
    pub fn new_current_thread() -> Builder {
        Builder::default()
    }

    /// Accepted for API compatibility (timers are always on).
    pub fn enable_all(&mut self) -> &mut Builder {
        self
    }

    /// Accepted for API compatibility (timers are always on).
    pub fn enable_time(&mut self) -> &mut Builder {
        self
    }

    /// Start with the clock frozen: it then only moves when every task is
    /// idle, by jumping to the earliest pending timer.
    pub fn start_paused(&mut self, paused: bool) -> &mut Builder {
        self.start_paused = paused;
        self
    }

    /// Build the runtime.
    pub fn build(&mut self) -> io::Result<Runtime> {
        let shared = Arc::new(Shared {
            ready: Mutex::new(VecDeque::new()),
            tasks: Mutex::new(BTreeMap::new()),
            next_task: AtomicU64::new(0),
            clock: Mutex::new(Clock {
                paused_at: self.start_paused.then(StdInstant::now),
                timers: BinaryHeap::new(),
                next_seq: 0,
            }),
            notified: Mutex::new(false),
            unparker: Condvar::new(),
        });
        Ok(Runtime { shared })
    }
}

/// A single-threaded executor.
pub struct Runtime {
    shared: Arc<Shared>,
}

impl Runtime {
    /// Run `future` to completion on the calling thread, driving every
    /// spawned task and timer meanwhile.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        struct Enter(Option<Arc<Shared>>);
        impl Drop for Enter {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _enter = Enter(CURRENT.with(|c| c.borrow_mut().replace(self.shared.clone())));

        let shared = &self.shared;
        let main = Arc::new(MainWaker { woken: AtomicBool::new(true), shared: shared.clone() });
        let main_waker = Waker::from(main.clone());
        let mut future = std::pin::pin!(future);
        loop {
            if main.woken.swap(false, Ordering::AcqRel) {
                let mut cx = Context::from_waker(&main_waker);
                if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
                    return out;
                }
            }
            // Run the tasks that are ready now; tasks they wake run in the
            // next round, after the main future had its turn.
            let batch: Vec<Arc<Task>> = shared.ready.lock().unwrap().drain(..).collect();
            let ran = !batch.is_empty();
            for task in batch {
                task.queued.store(false, Ordering::Release);
                let waker = Waker::from(task.clone());
                let mut cx = Context::from_waker(&waker);
                let mut slot = task.future.lock().unwrap();
                if let Some(fut) = slot.as_mut() {
                    if fut.as_mut().poll(&mut cx).is_ready() {
                        *slot = None;
                        drop(slot);
                        shared.tasks.lock().unwrap().remove(&task.id);
                    }
                }
            }
            if ran || main.woken.load(Ordering::Acquire) {
                shared.fire_timers(false);
                continue;
            }
            // Idle: nothing is runnable. Let time pass.
            if shared.is_paused() {
                let stuck = !shared.fire_timers(true)
                    && shared.next_deadline().is_none()
                    && shared.ready.lock().unwrap().is_empty()
                    && !main.woken.load(Ordering::Acquire);
                if stuck {
                    panic!("deadlock: time is frozen, no task is runnable and no timer is pending");
                }
            } else {
                let deadline = shared.next_deadline();
                let mut notified = shared.notified.lock().unwrap();
                if !*notified {
                    match deadline {
                        Some(deadline) => {
                            let wait = deadline.saturating_duration_since(StdInstant::now());
                            notified = shared.unparker.wait_timeout(notified, wait).unwrap().0;
                        }
                        None => notified = shared.unparker.wait(notified).unwrap(),
                    }
                }
                *notified = false;
                drop(notified);
                shared.fire_timers(false);
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Drop every task's future: this releases the channels, timers and
        // wakers they own and so breaks the task <-> waker cycles.
        let tasks: Vec<Arc<Task>> =
            std::mem::take(&mut *self.shared.tasks.lock().unwrap()).into_values().collect();
        for task in &tasks {
            let future = task.future.lock().unwrap().take();
            drop(future);
        }
        self.shared.ready.lock().unwrap().clear();
        self.shared.clock.lock().unwrap().timers.clear();
    }
}
