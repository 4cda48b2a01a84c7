//! Time: a clock that can be frozen, sleeps, intervals, timeouts.

use crate::runtime::{self, Shared, TimerEntry};
use std::future::Future;
use std::ops::{Add, Sub};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant as StdInstant};

/// A point on the runtime's clock: wall time normally, virtual time while
/// the clock is frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(StdInstant);

impl Instant {
    /// The runtime clock's current reading.
    pub fn now() -> Instant {
        Instant(runtime::try_current().map_or_else(StdInstant::now, |rt| rt.now()))
    }

    /// Time since `self` on the runtime clock.
    pub fn elapsed(&self) -> Duration {
        Instant::now().0.saturating_duration_since(self.0)
    }

    /// Time from `earlier` to `self` (zero when `earlier` is later).
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d)
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, other: Instant) -> Duration {
        self.duration_since(other)
    }
}

/// Future returned by [`sleep`] and [`sleep_until`].
pub struct Sleep {
    deadline: Instant,
    shared: Arc<Shared>,
    entry: Option<Arc<TimerEntry>>,
}

impl Sleep {
    /// When the sleep completes.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Re-arm for a new deadline.
    pub fn reset(&mut self, deadline: Instant) {
        self.cancel();
        self.deadline = deadline;
    }

    fn cancel(&mut self) {
        if let Some(entry) = self.entry.take() {
            entry.cancelled.store(true, Ordering::Release);
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.shared.now() >= self.deadline.0 {
            self.cancel();
            return Poll::Ready(());
        }
        match &self.entry {
            Some(entry) => {
                let mut slot = entry.waker.lock().unwrap();
                if !slot.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                    *slot = Some(cx.waker().clone());
                }
            }
            None => {
                let entry = Arc::new(TimerEntry {
                    waker: Mutex::new(Some(cx.waker().clone())),
                    cancelled: AtomicBool::new(false),
                });
                self.shared.register_timer(self.deadline.0, entry.clone());
                self.entry = Some(entry);
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// Complete once `d` has passed on the runtime clock.
pub fn sleep(d: Duration) -> Sleep {
    sleep_until(Instant::now() + d)
}

/// Complete once the runtime clock reaches `deadline`.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline, shared: runtime::current(), entry: None }
}

/// What an [`Interval`] does after a tick was missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissedTickBehavior {
    /// Fire the missed ticks back to back until caught up.
    #[default]
    Burst,
    /// Restart the period from the late tick.
    Delay,
    /// Skip to the next multiple of the period.
    Skip,
}

/// A periodic timer; the first tick completes immediately.
pub struct Interval {
    period: Duration,
    next: Sleep,
    behavior: MissedTickBehavior,
}

/// A timer ticking every `period`, starting now.
pub fn interval(period: Duration) -> Interval {
    assert!(!period.is_zero(), "`period` must be non-zero");
    Interval { period, next: sleep_until(Instant::now()), behavior: MissedTickBehavior::default() }
}

impl Interval {
    /// Choose the missed-tick policy.
    pub fn set_missed_tick_behavior(&mut self, behavior: MissedTickBehavior) {
        self.behavior = behavior;
    }

    /// Wait for the next tick; returns the instant it was scheduled for.
    pub async fn tick(&mut self) -> Instant {
        (&mut self.next).await;
        let scheduled = self.next.deadline();
        let now = Instant::now();
        let next = match self.behavior {
            MissedTickBehavior::Burst => scheduled + self.period,
            MissedTickBehavior::Delay => now + self.period,
            MissedTickBehavior::Skip => {
                let late = now.duration_since(scheduled);
                if late < self.period {
                    scheduled + self.period
                } else {
                    let periods = (late.as_nanos() / self.period.as_nanos()) as u32 + 1;
                    scheduled + self.period * periods
                }
            }
        };
        self.next.reset(next);
        scheduled
    }
}
