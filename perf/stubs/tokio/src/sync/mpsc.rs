//! Unbounded multi-producer, single-consumer channel.

use std::collections::VecDeque;
use std::fmt;
use std::future::poll_fn;
use std::sync::{Arc, Mutex};
use std::task::{Poll, Waker};

struct Chan<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    rx_waker: Option<Waker>,
}

/// Error of [`UnboundedSender::send`]: the receiver is gone. Carries the
/// unsent value.
pub mod error {
    use std::fmt;

    /// The receiver is gone; the unsent value is returned.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("channel closed")
        }
    }

    impl<T> std::error::Error for SendError<T> {}
}

use error::SendError;

/// Sending half; clone freely.
pub struct UnboundedSender<T> {
    chan: Arc<Mutex<Chan<T>>>,
}

/// Receiving half.
pub struct UnboundedReceiver<T> {
    chan: Arc<Mutex<Chan<T>>>,
}

/// A channel with no capacity limit.
pub fn unbounded_channel<T>() -> (UnboundedSender<T>, UnboundedReceiver<T>) {
    let chan = Arc::new(Mutex::new(Chan {
        queue: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
        rx_waker: None,
    }));
    (UnboundedSender { chan: chan.clone() }, UnboundedReceiver { chan })
}

impl<T> UnboundedSender<T> {
    /// Queue `value`; fails only when the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let waker = {
            let mut chan = self.chan.lock().unwrap();
            if !chan.receiver_alive {
                return Err(SendError(value));
            }
            chan.queue.push_back(value);
            chan.rx_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Whether the receiver was dropped or closed.
    pub fn is_closed(&self) -> bool {
        !self.chan.lock().unwrap().receiver_alive
    }

    /// Whether both senders feed the same channel.
    pub fn same_channel(&self, other: &UnboundedSender<T>) -> bool {
        Arc::ptr_eq(&self.chan, &other.chan)
    }
}

impl<T> Clone for UnboundedSender<T> {
    fn clone(&self) -> Self {
        self.chan.lock().unwrap().senders += 1;
        UnboundedSender { chan: self.chan.clone() }
    }
}

impl<T> Drop for UnboundedSender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut chan = self.chan.lock().unwrap();
            chan.senders -= 1;
            if chan.senders == 0 {
                chan.rx_waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> fmt::Debug for UnboundedSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("UnboundedSender")
    }
}

impl<T> UnboundedReceiver<T> {
    /// The next message; `None` once every sender is gone and the queue is
    /// drained.
    pub async fn recv(&mut self) -> Option<T> {
        poll_fn(|cx| {
            let mut chan = self.chan.lock().unwrap();
            if let Some(v) = chan.queue.pop_front() {
                return Poll::Ready(Some(v));
            }
            if chan.senders == 0 {
                return Poll::Ready(None);
            }
            if !chan.rx_waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                chan.rx_waker = Some(cx.waker().clone());
            }
            Poll::Pending
        })
        .await
    }
}

impl<T> Drop for UnboundedReceiver<T> {
    fn drop(&mut self) {
        let queued = {
            let mut chan = self.chan.lock().unwrap();
            chan.receiver_alive = false;
            chan.rx_waker = None;
            std::mem::take(&mut chan.queue)
        };
        drop(queued);
    }
}

impl<T> fmt::Debug for UnboundedReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("UnboundedReceiver")
    }
}
