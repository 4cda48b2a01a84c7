//! Single-value broadcast channel: receivers see the latest value and can
//! wait for the next change.

use std::future::poll_fn;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Poll, Waker};

struct State<T> {
    value: T,
    version: u64,
    sender_alive: bool,
    receivers: usize,
    wakers: Vec<Waker>,
}

/// Errors of this channel.
pub mod error {
    use std::fmt;

    /// Every receiver is gone; the unsent value is returned.
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

    /// The sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError(pub(super) ());

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("channel closed")
        }
    }

    impl std::error::Error for RecvError {}
}

use error::{RecvError, SendError};

/// Sending half.
pub struct Sender<T> {
    state: Arc<Mutex<State<T>>>,
}

/// Receiving half; clone freely.
pub struct Receiver<T> {
    state: Arc<Mutex<State<T>>>,
    seen: u64,
}

/// Borrow of the current value; holds the channel lock.
pub struct Ref<'a, T>(MutexGuard<'a, State<T>>);

impl<T> Deref for Ref<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

/// A watch channel holding `init`.
pub fn channel<T>(init: T) -> (Sender<T>, Receiver<T>) {
    let state = Arc::new(Mutex::new(State {
        value: init,
        version: 0,
        sender_alive: true,
        receivers: 1,
        wakers: Vec::new(),
    }));
    (Sender { state: state.clone() }, Receiver { state, seen: 0 })
}

impl<T> Sender<T> {
    /// Replace the value and wake every waiting receiver; fails when no
    /// receiver is left.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let wakers = {
            let mut st = self.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.value = value;
            st.version += 1;
            std::mem::take(&mut st.wakers)
        };
        for w in wakers {
            w.wake();
        }
        Ok(())
    }

    /// Whether every receiver is gone.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().receivers == 0
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let wakers = {
            let mut st = self.state.lock().unwrap();
            st.sender_alive = false;
            std::mem::take(&mut st.wakers)
        };
        for w in wakers {
            w.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// The current value (does not mark it seen).
    pub fn borrow(&self) -> Ref<'_, T> {
        Ref(self.state.lock().unwrap())
    }

    /// Wait for a value this receiver has not seen; fails once the sender
    /// is gone and nothing is unseen.
    pub async fn changed(&mut self) -> Result<(), RecvError> {
        poll_fn(|cx| {
            let mut st = self.state.lock().unwrap();
            if st.version != self.seen {
                self.seen = st.version;
                return Poll::Ready(Ok(()));
            }
            if !st.sender_alive {
                return Poll::Ready(Err(RecvError(())));
            }
            if !st.wakers.iter().any(|w| w.will_wake(cx.waker())) {
                st.wakers.push(cx.waker().clone());
            }
            Poll::Pending
        })
        .await
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.state.lock().unwrap().receivers += 1;
        Receiver { state: self.state.clone(), seen: self.seen }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.lock().unwrap().receivers -= 1;
    }
}
