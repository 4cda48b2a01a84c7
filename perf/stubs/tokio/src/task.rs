//! Spawning and joining tasks.

use crate::runtime::{self, Shared};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

struct JoinState<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

/// Why a task did not produce its output. Never constructed: the stand-in
/// has no abort, and a panicking task takes `block_on` down with it. The
/// type exists so that awaiting a [`JoinHandle`] reads as it does upstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinError(());

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("task failed")
    }
}

impl std::error::Error for JoinError {}

/// Handle to a spawned task: await it for the output, or drop it to let
/// the task run detached.
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.lock().unwrap();
        match st.result.take() {
            Some(r) => Poll::Ready(r),
            None => {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JoinHandle")
    }
}

pub(crate) fn spawn_on<F>(shared: &Arc<Shared>, future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let state = Arc::new(Mutex::new(JoinState { result: None, waker: None }));
    let task_state = state.clone();
    shared.spawn_boxed(Box::pin(async move {
        let output = future.await;
        let waker = {
            let mut st = task_state.lock().unwrap();
            st.result = Some(Ok(output));
            st.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }));
    JoinHandle { state }
}

/// Spawn a task onto the runtime driving the current thread.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    spawn_on(&runtime::current(), future)
}

/// Let every other ready task run once before continuing.
pub async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(|cx| {
        if yielded {
            Poll::Ready(())
        } else {
            yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    })
    .await
}
