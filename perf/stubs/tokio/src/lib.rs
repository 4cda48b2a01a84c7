//! Offline stand-in for the subset of `tokio` this repository uses.
//!
//! What is here: a single-threaded executor ([`runtime`]) with FIFO
//! scheduling and a clock that can be paused (timers then fire by jumping
//! the virtual clock to the earliest deadline whenever no task is runnable,
//! as upstream does under `start_paused`), unbounded [`sync::mpsc`] and
//! [`sync::watch`] channels, [`time`] (`sleep`, `interval`, `Instant`), [`spawn`] / [`task::JoinHandle`], the `select!` macro for up
//! to four branches, and the [`io`] traits the frame codec is generic over.
//!
//! What is not: real sockets. [`net`] has the types so that the TCP arms of
//! the transport compile; every operation on them fails with
//! `ErrorKind::Unsupported`. The benchmark only drives the in-process
//! simulated network.
//!
//! Scheduling is deterministic: ready tasks run in wake order, timers fire
//! in (deadline, registration) order, `select!` polls its branches in the
//! order written. Two runs of one seeded scenario therefore produce the
//! same event log.

pub mod io;
pub mod macros;
pub mod net;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

pub use task::spawn;
