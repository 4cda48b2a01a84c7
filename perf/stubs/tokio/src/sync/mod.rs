//! Channels: unbounded multi-producer single-consumer, and watch.

pub mod mpsc;
pub mod watch;
