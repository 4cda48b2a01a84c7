//! Offline stand-in for the subset of `parking_lot` this repository uses:
//! a [`Mutex`] whose `lock` never reports poisoning.

use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard};

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = StdGuard<'a, T>;

/// A mutual-exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}
