//! Minimal `parking_lot`-style synchronisation primitives over [`std::sync`].
//!
//! The build environment is offline, so the workspace carries no external
//! dependencies; this is its one definition of the two primitives its
//! threaded code needs, with `parking_lot`'s panic-free calling convention
//! (`lock()` returns the guard directly). Lock poisoning is ignored: no
//! caller relies on it, and every guarded value is valid at every step.

use std::sync::{self, MutexGuard};

/// A mutex whose `lock()` returns the guard directly (poisoning ignored).
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the guard from a poisoned mutex.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A condition variable compatible with [`Mutex`] above.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Blocks until notified, releasing the guard's lock while waiting; the
    /// guard is consumed and handed back re-acquired.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0
            .wait(guard)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}
