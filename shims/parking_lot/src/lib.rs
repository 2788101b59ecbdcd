//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! The build environment has no registry access, so this crate provides
//! the `parking_lot 0.12` surface the workspace uses — `Mutex::lock`,
//! `RwLock::read`/`write` returning guards directly (no `Result`). Poison
//! is ignored, matching parking_lot's poison-free semantics: a panicked
//! holder does not wedge later accessors.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, RwLock as StdRwLock, RwLockReadGuard};
use std::time::Duration;

/// Guard type returned by [`Mutex::lock`] (std's guard; the poison-free
/// behaviour lives in the lock methods, not the guard).
pub use std::sync::MutexGuard;

/// Guard type returned by [`RwLock::write`] (std's guard, re-exported so
/// callers can name it in struct fields).
pub use std::sync::RwLockWriteGuard;

/// Mutual exclusion lock with parking_lot's panic-free API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates the lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking; `None` when held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// Reader-writer lock with parking_lot's panic-free API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

impl<T> RwLock<T> {
    /// Creates the lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire a read guard without blocking; `None` when a
    /// writer holds the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts to acquire a write guard without blocking; `None` when
    /// any other guard is outstanding.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// Result of a timed condition-variable wait (parking_lot's shape: a
/// method rather than std's tuple return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed rather
    /// than a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable with parking_lot's in-place API: `wait` takes the
/// guard by `&mut` instead of consuming and returning it.
#[derive(Debug, Default)]
pub struct Condvar(StdCondvar);

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Condvar(StdCondvar::new())
    }

    /// Atomically releases the mutex and blocks until notified; the
    /// mutex is re-acquired before returning. Spurious wakeups are
    /// possible — callers must re-check their predicate in a loop.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // SAFETY: std's wait consumes the guard and returns a fresh one
        // for the same mutex. We move the guard out of `*guard` by value,
        // hand it to std, and write the returned guard back before anyone
        // can observe the hole. `StdCondvar::wait` does not unwind (poison
        // is converted below), so no path drops the duplicated guard twice.
        unsafe {
            let owned = std::ptr::read(guard);
            let reacquired = self.0.wait(owned).unwrap_or_else(|e| e.into_inner());
            std::ptr::write(guard, reacquired);
        }
    }

    /// As [`Condvar::wait`] but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        // SAFETY: same move-out/write-back discipline as `wait`.
        unsafe {
            let owned = std::ptr::read(guard);
            let (reacquired, res) =
                self.0.wait_timeout(owned, timeout).unwrap_or_else(|e| e.into_inner());
            std::ptr::write(guard, reacquired);
            WaitTimeoutResult(res.timed_out())
        }
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(5);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().expect("free now"), 5);
    }

    #[test]
    fn try_read_and_try_write_respect_writers() {
        let l = RwLock::new(0u32);
        {
            let _r = l.read();
            assert!(l.try_read().is_some(), "readers share");
            assert!(l.try_write().is_none(), "writer excluded by reader");
        }
        {
            let _w = l.write();
            assert!(l.try_read().is_none(), "reader excluded by writer");
            assert!(l.try_write().is_none(), "second writer excluded");
        }
        *l.try_write().expect("free now") = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_handoff_between_threads() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().expect("waiter joins"));
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        // The guard is still valid and the mutex still works afterwards.
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
