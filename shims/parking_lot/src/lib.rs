//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! The build environment has no registry access, so this crate provides
//! the `parking_lot 0.12` surface the workspace uses — `Mutex::lock`,
//! `RwLock::read`/`write` returning guards directly (no `Result`). Poison
//! is ignored, matching parking_lot's poison-free semantics: a panicked
//! holder does not wedge later accessors.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, RwLock as StdRwLock, RwLockReadGuard};

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
}
