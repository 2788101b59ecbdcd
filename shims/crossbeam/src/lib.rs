//! Offline stand-in for `crossbeam`, covering `crossbeam::thread::scope`.
//!
//! The build environment has no registry access, so this wraps
//! `std::thread::scope` (stable since 1.63) in crossbeam's 0.8 calling
//! convention: `scope(..)` returns a `Result` and spawned closures
//! receive a `&Scope` argument for nested spawns.

/// Scoped-thread API mirroring `crossbeam::thread`.
pub mod thread {
    use std::any::Any;

    /// Error payload of a panicked scope (crossbeam's `thread::Result`).
    pub type ScopeError = Box<dyn Any + Send + 'static>;

    /// Handle for spawning further threads inside a scope.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; the closure receives the scope so it
        /// can spawn siblings, matching crossbeam's signature.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            self.inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a scope; all spawned threads are joined before this
    /// returns. Unlike `std::thread::scope` the result is a `Result`, as
    /// in crossbeam (`Err` is never produced here — std propagates child
    /// panics by unwinding — but callers `.unwrap()`/`.expect()` it).
    pub fn scope<'env, F, R>(f: F) -> Result<R, ScopeError>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use super::thread;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_threads() {
        let counter = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                let c = &counter;
                scope.spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .expect("threads join");
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        let counter = AtomicUsize::new(0);
        thread::scope(|scope| {
            let c = &counter;
            scope.spawn(move |inner| {
                inner.spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            });
        })
        .expect("threads join");
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn join_handles_return_values() {
        let total: i32 = thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|i| scope.spawn(move |_| i * 10)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .expect("threads join");
        assert_eq!(total, 60);
    }
}
