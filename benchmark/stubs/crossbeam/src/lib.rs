//! Stand-in for the `crossbeam` crate: scoped threads in crossbeam's shape
//! (the spawned closure receives the scope, `scope` returns a `Result`)
//! over `std::thread::scope`. Only the surface this repository uses.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A scope threads can borrow from; every thread is joined before
/// [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Handle to a scoped thread.
pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread; `Err` carries its panic payload.
    pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
        self.0.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a thread inside the scope.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
    }
}

/// Runs `f` with a scope; returns `Err` with the panic payload if `f` or an
/// unjoined thread panicked.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}
