//! Stand-in for the `parking_lot` crate over `std::sync`: locks that do not
//! poison and a condition variable that takes `&mut MutexGuard`. Only the
//! surface this repository uses.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard of a [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only while a `Condvar::wait` has handed the std guard to the
    // condition variable.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (the borrow proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Releases the guard's lock, blocks until notified, and re-locks.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock that does not poison.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Shared guard of an [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive guard of an [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
