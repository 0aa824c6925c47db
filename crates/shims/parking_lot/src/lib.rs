//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s poison-free API:
//! `lock()` / `read()` / `write()` return guards directly, and a poisoned
//! std lock (a panic while held) is transparently recovered rather than
//! propagated — matching `parking_lot`'s behavior of not tracking poison.

// Called from the protocol crates, so held to their panic lints (paper
// Lemma 2 — a panicking component is indistinguishable from a hiding one).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, WaitTimeoutResult};
use std::time::Duration;

/// Recovers the protected value from a poisoned std lock operation.
///
/// A std lock poisons when a holder panics; `parking_lot` does not track
/// poison at all. Funneling every acquisition through this one helper keeps
/// the recovery policy in a single place — the `lock-hygiene` workspace lint
/// exists precisely so ad-hoc `.lock().unwrap()` poison propagation cannot
/// creep back in at call sites.
fn recover<G>(result: Result<G, sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(sync::PoisonError::into_inner)
}

/// A mutual-exclusion lock without poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the std guard out and back.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(recover(self.inner.lock())),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[allow(
        clippy::expect_used,
        reason = "the guard is `None` only inside `Condvar::wait`, which holds `&mut` to it"
    )]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[allow(
        clippy::expect_used,
        reason = "the guard is `None` only inside `Condvar::wait`, which holds `&mut` to it"
    )]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A reader-writer lock without poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: recover(self.inner.read()),
        }
    }

    /// Acquires the exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: recover(self.inner.write()),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable usable with [`MutexGuard`] (waits take the guard by
/// mutable reference, as in `parking_lot`).
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard while waiting.
    #[allow(
        clippy::expect_used,
        reason = "every `MutexGuard` holds its std guard between calls; only this wait takes it"
    )]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        let inner = recover(self.inner.wait(inner));
        guard.inner = Some(inner);
    }

    /// Blocks until notified or `timeout` elapses; returns whether the wait
    /// timed out.
    #[allow(
        clippy::expect_used,
        reason = "every `MutexGuard` holds its std guard between calls; only this wait takes it"
    )]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        let (inner, result) = recover(self.inner.wait_timeout(inner, timeout));
        guard.inner = Some(inner);
        result
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
        });
        thread::sleep(Duration::from_millis(20));
        let (lock, cvar) = &*pair;
        *lock.lock() = true;
        cvar.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: no poisoning, the lock stays usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
