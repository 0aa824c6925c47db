//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s poison-free API:
//! `lock()` / `read()` / `write()` return guards directly, and a poisoned
//! std lock (a panic while held) is transparently recovered rather than
//! propagated — matching `parking_lot`'s behavior of not tracking poison.
//!
//! Debug builds also check lock order where every lock is taken (the
//! private `order` module): a lock's class is the `new`/`default` call
//! that created it, and an acquisition that closes a cycle in the
//! process-wide graph of held → acquired classes panics, naming both
//! classes' creation sites, both acquisition sites and the path. Release
//! builds compile none of it: the types and lock calls are the std ones
//! underneath.

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

#[cfg(debug_assertions)]
mod order;

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
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: order::Class,
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the std guard out and back.
    inner: Option<sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> Mutex<T> {
    /// Creates a lock holding `value`; in debug builds the caller's
    /// location is the lock's class.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self.class, true);
        MutexGuard {
            inner: Some(recover(self.inner.lock())),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            _held: order::acquire(self.class, false),
        })
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
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: order::Class,
    inner: sync::RwLock<T>,
}

/// Shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

/// Exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`; in debug builds the caller's
    /// location is the lock's class.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self.class, true);
        RwLockReadGuard {
            inner: recover(self.inner.read()),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Acquires the exclusive write lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self.class, true);
        RwLockWriteGuard {
            inner: recover(self.inner.write()),
            #[cfg(debug_assertions)]
            _held: held,
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
        let l = Arc::new(RwLock::new(vec![1, 2]));
        {
            // Two readers at once, on two threads: one thread holding two
            // guards of one class is a cycle for the order check.
            let r1 = l.read();
            let l2 = Arc::clone(&l);
            let other = thread::spawn(move || l2.read().len());
            assert_eq!(r1.len() + other.join().unwrap(), 4);
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

    /// The panic message of `f`, which must panic.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the acquisition closing the cycle must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn opposite_order_panics_naming_both_creation_sites() {
        let (a, a_line) = (Mutex::new(0), line!());
        let (b, b_line) = (Mutex::new(0), line!());
        {
            let _a = a.lock();
            let _b = b.lock();
        }
        let msg = panic_message(|| {
            let _b = b.lock();
            let _a = a.lock();
        });
        assert!(msg.starts_with("lock-order cycle"), "{msg}");
        for line in [a_line, b_line] {
            let site = format!("{}:{line}:", file!());
            assert!(msg.contains(&site), "{site} missing from: {msg}");
        }
        // The check fired before blocking, and the unwinding guards left
        // nothing held: both locks are free again.
        assert!(a.try_lock().is_some() && b.try_lock().is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn two_guards_of_one_class_panic() {
        let (make, line) = (|| RwLock::new(0), line!());
        let (a, b) = (make(), make());
        let msg = panic_message(|| {
            let _a = a.read();
            let _b = b.write();
        });
        let site = format!("{}:{line}:", file!());
        assert_eq!(msg.matches(&site).count(), 2, "{msg}");
    }

    #[test]
    fn consistent_order_repeats() {
        let a = Mutex::new(0);
        let b = RwLock::new(0);
        for _ in 0..3 {
            let mut a = a.lock();
            *b.write() += 1;
            *a += *b.read();
        }
        assert_eq!(*a.lock(), 6);
    }

    #[test]
    fn try_lock_adds_no_edge() {
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        {
            let _a = a.lock();
            assert!(b.try_lock().is_some());
        }
        // B → A is the first blocking order between them: no cycle.
        let _b = b.lock();
        let _a = a.lock();
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_builds_carry_no_class() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<sync::Mutex<u64>>());
        assert_eq!(size_of::<RwLock<u64>>(), size_of::<sync::RwLock<u64>>());
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
