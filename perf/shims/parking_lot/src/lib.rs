//! Offline stand-in for the part of `parking_lot` the recdp crates use:
//! `Mutex`, `Condvar` and `RwLock` with parking_lot's calling
//! conventions (no lock poisoning, `Condvar::wait(&mut guard)`), backed
//! by `std::sync`, with the mutex's lock word on the heap (see
//! [`Mutex`]). The benchmark patches it in because the sandbox has
//! no crate registry; see `perf/README.md`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Arc, PoisonError};
use std::time::{Duration, Instant};

/// A mutex that, like parking_lot's, ignores poisoning: a panic while
/// the lock is held leaves the data reachable by the next locker.
///
/// The lock itself lives on the heap and every guard holds a reference
/// count on it, so unlocking never writes to the memory the `Mutex`
/// value occupies. That matters to one caller: the fork-join pool's
/// `LockLatch` sits in the stack frame of `ThreadPool::install`, and its
/// setter stores the flag, notifies, and only then unlocks, while the
/// installer may already have seen the flag without taking the lock and
/// popped the frame. With the lock inline, that late unlock wrote four
/// zero bytes into whatever the installer had put there next, and the
/// served workloads died with SIGSEGV about once in a dozen runs (see
/// `perf/README.md`, "Findings"). The published crate's one-byte lock
/// has the same late write.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(Arc<sync::Mutex<T>>);

/// Guard of a [`Mutex`]. The inner std guard sits in an `Option` so
/// that [`Condvar`] can hand it to `std::sync::Condvar::wait` by value
/// and put the returned guard back. Fields drop in this order: unlock
/// first, then release the lock's memory.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<sync::MutexGuard<'a, T>>,
    _keep: Arc<sync::Mutex<T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(Arc::new(sync::Mutex::new(value)))
    }

    /// The data, if no guard is outstanding (a guard borrows the mutex,
    /// so there is none unless a caller leaked one).
    pub fn into_inner(self) -> T {
        Arc::try_unwrap(self.0)
            .unwrap_or_else(|_| panic!("a guard outlived its mutex"))
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    fn guard<'a>(&'a self, guard: sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            guard: Some(guard),
            _keep: Arc::clone(&self.0),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.guard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(self.guard(g)),
            Err(sync::TryLockError::Poisoned(e)) => Some(self.guard(e.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_ref()
            .expect("guard is only empty inside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_mut()
            .expect("guard is only empty inside Condvar::wait")
    }
}

/// Result of a timed wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable taking the guard by `&mut`, as parking_lot does.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard is held");
        guard.guard = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.guard.take().expect("guard is held");
        let (inner, res) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// Reader-writer lock without poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condvar_hands_the_guard_back() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let other = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *other.0.lock() = true;
            other.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            pair.1.wait(&mut g);
        }
        assert!(*g);
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn timed_wait_reports_timeout_and_keeps_the_lock() {
        let m = Mutex::new(7);
        let c = Condvar::new();
        let mut g = m.lock();
        assert!(c.wait_for(&mut g, Duration::from_millis(1)).timed_out());
        *g += 1;
        drop(g);
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn the_lock_word_is_not_inside_the_mutex_value() {
        // Whatever the payload, the value is one pointer: nothing that
        // `unlock` writes lives where the `Mutex` does.
        assert_eq!(
            std::mem::size_of::<Mutex<[u8; 64]>>(),
            std::mem::size_of::<usize>()
        );
        let m = Mutex::new(5);
        let g = m.lock();
        assert_eq!(Arc::strong_count(&m.0), 2, "a guard keeps the lock alive");
        drop(g);
        assert_eq!(Arc::strong_count(&m.0), 1);
        assert_eq!(m.into_inner(), 5);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let other = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = other.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
