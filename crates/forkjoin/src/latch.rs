//! Latches: one-shot and counting completion flags.
//!
//! Memory ordering follows the release/acquire discipline from *Rust
//! Atomics and Locks*: the completing thread publishes its writes with
//! `Release`, the waiter observes them with `Acquire`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

/// A one-shot or counted completion flag that can be probed.
pub(crate) trait Latch {
    /// True once the latch has been set (acquire semantics).
    fn probe(&self) -> bool;
}

/// A one-shot latch that can also be *set*, so a `StackJob` can be
/// generic over how its owner waits: busy workers probe a [`SpinLatch`]
/// while helping, threads outside the pool block on a [`LockLatch`].
pub(crate) trait CompletionLatch: Latch {
    fn new() -> Self;
    fn set(&self);
}

/// A single-use latch set exactly once, probed by busy workers that help
/// with other work between probes (never blocks an OS thread).
#[derive(Debug, Default)]
pub(crate) struct SpinLatch {
    set: AtomicBool,
}

impl SpinLatch {
    pub(crate) fn new() -> Self {
        Self {
            set: AtomicBool::new(false),
        }
    }

    pub(crate) fn set(&self) {
        self.set.store(true, Ordering::Release);
    }
}

impl Latch for SpinLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }
}

impl CompletionLatch for SpinLatch {
    fn new() -> Self {
        SpinLatch::new()
    }

    fn set(&self) {
        SpinLatch::set(self);
    }
}

/// A single-use latch whose owner blocks on a condvar instead of
/// spinning. Used by `ThreadPool::install`: the installing thread sits
/// outside the pool, cannot help with work, and must not burn CPU or pay
/// a sleep-slice tail waiting for the result.
///
/// The latch lives in the installer's stack frame, which is popped as
/// soon as the installer sees it set, so the flag is only ever read
/// *under the mutex*: a reader that sees `true` took the lock after the
/// setter released it, i.e. after the setter's last access to the latch.
/// (A lock-free probe let the installer return between the setter's
/// flag store and its notify/unlock — a write into a dead frame.)
#[derive(Debug)]
pub(crate) struct LockLatch {
    set: Mutex<bool>,
    cond: Condvar,
}

/// Looks [`LockLatch::wait`] takes before it blocks (a few
/// microseconds' worth).
const LOOKS_BEFORE_BLOCKING: u32 = 200;

impl LockLatch {
    pub(crate) fn new() -> Self {
        Self {
            set: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    pub(crate) fn set(&self) {
        let mut set = self.set.lock();
        *set = true;
        self.cond.notify_all();
    }

    /// Blocks until the latch is set. Wakes as soon as the setter
    /// notifies — no polling interval, no sleep-slice tail.
    pub(crate) fn wait(&self) {
        // A short job on a warm pool is done within a microsecond or
        // two; blocking right away turns that into a futex sleep and a
        // wake-up several times as long. Look a few times first — each
        // look under the lock, for the reason given on the type.
        for _ in 0..LOOKS_BEFORE_BLOCKING {
            if *self.set.lock() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut set = self.set.lock();
        while !*set {
            self.cond.wait(&mut set);
        }
    }
}

impl Latch for LockLatch {
    #[inline]
    fn probe(&self) -> bool {
        *self.set.lock()
    }
}

impl CompletionLatch for LockLatch {
    fn new() -> Self {
        LockLatch::new()
    }

    fn set(&self) {
        LockLatch::set(self);
    }
}

/// A latch that releases when a counter returns to zero. Starts at 1 (the
/// "owner" token); the owner calls [`CountLatch::finish`] once after all
/// increments have been registered.
#[derive(Debug)]
pub(crate) struct CountLatch {
    counter: AtomicUsize,
}

impl CountLatch {
    pub(crate) fn new() -> Self {
        Self {
            counter: AtomicUsize::new(1),
        }
    }

    pub(crate) fn increment(&self) {
        let prev = self.counter.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "increment after latch released");
    }

    pub(crate) fn decrement(&self) {
        let prev = self.counter.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "count latch underflow");
    }

    /// Drops the owner token.
    pub(crate) fn finish(&self) {
        self.decrement();
    }
}

impl Latch for CountLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.counter.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_latch_set_probe() {
        let l = SpinLatch::new();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn lock_latch_wakes_blocked_waiter() {
        use std::sync::Arc;
        let latch = Arc::new(LockLatch::new());
        assert!(!latch.probe());
        let setter = {
            let latch = Arc::clone(&latch);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                latch.set();
            })
        };
        latch.wait();
        assert!(latch.probe());
        setter.join().unwrap();
    }

    #[test]
    fn lock_latch_wait_after_set_returns_immediately() {
        let latch = LockLatch::new();
        latch.set();
        latch.wait();
        assert!(latch.probe());
    }

    #[test]
    fn count_latch_releases_at_zero() {
        let l = CountLatch::new();
        l.increment();
        l.increment();
        assert!(!l.probe());
        l.decrement();
        l.decrement();
        assert!(!l.probe(), "owner token still held");
        l.finish();
        assert!(l.probe());
    }
}
