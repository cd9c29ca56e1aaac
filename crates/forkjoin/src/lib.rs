//! `recdp-forkjoin`: a from-scratch work-stealing fork-join runtime.
//!
//! This crate is the repo's stand-in for the OpenMP tasking runtime used
//! by the paper's fork-join implementations. It provides the three
//! primitives those implementations need:
//!
//! * [`join`] — binary fork-join, the direct analogue of
//!   `#pragma omp task` + `#pragma omp taskwait` around two calls. The
//!   calling task runs the first closure inline, makes the second
//!   stealable, and *blocks at the join* until both finish — which is
//!   precisely the "artificial dependency" the paper studies.
//! * [`scope`] — structured multi-way spawn with a blocking join at scope
//!   exit (the `taskwait` at the end of a task group).
//! * [`ThreadPool::spawn`] — fire-and-forget task injection, used by the
//!   CnC runtime in `recdp-cnc` as its executor substrate (mirroring how
//!   Intel CnC rides on TBB).
//!
//! Scheduling is classic Cilk/rayon-style randomized work stealing over
//! per-worker Chase-Lev deques (`crossbeam-deque`) with a shared injector
//! for external submissions; idle workers poll briefly for the next wave
//! of work, then park on a condvar, counted so that a push wakes them
//! only when somebody sleeps. While a task
//! waits at a join whose other branch was stolen, its worker *helps* by
//! stealing other work instead of blocking the OS thread.
//!
//! # Examples
//!
//! Binary fork-join (the OpenMP `task`/`taskwait` pattern):
//!
//! ```
//! use recdp_forkjoin::{join, ThreadPoolBuilder};
//!
//! fn sum(xs: &[u64]) -> u64 {
//!     if xs.len() <= 4 {
//!         return xs.iter().sum();
//!     }
//!     let (lo, hi) = xs.split_at(xs.len() / 2);
//!     let (a, b) = join(|| sum(lo), || sum(hi));
//!     a + b
//! }
//!
//! let pool = ThreadPoolBuilder::new().num_threads(2).build();
//! let data: Vec<u64> = (1..=100).collect();
//! assert_eq!(pool.install(|| sum(&data)), 5050);
//! ```
//!
//! Structured multi-way spawn with a join barrier at scope exit:
//!
//! ```
//! use recdp_forkjoin::{scope, ThreadPoolBuilder};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! let pool = ThreadPoolBuilder::new().num_threads(2).build();
//! let hits = AtomicU32::new(0);
//! pool.install(|| {
//!     scope(|s| {
//!         for _ in 0..16 {
//!             s.spawn(|_| {
//!                 hits.fetch_add(1, Ordering::Relaxed);
//!             });
//!         }
//!     }); // <- the taskwait: nothing escapes the scope
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 16);
//! ```

#![warn(missing_docs)]

mod job;
mod latch;
mod registry;
mod scope;

pub use job::RawJob;
pub use registry::{
    current_num_threads, spawn_local, worker_index, PoolId, RecoveryMode, StealPolicy, TaskHook,
    ThreadPool, ThreadPoolBuilder,
};
pub use scope::{scope, Scope};

use job::StackJob;
use latch::Latch;
use registry::WorkerThread;

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// Called from inside a pool, `b` is pushed onto the worker's deque
/// (stealable by idle workers), `a` runs inline, and the caller then
/// either pops `b` back (it was not stolen — runs inline, preserving the
/// serial order) or helps with other work until the thief finishes.
///
/// Called from outside any pool, the pair is executed on the global pool.
///
/// # Panics
/// If either closure panics, the panic is propagated to the caller after
/// both branches have completed or unwound.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WorkerThread::current() {
        Some(worker) => join_in_worker(worker, a, b),
        None => registry::global().install(|| join(a, b)),
    }
}

fn join_in_worker<A, B, RA, RB>(worker: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b: StackJob<_, _> = StackJob::new(b);
    // SAFETY: `job_b` lives on this stack frame and we do not return until
    // its latch is set (either by popping and running it inline or by the
    // thief completing it), so the reference pushed to the deque cannot
    // dangle.
    let job_ref = unsafe { job_b.as_job_ref() };
    worker.push(job_ref);

    let result_a = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(a)) {
        Ok(r) => r,
        Err(payload) => {
            // `a` panicked: we still must not return (unwinding counts as
            // returning) while `job_b` may be referenced by a thief. Wait
            // for the branch to finish, then propagate the original panic.
            wait_for_stack_job(worker, &job_b);
            std::panic::resume_unwind(payload);
        }
    };

    wait_for_stack_job(worker, &job_b);
    (result_a, job_b.into_result())
}

/// Ensures `job` has executed: pops-and-runs it if still local, otherwise
/// helps with other work until the thief sets the latch.
fn wait_for_stack_job<F, R>(worker: &WorkerThread, job: &StackJob<F, R>)
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    while !job.latch().probe() {
        match worker.take_local() {
            Some(j) => {
                // May be `job` itself or younger work pushed by nested
                // joins; executing either makes progress.
                let t0 = worker.lane().map(|lane| lane.now());
                unsafe { j.execute() };
                if let (Some(lane), Some(t0)) = (worker.lane(), t0) {
                    lane.span(
                        recdp_trace::EventKind::TaskRun {
                            source: recdp_trace::TaskSource::Local,
                        },
                        t0,
                    );
                }
            }
            None => {
                // Our deque is empty: the job was stolen. Help until done.
                worker.wait_until(job.latch());
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let (a, b) = pool.install(|| join(|| 6 * 7, || "ok"));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_outside_pool_uses_global() {
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn nested_joins_compute_fib() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let pool = ThreadPoolBuilder::new().num_threads(3).build();
        assert_eq!(pool.install(|| fib(16)), 987);
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| join(|| panic!("boom-a"), || 1))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| join(|| 1, || panic!("boom-b")))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn deep_recursion_many_tasks() {
        // Sum 0..4096 by binary splitting: ~1023 tasks.
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
            a + b
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        assert_eq!(pool.install(|| sum(0, 4096)), 4096 * 4095 / 2);
    }

    #[test]
    fn panicking_spawns_cannot_corrupt_concurrent_joins() {
        // Regression: a fire-and-forget job that panics must not unwind
        // through a worker that executes it while *helping* at a join
        // (that unwind would free join frames still referenced by
        // thieves). Saturate the pool with panicking spawns while deep
        // joins run; every join must still produce correct results.
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        for _ in 0..64 {
            pool.spawn(|| panic!("hostile fire-and-forget"));
        }
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let x = pool.install(|| fib(14));
        assert_eq!(x, 377);
        // The panicking spawns *executed* (their panics are contained),
        // but a few may still be queued when the test ends; acknowledge
        // them instead of tripping the debug lost-work panic.
        let _ = pool.shutdown();
    }

    #[test]
    fn side_effects_happen_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        fn go(depth: usize) {
            if depth == 0 {
                COUNT.fetch_add(1, Ordering::Relaxed);
                return;
            }
            join(|| go(depth - 1), || go(depth - 1));
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        pool.install(|| go(10));
        assert_eq!(COUNT.load(Ordering::Relaxed), 1024);
    }
}
