//! Type-erased jobs: the unit of work that flows through the deques.

use std::any::Any;
use std::cell::UnsafeCell;

use crate::latch::{CompletionLatch, SpinLatch};

/// An erased pointer to something executable exactly once.
///
/// The pointee is either a [`StackJob`] owned by a frame that outlives the
/// reference (enforced by the `join` protocol) or a leaked [`HeapJob`]
/// reclaimed on execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, on one thread; the pointee
// is Send-capable by construction (closures are `F: Send`).
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

impl JobRef {
    /// # Safety
    /// `data` must stay valid until `execute` is called, and `execute`
    /// must be called exactly once.
    pub(crate) unsafe fn new<T>(data: *const T, execute_fn: unsafe fn(*const ())) -> JobRef {
        JobRef {
            pointer: data as *const (),
            execute_fn,
        }
    }

    /// # Safety
    /// Must be called exactly once per `JobRef`.
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// Outcome slot of a [`StackJob`].
enum JobResult<R> {
    NotRun,
    Ok(R),
    Panic(Box<dyn Any + Send>),
}

/// A job allocated on the stack of the frame that will consume its result
/// (the second branch of a `join`, or an `install` submission). Carries
/// its own completion latch: [`SpinLatch`] for owners that probe while
/// helping with other work, [`crate::latch::LockLatch`] for owners
/// outside the pool that block until completion.
pub(crate) struct StackJob<F, R, L = SpinLatch>
where
    F: FnOnce() -> R + Send,
    R: Send,
    L: CompletionLatch,
{
    latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

impl<F, R, L> StackJob<F, R, L>
where
    F: FnOnce() -> R + Send,
    R: Send,
    L: CompletionLatch,
{
    pub(crate) fn new(func: F) -> Self {
        Self {
            latch: L::new(),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::NotRun),
        }
    }

    pub(crate) fn latch(&self) -> &L {
        &self.latch
    }

    /// # Safety
    /// The returned `JobRef` must be executed exactly once before `self`
    /// is dropped; the caller must not touch `func`/`result` until the
    /// latch is set.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        unsafe fn execute<F, R, L>(this: *const ())
        where
            F: FnOnce() -> R + Send,
            R: Send,
            L: CompletionLatch,
        {
            let this = &*(this as *const StackJob<F, R, L>);
            let func = (*this.func.get()).take().expect("job executed twice");
            let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(func)) {
                Ok(r) => JobResult::Ok(r),
                Err(p) => JobResult::Panic(p),
            };
            *this.result.get() = result;
            // Release/publish: makes `result` visible to the owner (the
            // latch set is a release store, or happens under a lock).
            this.latch.set();
        }
        JobRef::new(self as *const Self, execute::<F, R, L>)
    }

    /// Consumes the result after the latch has been observed set.
    /// Re-raises the branch's panic on the joining thread, mirroring
    /// OpenMP's behaviour of surfacing a child task's error at the join.
    pub(crate) fn into_result(self) -> R {
        assert!(self.latch.probe(), "into_result before completion");
        match self.result.into_inner() {
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => std::panic::resume_unwind(p),
            JobResult::NotRun => unreachable!("latch set but job not run"),
        }
    }
}

// SAFETY: the job is handed across threads exactly once via JobRef; the
// UnsafeCells are accessed by the executing thread only until the latch is
// set (release), after which only the owner reads them (acquire probe).
unsafe impl<F, R, L> Sync for StackJob<F, R, L>
where
    F: FnOnce() -> R + Send,
    R: Send,
    L: CompletionLatch + Sync,
{
}

/// A heap-allocated fire-and-forget job (used by `spawn` and scopes).
pub(crate) struct HeapJob<F: FnOnce() + Send> {
    func: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    /// Boxes `func` and leaks it into a `JobRef`; the allocation is
    /// reclaimed when the job executes.
    pub(crate) fn into_job_ref(func: F) -> JobRef {
        let boxed = Box::new(HeapJob { func });
        unsafe fn execute<F: FnOnce() + Send>(this: *const ()) {
            let boxed = Box::from_raw(this as *mut HeapJob<F>);
            // A fire-and-forget job must never unwind into whoever runs
            // it: a worker *helping* at a join executes foreign jobs on
            // a stack whose live frames own in-flight StackJobs and
            // Scopes, and unwinding through them would free memory that
            // thieves still reference. Contain the panic here.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(boxed.func));
        }
        // SAFETY: the box stays alive (leaked) until execute reclaims it.
        unsafe { JobRef::new(Box::into_raw(boxed), execute::<F>) }
    }
}

/// A fire-and-forget job that is a heap allocation already: one pointer
/// the pool queues as it is, where `spawn` would box a closure around
/// it (`recdp-cnc`'s step instances). Like a spawned closure, a job the
/// pool discards unexecuted is leaked.
pub trait RawJob: Send + 'static {
    /// Gives the job up as a pointer for [`RawJob::run`].
    fn into_raw(self) -> *const ();

    /// Runs the job.
    ///
    /// # Safety
    /// `job` came from [`RawJob::into_raw`] of this type and is passed
    /// here exactly once.
    unsafe fn run(job: *const ());
}

impl JobRef {
    pub(crate) fn from_raw_job<J: RawJob>(job: J) -> JobRef {
        unsafe fn execute<J: RawJob>(job: *const ()) {
            // Contained for the reason given in `HeapJob`.
            let _ = std::panic::catch_unwind(|| J::run(job));
        }
        // SAFETY: `into_raw`'s pointer stays valid until `run` takes it.
        unsafe { JobRef::new(job.into_raw(), execute::<J>) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::Latch;

    #[test]
    fn stack_job_runs_and_returns() {
        let job: StackJob<_, _> = StackJob::new(|| 5 + 5);
        let r = unsafe { job.as_job_ref() };
        unsafe { r.execute() };
        assert!(job.latch().probe());
        assert_eq!(job.into_result(), 10);
    }

    #[test]
    fn stack_job_captures_panic() {
        let job: StackJob<_, ()> = StackJob::new(|| panic!("inside"));
        let r = unsafe { job.as_job_ref() };
        unsafe { r.execute() };
        assert!(job.latch().probe(), "latch set even on panic");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.into_result()));
        assert!(caught.is_err());
    }

    #[test]
    fn heap_job_runs_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let r = HeapJob::into_job_ref(|| {
            N.fetch_add(1, Ordering::Relaxed);
        });
        unsafe { r.execute() };
        assert_eq!(N.load(Ordering::Relaxed), 1);
    }
}
