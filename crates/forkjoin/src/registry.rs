//! The worker registry: threads, deques, injector, parking.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex, RwLock};
use recdp_trace::{EventKind, Lane, TaskSource, Tracer};

use crate::job::{HeapJob, JobRef, RawJob, StackJob};
use crate::latch::{Latch, LockLatch};

/// A callback run by a worker immediately before each queued job it
/// executes (see [`ThreadPoolBuilder::task_hook`]).
pub type TaskHook = Arc<dyn Fn() + Send + Sync>;

/// Owns the steal-victim choice of the work-stealing loop.
///
/// When a worker runs out of local and injected work it sweeps the other
/// workers' deques in rotation; the policy chooses where that rotation
/// starts, which is the only nondeterministic decision in the sweep. The
/// default (no policy installed) is a per-worker xorshift64* generator;
/// the `recdp-check` harness installs seeded policies so fork-join runs
/// can be explored and replayed schedule-by-schedule.
pub trait StealPolicy: Send + Sync {
    /// Index at which worker `thief` starts its victim sweep over
    /// `workers` deques (the sweep visits every other deque in rotation
    /// from there; the thief's own deque is skipped). Results are taken
    /// modulo `workers`.
    fn steal_start(&self, thief: usize, workers: usize) -> usize;
}

/// How the pool reacts when a seeded kill schedule fells a worker
/// (see [`ThreadPoolBuilder::worker_kill_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Replace each dead worker with a fresh thread on the same slot,
    /// restoring the configured parallelism.
    #[default]
    Respawn,
    /// Keep running on the surviving workers: the pool permanently
    /// degrades by one thread per death.
    Degrade,
}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
    task_hook: Option<TaskHook>,
    steal_policy: Option<Arc<dyn StealPolicy>>,
    tracer: Option<Arc<Tracer>>,
    worker_kill_schedule: Vec<u64>,
    recovery_mode: RecoveryMode,
}

impl std::fmt::Debug for ThreadPoolBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPoolBuilder")
            .field("num_threads", &self.num_threads)
            .field("task_hook", &self.task_hook.as_ref().map(|_| "<hook>"))
            .field(
                "steal_policy",
                &self.steal_policy.as_ref().map(|_| "<policy>"),
            )
            .field("tracer", &self.tracer.as_ref().map(|_| "<tracer>"))
            .field("worker_kill_schedule", &self.worker_kill_schedule)
            .field("recovery_mode", &self.recovery_mode)
            .finish()
    }
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads. Defaults to the machine's
    /// available parallelism (at least 2, so work stealing is exercised
    /// even on single-core hosts).
    pub fn num_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "pool needs at least one thread");
        self.num_threads = Some(n);
        self
    }

    /// Installs a hook run by a worker immediately before each queued job
    /// it executes (spawned jobs and jobs picked up while cooperatively
    /// waiting; inline fast paths are not intercepted). Used by the
    /// fault-injection layer to simulate slow tasks on a fork-join pool.
    pub fn task_hook<F>(mut self, hook: F) -> Self
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.task_hook = Some(Arc::new(hook));
        self
    }

    /// Installs a steal-victim policy (see [`StealPolicy`]). Defaults to
    /// a per-worker xorshift64* start index.
    pub fn steal_policy(mut self, policy: Arc<dyn StealPolicy>) -> Self {
        self.steal_policy = Some(policy);
        self
    }

    /// Arms a fail-stop kill schedule: each entry is an offset in
    /// nanoseconds from pool start at which one worker thread *dies* —
    /// it drains its deque back into the shared injector (so held work
    /// is requeued, never lost) and exits. What happens next is decided
    /// by [`ThreadPoolBuilder::recovery_mode`]. Kills fire between
    /// queued jobs (fail-stop at task granularity), and the last alive
    /// worker never dies, so the pool always makes progress — the same
    /// one-survivor rule `recdp-sim`'s fail-stop model uses.
    pub fn worker_kill_schedule(mut self, mut kill_times_ns: Vec<u64>) -> Self {
        kill_times_ns.sort_unstable();
        self.worker_kill_schedule = kill_times_ns;
        self
    }

    /// Sets how the pool recovers from scheduled worker deaths
    /// (defaults to [`RecoveryMode::Respawn`]). Irrelevant without a
    /// [`ThreadPoolBuilder::worker_kill_schedule`].
    pub fn recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.recovery_mode = mode;
        self
    }

    /// Installs a tracer: each worker records task-run (with steal
    /// provenance), spawn, join-wait and park events into its own
    /// [`recdp_trace::Lane`]. Without a tracer every instrumentation
    /// site is a single branch on `None` — recording nothing costs
    /// nothing on the hot path.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the pool and starts its workers.
    pub fn build(self) -> ThreadPool {
        let n = self.num_threads.unwrap_or_else(default_num_threads);
        ThreadPool {
            registry: Registry::new(
                n,
                self.task_hook,
                self.steal_policy,
                self.tracer,
                self.worker_kill_schedule,
                self.recovery_mode,
            ),
        }
    }
}

fn default_num_threads() -> usize {
    std::env::var("RECDP_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2)
        })
}

/// A fork-join work-stealing thread pool.
///
/// See the crate docs for the execution model. Dropping the pool stops
/// the workers after the jobs they are currently running; fire-and-forget
/// [`ThreadPool::spawn`] jobs still queued are discarded. Discarded jobs
/// are counted, and in debug builds a plain drop with a nonzero count
/// panics so lost work cannot pass silently — callers either synchronise
/// before dropping (as `recdp-cnc` does with its quiescence counter) or
/// call [`ThreadPool::shutdown`] to acknowledge the count explicitly.
#[derive(Debug)]
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Runs `f` inside the pool, blocking the calling thread until it
    /// completes, and returns its result. If already on a worker of this
    /// pool, runs inline.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(wt) = WorkerThread::current() {
            if std::ptr::eq(wt.registry.as_ref(), self.registry.as_ref()) {
                return f();
            }
        }
        let job: StackJob<_, _, LockLatch> = StackJob::new(f);
        // SAFETY: we block below until the job's latch is set, so the
        // stack allocation outlives the reference.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.inject(job_ref);
        // The installing thread is outside the pool, so it cannot help:
        // it blocks on the job's latch, which the worker's `set` wakes
        // directly — no polling interval, no sleep-slice latency tail.
        job.latch().wait();
        job.into_result()
    }

    /// Fire-and-forget execution of `f` on the pool.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.push(HeapJob::into_job_ref(f), false);
    }

    /// Queues `job`: on the calling worker's own deque if it is one of
    /// this pool's and `fair` is not asked for, else on the injector.
    fn push(&self, job: JobRef, fair: bool) {
        match WorkerThread::current() {
            Some(wt) if !fair && std::ptr::eq(wt.registry.as_ref(), self.registry.as_ref()) => {
                wt.push(job);
            }
            _ => self.registry.inject(job),
        }
    }

    /// Fire-and-forget execution of `f`, always via the global injector
    /// (FIFO-ish) even when called from a worker. Use for re-submissions
    /// that must not starve other queued work — a task that re-enqueues
    /// itself through the local LIFO deque would be popped straight back
    /// on a single-worker pool.
    pub fn spawn_global<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.registry.inject(HeapJob::into_job_ref(f));
    }

    /// [`ThreadPool::spawn`] (or, if `fair`, [`ThreadPool::spawn_global`])
    /// of a job that needs no box; see [`RawJob`].
    pub fn spawn_job<J: RawJob>(&self, job: J, fair: bool) {
        self.push(JobRef::from_raw_job(job), fair);
    }

    /// A process-unique identity for this pool, for [`spawn_local`].
    pub fn id(&self) -> PoolId {
        PoolId(self.registry.id)
    }

    /// Number of worker slots the pool was configured with. Under
    /// [`RecoveryMode::Degrade`] fewer threads may actually be alive —
    /// see [`ThreadPool::alive_workers`].
    pub fn num_threads(&self) -> usize {
        self.registry.stealers.read().len()
    }

    /// Number of worker threads currently alive (configured count,
    /// minus deaths, plus respawns).
    pub fn alive_workers(&self) -> usize {
        self.registry.alive.load(Ordering::Acquire)
    }

    /// Workers felled so far by the seeded kill schedule.
    pub fn worker_deaths(&self) -> usize {
        self.registry.worker_deaths.load(Ordering::Relaxed)
    }

    /// Jobs drained from dying workers' deques back into the injector
    /// (requeued and re-run, as opposed to the dropped-jobs count).
    pub fn tasks_requeued(&self) -> usize {
        self.registry.tasks_requeued.load(Ordering::Relaxed)
    }

    /// Replacement workers started under [`RecoveryMode::Respawn`].
    pub fn worker_respawns(&self) -> usize {
        self.registry.worker_respawns.load(Ordering::Relaxed)
    }

    /// The tracer installed at build time, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.registry.tracer.as_ref()
    }

    /// Stops the workers, joins them, and returns how many queued
    /// fire-and-forget jobs were discarded without running (their heap
    /// closures are leaked — a `JobRef` is type-erased and can only be
    /// reclaimed by executing it). Unlike a plain drop, an explicit
    /// `shutdown` acknowledges the discarded work, so the debug-build
    /// lost-work panic is suppressed.
    pub fn shutdown(self) -> usize {
        let dropped = self.registry.shutdown();
        self.registry
            .dropped_acknowledged
            .store(true, Ordering::Relaxed);
        dropped
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let dropped = self.registry.shutdown();
        // Lost spawns are a silent-footgun class of bug: make them loud
        // in debug builds unless an explicit `shutdown()` acknowledged
        // them. (Skipped while panicking — a double panic would abort
        // and mask the original failure.)
        if cfg!(debug_assertions)
            && dropped > 0
            && !self.registry.dropped_acknowledged.load(Ordering::Relaxed)
            && !std::thread::panicking()
        {
            panic!(
                "ThreadPool dropped with {dropped} queued job(s) never executed; \
                 synchronise before dropping or call ThreadPool::shutdown()"
            );
        }
    }
}

/// Identity of a [`ThreadPool`], comparable without holding the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolId(u64);

/// [`ThreadPool::spawn_job`] for a caller that is (probably) running on
/// a worker of pool `pool` and does not hold the pool: pushes `job` onto
/// the calling worker's own deque. Hands `job` back if the calling
/// thread is not a worker of that pool. A worker only runs jobs while
/// its pool's registry is alive, so no handle on the pool is needed.
pub fn spawn_local<J: RawJob>(pool: PoolId, job: J) -> Result<(), J> {
    match WorkerThread::current() {
        Some(wt) if wt.registry.id == pool.0 => {
            wt.push(JobRef::from_raw_job(job));
            Ok(())
        }
        _ => Err(job),
    }
}

/// The calling thread's worker slot in pool `pool` (below
/// [`ThreadPool::num_threads`]; a respawned worker inherits its
/// predecessor's), or `None` if it is not one of that pool's workers.
pub fn worker_index(pool: PoolId) -> Option<usize> {
    WorkerThread::current()
        .filter(|wt| wt.registry.id == pool.0)
        .map(|wt| wt.index)
}

/// Number of threads of the pool the current thread belongs to, or of the
/// global pool otherwise.
pub fn current_num_threads() -> usize {
    match WorkerThread::current() {
        Some(wt) => wt.registry.stealers.read().len(),
        None => global().num_threads(),
    }
}

/// The lazily-created global pool (used by free [`crate::join`] /
/// [`crate::scope`] calls made outside any pool).
pub(crate) fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPoolBuilder::new().build())
}

pub(crate) struct Registry {
    /// Process-unique (never reused, unlike the registry's address).
    id: u64,
    injector: Injector<JobRef>,
    /// One stealer per worker slot. Behind an `RwLock` so a respawned
    /// worker can swap its fresh deque's stealer into its slot; the
    /// steal sweep only ever takes the (uncontended) read side.
    stealers: RwLock<Vec<Stealer<JobRef>>>,
    terminate: AtomicBool,
    sleep_mutex: Mutex<()>,
    sleep_cond: Condvar,
    /// Workers blocked on `sleep_cond` or about to be (see `sleep`).
    sleepers: AtomicUsize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    task_hook: Option<TaskHook>,
    steal_policy: Option<Arc<dyn StealPolicy>>,
    tracer: Option<Arc<Tracer>>,
    /// Fire-and-forget jobs discarded without running (counted by
    /// exiting workers draining their deques and by `shutdown` draining
    /// the injector).
    dropped_jobs: AtomicUsize,
    /// Set by an explicit `ThreadPool::shutdown`, which suppresses the
    /// debug-build lost-work panic in `Drop`.
    dropped_acknowledged: AtomicBool,
    /// Sorted fail-stop kill offsets (ns from `started`); each entry
    /// fells one worker. Empty on pools without a kill schedule, making
    /// the per-iteration check a single `len == 0` branch.
    kill_times_ns: Vec<u64>,
    /// Index of the next unclaimed kill in `kill_times_ns`; workers
    /// CAS-claim entries so each kill fells exactly one worker.
    next_kill: AtomicUsize,
    /// Pool start time — the epoch of the kill schedule.
    started: Instant,
    recovery: RecoveryMode,
    /// Workers currently alive. Never driven below one: the one-survivor
    /// rule discards kills that would leave the pool empty.
    alive: AtomicUsize,
    worker_deaths: AtomicUsize,
    tasks_requeued: AtomicUsize,
    worker_respawns: AtomicUsize,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("workers", &self.stealers.read().len())
            .field("task_hook", &self.task_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Registry {
    fn new(
        n: usize,
        task_hook: Option<TaskHook>,
        steal_policy: Option<Arc<dyn StealPolicy>>,
        tracer: Option<Arc<Tracer>>,
        kill_times_ns: Vec<u64>,
        recovery: RecoveryMode,
    ) -> Arc<Self> {
        let workers: Vec<Worker<JobRef>> = (0..n).map(|_| Worker::new_lifo()).collect();
        let stealers = RwLock::new(workers.iter().map(|w| w.stealer()).collect());
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let registry = Arc::new(Registry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            stealers,
            terminate: AtomicBool::new(false),
            sleep_mutex: Mutex::new(()),
            sleep_cond: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            handles: Mutex::new(Vec::with_capacity(n)),
            task_hook,
            steal_policy,
            tracer,
            dropped_jobs: AtomicUsize::new(0),
            dropped_acknowledged: AtomicBool::new(false),
            kill_times_ns,
            next_kill: AtomicUsize::new(0),
            started: Instant::now(),
            recovery,
            alive: AtomicUsize::new(n),
            worker_deaths: AtomicUsize::new(0),
            tasks_requeued: AtomicUsize::new(0),
            worker_respawns: AtomicUsize::new(0),
        });
        let mut handles = registry.handles.lock();
        for (index, worker) in workers.into_iter().enumerate() {
            let reg = Arc::clone(&registry);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("recdp-fj-{index}"))
                    .spawn(move || worker_main(worker, reg, index))
                    .expect("failed to spawn worker thread"),
            );
        }
        drop(handles);
        registry
    }

    pub(crate) fn inject(&self, job: JobRef) {
        if let Some(tracer) = &self.tracer {
            tracer.lane().instant(EventKind::TaskSpawn);
        }
        self.injector.push(job);
        self.wake_sleepers();
    }

    /// Stops and joins the workers, then drains never-executed jobs into
    /// the dropped count. Idempotent: a second call finds no handles and
    /// an empty injector and just re-reads the count.
    fn shutdown(&self) -> usize {
        self.terminate.store(true, Ordering::Release);
        self.wake_sleepers();
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        // The workers have exited (draining their own deques on the way
        // out); whatever is still in the injector will never run.
        let mut drained = 0usize;
        let scratch = Worker::new_lifo();
        loop {
            match self.injector.steal_batch_and_pop(&scratch) {
                crossbeam_deque::Steal::Success(_job) => drained += 1,
                crossbeam_deque::Steal::Empty => break,
                crossbeam_deque::Steal::Retry => continue,
            }
            while scratch.pop().is_some() {
                drained += 1;
            }
        }
        while scratch.pop().is_some() {
            drained += 1;
        }
        if drained > 0 {
            self.dropped_jobs.fetch_add(drained, Ordering::Relaxed);
        }
        self.dropped_jobs.load(Ordering::Relaxed)
    }

    /// Wakes the blocked workers after a push, if there are any. The
    /// sleeper count makes this a fence and a load while every worker is
    /// busy or still polling: no lock, no `notify` (a futex call per push
    /// otherwise). Pusher: push, fence, read `sleepers`. Sleeper (see
    /// `sleep`): take the sleep mutex, raise `sleepers`, fence, look at
    /// the queues, wait. By the two fences either the pusher reads a
    /// raised count, or the sleeper sees the pushed job and does not
    /// wait; and a pusher that read a raised count cannot notify too
    /// early, because it gets the mutex only once the sleeper is inside
    /// `wait`, which released it.
    fn wake_sleepers(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep_mutex.lock();
            self.sleep_cond.notify_all();
        }
    }

    /// Blocks the calling worker until a push or `shutdown` wakes it,
    /// for at most the bounded wait (a backstop, not part of the
    /// protocol above). Returns at once if work or termination is
    /// already visible.
    fn sleep(&self) {
        let mut guard = self.sleep_mutex.lock();
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let nothing_to_do = self.injector.is_empty()
            && self.stealers.read().iter().all(Stealer::is_empty)
            && !self.terminate.load(Ordering::Acquire);
        if nothing_to_do {
            self.sleep_cond
                .wait_for(&mut guard, Duration::from_millis(1));
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Checks the kill schedule: returns `true` when a kill point is
    /// due, this worker won the CAS race to claim it, and dying would
    /// not leave the pool empty. The caller must then retire.
    fn claim_kill(&self) -> bool {
        if self.kill_times_ns.is_empty() {
            return false;
        }
        loop {
            let idx = self.next_kill.load(Ordering::Acquire);
            if idx >= self.kill_times_ns.len() {
                return false;
            }
            if (self.started.elapsed().as_nanos() as u64) < self.kill_times_ns[idx] {
                return false;
            }
            if self
                .next_kill
                .compare_exchange(idx, idx + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Another worker claimed this kill; maybe the next one
                // is also due — re-check.
                continue;
            }
            // One-survivor rule: a kill that would leave the pool empty
            // is discarded, exactly like the simulator's fail-stop
            // model — a pool with no workers can never finish its job.
            return self
                .alive
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |a| {
                    if a > 1 {
                        Some(a - 1)
                    } else {
                        None
                    }
                })
                .is_ok();
        }
    }

    /// Starts a replacement worker on `index`'s slot: fresh deque, its
    /// stealer swapped into the slot so thieves see the new queue.
    fn respawn(self: &Arc<Self>, index: usize) {
        let worker = Worker::new_lifo();
        self.stealers.write()[index] = worker.stealer();
        self.alive.fetch_add(1, Ordering::AcqRel);
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
        let reg = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("recdp-fj-{index}"))
            .spawn(move || worker_main(worker, reg, index))
            .expect("failed to respawn worker thread");
        self.handles.lock().push(handle);
    }
}

thread_local! {
    static CURRENT_WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// Worker-thread context: the local deque plus registry access. Lives on
/// the worker's stack for the thread's lifetime; accessed through TLS.
pub(crate) struct WorkerThread {
    worker: Worker<JobRef>,
    pub(crate) registry: Arc<Registry>,
    index: usize,
    rng: AtomicU64,
    /// This worker's event lane when the pool has a tracer installed.
    lane: Option<Arc<Lane>>,
}

impl WorkerThread {
    /// The current thread's worker context, if it is a pool worker.
    #[inline]
    pub(crate) fn current<'a>() -> Option<&'a WorkerThread> {
        let ptr = CURRENT_WORKER.with(|c| c.get());
        // SAFETY: the pointee lives on the worker thread's stack for the
        // whole worker lifetime, and the reference never leaves that
        // thread (WorkerThread is !Send by content).
        unsafe { ptr.as_ref() }
    }

    /// Pushes a job onto the local LIFO deque and wakes a sleeper.
    pub(crate) fn push(&self, job: JobRef) {
        if let Some(lane) = &self.lane {
            lane.instant(EventKind::TaskSpawn);
        }
        self.worker.push(job);
        self.registry.wake_sleepers();
    }

    /// Pops the most recently pushed local job, if any.
    pub(crate) fn take_local(&self) -> Option<JobRef> {
        self.worker.pop()
    }

    /// This worker's event lane, when the pool has a tracer installed.
    pub(crate) fn lane(&self) -> Option<&Arc<Lane>> {
        self.lane.as_ref()
    }

    fn next_rand(&self) -> u64 {
        // xorshift64*; relaxed is fine, this is just steal-victim choice.
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x
    }

    /// One attempt to find work: local deque, then injector, then a
    /// random-rotation sweep of the other workers' deques. Reports where
    /// the job came from (steal provenance) for the tracing layer.
    pub(crate) fn find_work(&self) -> Option<(JobRef, TaskSource)> {
        if let Some(job) = self.worker.pop() {
            return Some((job, TaskSource::Local));
        }
        loop {
            match self.registry.injector.steal_batch_and_pop(&self.worker) {
                crossbeam_deque::Steal::Success(job) => return Some((job, TaskSource::Inject)),
                crossbeam_deque::Steal::Empty => break,
                crossbeam_deque::Steal::Retry => continue,
            }
        }
        let stealers = self.registry.stealers.read();
        let n = stealers.len();
        let start = match &self.registry.steal_policy {
            Some(policy) => policy.steal_start(self.index, n) % n,
            None => (self.next_rand() as usize) % n,
        };
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match stealers[victim].steal() {
                    crossbeam_deque::Steal::Success(job) => {
                        return Some((
                            job,
                            TaskSource::Steal {
                                victim: victim as u32,
                            },
                        ))
                    }
                    crossbeam_deque::Steal::Empty => break,
                    crossbeam_deque::Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Cooperative wait: executes other work until `latch` is set. Never
    /// parks for long, so a latch set by a thief is observed promptly.
    ///
    /// With a tracer installed, each contiguous stretch of *pure* idle
    /// (no work found anywhere while the latch stays unset) is recorded
    /// as a [`EventKind::JoinWait`] span — the artificial-dependency
    /// stall of the paper's model. Helped jobs get their own
    /// [`EventKind::TaskRun`] spans and are not counted as idle.
    pub(crate) fn wait_until<L: Latch>(&self, latch: &L) {
        let mut idle = 0u32;
        let mut idle_since: Option<u64> = None;
        while !latch.probe() {
            if let Some((job, source)) = self.find_work() {
                if let Some(lane) = &self.lane {
                    if let Some(start) = idle_since.take() {
                        lane.span(EventKind::JoinWait, start);
                    }
                }
                if let Some(hook) = &self.registry.task_hook {
                    hook();
                }
                let t0 = self.lane.as_ref().map(|lane| lane.now());
                // SAFETY: JobRefs are executed exactly once; we own this one.
                unsafe { job.execute() };
                if let (Some(lane), Some(t0)) = (&self.lane, t0) {
                    lane.span(EventKind::TaskRun { source }, t0);
                }
                idle = 0;
            } else {
                if let Some(lane) = &self.lane {
                    if idle_since.is_none() {
                        idle_since = Some(lane.now());
                    }
                }
                idle_round(&mut idle);
            }
        }
        if let (Some(lane), Some(start)) = (&self.lane, idle_since) {
            lane.span(EventKind::JoinWait, start);
        }
    }
}

/// Rounds an idle worker polls for work before it blocks on the sleep
/// condvar (about 0.1 ms; on a busy machine every yield hands the core
/// over). A running job's next wave is usually microseconds away, and a
/// worker that blocked in between costs it a futex wake-up whose latency
/// is the host's to decide: short jobs ran 15-40 % longer and their
/// times moved with the host from run to run.
const IDLE_POLLS: u32 = 400;

/// One round of looking for work in vain: spin at first, then yield.
fn idle_round(rounds: &mut u32) {
    if *rounds < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *rounds = rounds.saturating_add(1);
}

fn worker_main(worker: Worker<JobRef>, registry: Arc<Registry>, index: usize) {
    let lane = registry.tracer.as_ref().map(|t| t.lane());
    let wt = WorkerThread {
        worker,
        registry: Arc::clone(&registry),
        index,
        rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15 ^ (index as u64 + 1)),
        lane,
    };
    CURRENT_WORKER.with(|c| c.set(&wt as *const WorkerThread));

    let mut idle = 0u32;
    let mut idle_since: Option<u64> = None;
    while !registry.terminate.load(Ordering::Acquire) {
        // Fail-stop check: kills fire between queued jobs, never inside
        // one (dying mid-join would strand StackJob latches that other
        // workers still reference).
        if registry.claim_kill() {
            retire_worker(&wt, &registry);
            CURRENT_WORKER.with(|c| c.set(std::ptr::null()));
            return;
        }
        if let Some((job, source)) = wt.find_work() {
            idle = 0;
            if let (Some(lane), Some(t0)) = (&wt.lane, idle_since.take()) {
                lane.span(EventKind::Park, t0);
            }
            if let Some(hook) = &registry.task_hook {
                hook();
            }
            let t0 = wt.lane.as_ref().map(|lane| lane.now());
            // Catch panics from fire-and-forget jobs so a bad task cannot
            // take the worker down; structured jobs (StackJob, scope jobs)
            // install their own handlers and re-raise at the join point.
            let _ =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { job.execute() }));
            if let (Some(lane), Some(t0)) = (&wt.lane, t0) {
                lane.span(EventKind::TaskRun { source }, t0);
            }
        } else {
            // Idle time, polled or blocked, is recorded as `Park`.
            if idle_since.is_none() {
                idle_since = wt.lane.as_ref().map(|lane| lane.now());
            }
            if idle < IDLE_POLLS {
                idle_round(&mut idle);
            } else {
                // `idle` stays put: a worker woken by the bounded wait's
                // timeout looks once and blocks again; only work re-arms
                // the polling.
                registry.sleep();
                if let (Some(lane), Some(t0)) = (&wt.lane, idle_since.take()) {
                    lane.span(EventKind::Park, t0);
                }
            }
        }
    }
    // Terminating: jobs still in the local deque will never run. Count
    // them so shutdown can report the lost work instead of discarding it
    // silently.
    let mut leftover = 0usize;
    while wt.take_local().is_some() {
        leftover += 1;
    }
    if leftover > 0 {
        registry.dropped_jobs.fetch_add(leftover, Ordering::Relaxed);
    }
    CURRENT_WORKER.with(|c| c.set(std::ptr::null()));
}

/// Fail-stop death of a worker that claimed a kill: requeue every job
/// still in its deque (into the injector, so survivors pick them up),
/// record the death, and — under [`RecoveryMode::Respawn`] — start a
/// replacement on the same slot. The caller's thread exits afterwards.
fn retire_worker(wt: &WorkerThread, registry: &Arc<Registry>) {
    let mut requeued = 0u64;
    while let Some(job) = wt.take_local() {
        registry.injector.push(job);
        requeued += 1;
    }
    if requeued > 0 {
        registry
            .tasks_requeued
            .fetch_add(requeued as usize, Ordering::Relaxed);
    }
    registry.worker_deaths.fetch_add(1, Ordering::Relaxed);
    if let Some(lane) = wt.lane() {
        if requeued > 0 {
            lane.instant(EventKind::WorkRequeued {
                worker: wt.index as u32,
                tasks: requeued,
            });
        }
        lane.instant(EventKind::WorkerDied {
            worker: wt.index as u32,
        });
    }
    // Wake sleepers: the requeued jobs need picking up, and a degraded
    // pool must notice its work sooner rather than on a sleep-slice tick.
    registry.wake_sleepers();
    if registry.recovery == RecoveryMode::Respawn && !registry.terminate.load(Ordering::Acquire) {
        registry.respawn(wt.index);
        if let Some(lane) = wt.lane() {
            lane.instant(EventKind::WorkerRespawned {
                worker: wt.index as u32,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn install_runs_on_worker_thread() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let name = pool.install(|| std::thread::current().name().map(String::from));
        assert!(name.unwrap().starts_with("recdp-fj-"));
    }

    #[test]
    fn nested_install_same_pool_runs_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let x = pool.install(|| pool.install(|| 7));
        assert_eq!(x, 7);
    }

    #[test]
    fn spawn_executes() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        static N: AtomicUsize = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.spawn(|| {
                N.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Wait for all spawns (bounded).
        for _ in 0..10_000 {
            if N.load(Ordering::SeqCst) == 100 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(N.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn spawned_panic_does_not_kill_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        pool.spawn(|| panic!("ignore me"));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(pool.install(|| 3), 3);
    }

    #[test]
    fn num_threads_reported() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build();
        assert_eq!(pool.num_threads(), 3);
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn task_hook_runs_per_spawned_job() {
        static HOOKED: AtomicUsize = AtomicUsize::new(0);
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .task_hook(|| {
                HOOKED.fetch_add(1, Ordering::SeqCst);
            })
            .build();
        for _ in 0..20 {
            pool.spawn(|| {
                RAN.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..10_000 {
            if RAN.load(Ordering::SeqCst) == 20 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 20);
        assert!(HOOKED.load(Ordering::SeqCst) >= 20);
    }

    #[test]
    fn default_thread_count_at_least_two() {
        assert!(default_num_threads() >= 2);
    }

    #[test]
    fn steal_policy_owns_victim_choice() {
        struct Fixed(AtomicUsize);
        impl StealPolicy for Fixed {
            fn steal_start(&self, thief: usize, workers: usize) -> usize {
                self.0.fetch_add(1, Ordering::Relaxed);
                (thief + 1) % workers
            }
        }
        let policy = Arc::new(Fixed(AtomicUsize::new(0)));
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .steal_policy(Arc::clone(&policy) as Arc<dyn StealPolicy>)
            .build();
        // Idle workers sweep the victim deques through the policy, and
        // real work still completes under it.
        assert_eq!(pool.install(|| 6 * 7), 42);
        for _ in 0..10_000 {
            if policy.0.load(Ordering::Relaxed) > 0 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(
            policy.0.load(Ordering::Relaxed) > 0,
            "policy never consulted"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPoolBuilder::new().num_threads(0);
    }

    #[test]
    fn install_on_idle_pool_has_no_sleep_slice_tail() {
        // Regression for the old 50µs sleep-poll wait in `install`: the
        // caller always paid at least one full sleep slice unless the
        // job finished within its ~64-iteration spin phase, which an
        // idle pool (workers parked on the condvar) never does. With the
        // blocking LockLatch the worker's `set` wakes the caller
        // directly, so the fastest of many installs comes in well under
        // a slice.
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        pool.install(|| ()); // warm up: spin the workers awake once
        let mut best = Duration::MAX;
        for _ in 0..200 {
            let t0 = std::time::Instant::now();
            pool.install(|| ());
            best = best.min(t0.elapsed());
        }
        assert!(
            best < Duration::from_micros(40),
            "fastest install took {best:?}; a sleep-poll tail is back"
        );
    }

    #[test]
    fn install_stress_never_touches_a_popped_latch_frame() {
        // Regression for the install use-after-return: the installer
        // used to probe the latch flag without the lock, so it could
        // return (popping the frame that holds the `StackJob`) while the
        // worker's `set` was still notifying and unlocking inside it.
        // Each iteration reuses the same stack slot for the next job, so
        // a late write shows up as a corrupted job or, under
        // ThreadSanitizer, as a race on the frame.
        const CLIENTS: usize = 4;
        const INSTALLS: usize = 50_000;
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..INSTALLS {
                        assert_eq!(pool.install(|| i ^ c), i ^ c);
                    }
                });
            }
        });
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn shutdown_on_idle_pool_reports_no_dropped_jobs() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        assert_eq!(pool.install(|| 1), 1);
        assert_eq!(pool.shutdown(), 0);
    }

    /// Occupies the only worker long enough for jobs to pile up behind it.
    fn pool_with_stuck_worker_and_queued_jobs() -> ThreadPool {
        let pool = ThreadPoolBuilder::new().num_threads(1).build();
        pool.spawn(|| std::thread::sleep(Duration::from_millis(50)));
        // Let the worker pick the blocker up before queueing more.
        std::thread::sleep(Duration::from_millis(10));
        for _ in 0..5 {
            pool.spawn(|| ());
        }
        pool
    }

    #[test]
    fn shutdown_counts_discarded_jobs() {
        let pool = pool_with_stuck_worker_and_queued_jobs();
        let dropped = pool.shutdown();
        assert!(
            (1..=5).contains(&dropped),
            "expected the queued jobs to be discarded and counted, got {dropped}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn debug_drop_with_queued_jobs_panics() {
        let pool = pool_with_stuck_worker_and_queued_jobs();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(pool)));
        let err = result.expect_err("silent drop of queued jobs must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("never executed"), "unexpected panic: {msg}");
    }

    #[test]
    fn scheduled_kill_fells_and_respawns_a_worker() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .worker_kill_schedule(vec![1]) // due immediately
            .recovery_mode(RecoveryMode::Respawn)
            .build();
        for _ in 0..10_000 {
            if pool.worker_respawns() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(pool.worker_deaths(), 1);
        assert_eq!(pool.worker_respawns(), 1);
        assert_eq!(pool.alive_workers(), 2);
        // The respawned pool still computes.
        assert_eq!(pool.install(|| 6 * 7), 42);
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn degrade_mode_shrinks_the_pool() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(3)
            .worker_kill_schedule(vec![1, 2])
            .recovery_mode(RecoveryMode::Degrade)
            .build();
        for _ in 0..10_000 {
            if pool.worker_deaths() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(pool.worker_deaths(), 2);
        assert_eq!(pool.worker_respawns(), 0);
        assert_eq!(pool.alive_workers(), 1);
        // One survivor still runs everything.
        assert_eq!(pool.install(|| (1..=10).sum::<u32>()), 55);
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn last_worker_is_never_killed() {
        // More kills than workers: the one-survivor rule discards the
        // excess so the pool can always finish its job.
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .worker_kill_schedule(vec![1, 2, 3, 4])
            .recovery_mode(RecoveryMode::Degrade)
            .build();
        for _ in 0..10_000 {
            if pool.worker_deaths() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(pool.install(|| 2 + 2), 4);
        assert!(pool.alive_workers() >= 1);
        assert!(pool.worker_deaths() <= 1, "a kill emptied the pool");
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn dying_worker_requeues_its_deque() {
        // One worker, killed while it holds queued jobs: the drain must
        // push them back through the injector, where (after respawn)
        // they all still run — requeued, not dropped.
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new()
            .num_threads(1)
            .worker_kill_schedule(vec![10_000_000]) // 10ms in
            .recovery_mode(RecoveryMode::Respawn)
            .build();
        // A long job occupies the worker; spawns landing *on the worker*
        // would go to its local deque, but from outside they go to the
        // injector — so make the running job spawn more work locally.
        pool.spawn(|| {
            let pool_threads = current_num_threads();
            assert_eq!(pool_threads, 1);
            if let Some(wt) = WorkerThread::current() {
                for _ in 0..8 {
                    wt.push(crate::job::HeapJob::into_job_ref(|| {
                        RAN.fetch_add(1, Ordering::SeqCst);
                    }));
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        });
        for _ in 0..10_000 {
            if RAN.load(Ordering::SeqCst) == 8 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 8, "requeued jobs were lost");
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn kills_during_forkjoin_work_preserve_results() {
        // Kills land mid-computation; respawn keeps the answer exact.
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 4 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = crate::join(|| sum(lo, mid), || sum(mid, hi));
            a + b
        }
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .worker_kill_schedule(vec![50_000, 200_000, 500_000])
            .recovery_mode(RecoveryMode::Respawn)
            .build();
        for round in 0..20 {
            assert_eq!(pool.install(|| sum(0, 2048)), 2048 * 2047 / 2, "{round}");
        }
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn tracer_sees_death_and_respawn_events() {
        let tracer = recdp_trace::Tracer::new();
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .worker_kill_schedule(vec![1])
            .recovery_mode(RecoveryMode::Respawn)
            .tracer(Arc::clone(&tracer))
            .build();
        for _ in 0..10_000 {
            if pool.worker_respawns() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(pool.install(|| 1), 1);
        assert_eq!(pool.shutdown(), 0);
        let report = recdp_trace::TraceSession::with_tracer(tracer, 2).report();
        assert_eq!(report.worker_deaths, 1);
        assert_eq!(report.worker_respawns, 1);
    }

    #[test]
    fn tracer_records_runs_spawns_and_parks() {
        let tracer = recdp_trace::Tracer::new();
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .tracer(Arc::clone(&tracer))
            .build();
        static N: AtomicUsize = AtomicUsize::new(0);
        pool.install(|| {
            for _ in 0..8 {
                crate::join(
                    || N.fetch_add(1, Ordering::Relaxed),
                    || N.fetch_add(1, Ordering::Relaxed),
                );
            }
        });
        assert_eq!(pool.shutdown(), 0);
        assert_eq!(N.load(Ordering::Relaxed), 16);
        let report = recdp_trace::TraceSession::with_tracer(tracer, 2).report();
        // The install job itself plus any stolen join branches.
        assert!(report.tasks >= 1, "no task runs recorded");
        // 8 joins push their second branch + the injected install job.
        assert!(report.spawns >= 9, "spawns undercounted: {}", report.spawns);
        assert!(report.work_ns > 0);
    }

    #[test]
    fn idle_workers_stop_polling_and_every_idle_stretch_is_a_park() {
        // An idle worker polls for a bounded number of rounds, then
        // blocks in slices of the bounded wait; polled or blocked, the
        // time is recorded as `Park`. Over 30 idle milliseconds each
        // worker must therefore show slices a millisecond or more long
        // (it did block: endless polling would record none) that add up
        // to most of the time (nothing went unrecorded). The thresholds
        // leave room for a loaded machine stretching every slice.
        let tracer = recdp_trace::Tracer::new();
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .tracer(Arc::clone(&tracer))
            .build();
        pool.install(|| ());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(pool.shutdown(), 0);
        let workers: Vec<Vec<u64>> = tracer
            .lanes()
            .iter()
            .map(|lane| {
                let parks = lane.events().into_iter();
                parks
                    .filter(|e| matches!(e.kind, EventKind::Park))
                    .map(|e| e.dur_ns)
                    .collect::<Vec<u64>>()
            })
            .filter(|parks| !parks.is_empty())
            .collect();
        assert_eq!(workers.len(), 2, "one lane with parks per worker");
        for parks in workers {
            let slices = parks.iter().filter(|&&ns| ns >= 900_000).count();
            assert!(slices >= 3, "only {slices} blocked slices: {parks:?}");
            let total: u64 = parks.iter().sum();
            assert!(total >= 15_000_000, "{total} ns of 30 ms idle recorded");
        }
    }

    #[test]
    fn a_push_to_blocked_workers_is_picked_up_without_the_bounded_wait() {
        // Every worker has been idle for 5 ms, far past its polling
        // phase: all are counted sleepers blocked on the condvar. The
        // push must see the count and notify; a lost wake-up would leave
        // the job to the 1 ms bounded wait, i.e. half a millisecond or
        // more in the median (a notify takes tens of microseconds; the
        // bound leaves room for a loaded machine). The pusher is outside
        // the pool (`spawn` injects), the path that finds everybody
        // asleep in practice.
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let mut waits: Vec<Duration> = (0..500)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(5));
                let (tx, rx) = std::sync::mpsc::channel();
                let pushed = Instant::now();
                pool.spawn(move || tx.send(pushed.elapsed()).expect("the test is listening"));
                rx.recv().expect("the job ran")
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_micros(400),
            "median pick-up {median:?}: pushes wait for the sleep slice to run out"
        );
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn raw_jobs_run_once_from_inside_and_outside_the_pool() {
        struct Count(Arc<AtomicUsize>);
        impl RawJob for Count {
            fn into_raw(self) -> *const () {
                Arc::into_raw(self.0) as *const ()
            }
            unsafe fn run(job: *const ()) {
                // SAFETY: `into_raw`'s pointer, once.
                let count = unsafe { Arc::from_raw(job as *const AtomicUsize) };
                count.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        let ran = Arc::new(AtomicUsize::new(0));
        let job = || Count(Arc::clone(&ran));
        // Not a worker of this pool: handed back.
        assert!(spawn_local(pool.id(), job()).is_err());
        pool.spawn_job(job(), false);
        pool.spawn_job(job(), true);
        let (id, inner) = (pool.id(), job());
        pool.install(move || assert!(spawn_local(id, inner).is_ok()));
        for _ in 0..10_000 {
            if ran.load(Ordering::SeqCst) == 3 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert_eq!(
            Arc::strong_count(&ran),
            1,
            "every job gave its reference up"
        );
        assert_eq!(pool.shutdown(), 0);
    }

    #[test]
    fn without_tracer_nothing_is_recorded() {
        // The disabled path is branch-on-None: a tracer that is never
        // installed sees no lanes and no events no matter how much the
        // pool runs.
        let tracer = recdp_trace::Tracer::new();
        let pool = ThreadPoolBuilder::new().num_threads(2).build();
        assert_eq!(pool.install(|| 21 * 2), 42);
        assert!(pool.tracer().is_none());
        assert!(tracer.lanes().is_empty());
        assert_eq!(tracer.dropped(), 0);
    }
}
