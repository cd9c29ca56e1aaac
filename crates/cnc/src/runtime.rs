//! The graph runtime: instance scheduling, quiescence, deadline/
//! cancellation handling, retry policies, deadlock diagnostics, and the
//! pre-scheduling (tuner) machinery.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use recdp_forkjoin::{ThreadPool, ThreadPoolBuilder};
use recdp_trace::{panic_message, EventKind, StepId, StepOutcomeKind, Tracer};

use crate::checkpoint::{Checkpoint, ItemSnapshot};
use crate::error::{
    BlockedWait, CncError, DeadlockDiagnostic, FailureKind, StepAbort, StepFailure,
};
use crate::fault::{FaultAction, FaultInjector, FaultSite};
use crate::item::ItemCollection;
use crate::managed::{PickFn, ReadyTask, ScheduleEvent};
use crate::stats::{GraphStats, StatCounters};
use crate::tag::TagCollection;
use crate::StepResult;

/// How successive retry waits grow from the base
/// [`RetryPolicy::backoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffKind {
    /// The n-th retry waits `backoff * n` (the original schedule).
    Linear,
    /// The n-th retry waits `backoff * 2^(n-1)` — the classic doubling
    /// schedule for contended transient failures.
    Exponential,
}

/// Bounded re-execution budget for *transient* step failures (injected
/// chaos faults, lost messages). The default is one attempt: transient
/// failures abort the graph like permanent ones unless the environment
/// opts into retries with [`CncGraph::set_retry_policy`].
///
/// Backoff only changes *when* a retry runs, never *whether* it runs:
/// the retry counters (`steps_retried`, `faults_injected`) are bumped
/// before the sleep, so every schedule — including seeded jitter — keeps
/// the seed-replay stats guarantees of the chaos suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per instance (initial run + retries).
    /// Must be at least 1.
    pub max_attempts: u32,
    /// Base backoff slept on the worker before a retry, grown per
    /// [`RetryPolicy::kind`]. Zero disables waiting.
    pub backoff: Duration,
    /// Growth schedule for successive waits (default linear).
    pub kind: BackoffKind,
    /// Seeded deterministic jitter: with `Some(seed)` each wait is
    /// scaled by a factor in `[0.5, 1.5)` derived purely from the seed
    /// and the retry site (step name, tag hash, attempt number), so the
    /// same seed yields the same sleeps in every replay — decorrelating
    /// concurrent retries without a shared RNG. `None` disables jitter.
    pub jitter_seed: Option<u64>,
}

impl RetryPolicy {
    /// Every grown backoff is clamped here so pathological
    /// `backoff * 2^n` products can never park a worker for hours.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(60);

    /// `max_attempts` executions with no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: Duration::ZERO,
            kind: BackoffKind::Linear,
            jitter_seed: None,
        }
    }

    /// Sets the base backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Switches to the exponential (doubling) schedule.
    pub fn exponential(mut self) -> Self {
        self.kind = BackoffKind::Exponential;
        self
    }

    /// Arms seeded deterministic jitter.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The wait before the `attempt`-th retry (1-based) of the given
    /// retry site. Pure: depends only on the policy and the arguments,
    /// so replays sleep identically.
    pub fn delay(&self, step: &str, tag_hash: u64, attempt: u32) -> Duration {
        let attempt = attempt.max(1);
        let base = match self.kind {
            BackoffKind::Linear => self
                .backoff
                .checked_mul(attempt)
                .unwrap_or(Self::MAX_BACKOFF),
            BackoffKind::Exponential => {
                // 2^(n-1), exponent capped well before the Duration
                // clamp below could matter.
                let factor = 1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX);
                self.backoff
                    .checked_mul(factor)
                    .unwrap_or(Self::MAX_BACKOFF)
            }
        }
        .min(Self::MAX_BACKOFF);
        match self.jitter_seed {
            None => base,
            Some(seed) => {
                let x = jitter_mix(seed ^ jitter_mix(str_hash(step)) ^ jitter_mix(tag_hash))
                    ^ jitter_mix(attempt as u64);
                let unit = (jitter_mix(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                base.mul_f64(0.5 + unit)
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::attempts(1)
    }
}

/// `splitmix64` finalizer for the jitter rolls — deterministic, cheap,
/// and independent of any shared RNG state.
fn jitter_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a step name, for the jitter site key.
fn str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A handle for cancelling a running graph from the environment (another
/// thread, a signal handler, a watchdog). Cheap to clone; holds the
/// runtime weakly, so it never keeps a dropped graph alive.
#[derive(Clone)]
pub struct CancelToken {
    core: Weak<RuntimeCore>,
}

impl CancelToken {
    /// Cancels the graph: queued instances drain without executing and
    /// every current and future `wait` returns
    /// [`CncError::Cancelled`]. No-op if the graph already finished,
    /// failed, or was dropped (the first recorded error wins).
    pub fn cancel(&self, reason: impl Into<String>) {
        if let Some(core) = self.core.upgrade() {
            core.record_error(CncError::Cancelled {
                reason: reason.into(),
            });
        }
    }
}

/// A CnC graph: the factory for collections and the home of the runtime
/// (thread pool, quiescence tracking, statistics).
///
/// Collections created from a graph are cheap cloneable handles that can
/// be captured by step bodies. After the environment has put its initial
/// items and tags, [`CncGraph::wait`] blocks until the computation
/// quiesces.
pub struct CncGraph {
    /// `None` in managed mode (see [`CncGraph::managed`]): no worker
    /// threads exist and every ready task runs inline on the thread that
    /// drives the graph.
    pub(crate) pool: Option<Arc<ThreadPool>>,
    pub(crate) core: Arc<RuntimeCore>,
}

impl CncGraph {
    /// A graph executing on a fresh pool with the default thread count.
    pub fn new() -> Self {
        Self::with_pool(Arc::new(ThreadPoolBuilder::new().build()))
    }

    /// A graph executing on a fresh pool of `n` threads.
    pub fn with_threads(n: usize) -> Self {
        Self::with_pool(Arc::new(ThreadPoolBuilder::new().num_threads(n).build()))
    }

    /// A graph executing on an existing pool (several graphs may share
    /// one pool, as CnC programs share a TBB arena).
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        let core = RuntimeCore::build(Arc::downgrade(&pool), None);
        CncGraph {
            pool: Some(pool),
            core,
        }
    }

    /// Creates an item collection (a single-assignment associative
    /// container) named `name` (names are for diagnostics only).
    pub fn item_collection<K, V>(&self, name: &'static str) -> ItemCollection<K, V>
    where
        K: std::hash::Hash + Eq + Clone + std::fmt::Debug + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        ItemCollection::new(name, Arc::clone(&self.core))
    }

    /// Creates a tag collection. Prescribe step collections onto it with
    /// [`TagCollection::prescribe`], then trigger instances with
    /// [`TagCollection::put`].
    pub fn tag_collection<T>(&self, name: &'static str) -> TagCollection<T>
    where
        T: std::hash::Hash + Clone + Send + Sync + 'static,
    {
        TagCollection::new(name, Arc::clone(&self.core))
    }

    /// Sets the retry budget for transient step failures (see
    /// [`RetryPolicy`]). Like the fault injector it is frozen at the
    /// graph's first put: setting it later panics.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        assert!(
            policy.max_attempts >= 1,
            "RetryPolicy::max_attempts must be >= 1"
        );
        self.core.configure_steps(|c| c.retry_policy = policy);
    }

    /// Arms a deadline that every subsequent [`CncGraph::wait`] respects
    /// (measured from the moment `wait` is entered). Lets code that calls
    /// `wait` internally — e.g. the kernel drivers — inherit a timeout
    /// configured by the environment.
    pub fn set_deadline(&self, deadline: Duration) {
        self.core.config.lock().deadline = Some(deadline);
    }

    /// Installs a fault injector consulted before every step-body
    /// execution and item put (see [`crate::FaultInjector`]). Steps read
    /// a snapshot frozen at the graph's first put, so install it before
    /// putting anything: installing it later panics.
    pub fn set_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.core
            .configure_steps(|c| c.fault_injector = Some(injector));
    }

    /// Installs an event tracer. Step executions record `StepRun` spans
    /// (with outcome), failed blocking gets record `BlockedGet` instants
    /// paired with `Resume` instants when the dependencies arrive, and
    /// transient-failure retries record `StepRetry` instants. The first
    /// call wins; later calls are ignored. Without a tracer every
    /// instrumentation site is a single branch on `None`.
    ///
    /// Share the same [`Tracer`] with the pool
    /// ([`recdp_forkjoin::ThreadPoolBuilder::tracer`]) to see step spans
    /// and worker idle time on the same timeline.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.core.tracer.set(tracer);
    }

    /// A token for cancelling this graph from the environment.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            core: Arc::downgrade(&self.core),
        }
    }

    /// Installs a *verdict probe*: test instrumentation invoked by
    /// [`CncGraph::wait`] inside the deadlock-candidate window — after
    /// the wait-for diagnostic scan, before the verdict re-check. The
    /// quiescence lock is not held, so the probe may put items and (on a
    /// managed graph) drive resumed instances, which is exactly how the
    /// schedule-exploration harness reproduces verdict races
    /// deterministically. Production code has no reason to call this.
    pub fn set_wait_probe(&self, probe: impl Fn() + Send + Sync + 'static) {
        self.core.config.lock().wait_probe = Some(Arc::new(probe));
    }

    /// Blocks until the graph quiesces: no step instance is queued or
    /// running. Returns the execution statistics, or the first recorded
    /// error — including [`CncError::Deadlock`] (with a wait-for
    /// diagnostic naming each parked step and missing item) if instances
    /// are still parked on items that will never be put. Respects a
    /// deadline armed with [`CncGraph::set_deadline`].
    ///
    /// A deadlock verdict is *not* sticky: it is re-derived on every
    /// call, so an environment put made after a `Deadlock` return
    /// unparks the consumers and a later `wait` can succeed.
    ///
    /// Call this after the environment has finished its puts. The
    /// deadlock check tolerates an environment put racing it: every
    /// blocked -> pending resume advances a monotonic epoch, and the
    /// verdict is only returned if the epoch (and the counters) are
    /// unchanged across the whole check — a resumed instance that runs
    /// to completion mid-check restarts the loop instead of producing a
    /// spurious `Deadlock`. A put that arrives entirely after the
    /// verdict still yields a stale `Deadlock` — retry `wait` in that
    /// case.
    pub fn wait(&self) -> Result<GraphStats, CncError> {
        let deadline = self.core.config.lock().deadline;
        self.wait_inner(deadline)
    }

    /// [`CncGraph::wait`] with an explicit deadline: if the graph has not
    /// quiesced within `deadline`, records [`CncError::Timeout`] (further
    /// queued instances drain without executing) and returns it.
    pub fn wait_deadline(&self, deadline: Duration) -> Result<GraphStats, CncError> {
        self.wait_inner(Some(deadline))
    }

    fn wait_inner(&self, deadline: Option<Duration>) -> Result<GraphStats, CncError> {
        let expires_at = deadline.map(|d| Instant::now() + d);
        let mut guard = self.core.quiesce_mutex.lock();
        loop {
            if let Some(err) = self.core.error.lock().clone() {
                return Err(err);
            }
            // Read the resume epoch before the counters: a deadlock
            // verdict is only returned if the epoch is still unchanged
            // after the diagnostic scan (see below).
            let epoch = self.core.resume_epoch.load(Ordering::Acquire);
            if self.core.pending.load(Ordering::Acquire) == 0 {
                let blocked = self.core.blocked.load(Ordering::Acquire);
                if blocked == 0 {
                    // Re-check pending: a blocked->pending resume
                    // increments pending before decrementing blocked, so
                    // observing blocked == 0 here with pending == 0 means
                    // no resume is in flight.
                    if self.core.pending.load(Ordering::Acquire) == 0 {
                        return Ok(self.core.stats.snapshot());
                    }
                    continue;
                }
                // Candidate deadlock. Drop the quiescence lock before
                // scanning collections (probes take shard locks, and
                // put paths take shard locks before the quiescence
                // lock — holding both here would invert that order).
                drop(guard);
                let diagnostic = self.core.deadlock_diagnostic();
                // Verdict probe (test instrumentation): runs in the
                // exact window a racing environment put would occupy,
                // so the schedule-exploration harness can reproduce
                // verdict races on demand (see `set_wait_probe`).
                let probe = self.core.config.lock().wait_probe.clone();
                if let Some(probe) = probe {
                    probe();
                }
                // Confirm the stall survived the scan. Re-reading the
                // counters alone is not enough: a resumed instance can
                // run to full retirement between any two loads (pending
                // pulses 0 -> 1 -> 0, blocked drops to 0 and a later
                // park raises it again), leaving both counters looking
                // stalled even though the graph made progress — or
                // quiesced outright. Every resume advances
                // `resume_epoch`, so an unchanged epoch across the whole
                // observation window proves no parked instance was
                // unparked and the stall is genuine.
                #[cfg(not(feature = "check-regressions"))]
                let epoch_unchanged = self.core.resume_epoch.load(Ordering::Acquire) == epoch;
                // Regression toggle: revert to the pre-guard verdict
                // (counters only) so `recdp-check` can demonstrate the
                // spurious-deadlock schedule this epoch check fixed.
                #[cfg(feature = "check-regressions")]
                let epoch_unchanged = {
                    let _ = epoch;
                    true
                };
                let still_blocked = self.core.blocked.load(Ordering::Acquire);
                if self.core.pending.load(Ordering::Acquire) == 0
                    && still_blocked > 0
                    && epoch_unchanged
                    && self.core.error.lock().is_none()
                {
                    return Err(CncError::Deadlock {
                        blocked_instances: still_blocked,
                        diagnostic,
                    });
                }
                guard = self.core.quiesce_mutex.lock();
                continue;
            }
            if self.core.is_managed() {
                // Managed mode: no worker threads exist, so `wait`
                // drives the ready queue itself, one scheduler-chosen
                // instance at a time. The quiescence lock is released
                // around the body (puts re-enter the runtime).
                drop(guard);
                if let Some(at) = expires_at {
                    if Instant::now() >= at {
                        let pending = self.core.pending.load(Ordering::Acquire);
                        let blocked = self.core.blocked.load(Ordering::Acquire);
                        let err = CncError::Timeout {
                            deadline: deadline.expect("deadline expired without a deadline"),
                            pending,
                            blocked,
                        };
                        self.core.record_error(err.clone());
                        return Err(err);
                    }
                }
                // No-lost-wakeup oracle: with a single driving thread,
                // `pending > 0` means the ready queue must be
                // non-empty — an empty queue here would be a dropped
                // dispatch.
                assert!(
                    self.core.run_managed_one(),
                    "managed graph has pending instances but an empty ready queue \
                     (lost wakeup)"
                );
                guard = self.core.quiesce_mutex.lock();
                continue;
            }
            match expires_at {
                None => self.core.quiesce_cond.wait(&mut guard),
                Some(at) => {
                    if self
                        .core
                        .quiesce_cond
                        .wait_until(&mut guard, at)
                        .timed_out()
                    {
                        // One final look before declaring the timeout:
                        // the graph may have quiesced (or failed) right
                        // at the wire.
                        if let Some(err) = self.core.error.lock().clone() {
                            return Err(err);
                        }
                        let pending = self.core.pending.load(Ordering::Acquire);
                        let blocked = self.core.blocked.load(Ordering::Acquire);
                        if pending == 0 && blocked == 0 {
                            return Ok(self.core.stats.snapshot());
                        }
                        drop(guard);
                        let err = CncError::Timeout {
                            deadline: deadline.expect("timed out without a deadline"),
                            pending,
                            blocked,
                        };
                        self.core.record_error(err.clone());
                        return Err(err);
                    }
                }
            }
        }
    }

    /// A CnC-specification-style description of the graph: one line per
    /// collection and prescription, in creation order (the textual
    /// `<tags> :: (step); [items] -> ...` notation of the paper's
    /// Listing 1/4).
    pub fn spec(&self) -> String {
        let mut out = String::from("// CnC graph specification\n");
        for line in self.core.spec.lock().iter() {
            match *line {
                SpecLine::Items(name) => writeln!(out, "[{name}];"),
                SpecLine::Tags(name) => writeln!(out, "<{name}>;"),
                SpecLine::Prescribes(tags, step) => writeln!(out, "<{tags}> :: ({step});"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Records one non-blocking-get self-respawn (a step re-put its own
    /// tag after `try_get` found an input missing). Exposed so step
    /// bodies using the non-blocking style keep the wasted-work
    /// accounting comparable with the blocking style's requeue counter.
    pub fn record_nb_retry(&self) {
        crate::stats::bump(&self.core.stats.nb_retries);
    }

    /// A snapshot of the execution counters (callable at any time).
    pub fn stats(&self) -> GraphStats {
        self.core.stats.snapshot()
    }

    /// Number of threads in the underlying pool (1 for a managed graph,
    /// which runs every instance inline on the driving thread).
    pub fn num_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.num_threads())
    }

    /// Snapshots the graph's progress as a [`Checkpoint`]: every ready
    /// item of every collection plus the set of completed data-producing
    /// steps (see [`crate::checkpoint`] for why that pair is a consistent
    /// cut). In-flight instances are drained first (bounded wait, skipped
    /// for managed graphs where nothing runs concurrently with the
    /// caller), so no step body is mid-execution while the snapshot is
    /// taken. Call after an aborted `wait` (deadline, cancellation,
    /// worker loss) and install the result on a *fresh* graph with
    /// [`CncGraph::resume_from`].
    pub fn checkpoint(&self) -> Checkpoint {
        self.drain();
        let items: Vec<ItemSnapshot> = self
            .core
            .live_collections()
            .iter()
            .filter_map(|c| c.snapshot())
            .collect();
        let mut executed: HashSet<(&'static str, u64)> = HashSet::new();
        for shard in &self.core.executed_log {
            executed.extend(shard.lock().iter().copied());
        }
        if let Some(skips) = self.core.skip_set.get() {
            // Checkpointing a *resumed* graph carries the inherited skip
            // set forward: those steps are still completed.
            executed.extend(skips.iter().copied());
        }
        Checkpoint { items, executed }
    }

    /// Waits (bounded) for in-flight instances to retire. Error-path
    /// waits (deadline, cancellation, deadlock) return while instances
    /// may still be queued; fail-fast makes those retire in
    /// microseconds, so the bound exists only to avoid masking a genuine
    /// runtime hang. Managed graphs run inline: nothing is in flight.
    fn drain(&self) {
        if self.pool.is_none() {
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let (cond, pending) = (&self.core.quiesce_cond, &self.core.pending);
        let mut guard = self.core.quiesce_mutex.lock();
        while pending.load(Ordering::Acquire) > 0 {
            if cond.wait_until(&mut guard, deadline).timed_out() {
                break;
            }
        }
    }

    /// Installs `checkpoint` on this graph: item collections created
    /// afterwards are pre-seeded with the snapshotted ready items
    /// (counted in [`GraphStats::items_restored`]), and step instances
    /// the checkpoint records as completed retire without executing
    /// their bodies (counted in [`GraphStats::steps_skipped`]).
    ///
    /// Call it on a fresh graph *before* creating any collection, then
    /// re-register the same collections, steps, and environment puts as
    /// the original run and call [`CncGraph::wait`]: only unproduced
    /// steps re-execute, and single assignment guarantees the result is
    /// bit-identical to an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics if a collection was already created on this graph, or if
    /// called twice.
    pub fn resume_from(&self, checkpoint: &Checkpoint) {
        assert!(
            self.core.spec.lock().is_empty(),
            "resume_from must be called before any collection is created"
        );
        assert!(
            self.core
                .skip_set
                .set(Arc::new(checkpoint.executed.clone()))
                .is_ok(),
            "resume_from called twice on the same graph"
        );
        let mut seeds = self.core.resume_seeds.lock();
        for snap in &checkpoint.items {
            seeds.insert(snap.name, snap.clone());
        }
    }
}

impl Default for CncGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CncGraph {
    /// Drains in-flight instances, then releases every prescribed step
    /// body and parked instance. Without the drain, the pool's last
    /// handle could drop with jobs still queued, tripping its
    /// dropped-work debug check for work fail-fast was about to discard.
    /// Without the release, a body that captures its own collections —
    /// the CnC recursion idiom — keeps them, itself and the core alive
    /// forever; the handle is the one owner outside that cycle.
    fn drop(&mut self) {
        self.drain();
        self.core.teardown();
    }
}

/// One parked dependency reported by a collection's diagnostic probe.
pub(crate) struct ProbeWait {
    /// Identity of the parked instance (stable per instance across its
    /// countdowns, so multi-item waits group correctly).
    pub(crate) instance: usize,
    pub(crate) step: &'static str,
    pub(crate) collection: &'static str,
    pub(crate) key: String,
}

/// What the runtime asks of the collections created on it. Implemented
/// by each collection's shared state, which the core holds weakly: a
/// collection belongs to its handles (the environment's, and the ones
/// step bodies capture) and holds the core, not the other way round.
pub(crate) trait CollectionHooks: Send + Sync {
    /// Appends the instances parked on this collection's wait lists.
    fn parked(&self, _out: &mut Vec<ProbeWait>) {}

    /// This collection's ready items (item collections only).
    fn snapshot(&self) -> Option<ItemSnapshot> {
        None
    }

    /// Releases what may hold a handle back to a collection: prescribed
    /// step bodies, parked instances.
    fn teardown(&self);
}

/// One line of [`CncGraph::spec`], kept as names and rendered on demand.
pub(crate) enum SpecLine {
    Items(&'static str),
    Tags(&'static str),
    Prescribes(&'static str, &'static str),
}

/// What steps read of the configuration, frozen at the first put so
/// they never take the configuration lock.
#[derive(Clone, Default)]
struct StepConfig {
    retry_policy: RetryPolicy,
    fault_injector: Option<Arc<dyn FaultInjector>>,
}

/// Everything the environment can set on a graph.
#[derive(Default)]
struct GraphConfig {
    steps: StepConfig,
    deadline: Option<Duration>,
    /// See [`CncGraph::set_wait_probe`].
    wait_probe: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// Shards of the completed-step log, by tag hash (few: each is a lock
/// to create per graph, and held only for a push).
const LOG_SHARDS: usize = 4;

/// Shared runtime state. The [`CncGraph`] handle, every collection and
/// every step instance hold the core; the core holds the collections
/// and the pool weakly, so the graph owner controls the pool's lifetime.
/// Collections hold prescriptions and wait lists, those hold step
/// bodies, and bodies usually hold collection handles again — the one
/// cycle, cut by `teardown`: a graph's step bodies and parked instances
/// die with its `CncGraph` handle.
pub(crate) struct RuntimeCore {
    pool: Weak<ThreadPool>,
    /// Collections and prescriptions in creation order (the Listing-4
    /// style specification).
    pub(crate) spec: Mutex<Vec<SpecLine>>,
    /// Every collection created on the graph, held weakly.
    collections: Mutex<Vec<Weak<dyn CollectionHooks>>>,
    /// Step executions queued or running.
    pending: AtomicUsize,
    /// Step instances parked on wait lists / pre-scheduling countdowns.
    blocked: AtomicUsize,
    /// Monotonic count of blocked -> pending resumes. The deadlock check
    /// brackets its counter reads with two loads of this epoch: `pending`
    /// and `blocked` can each pulse up and back down unobserved between
    /// two reads, but a resume can never hide — it always advances the
    /// epoch — so an unchanged epoch proves no parked instance ran (and
    /// possibly retired) while the verdict was being formed.
    resume_epoch: AtomicUsize,
    quiesce_mutex: Mutex<()>,
    quiesce_cond: Condvar,
    error: Mutex<Option<CncError>>,
    /// Set once `error` is: what the step path tests instead of locking.
    failed: AtomicBool,
    config: Mutex<GraphConfig>,
    /// `config.steps` as of the first put.
    frozen: OnceLock<StepConfig>,
    /// Managed-mode state: present iff the graph was built with
    /// [`CncGraph::managed`]. Ready instances queue here instead of
    /// being spawned onto a pool, and a scheduler callback owns every
    /// "which instance runs next" decision.
    managed: Option<ManagedState>,
    /// Event tracer, installed at most once via [`CncGraph::set_tracer`].
    /// `None` keeps every instrumentation site a single branch.
    tracer: OnceLock<Arc<Tracer>>,
    /// Completed executions that put no tags: `(step name, tag hash)`,
    /// appended here and folded into a set by [`CncGraph::checkpoint`].
    /// The data-producing steps a checkpoint records and a resumed run
    /// skips (tag-putting expansion steps re-run instead; see
    /// [`crate::checkpoint`]).
    executed_log: [Mutex<Vec<(&'static str, u64)>>; LOG_SHARDS],
    /// Steps a checkpoint installed by [`CncGraph::resume_from`] marks
    /// as already completed: instances whose identity is in the set
    /// retire without executing their bodies.
    skip_set: OnceLock<Arc<HashSet<(&'static str, u64)>>>,
    /// Per-collection-name item snapshots installed by
    /// [`CncGraph::resume_from`], consumed by `ItemCollection::new` when
    /// the matching collection is re-created on the resumed graph.
    resume_seeds: Mutex<HashMap<&'static str, ItemSnapshot>>,
    pub(crate) stats: StatCounters,
}

/// The managed scheduler's state: the ready queue, the pick callback,
/// and the schedule trace (one event per executed instance, in order).
pub(crate) struct ManagedState {
    queue: Mutex<Vec<Arc<InstanceTask>>>,
    picker: Mutex<PickFn>,
    trace: Mutex<Vec<ScheduleEvent>>,
}

impl RuntimeCore {
    /// Builds a core. `managed == Some` puts the graph in managed mode:
    /// ready instances queue instead of spawning, and the pool (if any)
    /// is never used for step execution.
    pub(crate) fn build(pool: Weak<ThreadPool>, managed: Option<PickFn>) -> Arc<Self> {
        Arc::new(RuntimeCore {
            pool,
            spec: Mutex::default(),
            collections: Mutex::default(),
            pending: AtomicUsize::new(0),
            blocked: AtomicUsize::new(0),
            resume_epoch: AtomicUsize::new(0),
            quiesce_mutex: Mutex::new(()),
            quiesce_cond: Condvar::new(),
            error: Mutex::new(None),
            failed: AtomicBool::new(false),
            config: Mutex::default(),
            frozen: OnceLock::new(),
            managed: managed.map(|picker| ManagedState {
                queue: Mutex::new(Vec::new()),
                picker: Mutex::new(picker),
                trace: Mutex::new(Vec::new()),
            }),
            tracer: OnceLock::new(),
            executed_log: std::array::from_fn(|_| Mutex::default()),
            skip_set: OnceLock::new(),
            resume_seeds: Mutex::new(HashMap::new()),
            stats: StatCounters::default(),
        })
    }

    pub(crate) fn is_managed(&self) -> bool {
        self.managed.is_some()
    }

    /// Snapshot of the managed ready queue, in queue order.
    pub(crate) fn managed_ready(&self) -> Vec<ReadyTask> {
        let m = self.managed.as_ref().expect("not a managed graph");
        m.queue
            .lock()
            .iter()
            .map(|t| ReadyTask {
                step: t.step_name(),
                tag_hash: t.tag_hash(),
            })
            .collect()
    }

    /// The schedule executed so far (managed graphs only).
    pub(crate) fn managed_trace(&self) -> Vec<ScheduleEvent> {
        let m = self.managed.as_ref().expect("not a managed graph");
        m.trace.lock().clone()
    }

    pub(crate) fn blocked_count(&self) -> usize {
        self.blocked.load(Ordering::Acquire)
    }

    /// Runs one ready instance chosen by the installed picker. Returns
    /// false if the ready queue is empty.
    pub(crate) fn run_managed_one(self: &Arc<Self>) -> bool {
        let m = self.managed.as_ref().expect("not a managed graph");
        let idx = {
            let q = m.queue.lock();
            if q.is_empty() {
                return false;
            }
            let ready: Vec<ReadyTask> = q
                .iter()
                .map(|t| ReadyTask {
                    step: t.step_name(),
                    tag_hash: t.tag_hash(),
                })
                .collect();
            drop(q);
            (m.picker.lock())(&ready)
        };
        self.run_managed_nth(idx)
    }

    /// Runs the `idx`-th queued instance (queue order), bypassing the
    /// picker. Returns false if the queue is empty; panics on an
    /// out-of-range index (a scheduler bug worth failing loudly on).
    pub(crate) fn run_managed_nth(self: &Arc<Self>, idx: usize) -> bool {
        let m = self.managed.as_ref().expect("not a managed graph");
        let task = {
            let mut q = m.queue.lock();
            if q.is_empty() {
                return false;
            }
            assert!(
                idx < q.len(),
                "scheduler picked instance {idx} of a {}-deep ready queue",
                q.len()
            );
            q.remove(idx)
        };
        m.trace.lock().push(ScheduleEvent {
            step: task.step_name(),
            tag_hash: task.tag_hash(),
        });
        task.run();
        true
    }
    /// Records the first error; later errors are dropped.
    pub(crate) fn record_error(&self, err: CncError) {
        let mut slot = self.error.lock();
        slot.get_or_insert(err);
        // Release, paired with the acquire load in `error_pending`: a
        // step that sees the flag also sees the error it stands for.
        self.failed.store(true, Ordering::Release);
        drop(slot);
        self.notify_quiescence();
    }

    pub(crate) fn error_pending(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Records a new collection: its specification line and its hooks.
    pub(crate) fn register_collection(&self, line: SpecLine, hooks: Weak<dyn CollectionHooks>) {
        self.spec.lock().push(line);
        self.collections.lock().push(hooks);
    }

    /// The collections that are still alive, in creation order.
    fn live_collections(&self) -> Vec<Arc<dyn CollectionHooks>> {
        let collections = self.collections.lock();
        collections.iter().filter_map(Weak::upgrade).collect()
    }

    /// Cuts every reference the graph's contents hold on it (the wait
    /// probe may capture collections too). Tag puts afterwards find
    /// nothing prescribed and do nothing.
    fn teardown(&self) {
        if let Some(m) = &self.managed {
            drop(std::mem::take(&mut *m.queue.lock()));
        }
        self.live_collections().iter().for_each(|c| c.teardown());
        drop(std::mem::take(&mut *self.config.lock()));
    }

    /// Applies an environment `set_*` call to the step configuration.
    fn configure_steps(&self, set: impl FnOnce(&mut StepConfig)) {
        let mut config = self.config.lock();
        assert!(
            self.frozen.get().is_none(),
            "retry policy and fault injector must be set before the graph's first put"
        );
        set(&mut config.steps);
    }

    /// The step configuration, frozen on first use (the first put).
    fn step_config(&self) -> &StepConfig {
        let freeze = || self.config.lock().steps.clone();
        self.frozen.get_or_init(freeze)
    }

    /// Removes and returns the resume seed for collection `name`, if a
    /// checkpoint installed one (type-erased `Arc<Vec<(K, V)>>`).
    pub(crate) fn take_resume_seed(
        &self,
        name: &'static str,
    ) -> Option<Arc<dyn Any + Send + Sync>> {
        self.resume_seeds.lock().remove(name).map(|s| s.data)
    }

    /// True when an installed checkpoint records this instance as
    /// already completed (its body must not run again).
    pub(crate) fn should_skip(&self, step: &'static str, tag_hash: u64) -> bool {
        self.skip_set
            .get()
            .is_some_and(|s| s.contains(&(step, tag_hash)))
    }

    /// The installed fault injector, if any.
    pub(crate) fn injector(&self) -> Option<&Arc<dyn FaultInjector>> {
        self.step_config().fault_injector.as_ref()
    }

    pub(crate) fn count_injected_fault(&self) {
        crate::stats::bump(&self.stats.faults_injected);
    }

    pub(crate) fn count_injected_delay(&self) {
        crate::stats::bump(&self.stats.delays_injected);
    }

    /// Scans every collection for parked waiters and assembles the
    /// wait-for diagnostic. Called without the quiescence lock held.
    fn deadlock_diagnostic(&self) -> DeadlockDiagnostic {
        let mut raw: Vec<ProbeWait> = Vec::new();
        for collection in self.live_collections() {
            collection.parked(&mut raw);
        }
        build_diagnostic(raw)
    }

    fn notify_quiescence(&self) {
        let _g = self.quiesce_mutex.lock();
        self.quiesce_cond.notify_all();
    }

    /// Enqueues a ready instance onto the pool. `fair` routes through
    /// the global injector (used for non-blocking-get self-respawns so a
    /// retrying step cannot starve its own producers on a LIFO deque).
    pub(crate) fn enqueue(self: &Arc<Self>, task: Arc<InstanceTask>, fair: bool) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.dispatch(task, fair);
    }

    /// Dispatches a task whose `pending` slot is already counted.
    fn dispatch(self: &Arc<Self>, task: Arc<InstanceTask>, fair: bool) {
        if let Some(m) = &self.managed {
            // Managed mode: the scheduler owns all ordering, including
            // the fair/LIFO distinction the pool would otherwise make —
            // `fair` is deliberately ignored so retry ordering is a
            // schedule-exploration dimension, not a fixed policy.
            let _ = fair;
            m.queue.lock().push(task);
            return;
        }
        match self.pool.upgrade() {
            Some(pool) if fair => pool.spawn_global(move || task.run()),
            Some(pool) => pool.spawn(move || task.run()),
            None => {
                // Pool gone (graph dropped): account the instance as done
                // so a straggling `wait` cannot hang.
                drop(task);
                self.finish_one();
            }
        }
    }

    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.notify_quiescence();
        }
    }
}

/// Builds the user-facing diagnostic from the raw probe output: a sorted
/// wait list plus the longest alternating instance/item path through
/// shared missing items.
fn build_diagnostic(raw: Vec<ProbeWait>) -> DeadlockDiagnostic {
    let mut waits: Vec<BlockedWait> = raw
        .iter()
        .map(|w| BlockedWait {
            step: w.step,
            collection: w.collection,
            key: w.key.clone(),
        })
        .collect();
    waits.sort_by(|a, b| (a.step, a.collection, &a.key).cmp(&(b.step, b.collection, &b.key)));
    waits.dedup();
    DeadlockDiagnostic {
        longest_chain: longest_chain(&raw),
        waits,
    }
}

/// Longest simple alternating path in the bipartite instance/item
/// wait-for graph, rendered as display strings. Budgeted DFS: the exact
/// longest path is exponential in the worst case, so exploration stops
/// after a fixed number of extensions and reports the best path found.
fn longest_chain(raw: &[ProbeWait]) -> Vec<String> {
    if raw.is_empty() {
        return Vec::new();
    }
    // Index instances and items.
    let mut inst_ids: HashMap<usize, usize> = HashMap::new();
    let mut inst_label: Vec<String> = Vec::new();
    let mut item_ids: HashMap<(&'static str, &str), usize> = HashMap::new();
    let mut item_label: Vec<String> = Vec::new();
    let mut inst_edges: Vec<Vec<usize>> = Vec::new();
    let mut item_edges: Vec<Vec<usize>> = Vec::new();
    for w in raw {
        let ii = *inst_ids.entry(w.instance).or_insert_with(|| {
            inst_label.push(format!("({})", w.step));
            inst_edges.push(Vec::new());
            inst_label.len() - 1
        });
        let ki = *item_ids
            .entry((w.collection, w.key.as_str()))
            .or_insert_with(|| {
                item_label.push(format!("[{}] {}", w.collection, w.key));
                item_edges.push(Vec::new());
                item_label.len() - 1
            });
        inst_edges[ii].push(ki);
        item_edges[ki].push(ii);
    }

    struct Dfs<'a> {
        inst_edges: &'a [Vec<usize>],
        item_edges: &'a [Vec<usize>],
        inst_seen: Vec<bool>,
        item_seen: Vec<bool>,
        budget: usize,
        best: Vec<(bool, usize)>,
        path: Vec<(bool, usize)>,
    }
    impl Dfs<'_> {
        fn visit_inst(&mut self, i: usize) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.inst_seen[i] = true;
            self.path.push((true, i));
            if self.path.len() > self.best.len() {
                self.best = self.path.clone();
            }
            for &k in &self.inst_edges[i] {
                if !self.item_seen[k] {
                    self.visit_item(k);
                }
            }
            self.path.pop();
            self.inst_seen[i] = false;
        }
        fn visit_item(&mut self, k: usize) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.item_seen[k] = true;
            self.path.push((false, k));
            if self.path.len() > self.best.len() {
                self.best = self.path.clone();
            }
            for &i in &self.item_edges[k] {
                if !self.inst_seen[i] {
                    self.visit_inst(i);
                }
            }
            self.path.pop();
            self.item_seen[k] = false;
        }
    }
    let mut dfs = Dfs {
        inst_edges: &inst_edges,
        item_edges: &item_edges,
        inst_seen: vec![false; inst_edges.len()],
        item_seen: vec![false; item_edges.len()],
        budget: 4096,
        best: Vec::new(),
        path: Vec::new(),
    };
    for i in 0..inst_edges.len() {
        dfs.visit_inst(i);
    }
    dfs.best
        .iter()
        .map(|&(is_inst, idx)| {
            if is_inst {
                inst_label[idx].clone()
            } else {
                item_label[idx].clone()
            }
        })
        .collect()
}

/// One step instance: a prescribed step body bound to a tag value.
/// Re-executed from scratch (abort-and-retry) each time it is resumed.
pub(crate) struct InstanceTask {
    core: Arc<RuntimeCore>,
    step_name: &'static str,
    /// `step_name` interned in the graph's tracer (once per prescription),
    /// if one was installed when this instance was created.
    trace_step: Option<StepId>,
    /// Deterministic hash of the prescribing tag (fault-site identity).
    tag_hash: u64,
    /// Transient-failure retries taken so far. Blocked-get re-executions
    /// do not advance it: their count depends on timing and would make
    /// seeded fault decisions interleaving-dependent.
    attempts: AtomicU32,
    exec: Box<dyn Fn(&StepScope) -> StepResult + Send + Sync>,
}

impl InstanceTask {
    pub(crate) fn new(
        core: Arc<RuntimeCore>,
        step_name: &'static str,
        trace_step: &OnceLock<StepId>,
        tag_hash: u64,
        exec: Box<dyn Fn(&StepScope) -> StepResult + Send + Sync>,
    ) -> Arc<Self> {
        let trace_step = core
            .tracer
            .get()
            .map(|t| *trace_step.get_or_init(|| t.intern(step_name)));
        Arc::new(InstanceTask {
            core,
            step_name,
            trace_step,
            tag_hash,
            attempts: AtomicU32::new(0),
            exec,
        })
    }

    /// Schedules this instance for (re-)execution.
    pub(crate) fn enqueue(self: &Arc<Self>) {
        self.core.enqueue(Arc::clone(self), false);
    }

    /// Schedules this instance via the global injector (fair FIFO).
    pub(crate) fn enqueue_fair(self: &Arc<Self>) {
        self.core.enqueue(Arc::clone(self), true);
    }

    pub(crate) fn step_name(&self) -> &'static str {
        self.step_name
    }

    pub(crate) fn tag_hash(&self) -> u64 {
        self.tag_hash
    }

    /// This step's name in the graph's tracer.
    fn trace_id(&self, tracer: &Tracer) -> StepId {
        self.trace_step
            .unwrap_or_else(|| tracer.intern(self.step_name))
    }

    /// Executes (or drains) the instance, then retires it from
    /// `pending` — only after letting go of the step body: whoever sees
    /// the graph quiescent may drop it, and no body outlives that drop.
    fn run(self: Arc<Self>) {
        self.execute();
        let core = match Arc::try_unwrap(self) {
            Ok(task) => task.core,
            // Parked or re-enqueued: a countdown or queue owns it too.
            Err(shared) => Arc::clone(&shared.core),
        };
        core.finish_one();
    }

    fn execute(self: &Arc<Self>) {
        // Fail-fast: once the graph recorded an error (failure,
        // cancellation, timeout), drain without executing bodies.
        if self.core.error_pending() {
            return;
        }
        // Resume skip: a checkpoint installed via `resume_from` records
        // this instance as already completed. Its outputs were restored
        // into the item collections, so the body must not run again —
        // single assignment forbids re-putting them.
        if self.core.should_skip(self.step_name, self.tag_hash) {
            crate::stats::bump(&self.core.stats.steps_skipped);
            return;
        }
        crate::stats::bump(&self.core.stats.steps_started);
        let traced = self.core.tracer.get().map(|t| {
            let lane = t.lane();
            let step = self.trace_id(t);
            (lane.now(), lane, step)
        });
        let scope = StepScope {
            task: self,
            waiter: RefCell::new(None),
        };
        // Consult the fault injector *before* the body runs: a failed
        // execution has performed no gets or puts, so retrying it is
        // trivially idempotent and the graph's output stays bit-identical
        // to a fault-free run.
        let outcome = match self.consult_injector() {
            Some(abort) => Ok(Err(abort)),
            None => {
                BODY_PUTS.with(|c| c.set(Some(0)));
                BODY_TAG_PUTS.with(|c| c.set(Some(0)));
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.exec)(&scope)))
            }
        };
        // Puts the body published before returning (0 for injector-driven
        // aborts, which fire before the body runs). `take` resets the
        // slot to None so environment code on this thread is not counted.
        let body_puts = BODY_PUTS.with(|c| c.take()).unwrap_or(0);
        let body_tag_puts = BODY_TAG_PUTS.with(|c| c.take()).unwrap_or(0);
        let blocked_outcome = matches!(outcome, Ok(Err(StepAbort::Blocked)));
        let outcome_kind = match &outcome {
            Ok(Ok(_)) => StepOutcomeKind::Completed,
            Ok(Err(StepAbort::Blocked)) => StepOutcomeKind::Requeued,
            Ok(Err(StepAbort::Failed(_))) => StepOutcomeKind::Failed,
            Err(_) => StepOutcomeKind::Panicked,
        };
        // The span closes here, before failure routing, so it measures
        // the thread time this execution occupied — retry backoff sleeps
        // are charged to the (same-lane) re-execution's surroundings, not
        // to the aborted attempt.
        if let Some((t0, lane, step)) = traced {
            lane.span(
                EventKind::StepRun {
                    step,
                    tag: self.tag_hash,
                    outcome: outcome_kind,
                },
                t0,
            );
            if blocked_outcome {
                lane.instant(EventKind::BlockedGet {
                    instance: Arc::as_ptr(self) as usize as u64,
                });
            }
        }
        match outcome {
            Ok(Ok(_)) => {
                crate::stats::bump(&self.core.stats.steps_completed);
                // Only zero-tag-put completions enter the checkpoint log:
                // they are pure data producers whose effects the item
                // snapshot captures, so a resumed run can skip them. A
                // tag-putting execution is recursive expansion — it must
                // re-run on resume to rebuild the tag tree (and doing so
                // is safe precisely because it put no items).
                if body_tag_puts == 0 {
                    self.core.executed_log[self.tag_hash as usize % LOG_SHARDS]
                        .lock()
                        .push((self.step_name, self.tag_hash));
                }
            }
            Ok(Err(StepAbort::Blocked)) => {
                crate::stats::bump(&self.core.stats.steps_requeued);
            }
            Ok(Err(StepAbort::Failed(failure))) => {
                self.handle_failure(failure, body_puts);
            }
            Err(panic) => {
                let msg = panic_message(&*panic);
                self.core.record_error(CncError::StepPanicked(format!(
                    "[{}]: {msg}",
                    self.step_name
                )));
            }
        }
        // Release the waiter guard *before* retiring from `pending`, so
        // quiescence can never observe pending == 0 while this instance's
        // countdown is still unarmed. A waiter existing here together
        // with a non-Blocked outcome means the body swallowed a failed
        // blocking get instead of propagating it with `?` — the parked
        // countdown would later re-execute a completed instance (double
        // puts) or inflate the blocked counter forever; surface it as a
        // contract violation instead.
        let waiter = scope.waiter.borrow_mut().take();
        if let Some(waiter) = waiter {
            if !blocked_outcome {
                self.core.record_error(CncError::StepFailed {
                    step: self.step_name,
                    failure: StepFailure::permanent(
                        "step returned without propagating a failed blocking get \
                         (propagate StepAbort::Blocked with `?`)",
                    ),
                });
            }
            waiter.fire();
        }
    }

    /// Asks the installed injector what to do with this execution.
    fn consult_injector(&self) -> Option<StepAbort> {
        let injector = self.core.injector()?;
        let site = FaultSite {
            step: self.step_name,
            tag_hash: self.tag_hash,
            attempt: self.attempts.load(Ordering::Relaxed) + 1,
        };
        match injector.before_step(&site) {
            FaultAction::None => None,
            FaultAction::Delay(d) => {
                // Delays perturb timing, not outcomes, and are consulted
                // once per *execution* — including blocked-get
                // re-executions, whose count is interleaving-dependent.
                // They therefore count into `delays_injected`, never into
                // the replay-stable `faults_injected`.
                self.core.count_injected_delay();
                std::thread::sleep(d);
                None
            }
            FaultAction::FailTransient(msg) => {
                self.core.count_injected_fault();
                Some(StepAbort::transient(msg))
            }
            FaultAction::FailPermanent(msg) => {
                self.core.count_injected_fault();
                Some(StepAbort::permanent(msg))
            }
        }
    }

    /// Routes a structured failure: transient failures consume the retry
    /// budget and re-execute; permanent ones (and exhausted budgets)
    /// abort the graph with a structured error.
    ///
    /// `body_puts` is the number of puts the failing execution published
    /// before aborting. Retrying is only idempotent when it is zero — a
    /// re-executed body repeats its puts and trips the single-assignment
    /// check — so a transient failure after a put is escalated to a
    /// permanent one (with an explanatory message, the original failure's
    /// source preserved) instead of corrupting the graph on retry.
    fn handle_failure(self: &Arc<Self>, failure: StepFailure, body_puts: u64) {
        let failure = if failure.kind == FailureKind::Transient && body_puts > 0 {
            StepFailure {
                kind: FailureKind::Permanent,
                message: format!(
                    "transient failure after {body_puts} put(s) cannot be retried \
                     (a re-executed body would repeat its puts, violating single \
                     assignment; return StepAbort::transient before any put): {}",
                    failure.message
                ),
                source: failure.source,
            }
        } else {
            failure
        };
        if failure.kind == FailureKind::Permanent {
            self.core.record_error(CncError::StepFailed {
                step: self.step_name,
                failure,
            });
            return;
        }
        let policy = self.core.step_config().retry_policy;
        let attempts = self.attempts.fetch_add(1, Ordering::AcqRel) + 1;
        if attempts < policy.max_attempts {
            crate::stats::bump(&self.core.stats.steps_retried);
            if let Some(tracer) = self.core.tracer.get() {
                tracer.lane().instant(EventKind::StepRetry {
                    step: self.trace_id(tracer),
                    tag: self.tag_hash,
                });
            }
            let backoff = policy.delay(self.step_name, self.tag_hash, attempts);
            if !backoff.is_zero() {
                // Backoff is slept on the worker: this occupies a pool
                // thread, which is exactly the resilience overhead the
                // ablations measure. The retry counter and trace event
                // above precede the sleep, so backoff (and jitter) can
                // never perturb the replay-stable statistics.
                std::thread::sleep(backoff);
            }
            // Fair re-enqueue (global injector): the pending slot is
            // claimed before this execution retires below, so quiescence
            // can never slip through between failure and retry.
            self.core.enqueue(Arc::clone(self), true);
        } else if policy.max_attempts > 1 {
            self.core.record_error(CncError::RetryExhausted {
                step: self.step_name,
                attempts,
                failure,
            });
        } else {
            // No retry budget configured: a transient failure aborts the
            // graph just like a permanent one.
            self.core.record_error(CncError::StepFailed {
                step: self.step_name,
                failure,
            });
        }
    }
}

thread_local! {
    /// Externally-visible puts (items delivered, tags put) performed by
    /// the step body currently executing on this worker thread; `None`
    /// outside a body, so environment puts are not counted. Used to
    /// refuse retrying a body-originated transient failure that has
    /// already published effects: re-running it would repeat the puts,
    /// and single assignment forbids that.
    static BODY_PUTS: Cell<Option<u64>> = const { Cell::new(None) };

    /// Tag puts performed by the step body currently executing on this
    /// thread (a subset of `BODY_PUTS`); `None` outside a body. Used by
    /// checkpointing: only executions that put no tags are recorded as
    /// completed, so resume skips data producers and re-runs expansion
    /// (see [`crate::checkpoint`]).
    static BODY_TAG_PUTS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Notes one put made by the step body running on this thread (no-op on
/// environment threads). Called by item and tag collections.
pub(crate) fn note_body_put() {
    BODY_PUTS.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

/// Notes one *tag* put made by the step body running on this thread
/// (no-op on environment threads). Called by tag collections alongside
/// [`note_body_put`].
pub(crate) fn note_body_tag_put() {
    BODY_TAG_PUTS.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

/// The execution context handed to a step body. Blocking gets use it to
/// park the instance on missing items.
///
/// Discipline (same as Intel CnC): perform all `get`s *before* any `put`,
/// because a blocked step re-executes from scratch and would otherwise
/// re-put (tripping the single-assignment check).
pub struct StepScope<'a> {
    task: &'a Arc<InstanceTask>,
    /// Lazily-created countdown shared by every failed get of this
    /// execution, guarded by one token released when the body returns.
    waiter: RefCell<Option<Arc<Countdown>>>,
}

impl StepScope<'_> {
    /// The countdown to park on a missing item (creates it on first use;
    /// counts the instance as blocked).
    pub(crate) fn waiter(&self) -> Arc<Countdown> {
        let mut slot = self.waiter.borrow_mut();
        slot.get_or_insert_with(|| Countdown::arm(Arc::clone(self.task)))
            .clone()
    }

    /// Name of the executing step collection (diagnostics).
    pub fn step_name(&self) -> &'static str {
        self.task.step_name
    }
}

/// A countdown that resumes a parked instance when every registered
/// dependency has been satisfied (and the guard token released).
pub(crate) struct Countdown {
    remaining: AtomicUsize,
    task: Arc<InstanceTask>,
}

impl Countdown {
    /// Creates a countdown holding one guard token and marks the instance
    /// blocked.
    pub(crate) fn arm(task: Arc<InstanceTask>) -> Arc<Self> {
        task.core.blocked.fetch_add(1, Ordering::AcqRel);
        Arc::new(Countdown {
            remaining: AtomicUsize::new(1),
            task,
        })
    }

    /// Registers one more unsatisfied dependency. Must be called while
    /// the guard token is still held.
    pub(crate) fn add(&self) {
        let prev = self.remaining.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "countdown add after release");
    }

    /// Name of the parked step collection (deadlock diagnostics).
    pub(crate) fn step_name(&self) -> &'static str {
        self.task.step_name()
    }

    /// Identity of the parked instance: stable across the instance's
    /// countdowns, so a multi-item wait groups under one node in the
    /// wait-for graph.
    pub(crate) fn instance_id(&self) -> usize {
        Arc::as_ptr(&self.task) as usize
    }

    /// Releases one token; at zero, the instance is unparked and
    /// re-enqueued. The blocked -> pending transfer increments `pending`
    /// *before* decrementing `blocked`, so no observer can catch both
    /// counters at zero while a resume is in flight (a concurrent
    /// `wait()` would otherwise report spurious quiescence).
    pub(crate) fn fire(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let core = &self.task.core;
            // Advance the resume epoch first: the deadlock check uses it
            // to detect a resume that runs to retirement between its
            // counter reads (both counters would look unchanged).
            core.resume_epoch.fetch_add(1, Ordering::AcqRel);
            core.pending.fetch_add(1, Ordering::AcqRel);
            core.blocked.fetch_sub(1, Ordering::AcqRel);
            if let Some(tracer) = core.tracer.get() {
                tracer.lane().instant(EventKind::Resume {
                    instance: self.instance_id() as u64,
                });
            }
            core.dispatch(Arc::clone(&self.task), false);
        }
    }
}

/// A single dependency probe: registers a countdown if its item is
/// still missing.
type DepProbe = Box<dyn Fn(&Arc<Countdown>) + Send + Sync>;

/// A declared dependency set for pre-scheduled instances — the tuner
/// mechanism of Sec. III-D. Build one with [`DepSet::item`] calls, then
/// pass it to `TagCollection::put_when`: the prescribed step will only
/// be dispatched once every listed item exists, eliminating Native-CnC's
/// abort-and-retry re-executions.
#[derive(Default)]
pub struct DepSet {
    probes: Vec<DepProbe>,
}

impl DepSet {
    /// An empty dependency set (the step dispatches immediately).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds "item `key` of `collection` must exist" to the set.
    pub fn item<K, V>(mut self, collection: &ItemCollection<K, V>, key: K) -> Self
    where
        K: std::hash::Hash + Eq + Clone + std::fmt::Debug + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let collection = collection.clone();
        self.probes.push(Box::new(move |countdown| {
            collection.register_if_missing(&key, countdown);
        }));
        self
    }

    /// Number of declared dependencies.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// True if no dependencies are declared.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    pub(crate) fn register_all(&self, countdown: &Arc<Countdown>) {
        for probe in &self.probes {
            probe(countdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepOutcome;

    #[test]
    fn backoff_schedules_grow_as_documented() {
        let ms = Duration::from_millis;
        let linear = RetryPolicy::attempts(8).with_backoff(ms(10));
        assert_eq!(linear.delay("s", 0, 1), ms(10));
        assert_eq!(linear.delay("s", 0, 3), ms(30));
        let exp = linear.exponential();
        assert_eq!(exp.delay("s", 0, 1), ms(10));
        assert_eq!(exp.delay("s", 0, 2), ms(20));
        assert_eq!(exp.delay("s", 0, 5), ms(160));
        // Saturation: huge attempts clamp at the cap, never overflow.
        assert_eq!(exp.delay("s", 0, 63), RetryPolicy::MAX_BACKOFF);
        assert_eq!(linear.delay("s", 0, u32::MAX), RetryPolicy::MAX_BACKOFF);
        // Zero base stays zero under every schedule.
        assert_eq!(
            RetryPolicy::attempts(8).exponential().delay("s", 0, 9),
            Duration::ZERO
        );
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_site_sensitive() {
        let base = Duration::from_millis(100);
        let p = RetryPolicy::attempts(8)
            .with_backoff(base)
            .with_jitter(0xD1CE);
        let d = p.delay("stepA", 42, 1);
        assert_eq!(d, p.delay("stepA", 42, 1), "same site, same wait");
        assert!(
            d >= base / 2 && d < base * 3 / 2,
            "jitter in [0.5, 1.5): {d:?}"
        );
        // Different sites decorrelate.
        let others = [
            p.delay("stepA", 42, 2),
            p.delay("stepA", 43, 1),
            p.delay("stepB", 42, 1),
            RetryPolicy::attempts(8)
                .with_backoff(base)
                .with_jitter(0x5EED)
                .delay("stepA", 42, 1),
        ];
        assert!(
            others.iter().any(|&o| o != d),
            "jitter must vary across sites/seeds"
        );
    }

    #[test]
    fn empty_graph_waits_immediately() {
        let g = CncGraph::with_threads(2);
        let stats = g.wait().unwrap();
        assert_eq!(stats.steps_started, 0);
    }

    #[test]
    fn single_step_runs() {
        let g = CncGraph::with_threads(2);
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let out2 = out.clone();
        tags.prescribe("double", move |&n, _| {
            out2.put(n, n * 2)?;
            Ok(StepOutcome::Done)
        });
        for i in 0..10 {
            tags.put(i);
        }
        let stats = g.wait().unwrap();
        assert_eq!(stats.steps_completed, 10);
        assert_eq!(out.get_env(&7), Some(14));
    }

    #[test]
    fn blocking_get_resumes_on_put() {
        let g = CncGraph::with_threads(2);
        let input = g.item_collection::<u32, u32>("in");
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let (i2, o2) = (input.clone(), out.clone());
        tags.prescribe("plus1", move |&n, s| {
            let v = i2.get(s, &n)?;
            o2.put(n, v + 1)?;
            Ok(StepOutcome::Done)
        });
        tags.put(5); // step starts before its input exists: must block
        std::thread::sleep(std::time::Duration::from_millis(20));
        input.put(5, 100).unwrap();
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&5), Some(101));
        assert!(
            stats.steps_requeued >= 1,
            "the step must have blocked at least once"
        );
    }

    #[test]
    fn deadlock_detected_with_diagnostic() {
        let g = CncGraph::with_threads(2);
        let never = g.item_collection::<u32, u32>("never");
        let tags = g.tag_collection::<u32>("t");
        let n2 = never.clone();
        tags.prescribe("starved", move |&n, s| {
            let _ = n2.get(s, &n)?;
            Ok(StepOutcome::Done)
        });
        tags.put(1);
        tags.put(2);
        match g.wait() {
            Err(CncError::Deadlock {
                blocked_instances,
                diagnostic,
            }) => {
                assert_eq!(blocked_instances, 2);
                assert_eq!(diagnostic.waits.len(), 2);
                for w in &diagnostic.waits {
                    assert_eq!(w.step, "starved");
                    assert_eq!(w.collection, "never");
                }
                let keys: Vec<&str> = diagnostic.waits.iter().map(|w| w.key.as_str()).collect();
                assert!(keys.contains(&"1") && keys.contains(&"2"), "{keys:?}");
                assert!(!diagnostic.longest_chain.is_empty());
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn step_panic_reported() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("bad", move |_, _| panic!("kaput"));
        tags.put(0);
        match g.wait() {
            Err(CncError::StepPanicked(msg)) => assert!(msg.contains("kaput"), "{msg}"),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn step_failure_reported() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("bad", move |_, _| Err(StepAbort::permanent("declined")));
        tags.put(0);
        match g.wait() {
            Err(CncError::StepFailed {
                step: "bad",
                failure,
            }) => {
                assert!(failure.message.contains("declined"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn transient_failure_without_budget_aborts() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("flaky", move |_, _| Err(StepAbort::transient("glitch")));
        tags.put(0);
        match g.wait() {
            Err(CncError::StepFailed {
                step: "flaky",
                failure,
            }) => {
                assert_eq!(failure.kind, FailureKind::Transient);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn transient_failure_retries_to_success() {
        use std::sync::atomic::AtomicU32;
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(3));
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let o2 = out.clone();
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        tags.prescribe("flaky", move |&n, _| {
            if t2.fetch_add(1, Ordering::SeqCst) < 2 {
                return Err(StepAbort::transient("glitch"));
            }
            o2.put(n, n + 1)?;
            Ok(StepOutcome::Done)
        });
        tags.put(41);
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&41), Some(42));
        assert_eq!(stats.steps_retried, 2);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn transient_after_put_escalates_instead_of_retrying() {
        // A body that publishes a put and then reports a transient
        // failure must not be retried: the re-run would repeat the put
        // and trip single assignment. The runtime escalates it to a
        // structured permanent failure naming the contract.
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(5));
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let o2 = out.clone();
        tags.prescribe("eager", move |&n, _| {
            o2.put(n, n)?;
            Err(StepAbort::transient("glitch after put"))
        });
        tags.put(1);
        match g.wait() {
            Err(CncError::StepFailed {
                step: "eager",
                failure,
            }) => {
                assert_eq!(failure.kind, FailureKind::Permanent);
                assert!(failure.message.contains("1 put(s)"), "{}", failure.message);
                assert!(
                    failure.message.contains("glitch after put"),
                    "{}",
                    failure.message
                );
            }
            other => panic!("expected escalated permanent failure, got {other:?}"),
        }
        assert_eq!(
            g.stats().steps_retried,
            0,
            "must not retry a non-idempotent body"
        );
    }

    #[test]
    fn environment_puts_do_not_taint_transient_failures() {
        // Puts from the environment thread are not step side effects:
        // a body that fails transiently (before any put of its own)
        // stays retryable even while the environment is putting items.
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(3));
        let out = g.item_collection::<u32, u32>("out");
        let input = g.item_collection::<u32, u32>("in");
        let tags = g.tag_collection::<u32>("t");
        let (i2, o2) = (input.clone(), out.clone());
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        tags.prescribe("flaky", move |&n, s| {
            if t2.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(StepAbort::transient("first try fails"));
            }
            let v = i2.get(s, &n)?;
            o2.put(n, v + 1)?;
            Ok(StepOutcome::Done)
        });
        input.put(3, 10).unwrap(); // environment put: must not count
        tags.put(3);
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&3), Some(11));
        assert_eq!(stats.steps_retried, 1);
    }

    #[test]
    fn retry_budget_exhaustion_is_structured() {
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(3));
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("hopeless", move |_, _| Err(StepAbort::transient("always")));
        tags.put(0);
        match g.wait() {
            Err(CncError::RetryExhausted {
                step: "hopeless",
                attempts: 3,
                failure,
            }) => {
                assert_eq!(failure.kind, FailureKind::Transient);
            }
            other => panic!("expected retry exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_aborts_wait() {
        let g = CncGraph::with_threads(2);
        let never = g.item_collection::<u32, u32>("never");
        let tags = g.tag_collection::<u32>("t");
        let n2 = never.clone();
        tags.prescribe("starved", move |&n, s| {
            let _ = n2.get(s, &n)?;
            Ok(StepOutcome::Done)
        });
        tags.put(1);
        let token = g.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel("operator abort");
        });
        match g.wait() {
            Err(CncError::Deadlock { .. }) => {
                // The starved step parked before the cancel landed; the
                // next wait must observe the cancellation.
                canceller.join().unwrap();
                match g.wait() {
                    Err(CncError::Cancelled { reason }) => {
                        assert_eq!(reason, "operator abort")
                    }
                    other => panic!("expected cancellation, got {other:?}"),
                }
                return;
            }
            Err(CncError::Cancelled { reason }) => assert_eq!(reason, "operator abort"),
            other => panic!("expected cancellation, got {other:?}"),
        }
        canceller.join().unwrap();
    }

    #[test]
    fn wait_deadline_times_out_structured() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("slow", move |_, _| {
            std::thread::sleep(Duration::from_millis(400));
            Ok(StepOutcome::Done)
        });
        tags.put(0);
        match g.wait_deadline(Duration::from_millis(40)) {
            Err(CncError::Timeout {
                deadline, pending, ..
            }) => {
                assert_eq!(deadline, Duration::from_millis(40));
                assert!(pending >= 1);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // The timeout is sticky: the graph drained and stays failed.
        assert!(matches!(g.wait(), Err(CncError::Timeout { .. })));
    }

    #[test]
    fn set_deadline_applies_to_plain_wait() {
        let g = CncGraph::with_threads(2);
        g.set_deadline(Duration::from_millis(40));
        let never = g.item_collection::<u32, u32>("never");
        let tags = g.tag_collection::<u32>("t");
        let n2 = never.clone();
        tags.prescribe("starved", move |&n, s| {
            let _ = n2.get(s, &n)?;
            // Keep the instance perpetually pending rather than parked,
            // so the deadline (not the deadlock check) must fire.
            Ok(StepOutcome::Done)
        });
        tags.prescribe("spin", move |_, _| {
            std::thread::sleep(Duration::from_millis(400));
            Ok(StepOutcome::Done)
        });
        tags.put(1);
        assert!(matches!(g.wait(), Err(CncError::Timeout { .. })));
    }

    #[test]
    fn wait_deadline_of_finished_graph_succeeds() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("noop", |_, _| Ok(StepOutcome::Done));
        tags.put(0);
        let stats = g.wait_deadline(Duration::from_secs(5)).unwrap();
        assert_eq!(stats.steps_completed, 1);
    }

    #[test]
    fn put_when_defers_until_deps_ready() {
        let g = CncGraph::with_threads(2);
        let input = g.item_collection::<u32, u32>("in");
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let (i2, o2) = (input.clone(), out.clone());
        tags.prescribe("sum", move |&n, s| {
            // Pre-scheduled: by the time this runs, gets must succeed.
            let a = i2.get(s, &n)?;
            let b = i2.get(s, &(n + 1))?;
            o2.put(n, a + b)?;
            Ok(StepOutcome::Done)
        });
        tags.put_when(4, &DepSet::new().item(&input, 4).item(&input, 5));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(g.stats().steps_started, 0, "must not dispatch before deps");
        input.put(4, 10).unwrap();
        input.put(5, 32).unwrap();
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&4), Some(42));
        assert_eq!(
            stats.steps_requeued, 0,
            "pre-scheduling eliminates requeues"
        );
    }

    #[test]
    fn put_when_with_ready_deps_dispatches_immediately() {
        let g = CncGraph::with_threads(2);
        let input = g.item_collection::<u32, u32>("in");
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let (i2, o2) = (input.clone(), out.clone());
        tags.prescribe("copy", move |&n, s| {
            let v = i2.get(s, &n)?;
            o2.put(n, v)?;
            Ok(StepOutcome::Done)
        });
        input.put(1, 11).unwrap();
        tags.put_when(1, &DepSet::new().item(&input, 1));
        g.wait().unwrap();
        assert_eq!(out.get_env(&1), Some(11));
    }

    #[test]
    fn shared_pool_across_graphs() {
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(2).build());
        let g1 = CncGraph::with_pool(Arc::clone(&pool));
        let g2 = CncGraph::with_pool(Arc::clone(&pool));
        let o1 = g1.item_collection::<u32, u32>("o1");
        let o2 = g2.item_collection::<u32, u32>("o2");
        let t1 = g1.tag_collection::<u32>("t1");
        let t2 = g2.tag_collection::<u32>("t2");
        let (a, b) = (o1.clone(), o2.clone());
        t1.prescribe("s1", move |&n, _| {
            a.put(n, n)?;
            Ok(StepOutcome::Done)
        });
        t2.prescribe("s2", move |&n, _| {
            b.put(n, n * n)?;
            Ok(StepOutcome::Done)
        });
        t1.put(3);
        t2.put(3);
        g1.wait().unwrap();
        g2.wait().unwrap();
        assert_eq!(o1.get_env(&3), Some(3));
        assert_eq!(o2.get_env(&3), Some(9));
    }

    #[test]
    fn dep_set_len() {
        let g = CncGraph::with_threads(1);
        let items = g.item_collection::<u32, u32>("i");
        let d = DepSet::new();
        assert!(d.is_empty());
        let d = d.item(&items, 1).item(&items, 2);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn longest_chain_links_shared_items() {
        // inst 1 -> item A; inst 2 -> {A, B}; inst 3 -> B: the longest
        // alternating path touches all five nodes.
        let raw = vec![
            ProbeWait {
                instance: 1,
                step: "s1",
                collection: "c",
                key: "A".into(),
            },
            ProbeWait {
                instance: 2,
                step: "s2",
                collection: "c",
                key: "A".into(),
            },
            ProbeWait {
                instance: 2,
                step: "s2",
                collection: "c",
                key: "B".into(),
            },
            ProbeWait {
                instance: 3,
                step: "s3",
                collection: "c",
                key: "B".into(),
            },
        ];
        let d = build_diagnostic(raw);
        assert_eq!(d.waits.len(), 4);
        assert_eq!(d.longest_chain.len(), 5, "{:?}", d.longest_chain);
    }
}

#[cfg(test)]
mod checkpoint_log_tests {
    use super::*;
    use crate::StepOutcome;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// The completed-step log is appended per shard on the step path
    /// and only folded into a set by `checkpoint()`. On 64 seeded
    /// managed schedules, each cut short after a seed-dependent number
    /// of executions, the fold must be exactly the set of leaf steps
    /// whose bodies ran to completion — no expansion step (it put
    /// tags), no blocked execution (it did not complete), nothing lost
    /// between shards.
    #[test]
    fn checkpoint_records_exactly_the_completed_leaves_on_64_schedules() {
        for seed in 0..64u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let (g, h) = CncGraph::managed(Box::new(move |ready| {
                state = jitter_mix(state);
                state as usize % ready.len()
            }));
            let cells = g.item_collection::<u32, u32>("cells");
            let calls = g.tag_collection::<u32>("calls");
            let done = Arc::new(Mutex::new(Vec::new()));
            let (c, t, d) = (cells.clone(), calls.clone(), Arc::clone(&done));
            // Tags 1..16 expand a binary tree; leaves 16..32 form a
            // chain through `cells`, so most orders block some of them.
            calls.prescribe("node", move |&n, scope| {
                if n < 16 {
                    t.put(2 * n);
                    t.put(2 * n + 1);
                    return Ok(StepOutcome::Done);
                }
                let prev = if n > 16 { c.get(scope, &(n - 1))? } else { 0 };
                c.put(n, prev + 1)?;
                d.lock().push(n);
                Ok(StepOutcome::Done)
            });
            calls.put(1);
            for _ in 0..seed % 48 {
                h.run_one();
            }
            let expected: HashSet<(&'static str, u64)> = done
                .lock()
                .iter()
                .map(|n: &u32| {
                    let mut hasher = DefaultHasher::new();
                    n.hash(&mut hasher);
                    ("node", hasher.finish())
                })
                .collect();
            assert_eq!(g.checkpoint().executed, expected, "seed {seed}");
            // Run to the end: every leaf, still no expansion step.
            g.wait().unwrap();
            assert_eq!(g.checkpoint().executed_steps(), 16, "seed {seed}");
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::StepOutcome;
    use recdp_trace::NormalizedEvent;

    /// Step names are interned once per prescription when an instance
    /// is created; an instance created before the tracer was installed
    /// interns at execution instead. Either way every execution is one
    /// `StepRun` under its own step's name.
    #[test]
    fn step_runs_carry_their_step_name_whenever_the_tracer_arrives() {
        for tracer_first in [true, false] {
            let (g, _h) = CncGraph::managed(Box::new(|_| 0));
            let tracer = Tracer::new();
            let tags = g.tag_collection::<u32>("t");
            tags.prescribe("alpha", |_, _| Ok(StepOutcome::Done));
            tags.prescribe("beta", |_, _| Ok(StepOutcome::Done));
            if tracer_first {
                g.set_tracer(Arc::clone(&tracer));
            }
            for n in 0..5 {
                tags.put(n);
            }
            g.set_tracer(Arc::clone(&tracer)); // first call wins
            let stats = g.wait().unwrap();
            let mut names: Vec<String> = tracer
                .normalized()
                .into_iter()
                .map(|e| match e {
                    NormalizedEvent::StepRun { step, .. } => step,
                    other => panic!("unexpected event {other:?}"),
                })
                .collect();
            names.sort();
            assert_eq!(names.len() as u64, stats.steps_started);
            assert_eq!(names[..5], ["alpha"; 5], "tracer_first={tracer_first}");
            assert_eq!(names[5..], ["beta"; 5], "tracer_first={tracer_first}");
        }
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;
    use crate::StepOutcome;

    #[test]
    fn spec_lists_collections_and_prescriptions() {
        let g = CncGraph::with_threads(1);
        let _items = g.item_collection::<u32, u32>("myData");
        let tags = g.tag_collection::<u32>("myCtrl");
        tags.prescribe("myStep", |_, _| Ok(StepOutcome::Done));
        let spec = g.spec();
        assert!(spec.contains("[myData];"), "{spec}");
        assert!(spec.contains("<myCtrl>;"), "{spec}");
        assert!(spec.contains("<myCtrl> :: (myStep);"), "{spec}");
    }
}

#[cfg(test)]
mod contract_tests {
    use super::*;
    use crate::StepOutcome;

    #[test]
    fn swallowed_blocked_get_is_a_detected_violation() {
        // A body that eats the Blocked abort and completes anyway must
        // surface as a structured error, not corrupt quiescence
        // accounting or re-execute later.
        let g = CncGraph::with_threads(2);
        let items = g.item_collection::<u32, u32>("in");
        let tags = g.tag_collection::<u32>("t");
        let it = items.clone();
        tags.prescribe("swallower", move |&n, s| {
            let _ = it.get(s, &n); // ignores the Blocked abort
            Ok(StepOutcome::Done)
        });
        tags.put(5);
        match g.wait() {
            Err(CncError::StepFailed {
                step: "swallower",
                failure,
            }) => {
                assert!(
                    failure.message.contains("without propagating"),
                    "{}",
                    failure.message
                );
            }
            other => panic!("expected contract violation, got {other:?}"),
        }
    }
}
