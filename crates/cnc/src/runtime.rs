//! The graph handle and its shared runtime state: configuration,
//! quiescence and the deadlock verdict, cancellation, teardown. The
//! step path itself is [`crate::hot`].

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use recdp_forkjoin::{PoolId, ThreadPool, ThreadPoolBuilder};
use recdp_trace::Tracer;

use crate::checkpoint::ItemSnapshot;
use crate::diagnostic::{build_diagnostic, ProbeWait};
use crate::error::{CncError, DeadlockDiagnostic};
use crate::fault::FaultInjector;
use crate::item::{GridKey, ItemCollection};
use crate::managed::{ManagedState, PickFn};
use crate::retry::RetryPolicy;
use crate::stats::{GraphStats, Stats};
use crate::tag::TagCollection;

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
        let core = RuntimeCore::build(Some(&pool), None);
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

    /// Creates an item collection over a key space known in advance:
    /// keys range over `0..extent` in every coordinate (`u32`,
    /// `(u32, u32)` or `(u32, u32, u32)`), and each has a slot in a
    /// pre-sized array — no hashing, no lock, nothing shared between two
    /// keys. Same handle type and behaviour as
    /// [`CncGraph::item_collection`], except that a key outside the
    /// extent is refused with [`CncError::KeyOutOfExtent`].
    pub fn grid_item_collection<K: GridKey, V>(
        &self,
        name: &'static str,
        extent: K,
    ) -> ItemCollection<K, V>
    where
        V: Clone + Send + Sync + 'static,
    {
        ItemCollection::new_grid(name, Arc::clone(&self.core), extent)
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
        crate::stats::bump(&self.core.stats.local().nb_retries);
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

    /// Waits (bounded) for in-flight instances to retire. Error-path
    /// waits (deadline, cancellation, deadlock) return while instances
    /// may still be queued; fail-fast makes those retire in
    /// microseconds, so the bound exists only to avoid masking a genuine
    /// runtime hang. Managed graphs run inline: nothing is in flight.
    pub(crate) fn drain(&self) {
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
pub(crate) struct StepConfig {
    pub(crate) retry_policy: RetryPolicy,
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

/// Shared runtime state. The [`CncGraph`] handle, every collection and
/// every prescription (and through it, its step instances) hold the
/// core; the core holds the collections and the pool weakly, so the
/// graph owner controls the pool's lifetime.
/// Collections hold prescriptions and wait lists, those hold step
/// bodies, and bodies usually hold collection handles again — the one
/// cycle, cut by `teardown`: a graph's step bodies and parked instances
/// die with its `CncGraph` handle.
pub(crate) struct RuntimeCore {
    pub(crate) pool: Weak<ThreadPool>,
    /// The pool's identity, for dispatching from its own workers
    /// without upgrading `pool` (`None`: managed, no pool).
    pub(crate) pool_id: Option<PoolId>,
    /// Collections and prescriptions in creation order (the Listing-4
    /// style specification).
    pub(crate) spec: Mutex<Vec<SpecLine>>,
    /// Every collection created on the graph, held weakly.
    collections: Mutex<Vec<Weak<dyn CollectionHooks>>>,
    /// Step executions queued or running.
    pub(crate) pending: AtomicUsize,
    /// Step instances parked on wait lists / pre-scheduling countdowns.
    pub(crate) blocked: AtomicUsize,
    /// Monotonic count of blocked -> pending resumes. The deadlock check
    /// brackets its counter reads with two loads of this epoch: `pending`
    /// and `blocked` can each pulse up and back down unobserved between
    /// two reads, but a resume can never hide — it always advances the
    /// epoch — so an unchanged epoch proves no parked instance ran (and
    /// possibly retired) while the verdict was being formed.
    pub(crate) resume_epoch: AtomicUsize,
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
    pub(crate) managed: Option<ManagedState>,
    /// Event tracer, installed at most once via [`CncGraph::set_tracer`].
    /// `None` keeps every instrumentation site a single branch.
    pub(crate) tracer: OnceLock<Arc<Tracer>>,
    /// Steps a checkpoint installed by [`CncGraph::resume_from`] marks
    /// as already completed: instances whose identity is in the set
    /// retire without executing their bodies.
    pub(crate) skip_set: OnceLock<Arc<HashSet<(&'static str, u64)>>>,
    /// Per-collection-name item snapshots installed by
    /// [`CncGraph::resume_from`], consumed by `ItemCollection::new` when
    /// the matching collection is re-created on the resumed graph.
    pub(crate) resume_seeds: Mutex<HashMap<&'static str, ItemSnapshot>>,
    /// Counters and the completed-step log, sharded per worker.
    pub(crate) stats: Stats,
}

impl RuntimeCore {
    /// Builds a core. `managed == Some` puts the graph in managed mode:
    /// ready instances queue instead of spawning, and the pool (if any)
    /// is never used for step execution.
    pub(crate) fn build(pool: Option<&Arc<ThreadPool>>, managed: Option<PickFn>) -> Arc<Self> {
        Arc::new(RuntimeCore {
            pool: pool.map_or_else(Weak::new, Arc::downgrade),
            pool_id: pool.map(|p| p.id()),
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
            managed: managed.map(ManagedState::new),
            tracer: OnceLock::new(),
            skip_set: OnceLock::new(),
            resume_seeds: Mutex::new(HashMap::new()),
            stats: Stats::new(pool.map(|p| &**p)),
        })
    }

    pub(crate) fn is_managed(&self) -> bool {
        self.managed.is_some()
    }

    pub(crate) fn blocked_count(&self) -> usize {
        self.blocked.load(Ordering::Acquire)
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
    pub(crate) fn live_collections(&self) -> Vec<Arc<dyn CollectionHooks>> {
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
    pub(crate) fn step_config(&self) -> &StepConfig {
        let freeze = || self.config.lock().steps.clone();
        self.frozen.get_or_init(freeze)
    }

    /// The installed fault injector, if any.
    pub(crate) fn injector(&self) -> Option<&Arc<dyn FaultInjector>> {
        self.step_config().fault_injector.as_ref()
    }

    pub(crate) fn count_injected_fault(&self) {
        crate::stats::bump(&self.stats.local().faults_injected);
    }

    pub(crate) fn count_injected_delay(&self) {
        crate::stats::bump(&self.stats.local().delays_injected);
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

    pub(crate) fn notify_quiescence(&self) {
        let _g = self.quiesce_mutex.lock();
        self.quiesce_cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StepAbort, StepOutcome};

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
