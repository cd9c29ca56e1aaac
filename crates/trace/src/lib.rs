//! `recdp-trace`: a low-overhead, per-worker event tracing subsystem for
//! the fork-join and data-flow runtimes.
//!
//! The paper's central claim — fork-join `taskwait` joins add
//! *artificial* dependencies that inflate span and idle threads, while
//! data-flow fires on *true* dependencies — is modeled analytically in
//! `recdp-taskgraph`. This crate measures it from real execution:
//!
//! * [`Tracer`] hands out one [`Lane`] (a bounded event ring) per
//!   thread. Instrumented runtimes record [`Event`]s into their lane —
//!   `recdp-forkjoin` emits task spawn/run (with steal provenance),
//!   park/unpark (a park span ends at the unpark) and join-wait events;
//!   `recdp-cnc` emits step start/finish, blocked-get, requeue and
//!   retry events. Recording is a timestamp plus an uncontended
//!   per-lane mutex push; with no tracer installed the runtimes take a
//!   single branch on `None` and record nothing.
//! * [`TraceSession`] / [`TraceReport`] aggregate the recorded
//!   intervals into *measured work* (busy thread-time), *measured span*
//!   (a greedy-scheduler critical-path estimate over the recorded
//!   intervals), measured parallelism, and an idle-time decomposition
//!   that separates artificial-dependency stalls (fork-join join waits)
//!   from true-dependency waits (CnC blocked gets).
//! * [`Tracer::chrome_trace`] exports the raw timeline as Chrome-trace
//!   JSON (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
//! * [`Tracer::normalized`] projects the event sequence down to its
//!   schedule shape (timestamps stripped, instance identities
//!   renumbered), which is bit-identical across replays of the same
//!   managed-mode schedule — the determinism oracle `recdp-check` uses.
//!
//! # Example
//!
//! ```
//! use recdp_trace::{EventKind, TaskSource, TraceSession};
//!
//! let session = TraceSession::new(2);
//! let lane = session.tracer().lane();
//! let t0 = lane.now();
//! // ... do 'work' ...
//! lane.span(EventKind::TaskRun { source: TaskSource::Local }, t0);
//! let report = session.report();
//! assert_eq!(report.tasks, 1);
//! assert!(report.work_ns <= report.wall_ns);
//! ```

#![warn(missing_docs)]

mod chrome;
mod report;

pub use report::TraceReport;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;

/// Interned identifier of a step-collection name (see [`Tracer::intern`]).
/// Interning keeps [`Event`] `Copy` and fixed-size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepId(pub u32);

/// Where a fork-join worker obtained the task it executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSource {
    /// Popped from the worker's own deque.
    Local,
    /// Taken from the shared injector (an external submission).
    Inject,
    /// Stolen from another worker's deque.
    Steal {
        /// Index of the victim worker.
        victim: u32,
    },
}

/// How a CnC step execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcomeKind {
    /// Ran to completion.
    Completed,
    /// Aborted by a failed blocking get and requeued: the instance parks
    /// on the missing items and re-executes from scratch when they
    /// arrive. The execution's duration is wasted thread time — the
    /// *true-dependency* stall the report's decomposition isolates.
    Requeued,
    /// Returned a structured failure.
    Failed,
    /// The body panicked.
    Panicked,
}

/// What an [`Event`] records. Spans carry a nonzero duration; instants
/// have `dur_ns == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// fork-join: a queued task executed (span).
    TaskRun {
        /// Where the task came from (steal provenance).
        source: TaskSource,
    },
    /// fork-join: a task was pushed or injected (instant).
    TaskSpawn,
    /// fork-join: pure idle inside a join / scope-exit wait while the
    /// other branch is outstanding (span) — the *artificial-dependency*
    /// stall of the paper's model. Nested helping is excluded: the span
    /// covers only time spent spinning/yielding with no work found.
    JoinWait,
    /// fork-join: the worker found no work anywhere and polled, then
    /// parked on the sleep condvar (span; its end is the next job found
    /// or the unpark).
    Park,
    /// cnc: one step execution (span), however it ended.
    StepRun {
        /// Interned step-collection name.
        step: StepId,
        /// Deterministic hash of the prescribing tag.
        tag: u64,
        /// How the execution ended.
        outcome: StepOutcomeKind,
    },
    /// cnc: an instance parked on missing items after a failed blocking
    /// get (instant). Paired with [`EventKind::Resume`] by `instance`
    /// to measure the logical true-dependency wait.
    BlockedGet {
        /// Identity of the parked instance (stable within a run only).
        instance: u64,
    },
    /// cnc: a parked instance was resumed — every dependency arrived
    /// (instant).
    Resume {
        /// Identity of the resumed instance.
        instance: u64,
    },
    /// cnc: a transient-failure retry was re-dispatched (instant).
    StepRetry {
        /// Interned step-collection name.
        step: StepId,
        /// Deterministic hash of the prescribing tag.
        tag: u64,
    },
    /// fork-join: a worker honoured its fail-stop schedule and exited
    /// mid-run (instant, recorded on the dying worker's lane).
    WorkerDied {
        /// Index of the dead worker.
        worker: u32,
    },
    /// fork-join: the dying worker drained queued tasks from its deque
    /// back into the shared injector so survivors pick them up (instant).
    WorkRequeued {
        /// Index of the worker whose deque was drained.
        worker: u32,
        /// Number of tasks moved to the injector.
        tasks: u64,
    },
    /// fork-join: a replacement worker thread took over a dead worker's
    /// slot (instant, recorded on the replacement's lane).
    WorkerRespawned {
        /// Index of the revived worker slot.
        worker: u32,
    },
    /// integrity: a tile-output digest mismatch was detected — silent
    /// cell corruption caught by verification, or a mangled item payload
    /// caught by a consumer (instant).
    CorruptionDetected {
        /// Interned step (or item-collection) name.
        step: StepId,
        /// Deterministic hash of the affected tile key.
        tile: u64,
    },
    /// integrity: a quarantined tile was recomputed from its pre-image
    /// (self-healing repair, instant).
    TileRecomputed {
        /// Interned step name of the recomputing task.
        step: StepId,
        /// Deterministic hash of the recomputed tile key.
        tile: u64,
    },
}

/// One timestamped event in a [`Lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Start offset from the tracer epoch, in nanoseconds.
    pub t_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A per-worker event ring. Recording takes the lane's (uncontended —
/// each thread writes only its own lane) mutex and pushes one `Copy`
/// event; once the ring is full, further events are counted as dropped
/// rather than rotating, so aggregation always sees a consistent prefix
/// of the run.
pub struct Lane {
    id: u32,
    name: String,
    epoch: Instant,
    buf: Mutex<LaneBuf>,
}

struct LaneBuf {
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
}

impl Lane {
    /// Lane index, in registration order (the Chrome-trace `tid`).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Lane name (usually the owning thread's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nanoseconds since the tracer epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an event with explicit timestamps.
    pub fn record(&self, kind: EventKind, t_ns: u64, dur_ns: u64) {
        let mut buf = self.buf.lock();
        if buf.events.len() >= buf.cap {
            buf.dropped += 1;
            return;
        }
        buf.events.push(Event { t_ns, dur_ns, kind });
    }

    /// Records an instant event stamped now.
    pub fn instant(&self, kind: EventKind) {
        let t = self.now();
        self.record(kind, t, 0);
    }

    /// Records a span from `start_ns` (a value previously taken from
    /// [`Lane::now`]) until now.
    pub fn span(&self, kind: EventKind, start_ns: u64) {
        let end = self.now();
        self.record(kind, start_ns, end.saturating_sub(start_ns));
    }

    /// Snapshot of the recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.buf.lock().events.clone()
    }

    /// Runs `f` over the recorded events in place (record order).
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&self.buf.lock().events)
    }

    /// Number of events that did not fit the ring.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().dropped
    }
}

#[derive(Default)]
struct NameTable {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

/// The trace collector: owns the epoch, the lanes, and the step-name
/// intern table. Create one per run, hand clones of the `Arc` to the
/// runtimes, then aggregate with [`TraceSession::report`] (or read the
/// lanes directly).
pub struct Tracer {
    epoch: Instant,
    cap: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    names: Mutex<NameTable>,
}

thread_local! {
    /// Per-thread lane cache: (tracer identity, lane). The `Weak` pins
    /// the tracer's allocation, so no new tracer can alias an entry and
    /// the lookup compares pointers without upgrading. Dead tracers'
    /// entries are purged whenever a lane is registered, so the cache
    /// never outgrows the tracers alive at once on this thread.
    static LANE_CACHE: RefCell<Vec<(Weak<Tracer>, Arc<Lane>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Test instrumentation: `(entries, entries whose tracer is still
/// alive)` of the calling thread's lane cache.
#[doc(hidden)]
pub fn lane_cache_len() -> (usize, usize) {
    LANE_CACHE.with(|cache| {
        let cache = cache.borrow();
        let live = cache.iter().filter(|(t, _)| t.strong_count() > 0);
        (cache.len(), live.count())
    })
}

impl Tracer {
    /// Default per-lane event capacity (events beyond it are counted as
    /// dropped, not recorded).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A tracer with the default per-lane capacity.
    pub fn new() -> Arc<Self> {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A tracer whose lanes hold at most `cap` events each.
    pub fn with_capacity(cap: usize) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            cap: cap.max(1),
            lanes: Mutex::new(Vec::new()),
            names: Mutex::new(NameTable::default()),
        })
    }

    /// Nanoseconds since the tracer epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Registers a new lane. Instrumented threads normally go through
    /// [`Tracer::lane`] instead, which caches one lane per thread.
    pub fn register_lane(&self, name: impl Into<String>) -> Arc<Lane> {
        let mut lanes = self.lanes.lock();
        let lane = Arc::new(Lane {
            id: lanes.len() as u32,
            name: name.into(),
            epoch: self.epoch,
            buf: Mutex::new(LaneBuf {
                // A lane is created per thread per traced job: skip
                // the first few reallocations on every one.
                events: Vec::with_capacity(self.cap.min(64)),
                cap: self.cap,
                dropped: 0,
            }),
        });
        lanes.push(Arc::clone(&lane));
        lane
    }

    /// The calling thread's lane in this tracer, registering (named
    /// after the thread) and caching it on first use.
    pub fn lane(self: &Arc<Self>) -> Arc<Lane> {
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let me = Arc::as_ptr(self);
            if let Some((_, lane)) = cache.iter().find(|(t, _)| t.as_ptr() == me) {
                return Arc::clone(lane);
            }
            cache.retain(|(t, _)| t.strong_count() > 0);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", self.lanes.lock().len()));
            let lane = self.register_lane(name);
            cache.push((Arc::downgrade(self), Arc::clone(&lane)));
            lane
        })
    }

    /// Interns a step-collection name (idempotent).
    pub fn intern(&self, name: &str) -> StepId {
        let mut table = self.names.lock();
        if let Some(&id) = table.ids.get(name) {
            return StepId(id);
        }
        let id = table.names.len() as u32;
        table.names.push(name.to_string());
        table.ids.insert(name.to_string(), id);
        StepId(id)
    }

    /// The name behind an interned [`StepId`].
    pub fn step_name(&self, id: StepId) -> Option<String> {
        self.names.lock().names.get(id.0 as usize).cloned()
    }

    /// Snapshot of the registered lanes, in registration order.
    pub fn lanes(&self) -> Vec<Arc<Lane>> {
        self.lanes.lock().clone()
    }

    /// Total events dropped across all lanes (ring overflow).
    pub fn dropped(&self) -> u64 {
        self.lanes().iter().map(|l| l.dropped()).sum()
    }

    /// The recorded timeline as Chrome-trace JSON (`chrome://tracing` /
    /// Perfetto). One Chrome thread per lane, spans as complete (`"X"`)
    /// events, instants as `"i"` events.
    pub fn chrome_trace(&self) -> String {
        chrome::render(self)
    }

    /// The schedule-shape projection of the recorded events: lanes in
    /// registration order, events in record order, timestamps and
    /// durations stripped, step ids resolved to names, and instance
    /// identities (which are addresses, unstable across runs) renumbered
    /// by first appearance. Two replays of the same managed-mode
    /// schedule produce bit-identical projections.
    pub fn normalized(&self) -> Vec<NormalizedEvent> {
        let mut renumber: HashMap<u64, u64> = HashMap::new();
        let mut next = 0u64;
        let mut out = Vec::new();
        let mut resolve = |instance: u64| {
            *renumber.entry(instance).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        };
        for lane in self.lanes() {
            for event in lane.events() {
                out.push(match event.kind {
                    EventKind::TaskRun { source } => NormalizedEvent::TaskRun { source },
                    EventKind::TaskSpawn => NormalizedEvent::TaskSpawn,
                    EventKind::JoinWait => NormalizedEvent::JoinWait,
                    EventKind::Park => NormalizedEvent::Park,
                    EventKind::StepRun { step, tag, outcome } => NormalizedEvent::StepRun {
                        step: self.step_name(step).unwrap_or_default(),
                        tag,
                        outcome,
                    },
                    EventKind::BlockedGet { instance } => NormalizedEvent::BlockedGet {
                        instance: resolve(instance),
                    },
                    EventKind::Resume { instance } => NormalizedEvent::Resume {
                        instance: resolve(instance),
                    },
                    EventKind::StepRetry { step, tag } => NormalizedEvent::StepRetry {
                        step: self.step_name(step).unwrap_or_default(),
                        tag,
                    },
                    EventKind::WorkerDied { worker } => NormalizedEvent::WorkerDied { worker },
                    EventKind::CorruptionDetected { step, tile } => {
                        NormalizedEvent::CorruptionDetected {
                            step: self.step_name(step).unwrap_or_default(),
                            tile,
                        }
                    }
                    EventKind::TileRecomputed { step, tile } => NormalizedEvent::TileRecomputed {
                        step: self.step_name(step).unwrap_or_default(),
                        tile,
                    },
                    EventKind::WorkRequeued { worker, tasks } => {
                        NormalizedEvent::WorkRequeued { worker, tasks }
                    }
                    EventKind::WorkerRespawned { worker } => {
                        NormalizedEvent::WorkerRespawned { worker }
                    }
                });
            }
        }
        out
    }
}

/// One event of [`Tracer::normalized`]: the schedule shape without
/// timestamps or run-specific identities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormalizedEvent {
    /// A queued fork-join task executed.
    TaskRun {
        /// Where the task came from.
        source: TaskSource,
    },
    /// A fork-join task was pushed or injected.
    TaskSpawn,
    /// Pure idle inside a fork-join join wait.
    JoinWait,
    /// A fork-join worker parked.
    Park,
    /// One CnC step execution.
    StepRun {
        /// Step-collection name.
        step: String,
        /// Deterministic hash of the prescribing tag.
        tag: u64,
        /// How the execution ended.
        outcome: StepOutcomeKind,
    },
    /// A CnC instance parked on missing items.
    BlockedGet {
        /// Renumbered (first-appearance order) instance identity.
        instance: u64,
    },
    /// A parked CnC instance resumed.
    Resume {
        /// Renumbered instance identity.
        instance: u64,
    },
    /// A CnC transient-failure retry was re-dispatched.
    StepRetry {
        /// Step-collection name.
        step: String,
        /// Deterministic hash of the prescribing tag.
        tag: u64,
    },
    /// A fork-join worker honoured its fail-stop schedule and exited.
    WorkerDied {
        /// Index of the dead worker.
        worker: u32,
    },
    /// A dying worker's queued tasks were requeued on the injector.
    WorkRequeued {
        /// Index of the drained worker.
        worker: u32,
        /// Number of tasks requeued.
        tasks: u64,
    },
    /// A replacement worker took over a dead worker's slot.
    WorkerRespawned {
        /// Index of the revived worker slot.
        worker: u32,
    },
    /// A tile-output digest mismatch was detected.
    CorruptionDetected {
        /// Step (or item-collection) name.
        step: String,
        /// Deterministic hash of the affected tile key.
        tile: u64,
    },
    /// A quarantined tile was recomputed from its pre-image.
    TileRecomputed {
        /// Step name of the recomputing task.
        step: String,
        /// Deterministic hash of the recomputed tile key.
        tile: u64,
    },
}

/// Renders a `catch_unwind` payload as a human-readable message. Shared
/// by the runtimes' recovery paths so panics are reported uniformly
/// (step panics in `recdp-cnc`, task panics in `recdp-forkjoin`).
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// A measurement session: a [`Tracer`] plus the worker count its
/// [`TraceReport`] normalizes against.
pub struct TraceSession {
    tracer: Arc<Tracer>,
    workers: usize,
}

impl std::fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSession")
            .field("workers", &self.workers)
            .field("lanes", &self.tracer.lanes().len())
            .finish()
    }
}

impl TraceSession {
    /// A session with a fresh tracer, reporting against `workers`
    /// worker threads.
    pub fn new(workers: usize) -> Self {
        Self::with_tracer(Tracer::new(), workers)
    }

    /// A session around an existing tracer.
    pub fn with_tracer(tracer: Arc<Tracer>, workers: usize) -> Self {
        TraceSession {
            tracer,
            workers: workers.max(1),
        }
    }

    /// The tracer to install into the runtimes.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The worker count the report normalizes against.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Aggregates everything recorded so far into a [`TraceReport`].
    pub fn report(&self) -> TraceReport {
        TraceReport::build(&self.tracer, self.workers)
    }

    /// The `(work_ns, steps)` of [`TraceSession::report`], without the
    /// rest of the aggregation — what per-job accounting charges.
    pub fn work_and_steps(&self) -> (u64, u64) {
        report::work_and_steps(&self.tracer)
    }

    /// Chrome-trace JSON of everything recorded so far.
    pub fn chrome_trace(&self) -> String {
        self.tracer.chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_records_and_snapshots() {
        let tracer = Tracer::new();
        let lane = tracer.register_lane("w0");
        lane.record(EventKind::TaskSpawn, 10, 0);
        lane.record(
            EventKind::TaskRun {
                source: TaskSource::Local,
            },
            20,
            5,
        );
        let events = lane.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::TaskSpawn);
        assert_eq!(events[1].t_ns, 20);
        assert_eq!(events[1].dur_ns, 5);
        assert_eq!(lane.dropped(), 0);
    }

    #[test]
    fn ring_saturates_and_counts_drops() {
        let tracer = Tracer::with_capacity(2);
        let lane = tracer.register_lane("w0");
        for t in 0..5 {
            lane.record(EventKind::TaskSpawn, t, 0);
        }
        assert_eq!(lane.events().len(), 2);
        assert_eq!(lane.dropped(), 3);
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn per_thread_lane_is_cached_per_tracer() {
        let a = Tracer::new();
        let b = Tracer::new();
        let la1 = a.lane();
        let la2 = a.lane();
        let lb = b.lane();
        assert!(Arc::ptr_eq(&la1, &la2));
        assert_eq!(la1.id(), 0);
        assert_eq!(lb.id(), 0, "second tracer starts its own lane numbering");
        assert_eq!(a.lanes().len(), 1);
        let t = std::thread::spawn({
            let a = Arc::clone(&a);
            move || a.lane().id()
        });
        assert_eq!(t.join().unwrap(), 1, "another thread gets its own lane");
        assert_eq!(a.lanes().len(), 2);
    }

    #[test]
    fn lane_cache_forgets_dead_tracers() {
        // A fresh thread, so the cache starts empty.
        std::thread::spawn(|| {
            let keep = Tracer::new();
            let lane = keep.lane();
            for _ in 0..100 {
                let job = Tracer::new();
                assert!(Arc::ptr_eq(&job.lane(), &job.lane()));
            }
            // Dead entries go when the next lane is registered: the
            // long-lived tracer plus at most the last dead one remain.
            assert_eq!(lane_cache_len(), (2, 1));
            assert!(Arc::ptr_eq(&keep.lane(), &lane), "still cached");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let tracer = Tracer::new();
        let a = tracer.intern("update");
        let b = tracer.intern("diag");
        assert_eq!(tracer.intern("update"), a);
        assert_ne!(a, b);
        assert_eq!(tracer.step_name(a).as_deref(), Some("update"));
        assert_eq!(tracer.step_name(StepId(99)), None);
    }

    #[test]
    fn normalized_renumbers_instances_by_first_appearance() {
        let tracer = Tracer::new();
        let lane = tracer.register_lane("driver");
        let step = tracer.intern("s");
        // Two instances identified by (arbitrary) addresses.
        lane.record(EventKind::BlockedGet { instance: 0xDEAD }, 1, 0);
        lane.record(EventKind::BlockedGet { instance: 0xBEEF }, 2, 0);
        lane.record(EventKind::Resume { instance: 0xDEAD }, 3, 0);
        lane.record(
            EventKind::StepRun {
                step,
                tag: 7,
                outcome: StepOutcomeKind::Completed,
            },
            4,
            10,
        );
        let n = tracer.normalized();
        assert_eq!(
            n,
            vec![
                NormalizedEvent::BlockedGet { instance: 0 },
                NormalizedEvent::BlockedGet { instance: 1 },
                NormalizedEvent::Resume { instance: 0 },
                NormalizedEvent::StepRun {
                    step: "s".into(),
                    tag: 7,
                    outcome: StepOutcomeKind::Completed
                },
            ]
        );
    }

    #[test]
    fn session_reports_synthetic_timeline() {
        let session = TraceSession::new(2);
        let lane = session.tracer().lane();
        let t0 = lane.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        lane.span(
            EventKind::TaskRun {
                source: TaskSource::Inject,
            },
            t0,
        );
        let report = session.report();
        assert_eq!(report.tasks, 1);
        assert!(report.work_ns > 0);
        assert!(report.work_ns <= report.wall_ns + 1);
    }
}
