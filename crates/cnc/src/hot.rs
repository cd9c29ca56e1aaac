//! The step path: everything a step pays for outside its body — an item
//! [`Slot`], the step [`Header`] that parks on it, the dispatch of a
//! ready instance. No lock, and one allocation per step instance.
//!
//! # The slot state machine
//!
//! A slot is one atomic word plus the payload. The word is
//!
//! ```text
//!            park (CAS)          park (CAS)
//!   EMPTY ──────────────► head₁ ───────────► head₂ …   (a *const Header:
//!     │                     │                          the newest parked
//!     │ put (CAS)           │ put (CAS)                instance; each links
//!     ▼                     ▼                          the one before it)
//!   WRITING ── store ──► READY
//! ```
//!
//! * **EMPTY → head, head → head'** — any thread parking an instance
//!   it owns: it writes the old word into the instance's `next` link,
//!   then publishes the instance with a *release* CAS. A failed CAS
//!   retries against the new word; meeting READY hands the instance
//!   back (the item arrived first).
//! * **EMPTY/head → WRITING** — the one `put` whose *acquire* CAS wins.
//!   Every other `put` sees WRITING or READY and is the single-assignment
//!   violation. The winner now owns the payload cell and the whole wait
//!   list (the acquire pairs with each parker's release, so every `next`
//!   link is visible); it writes the payload and *release*-stores READY.
//! * **READY** is final. A reader that *acquire*-loads READY therefore
//!   sees the completed payload write, and nobody writes the cell again:
//!   single assignment is what makes the unsynchronised payload read
//!   race-free.
//! * **head → SCANNING → head** — the deadlock diagnostic borrowing the
//!   list to walk it, and teardown (head → EMPTY) taking it. Parkers and
//!   putters that meet WRITING or SCANNING spin: both last a few
//!   instructions and neither is on a step's path.
//!
//! *A parked instance cannot miss its put.* Parking and putting are
//! CASes on the same word, so they are totally ordered: a park ordered
//! before the put is on the list the put takes; a park ordered after it
//! finds WRITING, spins to READY and reads the item instead.
//!
//! # One instance, one link, one counted reference
//!
//! A step instance is one allocation, [`Instance`]: the non-generic
//! [`Header`] (what the runtime needs: names, attempt counter, the
//! wait-list link, the declared dependencies still to check) followed
//! by the tag and the prescription. [`InstanceRef`] is the thin,
//! type-erased handle to it that wait lists and queues hold.
//!
//! The instance holds one counted handle, on its [`Prescription`]. The
//! prescription owns the handle on the core, so the header reaches the
//! core through a plain pointer for as long as the instance lives. One
//! more count is taken per execution, in [`InstanceRef::finish`]: the
//! instance must let go of the step body *before* it leaves `pending`,
//! and leaving `pending` needs the core.
//!
//! An instance waits on at most one slot at a time, so the link is one
//! word. Native's blocked `get` parks the running instance on the
//! missing item. A pre-scheduled instance (`put_when`) parks on its
//! first missing dependency; the put that fires it calls [`resume`],
//! which continues down the dependency list from the stored cursor and
//! either parks it on the next missing one or dispatches it. Whoever
//! holds a parked-but-unlisted instance (its creator, then the putter
//! that took it) is its only owner, so cursor and link need no more
//! than relaxed accesses ordered by the slot's CAS.
//!
//! *A declared dependency is a bare slot address* ([`Deps`], inside the
//! instance: [`INLINE_DEPS`] of them, the rest in one block). What
//! keeps the slot alive is not the instance: `put_when` takes every
//! key of one instance from **one** collection, and `resume` reads the
//! addresses only (a) inside that `put_when`, which borrows the
//! collection, or (b) inside a `put` into that same collection, which
//! took the instance off one of its wait lists and borrows it too — an
//! instance with dependencies left to check is parked nowhere else,
//! because its body (whose gets may park it elsewhere) has not run.
//! A collection keeps its slots in place while it lives (`Store`). If
//! the collection dies first, its wait lists drop the instance with it.
//!
//! Counters: an instance counts in `blocked` from before its first
//! park until [`resume`] finds nothing missing, where it moves to
//! `pending` (epoch first, then `pending` up, then `blocked` down, so
//! no observer sees both at zero mid-transfer).

use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use recdp_trace::{panic_message, EventKind, StepId, StepOutcomeKind, Tracer};

use crate::error::{CncError, StepAbort, StepFailure};
use crate::runtime::RuntimeCore;
use crate::slot::SlotState;
use crate::StepResult;

/// Dependencies an instance holds without a block of their own.
const INLINE_DEPS: usize = 4;

/// The declared dependencies of one instance that were missing when it
/// was declared, in declaration order; see the module docs for what
/// keeps the addresses valid.
#[derive(Clone, Default)]
pub(crate) struct Deps {
    inline: [Option<NonNull<SlotState>>; INLINE_DEPS],
    spill: Vec<NonNull<SlotState>>,
}

impl Deps {
    /// Appends `slot`; `more` is how many may still follow (sizes the
    /// block once, when the inline slots run out).
    pub(crate) fn push(&mut self, slot: &SlotState, more: usize) {
        let slot = NonNull::from(slot);
        match self.inline.iter_mut().find(|free| free.is_none()) {
            Some(free) => *free = Some(slot),
            None => {
                if self.spill.is_empty() {
                    self.spill.reserve(more + 1);
                }
                self.spill.push(slot);
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }

    fn get(&self, at: usize) -> Option<NonNull<SlotState>> {
        match self.inline.get(at) {
            Some(inline) => *inline,
            None => self.spill.get(at - INLINE_DEPS).copied(),
        }
    }
}

type StepBody<T> = Box<dyn Fn(&T, &StepScope) -> StepResult + Send + Sync>;

/// A prescribed step collection: the body every instance of it runs.
pub(crate) struct Prescription<T> {
    /// The handle on the core every instance of the step borrows.
    pub(crate) core: Arc<RuntimeCore>,
    pub(crate) step_name: &'static str,
    /// `step_name` interned in the graph's tracer, on first use.
    pub(crate) trace_step: OnceLock<StepId>,
    pub(crate) body: StepBody<T>,
}

/// What the runtime knows of a step instance without knowing its tag
/// type. First field of [`Instance`], so a pointer to one is a pointer
/// to the other.
#[repr(C, align(8))]
pub(crate) struct Header {
    vtable: &'static VTable,
    /// `Arc::as_ptr` of the prescription's handle on the core.
    core: *const RuntimeCore,
    pub(crate) step_name: &'static str,
    /// `step_name` in the graph's tracer, if one was installed when the
    /// instance was created.
    trace_step: Option<StepId>,
    /// Deterministic hash of the prescribing tag (fault-site identity).
    pub(crate) tag_hash: u64,
    /// Transient-failure retries taken so far. Blocked-get re-executions
    /// do not advance it: their count depends on timing and would make
    /// seeded fault decisions interleaving-dependent.
    pub(crate) attempts: AtomicU32,
    /// The instance parked before this one on the same slot.
    pub(crate) next: AtomicPtr<Header>,
    /// Declared dependencies not known to be ready when the instance
    /// was created (empty for a plain `put`).
    deps: Deps,
    /// Where [`resume`] continues in `deps`: the next entry to check.
    cursor: AtomicU32,
}

struct VTable {
    exec: unsafe fn(*const Header, &StepScope) -> StepResult,
    retain: unsafe fn(*const Header),
    release: unsafe fn(*const Header),
}

/// One step instance: a prescribed body bound to a tag value.
/// Re-executed from scratch (abort-and-retry) each time it is resumed.
#[repr(C)]
struct Instance<T> {
    header: Header,
    prescription: Arc<Prescription<T>>,
    tag: T,
}

impl<T: Send + Sync + 'static> Instance<T> {
    const VTABLE: VTable = VTable {
        exec: |header, scope| {
            // SAFETY (all three): `header` is the first field of a live
            // `Arc<Instance<T>>` allocation (`InstanceRef::new`).
            let this = unsafe { &*(header as *const Instance<T>) };
            (this.prescription.body)(&this.tag, scope)
        },
        retain: |header| unsafe { Arc::increment_strong_count(header as *const Instance<T>) },
        release: |header| drop(unsafe { Arc::from_raw(header as *const Instance<T>) }),
    };
}

/// An owning handle to a step instance: one pointer, tag type erased.
pub(crate) struct InstanceRef(NonNull<Header>);

// SAFETY: the handle is an `Arc<Instance<T>>` with `T: Send + Sync`; the
// header's own fields are atomics, `Send + Sync` values, `core`, which
// points into an `Arc<RuntimeCore>`, and `deps`, which is immutable and
// names slots of a `Send + Sync` collection.
unsafe impl Send for InstanceRef {}
unsafe impl Sync for InstanceRef {}

impl InstanceRef {
    pub(crate) fn new<T: Send + Sync + 'static>(
        prescription: Arc<Prescription<T>>,
        tag: T,
        tag_hash: u64,
        deps: Deps,
    ) -> Self {
        let trace_step = prescription.core.tracer.get().map(|t| {
            *prescription
                .trace_step
                .get_or_init(|| t.intern(prescription.step_name))
        });
        let instance = Arc::new(Instance {
            header: Header {
                vtable: &Instance::<T>::VTABLE,
                core: Arc::as_ptr(&prescription.core),
                step_name: prescription.step_name,
                trace_step,
                tag_hash,
                attempts: AtomicU32::new(0),
                next: AtomicPtr::new(std::ptr::null_mut()),
                deps,
                cursor: AtomicU32::new(0),
            },
            prescription,
            tag,
        });
        let header = Arc::into_raw(instance) as *mut Header;
        // SAFETY: `Arc::into_raw` is never null.
        InstanceRef(unsafe { NonNull::new_unchecked(header) })
    }

    pub(crate) fn as_ptr(&self) -> *mut Header {
        self.0.as_ptr()
    }

    /// # Safety
    /// `header` must carry a reference on a live instance, which the
    /// returned handle takes over (a wait-list node, see `Slot::park`).
    pub(crate) unsafe fn from_raw(header: NonNull<Header>) -> Self {
        InstanceRef(header)
    }

    /// The handle's reference as a bare pointer, for [`Self::from_raw`].
    fn into_raw(self) -> *mut Header {
        let header = self.0.as_ptr();
        std::mem::forget(self);
        header
    }

    /// Executes (or drains) the instance, then retires it.
    pub(crate) fn run(self) {
        self.execute();
        self.finish();
    }

    /// Retires the instance from `pending` — only after letting go of
    /// it, and with it (if no wait list or queue holds it too) of the
    /// step body: whoever sees the graph quiescent may drop it, and no
    /// body outlives that drop. Once let go, the prescription may die at
    /// any moment and its handle on the core with it; hence this one.
    pub(crate) fn finish(self) {
        // SAFETY: `core` is `Arc::as_ptr` of a handle that lives as long
        // as `self`; the count taken here becomes the new handle's.
        let core = unsafe {
            Arc::increment_strong_count(self.core);
            Arc::from_raw(self.core)
        };
        drop(self);
        core.finish_one();
    }

    fn execute(&self) {
        let core = self.core();
        let stats = core.stats.local();
        // Fail-fast: once the graph recorded an error (failure,
        // cancellation, timeout), drain without executing bodies.
        if core.error_pending() {
            return;
        }
        // Resume skip: a checkpoint installed via `resume_from` records
        // this instance as already completed. Its outputs were restored
        // into the item collections, so the body must not run again —
        // single assignment forbids re-putting them.
        if core.should_skip(self.step_name, self.tag_hash) {
            crate::stats::bump(&stats.steps_skipped);
            return;
        }
        crate::stats::bump(&stats.steps_started);
        let traced = core.tracer.get().map(|t| {
            let lane = t.lane();
            let step = self.trace_id(t);
            (lane.now(), lane, step)
        });
        let scope = StepScope {
            inst: self,
            parked: Cell::new(false),
            gets_ok: Cell::new(0),
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
                // SAFETY: `self` is a live instance of the vtable's type.
                let body = || unsafe { (self.vtable.exec)(self.0.as_ptr(), &scope) };
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            }
        };
        // Puts the body published before returning (0 for injector-driven
        // aborts, which fire before the body runs). `take` resets the
        // slot to None so environment code on this thread is not counted.
        if scope.gets_ok.get() > 0 {
            let served = scope.gets_ok.get();
            stats.gets_ok.fetch_add(served, Ordering::Release);
        }
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
                    instance: self.id() as u64,
                });
            }
        }
        match outcome {
            Ok(Ok(_)) => {
                crate::stats::bump(&stats.steps_completed);
                // Only zero-tag-put completions enter the checkpoint log:
                // they are pure data producers whose effects the item
                // snapshot captures, so a resumed run can skip them. A
                // tag-putting execution is recursive expansion — it must
                // re-run on resume to rebuild the tag tree (and doing so
                // is safe precisely because it put no items).
                if body_tag_puts == 0 {
                    stats.executed.lock().push((self.step_name, self.tag_hash));
                }
            }
            Ok(Err(StepAbort::Blocked)) => {
                crate::stats::bump(&stats.steps_requeued);
            }
            Ok(Err(StepAbort::Failed(failure))) => {
                self.handle_failure(failure, body_puts);
            }
            Err(panic) => {
                let msg = panic_message(&*panic);
                core.record_error(CncError::StepPanicked(format!(
                    "[{}]: {msg}",
                    self.step_name
                )));
            }
        }
        // A parked instance together with a non-Blocked outcome means
        // the body swallowed a failed blocking get instead of propagating
        // it with `?` — the put would later re-execute a completed
        // instance (double puts); surface it as a contract violation.
        if scope.parked.get() && !blocked_outcome {
            core.record_error(CncError::StepFailed {
                step: self.step_name,
                failure: StepFailure::permanent(
                    "step returned without propagating a failed blocking get \
                     (propagate StepAbort::Blocked with `?`)",
                ),
            });
        }
    }
}

/// The instance is the pool's job: dispatching it allocates nothing.
impl recdp_forkjoin::RawJob for InstanceRef {
    fn into_raw(self) -> *const () {
        InstanceRef::into_raw(self) as *const ()
    }

    unsafe fn run(job: *const ()) {
        // SAFETY: `job` is `into_raw`'s header, with its reference.
        InstanceRef(unsafe { NonNull::new_unchecked(job as *mut Header) }).run();
    }
}

impl Clone for InstanceRef {
    fn clone(&self) -> Self {
        // SAFETY: `self` keeps the instance alive across the call.
        unsafe { (self.vtable.retain)(self.0.as_ptr()) };
        InstanceRef(self.0)
    }
}

impl Drop for InstanceRef {
    fn drop(&mut self) {
        // SAFETY: the handle's own reference, given up here.
        unsafe { (self.vtable.release)(self.0.as_ptr()) };
    }
}

impl std::ops::Deref for InstanceRef {
    type Target = Header;

    fn deref(&self) -> &Header {
        // SAFETY: the handle owns a reference on the allocation.
        unsafe { self.0.as_ref() }
    }
}

impl Header {
    pub(crate) fn core(&self) -> &RuntimeCore {
        // SAFETY: the instance this header heads owns a prescription,
        // which owns the `Arc` the pointer was taken from.
        unsafe { &*self.core }
    }

    /// Identity of the instance (stable while it is parked).
    pub(crate) fn id(&self) -> usize {
        self as *const Header as usize
    }

    /// This step's name in the graph's tracer.
    pub(crate) fn trace_id(&self, tracer: &Tracer) -> StepId {
        self.trace_step
            .unwrap_or_else(|| tracer.intern(self.step_name))
    }
}

/// Continues a blocked instance the caller owns (fresh from `put_when`,
/// or taken off the wait list of an item just put): parks it on the
/// next declared dependency that is still missing, or, when none is,
/// moves it from `blocked` to `pending` and dispatches it.
pub(crate) fn resume(mut inst: InstanceRef) {
    loop {
        let at = inst.cursor.load(Ordering::Relaxed);
        // Advance first: once parked, the instance is its next owner's.
        inst.cursor.store(at + 1, Ordering::Relaxed);
        let Some(slot) = inst.deps.get(at as usize) else {
            break;
        };
        // SAFETY: the caller borrows the collection the address points
        // into (module docs, "a declared dependency"). A successful
        // `park` touches neither slot nor instance after its CAS, so it
        // does not matter that another thread may by then have resumed,
        // run and freed the instance.
        match unsafe { slot.as_ref() }.park(inst) {
            Ok(()) => return,
            Err(back) => inst = back,
        }
    }
    // SAFETY: as `Header::core`, but not tied to the borrow of `inst`,
    // which `dispatch` consumes: the instance keeps the core alive until
    // `dispatch` has handed it on, and touches nothing of the core after.
    let core = unsafe { &*inst.core };
    // Advance the resume epoch first: the deadlock check uses it to
    // detect a resume that runs to retirement between its counter reads
    // (both counters would look unchanged). Then `pending` up *before*
    // `blocked` down, so no observer can catch both at zero while the
    // resume is in flight (a concurrent `wait()` would otherwise report
    // spurious quiescence).
    core.resume_epoch.fetch_add(1, Ordering::AcqRel);
    core.pending.fetch_add(1, Ordering::AcqRel);
    core.blocked.fetch_sub(1, Ordering::AcqRel);
    if let Some(tracer) = core.tracer.get() {
        tracer.lane().instant(EventKind::Resume {
            instance: inst.id() as u64,
        });
    }
    core.dispatch(inst, false);
}

impl RuntimeCore {
    /// Enqueues a ready instance onto the pool. `fair` routes through
    /// the global injector (used for non-blocking-get self-respawns so a
    /// retrying step cannot starve its own producers on a LIFO deque).
    pub(crate) fn enqueue(&self, inst: InstanceRef, fair: bool) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.dispatch(inst, fair);
    }

    /// Dispatches an instance whose `pending` slot is already counted.
    /// Touches nothing of `self` once the instance is handed on (the
    /// instance may be all that keeps `self` alive, see [`resume`]).
    fn dispatch(&self, inst: InstanceRef, fair: bool) {
        if let Some(m) = &self.managed {
            // Managed mode: the scheduler owns all ordering, including
            // the fair/LIFO distinction the pool would otherwise make —
            // `fair` is deliberately ignored so retry ordering is a
            // schedule-exploration dimension, not a fixed policy.
            m.queue.lock().push(inst);
            return;
        }
        let mut inst = inst;
        if let (false, Some(pool)) = (fair, self.pool_id) {
            // From a step on one of the pool's own workers (the usual
            // case) the worker's deque is at hand: it outlives the step,
            // so the dispatch touches nothing the workers share.
            match recdp_forkjoin::spawn_local(pool, inst) {
                Ok(()) => return,
                Err(back) => inst = back,
            }
        }
        match self.pool.upgrade() {
            Some(pool) => pool.spawn_job(inst, fair),
            // Pool gone (graph dropped): account the instance as done
            // so a straggling `wait` cannot hang.
            None => inst.finish(),
        }
    }

    pub(crate) fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.notify_quiescence();
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
    inst: &'a InstanceRef,
    /// This execution parked the instance (a blocked get).
    parked: Cell<bool>,
    /// Blocking gets this execution was served: one add to the graph's
    /// (shared) counter when the body returns, not one per get.
    gets_ok: Cell<u64>,
}

impl StepScope<'_> {
    /// Parks the executing instance on `slot`, whose item a blocking get
    /// found missing. False: the item arrived in between — read it.
    pub(crate) fn park_on(&self, slot: &SlotState) -> bool {
        if self.parked.get() {
            // The body swallowed an earlier blocked get (reported when
            // it returns); the instance is already on that item's list.
            return true;
        }
        // Counted as blocked before it can be resumed; this execution
        // still holds a `pending` slot, so no verdict reads in between.
        let core = self.inst.core();
        core.blocked.fetch_add(1, Ordering::AcqRel);
        let parked = slot.park(self.inst.clone()).is_ok();
        if !parked {
            core.blocked.fetch_sub(1, Ordering::AcqRel);
        }
        self.parked.set(parked);
        parked
    }

    pub(crate) fn count_get_ok(&self) {
        self.gets_ok.set(self.gets_ok.get() + 1);
    }

    /// Name of the executing step collection (diagnostics).
    pub fn step_name(&self) -> &'static str {
        self.inst.step_name
    }
}
