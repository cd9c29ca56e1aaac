//! Managed (deterministically scheduled) execution mode.
//!
//! A *managed* graph has no worker threads: every ready step instance is
//! parked in a queue, and a scheduler callback — the [`PickFn`] — owns
//! each "which instance runs next" decision. Execution is serialized on
//! whichever thread drives the graph (usually [`crate::CncGraph::wait`],
//! which pops and runs scheduler-chosen instances until quiescence), so
//! the *only* nondeterminism left in a run is the sequence of picks.
//! That is exactly the property the `recdp-check` harness needs: replay
//! a schedule from a `u64` seed, explore N random schedules, or
//! enumerate every interleaving of a small graph by DFS over the pick
//! decisions.
//!
//! The scheduler's authority is total by construction, not by
//! convention: ready-queue order, blocked-get resume order and retry
//! ordering all funnel through the same queue (the runtime's `fair`
//! re-enqueue hint is deliberately ignored in managed mode), so an
//! adversarial picker can produce any schedule the dependency structure
//! permits.
//!
//! ```
//! use recdp_cnc::{CncGraph, StepOutcome};
//!
//! // FIFO picker: always run the oldest ready instance.
//! let (graph, handle) = CncGraph::managed(Box::new(|_ready| 0));
//! let out = graph.item_collection::<u32, u32>("out");
//! let tags = graph.tag_collection::<u32>("t");
//! let o = out.clone();
//! tags.prescribe("double", move |&n, _| {
//!     o.put(n, n * 2)?;
//!     Ok(StepOutcome::Done)
//! });
//! tags.put(3);
//! tags.put(4);
//! graph.wait().unwrap(); // drives both instances inline, FIFO order
//! assert_eq!(out.get_env(&4), Some(8));
//! assert_eq!(handle.trace().len(), 2);
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

use crate::hot::InstanceRef;
use crate::runtime::{CncGraph, RuntimeCore};

/// One entry of the managed ready queue, as shown to the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReadyTask {
    /// Step-collection name of the queued instance.
    pub step: &'static str,
    /// Deterministic hash of the prescribing tag (instance identity).
    pub tag_hash: u64,
}

/// One executed instance in a managed schedule trace. Two runs that
/// produce equal traces executed the identical schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleEvent {
    /// Step-collection name of the executed instance.
    pub step: &'static str,
    /// Deterministic hash of the prescribing tag.
    pub tag_hash: u64,
}

/// The scheduler callback of a managed graph: given the ready queue
/// (never empty), returns the index of the instance to run next.
pub type PickFn = Box<dyn FnMut(&[ReadyTask]) -> usize + Send>;

/// Driving handle of a managed graph: inspect the ready queue, run
/// instances one at a time (with or without the installed picker), and
/// read back the executed schedule.
///
/// A managed graph is a single-threaded test harness object: drive it
/// from one thread only (the handle is `Send`, but concurrent driving
/// would reintroduce the OS-scheduler nondeterminism managed mode
/// exists to remove — and trips the lost-wakeup oracle in `wait`).
pub struct ManagedHandle {
    core: Arc<RuntimeCore>,
}

impl ManagedHandle {
    /// Snapshot of the ready queue, in queue order.
    pub fn ready(&self) -> Vec<ReadyTask> {
        self.core.managed_ready()
    }

    /// Number of queued ready instances.
    pub fn ready_len(&self) -> usize {
        self.core.managed_ready().len()
    }

    /// Number of instances parked on missing items or pre-scheduling
    /// countdowns.
    pub fn blocked_len(&self) -> usize {
        self.core.blocked_count()
    }

    /// Runs one instance chosen by the installed picker. Returns false
    /// if nothing is ready.
    pub fn run_one(&self) -> bool {
        self.core.run_managed_one()
    }

    /// Runs the `idx`-th ready instance (queue order), bypassing the
    /// picker. Returns false if nothing is ready; panics if `idx` is
    /// out of range.
    pub fn run_nth(&self, idx: usize) -> bool {
        self.core.run_managed_nth(idx)
    }

    /// Runs picker-chosen instances until the ready queue drains.
    /// Returns the number of instances executed. Blocked instances may
    /// remain parked — this drains readiness, not the whole graph.
    pub fn drain(&self) -> usize {
        let mut ran = 0;
        while self.core.run_managed_one() {
            ran += 1;
        }
        ran
    }

    /// The schedule executed so far: one event per instance execution
    /// (including blocked-get re-executions and retries), in order.
    pub fn trace(&self) -> Vec<ScheduleEvent> {
        self.core.managed_trace()
    }
}

/// The managed scheduler's state: the ready queue, the pick callback,
/// and the schedule trace (one event per executed instance, in order).
pub(crate) struct ManagedState {
    pub(crate) queue: Mutex<Vec<InstanceRef>>,
    pub(crate) picker: Mutex<PickFn>,
    pub(crate) trace: Mutex<Vec<ScheduleEvent>>,
}

impl ManagedState {
    pub(crate) fn new(picker: PickFn) -> Self {
        ManagedState {
            queue: Mutex::new(Vec::new()),
            picker: Mutex::new(picker),
            trace: Mutex::new(Vec::new()),
        }
    }
}

impl RuntimeCore {
    /// Snapshot of the managed ready queue, in queue order.
    pub(crate) fn managed_ready(&self) -> Vec<ReadyTask> {
        let m = self.managed.as_ref().expect("not a managed graph");
        m.queue
            .lock()
            .iter()
            .map(|t| ReadyTask {
                step: t.step_name,
                tag_hash: t.tag_hash,
            })
            .collect()
    }

    /// The schedule executed so far (managed graphs only).
    pub(crate) fn managed_trace(&self) -> Vec<ScheduleEvent> {
        let m = self.managed.as_ref().expect("not a managed graph");
        m.trace.lock().clone()
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
                    step: t.step_name,
                    tag_hash: t.tag_hash,
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
            step: task.step_name,
            tag_hash: task.tag_hash,
        });
        task.run();
        true
    }
}

impl CncGraph {
    /// A managed graph: no worker threads; `picker` owns every
    /// ready-task choice and [`CncGraph::wait`] (or the returned
    /// [`ManagedHandle`]) drives execution inline. See the module docs.
    pub fn managed(picker: PickFn) -> (CncGraph, ManagedHandle) {
        let core = RuntimeCore::build(None, Some(picker));
        let handle = ManagedHandle {
            core: Arc::clone(&core),
        };
        (CncGraph { pool: None, core }, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CncError, StepOutcome};

    #[test]
    fn fifo_and_lifo_pickers_order_independent_result() {
        for lifo in [false, true] {
            let (g, h) = CncGraph::managed(Box::new(
                move |ready| {
                    if lifo {
                        ready.len() - 1
                    } else {
                        0
                    }
                },
            ));
            let out = g.item_collection::<u32, u32>("out");
            let tags = g.tag_collection::<u32>("t");
            let o = out.clone();
            tags.prescribe("sq", move |&n, _| {
                o.put(n, n * n)?;
                Ok(StepOutcome::Done)
            });
            for n in 0..8 {
                tags.put(n);
            }
            assert_eq!(h.ready_len(), 8);
            let stats = g.wait().unwrap();
            assert_eq!(stats.steps_completed, 8);
            assert_eq!(out.get_env(&7), Some(49));
            // Trace order differs by picker, content does not.
            let mut steps: Vec<u64> = h.trace().iter().map(|e| e.tag_hash).collect();
            steps.sort_unstable();
            steps.dedup();
            assert_eq!(steps.len(), 8);
        }
    }

    #[test]
    fn managed_wait_drives_blocking_gets() {
        let (g, h) = CncGraph::managed(Box::new(|_| 0));
        let input = g.item_collection::<u32, u32>("in");
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let (i2, o2) = (input.clone(), out.clone());
        tags.prescribe("plus1", move |&n, s| {
            let v = i2.get(s, &n)?;
            o2.put(n, v + 1)?;
            Ok(StepOutcome::Done)
        });
        tags.put(5);
        // Run the instance once: it parks on the missing input.
        assert!(h.run_one());
        assert_eq!(h.blocked_len(), 1);
        input.put(5, 41).unwrap();
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&5), Some(42));
        assert_eq!(stats.steps_requeued, 1);
        assert_eq!(h.trace().len(), 2, "initial blocked run plus the resume");
    }

    #[test]
    fn managed_deadlock_detected() {
        let (g, _h) = CncGraph::managed(Box::new(|_| 0));
        let never = g.item_collection::<u32, u32>("never");
        let tags = g.tag_collection::<u32>("t");
        let n2 = never.clone();
        tags.prescribe("starved", move |&n, s| {
            let _ = n2.get(s, &n)?;
            Ok(StepOutcome::Done)
        });
        tags.put(1);
        match g.wait() {
            Err(CncError::Deadlock {
                blocked_instances: 1,
                diagnostic,
            }) => {
                assert_eq!(diagnostic.waits.len(), 1);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn managed_errors_propagate() {
        let (g, _h) = CncGraph::managed(Box::new(|_| 0));
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("bad", |_, _| panic!("kaput"));
        tags.put(0);
        assert!(matches!(g.wait(), Err(CncError::StepPanicked(_))));
    }

    #[test]
    fn managed_trace_records_schedule() {
        let (g, h) = CncGraph::managed(Box::new(|ready| ready.len() - 1));
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("noop", |_, _| Ok(StepOutcome::Done));
        for n in 0..4 {
            tags.put(n);
        }
        g.wait().unwrap();
        let trace = h.trace();
        assert_eq!(trace.len(), 4);
        assert!(trace.iter().all(|e| e.step == "noop"));
    }
}
