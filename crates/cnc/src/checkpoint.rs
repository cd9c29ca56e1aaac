//! Job-level checkpoint/resume for CnC graphs.
//!
//! Single assignment is what makes this sound: a completed step's items
//! can never be overwritten, so the pair (ready items, completed steps)
//! is a consistent cut of the computation at any quiescent point — there
//! is no in-place mutable state inside the graph whose partial updates a
//! snapshot could tear. [`crate::CncGraph::checkpoint`] captures that
//! cut; [`crate::CncGraph::resume_from`] installs it on a fresh graph so
//! a job aborted by a deadline, a cancellation, or worker loss restarts
//! from its completed tiles instead of from zero.
//!
//! What is recorded:
//!
//! * every *ready* entry of every item collection (type-erased, shared
//!   by `Arc` so a checkpoint is cheap to clone and can seed several
//!   resume attempts);
//! * the executed-step set: `(step name, tag hash)` of every completed
//!   execution that put **no tags**. Steps that put tags are the
//!   recursive expansion of the computation — they must re-run on resume
//!   so the tag tree is rebuilt — and re-running them is idempotent
//!   precisely because their spawned children are themselves either
//!   skipped (in the set) or safe to re-run. Data-producing steps (zero
//!   tag puts) are skipped on resume; their outputs arrive via the item
//!   snapshot instead, so no item is ever put twice.
//!
//! The contract this relies on (and the generic `DpSpec` engine
//! satisfies): a step either produces items *or* expands by putting
//! tags, never both. A step that did both would re-put its items when
//! its re-run expansion fires, and the single-assignment check reports
//! exactly that violation rather than corrupting the graph silently.

use std::any::Any;
use std::collections::HashSet;
use std::sync::Arc;

use crate::runtime::{CncGraph, RuntimeCore};

/// A type-erased snapshot of one item collection's ready entries
/// (`Arc<Vec<(K, V)>>` behind `dyn Any`), restored by the matching
/// collection when it is re-created on a resumed graph.
#[derive(Clone)]
pub(crate) struct ItemSnapshot {
    pub(crate) name: &'static str,
    pub(crate) len: usize,
    pub(crate) data: Arc<dyn Any + Send + Sync>,
}

/// A consistent cut of a CnC graph's progress: the ready items of every
/// collection plus the set of completed data-producing steps. Taken with
/// [`crate::CncGraph::checkpoint`], installed on a fresh graph with
/// [`crate::CncGraph::resume_from`]. Cloning is cheap (snapshots are
/// shared), so one checkpoint can seed several resume attempts.
#[derive(Clone)]
pub struct Checkpoint {
    pub(crate) items: Vec<ItemSnapshot>,
    pub(crate) executed: HashSet<(&'static str, u64)>,
}

impl Checkpoint {
    /// Number of completed step executions the checkpoint records (the
    /// steps a resumed run will skip).
    pub fn executed_steps(&self) -> usize {
        self.executed.len()
    }

    /// Total ready items snapshotted across all collections.
    pub fn items(&self) -> usize {
        self.items.iter().map(|s| s.len).sum()
    }

    /// Number of item collections snapshotted.
    pub fn collections(&self) -> usize {
        self.items.len()
    }

    /// True when the checkpoint records no progress at all (resuming
    /// from it is equivalent to a fresh run).
    pub fn is_empty(&self) -> bool {
        self.executed.is_empty() && self.items() == 0
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("collections", &self.collections())
            .field("items", &self.items())
            .field("executed_steps", &self.executed_steps())
            .finish()
    }
}

impl CncGraph {
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
        for shard in self.core.stats.shards() {
            executed.extend(shard.executed.lock().iter().copied());
        }
        if let Some(skips) = self.core.skip_set.get() {
            // Checkpointing a *resumed* graph carries the inherited skip
            // set forward: those steps are still completed.
            executed.extend(skips.iter().copied());
        }
        Checkpoint { items, executed }
    }

    /// Installs `checkpoint` on this graph: item collections created
    /// afterwards are pre-seeded with the snapshotted ready items
    /// (counted in [`crate::GraphStats::items_restored`]), and step instances
    /// the checkpoint records as completed retire without executing
    /// their bodies (counted in [`crate::GraphStats::steps_skipped`]).
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

impl RuntimeCore {
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
}

#[cfg(test)]
mod checkpoint_log_tests {
    use super::*;
    use crate::retry::jitter_mix;
    use crate::StepOutcome;
    use parking_lot::Mutex;
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
