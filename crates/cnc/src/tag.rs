//! Tag collections: the control side of a CnC graph.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use recdp_trace::StepId;

use crate::runtime::{
    note_body_put, note_body_tag_put, CollectionHooks, Countdown, DepSet, InstanceTask,
    RuntimeCore, SpecLine, StepScope,
};
use crate::StepResult;

type StepBody<T> = Arc<dyn Fn(&T, &StepScope) -> StepResult + Send + Sync>;

struct Prescription<T> {
    step_name: &'static str,
    /// `step_name` interned in the graph's tracer, on first use.
    trace_step: OnceLock<StepId>,
    body: StepBody<T>,
}

struct TagInner<T> {
    name: &'static str,
    core: Arc<RuntimeCore>,
    /// `None` once the graph handle dropped: its teardown releases the
    /// bodies, and later puts find nothing to run.
    prescriptions: RwLock<Option<Vec<Prescription<T>>>>,
}

impl<T: Send + Sync> CollectionHooks for TagInner<T> {
    fn teardown(&self) {
        // Dropped after the lock is released: the bodies may own the
        // last handles to other collections.
        let released = self.prescriptions.write().take();
        drop(released);
    }
}

/// A handle to a tag collection. Putting a tag creates one instance of
/// every prescribed step collection, keyed by that tag — the
/// `<tags> :: (step)` relation of a CnC specification.
pub struct TagCollection<T> {
    inner: Arc<TagInner<T>>,
}

impl<T> Clone for TagCollection<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> TagCollection<T>
where
    T: Hash + Clone + Send + Sync + 'static,
{
    pub(crate) fn new(name: &'static str, core: Arc<RuntimeCore>) -> Self {
        let inner = Arc::new(TagInner {
            name,
            core,
            prescriptions: RwLock::new(Some(Vec::new())),
        });
        let hooks = Arc::downgrade(&inner);
        inner.core.register_collection(SpecLine::Tags(name), hooks);
        Self { inner }
    }

    /// Collection name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Prescribes a step collection: every tag put after this call
    /// creates an instance of `body` bound to that tag. `body` receives
    /// the tag and a [`StepScope`] for blocking gets, and returns a
    /// [`StepResult`].
    pub fn prescribe<F>(&self, step_name: &'static str, body: F) -> &Self
    where
        F: Fn(&T, &StepScope) -> StepResult + Send + Sync + 'static,
    {
        if let Some(prescriptions) = self.inner.prescriptions.write().as_mut() {
            prescriptions.push(Prescription {
                step_name,
                trace_step: OnceLock::new(),
                body: Arc::new(body),
            });
            let line = SpecLine::Prescribes(self.inner.name, step_name);
            self.inner.core.spec.lock().push(line);
        }
        self
    }

    fn instances(&self, tag: &T) -> Vec<Arc<InstanceTask>> {
        let prescriptions = self.inner.prescriptions.read();
        let Some(prescriptions) = prescriptions.as_ref() else {
            return Vec::new(); // graph dropped: like a put with the pool gone
        };
        assert!(
            !prescriptions.is_empty(),
            "tag collection <{}> has no prescribed step collection",
            self.inner.name
        );
        // `DefaultHasher::new` uses fixed keys, so the hash identifies
        // this tag deterministically across runs — the fault-site key
        // that makes seeded chaos plans replayable.
        let mut h = DefaultHasher::new();
        tag.hash(&mut h);
        let tag_hash = h.finish();
        prescriptions
            .iter()
            .map(|p| {
                let body = Arc::clone(&p.body);
                let tag = tag.clone();
                InstanceTask::new(
                    Arc::clone(&self.inner.core),
                    p.step_name,
                    &p.trace_step,
                    tag_hash,
                    Box::new(move |scope| body(&tag, scope)),
                )
            })
            .collect()
    }

    /// Puts a tag: prescribed step instances are dispatched immediately
    /// (Native-CnC behaviour — instances discover missing inputs via
    /// failed blocking gets and retry).
    pub fn put(&self, tag: T) {
        crate::stats::bump(&self.inner.core.stats.tags_put);
        // A tag put from inside a body spawns instances — re-executing
        // the body would spawn them again, so it counts as a
        // non-retryable side effect like an item put. It also marks the
        // execution as expansion, which checkpoints never record as
        // completed (see `crate::checkpoint`).
        note_body_put();
        note_body_tag_put();
        for task in self.instances(&tag) {
            task.enqueue();
        }
    }

    /// Re-puts a tag from inside its own step after a failed
    /// [`crate::ItemCollection::try_get`] — the non-blocking-get style's
    /// self-respawn. Identical to [`TagCollection::put`] plus the
    /// wasted-work accounting (`nb_retries`).
    pub fn put_retry(&self, tag: T) {
        crate::stats::bump(&self.inner.core.stats.nb_retries);
        crate::stats::bump(&self.inner.core.stats.tags_put);
        note_body_put();
        note_body_tag_put();
        for task in self.instances(&tag) {
            // Fair (global-injector) dispatch: a self-respawning step on
            // a LIFO deque would otherwise be popped straight back and
            // livelock a single-worker pool.
            task.enqueue_fair();
        }
    }

    /// Puts a tag with a declared dependency set: instances are parked
    /// until every item in `deps` has been put, then dispatched once —
    /// the pre-scheduling tuner of Sec. III-D (and, when the environment
    /// declares the whole computation up front, the Manual-CnC variant).
    pub fn put_when(&self, tag: T, deps: &DepSet) {
        crate::stats::bump(&self.inner.core.stats.tags_put);
        note_body_put();
        note_body_tag_put();
        for task in self.instances(&tag) {
            let countdown = Countdown::arm(task);
            deps.register_all(&countdown);
            // Release the guard token: if all deps were already ready the
            // instance dispatches right here.
            countdown.fire();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CncGraph, StepOutcome};
    use std::sync::atomic::{AtomicU32, Ordering as AOrd};

    #[test]
    fn multiple_prescriptions_all_fire() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        static A: AtomicU32 = AtomicU32::new(0);
        static B: AtomicU32 = AtomicU32::new(0);
        tags.prescribe("a", |_, _| {
            A.fetch_add(1, AOrd::SeqCst);
            Ok(StepOutcome::Done)
        });
        tags.prescribe("b", |_, _| {
            B.fetch_add(1, AOrd::SeqCst);
            Ok(StepOutcome::Done)
        });
        for i in 0..5 {
            tags.put(i);
        }
        g.wait().unwrap();
        assert_eq!(A.load(AOrd::SeqCst), 5);
        assert_eq!(B.load(AOrd::SeqCst), 5);
    }

    #[test]
    #[should_panic(expected = "no prescribed step")]
    fn put_without_prescription_panics() {
        let g = CncGraph::with_threads(1);
        let tags = g.tag_collection::<u32>("lonely");
        tags.put(0);
    }

    #[test]
    fn tags_put_counted() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("noop", |_, _| Ok(StepOutcome::Done));
        tags.put(1);
        tags.put(2);
        g.wait().unwrap();
        assert_eq!(g.stats().tags_put, 2);
    }

    #[test]
    fn steps_can_put_tags_recursively() {
        // The paper's recursive D-kernel expands by putting more tags
        // from inside a step; check the runtime tracks the cascade.
        let g = CncGraph::with_threads(2);
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let (o2, t2) = (out.clone(), tags.clone());
        tags.prescribe("expand", move |&n, _| {
            if n == 0 {
                o2.put(rand_free_key(&o2), 1)?;
            } else {
                t2.put(n - 1);
                t2.put(n - 1);
            }
            Ok(StepOutcome::Done)
        });
        tags.put(3); // expands to 2^3 = 8 leaves
        g.wait().unwrap();
        assert_eq!(out.len_ready(), 8);
    }

    /// Allocates a fresh key for the leaf counter above (single
    /// assignment forbids reusing one).
    fn rand_free_key(items: &crate::ItemCollection<u32, u32>) -> u32 {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let _ = items;
        NEXT.fetch_add(1, AOrd::SeqCst)
    }
}
