//! Tag collections: the control side of a CnC graph.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::hot::{
    note_body_put, note_body_tag_put, resume, Deps, InstanceRef, Prescription, StepScope,
};
use crate::item::ItemCollection;
use crate::runtime::{CollectionHooks, RuntimeCore, SpecLine};
use crate::StepResult;

/// The prescriptions as tag puts read them.
type Frozen<T> = Box<[Weak<Prescription<T>>]>;

struct TagInner<T> {
    name: &'static str,
    core: Arc<RuntimeCore>,
    /// The prescribed steps, owned here. `None` once the graph handle
    /// dropped: its teardown releases the bodies, and later puts find
    /// nothing to run.
    prescribed: Mutex<Option<Vec<Arc<Prescription<T>>>>>,
    /// `prescribed` as of the first tag put, which is what puts read —
    /// no lock. Weak, so that releasing `prescribed` releases the
    /// bodies; `None` if the graph was dropped before any put.
    frozen: OnceLock<Option<Frozen<T>>>,
}

impl<T: Send + Sync> CollectionHooks for TagInner<T> {
    fn teardown(&self) {
        // Dropped after the lock is released: the bodies may own the
        // last handles to other collections.
        let released = self.prescribed.lock().take();
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
            prescribed: Mutex::new(Some(Vec::new())),
            frozen: OnceLock::new(),
        });
        let hooks = Arc::downgrade(&inner);
        inner.core.register_collection(SpecLine::Tags(name), hooks);
        Self { inner }
    }

    /// Collection name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Prescribes a step collection: every tag put creates an instance
    /// of `body` bound to that tag. `body` receives the tag and a
    /// [`StepScope`] for blocking gets, and returns a [`StepResult`].
    ///
    /// # Panics
    ///
    /// The prescriptions are frozen at the collection's first put (puts
    /// read them without a lock): prescribing after it panics.
    pub fn prescribe<F>(&self, step_name: &'static str, body: F) -> &Self
    where
        F: Fn(&T, &StepScope) -> StepResult + Send + Sync + 'static,
    {
        let mut prescribed = self.inner.prescribed.lock();
        assert!(
            self.inner.frozen.get().is_none(),
            "step collections must be prescribed before the first put into <{}>",
            self.inner.name
        );
        if let Some(prescribed) = prescribed.as_mut() {
            prescribed.push(Arc::new(Prescription {
                core: Arc::clone(&self.inner.core),
                step_name,
                trace_step: OnceLock::new(),
                body: Box::new(body),
            }));
            let line = SpecLine::Prescribes(self.inner.name, step_name);
            self.inner.core.spec.lock().push(line);
        }
        self
    }

    /// Counts the tag put and creates one instance per prescribed step,
    /// each with its own copy of `deps` (the last one with `deps`
    /// itself), handing them to `launch`.
    fn instances(&self, tag: &T, mut deps: Deps, launch: impl Fn(InstanceRef)) {
        crate::stats::bump(&self.inner.core.stats.local().tags_put);
        // A tag put from inside a body spawns instances — re-executing
        // the body would spawn them again, so it counts as a
        // non-retryable side effect like an item put. It also marks the
        // execution as expansion, which checkpoints never record as
        // completed (see `crate::checkpoint`).
        note_body_put();
        note_body_tag_put();
        let frozen = self.inner.frozen.get().unwrap_or_else(|| {
            // First put: freeze under the lock `prescribe` checks under.
            let prescribed = self.inner.prescribed.lock();
            let freeze = || Some(prescribed.as_ref()?.iter().map(Arc::downgrade).collect());
            self.inner.frozen.get_or_init(freeze)
        });
        let Some(prescriptions) = frozen else {
            return; // graph dropped: like a put with the pool gone
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
        for (at, prescription) in prescriptions.iter().enumerate() {
            // A prescription that no longer upgrades was released by the
            // graph's teardown.
            let Some(prescription) = prescription.upgrade() else {
                continue;
            };
            let deps = if at + 1 == prescriptions.len() {
                std::mem::take(&mut deps)
            } else {
                deps.clone()
            };
            launch(InstanceRef::new(prescription, tag.clone(), tag_hash, deps));
        }
    }

    /// Puts a tag: prescribed step instances are dispatched immediately
    /// (Native-CnC behaviour — instances discover missing inputs via
    /// failed blocking gets and retry).
    pub fn put(&self, tag: T) {
        self.instances(&tag, Deps::default(), |inst| {
            self.inner.core.enqueue(inst, false)
        });
    }

    /// Re-puts a tag from inside its own step after a failed
    /// [`crate::ItemCollection::try_get`] — the non-blocking-get style's
    /// self-respawn. Identical to [`TagCollection::put`] plus the
    /// wasted-work accounting (`nb_retries`).
    pub fn put_retry(&self, tag: T) {
        crate::stats::bump(&self.inner.core.stats.local().nb_retries);
        // Fair (global-injector) dispatch: a self-respawning step on
        // a LIFO deque would otherwise be popped straight back and
        // livelock a single-worker pool.
        self.instances(&tag, Deps::default(), |inst| {
            self.inner.core.enqueue(inst, true)
        });
    }

    /// Puts a tag with declared dependencies: instances are parked until
    /// every item of `items` named by `keys` has been put, then
    /// dispatched once — the pre-scheduling tuner of Sec. III-D (and,
    /// when the environment declares the whole computation up front, the
    /// Manual-CnC variant), eliminating Native-CnC's abort-and-retry
    /// re-executions. Nothing is built on the way: the slots still
    /// missing are written into the instance itself. A key outside a
    /// grid collection's extent fails the graph with that
    /// [`crate::CncError::KeyOutOfExtent`] instead, and no instance is
    /// created.
    pub fn put_when<K, V>(
        &self,
        tag: T,
        items: &ItemCollection<K, V>,
        keys: impl IntoIterator<Item = K>,
    ) where
        K: Hash + Eq + Clone + std::fmt::Debug + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let core = &self.inner.core;
        let mut deps = Deps::default();
        let mut keys = keys.into_iter();
        while let Some(key) = keys.next() {
            match items.slot(&key) {
                Ok(slot) if slot.is_ready() => {}
                Ok(slot) => deps.push(slot, keys.size_hint().0),
                Err(err) => return core.record_error(err),
            }
        }
        if deps.is_empty() {
            // Nothing to wait for: the instance never counts as blocked.
            return self.put(tag);
        }
        self.instances(&tag, deps, |inst| {
            core.blocked.fetch_add(1, Ordering::AcqRel);
            resume(inst);
        });
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
        tags.put_when(4, &input, [4, 5]);
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
        tags.put_when(1, &input, [1]);
        g.wait().unwrap();
        assert_eq!(out.get_env(&1), Some(11));
    }
}
