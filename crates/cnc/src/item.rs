//! Item collections: single-assignment associative containers with
//! blocking-get semantics.
//!
//! An item is a [`Slot`]; what a collection adds is the way from a key
//! to its slot. There are two, chosen by what the caller knows about
//! its key space: a pre-sized grid of slots indexed by the key
//! ([`CncGraph::grid_item_collection`](crate::CncGraph::grid_item_collection):
//! no hashing, no lock, nothing shared between two keys), and a sharded
//! hash map that grows a slot per key on demand
//! ([`CncGraph::item_collection`](crate::CncGraph::item_collection)).
//! Everything else — put, the gets, dependency declarations, the
//! runtime's hooks — is written once over the three operations of
//! [`Store`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::checkpoint::ItemSnapshot;
use crate::diagnostic::ProbeWait;
use crate::error::{CncError, StepAbort};
use crate::fault::PutAction;
use crate::hot::{note_body_put, resume, StepScope};
use crate::runtime::{CollectionHooks, RuntimeCore, SpecLine};
use crate::slot::{Slot, SlotState};

/// The key is outside a grid store's extent.
struct OutOfExtent;

/// The way from keys to slots. A slot, once handed out, stays where it
/// is for as long as the store lives (declared dependencies keep its
/// address, see [`crate::hot`]).
trait Store<K, V>: Send + Sync {
    /// The slot of `key`, if the store has one.
    fn find(&self, key: &K) -> Result<Option<&Slot<V>>, OutOfExtent>;
    /// The slot of `key`; a store that grows on demand adds an empty one.
    fn find_or_add(&self, key: &K) -> Result<&Slot<V>, OutOfExtent>;
    /// Every slot the store has, with its key.
    fn for_each(&self, visit: &mut dyn FnMut(K, &Slot<V>));
}

/// A key of a grid collection: up to three `u32` coordinates, each
/// ranging over `0..extent`. Implemented for `u32`, `(u32, u32)` and
/// `(u32, u32, u32)`.
pub trait GridKey: Hash + Eq + Copy + Debug + Send + Sync + 'static + sealed::Sealed {
    #[doc(hidden)]
    fn coordinates(self) -> [u32; 3];
    #[doc(hidden)]
    fn from_coordinates(c: [u32; 3]) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for (u32, u32) {}
    impl Sealed for (u32, u32, u32) {}
}

impl GridKey for u32 {
    fn coordinates(self) -> [u32; 3] {
        [self, 0, 0]
    }
    fn from_coordinates(c: [u32; 3]) -> Self {
        c[0]
    }
}

impl GridKey for (u32, u32) {
    fn coordinates(self) -> [u32; 3] {
        [self.0, self.1, 0]
    }
    fn from_coordinates(c: [u32; 3]) -> Self {
        (c[0], c[1])
    }
}

impl GridKey for (u32, u32, u32) {
    fn coordinates(self) -> [u32; 3] {
        [self.0, self.1, self.2]
    }
    fn from_coordinates(c: [u32; 3]) -> Self {
        (c[0], c[1], c[2])
    }
}

/// One slot per key of the extent, row-major.
struct GridStore<V> {
    /// Size of each coordinate (1 for the ones the key type lacks).
    extent: [usize; 3],
    slots: Box<[Slot<V>]>,
}

impl<V> GridStore<V> {
    fn new<K: GridKey>(name: &'static str, extent: K) -> Self {
        let extent = extent.coordinates().map(|n| n.max(1) as usize);
        let cells = extent
            .iter()
            .try_fold(1usize, |cells, &n| cells.checked_mul(n))
            .unwrap_or_else(|| panic!("extent of grid collection [{name}] overflows usize"));
        GridStore {
            extent,
            slots: (0..cells).map(|_| Slot::empty()).collect(),
        }
    }
}

impl<K: GridKey, V: Send + Sync> Store<K, V> for GridStore<V> {
    fn find(&self, key: &K) -> Result<Option<&Slot<V>>, OutOfExtent> {
        self.find_or_add(key).map(Some)
    }

    fn find_or_add(&self, key: &K) -> Result<&Slot<V>, OutOfExtent> {
        let [e0, e1, e2] = self.extent;
        let [c0, c1, c2] = key.coordinates().map(|c| c as usize);
        if c0 < e0 && c1 < e1 && c2 < e2 {
            Ok(&self.slots[(c0 * e1 + c1) * e2 + c2])
        } else {
            Err(OutOfExtent)
        }
    }

    fn for_each(&self, visit: &mut dyn FnMut(K, &Slot<V>)) {
        let [_, e1, e2] = self.extent;
        for (at, slot) in self.slots.iter().enumerate() {
            let c = [at / (e1 * e2), at / e2 % e1, at % e2];
            visit(K::from_coordinates(c.map(|c| c as u32)), slot);
        }
    }
}

const SHARDS: usize = 16;

/// A slot per key that was ever named, in a sharded map. The slots are
/// boxed, so they stay put when a map grows, and never removed.
struct HashedStore<K, V> {
    shards: Vec<Mutex<HashMap<K, Box<Slot<V>>>>>,
}

impl<K: Hash, V> HashedStore<K, V> {
    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Box<Slot<V>>>> {
        &self.shards[(key_hash(key) as usize) % SHARDS]
    }
}

impl<K, V> Store<K, V> for HashedStore<K, V>
where
    K: Hash + Eq + Clone + Send + Sync,
    V: Send + Sync,
{
    fn find(&self, key: &K) -> Result<Option<&Slot<V>>, OutOfExtent> {
        let slot = self.shard(key).lock().get(key).map(|b| &**b as *const _);
        // SAFETY: a box in the map is freed only with the store, which
        // `&self` outlives; the map moving the box does not move the slot.
        Ok(slot.map(|slot| unsafe { &*slot }))
    }

    fn find_or_add(&self, key: &K) -> Result<&Slot<V>, OutOfExtent> {
        let mut map = self.shard(key).lock();
        let slot: *const Slot<V> = match map.get(key) {
            Some(slot) => &**slot,
            None => &**map.entry(key.clone()).or_insert(Box::new(Slot::empty())),
        };
        // SAFETY: as in `find`.
        Ok(unsafe { &*slot })
    }

    fn for_each(&self, visit: &mut dyn FnMut(K, &Slot<V>)) {
        for shard in &self.shards {
            for (key, slot) in shard.lock().iter() {
                visit(key.clone(), slot);
            }
        }
    }
}

struct ItemInner<K, V> {
    name: &'static str,
    core: Arc<RuntimeCore>,
    store: Box<dyn Store<K, V>>,
}

impl<K, V> CollectionHooks for ItemInner<K, V>
where
    K: Clone + Debug + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn parked(&self, out: &mut Vec<ProbeWait>) {
        self.store.for_each(&mut |key, slot| {
            slot.for_each_parked(|waiter| {
                out.push(ProbeWait {
                    instance: waiter.id(),
                    step: waiter.step_name,
                    collection: self.name,
                    key: format!("{key:?}"),
                })
            })
        });
    }

    /// Single assignment makes any quiescent snapshot a consistent cut:
    /// ready items are immutable once put.
    fn snapshot(&self) -> Option<ItemSnapshot> {
        let mut ready: Vec<(K, V)> = Vec::new();
        self.store.for_each(&mut |key, slot| {
            if let Some(v) = slot.get() {
                ready.push((key, v.clone()));
            }
        });
        Some(ItemSnapshot {
            name: self.name,
            len: ready.len(),
            data: Arc::new(ready) as Arc<dyn std::any::Any + Send + Sync>,
        })
    }

    /// Forgets every parked instance (ready items stay readable),
    /// dropping them only after the scan: their bodies may own the last
    /// handles to other collections.
    fn teardown(&self) {
        let mut parked = Vec::new();
        self.store
            .for_each(&mut |_, slot| parked.extend(slot.take_parked()));
    }
}

/// A handle to an item collection. Cloning is cheap (shared state); step
/// bodies capture clones.
///
/// Keys are the CnC "tags" indexing the items (e.g. tile coordinates);
/// values must be `Clone` because `get` hands out copies — the paper's
/// benchmarks store `bool` readiness flags, with the DP table itself
/// living outside the graph, and that is how `recdp-kernels` uses this
/// runtime too.
pub struct ItemCollection<K, V> {
    inner: Arc<ItemInner<K, V>>,
}

impl<K, V> Clone for ItemCollection<K, V> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K, V> ItemCollection<K, V>
where
    K: Hash + Eq + Clone + Debug + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    pub(crate) fn new(name: &'static str, core: Arc<RuntimeCore>) -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        Self::with_store(name, core, Box::new(HashedStore { shards }))
    }

    pub(crate) fn new_grid(name: &'static str, core: Arc<RuntimeCore>, extent: K) -> Self
    where
        K: GridKey,
    {
        Self::with_store(name, core, Box::new(GridStore::new(name, extent)))
    }

    fn with_store(name: &'static str, core: Arc<RuntimeCore>, store: Box<dyn Store<K, V>>) -> Self {
        // Resume: if a checkpoint installed via `CncGraph::resume_from`
        // snapshotted a collection of this name, pre-seed its ready
        // items before any step can get them. The seed is counted in
        // `items_restored`, not `items_put` (nothing was put this run).
        if let Some(seed) = core.take_resume_seed(name) {
            let seed: Arc<Vec<(K, V)>> = seed.downcast().unwrap_or_else(|_| {
                panic!(
                    "resume seed for collection [{name}] has a different \
                     key/value type than the original run"
                )
            });
            for (key, value) in seed.iter() {
                let Ok(slot) = store.find_or_add(key) else {
                    panic!("resume seed for collection [{name}] has key {key:?} outside its extent")
                };
                let _ = slot.put(value.clone());
                crate::stats::bump(&core.stats.local().items_restored);
            }
        }
        let inner = Arc::new(ItemInner { name, core, store });
        let hooks = Arc::downgrade(&inner);
        inner.core.register_collection(SpecLine::Items(name), hooks);
        Self { inner }
    }

    /// Collection name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    fn out_of_extent(&self, key: &K) -> CncError {
        CncError::KeyOutOfExtent {
            collection: self.inner.name,
            key: format!("{key:?}"),
        }
    }

    /// Puts an item. Callable from steps and from the environment.
    ///
    /// Returns [`CncError::SingleAssignmentViolation`] (also recorded on
    /// the graph) if the key was already put — the dynamic check the
    /// Intel C++ runtime performs — and [`CncError::KeyOutOfExtent`]
    /// (likewise) for a key outside a grid collection's extent.
    pub fn put(&self, key: K, value: V) -> Result<(), CncError> {
        let core = &self.inner.core;
        // Fault hook: an installed injector may delay this put or drop it
        // outright (the item is never delivered — parked consumers stay
        // blocked and show up in the deadlock diagnostic).
        if let Some(injector) = core.injector() {
            match injector.on_put(self.inner.name, key_hash(&key)) {
                PutAction::Deliver => {}
                PutAction::Delay(d) => {
                    // A timing perturbation, not an outcome change: kept
                    // out of the replay-stable `faults_injected`.
                    core.count_injected_delay();
                    std::thread::sleep(d);
                }
                PutAction::Drop => {
                    core.count_injected_fault();
                    return Ok(());
                }
            }
        }
        let put = match self.inner.store.find_or_add(&key) {
            Ok(slot) => slot
                .put(value)
                .map_err(|_| CncError::SingleAssignmentViolation {
                    collection: self.inner.name,
                    key: format!("{key:?}"),
                }),
            Err(OutOfExtent) => Err(self.out_of_extent(&key)),
        };
        let waiters = put.inspect_err(|err| core.record_error(err.clone()))?;
        crate::stats::bump(&core.stats.local().items_put);
        // Record the delivered put against the step body executing on
        // this thread, if any: a transient failure returned after it
        // cannot be retried (the retry would re-put).
        note_body_put();
        waiters.for_each(resume);
        Ok(())
    }

    /// Blocking get from inside a step. If the item exists, returns a
    /// clone of its value; otherwise parks the calling instance on the
    /// item's wait list and returns [`StepAbort::Blocked`], which the
    /// step body propagates with `?`. The instance re-executes from
    /// scratch once the item is put (abort-and-retry, as in Intel CnC).
    /// A key outside a grid collection's extent fails the step with
    /// [`CncError::KeyOutOfExtent`] as the failure's source.
    pub fn get(&self, scope: &StepScope<'_>, key: &K) -> Result<V, StepAbort> {
        let slot = match self.inner.store.find_or_add(key) {
            Ok(slot) => slot,
            Err(OutOfExtent) => return Err(self.out_of_extent(key).into()),
        };
        if slot.get().is_none() && scope.park_on(slot) {
            crate::stats::bump(&self.inner.core.stats.local().gets_blocked);
            return Err(StepAbort::Blocked);
        }
        scope.count_get_ok();
        Ok(slot.get().expect("not parked: the item is there").clone())
    }

    /// Non-blocking get from inside a step (Sec. IV's alternative to the
    /// blocking get): returns the value if present, `None` otherwise —
    /// never parks the instance. A step using this style re-puts its own
    /// tag when an input is missing (see `record_nb_retry` on the graph
    /// stats); the paper found this profitable only for small blocks.
    pub fn try_get(&self, key: &K) -> Option<V> {
        let v = self.get_env(key);
        if v.is_some() {
            crate::stats::bump(&self.inner.core.stats.local().gets_ok);
        } else {
            crate::stats::bump(&self.inner.core.stats.local().gets_nb_missing);
        }
        v
    }

    /// Non-destructive read from the environment (or tests): returns the
    /// value if the item has been put, without any parking.
    pub fn get_env(&self, key: &K) -> Option<V> {
        let slot = self.inner.store.find(key).ok().flatten()?;
        slot.get().cloned()
    }

    /// True if the item has been put.
    pub fn contains(&self, key: &K) -> bool {
        matches!(self.inner.store.find(key), Ok(Some(slot)) if slot.is_ready())
    }

    /// Number of *ready* items (diagnostics; O(collection)).
    pub fn len_ready(&self) -> usize {
        let mut ready = 0;
        self.inner
            .store
            .for_each(&mut |_, slot| ready += usize::from(slot.is_ready()));
        ready
    }

    /// `key`'s slot, as a declared dependency names it.
    pub(crate) fn slot(&self, key: &K) -> Result<&SlotState, CncError> {
        match self.inner.store.find_or_add(key) {
            Ok(slot) => Ok(slot),
            Err(OutOfExtent) => Err(self.out_of_extent(key)),
        }
    }
}

/// Deterministic key hash (shard choice, and the identity handed to the
/// fault hook): `DefaultHasher::new` uses fixed keys, so the same item
/// key yields the same hash in every run — required for replayable
/// seeded fault plans.
fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CncGraph, StepOutcome};

    #[test]
    fn put_then_env_get() {
        let g = CncGraph::with_threads(1);
        let items = g.item_collection::<(u32, u32), bool>("tiles");
        items.put((1, 2), true).unwrap();
        assert_eq!(items.get_env(&(1, 2)), Some(true));
        assert_eq!(items.get_env(&(9, 9)), None);
        assert!(items.contains(&(1, 2)));
        assert_eq!(items.len_ready(), 1);
    }

    #[test]
    fn double_put_violates_single_assignment() {
        let g = CncGraph::with_threads(1);
        let items = g.item_collection::<u32, u32>("x");
        items.put(1, 1).unwrap();
        let err = items.put(1, 2).unwrap_err();
        assert!(matches!(
            err,
            CncError::SingleAssignmentViolation {
                collection: "x",
                ..
            }
        ));
        // The graph also records it for `wait`.
        assert!(matches!(
            g.wait(),
            Err(CncError::SingleAssignmentViolation { .. })
        ));
    }

    #[test]
    fn waiting_entry_does_not_count_as_ready() {
        let g = CncGraph::with_threads(2);
        let items = g.item_collection::<u32, u32>("x");
        let tags = g.tag_collection::<u32>("t");
        let i2 = items.clone();
        tags.prescribe("s", move |&n, s| {
            let _ = i2.get(s, &n)?;
            Ok(StepOutcome::Done)
        });
        tags.put(7);
        // Give the step a moment to block, creating a Waiting entry.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!items.contains(&7));
        assert_eq!(items.len_ready(), 0);
        items.put(7, 1).unwrap();
        g.wait().unwrap();
    }

    #[test]
    fn many_waiters_all_resume() {
        let g = CncGraph::with_threads(3);
        let gate = g.item_collection::<u32, u32>("gate");
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let (g2, o2) = (gate.clone(), out.clone());
        tags.prescribe("fan", move |&n, s| {
            let v = g2.get(s, &0)?;
            o2.put(n, v + n)?;
            Ok(StepOutcome::Done)
        });
        for n in 1..=50 {
            tags.put(n);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.put(0, 1000).unwrap();
        g.wait().unwrap();
        assert_eq!(out.len_ready(), 50);
        assert_eq!(out.get_env(&50), Some(1050));
    }
}
