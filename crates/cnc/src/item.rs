//! Item collections: single-assignment associative containers with
//! blocking-get semantics.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::checkpoint::ItemSnapshot;
use crate::error::{CncError, StepAbort};
use crate::fault::PutAction;
use crate::runtime::{
    note_body_put, CollectionHooks, Countdown, ProbeWait, RuntimeCore, SpecLine, StepScope,
};

const SHARDS: usize = 16;

enum Entry<V> {
    /// The item has been put; single assignment forbids a second put.
    Ready(V),
    /// Not yet put; countdowns of parked step instances wait here.
    Waiting(Vec<Arc<Countdown>>),
}

struct ItemInner<K, V> {
    name: &'static str,
    core: Arc<RuntimeCore>,
    shards: Vec<Mutex<HashMap<K, Entry<V>>>>,
}

impl<K, V> CollectionHooks for ItemInner<K, V>
where
    K: Clone + Debug + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn parked(&self, out: &mut Vec<ProbeWait>) {
        for shard in &self.shards {
            for (key, entry) in shard.lock().iter() {
                if let Entry::Waiting(waiters) = entry {
                    out.extend(waiters.iter().map(|w| ProbeWait {
                        instance: w.instance_id(),
                        step: w.step_name(),
                        collection: self.name,
                        key: format!("{key:?}"),
                    }));
                }
            }
        }
    }

    /// Single assignment makes any quiescent snapshot a consistent cut:
    /// ready items are immutable once put.
    fn snapshot(&self) -> Option<ItemSnapshot> {
        let mut ready: Vec<(K, V)> = Vec::new();
        for shard in &self.shards {
            for (key, entry) in shard.lock().iter() {
                if let Entry::Ready(v) = entry {
                    ready.push((key.clone(), v.clone()));
                }
            }
        }
        Some(ItemSnapshot {
            name: self.name,
            len: ready.len(),
            data: Arc::new(ready) as Arc<dyn std::any::Any + Send + Sync>,
        })
    }

    /// Forgets every parked instance (ready items stay readable),
    /// dropping them after the shard locks are released: their bodies
    /// may own the last handles to other collections.
    fn teardown(&self) {
        let mut parked = Vec::new();
        for shard in &self.shards {
            shard.lock().retain(|_, entry| match entry {
                Entry::Ready(_) => true,
                Entry::Waiting(waiters) => {
                    parked.append(waiters);
                    false
                }
            });
        }
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
        let shards: Vec<Mutex<HashMap<K, Entry<V>>>> =
            (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
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
                let mut h = DefaultHasher::new();
                key.hash(&mut h);
                let shard = &shards[(h.finish() as usize) % SHARDS];
                shard
                    .lock()
                    .insert(key.clone(), Entry::Ready(value.clone()));
                crate::stats::bump(&core.stats.items_restored);
            }
        }
        let inner = Arc::new(ItemInner { name, core, shards });
        let hooks = Arc::downgrade(&inner);
        inner.core.register_collection(SpecLine::Items(name), hooks);
        Self { inner }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Entry<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.inner.shards[(h.finish() as usize) % SHARDS]
    }

    /// Collection name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Puts an item. Callable from steps and from the environment.
    ///
    /// Returns [`CncError::SingleAssignmentViolation`] (also recorded on
    /// the graph) if the key was already put — the dynamic check the
    /// Intel C++ runtime performs.
    pub fn put(&self, key: K, value: V) -> Result<(), CncError> {
        // Fault hook: an installed injector may delay this put or drop it
        // outright (the item is never delivered — parked consumers stay
        // blocked and show up in the deadlock diagnostic).
        if let Some(injector) = self.inner.core.injector() {
            match injector.on_put(self.inner.name, key_hash(&key)) {
                PutAction::Deliver => {}
                PutAction::Delay(d) => {
                    // A timing perturbation, not an outcome change: kept
                    // out of the replay-stable `faults_injected`.
                    self.inner.core.count_injected_delay();
                    std::thread::sleep(d);
                }
                PutAction::Drop => {
                    self.inner.core.count_injected_fault();
                    return Ok(());
                }
            }
        }
        let waiters = {
            let mut map = self.shard(&key).lock();
            match map.get_mut(&key) {
                Some(Entry::Ready(_)) => {
                    let err = CncError::SingleAssignmentViolation {
                        collection: self.inner.name,
                        key: format!("{key:?}"),
                    };
                    self.inner.core.record_error(err.clone());
                    return Err(err);
                }
                Some(entry @ Entry::Waiting(_)) => {
                    let Entry::Waiting(waiters) = std::mem::replace(entry, Entry::Ready(value))
                    else {
                        unreachable!()
                    };
                    waiters
                }
                None => {
                    map.insert(key, Entry::Ready(value));
                    Vec::new()
                }
            }
        };
        crate::stats::bump(&self.inner.core.stats.items_put);
        // Record the delivered put against the step body executing on
        // this thread, if any: a transient failure returned after it
        // cannot be retried (the retry would re-put).
        note_body_put();
        for w in waiters {
            w.fire();
        }
        Ok(())
    }

    /// Blocking get from inside a step. If the item exists, returns a
    /// clone of its value; otherwise parks the calling instance on the
    /// item's wait list and returns [`StepAbort::Blocked`], which the
    /// step body propagates with `?`. The instance re-executes from
    /// scratch once the item is put (abort-and-retry, as in Intel CnC).
    pub fn get(&self, scope: &StepScope<'_>, key: &K) -> Result<V, StepAbort> {
        let mut map = self.shard(key).lock();
        match map.get_mut(key) {
            Some(Entry::Ready(v)) => {
                let v = v.clone();
                drop(map);
                crate::stats::bump(&self.inner.core.stats.gets_ok);
                Ok(v)
            }
            Some(Entry::Waiting(waiters)) => {
                let w = scope.waiter();
                w.add();
                waiters.push(w);
                drop(map);
                crate::stats::bump(&self.inner.core.stats.gets_blocked);
                Err(StepAbort::Blocked)
            }
            None => {
                let w = scope.waiter();
                w.add();
                map.insert(key.clone(), Entry::Waiting(vec![w]));
                drop(map);
                crate::stats::bump(&self.inner.core.stats.gets_blocked);
                Err(StepAbort::Blocked)
            }
        }
    }

    /// Non-blocking get from inside a step (Sec. IV's alternative to the
    /// blocking get): returns the value if present, `None` otherwise —
    /// never parks the instance. A step using this style re-puts its own
    /// tag when an input is missing (see `record_nb_retry` on the graph
    /// stats); the paper found this profitable only for small blocks.
    pub fn try_get(&self, key: &K) -> Option<V> {
        let v = self.get_env(key);
        if v.is_some() {
            crate::stats::bump(&self.inner.core.stats.gets_ok);
        } else {
            crate::stats::bump(&self.inner.core.stats.gets_nb_missing);
        }
        v
    }

    /// Non-destructive read from the environment (or tests): returns the
    /// value if the item has been put, without any parking.
    pub fn get_env(&self, key: &K) -> Option<V> {
        let map = self.shard(key).lock();
        match map.get(key) {
            Some(Entry::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// True if the item has been put.
    pub fn contains(&self, key: &K) -> bool {
        matches!(self.shard(key).lock().get(key), Some(Entry::Ready(_)))
    }

    /// Number of *ready* items (diagnostics; O(collection)).
    pub fn len_ready(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .filter(|e| matches!(e, Entry::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Registers `countdown` on `key` if the item is not yet ready
    /// (pre-scheduling / tuner path). No-op when the item already exists.
    pub(crate) fn register_if_missing(&self, key: &K, countdown: &Arc<Countdown>) {
        let mut map = self.shard(key).lock();
        match map.get_mut(key) {
            Some(Entry::Ready(_)) => {}
            Some(Entry::Waiting(waiters)) => {
                countdown.add();
                waiters.push(Arc::clone(countdown));
            }
            None => {
                countdown.add();
                map.insert(key.clone(), Entry::Waiting(vec![Arc::clone(countdown)]));
            }
        }
    }
}

/// Deterministic key hash handed to the fault hook: `DefaultHasher::new`
/// uses fixed keys, so the same item key yields the same hash in every
/// run — required for replayable seeded fault plans.
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
