//! The grid-backed item store under races, at its edges, and against
//! the hashed store: everything above the store is one code path, so
//! the two must be indistinguishable from outside except for the extent
//! check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use recdp_cnc::{CncError, CncGraph, ItemCollection, StepAbort, StepOutcome};
use recdp_forkjoin::{ThreadPool, ThreadPoolBuilder};

type Key = (u32, u32);

fn collection(graph: &CncGraph, name: &'static str, grid: bool) -> ItemCollection<Key, u64> {
    if grid {
        graph.grid_item_collection(name, (8, 8))
    } else {
        graph.item_collection(name)
    }
}

#[test]
fn producers_and_parking_consumers_race_and_every_consumer_resumes_once() {
    // P environment threads put the items of their row while C others
    // put the consumer tags, all released together. A consumer of
    // `(p, n)` is either a blocking get (odd n) or pre-scheduled on
    // `(p, n)` and `(p, n + 1)` (even n); each marks `done` exactly
    // once — `done` is single-assignment, so a consumer resumed twice
    // fails the graph — and the run must end with nothing parked.
    const P: u32 = 4;
    const N: u32 = 256;
    const C: u32 = 3; // consumers per item
    for round in 0..8 {
        let graph = CncGraph::with_threads(4);
        let items = graph.grid_item_collection::<Key, u64>("items", (P, N + 1));
        let done = graph.grid_item_collection::<(u32, u32, u32), u64>("done", (P, N, C));
        let tags = graph.tag_collection::<(u32, u32, u32)>("consumers");
        let (i2, d2) = (items.clone(), done.clone());
        tags.prescribe("consume", move |&(p, n, c), scope| {
            let a = i2.get(scope, &(p, n))?;
            let b = if n % 2 == 0 {
                i2.get(scope, &(p, n + 1))?
            } else {
                0
            };
            d2.put((p, n, c), a + b)?;
            Ok(StepOutcome::Done)
        });
        let start = Barrier::new((P + C) as usize);
        std::thread::scope(|s| {
            for p in 0..P {
                let (items, start) = (&items, &start);
                s.spawn(move || {
                    start.wait();
                    for n in 0..=N {
                        items.put((p, n), u64::from(n)).unwrap();
                    }
                });
            }
            for c in 0..C {
                let (items, tags, start) = (&items, &tags, &start);
                s.spawn(move || {
                    start.wait();
                    for n in (0..N).rev() {
                        for p in 0..P {
                            if n % 2 == 0 {
                                tags.put_when((p, n, c), items, [(p, n), (p, n + 1)]);
                            } else {
                                tags.put((p, n, c));
                            }
                        }
                    }
                });
            }
        });
        let stats = graph
            .wait()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let consumers = u64::from(P * N * C);
        assert_eq!(stats.steps_completed, consumers, "round {round}");
        assert_eq!(done.len_ready() as u64, consumers, "round {round}");
        // Every blocked execution was resumed, once.
        assert_eq!(stats.steps_requeued, stats.gets_blocked, "round {round}");
        assert_eq!(stats.steps_started, consumers + stats.steps_requeued);
        assert_eq!(done.get_env(&(1, 2, 0)), Some(5));
    }
}

#[test]
fn two_concurrent_puts_of_one_key_yield_one_winner() {
    const KEYS: u32 = 4000;
    let graph = CncGraph::with_threads(1);
    let items = graph.grid_item_collection::<u32, u64>("contested", KEYS);
    let wins = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        for (me, won) in wins.iter().enumerate() {
            let (items, gate) = (&items, &gate);
            s.spawn(move || {
                for key in 0..KEYS {
                    gate.wait();
                    match items.put(key, me as u64) {
                        Ok(()) => {
                            won.fetch_add(1, Ordering::Relaxed);
                            // Ours and final, even while the loser is
                            // still inside its put.
                            assert_eq!(items.get_env(&key), Some(me as u64));
                        }
                        Err(CncError::SingleAssignmentViolation { collection, key: k }) => {
                            assert_eq!((collection, k), ("contested", key.to_string()));
                        }
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
            });
        }
    });
    let wins = wins.map(AtomicUsize::into_inner);
    assert_eq!(wins[0] + wins[1], KEYS as usize, "one Ok per key");
    assert_eq!(items.len_ready(), KEYS as usize);
    let zeros = (0..KEYS).filter(|k| items.get_env(k) == Some(0)).count();
    assert_eq!(zeros, wins[0], "each payload is its winner's");
    assert!(matches!(
        graph.wait(),
        Err(CncError::SingleAssignmentViolation { .. })
    ));
}

#[test]
fn keys_outside_the_extent_are_structured_errors_and_the_pool_survives() {
    let pool: Arc<ThreadPool> = Arc::new(ThreadPoolBuilder::new().num_threads(2).build());
    let expected = CncError::KeyOutOfExtent {
        collection: "cells",
        key: "(8, 0)".into(),
    };

    // put: refused and recorded.
    let graph = CncGraph::with_pool(Arc::clone(&pool));
    let cells = collection(&graph, "cells", true);
    assert_eq!(cells.put((8, 0), 1), Err(expected.clone()));
    assert!(matches!(
        cells.put((0, 8), 1),
        Err(CncError::KeyOutOfExtent { key, .. }) if key == "(0, 8)"
    ));
    assert_eq!(graph.wait(), Err(expected.clone()));
    // Reads of a key that can never be put just find nothing.
    assert_eq!(cells.get_env(&(8, 0)), None);
    assert!(!cells.contains(&(9, 9)));
    assert_eq!(cells.try_get(&(8, 0)), None);
    assert_eq!(cells.len_ready(), 0);

    // get from a step: the step fails with the error as its source.
    let graph = CncGraph::with_pool(Arc::clone(&pool));
    let cells = collection(&graph, "cells", true);
    let tags = graph.tag_collection::<u32>("t");
    let c2 = cells.clone();
    tags.prescribe("reader", move |&n, scope| {
        c2.get(scope, &(n, 0))?;
        Ok(StepOutcome::Done)
    });
    tags.put(8);
    match graph.wait() {
        Err(CncError::StepFailed { step, failure }) => {
            assert_eq!(step, "reader");
            assert_eq!(failure.source.as_deref(), Some(&expected));
        }
        other => panic!("expected the reader to fail, got {other:?}"),
    }

    // A declared dependency: the instance is never created.
    let graph = CncGraph::with_pool(Arc::clone(&pool));
    let cells = collection(&graph, "cells", true);
    let tags = graph.tag_collection::<u32>("t");
    tags.prescribe("never", |_, _| Err(StepAbort::permanent("must not run")));
    tags.put_when(0, &cells, [(0, 0), (8, 0)]);
    assert_eq!(graph.wait(), Err(expected));
    assert_eq!(graph.stats().steps_started, 0);

    assert_eq!(pool.install(|| 6 * 7), 42, "the pool outlives all three");
}

/// What one run looked like from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    deadlock: Vec<(String, String, String)>,
    checkpointed: (usize, usize),
    restored: u64,
    resumed_items: Vec<(Key, Option<u64>)>,
    steps_skipped: u64,
}

/// Half of a 8 x 8 wavefront: cell `(i, j)` needs `(i - 1, j)` and
/// `(i, j - 1)`; the environment withholds the sources of rows 4.., so
/// those rows park — blocking gets on odd columns, `put_when` on even.
fn wavefront(graph: &CncGraph, grid: bool, rows_with_source: u32) -> ItemCollection<Key, u64> {
    let cells = collection(graph, "cells", grid);
    let tags = graph.tag_collection::<Key>("cell_tags");
    let c2 = cells.clone();
    tags.prescribe("cell", move |&(i, j), scope| {
        let up = if i > 0 {
            c2.get(scope, &(i - 1, j))?
        } else {
            1
        };
        let left = c2.get(scope, &(i, j - 1))?;
        c2.put((i, j), up + left)?;
        Ok(StepOutcome::Done)
    });
    for i in 0..rows_with_source {
        // A resumed run finds the sources of the first run restored.
        if !cells.contains(&(i, 0)) {
            cells.put((i, 0), 1).unwrap();
        }
    }
    for i in 0..8 {
        for j in 1..8 {
            if j % 2 == 0 {
                let up = (i > 0).then(|| (i - 1, j));
                tags.put_when((i, j), &cells, [(i, j - 1)].into_iter().chain(up));
            } else {
                tags.put((i, j));
            }
        }
    }
    cells
}

fn observe(grid: bool, resume_on_grid: bool) -> Observed {
    let graph = CncGraph::with_threads(2);
    let _cells = wavefront(&graph, grid, 4);
    let deadlock = match graph.wait() {
        Err(CncError::Deadlock { diagnostic, .. }) => diagnostic
            .waits
            .iter()
            .map(|w| (w.step.to_string(), w.collection.to_string(), w.key.clone()))
            .collect(),
        other => panic!("rows 4.. have no source: expected a deadlock, got {other:?}"),
    };
    let checkpoint = graph.checkpoint();
    let resumed = CncGraph::with_threads(2);
    resumed.resume_from(&checkpoint);
    let cells = wavefront(&resumed, resume_on_grid, 8);
    let stats = resumed.wait().expect("all sources present");
    let keys = (0..8).flat_map(|i| (0..8).map(move |j| (i, j)));
    Observed {
        deadlock,
        checkpointed: (checkpoint.items(), checkpoint.executed_steps()),
        restored: stats.items_restored,
        resumed_items: keys.map(|k| (k, cells.get_env(&k))).collect(),
        steps_skipped: stats.steps_skipped,
    }
}

#[test]
fn diagnostics_and_checkpoints_read_the_same_from_either_store() {
    let hashed = observe(false, false);
    // Rows 0..4 ran (4 sources + 28 cells); each parked cell of rows
    // 4.. is reported on the item it is parked on.
    assert_eq!(hashed.checkpointed, (32, 28));
    assert!(hashed.deadlock.len() > 8, "{:?}", hashed.deadlock);
    assert!(hashed
        .deadlock
        .contains(&("cell".into(), "cells".into(), "(4, 0)".into())));
    assert_eq!(hashed.restored, 32);
    assert_eq!(hashed.steps_skipped, 28);
    assert_eq!(hashed.resumed_items[63], ((7, 7), Some(6435)));
    // The slot -> key inverse of the grid is exact: same key text, same
    // restored item set, whichever store takes or receives the snapshot.
    assert_eq!(observe(true, true), hashed);
    assert_eq!(observe(true, false), hashed);
    assert_eq!(observe(false, true), hashed);
}
