//! Failure injection on the CnC runtime: deadlocks, single-assignment
//! violations and step failures must surface as structured errors, not
//! hangs or corruption.

use recdp_cnc::{CncError, CncGraph, FailureKind, StepAbort, StepOutcome};

#[test]
fn unproduced_item_deadlocks_cleanly() {
    let g = CncGraph::with_threads(2);
    let ghost = g.item_collection::<u32, u32>("ghost");
    let tags = g.tag_collection::<u32>("t");
    let gh = ghost.clone();
    tags.prescribe("starved", move |&n, s| {
        let _ = gh.get(s, &n)?;
        Ok(StepOutcome::Done)
    });
    for i in 0..10 {
        tags.put(i);
    }
    match g.wait() {
        Err(CncError::Deadlock {
            blocked_instances,
            diagnostic,
        }) => {
            assert_eq!(blocked_instances, 10);
            // The wait-for diagnostic names every starved instance with
            // the collection and debug-rendered key it is parked on.
            assert_eq!(diagnostic.waits.len(), 10);
            assert!(diagnostic.waits.iter().all(|w| w.step == "starved"));
            assert!(diagnostic.waits.iter().all(|w| w.collection == "ghost"));
            let rendered = diagnostic.render();
            assert!(rendered.contains("[ghost]"), "{rendered}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn partial_deadlock_is_detected_after_progress() {
    // Half the chain resolves; the other half waits forever.
    let g = CncGraph::with_threads(2);
    let items = g.item_collection::<u32, u32>("items");
    let tags = g.tag_collection::<u32>("t");
    let it = items.clone();
    tags.prescribe("chain", move |&n, s| {
        let v = it.get(s, &n)?;
        // Items 0..5 exist; the rest never will.
        let _ = v;
        Ok(StepOutcome::Done)
    });
    for i in 0..5 {
        items.put(i, i).unwrap();
    }
    for i in 0..10 {
        tags.put(i);
    }
    match g.wait() {
        Err(CncError::Deadlock {
            blocked_instances,
            diagnostic,
        }) => {
            assert_eq!(blocked_instances, 5);
            // Only the starved keys 5..10 appear in the diagnostic.
            assert_eq!(diagnostic.waits.len(), 5);
            for w in &diagnostic.waits {
                let key: u32 = w.key.parse().expect("u32 debug-renders as itself");
                assert!(key >= 5, "resolved key {key} must not be reported");
            }
        }
        other => panic!("expected partial deadlock, got {other:?}"),
    }
}

#[test]
fn double_put_is_a_structured_error() {
    let g = CncGraph::with_threads(2);
    let items = g.item_collection::<(u32, u32), bool>("tiles");
    let tags = g.tag_collection::<u32>("t");
    let it = items.clone();
    tags.prescribe("dup", move |_, _| {
        // Every instance writes the same key: instance #2 violates DSA.
        it.put((7, 7), true)?;
        Ok(StepOutcome::Done)
    });
    tags.put(1);
    tags.put(2);
    match g.wait() {
        Err(CncError::SingleAssignmentViolation { collection, .. }) => {
            assert_eq!(collection, "tiles");
        }
        // The second put surfaces inside a step, which wraps it as a
        // step failure whose *source* is the violation — no stringly
        // flattening.
        Err(CncError::StepFailed { step, failure }) => {
            assert_eq!(step, "dup");
            match failure.source.as_deref() {
                Some(CncError::SingleAssignmentViolation { collection, .. }) => {
                    assert_eq!(*collection, "tiles");
                }
                other => panic!("expected preserved source error, got {other:?}"),
            }
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn failed_step_cancels_the_graph() {
    let g = CncGraph::with_threads(2);
    let tags = g.tag_collection::<u32>("t");
    tags.prescribe("sometimes-bad", move |&n, _| {
        if n == 3 {
            return Err(StepAbort::permanent("input 3 rejected"));
        }
        Ok(StepOutcome::Done)
    });
    for i in 0..100 {
        tags.put(i);
    }
    match g.wait() {
        Err(CncError::StepFailed { step, failure }) => {
            assert_eq!(step, "sometimes-bad");
            assert_eq!(failure.kind, FailureKind::Permanent);
            assert!(failure.message.contains("input 3 rejected"), "{failure}");
        }
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn panic_in_one_step_reports_not_hangs() {
    let g = CncGraph::with_threads(3);
    let tags = g.tag_collection::<u32>("t");
    tags.prescribe("may-panic", move |&n, _| {
        if n == 17 {
            panic!("step 17 exploded");
        }
        Ok(StepOutcome::Done)
    });
    for i in 0..64 {
        tags.put(i);
    }
    match g.wait() {
        Err(CncError::StepPanicked(msg)) => assert!(msg.contains("exploded"), "{msg}"),
        other => panic!("expected panic report, got {other:?}"),
    }
}

#[test]
fn pre_scheduled_step_with_impossible_dep_deadlocks() {
    let g = CncGraph::with_threads(2);
    let items = g.item_collection::<u32, u32>("items");
    let tags = g.tag_collection::<u32>("t");
    tags.prescribe("never-runs", move |_, _| panic!("must not dispatch"));
    tags.put_when(0, &items, [42]);
    match g.wait() {
        Err(CncError::Deadlock {
            blocked_instances, ..
        }) => assert_eq!(blocked_instances, 1),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn graph_is_reusable_after_successful_wait() {
    let g = CncGraph::with_threads(2);
    let items = g.item_collection::<u32, u32>("out");
    let tags = g.tag_collection::<u32>("t");
    let it = items.clone();
    tags.prescribe("write", move |&n, _| {
        it.put(n, n * 2)?;
        Ok(StepOutcome::Done)
    });
    tags.put(1);
    g.wait().unwrap();
    // A second round of env puts on the same graph.
    tags.put(2);
    g.wait().unwrap();
    assert_eq!(items.get_env(&1), Some(2));
    assert_eq!(items.get_env(&2), Some(4));
}
