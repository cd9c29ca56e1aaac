//! The grid-backed item store under exhaustive schedule exploration:
//! every schedule of a four-item diamond completes, and what it
//! observes — output, replay-stable counters, and the executed schedule
//! itself — is what the same program observes on the hashed store.
//! Managed mode drives the same slots, wait lists and `resume` the pool
//! does; only the dispatch target differs.

use recdp_check::{enumerate, exhaustive, replay_stable, Config, ReplayStats, SharedScheduler};
use recdp_cnc::{CncGraph, ItemCollection, ScheduleEvent, StepOutcome};

type Key = (u32, u32);
const A: Key = (0, 0);
const B: [Key; 2] = [(1, 0), (1, 1)];
const C: Key = (2, 0);

/// `source` puts `A`; two `mid`s each get `A` (a blocking get) and put
/// one `B`; `sink`, pre-scheduled on both `B`s, puts `C`. Tags go in
/// consumers first, so most schedules park both mids on `A` and walk
/// `sink` from one `B`'s wait list to the other's.
fn diamond(sched: &SharedScheduler, grid: bool) -> (Option<u64>, ReplayStats, Vec<ScheduleEvent>) {
    let (graph, handle) = CncGraph::managed(sched.pick_fn());
    let items: ItemCollection<Key, u64> = if grid {
        graph.grid_item_collection("diamond", (3, 2))
    } else {
        graph.item_collection("diamond")
    };
    let sink_t = graph.tag_collection::<u32>("sink_t");
    let mid_t = graph.tag_collection::<u32>("mid_t");
    let source_t = graph.tag_collection::<u32>("source_t");

    let it = items.clone();
    sink_t.prescribe("sink", move |_, s| {
        let sum = it.get(s, &B[0])? + it.get(s, &B[1])?;
        it.put(C, sum)?;
        Ok(StepOutcome::Done)
    });
    let it = items.clone();
    mid_t.prescribe("mid", move |&i, s| {
        let v = it.get(s, &A)?;
        it.put(B[i as usize], v + u64::from(i))?;
        Ok(StepOutcome::Done)
    });
    let it = items.clone();
    source_t.prescribe("source", move |_, _| {
        it.put(A, 10)?;
        Ok(StepOutcome::Done)
    });

    sink_t.put_when(0, &items, B);
    mid_t.put(0);
    mid_t.put(1);
    source_t.put(0);

    let stats = graph
        .wait()
        .expect("the diamond quiesces on every schedule");
    assert_eq!(handle.blocked_len(), 0);
    (items.get_env(&C), replay_stable(&stats), handle.trace())
}

#[test]
fn every_schedule_of_the_grid_diamond_completes_with_the_hashed_store_s_stats() {
    let budget = Config::from_env().dfs_budget.max(64);
    let run = |grid: bool| {
        exhaustive(budget, move |s| {
            let (value, stats, _) = diamond(&s, grid);
            (value, stats)
        })
    };
    let ((value, stats), report) = run(true);
    assert!(report.complete, "{report:?}: the diamond fits the budget");
    assert!(report.schedules >= 2, "more than one schedule exists");
    assert_eq!(value, Some(21), "10 + 0 + 10 + 1");
    assert_eq!(
        (stats.steps_completed, stats.items_put, stats.tags_put),
        (4, 4, 4)
    );
    let (hashed, hashed_report) = run(false);
    assert_eq!((value, stats), hashed);
    assert_eq!(report, hashed_report, "the two stores span the same tree");
}

#[test]
fn the_two_stores_execute_identical_schedules_script_for_script() {
    // Stronger than equal counters: under every decision script the
    // ready queue holds the same instances in the same order, so the
    // executed trace (blocked runs, resumes and all) is identical —
    // parked instances resume oldest first on either store.
    let budget = Config::from_env().dfs_budget.max(64);
    let traces = |grid: bool| enumerate(budget, move |s| diamond(&s, grid).2).0;
    assert_eq!(traces(true), traces(false));
}
