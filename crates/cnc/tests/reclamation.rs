//! A graph's step bodies and parked instances die with its `CncGraph`
//! handle.
//!
//! A step body that captures handles to its own tag and item
//! collections — the CnC recursion idiom — forms a reference cycle
//! through the collections that hold the body. Each test plants an
//! `Arc` sentinel inside such a body and checks that it is released when
//! the graph handle drops, on the success path and on every error path
//! that leaves instances parked on item wait lists, while the test still
//! holds its own handles to the collections.

use std::sync::{Arc, Weak};
use std::time::Duration;

use recdp_cnc::{CncError, CncGraph, ItemCollection, StepOutcome, TagCollection};

type Tags = TagCollection<u32>;
type Items = ItemCollection<u32, u32>;

/// `tags.put(n)` recurses down to 0; every instance first reads
/// `items[n + 100]`, which only `feed` puts — so without `feed` every
/// instance the run reaches ends parked on a wait list. The body owns
/// the sentinel and handles to both of its own collections.
fn recursion(graph: &CncGraph, sentinel: &Arc<()>) -> (Tags, Items) {
    let items: Items = graph.item_collection("cells");
    let tags: Tags = graph.tag_collection("calls");
    let (t, i, s) = (tags.clone(), items.clone(), Arc::clone(sentinel));
    tags.prescribe("descend", move |&n, scope| {
        let _keep = &s;
        if n > 0 {
            t.put(n - 1);
            return Ok(StepOutcome::Done);
        }
        let v = i.get(scope, &100)?;
        i.put(0, v + 1)?;
        Ok(StepOutcome::Done)
    });
    (tags, items)
}

fn sentinel() -> (Arc<()>, Weak<()>) {
    let s = Arc::new(());
    let w = Arc::downgrade(&s);
    (s, w)
}

/// The sentinel's only remaining owners are inside the graph.
fn hand_over(sentinel: Arc<()>, weak: &Weak<()>) {
    drop(sentinel);
    assert!(
        weak.upgrade().is_some(),
        "the step body keeps it while the graph lives"
    );
}

#[test]
fn completed_graph_releases_its_step_bodies() {
    let (s, w) = sentinel();
    let graph = CncGraph::with_threads(2);
    let (tags, items) = recursion(&graph, &s);
    items.put(100, 41).unwrap();
    tags.put(6);
    let stats = graph.wait().unwrap();
    assert_eq!(stats.steps_completed, 7);
    hand_over(s, &w);
    drop(graph);
    assert!(w.upgrade().is_none(), "bodies must die with the handle");
    // The collections outlive the graph as plain data...
    assert_eq!(items.get_env(&0), Some(42));
    // ...and a late tag put is the silent no-op it always was.
    tags.put(3);
    tags.put_when(3, &items, [7]);
    assert_eq!(items.len_ready(), 2);
}

#[test]
fn deadlocked_graph_releases_parked_instances() {
    let (s, w) = sentinel();
    let graph = CncGraph::with_threads(2);
    let (tags, items) = recursion(&graph, &s);
    tags.put(4);
    // A second parked instance through the tuner path: its countdown
    // sits on the same wait list without ever having executed.
    tags.put_when(0, &items, [100]);
    match graph.wait() {
        Err(CncError::Deadlock {
            blocked_instances, ..
        }) => assert_eq!(blocked_instances, 2),
        other => panic!("expected deadlock, got {other:?}"),
    }
    hand_over(s, &w);
    drop(graph);
    assert!(w.upgrade().is_none(), "parked instances must be released");
    // The missing item arriving now resumes nobody.
    items.put(100, 1).unwrap();
    assert_eq!(items.get_env(&0), None);
}

#[test]
fn cancelled_graph_releases_parked_instances() {
    let (s, w) = sentinel();
    let graph = CncGraph::with_threads(2);
    let (tags, _items) = recursion(&graph, &s);
    tags.put(4);
    assert!(matches!(graph.wait(), Err(CncError::Deadlock { .. })));
    graph.cancel_token().cancel("operator abort");
    assert!(matches!(graph.wait(), Err(CncError::Cancelled { .. })));
    hand_over(s, &w);
    drop(graph);
    assert!(w.upgrade().is_none());
}

#[test]
fn timed_out_graph_releases_parked_and_queued_instances() {
    let (s, w) = sentinel();
    let graph = CncGraph::with_threads(2);
    let (tags, _items) = recursion(&graph, &s);
    // One instance stays genuinely pending past the deadline, so the
    // verdict is Timeout rather than Deadlock, and more tags queue up
    // behind it to be drained without running.
    let busy: Tags = graph.tag_collection("busy");
    let keep = Arc::clone(&s);
    busy.prescribe("sleeper", move |_, _| {
        let _keep = &keep;
        std::thread::sleep(Duration::from_millis(300));
        Ok(StepOutcome::Done)
    });
    tags.put(4);
    busy.put(0);
    busy.put(1);
    busy.put(2);
    match graph.wait_deadline(Duration::from_millis(30)) {
        Err(CncError::Timeout { pending, .. }) => assert!(pending >= 1),
        other => panic!("expected timeout, got {other:?}"),
    }
    hand_over(s, &w);
    drop(graph); // drains the sleepers, then releases
    assert!(w.upgrade().is_none());
}

#[test]
fn managed_graph_releases_its_ready_queue() {
    let (s, w) = sentinel();
    let (graph, handle) = CncGraph::managed(Box::new(|_| 0));
    let (tags, _items) = recursion(&graph, &s);
    tags.put(3);
    assert!(handle.run_one());
    assert_eq!(handle.ready_len(), 1, "one instance queued, never run");
    hand_over(s, &w);
    drop(graph);
    assert!(w.upgrade().is_none(), "queued instances hold the body too");
    assert!(!handle.run_one(), "nothing left to drive");
}

#[test]
fn a_thousand_graphs_leave_nothing_behind() {
    // The serving pattern: many short graphs on one pool, each with the
    // recursion idiom, each dropped after its wait.
    let pool = Arc::new(
        recdp_forkjoin::ThreadPoolBuilder::new()
            .num_threads(2)
            .build(),
    );
    let mut weaks = Vec::new();
    for _ in 0..1000 {
        let (s, w) = sentinel();
        let graph = CncGraph::with_pool(Arc::clone(&pool));
        let (tags, items) = recursion(&graph, &s);
        items.put(100, 0).unwrap();
        tags.put(3);
        graph.wait().unwrap();
        weaks.push(w);
    }
    assert_eq!(weaks.iter().filter(|w| w.upgrade().is_some()).count(), 0);
}
