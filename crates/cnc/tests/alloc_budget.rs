//! What a step instance may allocate: the instance. A counting global
//! allocator brackets 10 000 instances of the benchmark's step shape
//! (two gets, one put, one worker) and holds them to one allocation
//! each — under the Tuner style with every instance parked (its
//! declared dependencies live inside it), and under Native with every
//! get blocking once (three executions per instance).
//!
//! One `#[test]` only: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use recdp_cnc::{CncGraph, StepOutcome};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to `System`; only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const INSTANCES: u32 = 10_000;
/// Allocations inside the bracket that are not per instance: the growth
/// of the completed-step log and of the pool's queues (logarithmic in
/// `INSTANCES` for a deque; one block per 63 injected jobs for
/// crossbeam's injector, which dispatches from the environment use).
const CONSTANT: usize = 1000;

/// Runs `INSTANCES` steps `out[n] = in[n] + in[n + 1]` with the inputs
/// put only after every tag, so that each instance parks; returns the
/// allocations from the first tag put to quiescence.
fn allocations(pre_scheduled: bool) -> usize {
    let graph = CncGraph::with_threads(1);
    let input = graph.grid_item_collection::<u32, u64>("in", INSTANCES + 1);
    let out = graph.grid_item_collection::<u32, u64>("out", INSTANCES);
    let tags = graph.tag_collection::<u32>("sums");
    let (i2, o2) = (input.clone(), out.clone());
    tags.prescribe("sum", move |&n, scope| {
        let a = i2.get(scope, &n)?;
        let b = i2.get(scope, &(n + 1))?;
        o2.put(n, a + b)?;
        Ok(StepOutcome::Done)
    });
    // Warm the pool, the thread-locals and the log's first pages.
    input.put(INSTANCES, 0).unwrap();
    input.put(INSTANCES - 1, 0).unwrap();
    tags.put(INSTANCES - 1);
    graph.wait().unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for n in 0..INSTANCES - 1 {
        if pre_scheduled {
            tags.put_when(n, &input, [n, n + 1]);
        } else {
            tags.put(n);
        }
    }
    // Ascending: each put satisfies the first get of one instance, which
    // resumes and blocks on its second (or, pre-scheduled, moves on to
    // park on its second dependency), and the second get of the one
    // before. Under Native the environment waits for that second block
    // before it puts again, so every get blocks exactly once.
    let blocked_gets = |at_least: u64| {
        while !pre_scheduled && graph.stats().gets_blocked < at_least {
            std::thread::yield_now();
        }
    };
    let parked = u64::from(INSTANCES - 1);
    blocked_gets(parked);
    for n in 0..INSTANCES - 1 {
        input.put(n, u64::from(n)).unwrap();
        // (The last instance finds its second item put by the warm-up.)
        blocked_gets((parked + u64::from(n) + 1).min(2 * parked - 1));
    }
    let stats = graph.wait().unwrap();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(out.get_env(&7), Some(15));
    assert_eq!(stats.steps_completed, u64::from(INSTANCES));
    if pre_scheduled {
        assert_eq!(stats.steps_requeued, 0);
    } else {
        assert_eq!(stats.gets_blocked, 2 * parked - 1, "every get blocked once");
    }
    spent
}

#[test]
fn a_step_instance_costs_one_allocation() {
    let budget = INSTANCES as usize + CONSTANT;
    let tuner = allocations(true);
    assert!(tuner <= budget, "pre-scheduled: {tuner} allocations");
    let native = allocations(false);
    assert!(native <= budget, "blocking gets: {native} allocations");
}
