//! What a tile step may allocate on its way through the generic engine:
//! the instance. A counting global allocator brackets `engine::run_cnc`
//! for every benchmark x variant at `t = 16` tiles, `r` in {2, 8}, on
//! one worker, and holds the step path to
//!
//! * 1.1 allocations per completed step (+ a constant) under Tuner and
//!   Manual — 2.1 for parenthesization, whose `2 * gap` read sets
//!   outgrow the slots an instance has inline and take one block more;
//! * 1.1 per instance created (`tags_put`) under Native and
//!   NonBlocking, however often an instance re-executes.
//!
//! `DpSpec::expand` still returns a `Vec<Vec<Call>>` per recursive call
//! (making it stream belongs with the roadmap's `Plan`). Those
//! allocations are the spec's, not the step path's: the wrapper spec
//! below meters them on the worker that makes them, the table prints
//! them in a column of their own, and the budget is held on the rest.
//!
//! One `#[test]` only: the counter is process-wide. Run with
//! `--nocapture` for the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use recdp_cnc::CncGraph;
use recdp_forkjoin::ThreadPoolBuilder;
use recdp_kernels::engine::run_cnc;
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{
    fw::FwSpec, ge::GeSpec, lcs::LcsSpec, paren::ParenSpec, sw::SwSpec, Call, CncVariant,
    Decomposition, DpSpec, Matrix, TileKey, TileRegion,
};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's share of `ALLOCATIONS` (no destructor and constant
    /// initialisation: safe to touch from inside the allocator).
    static LOCAL: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards to `System`; only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const T: u32 = 16;
const BASE: usize = 2;
const N: usize = T as usize * BASE;
/// Allocations inside the bracket that are not per step: the graph's
/// collections and prescriptions, `manual_calls`' list, the growth of
/// the completed-step log and of the pool's queues.
const CONSTANT: usize = 100;

/// Delegates to `inner`, metering what `expand` allocates.
#[derive(Clone)]
struct Metered<S> {
    inner: S,
    expanding: Arc<AtomicUsize>,
}

impl<S: DpSpec> DpSpec for Metered<S> {
    fn func_names(&self) -> &'static [&'static str] {
        self.inner.func_names()
    }
    fn step_names(&self) -> &'static [&'static str] {
        self.inner.step_names()
    }
    fn item_name(&self) -> &'static str {
        self.inner.item_name()
    }
    fn t_tiles(&self) -> u32 {
        self.inner.t_tiles()
    }
    fn tile_extent(&self) -> TileKey {
        self.inner.tile_extent()
    }
    fn root(&self) -> Call {
        self.inner.root()
    }
    fn expand(&self, call: &Call) -> Vec<Vec<Call>> {
        let before = LOCAL.get();
        let stages = self.inner.expand(call);
        self.expanding
            .fetch_add(LOCAL.get() - before, Ordering::Relaxed);
        stages
    }
    fn tile(&self, call: &Call) -> TileKey {
        self.inner.tile(call)
    }
    fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        self.inner.reads(tile)
    }
    fn manual_calls(&self) -> Vec<Call> {
        self.inner.manual_calls()
    }
    unsafe fn run_tile(&self, tile: TileKey) {
        // SAFETY: forwarded verbatim.
        unsafe { self.inner.run_tile(tile) }
    }
    fn tile_region(&self, tile: TileKey) -> Option<TileRegion> {
        self.inner.tile_region(tile)
    }
    fn anti_deps(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        self.inner.anti_deps(tile)
    }
}

/// Runs `make(r)`'s spec under all four variants at both widths and
/// holds each run to its budget of `per_step` allocations.
fn hold_to_budget<S: DpSpec>(
    name: &str,
    per_step: f64,
    make: impl Fn(Decomposition) -> (Matrix, S),
) {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(1).build());
    for r in [2, 8] {
        for variant in CncVariant::ALL4 {
            let (_table, inner) = make(Decomposition::new(r));
            let spec = Metered {
                inner,
                expanding: Arc::new(AtomicUsize::new(0)),
            };
            let graph = CncGraph::with_pool(Arc::clone(&pool));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let stats = run_cnc(&spec, variant, &graph, None).expect("the run completes");
            let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let expanding = spec.expanding.load(Ordering::Relaxed);
            let pre_scheduled = matches!(variant, CncVariant::Tuner | CncVariant::Manual);
            let (per, units, unit) = match pre_scheduled {
                true => (per_step, stats.steps_completed, "steps"),
                false => (1.1, stats.tags_put, "instances"),
            };
            let step_path = spent - expanding;
            println!(
                "{name:6} r={r} {variant:12?} {units:6} {unit:9} {step_path:6} on the step path \
                 ({:.2} each) + {expanding:5} in expand",
                step_path as f64 / units as f64,
            );
            let budget = (per * units as f64) as usize + CONSTANT;
            assert!(
                step_path <= budget,
                "{name} r={r} {variant:?}: {step_path} allocations, budget {budget}"
            );
        }
    }
}

#[test]
fn a_tile_step_costs_one_allocation_through_the_engine() {
    hold_to_budget("ge", 1.1, |r| {
        let mut t = ge_matrix(N, 1);
        let spec = GeSpec::new(t.ptr(), BASE).with_decomposition(r);
        (t, spec)
    });
    hold_to_budget("fw", 1.1, |r| {
        let mut t = fw_matrix(N, 2, 0.35);
        let spec = FwSpec::new(t.ptr(), BASE).with_decomposition(r);
        (t, spec)
    });
    let (a, b) = (dna_sequence(N, 3), dna_sequence(N, 4));
    hold_to_budget("sw", 1.1, |r| {
        let mut t = Matrix::zeros(N);
        let spec = SwSpec::new(t.ptr(), &a, &b, BASE).with_decomposition(r);
        (t, spec)
    });
    hold_to_budget("lcs", 1.1, |r| {
        let mut t = Matrix::zeros(N);
        let spec = LcsSpec::new(t.ptr(), &a, &b, BASE).with_decomposition(r);
        (t, spec)
    });
    let dims = chain_dims(N, 5);
    hold_to_budget("paren", 2.1, |r| {
        let mut t = Matrix::zeros(N);
        let spec = ParenSpec::new(t.ptr(), &dims, BASE).with_decomposition(r);
        (t, spec)
    });
}
