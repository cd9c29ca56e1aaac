//! Generic execution engines over any [`DpSpec`]: one serial R-DP
//! walker, one fork-join engine on `recdp-forkjoin`, and one CnC engine
//! on `recdp-cnc` covering all four [`CncVariant`]s.
//!
//! These replace the per-benchmark driver triplication: a benchmark
//! contributes only its spec (kernel + decomposition + dependencies) and
//! gets every execution model of the paper for free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use recdp_cnc::{
    CncError, CncGraph, DepSet, GraphStats, ItemCollection, StepOutcome, StepResult, StepScope,
    TagCollection,
};
use recdp_forkjoin::{join, ThreadPool};

use crate::integrity::{self, IntegrityConfig, IntegrityReport, IntegrityState};
use crate::spec::{Call, DpSpec, Tag, TileKey};
use crate::CncVariant;

// ---------------------------------------------------------------------
// Serial R-DP engine
// ---------------------------------------------------------------------

/// Runs the recursion depth-first on the calling thread — the serial
/// R-DP execution (Fig. 2's order): stages in order, calls within a
/// stage left to right.
pub fn run_serial<S: DpSpec>(spec: &S) {
    serial_call(spec, &spec.root());
}

fn serial_call<S: DpSpec>(spec: &S, call: &Call) {
    if call.s == 1 {
        // SAFETY: depth-first stage order is a topological order of the
        // tile graph (stages sequence every dependency per the DpSpec
        // contract), and a single thread runs one tile at a time.
        unsafe { spec.run_tile(spec.tile(call)) };
        return;
    }
    for stage in spec.expand(call) {
        for sub in &stage {
            serial_call(spec, sub);
        }
    }
}

/// [`run_serial`] under an integrity policy: every base tile runs
/// through the snapshot / inject / verify / repair pipeline of
/// [`integrity::execute_tile`]. Returns what the integrity layer saw;
/// [`IntegrityReport::ok`] surfaces an unrepairable tile as an error.
pub fn run_serial_checked<S: DpSpec>(spec: &S, cfg: IntegrityConfig) -> IntegrityReport {
    let st = IntegrityState::new(cfg);
    serial_call_checked(spec, &spec.root(), &st);
    st.report()
}

fn serial_call_checked<S: DpSpec>(spec: &S, call: &Call, st: &IntegrityState) {
    if call.s == 1 {
        // SAFETY: same topological-order argument as `serial_call`.
        unsafe { integrity::execute_tile(spec, spec.step_names()[call.func], spec.tile(call), st) };
        return;
    }
    for stage in spec.expand(call) {
        for sub in &stage {
            serial_call_checked(spec, sub, st);
        }
    }
}

// ---------------------------------------------------------------------
// Fork-join engine
// ---------------------------------------------------------------------

/// Runs the recursion on `pool` with a fork per stage member and a join
/// at every stage boundary — the paper's Listing-3 execution (`#pragma
/// omp task` + `taskwait`), where the joins are exactly the *artificial
/// dependencies* of Fig. 3.
pub fn run_forkjoin<S: DpSpec>(spec: &S, pool: &ThreadPool) {
    run_forkjoin_grained(spec, pool, 1);
}

/// [`run_forkjoin`] with **grain control** for wide stages: a chunk of
/// at most `grain` sibling calls runs sequentially instead of forking
/// further. `grain = 1` is exactly [`run_forkjoin`] (every sibling pair
/// forks); wider decompositions produce stages of up to `r^2` siblings,
/// and a larger grain trades stage parallelism for fewer forks/joins.
pub fn run_forkjoin_grained<S: DpSpec>(spec: &S, pool: &ThreadPool, grain: usize) {
    let grain = grain.max(1);
    pool.install(|| forkjoin_call(spec, &spec.root(), grain, None, None));
}

/// [`run_forkjoin_grained`] under an integrity policy: each base tile
/// is verified (and, on a digest mismatch, recomputed) *inside its own
/// task*, i.e. before the enclosing stage barrier releases — no
/// consumer in a later stage can observe an unverified tile.
pub fn run_forkjoin_checked<S: DpSpec>(
    spec: &S,
    pool: &ThreadPool,
    grain: usize,
    cfg: IntegrityConfig,
) -> IntegrityReport {
    let grain = grain.max(1);
    let st = IntegrityState::new(cfg);
    pool.install(|| forkjoin_call(spec, &spec.root(), grain, None, Some(&st)));
    st.report()
}

/// Runs the recursion like [`run_forkjoin_grained`] while counting the
/// joins actually executed — one per *forked stage barrier*, i.e. each
/// stage whose sibling list is forked onto the pool and then waited
/// for (Listing 3's `taskwait`), the paper's *artificial dependencies*.
/// How the work-stealing pool realises an N-way fork internally (a
/// binary split tree) is a runtime detail and is not counted: the join
/// count is a property of the algorithm's stage structure, so it is
/// deterministic and schedule-independent. Stages of at most `grain`
/// calls run serially and contribute no join.
pub fn run_forkjoin_counting<S: DpSpec>(spec: &S, pool: &ThreadPool, grain: usize) -> u64 {
    let grain = grain.max(1);
    let joins = AtomicU64::new(0);
    pool.install(|| forkjoin_call(spec, &spec.root(), grain, Some(&joins), None));
    joins.into_inner()
}

fn forkjoin_call<S: DpSpec>(
    spec: &S,
    call: &Call,
    grain: usize,
    joins: Option<&AtomicU64>,
    integrity: Option<&IntegrityState>,
) {
    if call.s == 1 {
        // SAFETY: calls within a stage touch disjoint tiles (DpSpec
        // contract) and the joins sequence every cross-stage dependency.
        unsafe {
            match integrity {
                Some(st) => {
                    integrity::execute_tile(
                        spec,
                        spec.step_names()[call.func],
                        spec.tile(call),
                        st,
                    );
                }
                None => spec.run_tile(spec.tile(call)),
            }
        }
        return;
    }
    for stage in spec.expand(call) {
        if stage.len() <= grain {
            for sub in &stage {
                forkjoin_call(spec, sub, grain, joins, integrity);
            }
        } else {
            if let Some(j) = joins {
                j.fetch_add(1, Ordering::Relaxed);
            }
            forkjoin_split(spec, &stage, grain, joins, integrity);
        }
    }
}

/// Executes one forked stage's independent calls as a binary split
/// tree, stopping the splitting at `grain` calls per leaf chunk.
fn forkjoin_split<S: DpSpec>(
    spec: &S,
    calls: &[Call],
    grain: usize,
    joins: Option<&AtomicU64>,
    integrity: Option<&IntegrityState>,
) {
    if calls.len() <= grain {
        for call in calls {
            forkjoin_call(spec, call, grain, joins, integrity);
        }
    } else {
        let (left, right) = calls.split_at(calls.len() / 2);
        join(
            || forkjoin_split(spec, left, grain, joins, integrity),
            || forkjoin_split(spec, right, grain, joins, integrity),
        );
    }
}

/// Predicts the join count of [`run_forkjoin_counting`] by statically
/// walking the spec's stage structure without executing any tile: each
/// stage wider than `grain` is one forked barrier and contributes one
/// join, plus whatever its sub-calls' own expansions contribute.
/// Independent cross-check: `recdp-taskgraph`'s r-way predictors must
/// agree with this walk *and* with the measured count from
/// [`run_forkjoin_counting`].
pub fn forkjoin_join_count<S: DpSpec>(spec: &S, grain: usize) -> u64 {
    count_call(spec, &spec.root(), grain.max(1))
}

fn count_call<S: DpSpec>(spec: &S, call: &Call, grain: usize) -> u64 {
    if call.s == 1 {
        return 0;
    }
    spec.expand(call)
        .iter()
        .map(|stage| {
            let barrier = u64::from(stage.len() > grain);
            barrier
                + stage
                    .iter()
                    .map(|c| count_call(spec, c, grain))
                    .sum::<u64>()
        })
        .sum()
}

// ---------------------------------------------------------------------
// CnC engine
// ---------------------------------------------------------------------

/// The generic CnC program for a spec: one tag/step collection per
/// recursive function, one tile-readiness item collection. The item
/// payload is the producer's tile digest (`0` on unchecked runs) — the
/// end-to-end signal the integrity layer compares against its registry
/// to catch mangled puts.
struct EngineCtx<S: DpSpec> {
    spec: S,
    variant: CncVariant,
    items: ItemCollection<TileKey, u64>,
    tags: Vec<TagCollection<Tag>>,
    integrity: Option<Arc<IntegrityState>>,
}

impl<S: DpSpec> EngineCtx<S> {
    /// Declared dependency set of a base tile task (for `put_when`).
    fn deps(&self, tile: TileKey) -> DepSet {
        DepSet::new()
            .items(&self.items, self.spec.reads(tile))
            .items(&self.items, self.anti_deps(tile))
    }

    /// Anti-dependence edges ([`DpSpec::anti_deps`]) are honoured only
    /// on checked runs: verification and repair re-read a tile's inputs
    /// long after the gets that proved them ready, so the inputs must
    /// stay frozen until the tile's own item is put. Unchecked runs keep
    /// the spec's plain data-flow graph — the paper's program shape.
    fn anti_deps(&self, tile: TileKey) -> Vec<TileKey> {
        match &self.integrity {
            Some(_) => self.spec.anti_deps(tile),
            None => Vec::new(),
        }
    }

    /// Publishes a call: recursive tags are always plain puts (they have
    /// no data dependencies — Listing 5 expands irrespective of data);
    /// base tags go through the variant-aware path.
    fn put_call(&self, call: &Call) {
        if call.s == 1 {
            self.put_base(call);
        } else {
            self.tags[call.func].put((*call).into());
        }
    }

    /// Publishes a base tag, pre-scheduling it on its declared
    /// dependencies under Tuner/Manual.
    fn put_base(&self, call: &Call) {
        let tag: Tag = (*call).into();
        match self.variant {
            CncVariant::Native | CncVariant::NonBlocking => self.tags[call.func].put(tag),
            CncVariant::Tuner | CncVariant::Manual => {
                let deps = self.deps(self.spec.tile(call));
                self.tags[call.func].put_when(tag, &deps);
            }
        }
    }

    /// Runs a base tile task: blocking gets in the spec's read order,
    /// the tile kernel, then the readiness put. Under the non-blocking
    /// variant the gets become polls and a miss re-puts the task's own
    /// tag (self-respawn) instead of parking.
    fn run_base(&self, func: usize, tag: Tag, scope: &StepScope<'_>) -> StepResult {
        let call = Call::new(func, tag.0, tag.1, tag.2, 1);
        let tile = self.spec.tile(&call);
        let anti_deps = self.anti_deps(tile);
        if self.variant == CncVariant::NonBlocking {
            let ready = self
                .spec
                .reads(tile)
                .iter()
                .chain(anti_deps.iter())
                .all(|r| self.items.try_get(r).is_some());
            if !ready {
                self.tags[func].put_retry(tag);
                return Ok(StepOutcome::Done);
            }
        }
        for r in self.spec.reads(tile) {
            let received = self.items.get(scope, &r)?;
            if let Some(st) = &self.integrity {
                st.check_payload(self.spec.item_name(), r, received);
            }
        }
        // Ordering-only edges: wait for every reader of the region this
        // tile overwrites, so verify/repair re-reads stable inputs. The
        // payloads are not data and are not re-verified here.
        for r in anti_deps {
            self.items.get(scope, &r)?;
        }
        // SAFETY: this task is the unique writer of its tile
        // (single assignment on the item collection enforces it), and
        // every tile in `reads` was completed by the task whose item the
        // get above observed.
        let payload = match &self.integrity {
            Some(st) => {
                let digest = unsafe {
                    integrity::execute_tile(&self.spec, self.spec.step_names()[func], tile, st)
                };
                st.outgoing_payload(self.spec.item_name(), tile, digest)
            }
            None => {
                unsafe { self.spec.run_tile(tile) };
                0
            }
        };
        self.items.put(tile, payload)?;
        Ok(StepOutcome::Done)
    }
}

/// Runs the spec's data-flow program on a fresh CnC graph with
/// `threads` workers. Returns the graph's execution statistics (requeue
/// counts etc. — the observable difference between the variants).
pub fn run_cnc<S: DpSpec>(spec: &S, variant: CncVariant, threads: usize) -> GraphStats {
    let graph = CncGraph::with_threads(threads);
    run_cnc_on(spec, variant, &graph).expect("CnC graph failed")
}

/// [`run_cnc`] under an integrity policy. Detection and repair both
/// happen inside the producing step, before the tile's readiness item
/// is put, so single assignment is never violated; on top of that the
/// item payload carries the producer's digest end-to-end, so a mangled
/// put is caught by the consumer against the digest registry.
pub fn run_cnc_checked<S: DpSpec>(
    spec: &S,
    variant: CncVariant,
    threads: usize,
    cfg: IntegrityConfig,
) -> (GraphStats, IntegrityReport) {
    let graph = CncGraph::with_threads(threads);
    run_cnc_checked_on(spec, variant, &graph, cfg).expect("CnC graph failed")
}

/// Fallible form of [`run_cnc_checked`] on a caller-supplied graph
/// (retry policy, deadline, fault injector already armed). The graph's
/// structured error takes precedence; an unrepairable tile is reported
/// via [`IntegrityReport::error`] so the caller decides how to
/// escalate.
pub fn run_cnc_checked_on<S: DpSpec>(
    spec: &S,
    variant: CncVariant,
    graph: &CncGraph,
    cfg: IntegrityConfig,
) -> Result<(GraphStats, IntegrityReport), CncError> {
    let st = register_cnc_checked_on(spec, variant, graph, cfg);
    let stats = graph.wait()?;
    Ok((stats, st.report()))
}

/// Fallible form of [`run_cnc`] on a caller-supplied graph, so the
/// caller can arm a retry policy, deadline, cancellation token or fault
/// injector before execution. Propagates the graph's structured error
/// (retry exhaustion, deadlock, timeout, cancellation) instead of
/// panicking.
pub fn run_cnc_on<S: DpSpec>(
    spec: &S,
    variant: CncVariant,
    graph: &CncGraph,
) -> Result<GraphStats, CncError> {
    register_cnc_on(spec, variant, graph);
    graph.wait()
}

/// Registers the spec's data-flow program on `graph` and publishes the
/// environment puts, but does **not** wait for completion. This is the
/// registration half of [`run_cnc_on`], split out so checkpoint/resume
/// drivers can re-register the same program on a fresh graph seeded
/// via [`CncGraph::resume_from`] (which must happen *before* any
/// collection exists) and so managed-scheduler harnesses can drive the
/// ready queue step by step.
pub fn register_cnc_on<S: DpSpec>(spec: &S, variant: CncVariant, graph: &CncGraph) {
    register_cnc_with(spec, variant, graph, None);
}

/// [`register_cnc_on`] with an integrity runtime attached: returns the
/// shared [`IntegrityState`] so callers that drive the graph themselves
/// (resume drivers, managed-scheduler harnesses, the job server) can
/// collect the [`IntegrityReport`] after quiescence.
pub fn register_cnc_checked_on<S: DpSpec>(
    spec: &S,
    variant: CncVariant,
    graph: &CncGraph,
    cfg: IntegrityConfig,
) -> Arc<IntegrityState> {
    let st = Arc::new(IntegrityState::new(cfg));
    register_cnc_with(spec, variant, graph, Some(st.clone()));
    st
}

fn register_cnc_with<S: DpSpec>(
    spec: &S,
    variant: CncVariant,
    graph: &CncGraph,
    integrity: Option<Arc<IntegrityState>>,
) {
    let func_names = spec.func_names();
    let step_names = spec.step_names();
    assert_eq!(func_names.len(), step_names.len());
    // Shared by every step body: bodies hold the collections that hold
    // them, a cycle the graph cuts when its `CncGraph` handle drops.
    let ctx = Arc::new(EngineCtx {
        spec: spec.clone(),
        variant,
        items: graph.grid_item_collection(spec.item_name(), spec.tile_extent()),
        tags: func_names
            .iter()
            .map(|name| graph.tag_collection(name))
            .collect(),
        integrity,
    });

    for (func, step_name) in step_names.iter().enumerate() {
        let cx = Arc::clone(&ctx);
        ctx.tags[func].prescribe(step_name, move |&tag: &Tag, scope| {
            let (i0, j0, k0, s) = tag;
            if s == 1 {
                return cx.run_base(func, tag, scope);
            }
            // The recursive part: put every sub-call's tag immediately,
            // irrespective of data dependencies (Listing 5's tag loops).
            let call = Call::new(func, i0, j0, k0, s);
            for stage in cx.spec.expand(&call) {
                for sub in &stage {
                    cx.put_call(sub);
                }
            }
            Ok(StepOutcome::Done)
        });
    }

    match variant {
        CncVariant::Native | CncVariant::Tuner | CncVariant::NonBlocking => {
            // Environment triggers the root of the recursion.
            ctx.put_call(&spec.root());
        }
        CncVariant::Manual => {
            // Environment pre-declares every base task with its full
            // dependency set before execution.
            for call in spec.manual_calls() {
                ctx.put_base(&call);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Call, DpSpec, TileKey};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A toy 1-D prefix chain: t tiles, tile i reads tile i-1. Exercises
    /// the engines' plumbing independent of the real benchmarks.
    #[derive(Clone)]
    struct Chain {
        t: u32,
        ran: Arc<AtomicUsize>,
    }

    impl DpSpec for Chain {
        fn func_names(&self) -> &'static [&'static str] {
            &["chain"]
        }
        fn step_names(&self) -> &'static [&'static str] {
            &["chain_step"]
        }
        fn item_name(&self) -> &'static str {
            "chain_tiles"
        }
        fn t_tiles(&self) -> u32 {
            self.t
        }
        fn root(&self) -> Call {
            Call::new(0, 0, 0, 0, self.t)
        }
        fn expand(&self, call: &Call) -> Vec<Vec<Call>> {
            let h = call.s / 2;
            vec![
                vec![Call::new(0, call.i0, 0, 0, h)],
                vec![Call::new(0, call.i0 + h, 0, 0, h)],
            ]
        }
        fn tile(&self, call: &Call) -> TileKey {
            (call.i0, 0, 0)
        }
        fn reads(&self, tile: TileKey) -> Vec<TileKey> {
            if tile.0 > 0 {
                vec![(tile.0 - 1, 0, 0)]
            } else {
                vec![]
            }
        }
        fn manual_calls(&self) -> Vec<Call> {
            (0..self.t).map(|i| Call::new(0, i, 0, 0, 1)).collect()
        }
        unsafe fn run_tile(&self, _tile: TileKey) {
            self.ran.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn chain(t: u32) -> Chain {
        Chain {
            t,
            ran: Arc::new(AtomicUsize::new(0)),
        }
    }

    #[test]
    fn serial_engine_runs_every_tile_once() {
        let spec = chain(8);
        run_serial(&spec);
        assert_eq!(spec.ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn forkjoin_engine_runs_every_tile_once() {
        let pool = recdp_forkjoin::ThreadPoolBuilder::new()
            .num_threads(2)
            .build();
        let spec = chain(8);
        run_forkjoin(&spec, &pool);
        assert_eq!(spec.ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn cnc_engine_runs_every_tile_once_under_all_variants() {
        for variant in CncVariant::ALL4 {
            let spec = chain(8);
            let stats = run_cnc(&spec, variant, 2);
            assert_eq!(spec.ran.load(Ordering::Relaxed), 8, "{variant:?}");
            assert_eq!(stats.items_put, 8, "{variant:?}");
        }
    }

    #[test]
    fn grained_forkjoin_runs_every_tile_and_counts_no_chain_joins() {
        // Chain's stages all have width 1, so no fork ever happens and
        // the measured join count is 0 at every grain.
        let pool = recdp_forkjoin::ThreadPoolBuilder::new()
            .num_threads(2)
            .build();
        for grain in [1usize, 4] {
            let spec = chain(8);
            assert_eq!(run_forkjoin_counting(&spec, &pool, grain), 0);
            assert_eq!(spec.ran.load(Ordering::Relaxed), 8);
            assert_eq!(forkjoin_join_count(&spec, grain), 0);
        }
    }

    /// A toy spec with one stage of `w` independent tiles, to pin the
    /// join arithmetic: a stage wider than the grain is one forked
    /// barrier (one join), a stage at or under the grain runs serially
    /// (no join) — regardless of the pool's internal binary split tree.
    #[derive(Clone)]
    struct Wide {
        w: u32,
        ran: Arc<AtomicUsize>,
    }

    impl DpSpec for Wide {
        fn func_names(&self) -> &'static [&'static str] {
            &["wide"]
        }
        fn step_names(&self) -> &'static [&'static str] {
            &["wide_step"]
        }
        fn item_name(&self) -> &'static str {
            "wide_tiles"
        }
        fn t_tiles(&self) -> u32 {
            self.w
        }
        fn root(&self) -> Call {
            Call::new(0, 0, 0, 0, self.w)
        }
        fn expand(&self, call: &Call) -> Vec<Vec<Call>> {
            vec![(0..call.s).map(|i| Call::new(0, i, 0, 0, 1)).collect()]
        }
        fn tile(&self, call: &Call) -> TileKey {
            (call.i0, 0, 0)
        }
        fn reads(&self, _tile: TileKey) -> Vec<TileKey> {
            vec![]
        }
        fn manual_calls(&self) -> Vec<Call> {
            (0..self.w).map(|i| Call::new(0, i, 0, 0, 1)).collect()
        }
        unsafe fn run_tile(&self, _tile: TileKey) {
            self.ran.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn wide_stage_join_count_measured_matches_static_walk() {
        let pool = recdp_forkjoin::ThreadPoolBuilder::new()
            .num_threads(2)
            .build();
        for (w, grain, expect) in [
            (8u32, 1usize, 1u64),
            (8, 2, 1),
            (8, 8, 0),
            (6, 1, 1),
            (1, 1, 0),
        ] {
            let spec = Wide {
                w,
                ran: Arc::new(AtomicUsize::new(0)),
            };
            assert_eq!(
                run_forkjoin_counting(&spec, &pool, grain),
                expect,
                "w={w} grain={grain}"
            );
            assert_eq!(spec.ran.load(Ordering::Relaxed), w as usize);
            assert_eq!(forkjoin_join_count(&spec, grain), expect);
        }
    }

    #[test]
    fn manual_runs_only_base_steps() {
        let spec = chain(8);
        let stats = run_cnc(&spec, CncVariant::Manual, 2);
        assert_eq!(stats.steps_completed, 8);
        assert_eq!(stats.tags_put, 8);
    }
}
