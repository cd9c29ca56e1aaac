//! Generic execution engines over any [`DpSpec`]: one serial R-DP
//! walker, one fork-join engine on `recdp-forkjoin`, and one CnC engine
//! on `recdp-cnc` covering all four [`CncVariant`]s.
//!
//! These replace the per-benchmark driver triplication: a benchmark
//! contributes only its spec (kernel + decomposition + dependencies) and
//! gets every execution model of the paper for free.
//!
//! One function per family, each taking the integrity runtime as an
//! argument — `None` runs unchecked, `Some` is an [`IntegrityState`] the
//! caller builds and reads the report from afterwards (whether a
//! *declared* policy is checked at all is decided once, in
//! [`crate::IntegrityOptions::config`]):
//!
//! | function | what it runs |
//! |---|---|
//! | [`run_serial`] | depth-first walk on the calling thread |
//! | [`run_forkjoin`] | fork per stage member, join per stage, on a pool |
//! | [`forkjoin_join_count`] | the joins [`run_forkjoin`] counts, by a static walk |
//! | [`register_cnc`] | the data-flow program's collections, steps and environment puts |
//! | [`run_cnc`] | [`register_cnc`], then `graph.wait()` |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use recdp_cnc::{
    CncError, CncGraph, GraphStats, ItemCollection, StepOutcome, StepResult, StepScope,
    TagCollection,
};
use recdp_forkjoin::{join, ThreadPool};

use crate::integrity::{self, IntegrityState};
use crate::spec::{Call, DpSpec, Tag, TileKey};
use crate::CncVariant;

/// Runs one base tile, through the snapshot / inject / verify / repair
/// pipeline of [`integrity::execute_tile`] on a checked run. Returns the
/// digest the producer vouches for (`0` on unchecked runs, and wherever
/// a caller that does not `publish` it would have been its only use).
///
/// # Safety
/// Same contract as [`DpSpec::run_tile`].
#[inline]
unsafe fn run_tile<S: DpSpec>(
    spec: &S,
    func: usize,
    tile: TileKey,
    integrity: Option<&IntegrityState>,
    publish: bool,
) -> u64 {
    match integrity {
        Some(st) => integrity::execute_tile(spec, spec.step_names()[func], tile, st, publish),
        None => {
            spec.run_tile(tile);
            0
        }
    }
}

// ---------------------------------------------------------------------
// Serial R-DP engine
// ---------------------------------------------------------------------

/// Runs the recursion depth-first on the calling thread — the serial
/// R-DP execution (Fig. 2's order): stages in order, calls within a
/// stage left to right. On a checked run every base tile is verified
/// (and, on a digest mismatch, recomputed) before the walk moves on.
pub fn run_serial<S: DpSpec>(spec: &S, integrity: Option<&IntegrityState>) {
    serial_call(spec, &spec.root(), integrity);
}

fn serial_call<S: DpSpec>(spec: &S, call: &Call, integrity: Option<&IntegrityState>) {
    if call.s == 1 {
        // SAFETY: depth-first stage order is a topological order of the
        // tile graph (stages sequence every dependency per the DpSpec
        // contract), and a single thread runs one tile at a time.
        unsafe { run_tile(spec, call.func, spec.tile(call), integrity, false) };
        return;
    }
    for stage in spec.expand(call) {
        for sub in &stage {
            serial_call(spec, sub, integrity);
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
///
/// `grain` is the fork grain for wide stages: a chunk of at most `grain`
/// sibling calls runs sequentially instead of forking further. `1`
/// forks every sibling pair; wider decompositions produce stages of up
/// to `r^2` siblings, and a larger grain trades stage parallelism for
/// fewer forks/joins.
///
/// `joins`, when given, counts the joins executed — one per *forked
/// stage barrier*, i.e. each stage wider than `grain`, whose sibling
/// list is forked onto the pool and then waited for. How the pool
/// realises an N-way fork internally (a binary split tree) is a runtime
/// detail and is not counted: the join count is a property of the
/// algorithm's stage structure, so it is deterministic and
/// schedule-independent.
///
/// On a checked run each base tile is verified (and, on a digest
/// mismatch, recomputed) *inside its own task*, i.e. before the
/// enclosing stage barrier releases — no consumer in a later stage can
/// observe an unverified tile.
pub fn run_forkjoin<S: DpSpec>(
    spec: &S,
    pool: &ThreadPool,
    grain: usize,
    joins: Option<&AtomicU64>,
    integrity: Option<&IntegrityState>,
) {
    let grain = grain.max(1);
    pool.install(|| forkjoin_call(spec, &spec.root(), grain, joins, integrity));
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
        unsafe { run_tile(spec, call.func, spec.tile(call), integrity, false) };
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

/// Predicts the join count [`run_forkjoin`] reports by statically
/// walking the spec's stage structure without executing any tile: each
/// stage wider than `grain` is one forked barrier and contributes one
/// join, plus whatever its sub-calls' own expansions contribute.
/// Independent cross-check: `recdp-taskgraph`'s r-way predictors must
/// agree with this walk *and* with the measured count.
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
    /// Anti-dependence edges ([`DpSpec::anti_deps`]) are honoured only
    /// on checked runs: verification and repair re-read a tile's inputs
    /// long after the gets that proved them ready, so the inputs must
    /// stay frozen until the tile's own item is put. Unchecked runs keep
    /// the spec's plain data-flow graph — the paper's program shape.
    fn anti_deps(&self, tile: TileKey) -> impl Iterator<Item = TileKey> + '_ {
        let checked = self.integrity.is_some();
        checked
            .then(|| self.spec.anti_deps(tile))
            .into_iter()
            .flatten()
    }

    /// Every item a base tile task waits for, in blocking-get order.
    fn deps(&self, tile: TileKey) -> impl Iterator<Item = TileKey> + '_ {
        self.spec.reads(tile).chain(self.anti_deps(tile))
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
                self.tags[call.func].put_when(tag, &self.items, deps);
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
        if self.variant == CncVariant::NonBlocking {
            let ready = self.deps(tile).all(|r| self.items.try_get(&r).is_some());
            if !ready {
                self.tags[func].put_retry(tag);
                return Ok(StepOutcome::Done);
            }
        }
        let integrity = self.integrity.as_deref();
        for r in self.spec.reads(tile) {
            let received = self.items.get(scope, &r)?;
            if let Some(st) = integrity {
                st.check_payload(self.spec.item_name(), r, received);
            }
        }
        // Ordering-only edges: wait for every reader of the region this
        // tile overwrites, so verify/repair re-reads stable inputs. The
        // payloads are not data and are not re-verified here.
        for r in self.anti_deps(tile) {
            self.items.get(scope, &r)?;
        }
        // SAFETY: this task is the unique writer of its tile
        // (single assignment on the item collection enforces it), and
        // every tile in `reads` was completed by the task whose item the
        // get above observed.
        let digest = unsafe { run_tile(&self.spec, func, tile, integrity, true) };
        let payload = match integrity {
            Some(st) => st.outgoing_payload(self.spec.item_name(), tile, digest),
            None => digest,
        };
        self.items.put(tile, payload)?;
        Ok(StepOutcome::Done)
    }
}

/// Runs the spec's data-flow program on `graph`: [`register_cnc`], then
/// wait for quiescence. The caller builds the graph and arms its retry
/// policy, deadline, cancellation token, tracer or fault injector
/// beforehand; the graph's structured error (retry exhaustion,
/// deadlock, timeout, cancellation) is returned, never panicked. An
/// unrepairable tile of a checked run is *not* an error here: it is in
/// the state's report, so the caller decides how to escalate.
pub fn run_cnc<S: DpSpec>(
    spec: &S,
    variant: CncVariant,
    graph: &CncGraph,
    integrity: Option<Arc<IntegrityState>>,
) -> Result<GraphStats, CncError> {
    register_cnc(spec, variant, graph, integrity);
    graph.wait()
}

/// Registers the spec's data-flow program on `graph` and publishes the
/// environment puts, but does **not** wait for completion. Split out of
/// [`run_cnc`] so checkpoint/resume drivers can re-register the same
/// program on a fresh graph seeded via [`CncGraph::resume_from`] (which
/// must happen *before* any collection exists), so managed-scheduler
/// harnesses can drive the ready queue step by step, and so batch
/// drivers can put many programs behind one `graph.wait()`.
///
/// On a checked run, detection and repair both happen inside the
/// producing step, before the tile's readiness item is put, so single
/// assignment is never violated; on top of that the item payload
/// carries the producer's digest end-to-end, so a mangled put is caught
/// by the consumer against the digest registry. The caller keeps its
/// clone of the state and reads the report after quiescence.
pub fn register_cnc<S: DpSpec>(
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
        fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
            (tile.0 > 0).then(|| (tile.0 - 1, 0, 0)).into_iter()
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

    fn counted_joins<S: DpSpec>(spec: &S, pool: &ThreadPool, grain: usize) -> u64 {
        let joins = AtomicU64::new(0);
        run_forkjoin(spec, pool, grain, Some(&joins), None);
        joins.into_inner()
    }

    #[test]
    fn serial_engine_runs_every_tile_once() {
        let spec = chain(8);
        run_serial(&spec, None);
        assert_eq!(spec.ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn forkjoin_engine_runs_every_tile_once() {
        let pool = recdp_forkjoin::ThreadPoolBuilder::new()
            .num_threads(2)
            .build();
        let spec = chain(8);
        run_forkjoin(&spec, &pool, 1, None, None);
        assert_eq!(spec.ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn cnc_engine_runs_every_tile_once_under_all_variants() {
        for variant in CncVariant::ALL4 {
            let spec = chain(8);
            let stats = run_cnc(&spec, variant, &CncGraph::with_threads(2), None).unwrap();
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
            assert_eq!(counted_joins(&spec, &pool, grain), 0);
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
        fn reads(&self, _tile: TileKey) -> impl Iterator<Item = TileKey> {
            std::iter::empty()
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
                counted_joins(&spec, &pool, grain),
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
        let stats = run_cnc(&spec, CncVariant::Manual, &CncGraph::with_threads(2), None).unwrap();
        assert_eq!(stats.steps_completed, 8);
        assert_eq!(stats.tags_put, 8);
    }
}
