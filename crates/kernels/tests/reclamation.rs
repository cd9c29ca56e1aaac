//! The generic CnC engine leaves nothing behind once its graph is
//! dropped: every clone of the spec it hands to step bodies is released,
//! for all five benchmarks, under every variant, checked and unchecked.
//!
//! `register_cnc` shares one context (spec + the tag and item
//! collections) among all step bodies, so the bodies own handles to the
//! collections that own them. The spec here is wrapped in a clone/drop
//! counter: if that cycle survives the graph, the count stays up.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use recdp_cnc::CncGraph;
use recdp_forkjoin::{ThreadPool, ThreadPoolBuilder};
use recdp_kernels::engine::run_cnc;
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{
    fw::FwSpec, ge::GeSpec, lcs::LcsSpec, paren::ParenSpec, sw::SwSpec, Call, CncVariant, DpSpec,
    IntegrityConfig, IntegrityMode, IntegrityOptions, IntegrityState, Matrix, TileKey, TileRegion,
};

const N: usize = 32;
const BASE: usize = 8;

/// Delegates to `inner`; `live` counts the wrappers in existence.
struct Counted<S> {
    inner: S,
    live: Arc<AtomicIsize>,
}

impl<S: Clone> Clone for Counted<S> {
    fn clone(&self) -> Self {
        self.live.fetch_add(1, Ordering::SeqCst);
        Counted {
            inner: self.inner.clone(),
            live: Arc::clone(&self.live),
        }
    }
}

impl<S> Drop for Counted<S> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<S: DpSpec> DpSpec for Counted<S> {
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
        self.inner.expand(call)
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
        // SAFETY: forwarded verbatim; the engine's guarantees to this
        // wrapper are the guarantees `inner` requires.
        unsafe { self.inner.run_tile(tile) }
    }
    fn tile_region(&self, tile: TileKey) -> Option<TileRegion> {
        self.inner.tile_region(tile)
    }
    fn anti_deps(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        self.inner.anti_deps(tile)
    }
}

/// Runs `make()`'s spec under every variant, unchecked and under full
/// integrity checking, each on its own graph on a shared pool.
fn assert_reclaimed<S: DpSpec>(name: &str, pool: &Arc<ThreadPool>, make: impl Fn() -> (Matrix, S)) {
    for variant in CncVariant::ALL {
        for checked in [false, true] {
            let what = format!("{name} {variant:?} checked={checked}");
            let (_table, inner) = make();
            let live = Arc::new(AtomicIsize::new(1));
            let spec = Counted {
                inner,
                live: Arc::clone(&live),
            };
            let graph = CncGraph::with_pool(Arc::clone(pool));
            let integrity = checked.then(|| {
                Arc::new(IntegrityState::new(IntegrityConfig::from(
                    IntegrityOptions {
                        mode: IntegrityMode::Full,
                        ..IntegrityOptions::default()
                    },
                )))
            });
            run_cnc(&spec, variant, &graph, integrity.clone())
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            if let Some(st) = integrity {
                st.report().ok().unwrap_or_else(|e| panic!("{what}: {e:?}"));
            }
            assert!(
                live.load(Ordering::SeqCst) > 1,
                "{what}: the graph's step bodies share a clone while it lives"
            );
            drop(graph);
            assert_eq!(
                live.load(Ordering::SeqCst),
                1,
                "{what}: spec clones outlived the graph"
            );
        }
    }
}

#[test]
fn every_engine_context_is_released_with_its_graph() {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(2).build());
    assert_reclaimed("ge", &pool, || {
        let mut t = ge_matrix(N, 1);
        let spec = GeSpec::new(t.ptr(), BASE);
        (t, spec)
    });
    assert_reclaimed("fw", &pool, || {
        let mut t = fw_matrix(N, 2, 0.35);
        let spec = FwSpec::new(t.ptr(), BASE);
        (t, spec)
    });
    let (a, b) = (dna_sequence(N, 3), dna_sequence(N, 4));
    assert_reclaimed("sw", &pool, || {
        let mut t = Matrix::zeros(N);
        let spec = SwSpec::new(t.ptr(), &a, &b, BASE);
        (t, spec)
    });
    assert_reclaimed("lcs", &pool, || {
        let mut t = Matrix::zeros(N);
        let spec = LcsSpec::new(t.ptr(), &a, &b, BASE);
        (t, spec)
    });
    let dims = chain_dims(N, 5);
    assert_reclaimed("paren", &pool, || {
        let mut t = Matrix::zeros(N);
        let spec = ParenSpec::new(t.ptr(), &dims, BASE);
        (t, spec)
    });
}
