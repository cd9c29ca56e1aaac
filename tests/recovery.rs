//! Fail-stop recovery coverage for the generic [`DpSpec`] engines on
//! all four benchmarks (GE, SW, FW, parenthesization).
//!
//! Three failure shapes, each proven against the serial-loops oracle:
//!
//! * **step panics under CnC** — a poisoned tile panics mid-run; the
//!   graph fail-fasts into a structured [`CncError::StepPanicked`]
//!   (never a hang), the dead graph is checkpointed, and a resumed
//!   graph finishes the job re-executing only unproduced steps. This
//!   is sound *because* items are single-assignment: every tile the
//!   checkpoint marks executed has its (only possible) value in the
//!   snapshot, so skipping it cannot change the table.
//! * **step panics under fork-join** — the same poisoned tile unwinds
//!   out of [`run_forkjoin`] as a propagated panic; a fresh disarmed
//!   run completes normally.
//! * **worker kills under fork-join** — seeded fail-stop kill times
//!   fell real worker threads mid-run; the supervisor requeues the
//!   dead worker's deque and (per [`RecoveryMode`]) respawns or
//!   degrades, and the table still matches the oracle bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use recdp_cnc::{CncError, CncGraph};
use recdp_forkjoin::{RecoveryMode, ThreadPoolBuilder};
use recdp_kernels::engine::{run_cnc, run_forkjoin};
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{fw, ge, paren, sw, Call, CncVariant, DpSpec, Matrix, TileKey};

const N: usize = 64;
const BASE: usize = 16;
const THREADS: usize = 3;
const SEED: u64 = 0xD1CE;

/// Wraps any spec so that one `poison` tile panics the first time it
/// runs (a fail-stop bad step), with an optional per-tile `slow` delay
/// to stretch the run past scheduled worker-kill times. The `armed`
/// flag is shared across clones, so exactly one execution panics no
/// matter which engine or worker reaches the tile first.
#[derive(Clone)]
struct PoisonTile<S: DpSpec> {
    inner: S,
    poison: Option<TileKey>,
    armed: Arc<AtomicBool>,
    slow: Duration,
}

impl<S: DpSpec> PoisonTile<S> {
    /// Poisons the tile of the middle entry of `manual_calls` — a tile
    /// deep enough that work exists both before and after the panic.
    fn mid(inner: S) -> Self {
        let calls = inner.manual_calls();
        let poison = inner.tile(&calls[calls.len() / 2]);
        PoisonTile {
            inner,
            poison: Some(poison),
            armed: Arc::new(AtomicBool::new(true)),
            slow: Duration::ZERO,
        }
    }

    /// No poison at all — just a per-tile delay, to keep the run alive
    /// long enough for scheduled worker kills to bite.
    fn slow(inner: S, delay: Duration) -> Self {
        PoisonTile {
            inner,
            poison: None,
            armed: Arc::new(AtomicBool::new(false)),
            slow: delay,
        }
    }
}

impl<S: DpSpec> DpSpec for PoisonTile<S> {
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
        if !self.slow.is_zero() {
            std::thread::sleep(self.slow);
        }
        if self.poison == Some(tile) && self.armed.swap(false, Ordering::SeqCst) {
            panic!("poisoned tile {tile:?}");
        }
        self.inner.run_tile(tile)
    }
}

/// CnC engine: the poisoned run fail-fasts into `StepPanicked`, the
/// dead graph checkpoints, and the resumed (now disarmed) run finishes
/// with exactly the checkpointed steps skipped.
fn cnc_panic_then_checkpoint_resume<S: DpSpec>(
    name: &str,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) {
    let mut oracle = fresh();
    loops(&mut oracle);

    let mut m = fresh();
    let sp = PoisonTile::mid(spec(&mut m));
    let graph = CncGraph::with_threads(THREADS);
    match run_cnc(&sp, CncVariant::Native, &graph, None) {
        Err(CncError::StepPanicked(msg)) => {
            assert!(msg.contains("poisoned tile"), "{name}: {msg}");
        }
        other => panic!("{name}: expected StepPanicked, got {other:?}"),
    }
    let cp = graph.checkpoint();
    drop(graph);

    // The poison disarmed itself on the panicking execution; resume the
    // same program (same wrapped spec, same table) on a fresh graph.
    let resumed = CncGraph::with_threads(THREADS);
    resumed.resume_from(&cp);
    let stats = run_cnc(&sp, CncVariant::Native, &resumed, None)
        .unwrap_or_else(|e| panic!("{name}: resumed run must complete: {e:?}"));
    assert_eq!(
        stats.steps_skipped,
        cp.executed_steps() as u64,
        "{name}: resume must skip exactly the checkpointed steps"
    );
    assert_eq!(stats.items_restored, cp.items() as u64, "{name}");
    assert!(
        m.bitwise_eq(&oracle),
        "{name}: resumed table diverged from the serial-loops oracle"
    );
}

/// Fork-join engine: the poisoned tile's panic propagates out of the
/// pool (never a hang), and a disarmed rerun on a fresh table matches
/// the oracle.
fn forkjoin_panic_propagates<S: DpSpec>(
    name: &str,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) {
    let mut oracle = fresh();
    loops(&mut oracle);

    let pool = ThreadPoolBuilder::new().num_threads(THREADS).build();
    let mut m = fresh();
    let sp = PoisonTile::mid(spec(&mut m));
    let unwound = catch_unwind(AssertUnwindSafe(|| run_forkjoin(&sp, &pool, 1, None, None)));
    assert!(unwound.is_err(), "{name}: tile panic must propagate");

    // Kernels mutate tiles in place, so the half-written table is not
    // restartable; a *fresh* table with the (disarmed) spec completes.
    let mut m2 = fresh();
    let sp2 = PoisonTile {
        inner: spec(&mut m2),
        ..sp.clone()
    };
    run_forkjoin(&sp2, &pool, 1, None, None);
    assert!(m2.bitwise_eq(&oracle), "{name}: disarmed rerun diverged");
}

/// Fork-join engine under scheduled worker kills: per-tile delays keep
/// the job alive past both kill times, dead workers' deques are
/// requeued, and the table still matches the oracle. Respawn restores
/// the pool's width; degrade shrinks it.
fn forkjoin_kills_preserve_results<S: DpSpec>(
    name: &str,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) {
    let mut oracle = fresh();
    loops(&mut oracle);
    for mode in [RecoveryMode::Respawn, RecoveryMode::Degrade] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(THREADS)
            .worker_kill_schedule(vec![50_000, 300_000])
            .recovery_mode(mode)
            .build();
        let mut m = fresh();
        let sp = PoisonTile::slow(spec(&mut m), Duration::from_micros(100));
        run_forkjoin(&sp, &pool, 1, None, None);
        assert!(
            m.bitwise_eq(&oracle),
            "{name}/{mode:?}: table diverged after worker kills"
        );
        assert!(
            pool.worker_deaths() >= 1,
            "{name}/{mode:?}: the kill schedule never bit"
        );
        match mode {
            RecoveryMode::Respawn => {
                assert_eq!(pool.worker_respawns(), pool.worker_deaths(), "{name}");
                assert_eq!(pool.alive_workers(), THREADS, "{name}");
            }
            RecoveryMode::Degrade => {
                assert_eq!(pool.worker_respawns(), 0, "{name}");
                assert_eq!(
                    pool.alive_workers(),
                    THREADS - pool.worker_deaths(),
                    "{name}"
                );
            }
        }
    }
}

/// Runs all three failure shapes for one benchmark.
fn full_recovery_suite<S: DpSpec>(
    name: &str,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) {
    cnc_panic_then_checkpoint_resume(name, fresh, spec, loops);
    forkjoin_panic_propagates(name, fresh, spec, loops);
    forkjoin_kills_preserve_results(name, fresh, spec, loops);
}

#[test]
fn ge_recovers_from_panics_and_worker_kills() {
    full_recovery_suite(
        "GE",
        &|| ge_matrix(N, SEED),
        &|m| ge::GeSpec::new(m.ptr(), BASE),
        &|m| ge::ge_loops(m),
    );
}

#[test]
fn sw_recovers_from_panics_and_worker_kills() {
    let a = dna_sequence(N, SEED);
    let b = dna_sequence(N, SEED ^ 0xFFFF);
    full_recovery_suite(
        "SW",
        &|| Matrix::zeros(N),
        &|m| sw::SwSpec::new(m.ptr(), &a, &b, BASE),
        &|m| sw::sw_loops(m, &a, &b),
    );
}

#[test]
fn fw_recovers_from_panics_and_worker_kills() {
    full_recovery_suite(
        "FW",
        &|| fw_matrix(N, SEED, 0.35),
        &|m| fw::FwSpec::new(m.ptr(), BASE),
        &|m| fw::fw_loops(m),
    );
}

#[test]
fn paren_recovers_from_panics_and_worker_kills() {
    // The parenthesization spec's tiles read Θ(t) other tiles (the
    // full i-k / k-j chains), so a requeued tile task exercises the
    // longest dependency re-checks of the four benchmarks.
    let dims = chain_dims(N, SEED);
    full_recovery_suite(
        "PAREN",
        &|| Matrix::zeros(N),
        &|m| paren::ParenSpec::new(m.ptr(), &dims, BASE),
        &|m| paren::paren_loops(m, &dims),
    );
}
