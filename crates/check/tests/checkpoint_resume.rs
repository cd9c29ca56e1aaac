//! Fail-stop kill/resume exploration: on every explored schedule of the
//! managed CnC runtime, a job killed at a schedule-chosen point and
//! resumed from its [`Checkpoint`] re-executes only unproduced steps and
//! still converges bit-identically to the serial `loops` oracle.
//!
//! Each explored schedule drives *two* kill rounds — run `k1` steps,
//! checkpoint, tear the graph down (the fail-stop), resume on a fresh
//! graph, run `k2` more steps, checkpoint again, tear down again — and
//! then a final resumed run to quiescence. The scheduler picks both the
//! interleaving (via the managed picker) and the kill points (via
//! [`SharedScheduler::choose`]), so the corpus covers kills before any
//! work, kills mid-expansion, and kills after data production.
//!
//! The "only unproduced steps re-execute" claim is asserted exactly:
//! the final run's `steps_skipped` must equal the checkpoint's executed
//! count and `items_restored` its snapshot count — a resumed graph that
//! silently recomputed (or dropped) work fails the test even when the
//! table happens to match.
//!
//! The NonBlocking variant is exercised on seeded replays rather than
//! the full corpus: under the LIFO adversary its self-respawn polling
//! can re-pick the same starved tag forever (managed mode deliberately
//! ignores fairness hints), which is a scheduler-liveness property, not
//! a checkpointing one.

use recdp_check::{explore, replay, Config, SharedScheduler};
use recdp_cnc::{Checkpoint, CncGraph, GraphStats};
use recdp_kernels::engine::{register_cnc, run_cnc};
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{fw, ge, paren, sw, CncVariant, DpSpec, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 16;
const BASE: usize = 4;
const SEED: u64 = 0xD1CE;

/// Upper bound (exclusive) on the steps run before each kill. Small
/// enough that round 1 never completes the job (every benchmark here has
/// well over 24 steps at `N = 16`, `BASE = 4`), large enough that the
/// second round regularly reaches data-producing base steps.
const KILL_WINDOW: usize = 25;

/// Exploration budget: at least 32 seeded schedules per corpus (more if
/// `RECDP_CHECK_SCHEDULES` asks for it), on top of the FIFO/LIFO pair.
fn corpus() -> Config {
    let cfg = Config::from_env();
    let n = cfg.schedules.max(32);
    cfg.with_schedules(n)
}

const VARIANTS: [CncVariant; 3] = [CncVariant::Native, CncVariant::Tuner, CncVariant::Manual];

/// One kill → resume → kill → resume → quiesce cycle for `sp`, with the
/// interleaving and both kill points chosen by `s`. Returns the final
/// run's stats and the checkpoint it was resumed from.
fn killed_run<S: DpSpec>(
    s: &SharedScheduler,
    variant: CncVariant,
    sp: &S,
) -> (GraphStats, Checkpoint) {
    // Round 1: run up to KILL_WINDOW-1 managed steps, then fail-stop.
    let (g1, h1) = CncGraph::managed(s.pick_fn());
    register_cnc(sp, variant, &g1, None);
    for _ in 0..s.choose(KILL_WINDOW) {
        if !h1.run_one() {
            break;
        }
    }
    let cp1 = g1.checkpoint();
    drop((h1, g1));

    // Round 2: resume on a fresh graph (resume_from precedes the
    // re-registration — seeds must exist before any collection does),
    // run a second window, fail-stop again.
    let (g2, h2) = CncGraph::managed(s.pick_fn());
    g2.resume_from(&cp1);
    register_cnc(sp, variant, &g2, None);
    for _ in 0..s.choose(KILL_WINDOW) {
        if !h2.run_one() {
            break;
        }
    }
    let cp2 = g2.checkpoint();
    assert!(
        cp2.executed_steps() >= cp1.executed_steps(),
        "checkpoint progress must be monotone across resumes \
         ({} then {})",
        cp1.executed_steps(),
        cp2.executed_steps()
    );
    drop((h2, g2));

    // Final round: resume and run to quiescence.
    let (g3, _h3) = CncGraph::managed(s.pick_fn());
    g3.resume_from(&cp2);
    let stats = run_cnc(sp, variant, &g3, None)
        .unwrap_or_else(|e| panic!("resumed graph must quiesce: {e:?}"));
    (stats, cp2)
}

/// The generic kill/resume check. `fresh` builds the input table, `spec`
/// wraps it in the benchmark's [`DpSpec`], `loops` is the serial oracle.
/// The table digest is the explored observation (the kill points differ
/// per schedule, so the counters are asserted inline instead).
fn survives_kill_resume_across_schedules<S: DpSpec>(
    name: &str,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) {
    let mut oracle = fresh();
    loops(&mut oracle);
    let oracle_digest = oracle.bit_digest();
    for variant in VARIANTS {
        let skipped_total = AtomicU64::new(0);
        explore(&corpus(), |s| {
            let mut m = fresh();
            let sp = spec(&mut m);
            let (stats, cp) = killed_run(&s, variant, &sp);
            assert_eq!(
                stats.steps_skipped,
                cp.executed_steps() as u64,
                "{name}/{variant:?}: the resumed run must skip exactly \
                 the checkpointed steps"
            );
            assert_eq!(
                stats.items_restored,
                cp.items() as u64,
                "{name}/{variant:?}: the resumed run must restore exactly \
                 the checkpointed items"
            );
            assert_eq!(
                m.bit_digest(),
                oracle_digest,
                "{name}/{variant:?}: resumed table diverged from the \
                 serial-loops oracle"
            );
            skipped_total.fetch_add(stats.steps_skipped, Ordering::Relaxed);
            m.bit_digest()
        });
        assert!(
            skipped_total.load(Ordering::Relaxed) > 0,
            "{name}/{variant:?}: no explored schedule ever skipped a step \
             — the kill points never interrupted real work"
        );
    }
}

#[test]
fn ge_survives_kill_resume_across_schedules() {
    survives_kill_resume_across_schedules(
        "GE",
        &|| ge_matrix(N, SEED),
        &|m| ge::GeSpec::new(m.ptr(), BASE),
        &|m| ge::ge_loops(m),
    );
}

#[test]
fn sw_survives_kill_resume_across_schedules() {
    let a = dna_sequence(N, SEED);
    let b = dna_sequence(N, SEED ^ 0xFFFF);
    survives_kill_resume_across_schedules(
        "SW",
        &|| Matrix::zeros(N),
        &|m| sw::SwSpec::new(m.ptr(), &a, &b, BASE),
        &|m| sw::sw_loops(m, &a, &b),
    );
}

#[test]
fn fw_survives_kill_resume_across_schedules() {
    survives_kill_resume_across_schedules(
        "FW",
        &|| fw_matrix(N, SEED, 0.35),
        &|m| fw::FwSpec::new(m.ptr(), BASE),
        &|m| fw::fw_loops(m),
    );
}

#[test]
fn paren_survives_kill_resume_across_schedules() {
    let dims = chain_dims(N, SEED);
    survives_kill_resume_across_schedules(
        "PAREN",
        &|| Matrix::zeros(N),
        &|m| paren::ParenSpec::new(m.ptr(), &dims, BASE),
        &|m| paren::paren_loops(m, &dims),
    );
}

#[test]
fn nonblocking_kill_resume_replays_to_oracle() {
    let mut oracle = ge_matrix(N, SEED);
    ge::ge_loops(&mut oracle);
    let oracle_digest = oracle.bit_digest();
    for seed in [0x0001u64, 0xBEEF, 0x5EED_5EED] {
        replay(seed, |s| {
            let mut m = ge_matrix(N, SEED);
            let sp = ge::GeSpec::new(m.ptr(), BASE);
            let (stats, cp) = killed_run(&s, CncVariant::NonBlocking, &sp);
            assert_eq!(
                stats.steps_skipped,
                cp.executed_steps() as u64,
                "NonBlocking resume must skip exactly the checkpointed steps"
            );
            assert_eq!(
                stats.items_restored,
                cp.items() as u64,
                "NonBlocking resume must restore exactly the checkpointed items"
            );
            assert_eq!(
                m.bit_digest(),
                oracle_digest,
                "NonBlocking resumed table diverged from the oracle"
            );
        });
    }
}

#[test]
fn checkpoint_of_a_finished_run_resumes_to_a_pure_skip() {
    let mut oracle = ge_matrix(N, SEED);
    ge::ge_loops(&mut oracle);
    let oracle_digest = oracle.bit_digest();
    replay(0xF1DE, |s| {
        let mut m = ge_matrix(N, SEED);
        let sp = ge::GeSpec::new(m.ptr(), BASE);
        let (g1, _h1) = CncGraph::managed(s.pick_fn());
        run_cnc(&sp, CncVariant::Native, &g1, None).expect("first run must quiesce");
        let cp = g1.checkpoint();
        drop(g1);
        assert!(
            !cp.is_empty() && cp.executed_steps() > 0 && cp.items() > 0,
            "a finished run must checkpoint every data-producing step"
        );

        let (g2, _h2) = CncGraph::managed(s.pick_fn());
        g2.resume_from(&cp);
        let second = run_cnc(&sp, CncVariant::Native, &g2, None).expect("resumed run must quiesce");
        assert_eq!(
            second.steps_skipped,
            cp.executed_steps() as u64,
            "every data-producing step must be skipped on resume"
        );
        assert_eq!(
            second.items_put, 0,
            "a resume of a finished run must not recompute any data"
        );
        assert_eq!(second.items_restored, cp.items() as u64);
        assert_eq!(m.bit_digest(), oracle_digest);
    });
}
