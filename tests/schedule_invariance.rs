//! Schedule invariance of the DP kernels: on every explored schedule of
//! the managed CnC runtime, the final DP table is bit-identical to the
//! serial `loops` oracle and the replay-stable counter projection is
//! identical across schedules.
//!
//! The harness is generic over [`DpSpec`], so each benchmark is one
//! call site handing the engine its spec — GE, SW, FW and the
//! parenthesization extension all run through the same check.
//!
//! Exploration is driven by `recdp-check` (no proptest — the corpus is
//! seeded, and any failure prints a `RECDP_CHECK_SEED` replay recipe).
//! The NonBlocking variant is deliberately excluded: its self-respawn
//! polling makes even `tags_put` schedule-dependent (that wasted work is
//! what Table I measures), so it has no invariant counter projection.

use recdp_check::{explore, replay_stable, Config, ReplayStats, SharedScheduler};
use recdp_cnc::{CncGraph, RetryPolicy};
use recdp_faults::FaultPlan;
use recdp_kernels::engine::run_cnc;
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{fw, ge, lcs, paren, sw, CncVariant, Decomposition, DpSpec, Matrix};
use std::sync::Arc;

const N: usize = 16;
const BASE: usize = 4;
const SEED: u64 = 0xD1CE;

/// Exploration budget: at least 32 seeded schedules per corpus (more if
/// `RECDP_CHECK_SCHEDULES` asks for it), on top of the FIFO/LIFO pair.
fn corpus() -> Config {
    let cfg = Config::from_env();
    let n = cfg.schedules.max(32);
    cfg.with_schedules(n)
}

const VARIANTS: [CncVariant; 3] = [CncVariant::Native, CncVariant::Tuner, CncVariant::Manual];

fn managed(sched: &SharedScheduler) -> CncGraph {
    let (graph, _handle) = CncGraph::managed(sched.pick_fn());
    graph
}

/// The generic invariance check. `fresh` builds the input table, `spec`
/// wraps it in the benchmark's [`DpSpec`], `loops` is the serial oracle.
/// Every blocking variant must reproduce the oracle bit for bit on every
/// explored schedule, with a schedule-independent counter projection.
fn invariant_across_schedules<S: DpSpec>(
    name: &str,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) {
    let mut oracle = fresh();
    loops(&mut oracle);
    let oracle_digest = oracle.bit_digest();
    for variant in VARIANTS {
        explore(&corpus(), |s| {
            let mut m = fresh();
            let sp = spec(&mut m);
            let graph = managed(&s);
            let stats = run_cnc(&sp, variant, &graph, None).unwrap_or_else(|e| {
                panic!("{name}/{variant:?} must quiesce on every schedule: {e:?}")
            });
            assert_eq!(
                m.bit_digest(),
                oracle_digest,
                "{name}/{variant:?} table diverged from the serial-loops oracle"
            );
            (m.bit_digest(), replay_stable(&stats))
        });
    }
}

/// The generic fault-absorption check: a fixed reseeded fault plan rides
/// along with every schedule. Transient-fault decisions key on
/// `(step, tag, attempt)`, so `faults_injected`/`steps_retried` join the
/// invariant observation, and the retried table still matches the oracle
/// bit for bit.
fn faults_absorbed_across_schedules<S: DpSpec>(
    name: &str,
    fault_seed: u64,
    fresh: &dyn Fn() -> Matrix,
    spec: &dyn Fn(&mut Matrix) -> S,
    loops: &dyn Fn(&mut Matrix),
) -> ReplayStats {
    let mut oracle = fresh();
    loops(&mut oracle);
    let oracle_digest = oracle.bit_digest();
    let template = FaultPlan::new(0).transient_step_failures(0.25);
    explore(&corpus(), |s| {
        let mut m = fresh();
        let sp = spec(&mut m);
        let graph = managed(&s);
        graph.set_retry_policy(RetryPolicy::attempts(10));
        graph.set_fault_injector(Arc::new(template.reseeded(fault_seed)));
        let stats = run_cnc(&sp, CncVariant::Native, &graph, None).unwrap_or_else(|e| {
            panic!("{name}: retries must absorb the fault plan on every schedule: {e:?}")
        });
        assert_eq!(
            m.bit_digest(),
            oracle_digest,
            "faulty {name} diverged from oracle"
        );
        replay_stable(&stats)
    })
}

#[test]
fn ge_table_and_stats_invariant_across_schedules() {
    invariant_across_schedules(
        "GE",
        &|| ge_matrix(N, SEED),
        &|m| ge::GeSpec::new(m.ptr(), BASE),
        &|m| ge::ge_loops(m),
    );
}

#[test]
fn sw_table_and_stats_invariant_across_schedules() {
    let a = dna_sequence(N, SEED);
    let b = dna_sequence(N, SEED ^ 0xFFFF);
    invariant_across_schedules(
        "SW",
        &|| Matrix::zeros(N),
        &|m| sw::SwSpec::new(m.ptr(), &a, &b, BASE),
        &|m| sw::sw_loops(m, &a, &b),
    );
}

#[test]
fn fw_table_and_stats_invariant_across_schedules() {
    invariant_across_schedules(
        "FW",
        &|| fw_matrix(N, SEED, 0.35),
        &|m| fw::FwSpec::new(m.ptr(), BASE),
        &|m| fw::fw_loops(m),
    );
}

#[test]
fn paren_table_and_stats_invariant_across_schedules() {
    let dims = chain_dims(N, SEED);
    invariant_across_schedules(
        "PAREN",
        &|| Matrix::zeros(N),
        &|m| paren::ParenSpec::new(m.ptr(), &dims, BASE),
        &|m| paren::paren_loops(m, &dims),
    );
}

#[test]
fn lcs_table_and_stats_invariant_across_schedules() {
    let a = dna_sequence(N, SEED ^ 0x7C5);
    let b = dna_sequence(N, SEED ^ 0x3A7);
    invariant_across_schedules(
        "LCS",
        &|| Matrix::zeros(N),
        &|m| lcs::LcsSpec::new(m.ptr(), &a, &b, BASE),
        &|m| lcs::lcs_loops(m, &a, &b),
    );
}

#[test]
fn four_way_decomposition_invariant_across_schedules() {
    // The r-way expansion only regroups the tag puts (the CnC engine
    // flattens the stages eagerly), so at r = 4 — the widest aligned
    // radix of the t = 4 tile grid — every benchmark must preserve both
    // the oracle digest and the replay-stable counters on all >= 32
    // explored schedules.
    let d = Decomposition::new(4);
    invariant_across_schedules(
        "GE/r4",
        &|| ge_matrix(N, SEED),
        &|m| ge::GeSpec::new(m.ptr(), BASE).with_decomposition(d),
        &|m| ge::ge_loops(m),
    );
    invariant_across_schedules(
        "FW/r4",
        &|| fw_matrix(N, SEED, 0.35),
        &|m| fw::FwSpec::new(m.ptr(), BASE).with_decomposition(d),
        &|m| fw::fw_loops(m),
    );
    let a = dna_sequence(N, SEED);
    let b = dna_sequence(N, SEED ^ 0xFFFF);
    invariant_across_schedules(
        "SW/r4",
        &|| Matrix::zeros(N),
        &|m| sw::SwSpec::new(m.ptr(), &a, &b, BASE).with_decomposition(d),
        &|m| sw::sw_loops(m, &a, &b),
    );
    invariant_across_schedules(
        "LCS/r4",
        &|| Matrix::zeros(N),
        &|m| lcs::LcsSpec::new(m.ptr(), &a, &b, BASE).with_decomposition(d),
        &|m| lcs::lcs_loops(m, &a, &b),
    );
    let dims = chain_dims(N, SEED);
    invariant_across_schedules(
        "PAREN/r4",
        &|| Matrix::zeros(N),
        &|m| paren::ParenSpec::new(m.ptr(), &dims, BASE).with_decomposition(d),
        &|m| paren::paren_loops(m, &dims),
    );
}

#[test]
fn ge_under_faults_stays_invariant_across_schedules() {
    let stable = faults_absorbed_across_schedules(
        "GE",
        0xFA57,
        &|| ge_matrix(N, SEED),
        &|m| ge::GeSpec::new(m.ptr(), BASE),
        &|m| ge::ge_loops(m),
    );
    assert!(
        stable.faults_injected > 0,
        "the fault plan injected nothing"
    );
}

#[test]
fn paren_under_faults_stays_invariant_across_schedules() {
    let dims = chain_dims(N, SEED);
    let stable = faults_absorbed_across_schedules(
        "PAREN",
        0x9A27,
        &|| Matrix::zeros(N),
        &|m| paren::ParenSpec::new(m.ptr(), &dims, BASE),
        &|m| paren::paren_loops(m, &dims),
    );
    assert!(
        stable.faults_injected > 0,
        "the fault plan injected nothing"
    );
}
