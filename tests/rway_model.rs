//! Cross-validation of the `recdp-taskgraph` r-way join model against
//! the real fork-join engine.
//!
//! The model (`recdp_taskgraph::rway::{ge,fw,sw}_join_count`) predicts
//! the number of *forked stage barriers* — the `taskwait`s of the
//! paper's Listing 3 — from the stage recursions alone, written with no
//! reference to the engine's code. The engine reports the same quantity
//! two independent ways: `forkjoin_join_count` statically walks the
//! spec's `expand` tree, and a fork-join run with `RunEnv::count_joins`
//! increments an atomic at every barrier the pool actually executes. All three must
//! agree *exactly*, at every decomposition width and fork grain; any
//! drift means the model and the implementation no longer describe the
//! same algorithm.
//!
//! `n = 64` with `base = 1` gives `t = 64` tiles per side — a power of
//! 2, 4 and 8 simultaneously — so every width recurses at full radix
//! with no clamped tail level (the aligned case the model predicts).

use recdp::prelude::*;
use recdp_taskgraph::rway;

const N: usize = 64;
const BASE: usize = 1; // t = 64 tiles

/// Runs `p` under fork-join and returns the joins executed at `grain`.
fn counted_joins(p: &mut PreparedJob, pool: &ThreadPool, grain: usize) -> u64 {
    let env = RunEnv {
        pool: Some(pool),
        count_joins: Some(grain),
        ..RunEnv::default()
    };
    let ran = p.run(Execution::ForkJoin, env);
    let joins = ran.expect("fork-join runs are infallible").joins;
    joins.expect("asked for the join count")
}

fn model_joins(benchmark: Benchmark, t: usize, r: usize, grain: usize) -> Option<u64> {
    match benchmark {
        Benchmark::Ge => Some(rway::ge_join_count(t, r, grain)),
        Benchmark::Fw => Some(rway::fw_join_count(t, r, grain)),
        // LCS shares SW's wavefront recursion, hence SW's join model.
        Benchmark::Sw | Benchmark::Lcs => Some(rway::sw_join_count(t, r, grain)),
        // Paren's triangle/square recursion has no closed model yet;
        // it is still covered by the measured == walked assertion.
        Benchmark::Paren => None,
    }
}

#[test]
fn measured_joins_match_static_walk_and_rway_model() {
    let pool = ThreadPoolBuilder::new().num_threads(3).build();
    let t = N / BASE;
    for benchmark in Benchmark::EXTENDED {
        for r in [2usize, 4, 8] {
            for grain in [1usize, 4] {
                let mut p = prepare_job_with(benchmark, N, BASE, Decomposition::new(r as u32));
                let measured = counted_joins(&mut p, &pool, grain);
                let walked = p.forkjoin_join_count(grain);
                assert_eq!(
                    measured,
                    walked,
                    "{} r={r} grain={grain}: engine vs static walk",
                    benchmark.name()
                );
                if let Some(model) = model_joins(benchmark, t, r, grain) {
                    assert_eq!(
                        measured,
                        model,
                        "{} r={r} grain={grain}: engine vs taskgraph model",
                        benchmark.name()
                    );
                }
            }
        }
    }
}

#[test]
fn join_counts_decrease_strictly_in_r_for_ge_and_fw() {
    // The tentpole's headline claim, on the real engine: widening the
    // decomposition strictly reduces the artificial-dependency count
    // for the pivot-round benchmarks. (SW/LCS tie at r = 2 vs 4 — see
    // the closed form in the taskgraph rway tests.)
    let pool = ThreadPoolBuilder::new().num_threads(3).build();
    for benchmark in [Benchmark::Ge, Benchmark::Fw] {
        let mut last = u64::MAX;
        for r in [2u32, 4, 8] {
            let mut p = prepare_job_with(benchmark, N, BASE, Decomposition::new(r));
            let joins = counted_joins(&mut p, &pool, 1);
            assert!(
                joins < last,
                "{} r={r}: {joins} must be below {last}",
                benchmark.name()
            );
            last = joins;
        }
    }
}

#[test]
fn counting_run_produces_the_oracle_table() {
    // The instrumented fork-join run is still the real computation:
    // its output must stay bitwise-identical to the serial loop oracle
    // at every width.
    let pool = ThreadPoolBuilder::new().num_threads(3).build();
    for benchmark in Benchmark::EXTENDED {
        let oracle = run_benchmark(benchmark, Execution::SerialLoops, N, 4, 1);
        for r in [2u32, 4, 8] {
            let mut p = prepare_job_with(benchmark, N, 4, Decomposition::new(r));
            counted_joins(&mut p, &pool, 2);
            assert!(
                p.table().bitwise_eq(&oracle.table),
                "{} r={r}",
                benchmark.name()
            );
        }
    }
}
