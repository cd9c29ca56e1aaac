//! Determinism: CnC's dynamic single assignment makes the data-flow
//! programs deterministic (the property Budimlic et al. prove and the
//! paper leans on for debuggability); our runtimes must honour it
//! regardless of scheduling nondeterminism.

use recdp_kernels::{CncVariant, Decomposition};
use recdp_suite::{execute, run_benchmark, Benchmark, Execution, Run};

#[test]
fn cnc_output_independent_of_thread_count() {
    for benchmark in Benchmark::EXTENDED {
        let reference = run_benchmark(benchmark, Execution::Cnc(CncVariant::Native), 64, 8, 1);
        for threads in [2usize, 3, 4, 8] {
            let out = run_benchmark(
                benchmark,
                Execution::Cnc(CncVariant::Native),
                64,
                8,
                threads,
            );
            assert!(
                out.table.bitwise_eq(&reference.table),
                "{} at {} threads",
                benchmark.name(),
                threads
            );
        }
    }
}

#[test]
fn forkjoin_output_independent_of_thread_count() {
    for benchmark in Benchmark::EXTENDED {
        let reference = run_benchmark(benchmark, Execution::ForkJoin, 64, 8, 1);
        for threads in [2usize, 4, 8] {
            let out = run_benchmark(benchmark, Execution::ForkJoin, 64, 8, threads);
            assert!(
                out.table.bitwise_eq(&reference.table),
                "{} at {} threads",
                benchmark.name(),
                threads
            );
        }
    }
}

#[test]
fn repeated_runs_are_stable() {
    // Scheduling noise across runs (steal order, requeue order) must not
    // leak into results.
    let first = run_benchmark(Benchmark::Ge, Execution::Cnc(CncVariant::Native), 64, 16, 4);
    for _ in 0..5 {
        let again = run_benchmark(Benchmark::Ge, Execution::Cnc(CncVariant::Native), 64, 16, 4);
        assert!(again.table.bitwise_eq(&first.table));
    }
}

#[test]
fn variants_agree_with_each_other() {
    for benchmark in Benchmark::EXTENDED {
        let native = run_benchmark(benchmark, Execution::Cnc(CncVariant::Native), 64, 16, 3);
        for variant in [CncVariant::Tuner, CncVariant::Manual] {
            let out = run_benchmark(benchmark, Execution::Cnc(variant), 64, 16, 3);
            assert!(out.table.bitwise_eq(&native.table), "{}", benchmark.name());
        }
    }
}

#[test]
fn completed_base_tasks_match_theory() {
    // Native GE at n=64, base=8 (t=8): the tag expansion must create
    // exactly t(t+1)(2t+1)/6 = 204 base tasks, each putting one item.
    let out = run_benchmark(Benchmark::Ge, Execution::Cnc(CncVariant::Native), 64, 8, 4);
    let stats = out.cnc_stats.expect("cnc stats");
    assert_eq!(stats.items_put, 204);
    // FW: full cube 8^3 = 512.
    let out = run_benchmark(Benchmark::Fw, Execution::Cnc(CncVariant::Native), 64, 8, 4);
    assert_eq!(out.cnc_stats.expect("cnc stats").items_put, 512);
    // SW: 8^2 = 64 tiles.
    let out = run_benchmark(Benchmark::Sw, Execution::Cnc(CncVariant::Native), 64, 8, 4);
    assert_eq!(out.cnc_stats.expect("cnc stats").items_put, 64);
    // Parenthesization: upper triangle, t(t+1)/2 = 36 tiles.
    let out = run_benchmark(
        Benchmark::Paren,
        Execution::Cnc(CncVariant::Native),
        64,
        8,
        4,
    );
    assert_eq!(out.cnc_stats.expect("cnc stats").items_put, 36);
    // LCS shares SW's wavefront: 8^2 = 64 tiles.
    let out = run_benchmark(Benchmark::Lcs, Execution::Cnc(CncVariant::Native), 64, 8, 4);
    assert_eq!(out.cnc_stats.expect("cnc stats").items_put, 64);
}

#[test]
fn output_independent_of_decomposition_width() {
    // The decomposition reshapes the recursion tree (and with it the
    // fork-join schedule), never the per-cell arithmetic: at every
    // width the output must stay bitwise-identical to the r = 2 run,
    // under both the fork-join and the data-flow engine.
    for benchmark in Benchmark::EXTENDED {
        for execution in [Execution::ForkJoin, Execution::Cnc(CncVariant::Native)] {
            let reference = run_benchmark(benchmark, execution, 64, 8, 3);
            for r in [4u32, 8] {
                let out = execute(&Run {
                    decomposition: Decomposition::new(r),
                    ..Run::new(benchmark, execution, 64, 8, 3)
                })
                .expect("fault-free runs succeed");
                assert!(
                    out.table.bitwise_eq(&reference.table),
                    "{} r={r} {:?}",
                    benchmark.name(),
                    execution
                );
            }
        }
    }
}
