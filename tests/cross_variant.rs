//! Cross-crate equivalence: every execution model must produce the
//! bitwise-identical DP table for every benchmark, across problem
//! shapes, base sizes and worker counts.

use proptest::prelude::*;
use recdp_kernels::{CncVariant, Decomposition};
use recdp_suite::{execute, run_benchmark, Benchmark, Execution, Run};

const ALL_EXECUTIONS: [Execution; 5] = [
    Execution::SerialRdp,
    Execution::ForkJoin,
    Execution::Cnc(CncVariant::Native),
    Execution::Cnc(CncVariant::Tuner),
    Execution::Cnc(CncVariant::Manual),
];

#[test]
fn all_models_agree_at_moderate_size() {
    for benchmark in Benchmark::EXTENDED {
        let oracle = run_benchmark(benchmark, Execution::SerialLoops, 128, 16, 4);
        for execution in ALL_EXECUTIONS {
            let out = run_benchmark(benchmark, execution, 128, 16, 4);
            assert!(
                out.table.bitwise_eq(&oracle.table),
                "{} under {}",
                benchmark.name(),
                execution.label()
            );
        }
    }
}

#[test]
fn extreme_base_sizes() {
    for benchmark in Benchmark::EXTENDED {
        // base == n (single tile) and base == 1/2/4 (deep recursion).
        for (n, base) in [(64, 64), (64, 2), (32, 4)] {
            let oracle = run_benchmark(benchmark, Execution::SerialLoops, n, base, 2);
            for execution in ALL_EXECUTIONS {
                let out = run_benchmark(benchmark, execution, n, base, 2);
                assert!(
                    out.table.bitwise_eq(&oracle.table),
                    "{} under {} at n={n} base={base}",
                    benchmark.name(),
                    execution.label()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes and thread counts: the equivalence is not an
    /// artifact of one lucky configuration.
    #[test]
    fn random_shapes_agree(
        n_exp in 5usize..8,          // n in {32, 64, 128}
        base_exp in 2usize..5,       // base in {4, 8, 16}
        threads in 1usize..5,
        bench_idx in 0usize..5,
        r_exp in 1usize..4,        // decomposition width in {2, 4, 8}
    ) {
        let n = 1 << n_exp;
        let base = 1 << base_exp.min(n_exp);
        let benchmark = Benchmark::EXTENDED[bench_idx];
        let oracle = run_benchmark(benchmark, Execution::SerialLoops, n, base, threads);
        let decomposition = Decomposition::new(1 << r_exp as u32);
        for execution in [
            Execution::ForkJoin,
            Execution::Cnc(CncVariant::Native),
            Execution::Cnc(CncVariant::Manual),
        ] {
            let out = execute(&Run {
                decomposition,
                ..Run::new(benchmark, execution, n, base, threads)
            })
            .expect("fault-free runs succeed");
            prop_assert!(
                out.table.bitwise_eq(&oracle.table),
                "{} under {} at n={} base={} threads={} r={}",
                benchmark.name(), execution.label(), n, base, threads, decomposition.r()
            );
        }
    }
}
