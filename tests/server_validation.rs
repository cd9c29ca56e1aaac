//! Submission-time validation of the job server: geometry the kernels
//! would reject is refused at the door as a structured
//! [`SubmitError::InvalidSpec`] — it used to reach a runner and
//! surface as an opaque `JobError::Panicked` from a kernel `assert!`
//! deep inside the run. The pool must be untouched by refusals, and
//! autotuned jobs ([`JobSpec::benchmark_tuned`]) must digest-match
//! explicit-base runs.

use recdp::{auto_base, run_benchmark, Benchmark, Execution};
use recdp_kernels::{CncVariant, Decomposition};
use recdp_server::{
    BatchMode, DpServer, JobSpec, ServerConfig, SpecViolation, SubmitError, SwQuery,
};

const THREADS: usize = 2;

fn server() -> DpServer {
    DpServer::new(ServerConfig {
        threads: THREADS,
        queue_depth: 64,
        max_inflight: 1,
        paused: false,
        trace_utilization: false,
    })
}

fn expect_invalid(result: Result<recdp_server::JobHandle, SubmitError>) -> SpecViolation {
    match result {
        Err(SubmitError::InvalidSpec(v)) => v,
        Ok(_) => panic!("bad spec was admitted"),
        Err(other) => panic!("wrong refusal: {other}"),
    }
}

#[test]
fn bad_geometry_is_refused_at_submit_and_pool_survives() {
    let server = server();
    let cnc = Execution::Cnc(CncVariant::Native);

    // Non-power-of-two table side (the original panic path: 48 passes
    // no submission check and trips `check_rdp_sizes` on a runner).
    let v = expect_invalid(server.submit(JobSpec::benchmark("t", Benchmark::Ge, cnc, 48, 8)));
    assert_eq!(v, SpecViolation::NonPowerOfTwoSize { n: 48 });

    // Non-power-of-two base.
    let v = expect_invalid(server.submit(JobSpec::benchmark("t", Benchmark::Fw, cnc, 32, 12)));
    assert_eq!(v, SpecViolation::NonPowerOfTwoBase { base: 12 });

    // Base exceeding the table side.
    let v = expect_invalid(server.submit(JobSpec::benchmark("t", Benchmark::Sw, cnc, 32, 64)));
    assert_eq!(v, SpecViolation::BaseExceedsSize { n: 32, base: 64 });

    // Batch query whose sequences cannot cover its table.
    let v = expect_invalid(server.submit(JobSpec::sw_batch(
        "t",
        vec![SwQuery {
            a: vec![b'A'; 16],
            b: vec![b'C'; 32],
            n: 32,
            base: 8,
        }],
        BatchMode::Coalesced,
        CncVariant::Native,
    )));
    assert_eq!(v, SpecViolation::SequenceTooShort { len: 16, n: 32 });

    // Nothing was queued, every refusal was accounted, and the pool is
    // fully alive: the next (valid) job runs and is bit-exact.
    assert_eq!(server.queue_len(), 0);
    assert_eq!(server.tenant_stats("t").unwrap().rejected, 4);
    assert_eq!(server.alive_workers(), THREADS);
    let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 32, 8, 1);
    let result = server
        .submit(JobSpec::benchmark("t", Benchmark::Ge, cnc, 32, 8))
        .expect("valid job must be admitted after refusals")
        .wait()
        .expect("valid job must run");
    assert_eq!(result.digests, vec![oracle.table.bit_digest()]);
    assert_eq!(server.tenant_stats("t").unwrap().completed, 1);
    server.shutdown();
}

#[test]
fn bad_decomposition_widths_are_refused_at_submit_and_pool_survives() {
    let server = server();
    let fj = Execution::ForkJoin;

    // r = 3: not a power of two — the kernels' `Decomposition::new`
    // would panic on a runner thread; the server refuses at the door.
    let v =
        expect_invalid(server.submit(JobSpec::benchmark_rway("t", Benchmark::Ge, fj, 32, 8, 3)));
    assert_eq!(v, SpecViolation::NonPowerOfTwoDecomposition { r: 3 });

    // r = 1 degenerates to no split at all (infinite recursion).
    let v =
        expect_invalid(server.submit(JobSpec::benchmark_rway("t", Benchmark::Sw, fj, 32, 8, 1)));
    assert_eq!(v, SpecViolation::NonPowerOfTwoDecomposition { r: 1 });

    // r = 64 on a 4-tile grid: the root split cannot be 64-wide.
    let v =
        expect_invalid(server.submit(JobSpec::benchmark_rway("t", Benchmark::Fw, fj, 32, 8, 64)));
    assert_eq!(
        v,
        SpecViolation::DecompositionExceedsTiles { r: 64, tiles: 4 }
    );

    // r = 4 on an 8-tile grid: 8 is not a power of 4, so one recursion
    // level would clamp and the taskgraph model no longer applies; the
    // server only admits the aligned case.
    let v =
        expect_invalid(server.submit(JobSpec::benchmark_rway("t", Benchmark::Lcs, fj, 32, 4, 4)));
    assert_eq!(v, SpecViolation::DecompositionMisaligned { r: 4, tiles: 8 });

    // Nothing was queued, every refusal was accounted, and the pool is
    // fully alive: a valid r = 4 job runs and is bit-exact.
    assert_eq!(server.queue_len(), 0);
    assert_eq!(server.tenant_stats("t").unwrap().rejected, 4);
    assert_eq!(server.alive_workers(), THREADS);
    let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 32, 2, 1);
    let result = server
        .submit(JobSpec::benchmark_rway("t", Benchmark::Ge, fj, 32, 2, 4))
        .expect("an aligned width must be admitted after refusals")
        .wait()
        .expect("valid r-way job must run");
    assert_eq!(result.digests, vec![oracle.table.bit_digest()]);
    assert_eq!(server.tenant_stats("t").unwrap().completed, 1);
    server.shutdown();
}

#[test]
fn auto_base_jobs_accept_any_power_of_two_width() {
    // With AUTO_BASE the tile grid is unknown at submit time; the grid
    // checks are deferred to dispatch, where `auto_base` clamps
    // the tuned base so the root split stays genuinely r-wide.
    let server = server();
    let mut spec = JobSpec::benchmark_tuned("t", Benchmark::Ge, Execution::ForkJoin, 64);
    if let recdp_server::JobPayload::Benchmark { decomposition, .. } = &mut spec.payload {
        *decomposition = 8;
    }
    let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 64, 8, 1);
    let result = server
        .submit(spec)
        .expect("AUTO_BASE with a power-of-two width is admissible")
        .wait()
        .expect("tuned r-way job must run");
    assert_eq!(result.digests, vec![oracle.table.bit_digest()]);
    server.shutdown();
}

#[test]
fn zero_n_is_invalid_but_auto_base_is_not() {
    let server = server();
    // n = 0 is caught as a size violation (0 is not a power of two)...
    let v = expect_invalid(server.submit(JobSpec::benchmark(
        "t",
        Benchmark::Ge,
        Execution::SerialRdp,
        0,
        8,
    )));
    assert_eq!(v, SpecViolation::NonPowerOfTwoSize { n: 0 });
    // ...while base = 0 is AUTO_BASE, which is always admissible.
    let handle = server
        .submit(JobSpec::benchmark_tuned(
            "t",
            Benchmark::Ge,
            Execution::SerialRdp,
            32,
        ))
        .expect("AUTO_BASE is a valid base");
    assert!(handle.wait().is_ok());
    server.shutdown();
}

#[test]
fn tuned_jobs_digest_match_explicit_base_runs() {
    let server = server();
    let n = 32;
    for benchmark in Benchmark::EXTENDED {
        let oracle = run_benchmark(benchmark, Execution::SerialLoops, n, 8, 1);
        let tuned = server
            .submit(JobSpec::benchmark_tuned(
                "t",
                benchmark,
                Execution::Cnc(CncVariant::Tuner),
                n,
            ))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            tuned.digests,
            vec![oracle.table.bit_digest()],
            "{}: tuned (base {}) vs explicit",
            benchmark.name(),
            auto_base(benchmark, n, Decomposition::BINARY)
        );
    }
    server.shutdown();
}
