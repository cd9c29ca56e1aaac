//! Chaos suite: seeded fault plans against the real kernels on the real
//! CnC runtime.
//!
//! The contract under test is the resilience story end to end:
//!
//! * **correctness under chaos** — with a retry budget armed, every
//!   GE/SW/FW CnC variant absorbs seeded transient step failures and
//!   produces a table *bit-identical* to the fault-free oracle (faults
//!   are injected before the step body, so retries are idempotent);
//! * **structured failure, never a hang** — an exhausted retry budget, a
//!   deadline expiry and a cancellation each surface as the matching
//!   [`CncError`] variant;
//! * **actionable deadlock reports** — a dropped put turns into a
//!   deadlock diagnostic naming the blocked step and the exact
//!   collection/key it is parked on.
//!
//! Every scenario is replayable from the `u64` seed in its `FaultPlan`.

use std::sync::Arc;
use std::time::Duration;

use recdp::{execute, Benchmark, Execution, RecoveryPolicy, ResilienceOptions, Run};
use recdp_cnc::{CncError, CncGraph, RetryPolicy, StepOutcome};
use recdp_faults::FaultPlan;
use recdp_forkjoin::{RecoveryMode, ThreadPoolBuilder};
use recdp_kernels::workloads::{dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{fw, ge, sw, CncVariant, Matrix};

const N: usize = 64;
const BASE: usize = 16;
const THREADS: usize = 3;

fn chaos_graph(plan: FaultPlan, attempts: u32) -> CncGraph {
    let graph = CncGraph::with_threads(THREADS);
    graph.set_retry_policy(RetryPolicy::attempts(attempts));
    graph.set_fault_injector(Arc::new(plan));
    graph
}

#[test]
fn ge_all_variants_oracle_identical_under_faults() {
    let m0 = ge_matrix(N, 11);
    let mut oracle = m0.clone();
    ge::ge_loops(&mut oracle);
    for variant in CncVariant::ALL {
        for seed in [1u64, 0xBEEF, 0xDEAD_BEEF] {
            let graph = chaos_graph(FaultPlan::new(seed).transient_step_failures(0.25), 12);
            let mut m = m0.clone();
            let stats = ge::ge_cnc_on(&mut m, BASE, variant, &graph)
                .unwrap_or_else(|e| panic!("GE {variant:?} seed {seed:#x}: {e}"));
            assert!(
                m.bitwise_eq(&oracle),
                "GE {variant:?} seed {seed:#x} diverged"
            );
            assert!(
                stats.faults_injected > 0,
                "plan must actually bite: {stats:?}"
            );
            assert_eq!(stats.steps_retried, stats.faults_injected, "{stats:?}");
        }
    }
}

#[test]
fn sw_all_variants_oracle_identical_under_faults() {
    let a = dna_sequence(N, 21);
    let b = dna_sequence(N, 22);
    let mut oracle = Matrix::zeros(N);
    sw::sw_loops(&mut oracle, &a, &b);
    for variant in CncVariant::ALL {
        let graph = chaos_graph(FaultPlan::new(0x5EED).transient_step_failures(0.25), 12);
        let mut m = Matrix::zeros(N);
        let stats = sw::sw_cnc_on(&mut m, &a, &b, BASE, variant, &graph)
            .unwrap_or_else(|e| panic!("SW {variant:?}: {e}"));
        assert!(m.bitwise_eq(&oracle), "SW {variant:?} diverged");
        assert!(stats.faults_injected > 0, "{stats:?}");
    }
}

#[test]
fn fw_all_variants_oracle_identical_under_faults() {
    let m0 = fw_matrix(N, 31, 0.4);
    let mut oracle = m0.clone();
    fw::fw_loops(&mut oracle);
    for variant in CncVariant::ALL {
        let graph = chaos_graph(FaultPlan::new(0xF00D).transient_step_failures(0.25), 12);
        let mut m = m0.clone();
        let stats = fw::fw_cnc_on(&mut m, BASE, variant, &graph)
            .unwrap_or_else(|e| panic!("FW {variant:?}: {e}"));
        assert!(m.bitwise_eq(&oracle), "FW {variant:?} diverged");
        assert!(stats.faults_injected > 0, "{stats:?}");
    }
}

#[test]
fn chaos_runs_replay_identically_from_the_seed() {
    // Same seed -> same fault decisions -> identical statistics,
    // regardless of thread interleaving.
    let run = |threads: usize| {
        let graph = CncGraph::with_threads(threads);
        graph.set_retry_policy(RetryPolicy::attempts(12));
        graph.set_fault_injector(Arc::new(
            FaultPlan::new(0xCAFE).transient_step_failures(0.3),
        ));
        let mut m = ge_matrix(N, 5);
        ge::ge_cnc_on(&mut m, BASE, CncVariant::Manual, &graph).unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.steps_retried, b.steps_retried);
}

#[test]
fn slow_and_delayed_chaos_still_converges() {
    // Delays (slow steps + delayed puts) perturb timing only; combined
    // with transient failures the run still matches the oracle, and the
    // replay-stable `steps_retried == faults_injected` invariant holds
    // even with delays enabled, because injected delays are tracked in
    // the separate (interleaving-dependent) `delays_injected` counter.
    let m0 = ge_matrix(N, 77);
    let mut oracle = m0.clone();
    ge::ge_loops(&mut oracle);
    let plan = FaultPlan::new(9)
        .transient_step_failures(0.15)
        .slow_steps(0.1, Duration::from_micros(100))
        .delayed_puts(0.1, Duration::from_micros(100));
    let graph = chaos_graph(plan, 12);
    let mut m = m0.clone();
    let stats = ge::ge_cnc_on(&mut m, BASE, CncVariant::Native, &graph).unwrap();
    assert!(m.bitwise_eq(&oracle));
    assert_eq!(stats.steps_retried, stats.faults_injected, "{stats:?}");
}

#[test]
fn delays_count_separately_from_faults() {
    // A delay-only plan fires on every execution but must leave
    // `faults_injected` (the replay-stable counter) untouched.
    let graph = CncGraph::with_threads(2);
    graph.set_fault_injector(Arc::new(
        FaultPlan::new(1).slow_steps(1.0, Duration::from_micros(50)),
    ));
    let tags = graph.tag_collection::<u32>("t");
    tags.prescribe("noop", |_, _| Ok(StepOutcome::Done));
    for i in 0..4 {
        tags.put(i);
    }
    let stats = graph.wait().unwrap();
    assert_eq!(stats.faults_injected, 0, "delays are not faults: {stats:?}");
    assert_eq!(stats.delays_injected, 4, "{stats:?}");
    assert_eq!(stats.steps_retried, 0, "{stats:?}");
}

#[test]
fn exhausted_retry_budget_is_structured_not_a_hang() {
    // A plan hot enough to out-fail a 2-attempt budget somewhere.
    let graph = chaos_graph(FaultPlan::new(123).transient_step_failures(0.95), 2);
    let mut m = ge_matrix(N, 1);
    match ge::ge_cnc_on(&mut m, BASE, CncVariant::Native, &graph) {
        Err(CncError::RetryExhausted {
            step,
            attempts,
            failure,
        }) => {
            assert_eq!(attempts, 2);
            assert!(!step.is_empty());
            assert!(failure.message.contains("seed"), "replay info: {failure}");
        }
        other => panic!("expected RetryExhausted, got {other:?}"),
    }
}

#[test]
fn deadline_expiry_is_structured_not_a_hang() {
    // A consumer parked on an item nobody produces, bounded by a
    // deadline armed on the graph: wait returns Timeout, not a hang.
    let graph = CncGraph::with_threads(2);
    graph.set_deadline(Duration::from_millis(50));
    let ghost = graph.item_collection::<u32, u32>("ghost");
    let tags = graph.tag_collection::<u32>("t");
    let gh = ghost.clone();
    tags.prescribe("starved", move |&n, s| {
        let _ = gh.get(s, &n)?;
        Ok(StepOutcome::Done)
    });
    tags.put(0);
    // Keep one instance genuinely pending (sleeping) so the graph is
    // neither quiescent nor deadlocked when the deadline fires.
    let busy = graph.tag_collection::<u32>("busy");
    busy.prescribe("sleeper", move |_, _| {
        std::thread::sleep(Duration::from_millis(400));
        Ok(StepOutcome::Done)
    });
    busy.put(0);
    match graph.wait() {
        Err(CncError::Timeout { deadline, .. }) => {
            assert_eq!(deadline, Duration::from_millis(50));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn cancellation_is_structured_not_a_hang() {
    let graph = CncGraph::with_threads(2);
    let token = graph.cancel_token();
    let tags = graph.tag_collection::<u32>("t");
    tags.prescribe("sleeper", move |_, _| {
        std::thread::sleep(Duration::from_millis(200));
        Ok(StepOutcome::Done)
    });
    for i in 0..16 {
        tags.put(i);
    }
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel("operator abort");
    });
    match graph.wait() {
        Err(CncError::Cancelled { reason }) => assert_eq!(reason, "operator abort"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    canceller.join().unwrap();
}

#[test]
fn dropped_put_produces_actionable_deadlock_diagnostic() {
    // A fault plan that drops every put into the tile collection starves
    // downstream consumers; the deadlock diagnostic must name a blocked
    // step together with the collection and key it waits on.
    let graph = CncGraph::with_threads(2);
    graph.set_fault_injector(Arc::new(
        FaultPlan::new(4)
            .dropped_puts(1.0)
            .target_collections(&["link"]),
    ));
    let link = graph.item_collection::<u32, u64>("link");
    let tags = graph.tag_collection::<u32>("t");
    let lc = link.clone();
    tags.prescribe("produce", move |&n, _| {
        lc.put(n, n as u64)?; // dropped by the plan
        Ok(StepOutcome::Done)
    });
    let lc = link.clone();
    let consumers = graph.tag_collection::<u32>("c");
    consumers.prescribe("consume", move |&n, s| {
        let _ = lc.get(s, &n)?;
        Ok(StepOutcome::Done)
    });
    tags.put(7);
    consumers.put(7);
    match graph.wait() {
        Err(CncError::Deadlock {
            blocked_instances,
            diagnostic,
        }) => {
            assert_eq!(blocked_instances, 1);
            let w = diagnostic
                .waits
                .first()
                .expect("diagnostic names the blocked step");
            assert_eq!(w.step, "consume");
            assert_eq!(w.collection, "link");
            assert_eq!(w.key, "7");
            let rendered = diagnostic.render();
            assert!(
                rendered.contains("(consume)") && rendered.contains("[link]"),
                "{rendered}"
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn worker_kill_chaos_all_benchmarks_match_oracle() {
    // Fail-stop chaos through the facade: seeded kill times fell real
    // worker threads mid-run on every benchmark (slow steps stretch the
    // run past both kill times), under both recovery policies. The
    // supervisor requeues the dead worker's deque, so the table still
    // matches the fault-free serial loops bit for bit.
    for bench in Benchmark::EXTENDED {
        let oracle = recdp::run_benchmark(bench, recdp::Execution::SerialLoops, N, BASE, 1);
        for recovery in [RecoveryPolicy::Respawn, RecoveryPolicy::Degrade] {
            let plan = FaultPlan::new(0x51AB)
                .slow_steps(1.0, Duration::from_micros(200))
                .kill_worker_at_ns(100_000)
                .kill_worker_at_ns(500_000);
            let worker_kills = plan.worker_kill_times_ns().to_vec();
            let opts = ResilienceOptions {
                injector: Some(Arc::new(plan)),
                worker_kills,
                recovery,
                ..Default::default()
            };
            let out = execute(&Run {
                resilience: opts,
                ..Run::new(bench, Execution::Cnc(CncVariant::Native), N, BASE, THREADS)
            })
            .unwrap_or_else(|e| panic!("{bench:?}/{recovery:?}: {e}"));
            assert!(
                out.table.bitwise_eq(&oracle.table),
                "{bench:?}/{recovery:?} diverged under worker kills"
            );
        }
    }
}

#[test]
fn cnc_on_a_kill_scheduled_pool_reports_the_deaths() {
    // Direct pool observation: a CnC run on a pool with a kill schedule
    // loses two workers mid-run, respawns both, and still matches the
    // oracle. Slow steps keep the graph busy past the second kill time.
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_threads(THREADS)
            .worker_kill_schedule(vec![100_000, 500_000])
            .recovery_mode(RecoveryMode::Respawn)
            .build(),
    );
    let graph = CncGraph::with_pool(Arc::clone(&pool));
    graph.set_fault_injector(Arc::new(
        FaultPlan::new(3).slow_steps(1.0, Duration::from_micros(300)),
    ));
    let m0 = ge_matrix(N, 11);
    let mut oracle = m0.clone();
    ge::ge_loops(&mut oracle);
    let mut m = m0.clone();
    ge::ge_cnc_on(&mut m, BASE, CncVariant::Native, &graph).expect("killed pool must converge");
    assert!(m.bitwise_eq(&oracle), "table diverged across worker deaths");
    assert_eq!(pool.worker_deaths(), 2, "both scheduled kills must bite");
    assert_eq!(pool.worker_respawns(), 2);
    assert_eq!(pool.alive_workers(), THREADS);
}

#[test]
fn resilient_executor_under_chaos_matches_oracle() {
    // The top-level facade: `execute` with a fault plan
    // produces the same table as the fault-free serial loops.
    let oracle = recdp::run_benchmark(Benchmark::Fw, recdp::Execution::SerialLoops, N, BASE, 1);
    let opts = ResilienceOptions {
        retry: RetryPolicy::attempts(10),
        deadline: Some(Duration::from_secs(60)),
        injector: Some(Arc::new(FaultPlan::new(0xAB).transient_step_failures(0.2))),
        ..Default::default()
    };
    let out = execute(&Run {
        resilience: opts,
        ..Run::new(
            Benchmark::Fw,
            Execution::Cnc(CncVariant::Native),
            N,
            BASE,
            THREADS,
        )
    })
    .expect("retries absorb the plan");
    assert!(out.table.bitwise_eq(&oracle.table));
}
