//! The paper's idle-time claim, measured instead of modeled: on GE the
//! fork-join execution loses more thread time to *artificial
//! dependencies* than the data-flow execution loses to *true* ones.
//!
//! Where that time shows up surprised us and is worth recording. The
//! owner of a stolen join branch almost never waits at the join itself:
//! branches are balanced, thieves are hungry, and by the time the owner
//! finishes its inline branch the stolen one is done — `join_idle_ns`
//! is ~0 (the helping protocol hides owner-side waits). The cost
//! surfaces one level up, as *starvation*: mid-run, whole recursion
//! stages are serialized by join barriers, the pool has fewer exposed
//! tasks than workers, and the surplus workers park. `starved_ns`
//! (in-window idle) captures exactly that. Under fork-join every
//! mid-run park is artificial — the DAG's true width at those instants
//! is higher, joins just hide it; under data-flow a mid-run park or a
//! blocked-get abort means a *real* producer has not finished. That is
//! Sec. III's structural argument, validated on the real runtimes via
//! `recdp-trace`.

use recdp::prelude::*;

const N: usize = 256;
const BASE: usize = 16;
const THREADS: usize = 4;

fn measure() -> (TraceReport, TraceReport) {
    let traced = |execution| {
        let out = execute(&Run {
            trace: true,
            ..Run::new(Benchmark::Ge, execution, N, BASE, THREADS)
        })
        .expect("traced runs are fault-free");
        out.trace.expect("asked for a trace").report()
    };
    (
        traced(Execution::ForkJoin),
        traced(Execution::Cnc(CncVariant::Native)),
    )
}

#[test]
fn forkjoin_artificial_idle_exceeds_cnc_true_dependency_cost_on_ge() {
    // Timing-based, so allow a few attempts before declaring the claim
    // violated; the margin is structural (GE's join barriers serialise
    // whole recursion levels, starving most of the pool) and holds on
    // any non-degenerate run.
    let mut last = None;
    for _ in 0..3 {
        let (fj, cnc) = measure();
        assert!(fj.tasks > 0, "fork-join run recorded no tasks");
        assert!(cnc.steps > 0, "cnc run recorded no steps");
        // All fork-join in-window idle is artificial-dependency stall
        // (plus any owner-side join waits the window clipping missed);
        // the data-flow side gets charged both its in-window idle *and*
        // the thread time burnt on blocked-get abort-and-retry.
        let fj_artificial = fj.starved_ns + fj.join_idle_ns;
        let cnc_true_dep = cnc.starved_ns + cnc.blocked_stall_ns;
        if fj_artificial > cnc_true_dep {
            return;
        }
        last = Some((fj, cnc));
    }
    let (fj, cnc) = last.unwrap();
    panic!(
        "fork-join artificial idle ({} ns starved + {} ns join waits) did \
         not exceed cnc true-dependency cost ({} ns starved + {} ns \
         blocked-get stall) in 3 attempts\nfj: {fj:?}\ncnc: {cnc:?}",
        fj.starved_ns, fj.join_idle_ns, cnc.starved_ns, cnc.blocked_stall_ns
    );
}

#[test]
fn measured_parallelism_is_sane_on_both_models() {
    let (fj, cnc) = measure();
    for (label, r) in [("forkjoin", &fj), ("cnc", &cnc)] {
        assert!(r.work_ns > 0, "{label}: no work recorded");
        assert!(
            r.span_ns > 0 && r.span_ns <= r.wall_ns,
            "{label}: span {} outside (0, wall {}]",
            r.span_ns,
            r.wall_ns
        );
        assert!(r.parallelism > 0.0, "{label}: zero measured parallelism");
        assert!(
            r.work_ns <= THREADS as u64 * r.wall_ns,
            "{label}: busy time {} exceeds {} threads x wall {}",
            r.work_ns,
            THREADS,
            r.wall_ns
        );
        assert!(
            r.starved_ns <= THREADS as u64 * r.wall_ns,
            "{label}: starved time {} exceeds {} threads x wall {}",
            r.starved_ns,
            THREADS,
            r.wall_ns
        );
    }
}
