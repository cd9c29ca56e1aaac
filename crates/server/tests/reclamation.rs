//! A served data-flow job leaves nothing behind: its graph, and the
//! per-job tracer inside it, die when the job ends — so the tracing a
//! job pays for cannot depend on how many jobs the server already ran.
//!
//! The witness is each pool worker's thread-local lane cache in
//! `recdp-trace`: it holds one weak entry per tracer the thread has
//! recorded for, and forgets an entry only after its tracer died. A
//! tracer that outlived its job therefore stays visible there.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};

use recdp::{Benchmark, Execution};
use recdp_kernels::CncVariant;
use recdp_server::{BatchMode, DpServer, JobSpec, ServerConfig, SwQuery};

const THREADS: usize = 2;
const MAX_INFLIGHT: usize = 2;
const JOBS: usize = 300;

/// `(entries, live entries)` of every pool worker's lane cache. The
/// barrier keeps each worker inside its probe until all have arrived,
/// so the probes land on distinct threads.
fn lane_caches(server: &DpServer) -> Vec<(usize, usize)> {
    let barrier = Arc::new(Barrier::new(THREADS));
    let (tx, rx) = mpsc::channel();
    for _ in 0..THREADS {
        let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
        server.pool().spawn(move || {
            barrier.wait();
            tx.send(recdp_trace::lane_cache_len())
                .expect("receiver outlives the probes");
        });
    }
    drop(tx);
    rx.iter().collect()
}

fn job(i: usize) -> JobSpec {
    let variant = CncVariant::ALL[i % 3];
    let query = |seed: u64| SwQuery {
        a: recdp_kernels::workloads::dna_sequence(32, seed),
        b: recdp_kernels::workloads::dna_sequence(32, seed ^ 0xFF),
        n: 32,
        base: 8,
    };
    match i % 7 {
        5 => JobSpec::sw_batch(
            "t",
            (0..4).map(|q| query((i * 4 + q) as u64)).collect(),
            BatchMode::PerQuery,
            variant,
        ),
        6 => JobSpec::sw_batch(
            "t",
            (0..4).map(|q| query((i * 4 + q) as u64)).collect(),
            BatchMode::Coalesced,
            variant,
        ),
        b => JobSpec::benchmark("t", Benchmark::EXTENDED[b], Execution::Cnc(variant), 32, 8),
    }
}

#[test]
fn no_tracer_of_a_finished_job_stays_alive() {
    let server = DpServer::new(ServerConfig {
        threads: THREADS,
        queue_depth: 64,
        max_inflight: MAX_INFLIGHT,
        paused: false,
        trace_utilization: true,
    });
    let mut steps_started = 0;
    for chunk in (0..JOBS).collect::<Vec<_>>().chunks(4) {
        let handles: Vec<_> = chunk
            .iter()
            .map(|&i| server.submit(job(i)).expect("queue has room"))
            .collect();
        for handle in handles {
            let result = handle.wait().expect("healthy job");
            steps_started += result.cnc_stats.expect("cnc job").steps_started;
        }
    }
    let caches = lane_caches(&server);
    assert_eq!(caches.len(), THREADS);
    for (entries, live) in caches {
        assert_eq!(live, 0, "a finished job's tracer is still alive");
        assert!(
            entries <= MAX_INFLIGHT,
            "a worker caches {entries} lanes with {MAX_INFLIGHT} jobs in flight at most"
        );
    }
    // The per-job traces saw exactly the executions the graphs counted:
    // one `StepRun` event per started step, under interned step names.
    let tenant = server.tenant_stats("t").expect("tenant ran jobs");
    assert_eq!(tenant.completed, JOBS as u64);
    assert_eq!(tenant.steps_completed, steps_started);
    server.shutdown();
}
