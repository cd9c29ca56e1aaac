//! Graph memory is reclaimed at graph end: a process that runs a
//! thousand data-flow graphs back to back must not grow with the number
//! of graphs it has run.
//!
//! One test per binary on purpose — resident-set size is process-wide,
//! so nothing else may allocate while it is being compared.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use recdp::{prepare_job_with, Benchmark};
use recdp_cnc::CncGraph;
use recdp_forkjoin::ThreadPoolBuilder;
use recdp_kernels::{CncVariant, Decomposition};

/// Resident set size in kB (`VmRSS` of `/proc/self/status`).
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("the kernel reports VmRSS");
    let kb = line.split_whitespace().nth(1).expect("VmRSS has a value");
    kb.parse().expect("VmRSS is a number of kB")
}

#[test]
fn a_thousand_tuner_graphs_do_not_grow_the_process() {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(2).build());
    let oracle = {
        let mut p = prepare_job_with(Benchmark::Ge, 64, 8, Decomposition::BINARY);
        p.run_loops();
        p.table().bit_digest()
    };
    let run = || {
        let p = prepare_job_with(Benchmark::Ge, 64, 8, Decomposition::BINARY);
        let graph = CncGraph::with_pool(Arc::clone(&pool));
        p.run_cnc_on(CncVariant::Tuner, &graph)
            .expect("a fault-free graph completes");
        assert_eq!(p.table().bit_digest(), oracle);
    };
    for _ in 0..10 {
        run();
    }
    let warm = rss_kb();
    for _ in 0..990 {
        run();
    }
    let end = rss_kb();
    // Each of these graphs used to leave ~26 kB behind (step bodies,
    // item maps, the completed-step log): 4 MB -> 30 MB over the loop.
    assert!(
        end <= warm + 2048,
        "RSS grew from {warm} kB after 10 graphs to {end} kB after 1000"
    );
}
