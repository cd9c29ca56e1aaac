//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **r-way recursion** (the paper's parametric R-DP motivation):
//!    span/parallelism and simulated makespan of GE as the branching
//!    factor grows from 2 to t.
//! 2. **Blocking vs non-blocking get** (Sec. IV remark): wasted-work
//!    statistics of the two CnC synchronisation styles on the real
//!    runtime, across base sizes.
//! 3. **Ready-queue policy**: FIFO vs LIFO greedy scheduling of the same
//!    DAGs.
//! 4. **Hardware prefetching** (Sec. IV observation): simulated miss
//!    counts of the GE base-case trace with the next-line prefetcher on
//!    and off.
//! 5. **Resilience overhead**: retry cost of absorbing seeded transient
//!    step failures on the real CnC runtime, as the fault rate grows —
//!    the price of at-least-once step execution under a fault plan.
//! 6. **Worker failures**: graceful-degradation makespan curves of the
//!    simulated testbeds as fail-stop worker kills accumulate (lost
//!    partial work is re-executed on the survivors).
//! 7. **Checkpoint/resume recovery**: how much work a checkpoint saves
//!    when a job is killed after k steps (real runtime, managed FIFO
//!    mode), plus degrade-vs-respawn makespans of the fail-stop
//!    simulator. Deterministic; written to `results/recovery.csv` and
//!    golden-tested.
//!
//! Usage: `ablations`

use std::sync::Arc;
use std::time::Duration;

use recdp::{execute, Benchmark, Execution, ResilienceOptions, Run};
use recdp_cachesim::workloads::ge_base_case_trace;
use recdp_cachesim::{CacheHierarchy, PrefetchPolicy};
use recdp_cnc::RetryPolicy;
use recdp_faults::FaultPlan;
use recdp_kernels::workloads::ge_matrix;
use recdp_kernels::{ge::ge_cnc, CncVariant};
use recdp_machine::{epyc64, skylake192, ParadigmOverheads};
use recdp_sim::{config_for, simulate, simulate_with_failures, QueuePolicy, SimConfig, Workload};
use recdp_taskgraph::{dataflow, fw_kernel_flops, ge_kernel_flops, metrics, rway, sw_kernel_flops};

fn main() {
    let mut csv = String::new();
    rway_sweep(&mut csv);
    blocking_styles(&mut csv);
    queue_policy(&mut csv);
    prefetcher(&mut csv);
    resilience_overhead(&mut csv);
    worker_failures(&mut csv);
    let path = recdp_bench::write_results("ablations.csv", &csv);
    println!("\nwrote {}", path.display());
    recovery_costs();
}

fn recovery_costs() {
    println!("\n== ablation 7: checkpoint/resume recovery (kill after k steps, managed FIFO) ==");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "bench", "kill after", "executed", "items", "skipped", "resumed run"
    );
    for r in recdp_bench::recovery::checkpoint_rows() {
        println!(
            "{:>8} {:>12} {:>10} {:>10} {:>10} {:>12}",
            r.benchmark,
            r.kill_after,
            r.executed_steps,
            r.snapshot_items,
            r.steps_skipped,
            r.resumed_steps_completed
        );
    }
    println!("(a resumed run skips exactly the checkpointed steps; the sim section of the");
    println!(" CSV adds degrade-vs-respawn makespans of the same kill schedules)");
    let path = recdp_bench::write_results("recovery.csv", &recdp_bench::recovery::recovery_csv());
    println!("wrote {}", path.display());
}

fn rway_sweep(csv: &mut String) {
    println!("== ablation 1: r-way GE recursion (t = 16 tiles, base 128, EPYC-64) ==");
    println!(
        "{:>8} {:>14} {:>12} {:>14}",
        "r", "span (flops)", "parallelism", "sim time (s)"
    );
    csv.push_str("section,r,span,parallelism,sim_seconds\n");
    let machine = epyc64();
    let f = ge_kernel_flops(128);
    let t = 16;
    let cfg = config_for(
        &machine,
        &ParadigmOverheads::fork_join(),
        Workload::Ge,
        128,
        64,
    );
    for r in [2usize, 4, 16] {
        let g = rway::ge(t, r, &f);
        let m = metrics::analyze(&g);
        let sim = simulate(&g, &cfg);
        println!(
            "{r:>8} {:>14.3e} {:>12.1} {:>14.4}",
            m.span,
            m.parallelism,
            sim.seconds()
        );
        csv.push_str(&format!(
            "rway,{r},{:.6e},{:.2},{:.6}\n",
            m.span,
            m.parallelism,
            sim.seconds()
        ));
    }
    let df = metrics::analyze(&dataflow::ge(t, &f));
    println!(
        "{:>8} {:>14.3e} {:>12.1} {:>14}",
        "true-dep", df.span, df.parallelism, "-"
    );
}

fn blocking_styles(csv: &mut String) {
    println!("\n== ablation 2: blocking vs non-blocking get (GE on the real runtime) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "base", "style", "exec steps", "wasted execs", "waste ratio"
    );
    csv.push_str("section,base,style,steps,wasted,ratio\n");
    let n = 256;
    for base in [8usize, 16, 32, 64] {
        for (style, variant) in [
            ("blocking", CncVariant::Native),
            ("nonblock", CncVariant::NonBlocking),
        ] {
            let mut m = ge_matrix(n, 7);
            let stats = ge_cnc(&mut m, base, variant, 2);
            let wasted = stats.steps_requeued + stats.nb_retries;
            let ratio = wasted as f64 / stats.steps_started.max(1) as f64;
            println!(
                "{base:>8} {style:>12} {:>12} {:>14} {ratio:>14.3}",
                stats.steps_started, wasted
            );
            csv.push_str(&format!(
                "nbget,{base},{style},{},{wasted},{ratio:.4}\n",
                stats.steps_started
            ));
        }
    }
    println!("(the paper: the non-blocking style pays off only for smaller block sizes)");
}

fn queue_policy(csv: &mut String) {
    println!("\n== ablation 3: ready-queue policy (GE data-flow DAG, t = 32, EPYC-64) ==");
    println!(
        "{:>8} {:>14} {:>12}",
        "policy", "makespan (s)", "utilization"
    );
    csv.push_str("section,policy,seconds,utilization\n");
    let machine = epyc64();
    let g = dataflow::ge(32, &ge_kernel_flops(128));
    let base_cfg = config_for(
        &machine,
        &ParadigmOverheads::cnc_tuner(),
        Workload::Ge,
        128,
        64,
    );
    for (name, policy) in [("FIFO", QueuePolicy::Fifo), ("LIFO", QueuePolicy::Lifo)] {
        let cfg = SimConfig { policy, ..base_cfg };
        let r = simulate(&g, &cfg);
        println!("{name:>8} {:>14.4} {:>12.3}", r.seconds(), r.utilization);
        csv.push_str(&format!(
            "policy,{name},{:.6},{:.4}\n",
            r.seconds(),
            r.utilization
        ));
    }
}

fn prefetcher(csv: &mut String) {
    println!("\n== ablation 4: next-line prefetcher on the GE base-case trace (EPYC-64) ==");
    println!(
        "{:>8} {:>12} {:>14} {:>14}",
        "m", "prefetch", "L2 misses", "DRAM accesses"
    );
    csv.push_str("section,m,prefetch,l2_misses,dram\n");
    let machine = epyc64();
    for m in [64usize, 128, 256] {
        let t = 4096 / m;
        let (ti, tj, tk) = (t - 1, t - 1, t / 2);
        for (name, policy) in [
            ("off", PrefetchPolicy::Off),
            ("on", PrefetchPolicy::NextLine),
        ] {
            let mut h = CacheHierarchy::with_prefetch(&machine.caches, policy);
            ge_base_case_trace(4096, m, ti, tj, tk, &mut |a, _| {
                h.access(a);
            });
            let l2 = h.misses_at(1);
            let dram = h.dram_accesses();
            println!("{m:>8} {name:>12} {l2:>14} {dram:>14}");
            csv.push_str(&format!("prefetch,{m},{name},{l2},{dram}\n"));
        }
    }
    println!("(streaming base cases benefit from prefetch; the simulator charges data-flow");
    println!(" execution a reduced prefetch efficiency per the paper's observation)");
}

fn resilience_overhead(csv: &mut String) {
    println!("\n== ablation 5: resilience overhead (GE n=256 base=32 on the real runtime) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "fault rate", "faults", "retries", "retry ratio", "time (s)"
    );
    csv.push_str("section,fault_rate,faults_injected,steps_retried,retry_ratio,seconds\n");
    let seed = 0xC0FFEE;
    for rate in [0.0f64, 0.05, 0.1, 0.2, 0.4] {
        let opts = ResilienceOptions {
            retry: RetryPolicy::attempts(16),
            deadline: Some(Duration::from_secs(120)),
            injector: if rate > 0.0 {
                Some(Arc::new(FaultPlan::new(seed).transient_step_failures(rate)))
            } else {
                None
            },
            ..Default::default()
        };
        let native = Execution::Cnc(CncVariant::Native);
        let out = execute(&Run {
            resilience: opts,
            ..Run::new(Benchmark::Ge, native, 256, 32, 2)
        })
        .expect("retry budget absorbs the injected transient faults");
        let stats = out.cnc_stats.expect("CnC run always carries stats");
        let ratio = stats.steps_retried as f64 / stats.steps_completed.max(1) as f64;
        println!(
            "{rate:>10.2} {:>10} {:>10} {ratio:>12.3} {:>12.4}",
            stats.faults_injected, stats.steps_retried, out.seconds
        );
        csv.push_str(&format!(
            "resilience,{rate},{},{},{ratio:.4},{:.6}\n",
            stats.faults_injected, stats.steps_retried, out.seconds
        ));
    }
    println!("(every injected transient fault costs exactly one re-execution; the table");
    println!(" stays bit-identical to the fault-free run by pre-body injection)");
}

fn worker_failures(csv: &mut String) {
    println!("\n== ablation 6: fail-stop worker failures (data-flow DAGs, base 128) ==");
    println!(
        "{:>12} {:>8} {:>6} {:>14} {:>10} {:>10} {:>10}",
        "machine", "bench", "kills", "makespan (s)", "slowdown", "wasted", "re-exec"
    );
    csv.push_str("section,machine,bench,kills,seconds,slowdown,wasted_ns,reexecuted\n");
    let m = 128usize;
    let graphs = [
        ("GE", Workload::Ge, dataflow::ge(16, &ge_kernel_flops(m))),
        ("SW", Workload::Sw, dataflow::sw(32, &sw_kernel_flops(m))),
        (
            "FW-APSP",
            Workload::Fw,
            dataflow::fw(12, &fw_kernel_flops(m)),
        ),
    ];
    for (mname, machine, procs) in [
        ("EPYC64", epyc64(), 64usize),
        ("SKYLAKE192", skylake192(), 192),
    ] {
        for (bname, workload, graph) in &graphs {
            let cfg = config_for(
                &machine,
                &ParadigmOverheads::cnc_tuner(),
                *workload,
                m,
                procs,
            );
            let base = simulate(graph, &cfg);
            for kills in [0usize, 4, 16, procs / 2] {
                // Kills evenly spaced across the failure-free makespan:
                // each takes down the worker with the most in-flight work.
                let times: Vec<u64> = (1..=kills)
                    .map(|i| (base.makespan_ns * i as f64 / (kills + 1) as f64) as u64)
                    .collect();
                let r = simulate_with_failures(graph, &cfg, &times);
                let slowdown = r.makespan_ns / base.makespan_ns;
                println!(
                    "{mname:>12} {bname:>8} {kills:>6} {:>14.4} {slowdown:>10.3} {:>10.2e} {:>10}",
                    r.seconds(),
                    r.wasted_ns,
                    r.reexecuted_tasks
                );
                csv.push_str(&format!(
                    "failures,{mname},{bname},{kills},{:.6},{slowdown:.4},{:.3e},{}\n",
                    r.seconds(),
                    r.wasted_ns,
                    r.reexecuted_tasks
                ));
            }
        }
    }
    println!("(losing half the workers costs far less than half the throughput while the");
    println!(" DAG still has surplus parallelism — degradation is graceful until P nears W/D)");
}
