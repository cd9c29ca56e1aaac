//! `recdp-bench`: shared plumbing for the figure/table regeneration
//! binaries (`fig`, `table1`, `span_work`, `realrun`) and the Criterion
//! micro-benchmarks.

#![warn(missing_docs)]

use recdp_machine::{epyc64, skylake192, MachineConfig};

/// The paper's per-figure base-size grids.
pub fn bases_for(n: usize) -> Vec<usize> {
    match n {
        2048 => vec![8, 16, 32, 64, 128, 256, 512],
        4096 => vec![64, 128, 256, 512],
        8192 | 16384 => vec![64, 128, 256, 512, 1024, 2048],
        // Off-grid problem sizes: sweep what divides.
        _ => [8, 16, 32, 64, 128, 256, 512, 1024, 2048]
            .into_iter()
            .filter(|&m| m <= n && n.is_multiple_of(m))
            .collect(),
    }
}

/// The paper's problem-size grid (2K, 4K, 8K, 16K).
pub const PROBLEM_SIZES: [usize; 4] = [2048, 4096, 8192, 16384];

/// Simple CLI options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// Machines to evaluate.
    pub machines: Vec<MachineConfig>,
    /// Include the heaviest DAGs (over ~8M tasks) instead of skipping
    /// them with a note.
    pub full: bool,
    /// Cap on the number of simulated tasks per point unless `full`.
    pub task_cap: usize,
}

impl FigureArgs {
    /// Parses `--machine epyc64|skylake192` (repeatable; default both)
    /// and `--full`.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut machines = Vec::new();
        let mut full = false;
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--machine" => {
                    let v = it.next().expect("--machine needs a value");
                    match v.as_str() {
                        "epyc64" => machines.push(epyc64()),
                        "skylake192" => machines.push(skylake192()),
                        other => panic!("unknown machine {other:?} (epyc64|skylake192)"),
                    }
                }
                "--full" => full = true,
                other => panic!("unknown argument {other:?}"),
            }
        }
        if machines.is_empty() {
            machines = vec![epyc64(), skylake192()];
        }
        FigureArgs {
            machines,
            full,
            task_cap: 8_000_000,
        }
    }

    /// Whether a point with `tasks` simulated tasks should be skipped.
    pub fn skip(&self, tasks: u64) -> bool {
        !self.full && tasks > self.task_cap as u64
    }
}

/// Writes `content` to `results/<name>` under the workspace root,
/// creating the directory if needed, and returns the path.
pub fn write_results(name: &str, content: &str) -> std::path::PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write results file");
    path
}

/// Path of a (possibly committed) file under the workspace `results/`
/// directory, without touching the filesystem. The golden-file tests use
/// this to locate the checked-in CSVs they diff against.
pub fn results_path(name: &str) -> std::path::PathBuf {
    results_dir().join(name)
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper_axes() {
        assert_eq!(bases_for(2048), vec![8, 16, 32, 64, 128, 256, 512]);
        assert_eq!(bases_for(4096), vec![64, 128, 256, 512]);
        assert_eq!(bases_for(16384), vec![64, 128, 256, 512, 1024, 2048]);
        assert!(bases_for(1024).iter().all(|&m| 1024 % m == 0));
    }

    #[test]
    fn args_default_to_both_machines() {
        let a = FigureArgs::parse(std::iter::empty());
        assert_eq!(a.machines.len(), 2);
        assert!(!a.full);
        assert!(a.skip(10_000_000));
        assert!(!a.skip(1_000_000));
    }

    #[test]
    fn args_parse_machine_and_full() {
        let a = FigureArgs::parse(
            ["--machine", "epyc64", "--full"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.machines.len(), 1);
        assert_eq!(a.machines[0].name, "EPYC-64");
        assert!(a.full);
        assert!(!a.skip(10_000_000));
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn bad_machine_rejected() {
        let _ = FigureArgs::parse(["--machine", "cray"].iter().map(|s| s.to_string()));
    }
}

/// Row-level generation of **Table I** and the span/work ablation,
/// shared between the `table1`/`span_work` binaries and the golden-file
/// tests (which regenerate the CSVs in quick mode and diff them against
/// the committed `results/*.csv`).
pub mod tables {
    use recdp::{dag_metrics, Benchmark, Model};
    use recdp_analytical::{capacity_aware_misses_per_task, ge_miss_upper_bound, locality_ratio};
    use recdp_cachesim::workloads::ge_base_case_trace;
    use recdp_cachesim::CacheHierarchy;
    use recdp_machine::{skylake192, MachineConfig};

    /// Table I problem size (8K x 8K GE on SKYLAKE-192).
    pub const TABLE1_PROBLEM: usize = 8192;
    /// Table I base-size axis.
    pub const TABLE1_BASES: [usize; 6] = [64, 128, 256, 512, 1024, 2048];
    /// Default largest base traced through the cache simulator (tracing
    /// is O(m^3); larger bases print `-`).
    pub const TABLE1_TRACE_LIMIT: usize = 512;
    /// Trace limit of `--quick` mode: enough rows to diff against the
    /// committed golden while keeping the trace volume test-sized.
    pub const TABLE1_QUICK_TRACE_LIMIT: usize = 128;

    /// One row of Table I. Traced columns are `None` above the trace
    /// limit (rendered as `-` in the CSV).
    #[derive(Debug, Clone)]
    pub struct Table1Row {
        /// Base-case size `m`.
        pub base: usize,
        /// Max-estimate/actual ratio against the L2 capacity model.
        pub l2_model: f64,
        /// Max-estimate/actual ratio against the L3 capacity model.
        pub l3_model: f64,
        /// Ratio against simulated L2 misses of one traced base task.
        pub l2_traced: Option<f64>,
        /// Ratio against simulated L3 misses of one traced base task.
        pub l3_traced: Option<f64>,
    }

    /// Computes Table I, tracing bases up to `trace_limit` through the
    /// set-associative LRU simulator.
    pub fn table1_rows(trace_limit: usize) -> Vec<Table1Row> {
        let sky = skylake192();
        let line = sky.caches.line_doubles();
        TABLE1_BASES
            .iter()
            .map(|&m| {
                let bound = ge_miss_upper_bound(m, line) as f64;
                let l2_model = locality_ratio(
                    bound,
                    capacity_aware_misses_per_task(m, &sky.caches.levels[1], line),
                );
                let l3_model = locality_ratio(
                    bound,
                    capacity_aware_misses_per_task(m, &sky.caches.levels[2], line),
                );
                let (l2_traced, l3_traced) = if m <= trace_limit {
                    let (a2, a3) = trace_base_task(&sky, m);
                    (
                        Some(locality_ratio(bound, a2)),
                        Some(locality_ratio(bound, a3)),
                    )
                } else {
                    (None, None)
                };
                Table1Row {
                    base: m,
                    l2_model,
                    l3_model,
                    l2_traced,
                    l3_traced,
                }
            })
            .collect()
    }

    /// Table I as CSV, identical to what the `table1` binary writes to
    /// `results/table1.csv` at the same trace limit.
    pub fn table1_csv(trace_limit: usize) -> String {
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.2}"),
            None => "-".to_string(),
        };
        let mut csv = String::from("base,l2_model,l3_model,l2_traced,l3_traced\n");
        for r in table1_rows(trace_limit) {
            csv.push_str(&format!(
                "{},{:.2},{:.2},{},{}\n",
                r.base,
                r.l2_model,
                r.l3_model,
                fmt(r.l2_traced),
                fmt(r.l3_traced)
            ));
        }
        csv
    }

    /// Simulates one representative interior base-case task (a D-kernel
    /// update away from the matrix borders) through the machine's cache
    /// hierarchy and returns its (L2, L3) demand misses.
    fn trace_base_task(machine: &MachineConfig, m: usize) -> (f64, f64) {
        let mut hierarchy = CacheHierarchy::new(&machine.caches);
        let t = TABLE1_PROBLEM / m;
        let (i, j, k) = if t == 1 {
            (0, 0, 0)
        } else {
            (t - 1, t - 1, t / 2)
        };
        ge_base_case_trace(TABLE1_PROBLEM, m, i, j, k, &mut |addr, _| {
            hierarchy.access(addr);
        });
        let stats = hierarchy.stats();
        (stats[1].misses as f64, stats[2].misses as f64)
    }

    /// Tile-count axis of the span/work ablation.
    pub const SPAN_WORK_TILES: [usize; 5] = [4, 8, 16, 32, 64];
    /// Base-case size the ablation weights flops with.
    pub const SPAN_WORK_BASE: usize = 64;

    /// One row of the span/work ablation (one benchmark at one tile
    /// count, both execution models).
    #[derive(Debug, Clone)]
    pub struct SpanWorkRow {
        /// Benchmark display name.
        pub bench: &'static str,
        /// Tiles per dimension.
        pub t: usize,
        /// Total work `T1` (identical across models).
        pub work: f64,
        /// Fork-join critical path.
        pub span_fj: f64,
        /// Data-flow critical path.
        pub span_df: f64,
        /// Fork-join over data-flow span ratio (the paper's extra-span
        /// claim: grows with `t`).
        pub span_ratio: f64,
        /// `T1 / T-inf` under fork-join.
        pub par_fj: f64,
        /// `T1 / T-inf` under data-flow.
        pub par_df: f64,
    }

    /// Computes the span/work ablation over the paper's three benchmarks.
    pub fn span_work_rows() -> Vec<SpanWorkRow> {
        let mut rows = Vec::new();
        for benchmark in Benchmark::ALL {
            for t in SPAN_WORK_TILES {
                let fj = dag_metrics(benchmark, Model::ForkJoin, t, SPAN_WORK_BASE);
                let df = dag_metrics(benchmark, Model::DataFlow, t, SPAN_WORK_BASE);
                rows.push(SpanWorkRow {
                    bench: benchmark.name(),
                    t,
                    work: fj.work,
                    span_fj: fj.span,
                    span_df: df.span,
                    span_ratio: fj.span / df.span,
                    par_fj: fj.parallelism,
                    par_df: df.parallelism,
                });
            }
        }
        rows
    }

    /// The ablation as CSV, identical to what the `span_work` binary
    /// writes to `results/span_work.csv`.
    pub fn span_work_csv() -> String {
        let mut csv = String::from("bench,t,work,span_fj,span_df,span_ratio,par_fj,par_df\n");
        for r in span_work_rows() {
            csv.push_str(&format!(
                "{},{},{:.6e},{:.6e},{:.6e},{:.4},{:.2},{:.2}\n",
                r.bench, r.t, r.work, r.span_fj, r.span_df, r.span_ratio, r.par_fj, r.par_df
            ));
        }
        csv
    }
}

/// Measured-span instrumentation rows: real traced executions of the
/// three benchmarks under every parallel model, next to the `taskgraph`
/// model's predicted parallelism. Shared by the `measured_span` binary
/// and the structural validation test.
pub mod measured {
    use recdp::prelude::TraceReport;
    use recdp::{dag_metrics, execute, Benchmark, Execution, Model, Run};
    use recdp_kernels::CncVariant;

    /// Default quick-mode problem size.
    pub const MEASURED_SPAN_N: usize = 128;
    /// Default quick-mode base-case size.
    pub const MEASURED_SPAN_BASE: usize = 16;
    /// Default quick-mode worker count.
    pub const MEASURED_SPAN_THREADS: usize = 4;

    /// The traced executions, paper order.
    pub const EXECUTIONS: [Execution; 4] = [
        Execution::ForkJoin,
        Execution::Cnc(CncVariant::Native),
        Execution::Cnc(CncVariant::Tuner),
        Execution::Cnc(CncVariant::Manual),
    ];

    /// One traced execution of one benchmark.
    #[derive(Debug, Clone)]
    pub struct MeasuredSpanRow {
        /// Benchmark display name.
        pub bench: &'static str,
        /// Execution-model label.
        pub exec: &'static str,
        /// Problem size.
        pub n: usize,
        /// Base-case size.
        pub base: usize,
        /// Worker threads.
        pub threads: usize,
        /// The recorded timeline's aggregate report.
        pub report: TraceReport,
        /// `T1 / T-inf` of the matching `taskgraph` model DAG.
        pub model_parallelism: f64,
    }

    /// Runs every benchmark under every parallel execution model with a
    /// tracer installed and collects one row per run.
    pub fn measured_span_rows(n: usize, base: usize, threads: usize) -> Vec<MeasuredSpanRow> {
        let mut rows = Vec::new();
        for benchmark in Benchmark::ALL {
            for execution in EXECUTIONS {
                let model = match execution {
                    Execution::ForkJoin => Model::ForkJoin,
                    Execution::Cnc(_) => Model::DataFlow,
                    _ => unreachable!("EXECUTIONS holds only parallel models"),
                };
                let out = execute(&Run {
                    trace: true,
                    ..Run::new(benchmark, execution, n, base, threads)
                })
                .expect("traced runs are fault-free");
                let session = out.trace.expect("asked for a trace");
                rows.push(MeasuredSpanRow {
                    bench: benchmark.name(),
                    exec: execution.label(),
                    n,
                    base,
                    threads,
                    report: session.report(),
                    model_parallelism: dag_metrics(benchmark, model, n / base, base).parallelism,
                });
            }
        }
        rows
    }

    /// The rows as CSV, identical to what the `measured_span` binary
    /// writes to `results/measured_span.csv`. Timing columns are
    /// machine-dependent; the golden test validates structure, not
    /// values.
    pub fn measured_span_csv(rows: &[MeasuredSpanRow]) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        let mut csv = String::from(
            "bench,exec,n,base,threads,wall_s,work_s,span_s,measured_parallelism,\
             model_parallelism,join_idle_s,park_s,starved_s,blocked_stall_s,dep_wait_s,\
             tasks,steals,steps,requeues,retries\n",
        );
        for r in rows {
            let t = &r.report;
            csv.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.2},{:.2},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{}\n",
                r.bench,
                r.exec,
                r.n,
                r.base,
                r.threads,
                s(t.wall_ns),
                s(t.work_ns),
                s(t.span_ns),
                t.parallelism,
                r.model_parallelism,
                s(t.join_idle_ns),
                s(t.park_ns),
                s(t.starved_ns),
                s(t.blocked_stall_ns),
                s(t.dep_wait_ns),
                t.tasks,
                t.steals,
                t.steps,
                t.steps_requeued,
                t.retries,
            ));
        }
        csv
    }
}

/// Figure-regeneration driver behind the `fig` binary.
pub mod figures {
    use recdp::{Benchmark, FigurePanel, Paradigm};

    use super::{bases_for, write_results, FigureArgs, PROBLEM_SIZES};

    /// CSV stem and whether the analytical "Estimated" series applies
    /// (the paper provides it for GE only). Stems match the former
    /// per-benchmark binaries, so the committed CSV names are stable.
    pub fn series_of(benchmark: Benchmark) -> (&'static str, bool) {
        match benchmark {
            Benchmark::Ge => ("fig4_5_ge", true),
            Benchmark::Sw => ("fig6_7_sw", false),
            Benchmark::Fw => ("fig8_9_fw", false),
            Benchmark::Paren => ("fig_paren", false),
            Benchmark::Lcs => ("fig_lcs", false),
        }
    }

    /// Simulated tasks of the heaviest series at one figure point.
    fn tasks_at(benchmark: Benchmark, n: usize, m: usize) -> u64 {
        let t = (n / m) as u64;
        match benchmark {
            Benchmark::Ge => t * (t + 1) * (2 * t + 1) / 6,
            Benchmark::Sw | Benchmark::Lcs => t * t,
            Benchmark::Fw => t * t * t,
            Benchmark::Paren => t * (t + 1) / 2,
        }
    }

    /// Regenerates one figure pair (e.g. Figs. 4-5 for GE): for each
    /// machine in `args` and each problem size, sweeps the paper's base
    /// sizes over the given paradigms, prints the panels and writes CSV
    /// files named `<stem>_<machine>_<n>.csv`.
    pub fn run(benchmark: Benchmark, stem: &str, with_estimate: bool, args: &FigureArgs) {
        let mut paradigms = Paradigm::EXECUTABLE.to_vec();
        if with_estimate {
            paradigms.push(Paradigm::Estimated);
        }
        for machine in &args.machines {
            for &n in &PROBLEM_SIZES {
                let bases: Vec<usize> = bases_for(n)
                    .into_iter()
                    .filter(|&m| {
                        let tasks = tasks_at(benchmark, n, m);
                        if args.skip(tasks) {
                            println!(
                                "note: skipping {n}x{n} base {m} ({tasks} tasks > cap; \
                                 rerun with --full)"
                            );
                            false
                        } else {
                            true
                        }
                    })
                    .collect();
                let panel = FigurePanel::compute(machine, benchmark, n, &bases, &paradigms);
                print!("{}", panel.to_table());
                println!();
                let file = format!(
                    "{stem}_{}_{}.csv",
                    machine.name.to_lowercase().replace('-', ""),
                    n
                );
                let path = write_results(&file, &panel.to_csv());
                println!("wrote {}", path.display());
            }
        }
    }
}

/// Deterministic recovery-cost data behind `results/recovery.csv`,
/// shared between the `ablations` binary and the golden-file tests.
///
/// Two sections, both free of wall-clock measurements so the CSV is a
/// committable golden:
///
/// * **checkpoint** — on the real CnC runtime in managed (serialised
///   FIFO) mode, kill each benchmark's job after a fixed number of
///   steps, checkpoint, and resume: the row records how much work the
///   checkpoint preserved (`executed_steps`, `snapshot_items`) and what
///   the resumed run did (`steps_skipped` — work *not* repeated thanks
///   to the checkpoint — and `resumed_steps_completed`, the re-run
///   expansion steps plus the remaining data producers).
/// * **sim** — discrete-event makespans of fail-stop kills under the
///   degrade vs respawn recovery modes (mirroring the real pool's
///   `RecoveryMode`), quantifying what respawning buys.
pub mod recovery {
    use recdp_cnc::CncGraph;
    use recdp_kernels::engine::{register_cnc, run_cnc};
    use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
    use recdp_kernels::{fw, ge, paren, sw, CncVariant, DpSpec};
    use recdp_machine::{epyc64, ParadigmOverheads};
    use recdp_sim::{config_for, simulate, simulate_with_recovery, SimRecovery, Workload};
    use recdp_taskgraph::{dataflow, ge_kernel_flops};

    /// Problem size of the checkpoint section (kept test-sized: the
    /// golden regenerates inside the goldens test).
    pub const N: usize = 64;
    /// Base-case size of the checkpoint section.
    pub const BASE: usize = 16;
    /// Workload seed of the checkpoint section (matrix *values* never
    /// enter the CSV — every column is a schedule-structure count).
    pub const SEED: u64 = 0xD1CE;
    /// Steps run before the kill, per checkpoint row.
    pub const KILL_POINTS: [usize; 4] = [0, 4, 16, 64];

    /// One checkpoint-section row.
    #[derive(Debug, Clone)]
    pub struct CheckpointRow {
        /// Benchmark label (GE / SW / FW / PAREN).
        pub benchmark: &'static str,
        /// Steps the first (killed) run completed before the kill.
        pub kill_after: usize,
        /// Data-producing steps the checkpoint preserved.
        pub executed_steps: usize,
        /// Item snapshots the checkpoint carried.
        pub snapshot_items: usize,
        /// Steps the resumed run skipped (work saved by the checkpoint).
        pub steps_skipped: u64,
        /// Steps the resumed run executed (re-run expansions + the rest).
        pub resumed_steps_completed: u64,
    }

    /// FIFO picker: managed execution is single-threaded, so always
    /// picking the oldest ready instance makes every run — and therefore
    /// the whole CSV — deterministic.
    fn fifo() -> recdp_cnc::PickFn {
        Box::new(|_ready| 0)
    }

    /// Kills `spec`'s job after `kill_after` managed FIFO steps,
    /// checkpoints, resumes on a fresh graph, and runs to quiescence.
    fn checkpoint_cycle<S: DpSpec>(
        benchmark: &'static str,
        spec: &S,
        kill_after: usize,
    ) -> CheckpointRow {
        let (killed, handle) = CncGraph::managed(fifo());
        register_cnc(spec, CncVariant::Native, &killed, None);
        for _ in 0..kill_after {
            if !handle.run_one() {
                break;
            }
        }
        let cp = killed.checkpoint();
        drop((handle, killed));

        let (resumed, _handle) = CncGraph::managed(fifo());
        resumed.resume_from(&cp);
        let stats = run_cnc(spec, CncVariant::Native, &resumed, None)
            .expect("resumed managed run quiesces");
        CheckpointRow {
            benchmark,
            kill_after,
            executed_steps: cp.executed_steps(),
            snapshot_items: cp.items(),
            steps_skipped: stats.steps_skipped,
            resumed_steps_completed: stats.steps_completed,
        }
    }

    /// All checkpoint-section rows: four benchmarks × [`KILL_POINTS`].
    pub fn checkpoint_rows() -> Vec<CheckpointRow> {
        let mut rows = Vec::new();
        for &kill_after in &KILL_POINTS {
            let mut m = ge_matrix(N, SEED);
            rows.push(checkpoint_cycle(
                "GE",
                &ge::GeSpec::new(m.ptr(), BASE),
                kill_after,
            ));
        }
        let a = dna_sequence(N, SEED);
        let b = dna_sequence(N, SEED ^ 0xFFFF);
        for &kill_after in &KILL_POINTS {
            let mut m = recdp_kernels::Matrix::zeros(N);
            rows.push(checkpoint_cycle(
                "SW",
                &sw::SwSpec::new(m.ptr(), &a, &b, BASE),
                kill_after,
            ));
        }
        for &kill_after in &KILL_POINTS {
            let mut m = fw_matrix(N, SEED, 0.35);
            rows.push(checkpoint_cycle(
                "FW",
                &fw::FwSpec::new(m.ptr(), BASE),
                kill_after,
            ));
        }
        let dims = chain_dims(N, SEED);
        for &kill_after in &KILL_POINTS {
            let mut m = recdp_kernels::Matrix::zeros(N);
            rows.push(checkpoint_cycle(
                "PAREN",
                &paren::ParenSpec::new(m.ptr(), &dims, BASE),
                kill_after,
            ));
        }
        rows
    }

    /// The full `recovery.csv` content (checkpoint section, then the
    /// degrade-vs-respawn simulation section).
    pub fn recovery_csv() -> String {
        let mut csv = String::from(
            "section,benchmark,kill_after,executed_steps,snapshot_items,\
             steps_skipped,resumed_steps_completed\n",
        );
        for r in checkpoint_rows() {
            csv.push_str(&format!(
                "checkpoint,{},{},{},{},{},{}\n",
                r.benchmark,
                r.kill_after,
                r.executed_steps,
                r.snapshot_items,
                r.steps_skipped,
                r.resumed_steps_completed
            ));
        }

        csv.push_str(
            "section,mode,kills,makespan_ns,wasted_ns,reexecuted_tasks,\
             worker_failures,worker_respawns\n",
        );
        let graph = dataflow::ge(16, &ge_kernel_flops(128));
        let cfg = config_for(
            &epyc64(),
            &ParadigmOverheads::cnc_tuner(),
            Workload::Ge,
            128,
            64,
        );
        let base = simulate(&graph, &cfg);
        for kills in [0usize, 4, 16, 32] {
            // Kills evenly spaced across the failure-free makespan, as
            // in the worker-failures ablation.
            let times: Vec<u64> = (1..=kills)
                .map(|i| (base.makespan_ns * i as f64 / (kills + 1) as f64) as u64)
                .collect();
            for (label, mode) in [
                ("degrade", SimRecovery::Degrade),
                (
                    "respawn",
                    SimRecovery::Respawn {
                        delay_ns: base.makespan_ns * 0.01,
                    },
                ),
            ] {
                let r = simulate_with_recovery(&graph, &cfg, &times, mode);
                csv.push_str(&format!(
                    "sim,{label},{kills},{:.6e},{:.6e},{},{},{}\n",
                    r.makespan_ns,
                    r.wasted_ns,
                    r.reexecuted_tasks,
                    r.worker_failures,
                    r.worker_respawns
                ));
            }
        }
        csv
    }
}

/// Throughput and latency of the multi-tenant job server
/// (`recdp-server`) under heavy mixed load, behind
/// `results/server_load.csv`.
///
/// Three sections, all on **one** shared pool per section:
///
/// * **mixed** — a two-tenant (3:1 weighted) blast of GE/SW/FW/Paren
///   jobs of mixed sizes under fork-join and two data-flow variants;
///   one row per benchmark plus a `total` row.
/// * **tenant** — the same run sliced by tenant, showing the weighted
///   fair share (alpha completes ~3x bravo's work at equal demand).
/// * **swbatch** — many small Smith-Waterman alignment queries served
///   one-graph-per-query (`per_query`) vs coalesced onto shared
///   wavefront graphs (`coalesced`); the committed CSV must show the
///   coalesced mode's throughput above the per-query baseline — that
///   gap is the amortized graph setup/quiescence cost.
///
/// Every timing cell is machine-dependent, so the golden test
/// validates shape and invariants (labels, counts,
/// `p50 <= p95 <= p99`, the coalesced win), never timing values.
pub mod server_load {
    use std::time::Instant;

    use recdp::{Benchmark, Execution};
    use recdp_kernels::workloads::dna_sequence;
    use recdp_kernels::CncVariant;
    use recdp_server::{BatchMode, DpServer, JobHandle, JobSpec, ServerConfig, SwQuery};

    /// Load-shape knobs shared by the binary and the golden test.
    #[derive(Debug, Clone)]
    pub struct LoadParams {
        /// Jobs per (benchmark, size, execution) combination in the
        /// mixed section.
        pub jobs_per_combo: usize,
        /// Problem sizes cycled through in the mixed section.
        pub sizes: &'static [usize],
        /// Total Smith-Waterman queries in the swbatch section.
        pub queries: usize,
        /// Queries per coalesced batch job.
        pub batch: usize,
        /// Shared-pool workers.
        pub threads: usize,
    }

    /// CI/golden-test grid: small but exercising every row label.
    pub const QUICK: LoadParams = LoadParams {
        jobs_per_combo: 1,
        sizes: &[32],
        queries: 16,
        batch: 4,
        threads: 4,
    };

    /// Default grid for the committed CSV.
    pub const FULL: LoadParams = LoadParams {
        jobs_per_combo: 3,
        sizes: &[32, 64],
        queries: 64,
        batch: 8,
        threads: 4,
    };

    /// One CSV row: counts plus a throughput/latency summary.
    #[derive(Debug, Clone)]
    pub struct LoadRow {
        /// Section label (`mixed` / `tenant` / `swbatch`).
        pub section: &'static str,
        /// Row label (benchmark name, tenant name, or batch mode).
        pub label: String,
        /// Jobs (or queries, in the swbatch section) offered.
        pub jobs: u64,
        /// Jobs completed with a result.
        pub completed: u64,
        /// Jobs that failed.
        pub failed: u64,
        /// Submissions refused by admission control.
        pub rejected: u64,
        /// Completed jobs (swbatch: queries) per second of section
        /// wall time.
        pub throughput: f64,
        /// Median end-to-end latency (queue wait + execution), ms.
        pub p50_ms: f64,
        /// 95th-percentile latency, ms.
        pub p95_ms: f64,
        /// 99th-percentile latency, ms.
        pub p99_ms: f64,
    }

    /// Nearest-rank percentile of an unsorted sample, in the sample's
    /// unit.
    fn percentile(latencies: &mut [f64], p: f64) -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p / 100.0 * latencies.len() as f64).ceil() as usize).max(1);
        latencies[rank - 1]
    }

    fn summarize(
        section: &'static str,
        label: String,
        offered: u64,
        rejected: u64,
        outcomes: &[(bool, f64)],
        wall_s: f64,
        per_completion: f64,
    ) -> LoadRow {
        // `per_completion` scales job counts to the unit the section
        // reports (queries per batch job in swbatch, 1 elsewhere).
        let unit = per_completion as u64;
        let completed = outcomes.iter().filter(|(ok, _)| *ok).count() as u64;
        let failed = outcomes.len() as u64 - completed;
        let mut lat: Vec<f64> = outcomes.iter().map(|(_, ms)| *ms).collect();
        LoadRow {
            section,
            label,
            jobs: offered,
            completed: completed * unit,
            failed: failed * unit,
            rejected,
            throughput: completed as f64 * per_completion / wall_s.max(1e-9),
            p50_ms: percentile(&mut lat, 50.0),
            p95_ms: percentile(&mut lat, 95.0),
            p99_ms: percentile(&mut lat, 99.0),
        }
    }

    /// End-to-end latency of one finished job in milliseconds.
    fn wait_ms(handle: &JobHandle) -> (bool, f64) {
        match handle.wait() {
            Ok(r) => (true, (r.queued_seconds + r.seconds) * 1e3),
            Err(_) => (false, 0.0),
        }
    }

    /// The mixed-workload blast: submits the full job matrix to a
    /// paused server (building a saturating backlog), resumes, waits
    /// everything out, and slices the outcome per benchmark and per
    /// tenant.
    pub fn mixed_rows(params: &LoadParams) -> Vec<LoadRow> {
        const EXECUTIONS: [Execution; 3] = [
            Execution::ForkJoin,
            Execution::Cnc(CncVariant::Native),
            Execution::Cnc(CncVariant::Tuner),
        ];
        const TENANTS: [&str; 2] = ["alpha", "bravo"];
        let server = DpServer::new(ServerConfig {
            threads: params.threads,
            queue_depth: 4096,
            max_inflight: 2,
            paused: true,
            trace_utilization: true,
        });
        server.set_tenant_weight("alpha", 3.0);
        server.set_tenant_weight("bravo", 1.0);
        let mut handles: Vec<(Benchmark, &str, JobHandle)> = Vec::new();
        let mut rejected = 0u64;
        let mut i = 0usize;
        for benchmark in Benchmark::EXTENDED {
            for &n in params.sizes {
                for execution in EXECUTIONS {
                    for _ in 0..params.jobs_per_combo {
                        let tenant = TENANTS[i % TENANTS.len()];
                        i += 1;
                        match server.submit(JobSpec::benchmark(tenant, benchmark, execution, n, 8))
                        {
                            Ok(h) => handles.push((benchmark, tenant, h)),
                            Err(_) => rejected += 1,
                        }
                    }
                }
            }
        }
        let start = Instant::now();
        server.resume();
        let outcomes: Vec<(Benchmark, &str, (bool, f64))> = handles
            .iter()
            .map(|(b, t, h)| (*b, *t, wait_ms(h)))
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        server.shutdown();

        let mut rows = Vec::new();
        for benchmark in Benchmark::EXTENDED {
            let slice: Vec<(bool, f64)> = outcomes
                .iter()
                .filter(|(b, _, _)| *b == benchmark)
                .map(|(_, _, o)| *o)
                .collect();
            rows.push(summarize(
                "mixed",
                benchmark.name().to_string(),
                slice.len() as u64,
                0,
                &slice,
                wall_s,
                1.0,
            ));
        }
        let all: Vec<(bool, f64)> = outcomes.iter().map(|(_, _, o)| *o).collect();
        rows.push(summarize(
            "mixed",
            "total".to_string(),
            (handles.len() as u64) + rejected,
            rejected,
            &all,
            wall_s,
            1.0,
        ));
        for tenant in TENANTS {
            let slice: Vec<(bool, f64)> = outcomes
                .iter()
                .filter(|(_, t, _)| *t == tenant)
                .map(|(_, _, o)| *o)
                .collect();
            rows.push(summarize(
                "tenant",
                tenant.to_string(),
                slice.len() as u64,
                0,
                &slice,
                wall_s,
                1.0,
            ));
        }
        rows
    }

    /// The batching comparison: the same query stream served
    /// one-graph-per-query vs coalesced onto one wavefront graph per
    /// batch. Both run on a fresh server (one shared pool each) so
    /// neither mode inherits the other's warm-up.
    pub fn swbatch_rows(params: &LoadParams) -> Vec<LoadRow> {
        let queries: Vec<SwQuery> = (0..params.queries)
            .map(|i| SwQuery {
                a: dna_sequence(32, 0x5EED + i as u64),
                b: dna_sequence(32, 0xFEED + i as u64),
                n: 32,
                base: 8,
            })
            .collect();
        let mut rows = Vec::new();
        for (label, chunk, mode) in [
            ("per_query", 1usize, BatchMode::PerQuery),
            ("coalesced", params.batch, BatchMode::Coalesced),
        ] {
            let server = DpServer::new(ServerConfig {
                threads: params.threads,
                queue_depth: 4096,
                max_inflight: 2,
                paused: true,
                trace_utilization: true,
            });
            let handles: Vec<JobHandle> = queries
                .chunks(chunk)
                .map(|qs| {
                    server
                        .submit(JobSpec::sw_batch(
                            "batch",
                            qs.to_vec(),
                            mode,
                            CncVariant::Native,
                        ))
                        .expect("queue sized for the stream")
                })
                .collect();
            let start = Instant::now();
            server.resume();
            let outcomes: Vec<(bool, f64)> = handles.iter().map(wait_ms).collect();
            let wall_s = start.elapsed().as_secs_f64();
            server.shutdown();
            rows.push(summarize(
                "swbatch",
                label.to_string(),
                params.queries as u64,
                0,
                &outcomes,
                wall_s,
                chunk as f64,
            ));
        }
        rows
    }

    /// All sections of `results/server_load.csv`, in committed order.
    pub fn server_load_rows(params: &LoadParams) -> Vec<LoadRow> {
        let mut rows = mixed_rows(params);
        rows.extend(swbatch_rows(params));
        rows
    }

    /// Renders rows as the committed CSV.
    pub fn server_load_csv(rows: &[LoadRow]) -> String {
        let mut csv = String::from(
            "section,label,jobs,completed,failed,rejected,throughput_per_s,p50_ms,p95_ms,p99_ms\n",
        );
        for r in rows {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3}\n",
                r.section,
                r.label,
                r.jobs,
                r.completed,
                r.failed,
                r.rejected,
                r.throughput,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms
            ));
        }
        csv
    }
}

/// Per-tile kernel timing, the autotuner's model-vs-measured audit, and
/// the fork-join/data-flow crossover shift, behind
/// `results/tile_autotune.csv`.
///
/// Long-format rows `section,kernel,backend,n,base,metric,value`:
///
/// * **pertile** — measured ns per work unit of one base-case tile per
///   kernel, tile size, and backend (`scalar` vs `simd`; the vector
///   backend exists for GE and FW only). Tiles run on a `2m x 2m`
///   working set, the steady-state shape of an R-DP run.
/// * **simd** — per-tile vector speedup (`scalar / simd` time) derived
///   from the pertile section, plus one `vector_backend_active` row
///   recording whether this build + CPU actually ran vector code
///   (without the `simd` feature both backends are the scalar kernel
///   and the speedups sit at ~1).
/// * **model** — the autotuner's three stages per candidate base:
///   closed-form miss-model score, cache-simulator replay (GE/FW, small
///   tiles), and the calibration measurement, all in ns per work unit.
/// * **autotune** — the chosen base per kernel, the deepest-private-
///   level fitting tile, and `speedup_vs_base8`: measured per-tile time
///   at the fixed base 8 over the autotuned base. The tuner picks the
///   measured argmin over all candidates, so this is `>= 1` by
///   construction; the committed golden shows how much headroom the
///   fixed base leaves on a real machine.
/// * **crossover** — wall time of full GE/FW runs under fork-join vs
///   data-flow (CnC) over a base grid, per backend, plus a
///   `crossover_base` summary row: the smallest base where data-flow
///   wins (0 when fork-join holds the whole grid). Comparing the
///   scalar and simd summaries shows the paper's Sec. IV effect —
///   shrinking per-tile cost moves the crossover.
///
/// Every timing cell is machine-dependent; the golden test validates
/// the row skeleton and the invariants above, never timing values.
pub mod tile {
    use std::time::Duration;

    use recdp::{run_benchmark, Benchmark, Execution};
    use recdp_kernels::simd::{set_simd_enabled, simd_active, simd_supported};
    use recdp_kernels::tune::calibrate;
    use recdp_kernels::{tune, CncVariant, TuneKernel, TuneOptions};
    use recdp_machine::host_geometry;

    /// Tile-size axis of the pertile/simd sections.
    pub const PERTILE_BASES: [usize; 5] = [8, 16, 32, 64, 128];
    /// Problem size the model/autotune sections tune for.
    pub const MODEL_N: usize = 256;
    /// Problem size of the crossover section.
    pub const CROSSOVER_N: usize = 128;
    /// Base-size axis of the crossover section.
    pub const CROSSOVER_BASES: [usize; 3] = [8, 16, 32];
    /// Worker threads of the crossover runs.
    pub const CROSSOVER_THREADS: usize = 4;

    /// All four kernels, CSV order.
    pub const KERNELS: [TuneKernel; 4] = [
        TuneKernel::Ge,
        TuneKernel::Fw,
        TuneKernel::Sw,
        TuneKernel::Paren,
    ];
    /// The kernels with a vector backend.
    pub const VECTOR_KERNELS: [TuneKernel; 2] = [TuneKernel::Ge, TuneKernel::Fw];

    /// Measurement-effort knobs. Both grids emit the **same rows**; only
    /// budgets and repetitions differ, so the quick regeneration matches
    /// the committed skeleton cell for cell.
    #[derive(Debug, Clone)]
    pub struct TileParams {
        /// Timing budget per (kernel, base, backend) point.
        pub budget: Duration,
        /// Crossover repetitions per point (minimum wall time wins).
        pub reps: usize,
    }

    /// CI/golden-test effort.
    pub const QUICK: TileParams = TileParams {
        budget: Duration::from_micros(200),
        reps: 1,
    };

    /// Effort of the committed CSV.
    pub const FULL: TileParams = TileParams {
        budget: Duration::from_millis(5),
        reps: 3,
    };

    /// One long-format CSV row.
    #[derive(Debug, Clone)]
    pub struct TileRow {
        /// Section label (`pertile` / `simd` / `model` / `autotune` /
        /// `crossover`).
        pub section: &'static str,
        /// Kernel label (`ge` / `fw` / `sw` / `paren`, or `-`).
        pub kernel: &'static str,
        /// Backend label (`scalar` / `simd`, or `-` where the metric is
        /// backend-independent).
        pub backend: &'static str,
        /// Working-set or problem side the metric was taken at (0 for
        /// summary rows).
        pub n: usize,
        /// Base-case size the metric was taken at (0 for summary rows).
        pub base: usize,
        /// Metric name.
        pub metric: &'static str,
        /// Metric value.
        pub value: f64,
    }

    /// Backends a kernel can time.
    fn backends_for(kernel: TuneKernel) -> &'static [&'static str] {
        match kernel {
            TuneKernel::Ge | TuneKernel::Fw => &["scalar", "simd"],
            TuneKernel::Sw | TuneKernel::Paren | TuneKernel::Lcs => &["scalar"],
        }
    }

    /// Runs `f` with the dispatcher pinned to `backend`, restoring the
    /// previous backend afterwards. Requesting `simd` without vector
    /// support silently times the scalar path (the dispatcher's own
    /// fallback), which is exactly what that build would execute.
    fn with_backend<T>(backend: &str, f: impl FnOnce() -> T) -> T {
        let initial = simd_active();
        set_simd_enabled(backend == "simd");
        let out = f();
        set_simd_enabled(initial);
        out
    }

    /// The pertile section: every kernel x backend x tile size, timed
    /// by the tuner's own calibration measurement ([`calibrate`]: one
    /// base-case tile through the dispatcher on a `2m x 2m` working
    /// set, ns per work unit) with the dispatcher pinned per backend.
    pub fn pertile_rows(params: &TileParams) -> Vec<TileRow> {
        let mut rows = Vec::new();
        for kernel in KERNELS {
            for &backend in backends_for(kernel) {
                for m in PERTILE_BASES {
                    let value = with_backend(backend, || calibrate(kernel, m, params.budget));
                    rows.push(TileRow {
                        section: "pertile",
                        kernel: kernel.label(),
                        backend,
                        n: 2 * m,
                        base: m,
                        metric: "ns_per_unit",
                        value,
                    });
                }
            }
        }
        rows
    }

    /// The simd section, derived from the pertile rows.
    pub fn simd_rows(pertile: &[TileRow]) -> Vec<TileRow> {
        let time_of = |kernel: &str, backend: &str, m: usize| {
            pertile
                .iter()
                .find(|r| r.kernel == kernel && r.backend == backend && r.base == m)
                .expect("pertile grid covers every (kernel, backend, base)")
                .value
        };
        let mut rows = Vec::new();
        for kernel in VECTOR_KERNELS {
            for m in PERTILE_BASES {
                let scalar = time_of(kernel.label(), "scalar", m);
                let simd = time_of(kernel.label(), "simd", m);
                rows.push(TileRow {
                    section: "simd",
                    kernel: kernel.label(),
                    backend: "simd",
                    n: 2 * m,
                    base: m,
                    metric: "simd_speedup",
                    value: scalar / simd.max(f64::MIN_POSITIVE),
                });
            }
        }
        rows.push(TileRow {
            section: "simd",
            kernel: "-",
            backend: "simd",
            n: 0,
            base: 0,
            metric: "vector_backend_active",
            value: simd_supported() as u8 as f64,
        });
        rows
    }

    /// The model and autotune sections: one tuning run per kernel with
    /// every candidate measured (infinite shortlist slack), so the CSV
    /// carries all three stages for every base and `speedup_vs_base8`
    /// always has both endpoints.
    pub fn autotune_rows(params: &TileParams) -> Vec<TileRow> {
        let geometry = host_geometry();
        let opts = TuneOptions {
            min_base: PERTILE_BASES[0],
            max_base: PERTILE_BASES[PERTILE_BASES.len() - 1],
            calib_budget: params.budget,
            model_slack: f64::INFINITY,
            ..TuneOptions::default()
        };
        let mut model = Vec::new();
        let mut autotune = Vec::new();
        for kernel in KERNELS {
            let report = tune(kernel, MODEL_N, &geometry, &opts);
            let measured_at = |base: usize| {
                report
                    .candidates
                    .iter()
                    .find(|c| c.base == base)
                    .and_then(|c| c.measured_ns_per_unit)
                    .expect("infinite slack measures every candidate")
            };
            for c in &report.candidates {
                let mut push = |metric: &'static str, value: f64| {
                    model.push(TileRow {
                        section: "model",
                        kernel: kernel.label(),
                        backend: "-",
                        n: MODEL_N,
                        base: c.base,
                        metric,
                        value,
                    });
                };
                push("model_ns_per_unit", c.model_ns_per_unit);
                if let Some(sim) = c.sim_ns_per_unit {
                    push("sim_ns_per_unit", sim);
                }
                if let Some(measured) = c.measured_ns_per_unit {
                    push("measured_ns_per_unit", measured);
                }
            }
            let mut push = |metric: &'static str, value: f64| {
                autotune.push(TileRow {
                    section: "autotune",
                    kernel: kernel.label(),
                    backend: "-",
                    n: MODEL_N,
                    base: 0,
                    metric,
                    value,
                });
            };
            push("chosen_base", report.chosen as f64);
            push("fits_private", report.fits_private as f64);
            push(
                "speedup_vs_base8",
                measured_at(opts.min_base) / measured_at(report.chosen),
            );
        }
        model.extend(autotune);
        model
    }

    /// The crossover section: full GE/FW runs, fork-join vs data-flow,
    /// per backend over the base grid, with a `crossover_base` summary.
    pub fn crossover_rows(params: &TileParams) -> Vec<TileRow> {
        let benchmark_of = |kernel: TuneKernel| match kernel {
            TuneKernel::Ge => Benchmark::Ge,
            TuneKernel::Fw => Benchmark::Fw,
            _ => unreachable!("only vector kernels cross over here"),
        };
        let mut rows = Vec::new();
        for kernel in VECTOR_KERNELS {
            let benchmark = benchmark_of(kernel);
            for &backend in backends_for(kernel) {
                let mut crossover_base = 0usize;
                for base in CROSSOVER_BASES {
                    let time = |execution: Execution| {
                        with_backend(backend, || {
                            (0..params.reps.max(1))
                                .map(|_| {
                                    run_benchmark(
                                        benchmark,
                                        execution,
                                        CROSSOVER_N,
                                        base,
                                        CROSSOVER_THREADS,
                                    )
                                    .seconds
                                        * 1e9
                                })
                                .fold(f64::INFINITY, f64::min)
                        })
                    };
                    let forkjoin = time(Execution::ForkJoin);
                    let cnc = time(Execution::Cnc(CncVariant::Native));
                    if crossover_base == 0 && cnc < forkjoin {
                        crossover_base = base;
                    }
                    let mut push = |metric: &'static str, value: f64| {
                        rows.push(TileRow {
                            section: "crossover",
                            kernel: kernel.label(),
                            backend,
                            n: CROSSOVER_N,
                            base,
                            metric,
                            value,
                        });
                    };
                    push("forkjoin_wall_ns", forkjoin);
                    push("cnc_wall_ns", cnc);
                }
                rows.push(TileRow {
                    section: "crossover",
                    kernel: kernel.label(),
                    backend,
                    n: CROSSOVER_N,
                    base: 0,
                    metric: "crossover_base",
                    value: crossover_base as f64,
                });
            }
        }
        rows
    }

    /// All sections of `results/tile_autotune.csv`, committed order.
    pub fn tile_rows(params: &TileParams) -> Vec<TileRow> {
        let pertile = pertile_rows(params);
        let simd = simd_rows(&pertile);
        let mut rows = pertile;
        rows.extend(simd);
        rows.extend(autotune_rows(params));
        rows.extend(crossover_rows(params));
        rows
    }

    /// Renders rows as the committed CSV.
    pub fn tile_csv(rows: &[TileRow]) -> String {
        let mut csv = String::from("section,kernel,backend,n,base,metric,value\n");
        for r in rows {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.6}\n",
                r.section, r.kernel, r.backend, r.n, r.base, r.metric, r.value
            ));
        }
        csv
    }
}

pub mod rway_sweep {
    //! The decomposition-width sweep (`results/rway_sweep.csv`): every
    //! extended benchmark under fork-join at `r` in {2, 4, 8}, with the
    //! measured join count, the `recdp-taskgraph` r-way model's
    //! prediction, the traced join-idle/starvation time, and the output
    //! digest.
    //!
    //! The join columns are exact (deterministic stage structure, so
    //! measured must equal the model wherever a model exists); the
    //! timing columns are wall-clock and only structurally validated.
    //! The digest column is the paper's correctness anchor: it must be
    //! constant across `r` — the decomposition reshapes the schedule,
    //! never the arithmetic.

    use recdp::prelude::*;
    use recdp_taskgraph::rway;

    /// Problem size of the sweep.
    pub const SWEEP_N: usize = 256;
    /// Base (tile) size: `t = SWEEP_N / SWEEP_BASE = 64` tiles per
    /// side, a power of 2, 4 and 8 simultaneously, so every swept
    /// width recurses at full radix (the aligned case the model
    /// predicts exactly).
    pub const SWEEP_BASE: usize = 4;
    /// Worker threads of the measured runs.
    pub const SWEEP_THREADS: usize = 4;
    /// The swept decomposition widths.
    pub const SWEEP_WIDTHS: [u32; 3] = [2, 4, 8];
    /// Wide-stage forking grain of the counting runs.
    pub const SWEEP_GRAIN: usize = 1;

    /// One row of the sweep: a (benchmark, r) point.
    #[derive(Debug, Clone)]
    pub struct RwayRow {
        /// Benchmark label.
        pub bench: &'static str,
        /// Decomposition width.
        pub r: u32,
        /// Tiles per side.
        pub t: usize,
        /// Joins the fork-join engine actually executed (one per
        /// forked stage barrier) at [`SWEEP_GRAIN`].
        pub joins_measured: u64,
        /// The taskgraph r-way model's predicted join count; `None`
        /// for Paren, which has no closed r-way model yet.
        pub joins_model: Option<u64>,
        /// Total owner-side join wait across workers (traced run).
        pub join_idle_ns: u64,
        /// Total mid-run worker starvation (traced run).
        pub starved_ns: u64,
        /// Wall-clock milliseconds of the traced fork-join run.
        pub fj_ms: f64,
        /// [`Matrix::bit_digest`] of the output table.
        pub digest: u64,
    }

    fn model_joins(benchmark: Benchmark, t: usize, r: u32, grain: usize) -> Option<u64> {
        match benchmark {
            Benchmark::Ge => Some(rway::ge_join_count(t, r as usize, grain)),
            Benchmark::Fw => Some(rway::fw_join_count(t, r as usize, grain)),
            // LCS shares SW's wavefront recursion, hence SW's model.
            Benchmark::Sw | Benchmark::Lcs => Some(rway::sw_join_count(t, r as usize, grain)),
            Benchmark::Paren => None,
        }
    }

    /// Runs the sweep: `Benchmark::EXTENDED` x [`SWEEP_WIDTHS`].
    pub fn rway_sweep_rows() -> Vec<RwayRow> {
        let pool = ThreadPoolBuilder::new().num_threads(SWEEP_THREADS).build();
        let t = SWEEP_N / SWEEP_BASE;
        let mut rows = Vec::new();
        for benchmark in Benchmark::EXTENDED {
            for r in SWEEP_WIDTHS {
                let decomp = Decomposition::new(r);
                let mut p = prepare_job_with(benchmark, SWEEP_N, SWEEP_BASE, decomp);
                let counting = RunEnv {
                    pool: Some(&pool),
                    count_joins: Some(SWEEP_GRAIN),
                    ..RunEnv::default()
                };
                let joins_measured = p
                    .run(Execution::ForkJoin, counting)
                    .expect("fork-join runs are infallible")
                    .joins
                    .expect("asked for the join count");
                let out = execute(&Run {
                    decomposition: decomp,
                    trace: true,
                    ..Run::new(
                        benchmark,
                        Execution::ForkJoin,
                        SWEEP_N,
                        SWEEP_BASE,
                        SWEEP_THREADS,
                    )
                })
                .expect("fork-join runs are infallible");
                let report = out.trace.expect("asked for a trace").report();
                rows.push(RwayRow {
                    bench: benchmark.name(),
                    r,
                    t,
                    joins_measured,
                    joins_model: model_joins(benchmark, t, r, SWEEP_GRAIN),
                    join_idle_ns: report.join_idle_ns,
                    starved_ns: report.starved_ns,
                    fj_ms: out.seconds * 1e3,
                    digest: out.table.bit_digest(),
                });
            }
        }
        rows
    }

    /// Long-format CSV; `joins_model` is `-` where no model exists.
    pub fn rway_sweep_csv(rows: &[RwayRow]) -> String {
        let mut csv = String::from(
            "bench,r,n,base,t,threads,joins_measured,joins_model,join_idle_ns,starved_ns,fj_ms,digest\n",
        );
        for row in rows {
            let model = row
                .joins_model
                .map_or_else(|| "-".to_string(), |m| m.to_string());
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{:.3},{:016x}\n",
                row.bench,
                row.r,
                SWEEP_N,
                SWEEP_BASE,
                row.t,
                SWEEP_THREADS,
                row.joins_measured,
                model,
                row.join_idle_ns,
                row.starved_ns,
                row.fj_ms,
                row.digest,
            ));
        }
        csv
    }
}

/// EXTRA-INTEGRITY: the silent-corruption chaos study behind
/// `results/integrity.csv`.
///
/// Every extended benchmark runs under both parallel runtimes
/// (fork-join and data-flow) with a seeded [`recdp_faults::FaultPlan`]
/// flipping bits in freshly written tiles (and, on the data-flow
/// runtime, mangling item payloads). Two sections:
///
/// * **detect** — at a fixed corruption rate, sweep the verification
///   sampling rate from `Sample(0.0)` (inject but never check — the
///   silent-corruption baseline) up to `Full`. Detection counts are
///   seeded rolls over the tile grid, so they are schedule-independent
///   exact columns; the detection rate must be monotone in the
///   sampling rate and reach 1.0 at `Full`, where the healed table is
///   bitwise-identical to the serial loops oracle.
/// * **repair** — at `Full` verification, sweep the corruption rate
///   and record the self-healing work (tiles recomputed from their
///   pre-image) plus the checked run's wall-clock overhead over an
///   unchecked run of the same runtime. Only the `seconds`/`overhead`
///   columns are timing-dependent; everything else is exact.
pub mod integrity {
    use std::sync::Arc;
    use std::time::Instant;

    use recdp::{prepare_job_with, run_benchmark, Benchmark, Execution, RunEnv};
    use recdp_cnc::{CncGraph, FaultInjector};
    use recdp_faults::FaultPlan;
    use recdp_forkjoin::{ThreadPool, ThreadPoolBuilder};
    use recdp_kernels::{
        CncVariant, Decomposition, IntegrityConfig, IntegrityMode, IntegrityReport,
    };

    /// Problem size (test-sized: the golden regenerates inside the
    /// goldens test).
    pub const N: usize = 64;
    /// Base-case tile size.
    pub const BASE: usize = 16;
    /// Fault-plan and sampling seed — replaying it reproduces every
    /// count column bit-for-bit.
    pub const SEED: u64 = 0xBADC0DE;
    /// Worker threads for both runtimes.
    pub const THREADS: usize = 4;
    /// Cell-corruption rate of the detection sweep.
    pub const DETECT_RATE: f64 = 0.25;
    /// Sampling rates swept by the detection section (1.0 runs `Full`).
    pub const SAMPLE_RATES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
    /// Corruption rates swept by the repair-overhead section.
    pub const REPAIR_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.25];
    /// Repair budget. Injection rerolls per attempt, so a corrupted
    /// tile escalates with probability `rate^(attempts + 1)` — at the
    /// rates above, 16 attempts make escalation numerically impossible
    /// while keeping the repair loop honest.
    pub const REPAIR_ATTEMPTS: u32 = 16;

    /// One chaos-study row.
    #[derive(Debug, Clone)]
    pub struct IntegrityRow {
        /// `detect` or `repair`.
        pub section: &'static str,
        /// Benchmark label (GE / SW / FW / PAREN / LCS).
        pub benchmark: &'static str,
        /// `forkjoin` or `cnc`.
        pub runtime: &'static str,
        /// Verification sampling rate (1.0 means `Full`).
        pub sample_rate: f64,
        /// Cell (and, on `cnc`, put) corruption rate.
        pub corruption_rate: f64,
        /// Tiles whose output digest was checked.
        pub tiles_verified: u64,
        /// Cell corruptions the digest check caught (including
        /// re-corrupted repair attempts).
        pub corruptions_detected: u64,
        /// Corrupted tiles healed by recompute-from-pre-image.
        pub tiles_recomputed: u64,
        /// Mangled item payloads caught by consumers (always 0 on
        /// fork-join, which has no puts).
        pub put_corruptions_detected: u64,
        /// Detections at this sampling rate over detections at `Full`
        /// (same benchmark, runtime and corruption rate).
        pub detection_rate: f64,
        /// Whether the final table is bitwise-identical to the serial
        /// loops oracle.
        pub digest_match: bool,
        /// Checked-run wall time (timing column — not golden-exact).
        pub seconds: f64,
        /// `seconds` over an unchecked run of the same runtime (timing
        /// column — not golden-exact).
        pub overhead: f64,
    }

    struct ChaosRun {
        report: IntegrityReport,
        digest: u64,
        seconds: f64,
    }

    fn injector(runtime: &str, rate: f64) -> Arc<dyn FaultInjector> {
        let plan = FaultPlan::new(SEED).corrupt_cells(rate);
        if runtime == "cnc" {
            Arc::new(plan.corrupt_puts(rate))
        } else {
            Arc::new(plan)
        }
    }

    /// One run of `benchmark` on `runtime`, checked under `integrity`
    /// or unchecked.
    fn chaos_run(
        benchmark: Benchmark,
        runtime: &str,
        pool: &ThreadPool,
        integrity: Option<IntegrityConfig>,
    ) -> ChaosRun {
        let mut p = prepare_job_with(benchmark, N, BASE, Decomposition::BINARY);
        let execution = match runtime {
            "forkjoin" => Execution::ForkJoin,
            "cnc" => Execution::Cnc(CncVariant::Native),
            other => panic!("unknown runtime {other:?}"),
        };
        let start = Instant::now();
        let graph = matches!(execution, Execution::Cnc(_)).then(|| CncGraph::with_threads(THREADS));
        let env = RunEnv {
            pool: Some(pool),
            graph: graph.as_ref(),
            integrity,
            count_joins: None,
        };
        let ran = p.run(execution, env).expect("chaos run");
        let seconds = start.elapsed().as_secs_f64();
        ChaosRun {
            report: ran.integrity.unwrap_or_default(),
            digest: p.into_table().bit_digest(),
            seconds,
        }
    }

    fn checked_run(
        benchmark: Benchmark,
        runtime: &str,
        pool: &ThreadPool,
        mode: IntegrityMode,
        rate: f64,
    ) -> ChaosRun {
        let cfg = IntegrityConfig::new(mode)
            .with_injector(injector(runtime, rate))
            .with_seed(SEED)
            .with_max_repair_attempts(REPAIR_ATTEMPTS);
        chaos_run(benchmark, runtime, pool, Some(cfg))
    }

    /// Runs the whole chaos study (both sections, every benchmark,
    /// both runtimes).
    pub fn integrity_rows() -> Vec<IntegrityRow> {
        let pool = ThreadPoolBuilder::new().num_threads(THREADS).build();
        let mut rows = Vec::new();
        for benchmark in Benchmark::EXTENDED {
            let oracle = run_benchmark(benchmark, Execution::SerialLoops, N, BASE, 1)
                .table
                .bit_digest();
            for runtime in ["forkjoin", "cnc"] {
                // Unchecked wall time of the same job on the same runtime
                // — the overhead denominator.
                let baseline = chaos_run(benchmark, runtime, &pool, None).seconds.max(1e-9);
                // Full-mode detections are the detection-rate
                // denominator: sampled sets nest by rate (one roll per
                // tile) and repair rolls are keyed per (tile, attempt),
                // so every partial-sampling count is a subset of this.
                let full = checked_run(benchmark, runtime, &pool, IntegrityMode::Full, DETECT_RATE);
                for &sample_rate in &SAMPLE_RATES {
                    let run = if sample_rate >= 1.0 {
                        checked_run(benchmark, runtime, &pool, IntegrityMode::Full, DETECT_RATE)
                    } else {
                        checked_run(
                            benchmark,
                            runtime,
                            &pool,
                            IntegrityMode::Sample(sample_rate),
                            DETECT_RATE,
                        )
                    };
                    rows.push(IntegrityRow {
                        section: "detect",
                        benchmark: benchmark.name(),
                        runtime,
                        sample_rate,
                        corruption_rate: DETECT_RATE,
                        tiles_verified: run.report.tiles_verified,
                        corruptions_detected: run.report.corruptions_detected,
                        tiles_recomputed: run.report.tiles_recomputed,
                        put_corruptions_detected: run.report.put_corruptions_detected,
                        detection_rate: run.report.corruptions_detected as f64
                            / full.report.corruptions_detected.max(1) as f64,
                        digest_match: run.digest == oracle,
                        seconds: run.seconds,
                        overhead: run.seconds / baseline,
                    });
                }
                for &corruption_rate in &REPAIR_RATES {
                    let run = checked_run(
                        benchmark,
                        runtime,
                        &pool,
                        IntegrityMode::Full,
                        corruption_rate,
                    );
                    rows.push(IntegrityRow {
                        section: "repair",
                        benchmark: benchmark.name(),
                        runtime,
                        sample_rate: 1.0,
                        corruption_rate,
                        tiles_verified: run.report.tiles_verified,
                        corruptions_detected: run.report.corruptions_detected,
                        tiles_recomputed: run.report.tiles_recomputed,
                        put_corruptions_detected: run.report.put_corruptions_detected,
                        detection_rate: 1.0,
                        digest_match: run.digest == oracle,
                        seconds: run.seconds,
                        overhead: run.seconds / baseline,
                    });
                }
            }
        }
        rows
    }

    /// Renders rows in the committed `results/integrity.csv` layout.
    pub fn integrity_csv(rows: &[IntegrityRow]) -> String {
        let mut csv = String::from(
            "section,benchmark,runtime,sample_rate,corruption_rate,tiles_verified,\
             corruptions_detected,tiles_recomputed,put_corruptions_detected,\
             detection_rate,digest_match,seconds,overhead\n",
        );
        for row in rows {
            csv.push_str(&format!(
                "{},{},{},{:.2},{:.2},{},{},{},{},{:.4},{},{:.6},{:.3}\n",
                row.section,
                row.benchmark,
                row.runtime,
                row.sample_rate,
                row.corruption_rate,
                row.tiles_verified,
                row.corruptions_detected,
                row.tiles_recomputed,
                row.put_corruptions_detected,
                row.detection_rate,
                row.digest_match as u8,
                row.seconds,
                row.overhead,
            ));
        }
        csv
    }
}
