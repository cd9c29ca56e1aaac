//! Running the real benchmark kernels under any execution model.
//!
//! Every benchmark is dispatched through its [`recdp_kernels::DpSpec`]
//! implementation and the three generic engines in
//! `recdp_kernels::engine`; the only per-benchmark code here is input
//! generation and the serial loops oracle (which is hand-written per
//! benchmark by design — it is the ground truth the engines are
//! checked against).
//!
//! | function | |
//! |---|---|
//! | [`execute`] | one [`Run`] — benchmark, execution, sizes, width, where, trace, resilience — end to end |
//! | [`run_benchmark`] | shorthand for `execute(&Run::new(..))` |
//! | [`prepare_job_with`], [`prepare_sw_query`] | the input instance alone, as a [`PreparedJob`] to [`run`](PreparedJob::run) on a pool or graph the caller owns |
//! | [`auto_base`] | what [`AUTO_BASE`] resolves to |

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use recdp_cnc::{Checkpoint, CncError, CncGraph, FaultInjector, GraphStats, RetryPolicy};
use recdp_forkjoin::{RecoveryMode, ThreadPool, ThreadPoolBuilder};
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{engine, fw, ge, lcs, paren, sw, CncVariant, Decomposition, Matrix};
use recdp_kernels::{fw::FwSpec, ge::GeSpec, lcs::LcsSpec, paren::ParenSpec, sw::SwSpec};
use recdp_kernels::{tuned_base, TileKey, TuneKernel};
use recdp_kernels::{
    IntegrityConfig, IntegrityEvent, IntegrityObserver, IntegrityOptions, IntegrityReport,
    IntegrityState,
};
use recdp_trace::{EventKind, TraceSession, Tracer};

/// Sentinel base-case size meaning "let the autotuner decide": every
/// entry point taking a `base` resolves this to [`auto_base`] before
/// validating. `0` can never be a legal base (bases are powers of two),
/// so the sentinel is unambiguous.
pub const AUTO_BASE: usize = 0;

/// The DP benchmarks: the paper's three plus the matrix-chain
/// parenthesization and LCS-with-traceback extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// Gaussian Elimination without pivoting.
    Ge,
    /// Smith-Waterman local alignment.
    Sw,
    /// Floyd-Warshall all-pairs shortest paths.
    Fw,
    /// Matrix-chain parenthesization (non-O(1)-dependency DP).
    Paren,
    /// Longest common subsequence with traceback.
    Lcs,
}

impl Benchmark {
    /// The paper's three benchmarks, paper order. Figure reproduction
    /// (and the committed golden CSVs) enumerate exactly these.
    pub const ALL: [Benchmark; 3] = [Benchmark::Ge, Benchmark::Sw, Benchmark::Fw];

    /// Every benchmark in the suite: the paper's three plus the
    /// extensions, in addition order. This is the single growth point —
    /// a new benchmark is appended here (and nowhere else) to enter
    /// every cross-model equivalence, determinism and server test.
    pub const EXTENDED: [Benchmark; 5] = [
        Benchmark::Ge,
        Benchmark::Sw,
        Benchmark::Fw,
        Benchmark::Paren,
        Benchmark::Lcs,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Ge => "GE",
            Benchmark::Sw => "SW",
            Benchmark::Fw => "FW-APSP",
            Benchmark::Paren => "PAREN",
            Benchmark::Lcs => "LCS",
        }
    }
}

/// How to execute a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Serial iterative loops (Listing 2).
    SerialLoops,
    /// Serial recursive divide-and-conquer.
    SerialRdp,
    /// Fork-join R-DP on the bundled work-stealing pool (Listing 3).
    ForkJoin,
    /// Data-flow R-DP on the bundled CnC runtime (Listings 4-5).
    Cnc(CncVariant),
}

impl Execution {
    /// Display label matching the paper's series names.
    pub fn label(self) -> &'static str {
        match self {
            Execution::SerialLoops => "serial-loops",
            Execution::SerialRdp => "serial-rdp",
            Execution::ForkJoin => "OpenMP",
            Execution::Cnc(v) => v.label(),
        }
    }
}

/// Result of one real execution.
#[derive(Debug)]
pub struct RunOutput {
    /// The computed DP table (GE factor table / SW score table / FW
    /// distance table / parenthesization cost table).
    pub table: Matrix,
    /// Wall-clock seconds of the computation proper: excludes input
    /// generation and, for a private pool ([`RunOn::Threads`]), building
    /// the pool and joining its workers.
    pub seconds: f64,
    /// CnC runtime statistics when `Execution::Cnc` was used
    /// (`steps_retried` / `faults_injected` / `steps_skipped` /
    /// `items_restored` quantify the resilience cost).
    pub cnc_stats: Option<GraphStats>,
    /// What the integrity layer saw when the run was executed under a
    /// non-[`Off`](recdp_kernels::IntegrityMode::Off) policy (see
    /// [`ResilienceOptions::integrity`]); `None` for unchecked runs.
    /// An unrepairable tile is carried in [`IntegrityReport::error`] —
    /// callers escalate via [`IntegrityReport::ok`].
    pub integrity: Option<IntegrityReport>,
    /// The recorded timeline when [`Run::trace`] was set.
    pub trace: Option<TraceSession>,
}

/// A benchmark's spec, erased to one dispatchable type (the `DpSpec`
/// trait is not object safe — it requires `Clone` — so the engines are
/// reached through a `match` instead of a vtable).
enum AnySpec {
    Ge(GeSpec),
    Sw(SwSpec),
    Fw(FwSpec),
    Paren(ParenSpec),
    Lcs(LcsSpec),
}

macro_rules! with_spec {
    ($any:expr, $s:ident => $body:expr) => {
        match $any {
            AnySpec::Ge($s) => $body,
            AnySpec::Sw($s) => $body,
            AnySpec::Fw($s) => $body,
            AnySpec::Paren($s) => $body,
            AnySpec::Lcs($s) => $body,
        }
    };
}

/// What [`PreparedJob::run`] executes on and under. Each model reads
/// only the fields it needs: a serial run is `RunEnv::default()`.
#[derive(Clone, Default)]
pub struct RunEnv<'a> {
    /// The pool the fork-join engine installs into; it outlives the job
    /// and can serve many jobs back-to-back.
    pub pool: Option<&'a ThreadPool>,
    /// The graph the data-flow engine registers on and waits for. The
    /// caller builds it (only for [`Execution::Cnc`]), arms its retry
    /// policy, deadline, fault injector, tracer or cancel token, and
    /// keeps it — e.g. to checkpoint a timed-out run.
    pub graph: Option<&'a CncGraph>,
    /// Integrity runtime configuration; `None` runs unchecked. A
    /// *declared* policy becomes this through
    /// [`IntegrityOptions::config`], which alone decides whether a run
    /// is checked.
    pub integrity: Option<IntegrityConfig>,
    /// Fork-join only: count the joins the schedule executes (the
    /// paper's artificial-dependency count) while forking at this grain
    /// — sibling groups of at most `grain` calls run serially. `None`
    /// forks at grain 1 and counts nothing.
    pub count_joins: Option<usize>,
}

/// What one [`PreparedJob::run`] produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobRun {
    /// The graph's statistics (data-flow runs).
    pub cnc_stats: Option<GraphStats>,
    /// What the integrity layer saw (runs with [`RunEnv::integrity`]).
    /// An unrepairable tile is carried in [`IntegrityReport::error`];
    /// the graph's structured error takes precedence over it.
    pub integrity: Option<IntegrityReport>,
    /// Joins executed (fork-join runs with [`RunEnv::count_joins`]).
    pub joins: Option<u64>,
}

/// A generated input instance ready to run under any execution model:
/// the table (which the spec's `TablePtr` points into), the erased
/// spec, and the benchmark's serial loops oracle closed over its
/// inputs.
///
/// This is the unit of work a long-lived executor (e.g.
/// `recdp-server`) schedules: prepare once, then run on whatever pool
/// or graph the host provides. The job is `Send`, so it can be
/// prepared on a submission thread and executed on a runner thread.
///
/// | method | |
/// |---|---|
/// | [`run`](Self::run) | the one place a job executes, under any [`Execution`] |
/// | [`register_cnc`](Self::register_cnc) | registration without the wait, for batching many jobs on one graph |
/// | [`forkjoin_join_count`](Self::forkjoin_join_count) | static join-count predictor |
/// | [`table`](Self::table), [`into_table`](Self::into_table) | the result |
/// | `run_loops`, `run_serial_rdp`, `run_forkjoin`, `run_cnc_on`, `run_forkjoin_checked` | one-line shorthands for `run`, kept because `perf/src/adapter.rs` pins their names |
pub struct PreparedJob {
    table: Matrix,
    spec: AnySpec,
    loops: Box<dyn Fn(&mut Matrix) + Send + Sync>,
}

/// Why unwrapping a non-data-flow [`PreparedJob::run`] cannot fail.
const ONLY_GRAPHS_FAIL: &str = "only data-flow runs return errors";

impl PreparedJob {
    fn new(
        table: Matrix,
        spec: AnySpec,
        loops: impl Fn(&mut Matrix) + Send + Sync + 'static,
    ) -> Self {
        PreparedJob {
            table,
            spec,
            loops: Box::new(loops),
        }
    }

    /// Runs the job under `execution` — every caller ([`execute`], the
    /// job server, the `recdp-bench` studies) reaches the engines through
    /// here. Only data-flow runs can fail, with the graph's structured
    /// error.
    ///
    /// # Panics
    /// If `env` lacks the pool or graph the execution needs.
    pub fn run(&mut self, execution: Execution, env: RunEnv<'_>) -> Result<JobRun, CncError> {
        if execution == Execution::SerialLoops {
            // The hand-written oracle: the one model that takes the
            // table by `&mut`, and not tile-structured, so an integrity
            // policy has nothing to attach to.
            (self.loops)(&mut self.table);
            return Ok(JobRun::default());
        }
        self.run_rdp(execution, env)
    }

    /// [`Self::run`] for the three engine-backed models, which write the
    /// table through the spec's `TablePtr` and so need only `&self`.
    fn run_rdp(&self, execution: Execution, env: RunEnv<'_>) -> Result<JobRun, CncError> {
        let integrity = env.integrity.map(|cfg| Arc::new(IntegrityState::new(cfg)));
        let mut out = JobRun::default();
        with_spec!(&self.spec, s => match execution {
            Execution::SerialLoops => unreachable!("`run` handles the loops oracle"),
            Execution::SerialRdp => engine::run_serial(s, integrity.as_deref()),
            Execution::ForkJoin => {
                let pool = env.pool.expect("a fork-join run needs `RunEnv::pool`");
                let joins = env.count_joins.map(|_| AtomicU64::new(0));
                let grain = env.count_joins.unwrap_or(1);
                engine::run_forkjoin(s, pool, grain, joins.as_ref(), integrity.as_deref());
                out.joins = joins.map(AtomicU64::into_inner);
            }
            Execution::Cnc(variant) => {
                let graph = env.graph.expect("a data-flow run needs `RunEnv::graph`");
                out.cnc_stats = Some(engine::run_cnc(s, variant, graph, integrity.clone())?);
            }
        });
        out.integrity = integrity.map(|st| st.report());
        Ok(out)
    }

    /// Registers this job's collections and root tag on `graph`
    /// without waiting — the batching half of a data-flow
    /// [`Self::run`]: many small jobs registered on one graph execute as
    /// one coalesced wavefront behind one `graph.wait()`. On a checked
    /// registration the returned state yields its [`IntegrityReport`]
    /// after that wait (merge them with [`IntegrityReport::merge`]).
    pub fn register_cnc(
        &self,
        variant: CncVariant,
        graph: &CncGraph,
        integrity: Option<IntegrityConfig>,
    ) -> Option<Arc<IntegrityState>> {
        let integrity = integrity.map(|cfg| Arc::new(IntegrityState::new(cfg)));
        with_spec!(&self.spec, s => engine::register_cnc(s, variant, graph, integrity.clone()));
        integrity
    }

    /// The joins a fork-join run counts at [`RunEnv::count_joins`]
    /// `= Some(grain)`, by a static walk of the spec's expansion (no
    /// pool, no execution): the schedule-independent join count of the
    /// fork-join DAG at this decomposition width and grain.
    pub fn forkjoin_join_count(&self, grain: usize) -> u64 {
        with_spec!(&self.spec, s => engine::forkjoin_join_count(s, grain))
    }

    /// The DP table the job computes into.
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// Consumes the job, returning the computed table.
    pub fn into_table(self) -> Matrix {
        self.table
    }

    // The five shorthands below are pinned by name and signature in
    // `perf/src/adapter.rs`; each is one call onto `run` (the `&self`
    // ones onto `run_rdp`, its `&self` half).

    /// `run(Execution::SerialLoops, ..)`.
    pub fn run_loops(&mut self) {
        self.run(Execution::SerialLoops, RunEnv::default())
            .expect(ONLY_GRAPHS_FAIL);
    }

    /// `run(Execution::SerialRdp, ..)`.
    pub fn run_serial_rdp(&self) {
        self.run_rdp(Execution::SerialRdp, RunEnv::default())
            .expect(ONLY_GRAPHS_FAIL);
    }

    /// `run(Execution::ForkJoin, ..)` on `pool`.
    pub fn run_forkjoin(&self, pool: &ThreadPool) {
        let env = RunEnv {
            pool: Some(pool),
            ..RunEnv::default()
        };
        self.run_rdp(Execution::ForkJoin, env)
            .expect(ONLY_GRAPHS_FAIL);
    }

    /// `run(Execution::ForkJoin, ..)` on `pool` under an explicitly
    /// built integrity configuration.
    pub fn run_forkjoin_checked(&self, pool: &ThreadPool, cfg: IntegrityConfig) -> IntegrityReport {
        let env = RunEnv {
            pool: Some(pool),
            integrity: Some(cfg),
            ..RunEnv::default()
        };
        let ran = self.run_rdp(Execution::ForkJoin, env);
        let report = ran.expect(ONLY_GRAPHS_FAIL).integrity;
        report.expect("a run with an integrity configuration carries a report")
    }

    /// `run(Execution::Cnc(variant), ..)` on `graph`.
    pub fn run_cnc_on(
        &self,
        variant: CncVariant,
        graph: &CncGraph,
    ) -> Result<GraphStats, CncError> {
        let env = RunEnv {
            graph: Some(graph),
            ..RunEnv::default()
        };
        let ran = self.run_rdp(Execution::Cnc(variant), env)?;
        Ok(ran.cnc_stats.expect("a data-flow run carries stats"))
    }
}

/// The autotuned base-case size for `benchmark` at problem size `n` on
/// this host: one calibrated tuning run per kernel per process (see
/// `recdp_kernels::tune`), clamped to `n`. Tuning can never change
/// results — every base size produces bitwise-identical tables — so
/// this is purely a throughput knob.
///
/// The tuned base is additionally clamped so the top-level split is
/// genuinely `r`-wide (`r * base <= n` whenever `r <= n`). A base larger
/// than `n / r` would make the root region's effective radix smaller
/// than asked — legal (the kernels clamp), but it silently erases the
/// decomposition the caller chose, so the tuner backs the tile off
/// instead.
pub fn auto_base(benchmark: Benchmark, n: usize, decomposition: Decomposition) -> usize {
    let kernel = match benchmark {
        Benchmark::Ge => TuneKernel::Ge,
        Benchmark::Sw => TuneKernel::Sw,
        Benchmark::Fw => TuneKernel::Fw,
        Benchmark::Paren => TuneKernel::Paren,
        Benchmark::Lcs => TuneKernel::Lcs,
    };
    let widest = (n / decomposition.r() as usize).max(1);
    tuned_base(kernel, n).min(widest)
}

/// Resolves the [`AUTO_BASE`] sentinel, leaving explicit bases alone,
/// and validates the geometry.
fn resolve_base(
    benchmark: Benchmark,
    n: usize,
    base: usize,
    decomposition: Decomposition,
) -> usize {
    let base = if base == AUTO_BASE {
        auto_base(benchmark, n, decomposition)
    } else {
        base
    };
    assert!(
        n.is_power_of_two() && base.is_power_of_two() && base <= n,
        "n and base must be powers of two with base <= n"
    );
    base
}

/// Generates the standard seeded input for `benchmark` at size `n` as
/// a [`PreparedJob`]. `base` may be [`AUTO_BASE`] to use the host-tuned
/// tile size. The spec recurses into `r x r` sub-blocks per level for
/// the decomposition width `r`; the width is purely structural — every
/// `r` produces the bitwise-identical table — so prepared jobs at
/// different widths digest-match each other.
pub fn prepare_job_with(
    benchmark: Benchmark,
    n: usize,
    base: usize,
    decomposition: Decomposition,
) -> PreparedJob {
    const SEED: u64 = 0xD1CE;
    let base = resolve_base(benchmark, n, base, decomposition);
    match benchmark {
        Benchmark::Ge => {
            let mut table = ge_matrix(n, SEED);
            let spec = GeSpec::new(table.ptr(), base).with_decomposition(decomposition);
            PreparedJob::new(table, AnySpec::Ge(spec), ge::ge_loops)
        }
        Benchmark::Fw => {
            let mut table = fw_matrix(n, SEED, 0.35);
            let spec = FwSpec::new(table.ptr(), base).with_decomposition(decomposition);
            PreparedJob::new(table, AnySpec::Fw(spec), fw::fw_loops)
        }
        Benchmark::Sw => {
            let a = dna_sequence(n, SEED);
            let b = dna_sequence(n, SEED ^ 0xFFFF);
            let mut table = Matrix::zeros(n);
            let spec = SwSpec::new(table.ptr(), &a, &b, base).with_decomposition(decomposition);
            PreparedJob::new(table, AnySpec::Sw(spec), move |m| sw::sw_loops(m, &a, &b))
        }
        Benchmark::Paren => {
            let dims = chain_dims(n, SEED);
            let mut table = Matrix::zeros(n);
            let spec = ParenSpec::new(table.ptr(), &dims, base).with_decomposition(decomposition);
            PreparedJob::new(table, AnySpec::Paren(spec), move |m| {
                paren::paren_loops(m, &dims)
            })
        }
        Benchmark::Lcs => {
            let a = dna_sequence(n, SEED ^ 0x7C5);
            let b = dna_sequence(n, SEED ^ 0x3A7);
            let mut table = Matrix::zeros(n);
            let spec = LcsSpec::new(table.ptr(), &a, &b, base).with_decomposition(decomposition);
            PreparedJob::new(table, AnySpec::Lcs(spec), move |m| {
                lcs::lcs_loops(m, &a, &b)
            })
        }
    }
}

/// A Smith-Waterman alignment job over caller-supplied sequences
/// (rather than the standard seeded workload), sized to the shorter
/// power-of-two prefix the table requires. This is the building block
/// for batched alignment serving: many small queries, each its own
/// table, coalesced onto one graph via [`PreparedJob::register_cnc`].
pub fn prepare_sw_query(a: &[u8], b: &[u8], n: usize, base: usize) -> PreparedJob {
    let base = resolve_base(Benchmark::Sw, n, base, Decomposition::BINARY);
    assert!(a.len() >= n && b.len() >= n, "sequences must cover n");
    let a = a[..n].to_vec();
    let b = b[..n].to_vec();
    let mut table = Matrix::zeros(n);
    let spec = SwSpec::new(table.ptr(), &a, &b, base);
    PreparedJob::new(table, AnySpec::Sw(spec), move |m| sw::sw_loops(m, &a, &b))
}

/// Where an [`execute`]d run finds its worker threads.
#[derive(Clone)]
pub enum RunOn {
    /// A private pool of this many workers, built before the clock
    /// starts and joined after it stops. The serial models build none.
    Threads(usize),
    /// A caller-supplied shared pool: fork-join installs into it and
    /// the data-flow models run a fresh [`CncGraph`] sharing it (as CnC
    /// programs share a TBB arena), so many runs, even concurrent ones,
    /// pay for no pool. What is fixed when a pool is built cannot be
    /// set here: [`ResilienceOptions::worker_kills`] is ignored, and
    /// [`Run::trace`] records the graph's steps only.
    Pool(Arc<ThreadPool>),
}

/// One run of one benchmark under one execution model — everything
/// [`execute`] can be asked, as fields. [`Run::new`] fills the common
/// case; anything else is struct-update syntax on top of it:
///
/// ```
/// use recdp::prelude::*;
/// let run = Run {
///     decomposition: Decomposition::new(4),
///     trace: true,
///     ..Run::new(Benchmark::Fw, Execution::ForkJoin, 64, 8, 2)
/// };
/// let out = execute(&run).expect("fault-free runs succeed");
/// assert!(out.trace.expect("asked for a trace").report().tasks > 0);
/// ```
#[derive(Clone)]
pub struct Run {
    /// Which DP to run, on the standard seeded input of size `n`.
    pub benchmark: Benchmark,
    /// Under which execution model.
    pub execution: Execution,
    /// Problem size (a power of two).
    pub n: usize,
    /// Base-case (tile) size, a power of two `<= n`, or [`AUTO_BASE`].
    pub base: usize,
    /// Decomposition width `r`. It changes only the schedule (recursion
    /// depth, stage widths, fork-join join count) — the output table is
    /// bitwise identical for every `r`.
    pub decomposition: Decomposition,
    /// Where the parallel models find their workers.
    pub on: RunOn,
    /// Record an event timeline into [`RunOutput::trace`]: measured
    /// work and span, steal provenance, and idle time split into
    /// fork-join join waits (artificial dependencies) and CnC
    /// blocked-get stalls (true dependencies). The serial models have
    /// no pool to trace and return an empty session.
    pub trace: bool,
    /// Integrity policy (every R-DP model), and the data-flow graph's
    /// retry / deadline / fault-injection / recovery configuration.
    pub resilience: ResilienceOptions,
}

impl Run {
    /// A binary-decomposition, untraced, fault-free run on a private
    /// pool of `threads` workers.
    pub fn new(
        benchmark: Benchmark,
        execution: Execution,
        n: usize,
        base: usize,
        threads: usize,
    ) -> Run {
        Run {
            benchmark,
            execution,
            n,
            base,
            decomposition: Decomposition::BINARY,
            on: RunOn::Threads(threads),
            trace: false,
            resilience: ResilienceOptions::default(),
        }
    }
}

/// Shorthand for [`execute`] on [`Run::new`]: runs `benchmark` under
/// `execution` with problem size `n`, base-case size `base` and (for
/// the parallel models) `threads` workers. Inputs come from the seeded
/// generators in `recdp_kernels::workloads`, so outputs are comparable
/// across executions.
pub fn run_benchmark(
    benchmark: Benchmark,
    execution: Execution,
    n: usize,
    base: usize,
    threads: usize,
) -> RunOutput {
    execute(&Run::new(benchmark, execution, n, base, threads)).expect("CnC graph failed")
}

/// How [`execute`] reacts to fail-stop loss: worker deaths during the
/// run, and jobs that blow their deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// No recovery: worker kills degrade the pool (the runtime's
    /// default, which still requeues a dying worker's work) and a
    /// missed deadline is a terminal [`CncError::Timeout`].
    #[default]
    None,
    /// Every killed worker is replaced by a fresh thread; a missed
    /// deadline is still terminal.
    Respawn,
    /// Killed workers are not replaced — the pool shrinks (never below
    /// one, so the job always finishes); a missed deadline is terminal.
    Degrade,
    /// Checkpoint/resume: the job runs in bounded time slices. A slice
    /// that times out is checkpointed ([`CncGraph::checkpoint`]) and the
    /// job resumes on a fresh graph ([`CncGraph::resume_from`]) that
    /// skips every step the previous slices completed. Worker kills are
    /// handled by respawn.
    CheckpointInterval {
        /// Deadline of each attempt. (Overrides
        /// [`ResilienceOptions::deadline`], which bounds single-attempt
        /// policies.)
        slice: Duration,
        /// Resume budget: at most this many checkpoint/resume cycles
        /// before the timeout becomes terminal.
        max_resumes: u32,
    },
}

/// Resilience configuration of a [`Run`]: the integrity policy, how the
/// CnC graph behind a data-flow run reacts to transient step failures
/// and fail-stop worker loss, and the time bounds on the run.
#[derive(Clone, Default)]
pub struct ResilienceOptions {
    /// Retry budget for transient step failures (default: one attempt,
    /// i.e. no retries).
    pub retry: RetryPolicy,
    /// Overall deadline for the graph; `None` waits indefinitely.
    pub deadline: Option<Duration>,
    /// Fault injector armed on the graph (e.g. a seeded
    /// `recdp_faults::FaultPlan`); `None` runs fault-free.
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Reaction to fail-stop loss (worker deaths, missed deadlines).
    pub recovery: RecoveryPolicy,
    /// Fail-stop kill schedule for a private pool: offsets in
    /// nanoseconds from pool start at which one worker dies (e.g.
    /// `recdp_faults::FaultPlan::worker_kill_times_ns`). Empty runs on
    /// an unsupervised pool.
    pub worker_kills: Vec<u64>,
    /// Data-integrity policy for the run: with any mode other than
    /// [`Off`](recdp_kernels::IntegrityMode::Off) every base tile is
    /// digested inside its producing step, silent corruption (whether
    /// injected by [`Self::injector`] or real) is detected against the
    /// digest, and corrupted tiles are recomputed from their pre-image.
    /// The resulting [`IntegrityReport`] is carried in
    /// [`RunOutput::integrity`].
    pub integrity: IntegrityOptions,
}

impl std::fmt::Debug for ResilienceOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilienceOptions")
            .field("retry", &self.retry)
            .field("deadline", &self.deadline)
            .field("injector", &self.injector.as_ref().map(|_| "<injector>"))
            .field("recovery", &self.recovery)
            .field("worker_kills", &self.worker_kills)
            .field("integrity", &self.integrity)
            .finish()
    }
}

/// A private pool per `opts`: supervised when a kill schedule is set,
/// carrying the run's tracer when there is one.
fn private_pool(
    threads: usize,
    opts: &ResilienceOptions,
    tracer: Option<&Arc<Tracer>>,
) -> ThreadPool {
    let mut builder = ThreadPoolBuilder::new().num_threads(threads);
    if !opts.worker_kills.is_empty() {
        let mode = match opts.recovery {
            RecoveryPolicy::Degrade => RecoveryMode::Degrade,
            // `None` still survives kills — the pool's built-in requeue
            // makes fail-stop loss a degradation, never lost work.
            _ => RecoveryMode::Respawn,
        };
        builder = builder
            .worker_kill_schedule(opts.worker_kills.clone())
            .recovery_mode(mode);
    }
    if let Some(tracer) = tracer {
        builder = builder.tracer(Arc::clone(tracer));
    }
    builder.build()
}

/// One attempt's graph on `pool`, armed per `opts` and — when resuming
/// — seeded from `checkpoint` *before* any collection exists (the
/// [`CncGraph::resume_from`] contract).
fn armed_graph(
    pool: &Arc<ThreadPool>,
    opts: &ResilienceOptions,
    deadline: Option<Duration>,
    checkpoint: Option<&Checkpoint>,
    tracer: Option<&Arc<Tracer>>,
) -> CncGraph {
    let graph = CncGraph::with_pool(Arc::clone(pool));
    if let Some(cp) = checkpoint {
        graph.resume_from(cp);
    }
    graph.set_retry_policy(opts.retry);
    if let Some(d) = deadline {
        graph.set_deadline(d);
    }
    if let Some(injector) = &opts.injector {
        graph.set_fault_injector(Arc::clone(injector));
    }
    if let Some(tracer) = tracer {
        graph.set_tracer(Arc::clone(tracer));
    }
    graph
}

/// Generates `run`'s input and executes it: [`prepare_job_with`] +
/// [`PreparedJob::run`], plus what a one-shot caller would otherwise
/// build by hand — the pool, a graph per attempt, the clock. Only
/// data-flow runs can fail, with the graph's structured error.
///
/// Under [`RecoveryPolicy::CheckpointInterval`] a timed-out slice of a
/// data-flow run is checkpointed and the job resumes on a fresh graph
/// over the *same* table, re-running only the steps no earlier slice
/// completed; the stats of the final (successful) attempt are returned,
/// so `steps_skipped` reports how much work the last resume avoided.
pub fn execute(run: &Run) -> Result<RunOutput, CncError> {
    let opts = &run.resilience;
    let mut job = prepare_job_with(run.benchmark, run.n, run.base, run.decomposition);
    let on_graph = matches!(run.execution, Execution::Cnc(_));
    let tracer = run.trace.then(Tracer::new);
    let pool = match &run.on {
        RunOn::Pool(pool) => Some(Arc::clone(pool)),
        RunOn::Threads(threads) if on_graph || run.execution == Execution::ForkJoin => {
            Some(Arc::new(private_pool(*threads, opts, tracer.as_ref())))
        }
        RunOn::Threads(_) => None,
    };
    let (deadline, max_resumes) = match opts.recovery {
        RecoveryPolicy::CheckpointInterval { slice, max_resumes } => (Some(slice), max_resumes),
        _ => (opts.deadline, 0),
    };
    let start = Instant::now();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut resumes = 0u32;
    let ran = loop {
        let graph = pool
            .as_ref()
            .filter(|_| on_graph)
            .map(|pool| armed_graph(pool, opts, deadline, checkpoint.as_ref(), tracer.as_ref()));
        let env = RunEnv {
            pool: pool.as_deref(),
            graph: graph.as_ref(),
            integrity: opts.integrity.config(opts.injector.as_ref()),
            count_joins: None,
        };
        match (job.run(run.execution, env), &graph) {
            (Err(CncError::Timeout { .. }), Some(graph)) if resumes < max_resumes => {
                // Snapshot what this slice (plus everything it
                // inherited) completed; the next attempt skips it.
                checkpoint = Some(graph.checkpoint());
                resumes += 1;
            }
            (outcome, _) => break outcome?,
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    // Every graph is gone, so dropping a private pool joins its workers
    // — off the clock, and before the trace is read (joining a worker
    // publishes its lane).
    let workers = pool.as_ref().map_or(1, |pool| pool.num_threads());
    drop(pool);
    Ok(RunOutput {
        table: job.into_table(),
        seconds,
        cnc_stats: ran.cnc_stats,
        integrity: ran.integrity,
        trace: tracer.map(|tracer| TraceSession::with_tracer(tracer, workers)),
    })
}

/// Bridges [`IntegrityEvent`]s into a tracer's timeline: the returned
/// observer (install it with [`IntegrityConfig::with_observer`]) records
/// a [`EventKind::CorruptionDetected`] / [`EventKind::TileRecomputed`]
/// instant on the recording thread's lane, with the tile identity
/// condensed to a deterministic hash (the same tile always renders the
/// same `tile` argument in the Chrome export).
pub fn integrity_observer(tracer: Arc<Tracer>) -> IntegrityObserver {
    fn tile_hash(tile: &TileKey) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tile.hash(&mut h);
        h.finish()
    }
    Arc::new(move |event: &IntegrityEvent| {
        let lane = tracer.lane();
        match event {
            IntegrityEvent::CorruptionDetected { step, tile } => {
                lane.instant(EventKind::CorruptionDetected {
                    step: tracer.intern(step),
                    tile: tile_hash(tile),
                })
            }
            IntegrityEvent::TileRecomputed { step, tile } => {
                lane.instant(EventKind::TileRecomputed {
                    step: tracer.intern(step),
                    tile: tile_hash(tile),
                })
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdp_faults::FaultPlan;
    use recdp_kernels::IntegrityMode;
    use recdp_trace::TraceReport;

    const EXECUTIONS: [Execution; 7] = [
        Execution::SerialLoops,
        Execution::SerialRdp,
        Execution::ForkJoin,
        Execution::Cnc(CncVariant::Native),
        Execution::Cnc(CncVariant::Tuner),
        Execution::Cnc(CncVariant::Manual),
        Execution::Cnc(CncVariant::NonBlocking),
    ];

    /// The agreement table: every extended benchmark x every execution
    /// model x width r in {2, 4} x {unchecked, `Full` verification under
    /// seeded cell and put corruption}, through both run paths — the
    /// facade's [`execute`] (declared options) and a hand-built
    /// [`PreparedJob::run`] (explicit configuration) — must produce the
    /// loops oracle's table bit for bit. The corruption rolls are seeded
    /// per (step, tile, attempt), so the cell counts of a checked run
    /// are schedule-independent: equal across both paths and across all
    /// six engine-backed models of a (benchmark, r) point.
    #[test]
    fn every_execution_width_and_integrity_policy_agrees_with_loops() {
        const N: usize = 64;
        const BASE: usize = 16;
        let injector: Arc<dyn FaultInjector> = Arc::new(
            FaultPlan::new(0xBADC0DE)
                .corrupt_cells(0.25)
                .corrupt_puts(0.25),
        );
        let full = IntegrityOptions {
            mode: IntegrityMode::Full,
            max_repair_attempts: 12,
            ..Default::default()
        };
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(2).build());
        let mut detections = 0;
        for benchmark in Benchmark::EXTENDED {
            let oracle = run_benchmark(benchmark, Execution::SerialLoops, N, BASE, 1).table;
            for (r, checked) in [(2u32, false), (2, true), (4, false), (4, true)] {
                let decomposition = Decomposition::new(r);
                let resilience = ResilienceOptions {
                    injector: checked.then(|| Arc::clone(&injector)),
                    integrity: if checked { full } else { Default::default() },
                    ..Default::default()
                };
                let mut cell_counts = None;
                for execution in EXECUTIONS {
                    let what = format!(
                        "{} under {} at r={r} checked={checked}",
                        benchmark.name(),
                        execution.label()
                    );
                    let facade = execute(&Run {
                        decomposition,
                        resilience: resilience.clone(),
                        ..Run::new(benchmark, execution, N, BASE, 2)
                    })
                    .unwrap_or_else(|e| panic!("{what}: {e}"));

                    let mut job = prepare_job_with(benchmark, N, BASE, decomposition);
                    let graph = CncGraph::with_pool(Arc::clone(&pool));
                    let env = RunEnv {
                        pool: Some(&*pool),
                        graph: Some(&graph),
                        integrity: checked.then(|| {
                            IntegrityConfig::from(full).with_injector(Arc::clone(&injector))
                        }),
                        count_joins: None,
                    };
                    let direct = job
                        .run(execution, env)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));

                    assert!(facade.table.bitwise_eq(&oracle), "{what}: execute");
                    assert!(job.table().bitwise_eq(&oracle), "{what}: run");
                    assert_eq!(direct.joins, None, "{what}: joins are counted on request");
                    let on_graph = matches!(execution, Execution::Cnc(_));
                    // The loops oracle is not tile-structured: no policy
                    // attaches to it.
                    let reports = checked && execution != Execution::SerialLoops;
                    for (stats, report) in [
                        (facade.cnc_stats, facade.integrity),
                        (direct.cnc_stats, direct.integrity),
                    ] {
                        assert_eq!(stats.is_some(), on_graph, "{what}");
                        assert_eq!(report.is_some(), reports, "{what}");
                        let Some(report) = report else { continue };
                        report.ok().unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(
                            report.tiles_recomputed, report.corruptions_detected,
                            "{what}: every detection is repaired: {report:?}"
                        );
                        assert!(
                            on_graph || report.put_corruptions_detected == 0,
                            "{what}: only graphs put items"
                        );
                        let counts = (report.tiles_verified, report.corruptions_detected);
                        assert_eq!(
                            *cell_counts.get_or_insert(counts),
                            counts,
                            "{what}: cell counts are seeded, not scheduled"
                        );
                        detections += report.corruptions_detected;
                    }
                }
            }
        }
        assert!(detections > 0, "the chaos seed never corrupted anything");
    }

    fn resilient(
        benchmark: Benchmark,
        variant: CncVariant,
        n: usize,
        threads: usize,
        r: u32,
        resilience: ResilienceOptions,
    ) -> Result<RunOutput, CncError> {
        execute(&Run {
            decomposition: Decomposition::new(r),
            resilience,
            ..Run::new(benchmark, Execution::Cnc(variant), n, 8, threads)
        })
    }

    /// The decomposition reaches the resilient path: a checked run at
    /// r = 4 (as at r = 2) self-heals seeded corruption to the oracle.
    #[test]
    fn resilient_checked_run_heals_injected_corruption_at_every_width() {
        for benchmark in [Benchmark::Ge, Benchmark::Fw] {
            let oracle = run_benchmark(benchmark, Execution::SerialLoops, 32, 8, 1);
            for r in [2u32, 4] {
                let opts = ResilienceOptions {
                    injector: Some(Arc::new(FaultPlan::new(11).corrupt_cells(0.1))),
                    integrity: IntegrityOptions {
                        mode: IntegrityMode::Full,
                        max_repair_attempts: 6,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let out = resilient(benchmark, CncVariant::Native, 32, 2, r, opts)
                    .expect("corruption is repaired, not fatal");
                assert!(out.table.bitwise_eq(&oracle.table), "r={r}");
                let report = out.integrity.expect("checked runs carry a report");
                report.ok().expect("every tile repaired within budget");
                assert!(report.corruptions_detected > 0, "r={r}: {report:?}");
                assert_eq!(
                    report.tiles_recomputed, report.corruptions_detected,
                    "r={r}: {report:?}"
                );
                // Four-way, the 4x4 tile grid is one recursion level:
                // the root step expands straight into the base tiles.
                let stats = out.cnc_stats.expect("data-flow runs carry stats");
                let expansions = stats.steps_completed - stats.items_put;
                assert_eq!(expansions == 1, r == 4, "r={r}: {stats:?}");
            }
        }
    }

    #[test]
    fn silent_corruption_baseline_corrupts_the_table() {
        let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 32, 8, 1);
        // Sample(0.0) injects but never verifies — the unprotected run.
        let opts = ResilienceOptions {
            injector: Some(Arc::new(FaultPlan::new(11).corrupt_cells(0.5))),
            integrity: IntegrityOptions {
                mode: IntegrityMode::Sample(0.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = resilient(Benchmark::Ge, CncVariant::Native, 32, 2, 2, opts)
            .expect("silent corruption does not fail the graph");
        assert!(!out.table.bitwise_eq(&oracle.table), "corruption vanished");
        let report = out.integrity.expect("checked runs carry a report");
        assert_eq!(report.corruptions_detected, 0, "{report:?}");
    }

    /// A declared `Off` policy is the unchecked run even with an
    /// injector armed (for other fault classes): no report, and no
    /// cell is touched.
    #[test]
    fn declared_off_integrity_with_an_injector_is_the_unchecked_run() {
        let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 32, 8, 1);
        let opts = ResilienceOptions {
            injector: Some(Arc::new(FaultPlan::new(11).corrupt_cells(0.5))),
            ..Default::default()
        };
        let out = resilient(Benchmark::Ge, CncVariant::Native, 32, 2, 2, opts).unwrap();
        assert!(out.integrity.is_none());
        assert!(out.table.bitwise_eq(&oracle.table));
    }

    fn checked_serial_run(
        benchmark: Benchmark,
        cfg: IntegrityConfig,
    ) -> (PreparedJob, IntegrityReport) {
        let mut job = prepare_job_with(benchmark, 32, 8, Decomposition::BINARY);
        let env = RunEnv {
            integrity: Some(cfg),
            ..RunEnv::default()
        };
        let ran = job.run(Execution::SerialRdp, env).expect(ONLY_GRAPHS_FAIL);
        (job, ran.integrity.expect("checked runs carry a report"))
    }

    #[test]
    fn integrity_observer_records_trace_instants() {
        let tracer = Tracer::new();
        let cfg = IntegrityConfig::new(IntegrityMode::Full)
            .with_injector(Arc::new(FaultPlan::new(3).corrupt_cells(1.0)))
            .with_observer(integrity_observer(Arc::clone(&tracer)));
        let (_, report) = checked_serial_run(Benchmark::Sw, cfg);
        // Rate 1.0 re-corrupts every repair attempt, so the budget is
        // exhausted and the run escalates — exactly what the observer
        // should have witnessed, detection by detection.
        assert!(report.ok().is_err(), "rate-1.0 corruption must escalate");
        assert!(report.corruptions_detected > 0);
        let counts = TraceSession::with_tracer(Arc::clone(&tracer), 1).report();
        assert_eq!(counts.corruptions_detected, report.corruptions_detected);
        assert_eq!(counts.tiles_recomputed, report.tiles_recomputed);
    }

    /// `DualExecute` detects by re-executing sampled tiles from their
    /// pre-image and comparing digests — no reference digest survives
    /// the run, yet corruption still heals.
    #[test]
    fn dual_execute_heals_without_stored_digests() {
        let oracle = run_benchmark(Benchmark::Lcs, Execution::SerialLoops, 32, 8, 1);
        let cfg = IntegrityConfig::new(IntegrityMode::DualExecute(1.0))
            .with_injector(Arc::new(FaultPlan::new(5).corrupt_cells(0.3)))
            .with_max_repair_attempts(12);
        let (job, report) = checked_serial_run(Benchmark::Lcs, cfg);
        report.ok().expect("dual-execute heals");
        assert!(report.corruptions_detected > 0, "nothing injected");
        assert_eq!(report.corruptions_detected, report.tiles_recomputed);
        assert!(job.table().bitwise_eq(&oracle.table));
    }

    #[test]
    fn resilient_run_matches_oracle_under_faults() {
        let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 32, 8, 1);
        let opts = ResilienceOptions {
            retry: RetryPolicy::attempts(8),
            deadline: Some(Duration::from_secs(60)),
            injector: Some(Arc::new(FaultPlan::new(7).transient_step_failures(0.2))),
            ..Default::default()
        };
        let out = resilient(Benchmark::Ge, CncVariant::Native, 32, 2, 2, opts)
            .expect("retries absorb the injected transient faults");
        assert!(out.table.bitwise_eq(&oracle.table));
        let stats = out.cnc_stats.expect("data-flow runs carry stats");
        assert!(stats.faults_injected > 0, "{stats:?}");
        assert_eq!(stats.steps_retried, stats.faults_injected, "{stats:?}");
    }

    #[test]
    fn resilient_run_without_budget_reports_structured_failure() {
        let opts = ResilienceOptions {
            // Default retry policy: a single attempt, no retries.
            injector: Some(Arc::new(FaultPlan::new(3).transient_step_failures(0.9))),
            ..Default::default()
        };
        let err = resilient(Benchmark::Sw, CncVariant::Native, 32, 2, 2, opts)
            .expect_err("0.9 fault rate with no retries must fail");
        match err {
            CncError::StepFailed { .. } | CncError::RetryExhausted { .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn resilient_run_survives_worker_kills() {
        let plan = FaultPlan::new(21)
            .kill_worker_at_ns(200_000)
            .kill_worker_at_ns(900_000);
        let oracle = run_benchmark(Benchmark::Ge, Execution::SerialLoops, 64, 8, 1);
        for recovery in [RecoveryPolicy::Respawn, RecoveryPolicy::Degrade] {
            let opts = ResilienceOptions {
                recovery,
                worker_kills: plan.worker_kill_times_ns().to_vec(),
                ..Default::default()
            };
            let out = resilient(Benchmark::Ge, CncVariant::Native, 64, 3, 2, opts)
                .expect("kills degrade or respawn, never abort the job");
            assert!(out.table.bitwise_eq(&oracle.table), "{recovery:?}");
        }
    }

    /// Checkpoint/resume at every width (the resilient path used to run
    /// binary whatever was asked).
    #[test]
    fn checkpoint_interval_resumes_and_matches_oracle_at_every_width() {
        let oracle = run_benchmark(Benchmark::Fw, Execution::SerialLoops, 32, 8, 1);
        for r in [2u32, 4] {
            // Every step sleeps 1ms. The 32/8 FW graph has 64 base
            // steps (plus 9 expansions at r=2, 1 at r=4), so its
            // injected delay alone is 32ms of perfectly-packed work on
            // 2 workers — one 20ms slice *cannot* finish it and at
            // least one timeout -> checkpoint -> resume cycle is forced.
            // Under Tuner, steps are pre-scheduled on their dependencies
            // and execute exactly once, so every slice makes real
            // progress and the budget below is generous.
            let opts = ResilienceOptions {
                injector: Some(Arc::new(
                    FaultPlan::new(11).slow_steps(1.0, Duration::from_millis(1)),
                )),
                recovery: RecoveryPolicy::CheckpointInterval {
                    slice: Duration::from_millis(20),
                    max_resumes: 40,
                },
                ..Default::default()
            };
            let out = resilient(Benchmark::Fw, CncVariant::Tuner, 32, 2, r, opts)
                .expect("checkpoint/resume absorbs the slice timeouts");
            assert!(out.table.bitwise_eq(&oracle.table), "r={r}");
            let stats = out.cnc_stats.expect("data-flow runs carry stats");
            assert!(
                stats.steps_skipped > 0,
                "r={r}: no resume happened; the forced timeout did not fire: {stats:?}"
            );
            assert!(stats.items_restored > 0, "r={r}: {stats:?}");
        }
    }

    #[test]
    fn checkpoint_interval_without_timeouts_is_a_plain_run() {
        let oracle = run_benchmark(Benchmark::Sw, Execution::SerialLoops, 32, 8, 1);
        let opts = ResilienceOptions {
            recovery: RecoveryPolicy::CheckpointInterval {
                slice: Duration::from_secs(60),
                max_resumes: 3,
            },
            ..Default::default()
        };
        let out = resilient(Benchmark::Sw, CncVariant::Tuner, 32, 2, 2, opts)
            .expect("a generous slice never times out");
        assert!(out.table.bitwise_eq(&oracle.table));
        let stats = out.cnc_stats.unwrap();
        assert_eq!(stats.steps_skipped, 0);
        assert_eq!(stats.items_restored, 0);
    }

    #[test]
    fn exhausted_resume_budget_is_a_terminal_timeout() {
        let opts = ResilienceOptions {
            injector: Some(Arc::new(
                FaultPlan::new(5).slow_steps(1.0, Duration::from_millis(20)),
            )),
            recovery: RecoveryPolicy::CheckpointInterval {
                slice: Duration::from_millis(10),
                max_resumes: 2,
            },
            ..Default::default()
        };
        let err = resilient(Benchmark::Ge, CncVariant::Native, 64, 2, 2, opts)
            .expect_err("10ms slices cannot finish 20ms steps within 2 resumes");
        assert!(matches!(err, CncError::Timeout { .. }), "{err:?}");
    }

    fn traced(benchmark: Benchmark, execution: Execution, on: RunOn) -> (RunOutput, TraceReport) {
        let oracle = run_benchmark(benchmark, Execution::SerialLoops, 32, 8, 2);
        let mut out = execute(&Run {
            trace: true,
            on,
            ..Run::new(benchmark, execution, 32, 8, 2)
        })
        .expect("traced runs are fault-free");
        assert!(out.table.bitwise_eq(&oracle.table));
        let report = out.trace.take().expect("asked for a trace").report();
        (out, report)
    }

    #[test]
    fn traced_forkjoin_run_matches_oracle_and_records_spans() {
        let (_, report) = traced(Benchmark::Ge, Execution::ForkJoin, RunOn::Threads(2));
        assert!(report.tasks > 0, "no task spans recorded: {report:?}");
        assert!(report.work_ns > 0);
        assert!(report.span_ns <= report.wall_ns.max(1) * 2);
    }

    #[test]
    fn traced_cnc_runs_match_oracle_and_record_steps() {
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(2).build());
        // On a shared pool the graph's steps are still recorded.
        for (benchmark, variant, on) in [
            (Benchmark::Fw, CncVariant::Native, RunOn::Threads(2)),
            (Benchmark::Fw, CncVariant::Native, RunOn::Pool(pool)),
            (Benchmark::Paren, CncVariant::Tuner, RunOn::Threads(2)),
        ] {
            let (out, report) = traced(benchmark, Execution::Cnc(variant), on);
            let stats = out.cnc_stats.expect("cnc runs carry stats");
            assert_eq!(
                report.steps, stats.steps_started,
                "one StepRun span per started execution"
            );
            assert!(report.work_ns > 0);
        }
    }

    /// A trace is a field, not a precondition: the serial models have
    /// nothing to trace and say so with an empty session.
    #[test]
    fn traced_serial_run_returns_an_empty_session() {
        for execution in [Execution::SerialLoops, Execution::SerialRdp] {
            let (_, report) = traced(Benchmark::Ge, execution, RunOn::Threads(2));
            assert_eq!((report.tasks, report.steps, report.work_ns), (0, 0, 0));
        }
    }

    #[test]
    fn auto_base_is_legal_and_tuned_runs_match_explicit_base() {
        for benchmark in Benchmark::EXTENDED {
            let b = auto_base(benchmark, 32, Decomposition::BINARY);
            assert!(
                b.is_power_of_two() && (1..=32).contains(&b),
                "{}: auto base {b}",
                benchmark.name()
            );
            // AUTO_BASE resolves to exactly auto_base(n), and the tuned
            // run is bitwise-identical to any explicitly-based run —
            // base size can never change results.
            let tuned = run_benchmark(benchmark, Execution::SerialRdp, 32, AUTO_BASE, 1);
            let explicit = run_benchmark(benchmark, Execution::SerialLoops, 32, 8, 1);
            assert!(
                tuned.table.bitwise_eq(&explicit.table),
                "{} tuned vs explicit",
                benchmark.name()
            );
        }
    }

    #[test]
    fn auto_base_sw_query_matches_explicit() {
        use recdp_kernels::workloads::dna_sequence;
        let a = dna_sequence(64, 3);
        let b = dna_sequence(64, 4);
        let mut tuned = prepare_sw_query(&a, &b, 32, AUTO_BASE);
        let mut explicit = prepare_sw_query(&a, &b, 32, 8);
        tuned.run_loops();
        explicit.run_loops();
        assert!(tuned.table().bitwise_eq(explicit.table()));
    }

    #[test]
    fn labels() {
        assert_eq!(Execution::ForkJoin.label(), "OpenMP");
        assert_eq!(Execution::Cnc(CncVariant::Tuner).label(), "CnC_tuner");
        assert_eq!(Benchmark::Fw.name(), "FW-APSP");
        assert_eq!(Benchmark::Paren.name(), "PAREN");
        assert_eq!(Benchmark::Lcs.name(), "LCS");
        assert_eq!(Benchmark::ALL.len(), 3);
        assert_eq!(Benchmark::EXTENDED.len(), 5);
    }

    #[test]
    fn auto_base_keeps_the_top_split_r_wide() {
        for benchmark in Benchmark::EXTENDED {
            for r in [2u32, 4, 8] {
                let d = Decomposition::new(r);
                let base = auto_base(benchmark, 64, d);
                assert!(
                    base.is_power_of_two() && base * r as usize <= 64,
                    "{} r={r}: clamped base {base} must leave room for an r-wide root",
                    benchmark.name()
                );
                // And the clamp never changes results, only tiling.
                let tuned = execute(&Run {
                    decomposition: d,
                    ..Run::new(benchmark, Execution::SerialRdp, 64, AUTO_BASE, 1)
                })
                .expect(ONLY_GRAPHS_FAIL);
                let oracle = run_benchmark(benchmark, Execution::SerialLoops, 64, 8, 1);
                assert!(
                    tuned.table.bitwise_eq(&oracle.table),
                    "{}",
                    benchmark.name()
                );
            }
        }
    }
}
