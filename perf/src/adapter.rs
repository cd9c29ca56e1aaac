//! The only file that names the repo's symbols. Everything the
//! benchmark asks of the program goes through here, so this file is the
//! list of interfaces a later refactor must keep or re-pin in a
//! benchmark change (README.md, "Pinned interfaces").
//!
//! Timed direct runs are `[CncGraph::with_pool +] PreparedJob::run_*`
//! on a pool the caller built beforehand; pool and server construction
//! and every `prepare_*`/`JobSpec` construction are set-up. The
//! `run_benchmark*` facade is not used (it builds a pool inside its own
//! timing) and `CncVariant::NonBlocking` is not measured (the roadmap
//! lists it for removal; measuring it would pin it).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use recdp::calibrate::calibrated;
use recdp::{
    dag, predict_seconds, prepare_job_with, prepare_sw_query, Benchmark, Execution, Paradigm,
    PreparedJob,
};
use recdp_analytical::ge_miss_upper_bound;
use recdp_cachesim::workloads::{ge_base_case_trace, ge_base_case_trace_len};
use recdp_cachesim::CacheHierarchy;
use recdp_cnc::{CncGraph, GraphStats, StepOutcome};
use recdp_forkjoin::{join, scope, ThreadPool, ThreadPoolBuilder};
use recdp_kernels::simd::{set_simd_enabled, simd_active};
use recdp_kernels::tune::{calibrate, TuneKernel};
use recdp_kernels::{CncVariant, Decomposition, IntegrityConfig, IntegrityMode, IntegrityOptions};
use recdp_machine::{generic, host_geometry, MachineConfig};
use recdp_server::{BatchMode, DpServer, JobHandle, JobSpec, ServerConfig, SwQuery};
use recdp_trace::Tracer;

use crate::spans::Spans;
use crate::workloads::{Bm, Model, Problem, SW_BATCH_BASE, SW_BATCH_N, WORKERS};

fn benchmark(bm: Bm) -> Benchmark {
    match bm {
        Bm::Ge => Benchmark::Ge,
        Bm::Sw => Benchmark::Sw,
        Bm::Fw => Benchmark::Fw,
        Bm::Paren => Benchmark::Paren,
        Bm::Lcs => Benchmark::Lcs,
    }
}

fn variant(model: Model) -> Option<CncVariant> {
    match model {
        Model::CncNative => Some(CncVariant::Native),
        Model::CncTuner => Some(CncVariant::Tuner),
        Model::CncManual => Some(CncVariant::Manual),
        Model::Loops | Model::Rdp | Model::ForkJoin => None,
    }
}

fn execution(model: Model) -> Execution {
    match model {
        Model::Loops => Execution::SerialLoops,
        Model::Rdp => Execution::SerialRdp,
        Model::ForkJoin => Execution::ForkJoin,
        cnc => Execution::Cnc(variant(cnc).expect("the other three models are matched above")),
    }
}

/// Whether tile kernels currently dispatch to the vector backend.
pub fn vector_backend_active() -> bool {
    simd_active()
}

// ---------------------------------------------------------------------
// Direct runs
// ---------------------------------------------------------------------

/// A fork-join pool shared by the runs of one rep.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<ThreadPool>,
    /// Present when the pool was built with a tracer; data-flow graphs
    /// on a traced pool get the same tracer.
    tracer: Option<Arc<Tracer>>,
}

pub fn build_pool(workers: usize, traced: bool) -> Pool {
    let tracer = traced.then(Tracer::new);
    let mut builder = ThreadPoolBuilder::new().num_threads(workers);
    if let Some(t) = &tracer {
        builder = builder.tracer(Arc::clone(t));
    }
    Pool {
        inner: Arc::new(builder.build()),
        tracer,
    }
}

/// A seeded pair of alignment sequences.
pub type QueryPair = (Vec<u8>, Vec<u8>);

/// An input instance ready to run once under any model.
pub struct Job {
    inner: PreparedJob,
}

/// Generates the input of `p`: the facade's standard instance (its
/// generator seed is fixed inside the facade), or an alignment of
/// `query` when one is given.
pub fn prepare(p: &Problem, query: Option<&QueryPair>) -> Job {
    let inner = match query {
        Some((a, b)) => prepare_sw_query(a, b, p.n, p.base),
        None => prepare_job_with(benchmark(p.bm), p.n, p.base, Decomposition::new(p.r)),
    };
    Job { inner }
}

/// Counters of one data-flow run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CncCounts {
    pub steps_started: u64,
    pub steps_completed: u64,
    pub steps_requeued: u64,
    pub items_put: u64,
    pub gets_blocked: u64,
}

impl From<GraphStats> for CncCounts {
    fn from(s: GraphStats) -> Self {
        CncCounts {
            steps_started: s.steps_started,
            steps_completed: s.steps_completed,
            steps_requeued: s.steps_requeued,
            items_put: s.items_put,
            gets_blocked: s.gets_blocked,
        }
    }
}

impl std::ops::AddAssign for CncCounts {
    fn add_assign(&mut self, o: Self) {
        self.steps_started += o.steps_started;
        self.steps_completed += o.steps_completed;
        self.steps_requeued += o.steps_requeued;
        self.items_put += o.items_put;
        self.gets_blocked += o.gets_blocked;
    }
}

/// Integrity policy of a checked fork-join run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    Off,
    Sample,
    Full,
}

impl Job {
    /// Runs the job once under `model`. A data-flow run builds its
    /// graph on `pool` first, inside a `graph_build` span, because a
    /// caller cannot reuse a graph across runs.
    pub fn run(
        &mut self,
        model: Model,
        pool: &Pool,
        spans: &mut Spans,
    ) -> Result<Option<CncCounts>, String> {
        match model {
            Model::Loops => self.inner.run_loops(),
            Model::Rdp => self.inner.run_serial_rdp(),
            Model::ForkJoin => self.inner.run_forkjoin(&pool.inner),
            cnc => {
                let open = spans.enter("graph_build");
                let graph = CncGraph::with_pool(Arc::clone(&pool.inner));
                if let Some(t) = &pool.tracer {
                    graph.set_tracer(Arc::clone(t));
                }
                spans.exit(open);
                let v = variant(cnc).expect("the other three models are matched above");
                return self
                    .inner
                    .run_cnc_on(v, &graph)
                    .map(|s| Some(s.into()))
                    .map_err(|e| format!("{e:?}"));
            }
        }
        Ok(None)
    }

    /// Runs the fork-join engine through its integrity-checked entry
    /// point and returns how many tiles were digest-verified (under
    /// `Full`, every base tile the run executed).
    pub fn run_forkjoin_checked(&self, pool: &Pool, check: Check) -> Result<u64, String> {
        let mode = match check {
            Check::Off => IntegrityMode::Off,
            Check::Sample => IntegrityMode::Sample(0.1),
            Check::Full => IntegrityMode::Full,
        };
        let cfg = IntegrityConfig::from(IntegrityOptions {
            mode,
            ..IntegrityOptions::default()
        });
        let report = self.inner.run_forkjoin_checked(&pool.inner, cfg);
        let verified = report.tiles_verified;
        report.ok().map(|_| verified).map_err(|e| format!("{e:?}"))
    }

    /// Bit digest of the job's table.
    pub fn digest(&self) -> u64 {
        self.inner.table().bit_digest()
    }
}

// ---------------------------------------------------------------------
// Served jobs
// ---------------------------------------------------------------------

pub const TENANTS: [&str; 2] = ["alpha", "bravo"];

/// A job description, built during set-up and consumed by `submit`.
pub struct Request(JobSpec);

pub fn bench_request(
    tenant: &str,
    p: &Problem,
    model: Model,
    priority: i32,
    full_integrity: bool,
) -> Request {
    let mut spec =
        JobSpec::benchmark_rway(tenant, benchmark(p.bm), execution(model), p.n, p.base, p.r)
            .with_priority(priority);
    if full_integrity {
        spec = spec.with_integrity(IntegrityOptions {
            mode: IntegrityMode::Full,
            ..IntegrityOptions::default()
        });
    }
    Request(spec)
}

pub fn sw_batch_request(tenant: &str, queries: &[QueryPair], coalesced: bool) -> Request {
    let queries = queries
        .iter()
        .map(|(a, b)| SwQuery {
            a: a.clone(),
            b: b.clone(),
            n: SW_BATCH_N,
            base: SW_BATCH_BASE,
        })
        .collect();
    let mode = if coalesced {
        BatchMode::Coalesced
    } else {
        BatchMode::PerQuery
    };
    Request(JobSpec::sw_batch(tenant, queries, mode, CncVariant::Tuner))
}

pub struct Server {
    inner: DpServer,
}

/// The job server every served measurement uses: two pool workers, two
/// runner lanes, a queue that never fills at four clients, tenants
/// weighted 3:1.
pub fn build_server(trace_utilization: bool) -> Server {
    let inner = DpServer::new(ServerConfig {
        threads: WORKERS,
        queue_depth: 4096,
        max_inflight: 2,
        paused: false,
        trace_utilization,
    });
    inner.set_tenant_weight(TENANTS[0], 3.0);
    inner.set_tenant_weight(TENANTS[1], 1.0);
    Server { inner }
}

/// What a served job returned.
pub struct Reply {
    pub digests: Vec<u64>,
    /// Server-side execution time (`JobResult::seconds`).
    pub run_s: f64,
    /// Server-side time in the admission queue.
    pub queued_s: f64,
}

pub struct Ticket(JobHandle);

impl Ticket {
    pub fn wait(self) -> Result<Reply, String> {
        self.0
            .wait()
            .map(|r| Reply {
                digests: r.digests,
                run_s: r.seconds,
                queued_s: r.queued_seconds,
            })
            .map_err(|e| format!("{e:?}"))
    }
}

impl Server {
    pub fn submit(&self, request: Request) -> Result<Ticket, String> {
        self.inner
            .submit(request.0)
            .map(Ticket)
            .map_err(|e| format!("{e:?}"))
    }

    /// The pool the server executes on, for direct runs of the same
    /// jobs beside it.
    pub fn pool(&self) -> Pool {
        Pool {
            inner: Arc::clone(self.inner.pool()),
            tracer: None,
        }
    }

    /// Jobs the server counted as failed and as refused.
    pub fn failed_and_rejected(&self) -> (u64, u64) {
        let s = self.inner.stats();
        (s.failed, s.rejected)
    }

    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

// ---------------------------------------------------------------------
// Micro-probes (nanoseconds per operation unless named otherwise)
// ---------------------------------------------------------------------

fn per_op_ns(ops: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// One `join` of two empty closures, from inside the pool.
pub fn probe_join_leaf_ns(pool: &Pool, ops: usize) -> f64 {
    pool.inner.install(|| {
        per_op_ns(ops, || {
            for i in 0..ops {
                black_box(join(|| black_box(i), || black_box(i + 1)));
            }
        })
    })
}

/// One `Scope::spawn` of an empty task, including its share of the
/// scope's final wait.
pub fn probe_scope_spawn_ns(pool: &Pool, ops: usize) -> f64 {
    pool.inner.install(|| {
        per_op_ns(ops, || {
            scope(|s| {
                for i in 0..ops {
                    s.spawn(move |_| {
                        black_box(i);
                    });
                }
            })
        })
    })
}

/// One `install` of an empty closure from outside the pool: inject,
/// wake a worker, wake the caller.
pub fn probe_install_ns(pool: &Pool, ops: usize) -> f64 {
    per_op_ns(ops, || {
        for i in 0..ops {
            black_box(pool.inner.install(|| black_box(i)));
        }
    })
}

/// One tag put that dispatches one empty step, through quiescence.
pub fn probe_tag_put_step_ns(pool: &Pool, ops: usize) -> f64 {
    let graph = CncGraph::with_pool(Arc::clone(&pool.inner));
    let tags = graph.tag_collection::<u64>("probe_tags");
    let ran = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&ran);
    tags.prescribe("probe_step", move |_, _| {
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(StepOutcome::Done)
    });
    let ns = per_op_ns(ops, || {
        for t in 0..ops as u64 {
            tags.put(t);
        }
        graph.wait().expect("an empty step cannot deadlock");
    });
    assert_eq!(
        ran.load(Ordering::Relaxed),
        ops as u64,
        "every tag ran its step"
    );
    ns
}

/// One item put plus one read of it from the environment.
pub fn probe_item_put_get_ns(pool: &Pool, ops: usize) -> f64 {
    let graph = CncGraph::with_pool(Arc::clone(&pool.inner));
    let items = graph.item_collection::<u64, u64>("probe_items");
    per_op_ns(ops, || {
        for k in 0..ops as u64 {
            items.put(k, k).expect("each key is put once");
        }
        for k in 0..ops as u64 {
            black_box(items.get_env(&k));
        }
    })
}

/// Microseconds to build an empty graph on a warm pool and wait for it.
pub fn probe_graph_setup_us(pool: &Pool, ops: usize) -> f64 {
    per_op_ns(ops, || {
        for _ in 0..ops {
            let graph = CncGraph::with_pool(Arc::clone(&pool.inner));
            black_box(graph.wait().expect("an empty graph is quiescent"));
        }
    }) / 1e3
}

/// Nanoseconds per work unit of the `m x m` base-case kernel of `bm`,
/// as the autotuner's calibration measures it, with the dispatcher
/// pinned to the vector (`vector = true`) or scalar backend. Restores
/// the default dispatch (vector when supported) afterwards.
pub fn tile_ns_per_update(bm: Bm, m: usize, vector: bool) -> f64 {
    let kernel = match bm {
        Bm::Ge => TuneKernel::Ge,
        Bm::Sw => TuneKernel::Sw,
        Bm::Fw => TuneKernel::Fw,
        Bm::Paren => TuneKernel::Paren,
        Bm::Lcs => TuneKernel::Lcs,
    };
    set_simd_enabled(vector);
    let ns = calibrate(kernel, m, Duration::from_millis(50));
    set_simd_enabled(true);
    ns
}

// ---------------------------------------------------------------------
// Models beside the measurement
// ---------------------------------------------------------------------

/// A one-core machine with this host's cache geometry and a compute
/// rate calibrated against the real GE kernel.
pub struct HostModel(MachineConfig);

pub fn host_model() -> HostModel {
    let mut machine = generic(1);
    machine.caches = host_geometry();
    HostModel(calibrated(&machine))
}

/// The simulator's prediction, in seconds, of a one-worker fork-join
/// run of `p`, the number of tasks it simulated, and how long the
/// simulation itself took.
pub fn simulate_forkjoin(host: &HostModel, p: &Problem) -> (f64, usize, f64) {
    let t0 = Instant::now();
    let tasks = dag(
        benchmark(p.bm),
        recdp::Model::ForkJoin,
        p.n / p.base,
        p.base,
    )
    .len();
    let predicted = predict_seconds(&host.0, benchmark(p.bm), p.n, p.base, Paradigm::OpenMp);
    (predicted, tasks, t0.elapsed().as_secs_f64())
}

/// Replays one cold 64 x 64 GE base case through the cache simulator
/// on this host's geometry. Returns the analytical miss bound over the
/// simulated first-level misses, and simulated accesses per second.
pub fn ge_miss_model_check() -> (f64, f64) {
    const M: usize = 64;
    let geometry = host_geometry();
    let mut caches = CacheHierarchy::new(&geometry);
    let t0 = Instant::now();
    ge_base_case_trace(2 * M, M, 1, 1, 0, &mut |addr, _| {
        caches.access(addr);
    });
    let per_s = ge_base_case_trace_len(M) as f64 / t0.elapsed().as_secs_f64();
    let bound = ge_miss_upper_bound(M, geometry.line_doubles()) as f64;
    (bound / caches.misses_at(0).max(1) as f64, per_s)
}
