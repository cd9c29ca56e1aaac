//! The server proper: one shared pool, a bounded fair-share admission
//! queue, and a fixed set of runner threads dispatching jobs onto the
//! pool.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use recdp::{prepare_job_with, prepare_sw_query, Execution, JobRun, PreparedJob, RunEnv};
use recdp_cnc::{CncError, CncGraph, GraphStats};
use recdp_forkjoin::{ThreadPool, ThreadPoolBuilder};
use recdp_kernels::IntegrityReport;
use recdp_trace::{panic_message, TraceSession, Tracer};

use crate::job::{
    BatchMode, JobError, JobHandle, JobPayload, JobResult, JobShared, JobSpec, JobState,
    SubmitError,
};
use crate::scheduler::{QueuedJob, Scheduler};
use crate::stats::{ServerStats, TenantStats};

/// Server sizing and behaviour.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Workers in the one shared pool every job executes on.
    pub threads: usize,
    /// Admission-queue depth; submissions beyond it are refused with
    /// [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Runner threads, i.e. jobs executing concurrently. Each runner
    /// drives one job at a time; the jobs' parallelism comes from the
    /// shared pool, so this bounds graph-level concurrency, not
    /// thread-level.
    pub max_inflight: usize,
    /// Start with dispatch paused (submissions queue up but nothing
    /// runs until [`DpServer::resume`]) — lets tests and batch loaders
    /// build a backlog deterministically.
    pub paused: bool,
    /// Attach a fresh per-job [`Tracer`] to data-flow jobs and charge
    /// the measured step thread-time to the owning tenant (see
    /// [`TenantStats::busy_ns`]).
    pub trace_utilization: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue_depth: 256,
            max_inflight: 2,
            paused: false,
            trace_utilization: true,
        }
    }
}

struct Inner {
    cfg: ServerConfig,
    pool: Arc<ThreadPool>,
    sched: Mutex<Scheduler>,
    work: Condvar,
    paused: AtomicBool,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    running: AtomicU64,
    tenants: Mutex<HashMap<String, TenantStats>>,
}

/// A long-lived multi-tenant DP job server. One work-stealing pool is
/// built at startup and every job — fork-join or data-flow, any
/// benchmark, any size — executes on it; per-call pool construction
/// and teardown (the scheduling overhead axis of the paper) is paid
/// once per server, not once per job.
///
/// Jobs enter through [`DpServer::submit`] (bounded, refusing when
/// full), wait in per-tenant queues under weighted fair-share
/// scheduling with strict priority within a tenant, and execute on
/// `max_inflight` runner threads. Data-flow jobs get a fresh
/// [`CncGraph`] sharing the pool (as CnC programs share a TBB arena),
/// so runtime state — stats, retry budgets, checkpoints — is
/// job-scoped by construction while the threads are shared.
pub struct DpServer {
    inner: Arc<Inner>,
    runners: Vec<std::thread::JoinHandle<()>>,
}

impl DpServer {
    /// Builds the pool and starts the runner threads.
    pub fn new(cfg: ServerConfig) -> Self {
        assert!(cfg.threads >= 1, "need at least one pool worker");
        assert!(cfg.max_inflight >= 1, "need at least one runner");
        assert!(cfg.queue_depth >= 1, "queue depth must be positive");
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(cfg.threads).build());
        let inner = Arc::new(Inner {
            paused: AtomicBool::new(cfg.paused),
            cfg,
            pool,
            sched: Mutex::new(Scheduler::new()),
            work: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            running: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
        });
        let runners = (0..inner.cfg.max_inflight)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("recdp-server-runner-{i}"))
                    .spawn(move || runner_loop(&inner))
                    .expect("spawn runner thread")
            })
            .collect();
        DpServer { inner, runners }
    }

    /// Submits a job, returning its handle — or refusing it if the
    /// bounded queue is full or the server is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        // Refuse geometry the kernels would reject at the door: a bad
        // size used to surface as `JobError::Panicked` from deep inside
        // a runner (survivable, but opaque and charged to the tenant).
        if let Err(violation) = spec.validate() {
            bump_tenant(inner, &spec.tenant, |t| t.rejected += 1);
            return Err(SubmitError::InvalidSpec(violation));
        }
        let tenant = spec.tenant.clone();
        let (outcome, weight) = {
            let mut sched = inner.sched.lock();
            if sched.len() >= inner.cfg.queue_depth {
                (None, sched.weight_of(&tenant))
            } else {
                let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
                let shared = JobShared::new(id, tenant.clone());
                sched.enqueue(QueuedJob {
                    shared: Arc::clone(&shared),
                    spec,
                    seq: id,
                });
                (Some(shared), sched.weight_of(&tenant))
            }
        };
        {
            let mut tenants = inner.tenants.lock();
            let stats = tenants.entry(tenant).or_default();
            stats.weight = weight;
            match &outcome {
                Some(_) => stats.submitted += 1,
                None => stats.rejected += 1,
            }
        }
        match outcome {
            Some(shared) => {
                inner.work.notify_one();
                Ok(JobHandle { shared })
            }
            None => Err(SubmitError::QueueFull {
                depth: inner.cfg.queue_depth,
            }),
        }
    }

    /// Pauses dispatch (running jobs finish; queued jobs stay queued).
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes dispatch after [`ServerConfig::paused`] or
    /// [`DpServer::pause`].
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.work.notify_all();
    }

    /// Sets `tenant`'s fair-share weight (relative to other tenants;
    /// default 1). Takes effect from the next dispatch.
    pub fn set_tenant_weight(&self, tenant: &str, weight: f64) {
        self.inner.sched.lock().set_weight(tenant, weight);
        self.inner
            .tenants
            .lock()
            .entry(tenant.to_string())
            .or_default()
            .weight = weight;
    }

    /// The shared pool every job executes on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.inner.pool
    }

    /// Workers that have died fail-stop since startup (pool-level
    /// supervision state — visible across jobs by design).
    pub fn worker_deaths(&self) -> usize {
        self.inner.pool.worker_deaths()
    }

    /// Live workers in the shared pool.
    pub fn alive_workers(&self) -> usize {
        self.inner.pool.alive_workers()
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.inner.sched.lock().len()
    }

    /// Cumulative accounting for one tenant, if it ever submitted.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.inner.tenants.lock().get(tenant).copied()
    }

    /// Whole-server aggregates.
    pub fn stats(&self) -> ServerStats {
        let mut out = ServerStats::default();
        for t in self.inner.tenants.lock().values() {
            out.submitted += t.submitted;
            out.rejected += t.rejected;
            out.completed += t.completed;
            out.failed += t.failed;
            out.cancelled += t.cancelled;
        }
        out.queued = self.queue_len() as u64;
        out.running = self.inner.running.load(Ordering::SeqCst);
        out
    }

    /// Stops dispatch, fails every still-queued job with
    /// [`JobError::ShutDown`], joins the runners and tears down the
    /// pool. Running jobs finish first.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.work.notify_all();
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
        let drained = self.inner.sched.lock().drain();
        for job in drained {
            if job.shared.is_done() {
                // Cancelled while queued; the runner never saw it.
                bump_tenant(&self.inner, &job.shared.tenant, |t| t.cancelled += 1);
            } else {
                job.shared.finish(Err(JobError::ShutDown));
                bump_tenant(&self.inner, &job.shared.tenant, |t| t.failed += 1);
            }
        }
        // With the runners joined and their graphs dropped, the last
        // pool reference goes away with the server and the pool's own
        // `Drop` joins the workers (a quiesced server has no queued
        // fire-and-forget jobs to lose).
    }
}

impl Drop for DpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn bump_tenant(inner: &Inner, tenant: &str, f: impl FnOnce(&mut TenantStats)) {
    let mut tenants = inner.tenants.lock();
    f(tenants.entry(tenant.to_string()).or_default());
}

/// What one execution produced, before tenant accounting.
struct Executed {
    result: Result<JobResult, JobError>,
    /// Busy thread-time to charge (traced step work when available,
    /// wall time otherwise).
    busy_ns: u64,
    steps_completed: u64,
    /// Integrity-layer activity to account to the tenant (also charged
    /// when the job *fails* with an unrepairable tile — the detection
    /// and repair work happened either way).
    corruptions_detected: u64,
    tiles_recomputed: u64,
}

fn runner_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut sched = inner.sched.lock();
            loop {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if !inner.paused.load(Ordering::SeqCst) {
                    if let Some(job) = sched.pick() {
                        break job;
                    }
                }
                inner.work.wait(&mut sched);
            }
        };
        if job.shared.is_done() {
            // Cancelled while queued: the handle already resolved; the
            // queue entry is just discarded.
            bump_tenant(inner, &job.shared.tenant, |t| t.cancelled += 1);
            continue;
        }
        *job.shared.state.lock() = JobState::Running;
        inner.running.fetch_add(1, Ordering::SeqCst);
        let queued_s = job.shared.submitted_at.elapsed().as_secs_f64();
        let started = Instant::now();
        let executed = match catch_unwind(AssertUnwindSafe(|| execute(inner, &job, queued_s))) {
            Ok(executed) => executed,
            Err(panic) => Executed {
                result: Err(JobError::Panicked(panic_message(&*panic))),
                busy_ns: started.elapsed().as_nanos() as u64,
                steps_completed: 0,
                corruptions_detected: 0,
                tiles_recomputed: 0,
            },
        };
        let run_ns = started.elapsed().as_nanos() as u64;
        bump_tenant(inner, &job.shared.tenant, |t| {
            t.queue_wait_ns += (queued_s * 1e9) as u64;
            t.run_ns += run_ns;
            t.busy_ns += executed.busy_ns;
            t.steps_completed += executed.steps_completed;
            t.work_charged += job.spec.cost();
            t.corruptions_detected += executed.corruptions_detected;
            t.tiles_recomputed += executed.tiles_recomputed;
            match &executed.result {
                Ok(_) => t.completed += 1,
                Err(JobError::Cancelled(_)) => t.cancelled += 1,
                Err(_) => t.failed += 1,
            }
        });
        job.shared.finish(executed.result);
        inner.running.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Builds a job-scoped graph on the shared pool, armed with the job's
/// SLA surface, and installs its cancel token on the handle.
fn arm_graph(
    inner: &Inner,
    job: &QueuedJob,
    remaining: Option<Duration>,
    tracer: Option<&Arc<Tracer>>,
) -> CncGraph {
    let graph = CncGraph::with_pool(Arc::clone(&inner.pool));
    graph.set_retry_policy(job.spec.retry);
    if let Some(d) = remaining {
        graph.set_deadline(d);
    }
    if let Some(injector) = &job.spec.injector {
        graph.set_fault_injector(Arc::clone(injector));
    }
    if let Some(tracer) = tracer {
        graph.set_tracer(Arc::clone(tracer));
    }
    let token = graph.cancel_token();
    *job.shared.run_token.lock() = Some(token.clone());
    // Token is installed; a cancel that raced the install left the
    // flag set without reaching a token — honour it now.
    if job.shared.cancel_requested.load(Ordering::SeqCst) {
        token.cancel(job.shared.cancel_reason.lock().clone());
    }
    graph
}

fn map_cnc_err(e: CncError) -> JobError {
    match e {
        CncError::Cancelled { reason } => JobError::Cancelled(reason),
        other => JobError::Cnc(other),
    }
}

fn execute(inner: &Inner, job: &QueuedJob, queued_s: f64) -> Executed {
    let spec = &job.spec;
    // The SLA clock started at submission: a job that already blew its
    // deadline in the queue fails without running; otherwise the
    // remaining budget is armed on its graph(s).
    let remaining = match spec.deadline {
        Some(d) => match d.checked_sub(job.shared.submitted_at.elapsed()) {
            Some(r) => Some(r),
            None => {
                return Executed {
                    result: Err(JobError::Cnc(CncError::Timeout {
                        deadline: d,
                        pending: 0,
                        blocked: 0,
                    })),
                    busy_ns: 0,
                    steps_completed: 0,
                    corruptions_detected: 0,
                    tiles_recomputed: 0,
                }
            }
        },
        None => None,
    };
    let uses_cnc = matches!(
        spec.payload,
        JobPayload::Benchmark {
            execution: Execution::Cnc(_),
            ..
        } | JobPayload::SwBatch { .. }
    );
    let tracer = (inner.cfg.trace_utilization && uses_cnc).then(Tracer::new);
    // The job's integrity runtime configuration (its fault injector is
    // the corruption source), or `None` for an unchecked job.
    let integrity = spec.integrity.config(spec.injector.as_ref());
    let started = Instant::now();
    let outcome: Result<(Vec<PreparedJob>, JobRun), JobError> = match &spec.payload {
        JobPayload::Benchmark {
            benchmark,
            execution,
            n,
            base,
            decomposition,
        } => {
            // `validate` admitted the width at submit, so constructing
            // the checked newtype here cannot panic.
            let mut p = prepare_job_with(
                *benchmark,
                *n,
                *base,
                recdp_kernels::Decomposition::new(*decomposition),
            );
            let graph = uses_cnc.then(|| arm_graph(inner, job, remaining, tracer.as_ref()));
            let env = RunEnv {
                pool: Some(&inner.pool),
                graph: graph.as_ref(),
                integrity,
                count_joins: None,
            };
            p.run(*execution, env)
                .map(|ran| (vec![p], ran))
                .map_err(map_cnc_err)
        }
        JobPayload::SwBatch {
            queries,
            mode,
            variant,
        } => {
            let mut jobs: Vec<PreparedJob> = queries
                .iter()
                .map(|q| prepare_sw_query(&q.a, &q.b, q.n, q.base))
                .collect();
            // One integrity state per query (their digest registries
            // are per-query, like the collections); the per-query
            // reports merge into the job's.
            let mut report: Option<IntegrityReport> = None;
            let mut merge = |r: IntegrityReport| report = Some(report.unwrap_or_default().merge(r));
            let stats = match mode {
                BatchMode::Coalesced => {
                    let graph = arm_graph(inner, job, remaining, tracer.as_ref());
                    let states: Vec<_> = jobs
                        .iter()
                        .map(|p| p.register_cnc(*variant, &graph, integrity.clone()))
                        .collect();
                    graph.wait().inspect(|_| {
                        states.iter().flatten().for_each(|st| merge(st.report()));
                    })
                }
                BatchMode::PerQuery => {
                    let execution = Execution::Cnc(*variant);
                    jobs.iter_mut()
                        .try_fold(GraphStats::default(), |mut acc, p| {
                            if job.shared.cancel_requested.load(Ordering::SeqCst) {
                                return Err(CncError::Cancelled {
                                    reason: job.shared.cancel_reason.lock().clone(),
                                });
                            }
                            let graph = arm_graph(inner, job, remaining, tracer.as_ref());
                            let env = RunEnv {
                                graph: Some(&graph),
                                integrity: integrity.clone(),
                                ..RunEnv::default()
                            };
                            let ran = p.run(execution, env)?;
                            if let Some(r) = ran.integrity {
                                merge(r);
                            }
                            acc += ran.cnc_stats.expect("a data-flow run carries stats");
                            Ok(acc)
                        })
                }
            };
            stats
                .map(|stats| {
                    let ran = JobRun {
                        cnc_stats: Some(stats),
                        integrity: report,
                        joins: None,
                    };
                    (jobs, ran)
                })
                .map_err(map_cnc_err)
        }
    };
    let seconds = started.elapsed().as_secs_f64();
    let (busy_ns, steps_completed) = match &tracer {
        Some(tracer) => {
            TraceSession::with_tracer(Arc::clone(tracer), inner.pool.num_threads()).work_and_steps()
        }
        None => ((seconds * 1e9) as u64, 0),
    };
    let mut corruptions_detected = 0;
    let mut tiles_recomputed = 0;
    let result = outcome.and_then(|(jobs, ran)| {
        if let Some(r) = &ran.integrity {
            // Charge the detection/repair work to the tenant whether or
            // not the job survives it.
            corruptions_detected = r.corruptions_detected + r.put_corruptions_detected;
            tiles_recomputed = r.tiles_recomputed;
            // An unrepairable tile means the tables are corrupt: the
            // result is withheld, not served.
            r.ok().map_err(JobError::Integrity)?;
        }
        let tables: Vec<_> = jobs.into_iter().map(PreparedJob::into_table).collect();
        let digests = tables.iter().map(|t| t.bit_digest()).collect();
        Ok(JobResult {
            tables,
            digests,
            seconds,
            queued_seconds: queued_s,
            cnc_stats: ran.cnc_stats,
            integrity: ran.integrity,
        })
    });
    Executed {
        result,
        busy_ns,
        steps_completed,
        corruptions_detected,
        tiles_recomputed,
    }
}
