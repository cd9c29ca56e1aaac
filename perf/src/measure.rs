//! One rep of a workload, direct or served, and the end-to-end metrics
//! computed from a run's reps.
//!
//! A rep is the unit that is repeated, shuffled and summarised: every
//! (problem, copy, model) once for a direct workload, one batch of jobs
//! for a served one. Each rep sets up from scratch (pool or server,
//! inputs, job descriptions), so `setup_s` has as many samples as every
//! other metric.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{self, Job, Pool, QueryPair, Reply, Request, Server, TENANTS};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{median, percentile, Summary};
use crate::workloads::{
    Kind, Model, Problem, Workload, CLIENTS, SW_BATCH_N, SW_BATCH_QUERIES, WORKERS,
};

/// Streams of the seeded generator, one per purpose.
const STREAM_QUERIES: u64 = 1;
const STREAM_BATCH_POOL: u64 = 2;
pub const STREAM_ORDER: u64 = 3;

/// Alignment pairs the small batch jobs draw their queries from.
const BATCH_POOL: usize = 64;

/// Everything derived from `--seed` before measuring starts, plus the
/// loops-oracle digest of every input.
pub struct Inputs {
    /// Seeded query pairs per problem index (empty unless `seeded`).
    queries: Vec<Vec<QueryPair>>,
    /// Digest of the loops oracle per (problem index, copy).
    oracle: Vec<Vec<u64>>,
    batch_pool: Vec<QueryPair>,
    batch_oracle: Vec<u64>,
}

fn oracle_digest(p: &Problem, query: Option<&QueryPair>, pool: &Pool) -> u64 {
    let mut job = adapter::prepare(p, query);
    job.run(Model::Loops, pool, &mut Spans::off())
        .expect("the serial loops cannot fail");
    job.digest()
}

impl Inputs {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let root = Rng::new(seed);
        // The loops ignore the pool; `Job::run` just wants one.
        let pool = adapter::build_pool(1, false);
        let mut qrng = root.fork(STREAM_QUERIES);
        let queries: Vec<Vec<QueryPair>> = w
            .problems
            .iter()
            .map(|p| {
                let copies = if p.seeded { p.copies } else { 0 };
                (0..copies)
                    .map(|_| (qrng.dna(p.n), qrng.dna(p.n)))
                    .collect()
            })
            .collect();
        // Digests depend on the input alone, not on tile size or width,
        // so problems that differ only in those share an oracle run.
        let mut standard: HashMap<(crate::workloads::Bm, usize), u64> = HashMap::new();
        let oracle = w
            .problems
            .iter()
            .zip(&queries)
            .map(|(p, qs)| {
                if p.seeded {
                    qs.iter()
                        .map(|q| oracle_digest(p, Some(q), &pool))
                        .collect()
                } else {
                    let d = *standard
                        .entry((p.bm, p.n))
                        .or_insert_with(|| oracle_digest(p, None, &pool));
                    vec![d; p.copies]
                }
            })
            .collect();
        let mut brng = root.fork(STREAM_BATCH_POOL);
        let batch_pool: Vec<QueryPair> = (0..BATCH_POOL)
            .map(|_| (brng.dna(SW_BATCH_N), brng.dna(SW_BATCH_N)))
            .collect();
        let batch_problem = Problem {
            bm: crate::workloads::Bm::Sw,
            n: SW_BATCH_N,
            base: crate::workloads::SW_BATCH_BASE,
            r: 2,
            copies: 1,
            seeded: true,
        };
        let batch_oracle = batch_pool
            .iter()
            .map(|q| oracle_digest(&batch_problem, Some(q), &pool))
            .collect();
        Inputs {
            queries,
            oracle,
            batch_pool,
            batch_oracle,
        }
    }

    fn query(&self, problem: usize, copy: usize) -> Option<&QueryPair> {
        self.queries[problem].get(copy)
    }

    pub fn prepare(&self, w: &Workload, problem: usize, copy: usize) -> Job {
        adapter::prepare(&w.problems[problem], self.query(problem, copy))
    }

    pub fn oracle(&self, problem: usize, copy: usize) -> u64 {
        self.oracle[problem][copy]
    }
}

/// What a sample measured. `Batch` is a small-alignment batch job in
/// per-query (`false`) or coalesced (`true`) mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Bench { problem: usize, model: Model },
    Batch { coalesced: bool },
}

/// One timed run or served job.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// What the caller waited: run time, or submit-to-reply latency.
    pub secs: f64,
    /// Served jobs only: the `submit` call, and the server's own
    /// queueing and execution times.
    pub submit_s: f64,
    pub queued_s: f64,
    pub run_s: f64,
}

/// One rep's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// Un-timed time inside repo calls: pool or server construction and
    /// every input or job-description build.
    pub setup_s: f64,
    /// Direct: sum of the timed runs. Served: wall time of the batch.
    pub busy_s: f64,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

/// One rep of a direct workload on a fresh pool of `workers`.
pub fn direct_rep(
    w: &Workload,
    inputs: &Inputs,
    workers: usize,
    rng: &mut Rng,
    spans: &mut Spans,
) -> Rep {
    let mut order: Vec<(usize, usize, Model)> = (0..w.problems.len())
        .flat_map(|pi| (0..w.problems[pi].copies).map(move |c| (pi, c)))
        .flat_map(|(pi, c)| Model::ALL.map(|m| (pi, c, m)))
        .collect();
    rng.shuffle(&mut order);
    let mut rep = Rep::default();
    spans.next_trace();
    let open = spans.enter("pool_build");
    let pool = adapter::build_pool(workers, false);
    rep.setup_s += spans.exit(open);
    for (pi, copy, model) in order {
        spans.next_trace();
        let run = timed_run(w, inputs, pi, copy, spans, |job, spans| {
            job.run(model, &pool, spans)
        });
        rep.setup_s += run.prepare_s;
        rep.busy_s += run.secs;
        rep.attempted += 1;
        rep.failed += u64::from(!run.ok);
        rep.samples.push(Sample {
            class: Class::Bench { problem: pi, model },
            secs: run.secs,
            submit_s: 0.0,
            queued_s: 0.0,
            run_s: run.secs,
        });
    }
    rep
}

/// One direct run: input generation (set-up), the run (timed), whether
/// its table matched the loops oracle, and what the run returned.
pub struct Run<T> {
    pub prepare_s: f64,
    pub secs: f64,
    pub ok: bool,
    pub out: Option<T>,
}

/// Prepares a job, times `run` on it and verifies its table.
pub fn timed_run<T>(
    w: &Workload,
    inputs: &Inputs,
    problem: usize,
    copy: usize,
    spans: &mut Spans,
    run: impl FnOnce(&mut Job, &mut Spans) -> Result<T, String>,
) -> Run<T> {
    let open = spans.enter("prepare");
    let mut job = inputs.prepare(w, problem, copy);
    let prepare_s = spans.exit(open);
    let open = spans.enter("run");
    let result = run(&mut job, spans);
    let secs = spans.exit(open);
    let open = spans.enter("verify");
    let ok = result.is_ok() && job.digest() == inputs.oracle(problem, copy);
    spans.exit(open);
    Run {
        prepare_s,
        secs,
        ok,
        out: result.ok(),
    }
}

/// A served job waiting to be sent, with what its reply must contain.
struct Pending {
    class: Class,
    request: Request,
    expect: Vec<u64>,
}

/// What a client saw of one job.
struct Served {
    class: Class,
    expect: Vec<u64>,
    sent: Instant,
    submit_s: f64,
    total_s: f64,
    reply: Result<Reply, String>,
}

/// Builds the job list of one batch in seeded order. Tenants alternate
/// 3:1 by position after the shuffle, so every seed sends the same
/// number of jobs per tenant and class.
fn build_batch(w: &Workload, inputs: &Inputs, rng: &mut Rng) -> Vec<Pending> {
    let mut classes: Vec<Class> = Vec::new();
    for pi in 0..w.problems.len() {
        for model in Model::ALL {
            for _ in 0..w.mix.per_class {
                classes.push(Class::Bench { problem: pi, model });
            }
        }
    }
    for coalesced in [false, true] {
        for _ in 0..w.mix.sw_batches {
            classes.push(Class::Batch { coalesced });
        }
    }
    rng.shuffle(&mut classes);
    classes
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let bravo = i % 4 == 3;
            let tenant = TENANTS[usize::from(bravo)];
            match class {
                Class::Bench { problem, model } => {
                    let priority = if w.mix.priorities {
                        rng.below(3) as i32
                    } else {
                        0
                    };
                    Pending {
                        class,
                        request: adapter::bench_request(
                            tenant,
                            &w.problems[problem],
                            model,
                            priority,
                            bravo && w.mix.integrity_on_bravo,
                        ),
                        expect: vec![inputs.oracle(problem, 0)],
                    }
                }
                Class::Batch { coalesced } => {
                    let picks: Vec<usize> = (0..SW_BATCH_QUERIES)
                        .map(|_| rng.below(inputs.batch_pool.len()))
                        .collect();
                    let queries: Vec<QueryPair> = picks
                        .iter()
                        .map(|&i| inputs.batch_pool[i].clone())
                        .collect();
                    Pending {
                        class,
                        request: adapter::sw_batch_request(tenant, &queries, coalesced),
                        expect: picks.iter().map(|&i| inputs.batch_oracle[i]).collect(),
                    }
                }
            }
        })
        .collect()
}

/// One batch through a fresh server: `clients` closed-loop callers take
/// jobs off the shared list, each waiting for its reply before sending
/// its next. Returns the server too, still running, for callers that
/// want its pool or counters.
pub fn served_rep(
    w: &Workload,
    inputs: &Inputs,
    clients: usize,
    trace_utilization: bool,
    rng: &mut Rng,
    spans: &mut Spans,
) -> (Rep, Server) {
    let mut rep = Rep::default();
    spans.next_trace();
    let open = spans.enter("server_build");
    let server = adapter::build_server(trace_utilization);
    rep.setup_s += spans.exit(open);
    let open = spans.enter("spec_build");
    let batch = build_batch(w, inputs, rng);
    rep.setup_s += spans.exit(open);

    let queue = Mutex::new(batch.into_iter());
    let started = Instant::now();
    let served: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    loop {
                        let next = queue.lock().expect("no client panics holding it").next();
                        let Some(job) = next else { break };
                        let sent = Instant::now();
                        let ticket = server.submit(job.request);
                        let submit_s = sent.elapsed().as_secs_f64();
                        let reply = ticket.and_then(|t| t.wait());
                        seen.push(Served {
                            class: job.class,
                            expect: job.expect,
                            sent,
                            submit_s,
                            total_s: sent.elapsed().as_secs_f64(),
                            reply,
                        });
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    rep.busy_s = started.elapsed().as_secs_f64();

    for job in served {
        let trace = spans.next_trace();
        let open = spans.enter("verify");
        let ok = matches!(&job.reply, Ok(r) if r.digests == job.expect);
        spans.exit(open);
        rep.attempted += 1;
        rep.failed += u64::from(!ok);
        let (queued_s, run_s) = job
            .reply
            .as_ref()
            .map_or((0.0, 0.0), |r| (r.queued_s, r.run_s));
        // The job's phases as spans: the client's clock gives the whole
        // and the submit call, the server's own timings the middle, and
        // the reply is what is left.
        let root = spans.record("job", job.sent, job.total_s, trace, None);
        spans.record("submit", job.sent, job.submit_s, trace, root);
        let queued_at = job.sent + secs(job.submit_s);
        spans.record("queued", queued_at, queued_s, trace, root);
        let run_at = queued_at + secs(queued_s);
        spans.record("run", run_at, run_s, trace, root);
        let reply_s = job.total_s - job.submit_s - queued_s - run_s;
        spans.record("reply", run_at + secs(run_s), reply_s, trace, root);
        rep.samples.push(Sample {
            class: job.class,
            secs: job.total_s,
            submit_s: job.submit_s,
            queued_s,
            run_s,
        });
    }
    (rep, server)
}

fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s.max(0.0))
}

/// One rep of `w` the way its end-to-end run does it.
pub fn rep(w: &Workload, inputs: &Inputs, rng: &mut Rng, spans: &mut Spans) -> Rep {
    match w.kind {
        Kind::Direct => direct_rep(w, inputs, WORKERS, rng, spans),
        Kind::Served => {
            let (rep, server) = served_rep(w, inputs, CLIENTS, true, rng, spans);
            server.shutdown();
            rep
        }
    }
}

/// A named, summarised number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Self {
        Metric {
            name: name.into(),
            unit,
            summary,
        }
    }
}

/// The time of one class. Direct: the fastest rep, a rep's runs of the
/// class summed (its copies). Served: the lower quartile of the
/// latencies of all its jobs.
fn class_time(w: &Workload, reps: &[Rep], class: Class) -> Summary {
    let of_rep = |r: &Rep| -> Vec<f64> {
        r.samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.secs)
            .collect()
    };
    match w.kind {
        Kind::Direct => Summary::fastest(
            &reps
                .iter()
                .map(|r| of_rep(r).iter().sum())
                .collect::<Vec<f64>>(),
        ),
        Kind::Served => {
            let pooled: Vec<f64> = reps.iter().flat_map(of_rep).collect();
            Summary {
                value: percentile(&pooled, 25.0),
                ..Summary::of(&pooled)
            }
        }
    }
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order.
///
/// On a shared host interference only ever adds time, in bursts that
/// can outlast half a run, so what is reported is the best of the
/// repeats, not their median: the fastest rep of a direct run (one
/// fixed computation whose time only the host changes), the best batch
/// for a served batch's throughput and latency percentiles, and, for a
/// served job class, whose latency also depends on what was queued
/// ahead, the lower quartile over all its jobs. `setup_s` is the median
/// over reps; `rss_mb` is the peak resident set the caller read after a
/// fixed number of reps. Every metric carries its samples' MAD, which
/// says how disturbed the run was.
pub fn end_to_end(w: &Workload, reps: &[Rep], rss_mb: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    // Time to solution per execution model: the sum over the problem
    // list of one run (or one served job) each. The spread of the sum
    // is reported as the sum of the problems' MADs.
    for model in Model::ALL {
        let mut sum = Summary {
            value: 0.0,
            mad: 0.0,
            n: usize::MAX,
        };
        for pi in 0..w.problems.len() {
            let s = class_time(w, reps, Class::Bench { problem: pi, model });
            sum.value += s.value;
            sum.mad += s.mad;
            sum.n = sum.n.min(s.n);
        }
        out.push(Metric::new(format!("wall_s.{}", model.key()), "s", sum));
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let lat_ms = |r: &Rep, p: f64| {
        let ms: Vec<f64> = r.samples.iter().map(|s| s.secs * 1e3).collect();
        if p == 50.0 {
            median(&ms)
        } else {
            percentile(&ms, p)
        }
    };
    out.push(Metric::new(
        "jobs_per_s",
        "1/s",
        Summary::highest(&per_rep(&|r| r.samples.len() as f64 / r.busy_s)),
    ));
    out.push(Metric::new(
        "lat_p50_ms",
        "ms",
        Summary::fastest(&per_rep(&|r| lat_ms(r, 50.0))),
    ));
    out.push(Metric::new(
        "lat_p95_ms",
        "ms",
        Summary::fastest(&per_rep(&|r| lat_ms(r, 95.0))),
    ));
    out.push(Metric::new(
        "setup_s",
        "s",
        Summary::of(&per_rep(&|r| r.setup_s)),
    ));
    out.push(Metric::new("peak_rss_mb", "MB", Summary::exact(rss_mb)));
    out
}

/// What one invocation measured.
pub struct Measured {
    pub metrics: Vec<Metric>,
    /// Outputs checked against the oracle, and how many were wrong or
    /// missing.
    pub attempted: u64,
    pub failed: u64,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

/// The end-to-end run of one workload: spans off, one warm-up rep, then
/// reps for `seconds`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Measured {
    let inputs = Inputs::new(w, seed);
    let mut rng = Rng::new(seed).fork(STREAM_ORDER);
    let mut spans = Spans::off();
    // One discarded rep: page cache, allocator arenas and lazily
    // initialised state settle before anything is timed. Its outputs
    // are still checked. Its order is the same for every seed, so the
    // allocator's adaptive thresholds, which depend on the order big
    // tables are first freed in, start every run in the same state.
    let warm = rep(w, &inputs, &mut Rng::new(0), &mut spans);
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut reps = Vec::new();
    let mut rss_mb = 0.0;
    let started = Instant::now();
    while reps.len() < w.min_reps || started.elapsed().as_secs_f64() < seconds {
        let r = rep(w, &inputs, &mut rng, &mut spans);
        attempted += r.attempted;
        failed += r.failed;
        reps.push(r);
        // Peak memory is read after a fixed amount of work, not at the
        // end: the data-flow runtime keeps every finished graph's memory,
        // so a reading after "as many reps as fit" would rise with speed.
        if reps.len() == w.min_reps {
            rss_mb = peak_rss_mb();
        }
    }
    Measured {
        metrics: end_to_end(w, &reps, rss_mb),
        attempted,
        failed,
        spans: None,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
