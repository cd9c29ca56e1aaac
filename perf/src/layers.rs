//! The traced run: per-layer numbers for one workload.
//!
//! Direct probes run on a one-worker pool so that the difference
//! between two execution models is overhead, not parallelism, and each
//! layer's cost is taken by differencing against the layer below it
//! (loops, then the serial recursive engine, then a runtime), so that
//! on one worker the layers add up to the measured wall time. Every
//! workload runs every probe on its own problem list; a direct workload
//! is also served once and a served workload also run directly, which
//! is how every workload can report every layer.
//!
//! Probes repeat in rounds for as long as `--seconds` allows; a metric
//! is the median over rounds.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{self, Check, CncCounts, Job, Pool};
use crate::measure::{
    direct_rep, served_rep, timed_run, Class, Inputs, Measured, Metric, Rep, Sample, STREAM_ORDER,
};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{median, percentile, Summary};
use crate::workloads::{Bm, Kind, Mix, Model, Workload, CLIENTS, WORKERS};

/// One round's values by metric name, and its correctness tally.
#[derive(Default)]
struct Round {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Round {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn tally(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
    }
}

/// A workload with the inputs and oracle digests generated for it.
struct View {
    w: Workload,
    inputs: Inputs,
}

impl View {
    fn new(w: Workload, seed: u64) -> Self {
        View {
            inputs: Inputs::new(&w, seed),
            w,
        }
    }
}

/// The workloads a traced run derives from the one it was given.
struct Views {
    /// The full workload (span-overhead reps).
    full: View,
    /// One copy of each distinct problem at the narrowest width.
    probe: View,
    /// The probe problems at width 8.
    wide: View,
    /// What is served under load: the workload itself if it is a served
    /// one, else its probe problems as benchmark jobs.
    loaded: View,
    /// What is served one job at a time: a few jobs of every class of
    /// `loaded`, and always both small-alignment batch modes.
    single: View,
}

impl Views {
    fn new(w: &Workload, seed: u64) -> Self {
        let probe = Workload {
            problems: w.probe_problems(),
            ..w.clone()
        };
        // A served benchmark job and a wide run compute the facade's
        // standard input, so those views drop the seeded queries.
        let standard = |w: &Workload, r: Option<u32>| Workload {
            problems: w
                .problems
                .iter()
                .map(|p| crate::workloads::Problem {
                    seeded: false,
                    r: r.unwrap_or(p.r),
                    ..*p
                })
                .collect(),
            ..w.clone()
        };
        let wide = standard(&probe, Some(8));
        let loaded = match w.kind {
            Kind::Served => w.clone(),
            Kind::Direct => standard(&probe, None),
        };
        let single = Workload {
            mix: Mix {
                per_class: 2,
                sw_batches: 4,
                ..loaded.mix
            },
            ..loaded.clone()
        };
        Views {
            full: View::new(w.clone(), seed),
            probe: View::new(probe, seed),
            wide: View::new(wide, seed),
            loaded: View::new(loaded, seed),
            single: View::new(single, seed),
        }
    }
}

/// Per-benchmark sums of one quantity over the probe problems.
type PerBm = BTreeMap<Bm, f64>;

fn total(m: &PerBm) -> f64 {
    m.values().sum()
}

/// What one pass over the probe problems measured, per benchmark.
#[derive(Default)]
struct Sweep<T> {
    secs: PerBm,
    prepare: PerBm,
    out: BTreeMap<Bm, T>,
}

/// Runs every probe problem once through `run`, summing times and
/// whatever the runs return per benchmark.
fn sweep<T: Default + std::ops::AddAssign>(
    v: &View,
    round: &mut Round,
    spans: &mut Spans,
    run: impl Fn(&mut Job, &mut Spans) -> Result<T, String>,
) -> Sweep<T> {
    let mut sweep = Sweep::default();
    for (pi, p) in v.w.problems.iter().enumerate() {
        spans.next_trace();
        let r = timed_run(&v.w, &v.inputs, pi, 0, spans, &run);
        round.attempted += 1;
        round.failed += u64::from(!r.ok);
        *sweep.secs.entry(p.bm).or_default() += r.secs;
        *sweep.prepare.entry(p.bm).or_default() += r.prepare_s;
        *sweep.out.entry(p.bm).or_default() += r.out.unwrap_or_default();
    }
    sweep
}

/// A sweep under one execution model; data-flow runs return counters.
fn model_sweep(
    v: &View,
    model: Model,
    pool: &Pool,
    round: &mut Round,
    spans: &mut Spans,
) -> Sweep<CncCounts> {
    sweep(v, round, spans, |job, spans| {
        job.run(model, pool, spans).map(Option::unwrap_or_default)
    })
}

/// A sweep through the checked fork-join entry point; returns the
/// verified-tile count.
fn checked_sweep(
    v: &View,
    check: Check,
    pool: &Pool,
    round: &mut Round,
    spans: &mut Spans,
) -> Sweep<u64> {
    sweep(v, round, spans, |job, _| {
        job.run_forkjoin_checked(pool, check)
    })
}

fn build_pool(workers: usize, traced: bool, spans: &mut Spans) -> Pool {
    spans.next_trace();
    let open = spans.enter("pool_build");
    let pool = adapter::build_pool(workers, traced);
    spans.exit(open);
    pool
}

fn direct_probes(v: &Views, round: &mut Round, spans: &mut Spans) {
    let w = &v.probe.w;
    let one = build_pool(1, false, spans);
    let loops = model_sweep(&v.probe, Model::Loops, &one, round, spans);
    let rdp = model_sweep(&v.probe, Model::Rdp, &one, round, spans).secs;
    let fj = model_sweep(&v.probe, Model::ForkJoin, &one, round, spans).secs;
    let full = checked_sweep(&v.probe, Check::Full, &one, round, spans);
    let sample = checked_sweep(&v.probe, Check::Sample, &one, round, spans).secs;
    let off = checked_sweep(&v.probe, Check::Off, &one, round, spans).secs;
    // Under `Full` every base tile a run executes is verified once.
    let tiles = |bm: Bm| full.out[&bm] as f64;

    for bm in Bm::ALL {
        let updates: f64 = w
            .problems
            .iter()
            .filter(|p| p.bm == bm)
            .map(|p| bm.updates(p.n))
            .sum();
        let k = bm.key();
        round.set(
            format!("kernels.loops_ns_per_update.{k}"),
            loops.secs[&bm] * 1e9 / updates,
        );
        round.set(
            format!("kernels.engine_ns_per_tile.{k}"),
            (rdp[&bm] - loops.secs[&bm]) * 1e9 / tiles(bm),
        );
        round.set(
            format!("forkjoin.overhead_ns_per_task.{k}"),
            (fj[&bm] - rdp[&bm]) * 1e9 / tiles(bm),
        );
        round.set(format!("core.prepare_ms.{k}"), loops.prepare[&bm] * 1e3);
    }
    round.set("integrity.off_ratio", total(&off) / total(&fj));
    round.set("integrity.sample_ratio", total(&sample) / total(&fj));
    round.set("integrity.full_ratio", total(&full.secs) / total(&fj));

    let mut tuner_s = 0.0;
    for model in Model::CNC {
        let cnc = model_sweep(&v.probe, model, &one, round, spans);
        let variant = model.variant_key();
        let mut sum = CncCounts::default();
        for bm in Bm::ALL {
            let c = cnc.out[&bm];
            round.set(
                format!("cnc.{variant}.overhead_ns_per_step.{}", bm.key()),
                (cnc.secs[&bm] - rdp[&bm]) * 1e9 / c.steps_completed as f64,
            );
            if model == Model::CncNative {
                round.set(
                    format!("cnc.native.requeue_ratio.{}", bm.key()),
                    c.steps_requeued as f64 / c.steps_started as f64,
                );
            }
            sum += c;
        }
        round.set(format!("cnc.{variant}.steps"), sum.steps_completed as f64);
        round.set(format!("cnc.{variant}.items_put"), sum.items_put as f64);
        round.set(
            format!("cnc.{variant}.gets_blocked"),
            sum.gets_blocked as f64,
        );
        if model == Model::CncTuner {
            tuner_s = total(&cnc.secs);
        }
    }

    // The same runs with a tracer attached to the pool and the graphs.
    let traced = build_pool(1, true, spans);
    let fj_traced = model_sweep(&v.probe, Model::ForkJoin, &traced, round, spans).secs;
    let tuner_traced = model_sweep(&v.probe, Model::CncTuner, &traced, round, spans).secs;
    round.set("trace.on_ratio.forkjoin", total(&fj_traced) / total(&fj));
    round.set("trace.on_ratio.cnc_tuner", total(&tuner_traced) / tuner_s);

    let two = build_pool(WORKERS, false, spans);
    let fj2 = model_sweep(&v.probe, Model::ForkJoin, &two, round, spans).secs;
    round.set("forkjoin.speedup_2w", total(&rdp) / total(&fj2));

    let rdp8 = model_sweep(&v.wide, Model::Rdp, &one, round, spans).secs;
    let fj8 = model_sweep(&v.wide, Model::ForkJoin, &one, round, spans).secs;
    for bm in Bm::ALL {
        round.set(
            format!("forkjoin.overhead_ns_per_task_r8.{}", bm.key()),
            (fj8[&bm] - rdp8[&bm]) * 1e9 / tiles(bm),
        );
    }

    // The simulator's one-worker fork-join prediction on a model of
    // this host, beside the measurement it predicts.
    let host = adapter::host_model();
    let (mut tasks, mut sim_s) = (0usize, 0.0);
    for bm in [Bm::Ge, Bm::Sw, Bm::Fw] {
        let mut predicted = 0.0;
        for p in w.problems.iter().filter(|p| p.bm == bm) {
            let (s, n, took) = adapter::simulate_forkjoin(&host, p);
            predicted += s;
            tasks += n;
            sim_s += took;
        }
        round.set(
            format!("sim.pred_over_measured.{}", bm.key()),
            predicted / fj[&bm],
        );
    }
    round.set("sim.tasks_per_s", tasks as f64 / sim_s);
    let (bound_ratio, accesses_per_s) = adapter::ge_miss_model_check();
    round.set("analytical.miss_bound_over_cachesim.ge", bound_ratio);
    round.set("cachesim.accesses_per_s", accesses_per_s);
}

fn micro_probes(w: &Workload, quick: bool, round: &mut Round) {
    let ops = if quick { 2_000 } else { 100_000 };
    let pool = adapter::build_pool(1, false);
    round.set(
        "forkjoin.join_leaf_ns",
        adapter::probe_join_leaf_ns(&pool, ops),
    );
    round.set(
        "forkjoin.scope_spawn_ns",
        adapter::probe_scope_spawn_ns(&pool, ops),
    );
    round.set(
        "forkjoin.install_ns",
        adapter::probe_install_ns(&pool, ops / 10),
    );
    round.set(
        "cnc.tag_put_step_ns",
        adapter::probe_tag_put_step_ns(&pool, ops),
    );
    round.set(
        "cnc.item_put_get_ns",
        adapter::probe_item_put_get_ns(&pool, ops),
    );
    round.set(
        "cnc.graph_setup_us",
        adapter::probe_graph_setup_us(&pool, ops / 100),
    );
    // Tile kernels at the tile size this workload uses.
    for bm in Bm::ALL {
        let base = w
            .problems
            .iter()
            .find(|p| p.bm == bm)
            .expect("every workload has every benchmark")
            .base;
        let k = bm.key();
        round.set(
            format!("kernels.tile_ns_per_update.{k}.scalar"),
            adapter::tile_ns_per_update(bm, base, false),
        );
        if matches!(bm, Bm::Ge | Bm::Fw) {
            // Equals the scalar number on a host without AVX.
            round.set(
                format!("kernels.tile_ns_per_update.{k}.avx"),
                adapter::tile_ns_per_update(bm, base, true),
            );
        }
    }
}

fn ms(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(|s| f(s) * 1e3).collect()
}

fn served_probes(v: &Views, rng: &mut Rng, round: &mut Round, spans: &mut Spans) {
    // Under load: the clients of the end-to-end run, spans off and on,
    // and once without the server's own per-job tracers.
    let (w, inputs) = (&v.loaded.w, &v.loaded.inputs);
    let mut off = Spans::off();
    let (plain, server) = served_rep(w, inputs, CLIENTS, true, rng, &mut off);
    let (failed, rejected) = server.failed_and_rejected();
    server.shutdown();
    let (spanned, server) = served_rep(w, inputs, CLIENTS, true, rng, spans);
    server.shutdown();
    let (untraced, server) = served_rep(w, inputs, CLIENTS, false, rng, &mut off);
    server.shutdown();
    for rep in [&plain, &spanned, &untraced] {
        round.tally(rep);
    }
    let queue = ms(&plain.samples, |s| s.queued_s);
    let run = ms(&plain.samples, |s| s.run_s);
    let lat = ms(&plain.samples, |s| s.secs);
    round.set("server.queue_ms_p50", median(&queue));
    round.set("server.queue_ms_p95", percentile(&queue, 95.0));
    round.set("server.run_ms_p50", median(&run));
    round.set("server.run_ms_p95", percentile(&run, 95.0));
    round.set("server.lat_p99_ms", percentile(&lat, 99.0));
    round.set("server.lat_p999_ms", percentile(&lat, 99.9));
    round.set("server.failed", failed as f64);
    round.set("server.rejected", rejected as f64);
    round.set("trace.server_on_ratio", plain.busy_s / untraced.busy_s);
    if v.full.w.kind == Kind::Served {
        round.set("harness.span_overhead_ratio", spanned.busy_s / plain.busy_s);
    }

    // One job at a time, then the same jobs run directly on the
    // server's own pool: the difference is what the server adds.
    let (w, inputs) = (&v.single.w, &v.single.inputs);
    let (single, server) = served_rep(w, inputs, 1, true, rng, spans);
    round.tally(&single);
    round.set(
        "server.submit_us_p50",
        median(&ms(&single.samples, |s| s.submit_s)) * 1e3,
    );
    let lat_of = |keep: &dyn Fn(Class) -> bool| {
        let picked: Vec<Sample> = single
            .samples
            .iter()
            .filter(|s| keep(s.class))
            .copied()
            .collect();
        median(&ms(&picked, |s| s.secs))
    };
    for model in Model::ALL {
        round.set(
            format!("server.lat_p50_ms.{}", model.key()),
            lat_of(&|c| matches!(c, Class::Bench { model: m, .. } if m == model)),
        );
    }
    round.set(
        "server.lat_p50_ms.sw_per_query",
        lat_of(&|c| c == Class::Batch { coalesced: false }),
    );
    round.set(
        "server.lat_p50_ms.sw_coalesced",
        lat_of(&|c| c == Class::Batch { coalesced: true }),
    );
    let pool = server.pool();
    let mut overhead_us = Vec::new();
    for (pi, _) in w.problems.iter().enumerate() {
        for model in Model::ALL {
            let class = Class::Bench { problem: pi, model };
            let served = lat_of(&|c| c == class);
            // A served job generates its input, runs and digests its
            // table, so the direct side does the same three things.
            let direct: Vec<f64> = (0..w.mix.per_class)
                .map(|_| {
                    spans.next_trace();
                    let t0 = Instant::now();
                    let run = timed_run(w, inputs, pi, 0, spans, |job, spans| {
                        job.run(model, &pool, spans)
                    });
                    round.attempted += 1;
                    round.failed += u64::from(!run.ok);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            overhead_us.push((served - median(&direct)) * 1e3);
        }
    }
    server.shutdown();
    round.set(
        "server.overhead_us_per_job",
        overhead_us.iter().sum::<f64>() / overhead_us.len() as f64,
    );
}

/// A direct workload's own rep with spans off and on.
fn direct_span_overhead(v: &Views, rng: &mut Rng, round: &mut Round, spans: &mut Spans) {
    let (w, inputs) = (&v.full.w, &v.full.inputs);
    let plain = direct_rep(w, inputs, WORKERS, rng, &mut Spans::off());
    let spanned = direct_rep(w, inputs, WORKERS, rng, spans);
    round.tally(&plain);
    round.tally(&spanned);
    round.set("harness.span_overhead_ratio", spanned.busy_s / plain.busy_s);
}

pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Measured {
    let views = Views::new(w, seed);
    let mut rng = Rng::new(seed).fork(STREAM_ORDER);
    let mut spans = Spans::on();
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    let mut longest = 0.0f64;
    loop {
        let t0 = Instant::now();
        let mut round = Round::default();
        direct_probes(&views, &mut round, &mut spans);
        micro_probes(w, quick, &mut round);
        served_probes(&views, &mut rng, &mut round, &mut spans);
        if w.kind == Kind::Direct {
            direct_span_overhead(&views, &mut rng, &mut round, &mut spans);
        }
        rounds.push(round);
        longest = longest.max(t0.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }

    // Catalogue order. The span totals are not per round: they say
    // where the whole traced run's own time went.
    let own = spans.self_seconds();
    let metrics = crate::metrics::per_layer()
        .into_iter()
        .map(|d| {
            let summary = match d.name.strip_prefix("harness.self_ms.") {
                Some(span) => Summary::exact(own.get(span).copied().unwrap_or(0.0) * 1e3),
                None => {
                    let values: Vec<f64> = rounds
                        .iter()
                        .map(|r| {
                            *r.values
                                .get(&d.name)
                                .unwrap_or_else(|| panic!("no probe set {}", d.name))
                        })
                        .collect();
                    Summary::of(&values)
                }
            };
            Metric::new(d.name, d.unit, summary)
        })
        .collect();
    Measured {
        metrics,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        spans: Some(spans),
    }
}
