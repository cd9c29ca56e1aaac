//! Stress tests of the two runtimes under awkward concurrency shapes:
//! nesting, sharing, interleaving and high fan-out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use recdp_cnc::{CncGraph, GraphStats, StepOutcome};
use recdp_forkjoin::{join, scope, ThreadPoolBuilder};
use recdp_kernels::engine::register_cnc;
use recdp_kernels::workloads::{dna_sequence, ge_matrix};
use recdp_kernels::{ge::GeSpec, sw::SwSpec, CncVariant, DpSpec, Matrix};

#[test]
fn scopes_inside_joins_inside_scopes() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build();
    let count = AtomicU64::new(0);
    pool.install(|| {
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    let (a, b) = join(
                        || {
                            scope(|inner| {
                                for _ in 0..4 {
                                    inner.spawn(|_| {
                                        count.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                            1u64
                        },
                        || 2u64,
                    );
                    count.fetch_add(a + b, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(count.load(Ordering::Relaxed), 8 * (4 + 3));
}

#[test]
fn many_short_lived_pools() {
    for i in 0..12 {
        let pool = ThreadPoolBuilder::new().num_threads(1 + i % 4).build();
        let (a, b) = pool.install(|| join(|| 20, || 22));
        assert_eq!(a + b, 42);
        drop(pool);
    }
}

#[test]
fn two_graphs_share_one_pool_concurrently() {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(3).build());
    let g1 = CncGraph::with_pool(Arc::clone(&pool));
    let g2 = CncGraph::with_pool(Arc::clone(&pool));
    let out1 = g1.item_collection::<u32, u64>("o1");
    let out2 = g2.item_collection::<u32, u64>("o2");
    let t1 = g1.tag_collection::<u32>("t1");
    let t2 = g2.tag_collection::<u32>("t2");
    let (o1c, o2c) = (out1.clone(), out2.clone());
    // Graph 1 computes squares; graph 2 computes cubes, interleaved.
    t1.prescribe("sq", move |&n, _| {
        o1c.put(n, (n as u64) * (n as u64))?;
        Ok(StepOutcome::Done)
    });
    t2.prescribe("cube", move |&n, _| {
        o2c.put(n, (n as u64).pow(3))?;
        Ok(StepOutcome::Done)
    });
    for i in 0..200 {
        t1.put(i);
        t2.put(i);
    }
    g1.wait().unwrap();
    g2.wait().unwrap();
    assert_eq!(out1.len_ready(), 200);
    assert_eq!(out2.get_env(&7), Some(343));
}

#[test]
fn deep_tag_cascade() {
    // A 2000-deep sequential chain of steps, each produced by its
    // predecessor: exercises requeue-free deep recursion through the
    // injector.
    let g = CncGraph::with_threads(2);
    let out = g.item_collection::<u32, u64>("acc");
    let tags = g.tag_collection::<u32>("chain");
    let (o2, t2) = (out.clone(), tags.clone());
    tags.prescribe("link", move |&n, s| {
        let prev = if n == 0 { 0 } else { o2.get(s, &(n - 1))? };
        o2.put(n, prev + n as u64)?;
        if n < 2000 {
            t2.put(n + 1);
        }
        Ok(StepOutcome::Done)
    });
    tags.put(0);
    g.wait().unwrap();
    assert_eq!(out.get_env(&2000), Some(2000 * 2001 / 2));
}

#[test]
fn wide_fanout_single_producer() {
    // 1 producer, 3000 consumers parked on the same item.
    let g = CncGraph::with_threads(4);
    let gate = g.item_collection::<u32, u64>("gate");
    let out = g.item_collection::<u32, u64>("out");
    let tags = g.tag_collection::<u32>("consumers");
    let (gc, oc) = (gate.clone(), out.clone());
    tags.prescribe("consume", move |&n, s| {
        let v = gc.get(s, &0)?;
        oc.put(n, v + n as u64)?;
        Ok(StepOutcome::Done)
    });
    for n in 0..3000 {
        tags.put(n);
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    gate.put(0, 1_000_000).unwrap();
    let stats = g.wait().unwrap();
    assert_eq!(out.len_ready(), 3000);
    assert!(
        stats.steps_requeued >= 1000,
        "most consumers must have parked: {stats:?}"
    );
}

#[test]
fn env_puts_race_with_execution() {
    // The environment keeps feeding tags from two OS threads while the
    // graph executes; wait() is only called after both feeders join.
    let g = Arc::new(CncGraph::with_threads(3));
    let out = g.item_collection::<u32, u64>("out");
    let tags = g.tag_collection::<u32>("t");
    let oc = out.clone();
    tags.prescribe("id", move |&n, _| {
        oc.put(n, n as u64)?;
        Ok(StepOutcome::Done)
    });
    let t1 = tags.clone();
    let feeder1 = std::thread::spawn(move || {
        for i in 0..500 {
            t1.put(i);
        }
    });
    let t2 = tags.clone();
    let feeder2 = std::thread::spawn(move || {
        for i in 500..1000 {
            t2.put(i);
        }
    });
    feeder1.join().unwrap();
    feeder2.join().unwrap();
    g.wait().unwrap();
    assert_eq!(out.len_ready(), 1000);
}

#[test]
fn repeated_waits_on_one_graph() {
    // wait() is not one-shot: each round of env puts gets its own
    // quiescence, and an idle graph's wait returns immediately.
    let g = CncGraph::with_threads(2);
    let out = g.item_collection::<u32, u64>("out");
    let tags = g.tag_collection::<u32>("t");
    let oc = out.clone();
    tags.prescribe("id", move |&n, _| {
        oc.put(n, n as u64)?;
        Ok(StepOutcome::Done)
    });
    for round in 0u32..20 {
        tags.put(round);
        g.wait().unwrap();
        assert_eq!(out.get_env(&round), Some(round as u64));
        // An extra wait with nothing pending must also succeed.
        g.wait().unwrap();
    }
    assert_eq!(out.len_ready(), 20);
}

#[test]
fn concurrent_waits_from_many_threads() {
    // Several OS threads wait on the same graph while it executes; all
    // must observe quiescence (none may hang or panic).
    let g = Arc::new(CncGraph::with_threads(3));
    let out = g.item_collection::<u32, u64>("out");
    let tags = g.tag_collection::<u32>("t");
    let oc = out.clone();
    tags.prescribe("slowish", move |&n, _| {
        if n % 64 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        oc.put(n, n as u64)?;
        Ok(StepOutcome::Done)
    });
    for i in 0..2000 {
        tags.put(i);
    }
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.wait().map(|_| ()))
        })
        .collect();
    g.wait().unwrap();
    for w in waiters {
        w.join().unwrap().unwrap();
    }
    assert_eq!(out.len_ready(), 2000);
}

#[test]
fn env_put_racing_the_deadlock_check_recovers() {
    // One thread repeatedly calls wait() on a graph whose sole step is
    // parked on an item only the environment can produce; another thread
    // delivers that item after a delay. The deadlock verdict is
    // recomputed per wait() call, so the late put must turn a Deadlock
    // answer into success — this is the documented env-put/deadlock-check
    // race in the runtime.
    for trial in 0..20 {
        let g = Arc::new(CncGraph::with_threads(2));
        let gate = g.item_collection::<u32, u64>("gate");
        let out = g.item_collection::<u32, u64>("out");
        let tags = g.tag_collection::<u32>("t");
        let (gc, oc) = (gate.clone(), out.clone());
        tags.prescribe("parked", move |&n, s| {
            let v = gc.get(s, &0)?;
            oc.put(n, v)?;
            Ok(StepOutcome::Done)
        });
        tags.put(trial);
        let gate2 = gate.clone();
        let producer = std::thread::spawn(move || {
            // Land at varying points around the consumer's deadlock
            // verdicts.
            std::thread::sleep(std::time::Duration::from_micros(50 * (trial as u64 % 5)));
            gate2.put(0, 99).unwrap();
        });
        // Deadlock returns are recoverable: keep waiting until the env
        // put lands and the graph drains for real.
        loop {
            match g.wait() {
                Ok(_) => break,
                Err(recdp_cnc::CncError::Deadlock { .. }) => std::hint::spin_loop(),
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        producer.join().unwrap();
        // The put may have landed after a final Deadlock verdict was
        // computed but the loop above retries, so by here the step ran.
        g.wait().unwrap();
        assert_eq!(out.get_env(&trial), Some(99));
    }
}

#[test]
fn concurrent_waiters_racing_an_env_put_all_drain() {
    // Regression stress for the deadlock-verdict race: a parked instance
    // resumed by an env put can run to full retirement *between* a
    // verdict's counter reads, making both counters look stalled; the
    // runtime's resume-epoch guard restarts the check instead of
    // returning a spurious Deadlock. Several waiters hammer the verdict
    // window while the put lands; every one of them must eventually
    // observe quiescence (a Deadlock verdict is only acceptable as the
    // documented put-arrived-entirely-after-the-verdict staleness, which
    // the retry loop absorbs — it must never persist).
    for trial in 0u32..50 {
        let g = Arc::new(CncGraph::with_threads(2));
        let gate = g.item_collection::<u32, u64>("gate");
        let out = g.item_collection::<u32, u64>("out");
        let tags = g.tag_collection::<u32>("t");
        let (gc, oc) = (gate.clone(), out.clone());
        tags.prescribe("parked", move |&n, s| {
            let v = gc.get(s, &0)?;
            oc.put(n, v)?;
            Ok(StepOutcome::Done)
        });
        tags.put(trial);
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || loop {
                    match g.wait() {
                        Ok(_) => break,
                        Err(recdp_cnc::CncError::Deadlock { .. }) => std::hint::spin_loop(),
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                })
            })
            .collect();
        gate.put(0, 7).unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(out.get_env(&trial), Some(7));
        g.wait().unwrap();
    }
}

#[test]
fn join_under_contention_returns_correct_values() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build();
    // Many concurrent joins from scope tasks, each verifying its own pair.
    pool.install(|| {
        scope(|s| {
            for i in 0u64..64 {
                s.spawn(move |_| {
                    let (a, b) = join(move || i * 2, move || i * 3);
                    assert_eq!(a, i * 2);
                    assert_eq!(b, i * 3);
                });
            }
        });
    });
}

/// Runs `spec`'s data-flow program on `workers` workers while a second
/// environment thread takes snapshots as fast as it can, and checks on
/// each what a snapshot summed over per-worker counter shards must still
/// guarantee: no effect without its cause, nothing ever going back.
fn polled_run<S: DpSpec>(spec: &S, variant: CncVariant, workers: usize) -> (GraphStats, u64) {
    let graph = CncGraph::with_threads(workers);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let (mut last, mut snapshots) = (GraphStats::default(), 0u64);
            while !done.load(Ordering::Acquire) {
                let now = graph.stats();
                assert!(
                    now.steps_completed + now.steps_requeued <= now.steps_started,
                    "an outcome without its start: {now:?}"
                );
                // Every item of these programs is put by a step.
                assert!(now.items_put <= now.steps_started, "{now:?}");
                let ordered = |pick: fn(&GraphStats) -> u64| pick(&last) <= pick(&now);
                assert!(
                    ordered(|s| s.steps_started)
                        && ordered(|s| s.steps_completed)
                        && ordered(|s| s.steps_requeued)
                        && ordered(|s| s.items_put)
                        && ordered(|s| s.tags_put)
                        && ordered(|s| s.gets_ok)
                        && ordered(|s| s.gets_blocked),
                    "a counter went back: {last:?} then {now:?}"
                );
                (last, snapshots) = (now, snapshots + 1);
            }
            snapshots
        });
        register_cnc(spec, variant, &graph, None);
        let stats = graph.wait();
        done.store(true, Ordering::Release);
        (stats.expect("the run completes"), poller.join().unwrap())
    })
}

#[test]
fn snapshots_of_sharded_counters_stay_coherent_under_polling() {
    const BASE: usize = 4;
    let (a, b) = (dna_sequence(256, 3), dna_sequence(256, 4));
    for variant in [CncVariant::Native, CncVariant::Tuner] {
        let mut runs = Vec::new();
        for workers in [1, 2] {
            let mut ge = ge_matrix(128, 1);
            let mut sw = Matrix::zeros(256);
            let ge_run = polled_run(&GeSpec::new(ge.ptr(), BASE), variant, workers);
            let sw_run = polled_run(&SwSpec::new(sw.ptr(), &a, &b, BASE), variant, workers);
            assert!(ge_run.1 + sw_run.1 > 0, "no snapshot was taken mid-run");
            runs.push((ge_run.0, sw_run.0));
        }
        // What does not depend on the schedule is the same on one worker
        // and on two (everything, when nothing is ever requeued).
        let stable = |s: &GraphStats| {
            let executions = s.steps_started - s.steps_requeued;
            (executions, s.steps_completed, s.items_put, s.tags_put)
        };
        for (one, two) in [(runs[0].0, runs[1].0), (runs[0].1, runs[1].1)] {
            assert_eq!(stable(&one), stable(&two), "{variant:?}");
            if variant == CncVariant::Tuner {
                assert_eq!(one, two, "pre-scheduled steps are never requeued");
            }
        }
    }
}
