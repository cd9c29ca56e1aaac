//! Aggregation: measured work, measured span, and the idle-time
//! decomposition.

use std::collections::HashMap;

use crate::{EventKind, StepOutcomeKind, TaskSource, Tracer};

/// Aggregate view of one traced run.
///
/// *Work* is busy thread-time: the union of each lane's execution spans
/// (task runs and step runs, nested helping merged away) minus the
/// directly-measured idle spans recorded inside them (join waits,
/// parks). *Span* is a greedy-scheduler critical-path estimate: the
/// total time during which fewer than `workers` lanes were busy. Under
/// greedy scheduling every such instant must be advancing the critical
/// path (a saturated instant is work-limited, not dependency-limited),
/// so `span_ns` upper-bounds the schedule's realized `T_inf` over the
/// session window and `work_ns / span_ns` is the measured parallelism —
/// the empirical counterpart of the `recdp-taskgraph` model's
/// `T1 / T-inf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReport {
    /// Worker count the span estimate normalizes against.
    pub workers: usize,
    /// Session window: first execution-span start to last execution-span
    /// end (all events when no executions were recorded). Bounding by
    /// executions keeps a pool idling before shutdown — trailing park
    /// spans — from inflating the window.
    pub wall_ns: u64,
    /// Measured work `T1`: total busy thread-time.
    pub work_ns: u64,
    /// Measured span: time with fewer than `workers` lanes busy
    /// (greedy-scheduler critical-path estimate).
    pub span_ns: u64,
    /// `work_ns / span_ns` (0 when nothing was recorded).
    pub parallelism: f64,
    /// Idle decomposition, artificial dependencies: pure idle inside
    /// fork-join join/scope waits ([`EventKind::JoinWait`]).
    pub join_idle_ns: u64,
    /// Idle decomposition, no work anywhere: worker condvar parks
    /// ([`EventKind::Park`]), totalled over the whole pool lifetime
    /// (including before/after the workload).
    pub park_ns: u64,
    /// Measured idle *inside the session window*: the per-lane union of
    /// park and join-wait spans clipped to `[window_start, window_end]`,
    /// summed over lanes. This is the starvation that matters for the
    /// paper's comparison: under fork-join the only reason a worker is
    /// idle mid-run is that join barriers have narrowed the exposed
    /// parallelism (artificial dependencies), while under data-flow a
    /// mid-run park means no step's true producers have finished yet.
    /// Owner-side join waits are almost always hidden by helping (see
    /// `join_idle_ns`), so this barrier-level starvation is where the
    /// artificial-dependency cost actually surfaces.
    pub starved_ns: u64,
    /// Idle decomposition, true dependencies (thread cost): duration of
    /// CnC step executions that aborted on a failed blocking get — the
    /// wasted abort-and-retry thread time.
    pub blocked_stall_ns: u64,
    /// True dependencies, logical wait: blocked-get park to resume,
    /// summed over parked instances. Unlike `blocked_stall_ns` this
    /// does not occupy a thread (the instance waits off-CPU), so it can
    /// legitimately exceed the wall clock when many instances park.
    pub dep_wait_ns: u64,
    /// Fork-join tasks executed.
    pub tasks: u64,
    /// Fork-join tasks pushed or injected.
    pub spawns: u64,
    /// Tasks whose run event carries steal provenance.
    pub steals: u64,
    /// CnC step executions (all outcomes).
    pub steps: u64,
    /// CnC step executions that ended blocked/requeued.
    pub steps_requeued: u64,
    /// CnC transient-failure retries re-dispatched.
    pub retries: u64,
    /// Fork-join workers that died fail-stop mid-run.
    pub worker_deaths: u64,
    /// Tasks drained from dead workers' deques back to the injector.
    pub tasks_requeued: u64,
    /// Replacement workers spawned into dead workers' slots.
    pub worker_respawns: u64,
    /// Tile-output digest mismatches detected by the integrity layer.
    pub corruptions_detected: u64,
    /// Quarantined tiles recomputed from their pre-image.
    pub tiles_recomputed: u64,
    /// Events lost to lane-ring overflow (nonzero means the other
    /// numbers undercount).
    pub dropped_events: u64,
}

impl TraceReport {
    pub(crate) fn build(tracer: &Tracer, workers: usize) -> TraceReport {
        let workers = workers.max(1);
        let mut busy_all: Vec<(u64, u64)> = Vec::new();
        let mut idle_by_lane: Vec<Vec<(u64, u64)>> = Vec::new();
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        let mut run_min = u64::MAX;
        let mut run_max = 0u64;
        let mut blocks: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut resumes: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut report = TraceReport {
            workers,
            wall_ns: 0,
            work_ns: 0,
            span_ns: 0,
            parallelism: 0.0,
            join_idle_ns: 0,
            park_ns: 0,
            starved_ns: 0,
            blocked_stall_ns: 0,
            dep_wait_ns: 0,
            tasks: 0,
            spawns: 0,
            steals: 0,
            steps: 0,
            steps_requeued: 0,
            retries: 0,
            worker_deaths: 0,
            tasks_requeued: 0,
            worker_respawns: 0,
            corruptions_detected: 0,
            tiles_recomputed: 0,
            dropped_events: 0,
        };
        for lane in tracer.lanes() {
            report.dropped_events += lane.dropped();
            let mut run: Vec<(u64, u64)> = Vec::new();
            let mut idle: Vec<(u64, u64)> = Vec::new();
            for event in lane.events() {
                min_t = min_t.min(event.t_ns);
                max_t = max_t.max(event.t_ns + event.dur_ns);
                match event.kind {
                    EventKind::TaskRun { source } => {
                        report.tasks += 1;
                        if matches!(source, TaskSource::Steal { .. }) {
                            report.steals += 1;
                        }
                        run_min = run_min.min(event.t_ns);
                        run_max = run_max.max(event.t_ns + event.dur_ns);
                        run.push((event.t_ns, event.t_ns + event.dur_ns));
                    }
                    EventKind::TaskSpawn => report.spawns += 1,
                    EventKind::JoinWait => {
                        report.join_idle_ns += event.dur_ns;
                        idle.push((event.t_ns, event.t_ns + event.dur_ns));
                    }
                    EventKind::Park => {
                        report.park_ns += event.dur_ns;
                        idle.push((event.t_ns, event.t_ns + event.dur_ns));
                    }
                    EventKind::StepRun { outcome, .. } => {
                        report.steps += 1;
                        if outcome == StepOutcomeKind::Requeued {
                            report.steps_requeued += 1;
                            report.blocked_stall_ns += event.dur_ns;
                        }
                        run_min = run_min.min(event.t_ns);
                        run_max = run_max.max(event.t_ns + event.dur_ns);
                        run.push((event.t_ns, event.t_ns + event.dur_ns));
                    }
                    EventKind::BlockedGet { instance } => {
                        blocks.entry(instance).or_default().push(event.t_ns);
                    }
                    EventKind::Resume { instance } => {
                        resumes.entry(instance).or_default().push(event.t_ns);
                    }
                    EventKind::StepRetry { .. } => report.retries += 1,
                    EventKind::WorkerDied { .. } => report.worker_deaths += 1,
                    EventKind::WorkRequeued { tasks, .. } => report.tasks_requeued += tasks,
                    EventKind::WorkerRespawned { .. } => report.worker_respawns += 1,
                    EventKind::CorruptionDetected { .. } => report.corruptions_detected += 1,
                    EventKind::TileRecomputed { .. } => report.tiles_recomputed += 1,
                }
            }
            // A lane is one thread, so its busy set is the union of its
            // execution spans (a helped task nests inside the helping
            // join's span; a CnC step nests inside the pool task that
            // ran it) minus the idle spans measured inside them.
            let idle = merge(idle);
            let busy = subtract(merge(run), &idle);
            report.work_ns += busy.iter().map(|&(s, e)| e - s).sum::<u64>();
            busy_all.extend(busy);
            idle_by_lane.push(idle);
        }
        // Window over executions (wall clamps to the workload, so a pool
        // parking idle before shutdown does not stretch the span).
        let window = if run_min <= run_max {
            Some((run_min, run_max))
        } else if min_t != u64::MAX && min_t <= max_t {
            Some((min_t, max_t))
        } else {
            None
        };
        if let Some((w0, w1)) = window {
            report.wall_ns = w1 - w0;
            report.span_ns = greedy_span(&busy_all, workers, (w0, w1));
            for idle in &idle_by_lane {
                report.starved_ns += idle
                    .iter()
                    .map(|&(s, e)| e.min(w1).saturating_sub(s.max(w0)))
                    .sum::<u64>();
            }
        }
        report.dep_wait_ns = pair_dep_waits(&mut blocks, &mut resumes);
        if report.span_ns > 0 {
            report.parallelism = report.work_ns as f64 / report.span_ns as f64;
        }
        report
    }
}

/// The `work_ns` and `steps` of [`TraceReport::build`] alone: no
/// cross-lane window, span or wait pairing, events read in place.
pub(crate) fn work_and_steps(tracer: &Tracer) -> (u64, u64) {
    let (mut work_ns, mut steps) = (0u64, 0u64);
    for lane in tracer.lanes() {
        let (mut run, mut idle) = (Vec::new(), Vec::new());
        lane.with_events(|events| {
            for event in events {
                let span = (event.t_ns, event.t_ns + event.dur_ns);
                steps += u64::from(matches!(event.kind, EventKind::StepRun { .. }));
                match event.kind {
                    EventKind::StepRun { .. } | EventKind::TaskRun { .. } => run.push(span),
                    EventKind::JoinWait | EventKind::Park => idle.push(span),
                    _ => {}
                }
            }
        });
        let busy = subtract(merge(run), &merge(idle));
        work_ns += busy.iter().map(|&(s, e)| e - s).sum::<u64>();
    }
    (work_ns, steps)
}

/// Sorts and unions a set of half-open intervals.
fn merge(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        if e <= s {
            continue;
        }
        match out.last_mut() {
            Some((_, oe)) if s <= *oe => *oe = (*oe).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `a - b` for two merged interval sets.
fn subtract(a: Vec<(u64, u64)>, b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for (mut s, e) in a {
        while j < b.len() && b[j].1 <= s {
            j += 1;
        }
        let mut k = j;
        while s < e && k < b.len() && b[k].0 < e {
            if b[k].0 > s {
                out.push((s, b[k].0));
            }
            s = s.max(b[k].1);
            k += 1;
        }
        if s < e {
            out.push((s, e));
        }
    }
    out
}

/// Greedy-scheduler span estimate: total time inside `window` during
/// which fewer than `workers` intervals are active.
fn greedy_span(busy: &[(u64, u64)], workers: usize, window: (u64, u64)) -> u64 {
    let (w0, w1) = window;
    let mut points: Vec<(u64, i64)> = Vec::with_capacity(busy.len() * 2);
    for &(s, e) in busy {
        points.push((s, 1));
        points.push((e, -1));
    }
    // At equal timestamps the -1 sorts first, so back-to-back intervals
    // produce a zero-width dip that contributes nothing.
    points.sort_unstable();
    let mut span = 0u64;
    let mut active = 0i64;
    let mut prev = w0;
    for (t, delta) in points {
        let t = t.clamp(w0, w1);
        if t > prev && (active as usize) < workers {
            span += t - prev;
        }
        prev = prev.max(t);
        active += delta;
    }
    if w1 > prev {
        span += w1 - prev;
    }
    span
}

/// Pairs each blocked-get park with the next resume of the same
/// instance and sums the waits.
fn pair_dep_waits(
    blocks: &mut HashMap<u64, Vec<u64>>,
    resumes: &mut HashMap<u64, Vec<u64>>,
) -> u64 {
    let mut total = 0u64;
    for (instance, parks) in blocks.iter_mut() {
        let Some(fires) = resumes.get_mut(instance) else {
            continue; // parked forever (deadlock/cancel): no measurable wait
        };
        parks.sort_unstable();
        fires.sort_unstable();
        let mut fi = 0;
        for &park in parks.iter() {
            while fi < fires.len() && fires[fi] < park {
                fi += 1;
            }
            if fi == fires.len() {
                break;
            }
            total += fires[fi] - park;
            fi += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceSession, Tracer};

    #[test]
    fn merge_unions_overlaps() {
        assert_eq!(
            merge(vec![(5, 9), (0, 2), (1, 4), (9, 9)]),
            vec![(0, 4), (5, 9)]
        );
    }

    #[test]
    fn subtract_cuts_holes() {
        let a = vec![(0, 10), (20, 30)];
        let b = vec![(2, 4), (8, 22), (28, 40)];
        assert_eq!(subtract(a, &b), vec![(0, 2), (4, 8), (22, 28)]);
    }

    #[test]
    fn greedy_span_counts_unsaturated_time() {
        // Two workers. busy: lane A [0,10), lane B [4,6).
        // Saturated (2 busy) only during [4,6) -> span = 10 - 2 = 8.
        let busy = vec![(0, 10), (4, 6)];
        assert_eq!(greedy_span(&busy, 2, (0, 10)), 8);
        // With one worker the [0,10) window is always saturated.
        assert_eq!(greedy_span(&busy, 1, (0, 10)), 0);
        // Gaps count toward the span.
        assert_eq!(greedy_span(&[(2, 4)], 1, (0, 10)), 8);
    }

    #[test]
    fn greedy_span_handles_adjacent_intervals() {
        // Back-to-back intervals on one lane under one worker: fully
        // saturated, no zero-width dip at the boundary.
        assert_eq!(greedy_span(&[(0, 5), (5, 10)], 1, (0, 10)), 0);
    }

    #[test]
    fn report_decomposes_synthetic_two_worker_run() {
        let tracer = Tracer::new();
        let w0 = tracer.register_lane("w0");
        let w1 = tracer.register_lane("w1");
        let step = tracer.intern("s");
        // w0: runs a task [0,100) that contains a join-wait [40,60).
        w0.record(
            EventKind::TaskRun {
                source: TaskSource::Inject,
            },
            0,
            100,
        );
        w0.record(EventKind::JoinWait, 40, 20);
        // w1: steals and runs [40,70), then a blocked step [70,80).
        w1.record(
            EventKind::TaskRun {
                source: TaskSource::Steal { victim: 0 },
            },
            40,
            30,
        );
        w1.record(
            EventKind::StepRun {
                step,
                tag: 1,
                outcome: StepOutcomeKind::Requeued,
            },
            70,
            10,
        );
        w1.record(EventKind::BlockedGet { instance: 7 }, 80, 0);
        w0.record(EventKind::Resume { instance: 7 }, 90, 0);

        let session = TraceSession::with_tracer(tracer, 2);
        let report = session.report();
        assert_eq!(report.wall_ns, 100);
        // w0 busy: [0,40) u [60,100) = 80; w1 busy: [40,80) = 40.
        assert_eq!(report.work_ns, 120);
        assert_eq!(
            session.work_and_steps(),
            (report.work_ns, report.steps),
            "the accounting shortcut is the report's own two figures"
        );
        // Both busy on [40,60)... w0 idle there. Busy counts:
        // [0,40): 1, [40,60): 1 (w1 only), [60,70): 2, [70,80): 2, [80,100): 1.
        // Span = time with <2 active = 40 + 20 + 20 = 80.
        assert_eq!(report.span_ns, 80);
        assert!((report.parallelism - 1.5).abs() < 1e-9);
        assert_eq!(report.join_idle_ns, 20);
        assert_eq!(report.starved_ns, 20, "the join wait is inside the window");
        assert_eq!(report.blocked_stall_ns, 10);
        assert_eq!(report.dep_wait_ns, 10);
        assert_eq!(report.tasks, 2);
        assert_eq!(report.steals, 1);
        assert_eq!(report.steps, 1);
        assert_eq!(report.steps_requeued, 1);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn trailing_parks_do_not_stretch_the_window() {
        // A worker that keeps parking after the last task (the pool
        // idling before shutdown) must not inflate wall or span.
        let tracer = Tracer::new();
        let lane = tracer.register_lane("w0");
        lane.record(
            EventKind::TaskRun {
                source: TaskSource::Local,
            },
            0,
            100,
        );
        lane.record(EventKind::Park, 100, 5_000);
        let report = TraceSession::with_tracer(tracer, 1).report();
        assert_eq!(report.wall_ns, 100);
        assert_eq!(report.span_ns, 0, "one worker, fully saturated window");
        assert_eq!(
            report.park_ns, 5_000,
            "park time still counted in the decomposition"
        );
        assert_eq!(
            report.starved_ns, 0,
            "out-of-window parks are not starvation"
        );
    }

    #[test]
    fn mid_run_parks_count_as_starvation() {
        // Two workers; w1 parks across and past the window. Only the
        // in-window slice [10,100) of its park is starvation.
        let tracer = Tracer::new();
        let w0 = tracer.register_lane("w0");
        let w1 = tracer.register_lane("w1");
        w0.record(
            EventKind::TaskRun {
                source: TaskSource::Local,
            },
            0,
            100,
        );
        w1.record(EventKind::Park, 10, 200);
        let report = TraceSession::with_tracer(tracer, 2).report();
        assert_eq!(report.wall_ns, 100);
        assert_eq!(report.park_ns, 200);
        assert_eq!(report.starved_ns, 90);
    }

    #[test]
    fn empty_tracer_reports_zeros() {
        let report = TraceSession::new(4).report();
        assert_eq!(report.wall_ns, 0);
        assert_eq!(report.work_ns, 0);
        assert_eq!(report.span_ns, 0);
        assert_eq!(report.parallelism, 0.0);
    }

    #[test]
    fn unresumed_park_contributes_no_wait() {
        let tracer = Tracer::new();
        let lane = tracer.register_lane("w0");
        lane.record(EventKind::BlockedGet { instance: 1 }, 5, 0);
        let report = TraceSession::with_tracer(tracer, 1).report();
        assert_eq!(report.dep_wait_ns, 0);
    }
}
