//! Runtime statistics: the observable behaviour Table-style analyses use.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use recdp_forkjoin::{worker_index, PoolId, ThreadPool};

/// A graph's counters and completed-step log, one [`StatCounters`] per
/// pool worker plus one (the first) for every other thread, so that a
/// step counts on lines only its own worker writes.
///
/// [`Stats::snapshot`] sums the shards, each read effect-before-cause
/// (see [`StatCounters::snapshot`]). Whatever one step execution counts
/// — started, its gets and puts, its outcome — it counts on the thread
/// that runs it, hence in one shard; so every `effect <= cause`
/// inequality holds shard by shard and therefore for the sums, and
/// each sum is monotonic because each shard counter is.
pub(crate) struct Stats {
    pool: Option<PoolId>,
    shards: Box<[StatCounters]>,
}

impl Stats {
    pub(crate) fn new(pool: Option<&ThreadPool>) -> Self {
        let workers = pool.map_or(0, |p| p.num_threads());
        Stats {
            pool: pool.map(|p| p.id()),
            shards: (0..=workers).map(|_| StatCounters::default()).collect(),
        }
    }

    /// The calling thread's shard.
    pub(crate) fn local(&self) -> &StatCounters {
        let worker = self.pool.and_then(worker_index);
        worker
            .and_then(|w| self.shards.get(w + 1))
            .unwrap_or(&self.shards[0])
    }

    pub(crate) fn shards(&self) -> &[StatCounters] {
        &self.shards
    }

    /// The counters summed over the shards.
    pub(crate) fn snapshot(&self) -> GraphStats {
        let mut total = GraphStats::default();
        for shard in self.shards.iter() {
            total += shard.snapshot();
        }
        total
    }
}

/// One thread's share of [`Stats`], on cache lines of its own.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct StatCounters {
    pub steps_started: AtomicU64,
    pub steps_completed: AtomicU64,
    pub steps_requeued: AtomicU64,
    pub steps_retried: AtomicU64,
    pub faults_injected: AtomicU64,
    pub delays_injected: AtomicU64,
    pub items_put: AtomicU64,
    pub gets_ok: AtomicU64,
    pub gets_blocked: AtomicU64,
    pub gets_nb_missing: AtomicU64,
    pub nb_retries: AtomicU64,
    pub tags_put: AtomicU64,
    pub steps_skipped: AtomicU64,
    pub items_restored: AtomicU64,
    /// Completed executions that put no tags, `(step name, tag hash)`:
    /// the data-producing steps [`crate::CncGraph::checkpoint`] records
    /// and a resumed run skips (tag-putting expansion steps re-run
    /// instead; see [`crate::checkpoint`]).
    pub executed: Mutex<Vec<(&'static str, u64)>>,
}

/// Publishes one count. Every increment is a release store so that an
/// acquire snapshot load that observes it also observes everything the
/// counting thread did before it — in particular the *cause* counters it
/// bumped earlier (a step increments `steps_started` before any of its
/// outcome counters). With plain relaxed increments a concurrent
/// snapshot could see the outcome counter ahead of its cause (e.g.
/// `steps_completed > steps_started`), tearing the `replay_stable`
/// projection the `recdp-check` oracles diff.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Release);
}

impl StatCounters {
    /// Coherent snapshot. Loads are acquire and ordered *effect before
    /// cause*: an outcome counter (completed/requeued/retried) is read
    /// before the counters its increment causally follows
    /// (`steps_started`, and the get/put counters bumped inside the
    /// body), so each release increment observed here brings its causes
    /// with it and the snapshot never shows an effect without its cause.
    /// Quiescent snapshots (after `wait` returns) were already coherent
    /// via the pending-counter handshake; this hardens the mid-flight
    /// paths (`CncGraph::stats`, wait probes, deadlock diagnostics).
    pub(crate) fn snapshot(&self) -> GraphStats {
        let steps_retried = self.steps_retried.load(Ordering::Acquire);
        let steps_requeued = self.steps_requeued.load(Ordering::Acquire);
        let steps_completed = self.steps_completed.load(Ordering::Acquire);
        let gets_blocked = self.gets_blocked.load(Ordering::Acquire);
        let gets_nb_missing = self.gets_nb_missing.load(Ordering::Acquire);
        let nb_retries = self.nb_retries.load(Ordering::Acquire);
        let gets_ok = self.gets_ok.load(Ordering::Acquire);
        let items_put = self.items_put.load(Ordering::Acquire);
        let tags_put = self.tags_put.load(Ordering::Acquire);
        let faults_injected = self.faults_injected.load(Ordering::Acquire);
        let delays_injected = self.delays_injected.load(Ordering::Acquire);
        let steps_skipped = self.steps_skipped.load(Ordering::Acquire);
        let items_restored = self.items_restored.load(Ordering::Acquire);
        let steps_started = self.steps_started.load(Ordering::Acquire);
        GraphStats {
            steps_started,
            steps_completed,
            steps_requeued,
            steps_retried,
            faults_injected,
            delays_injected,
            items_put,
            gets_ok,
            gets_blocked,
            gets_nb_missing,
            nb_retries,
            tags_put,
            steps_skipped,
            items_restored,
        }
    }
}

/// A snapshot of graph execution counters, returned by
/// [`crate::CncGraph::wait`] and [`crate::CncGraph::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Step executions started (including re-executions after a failed
    /// blocking get).
    pub steps_started: u64,
    /// Step executions that ran to completion.
    pub steps_completed: u64,
    /// Step executions aborted by a failed blocking get and requeued —
    /// the wasted-work metric behind Native-CnC's overhead and the
    /// paper's remark that non-blocking gets only pay off for small
    /// blocks.
    pub steps_requeued: u64,
    /// Step executions re-dispatched by the retry policy after a
    /// transient failure — the resilience-overhead metric of the chaos
    /// ablations (distinct from `steps_requeued`, which counts
    /// blocked-get re-executions).
    pub steps_retried: u64,
    /// Outcome-changing faults the installed injector actually fired:
    /// transient/permanent step failures and dropped puts. These sites
    /// are visited exactly once per (step, tag, attempt) / delivered put,
    /// so for a seeded plan the count is interleaving-independent — the
    /// replay guarantee chaos tests assert (`steps_retried ==
    /// faults_injected` under transient-only plans). Injected *delays*
    /// are excluded; see `delays_injected`.
    pub faults_injected: u64,
    /// Timing-only perturbations the injector fired (slow steps, delayed
    /// puts). Counted per *execution*, and blocked-get re-execution
    /// counts depend on thread timing, so unlike `faults_injected` this
    /// counter may vary between runs of the same seed.
    pub delays_injected: u64,
    /// Items put.
    pub items_put: u64,
    /// Blocking gets that found their item ready.
    pub gets_ok: u64,
    /// Blocking gets that aborted their step.
    pub gets_blocked: u64,
    /// Non-blocking gets that found their item missing (`try_get`).
    pub gets_nb_missing: u64,
    /// Step self-respawns taken by the non-blocking-get style (the step
    /// re-puts its own tag instead of parking — Sec. IV's alternative,
    /// "profitable only for smaller block sizes").
    pub nb_retries: u64,
    /// Tags put.
    pub tags_put: u64,
    /// Step instances whose bodies were *not* executed because a
    /// checkpoint installed via [`crate::CncGraph::resume_from`] already
    /// records them as completed. A resumed run re-executes only
    /// unproduced steps; this counter is the proof.
    pub steps_skipped: u64,
    /// Ready items pre-seeded into collections from a checkpoint by
    /// [`crate::CncGraph::resume_from`] (not counted in `items_put`,
    /// which tracks puts performed during this run).
    pub items_restored: u64,
}

impl GraphStats {
    /// Fraction of step executions wasted on abort-and-retry, in [0, 1].
    pub fn requeue_ratio(&self) -> f64 {
        if self.steps_started == 0 {
            0.0
        } else {
            self.steps_requeued as f64 / self.steps_started as f64
        }
    }
}

/// Field-wise sum, for drivers that run one logical job as several
/// graphs. The destructuring is exhaustive on purpose: a counter added
/// to [`GraphStats`] without being summed here fails to compile.
impl std::ops::AddAssign for GraphStats {
    fn add_assign(&mut self, other: GraphStats) {
        let GraphStats {
            steps_started,
            steps_completed,
            steps_requeued,
            steps_retried,
            faults_injected,
            delays_injected,
            items_put,
            gets_ok,
            gets_blocked,
            gets_nb_missing,
            nb_retries,
            tags_put,
            steps_skipped,
            items_restored,
        } = other;
        self.steps_started += steps_started;
        self.steps_completed += steps_completed;
        self.steps_requeued += steps_requeued;
        self.steps_retried += steps_retried;
        self.faults_injected += faults_injected;
        self.delays_injected += delays_injected;
        self.items_put += items_put;
        self.gets_ok += gets_ok;
        self.gets_blocked += gets_blocked;
        self.gets_nb_missing += gets_nb_missing;
        self.nb_retries += nb_retries;
        self.tags_put += tags_put;
        self.steps_skipped += steps_skipped;
        self.items_restored += items_restored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_every_counter() {
        // Every field distinct and non-zero on both sides, so a field
        // summed into the wrong slot (or not at all) changes the result.
        let snapshot = |k: u64| GraphStats {
            steps_started: k,
            steps_completed: 2 * k,
            steps_requeued: 3 * k,
            steps_retried: 4 * k,
            faults_injected: 5 * k,
            delays_injected: 6 * k,
            items_put: 7 * k,
            gets_ok: 8 * k,
            gets_blocked: 9 * k,
            gets_nb_missing: 10 * k,
            nb_retries: 11 * k,
            tags_put: 12 * k,
            steps_skipped: 13 * k,
            items_restored: 14 * k,
        };
        let mut sum = snapshot(1);
        sum += snapshot(100);
        assert_eq!(sum, snapshot(101));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let c = StatCounters::default();
        c.steps_started.store(10, Ordering::Relaxed);
        c.steps_requeued.store(4, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.steps_started, 10);
        assert!((s.requeue_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_ratio_zero() {
        assert_eq!(GraphStats::default().requeue_ratio(), 0.0);
    }
}
