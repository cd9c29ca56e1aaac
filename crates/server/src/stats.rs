//! Per-tenant utilization accounting.

/// Cumulative accounting for one tenant, fed by the scheduler (queue
/// events) and the runners (execution events). Busy time for
/// data-flow jobs is the *measured work* from a per-job
/// [`recdp_trace::Tracer`] — actual step thread-time on the shared
/// pool — so a tenant is charged for what its steps consumed, not for
/// wall time the pool spent on other tenants' steps interleaved with
/// its own. The tracer lives inside the job's graph and dies with it:
/// a worker's lane lookup scans the tracers of jobs in flight (at most
/// `max_inflight`), never those of jobs already served, and the runner
/// reads back only `work_ns` and the step count, not a full report.
/// Serial and fork-join jobs fall back to wall time (the pool's tracer
/// slot is fixed at build and cannot be retargeted per job).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantStats {
    /// Fair-share weight at the last accounting event.
    pub weight: f64,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Jobs that finished with a result.
    pub completed: u64,
    /// Jobs that finished with an error other than cancellation.
    pub failed: u64,
    /// Jobs cancelled (in queue or mid-run).
    pub cancelled: u64,
    /// Total time completed/failed jobs spent queued, in nanoseconds.
    pub queue_wait_ns: u64,
    /// Total wall-clock execution time of dispatched jobs, in
    /// nanoseconds.
    pub run_ns: u64,
    /// Measured busy thread-time charged to this tenant, in
    /// nanoseconds (traced step work for data-flow jobs, wall time
    /// otherwise).
    pub busy_ns: u64,
    /// Fair-share cost charged at dispatch (the stride currency).
    pub work_charged: f64,
    /// CnC steps completed on behalf of this tenant.
    pub steps_completed: u64,
    /// Silent tile corruptions the integrity layer detected across
    /// this tenant's checked jobs (cell flips and mangled puts).
    pub corruptions_detected: u64,
    /// Corrupted tiles healed by recompute-from-pre-image for this
    /// tenant — the self-healing work the tenant's jobs triggered.
    pub tiles_recomputed: u64,
}

/// Whole-server aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs accepted across all tenants.
    pub submitted: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Jobs finished with a result.
    pub completed: u64,
    /// Jobs finished with a non-cancellation error.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
}
