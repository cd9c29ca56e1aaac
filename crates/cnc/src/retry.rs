//! Retry policy for transient step failures: the backoff schedules,
//! the fault-injector consultation before each execution, and the
//! routing of a failed execution (retry, escalate, or abort the graph).

use std::sync::atomic::Ordering;
use std::time::Duration;

use recdp_trace::EventKind;

use crate::error::{CncError, FailureKind, StepAbort, StepFailure};
use crate::fault::{FaultAction, FaultSite};
use crate::hot::InstanceRef;

/// How successive retry waits grow from the base
/// [`RetryPolicy::backoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffKind {
    /// The n-th retry waits `backoff * n` (the original schedule).
    Linear,
    /// The n-th retry waits `backoff * 2^(n-1)` — the classic doubling
    /// schedule for contended transient failures.
    Exponential,
}

/// Bounded re-execution budget for *transient* step failures (injected
/// chaos faults, lost messages). The default is one attempt: transient
/// failures abort the graph like permanent ones unless the environment
/// opts into retries with [`crate::CncGraph::set_retry_policy`].
///
/// Backoff only changes *when* a retry runs, never *whether* it runs:
/// the retry counters (`steps_retried`, `faults_injected`) are bumped
/// before the sleep, so every schedule — including seeded jitter — keeps
/// the seed-replay stats guarantees of the chaos suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per instance (initial run + retries).
    /// Must be at least 1.
    pub max_attempts: u32,
    /// Base backoff slept on the worker before a retry, grown per
    /// [`RetryPolicy::kind`]. Zero disables waiting.
    pub backoff: Duration,
    /// Growth schedule for successive waits (default linear).
    pub kind: BackoffKind,
    /// Seeded deterministic jitter: with `Some(seed)` each wait is
    /// scaled by a factor in `[0.5, 1.5)` derived purely from the seed
    /// and the retry site (step name, tag hash, attempt number), so the
    /// same seed yields the same sleeps in every replay — decorrelating
    /// concurrent retries without a shared RNG. `None` disables jitter.
    pub jitter_seed: Option<u64>,
}

impl RetryPolicy {
    /// Every grown backoff is clamped here so pathological
    /// `backoff * 2^n` products can never park a worker for hours.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(60);

    /// `max_attempts` executions with no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: Duration::ZERO,
            kind: BackoffKind::Linear,
            jitter_seed: None,
        }
    }

    /// Sets the base backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Switches to the exponential (doubling) schedule.
    pub fn exponential(mut self) -> Self {
        self.kind = BackoffKind::Exponential;
        self
    }

    /// Arms seeded deterministic jitter.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The wait before the `attempt`-th retry (1-based) of the given
    /// retry site. Pure: depends only on the policy and the arguments,
    /// so replays sleep identically.
    pub fn delay(&self, step: &str, tag_hash: u64, attempt: u32) -> Duration {
        let attempt = attempt.max(1);
        let base = match self.kind {
            BackoffKind::Linear => self
                .backoff
                .checked_mul(attempt)
                .unwrap_or(Self::MAX_BACKOFF),
            BackoffKind::Exponential => {
                // 2^(n-1), exponent capped well before the Duration
                // clamp below could matter.
                let factor = 1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX);
                self.backoff
                    .checked_mul(factor)
                    .unwrap_or(Self::MAX_BACKOFF)
            }
        }
        .min(Self::MAX_BACKOFF);
        match self.jitter_seed {
            None => base,
            Some(seed) => {
                let x = jitter_mix(seed ^ jitter_mix(str_hash(step)) ^ jitter_mix(tag_hash))
                    ^ jitter_mix(attempt as u64);
                let unit = (jitter_mix(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                base.mul_f64(0.5 + unit)
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::attempts(1)
    }
}

/// `splitmix64` finalizer for the jitter rolls — deterministic, cheap,
/// and independent of any shared RNG state.
pub(crate) fn jitter_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a step name, for the jitter site key.
fn str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl InstanceRef {
    /// Asks the installed injector what to do with this execution.
    pub(crate) fn consult_injector(&self) -> Option<StepAbort> {
        let injector = self.core().injector()?;
        let site = FaultSite {
            step: self.step_name,
            tag_hash: self.tag_hash,
            attempt: self.attempts.load(Ordering::Relaxed) + 1,
        };
        match injector.before_step(&site) {
            FaultAction::None => None,
            FaultAction::Delay(d) => {
                // Delays perturb timing, not outcomes, and are consulted
                // once per *execution* — including blocked-get
                // re-executions, whose count is interleaving-dependent.
                // They therefore count into `delays_injected`, never into
                // the replay-stable `faults_injected`.
                self.core().count_injected_delay();
                std::thread::sleep(d);
                None
            }
            FaultAction::FailTransient(msg) => {
                self.core().count_injected_fault();
                Some(StepAbort::transient(msg))
            }
            FaultAction::FailPermanent(msg) => {
                self.core().count_injected_fault();
                Some(StepAbort::permanent(msg))
            }
        }
    }

    /// Routes a structured failure: transient failures consume the retry
    /// budget and re-execute; permanent ones (and exhausted budgets)
    /// abort the graph with a structured error.
    ///
    /// `body_puts` is the number of puts the failing execution published
    /// before aborting. Retrying is only idempotent when it is zero — a
    /// re-executed body repeats its puts and trips the single-assignment
    /// check — so a transient failure after a put is escalated to a
    /// permanent one (with an explanatory message, the original failure's
    /// source preserved) instead of corrupting the graph on retry.
    pub(crate) fn handle_failure(&self, failure: StepFailure, body_puts: u64) {
        let failure = if failure.kind == FailureKind::Transient && body_puts > 0 {
            StepFailure {
                kind: FailureKind::Permanent,
                message: format!(
                    "transient failure after {body_puts} put(s) cannot be retried \
                     (a re-executed body would repeat its puts, violating single \
                     assignment; return StepAbort::transient before any put): {}",
                    failure.message
                ),
                source: failure.source,
            }
        } else {
            failure
        };
        if failure.kind == FailureKind::Permanent {
            self.core().record_error(CncError::StepFailed {
                step: self.step_name,
                failure,
            });
            return;
        }
        let policy = self.core().step_config().retry_policy;
        let attempts = self.attempts.fetch_add(1, Ordering::AcqRel) + 1;
        if attempts < policy.max_attempts {
            crate::stats::bump(&self.core().stats.local().steps_retried);
            if let Some(tracer) = self.core().tracer.get() {
                tracer.lane().instant(EventKind::StepRetry {
                    step: self.trace_id(tracer),
                    tag: self.tag_hash,
                });
            }
            let backoff = policy.delay(self.step_name, self.tag_hash, attempts);
            if !backoff.is_zero() {
                // Backoff is slept on the worker: this occupies a pool
                // thread, which is exactly the resilience overhead the
                // ablations measure. The retry counter and trace event
                // above precede the sleep, so backoff (and jitter) can
                // never perturb the replay-stable statistics.
                std::thread::sleep(backoff);
            }
            // Fair re-enqueue (global injector): the pending slot is
            // claimed before this execution retires below, so quiescence
            // can never slip through between failure and retry.
            self.core().enqueue(self.clone(), true);
        } else if policy.max_attempts > 1 {
            self.core().record_error(CncError::RetryExhausted {
                step: self.step_name,
                attempts,
                failure,
            });
        } else {
            // No retry budget configured: a transient failure aborts the
            // graph just like a permanent one.
            self.core().record_error(CncError::StepFailed {
                step: self.step_name,
                failure,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CncGraph, StepOutcome};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn backoff_schedules_grow_as_documented() {
        let ms = Duration::from_millis;
        let linear = RetryPolicy::attempts(8).with_backoff(ms(10));
        assert_eq!(linear.delay("s", 0, 1), ms(10));
        assert_eq!(linear.delay("s", 0, 3), ms(30));
        let exp = linear.exponential();
        assert_eq!(exp.delay("s", 0, 1), ms(10));
        assert_eq!(exp.delay("s", 0, 2), ms(20));
        assert_eq!(exp.delay("s", 0, 5), ms(160));
        // Saturation: huge attempts clamp at the cap, never overflow.
        assert_eq!(exp.delay("s", 0, 63), RetryPolicy::MAX_BACKOFF);
        assert_eq!(linear.delay("s", 0, u32::MAX), RetryPolicy::MAX_BACKOFF);
        // Zero base stays zero under every schedule.
        assert_eq!(
            RetryPolicy::attempts(8).exponential().delay("s", 0, 9),
            Duration::ZERO
        );
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_site_sensitive() {
        let base = Duration::from_millis(100);
        let p = RetryPolicy::attempts(8)
            .with_backoff(base)
            .with_jitter(0xD1CE);
        let d = p.delay("stepA", 42, 1);
        assert_eq!(d, p.delay("stepA", 42, 1), "same site, same wait");
        assert!(
            d >= base / 2 && d < base * 3 / 2,
            "jitter in [0.5, 1.5): {d:?}"
        );
        // Different sites decorrelate.
        let others = [
            p.delay("stepA", 42, 2),
            p.delay("stepA", 43, 1),
            p.delay("stepB", 42, 1),
            RetryPolicy::attempts(8)
                .with_backoff(base)
                .with_jitter(0x5EED)
                .delay("stepA", 42, 1),
        ];
        assert!(
            others.iter().any(|&o| o != d),
            "jitter must vary across sites/seeds"
        );
    }

    #[test]
    fn transient_failure_without_budget_aborts() {
        let g = CncGraph::with_threads(2);
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("flaky", move |_, _| Err(StepAbort::transient("glitch")));
        tags.put(0);
        match g.wait() {
            Err(CncError::StepFailed {
                step: "flaky",
                failure,
            }) => {
                assert_eq!(failure.kind, FailureKind::Transient);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn transient_failure_retries_to_success() {
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(3));
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let o2 = out.clone();
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        tags.prescribe("flaky", move |&n, _| {
            if t2.fetch_add(1, Ordering::SeqCst) < 2 {
                return Err(StepAbort::transient("glitch"));
            }
            o2.put(n, n + 1)?;
            Ok(StepOutcome::Done)
        });
        tags.put(41);
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&41), Some(42));
        assert_eq!(stats.steps_retried, 2);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn transient_after_put_escalates_instead_of_retrying() {
        // A body that publishes a put and then reports a transient
        // failure must not be retried: the re-run would repeat the put
        // and trip single assignment. The runtime escalates it to a
        // structured permanent failure naming the contract.
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(5));
        let out = g.item_collection::<u32, u32>("out");
        let tags = g.tag_collection::<u32>("t");
        let o2 = out.clone();
        tags.prescribe("eager", move |&n, _| {
            o2.put(n, n)?;
            Err(StepAbort::transient("glitch after put"))
        });
        tags.put(1);
        match g.wait() {
            Err(CncError::StepFailed {
                step: "eager",
                failure,
            }) => {
                assert_eq!(failure.kind, FailureKind::Permanent);
                assert!(failure.message.contains("1 put(s)"), "{}", failure.message);
                assert!(
                    failure.message.contains("glitch after put"),
                    "{}",
                    failure.message
                );
            }
            other => panic!("expected escalated permanent failure, got {other:?}"),
        }
        assert_eq!(
            g.stats().steps_retried,
            0,
            "must not retry a non-idempotent body"
        );
    }

    #[test]
    fn environment_puts_do_not_taint_transient_failures() {
        // Puts from the environment thread are not step side effects:
        // a body that fails transiently (before any put of its own)
        // stays retryable even while the environment is putting items.
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(3));
        let out = g.item_collection::<u32, u32>("out");
        let input = g.item_collection::<u32, u32>("in");
        let tags = g.tag_collection::<u32>("t");
        let (i2, o2) = (input.clone(), out.clone());
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        tags.prescribe("flaky", move |&n, s| {
            if t2.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(StepAbort::transient("first try fails"));
            }
            let v = i2.get(s, &n)?;
            o2.put(n, v + 1)?;
            Ok(StepOutcome::Done)
        });
        input.put(3, 10).unwrap(); // environment put: must not count
        tags.put(3);
        let stats = g.wait().unwrap();
        assert_eq!(out.get_env(&3), Some(11));
        assert_eq!(stats.steps_retried, 1);
    }

    #[test]
    fn retry_budget_exhaustion_is_structured() {
        let g = CncGraph::with_threads(2);
        g.set_retry_policy(RetryPolicy::attempts(3));
        let tags = g.tag_collection::<u32>("t");
        tags.prescribe("hopeless", move |_, _| Err(StepAbort::transient("always")));
        tags.put(0);
        match g.wait() {
            Err(CncError::RetryExhausted {
                step: "hopeless",
                attempts: 3,
                failure,
            }) => {
                assert_eq!(failure.kind, FailureKind::Transient);
            }
            other => panic!("expected retry exhaustion, got {other:?}"),
        }
    }
}
