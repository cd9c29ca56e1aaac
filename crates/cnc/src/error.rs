//! Error types of the CnC runtime.
//!
//! Failures are *structured*: a step failure carries a
//! [`FailureKind`] (transient failures are eligible for the graph's
//! [`crate::RetryPolicy`], permanent ones abort the graph) and preserves
//! its source [`CncError`] instead of flattening it into a string, so the
//! retry machinery and callers can inspect the original cause.

use std::fmt;
use std::time::Duration;

/// Whether a step failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The failure is expected to go away on re-execution (lost message,
    /// injected chaos fault, contended resource). The runtime re-executes
    /// the instance under the graph's [`crate::RetryPolicy`].
    ///
    /// Retrying re-runs the body *from scratch*, so it is only safe while
    /// the body has published nothing: a transient failure returned after
    /// an item or tag put is escalated to a permanent one by the runtime
    /// (the retry would repeat the puts, violating single assignment).
    /// Follow the gets-then-puts discipline and return transient failures
    /// before any put.
    Transient,
    /// The failure is deterministic (contract violation, poisoned input);
    /// retrying cannot help and the graph aborts.
    Permanent,
}

/// A structured step failure: classification, message, and the source
/// [`CncError`] when the failure was caused by a runtime error (e.g. a
/// single-assignment violation surfaced through `?`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepFailure {
    /// Retry eligibility.
    pub kind: FailureKind,
    /// Human-readable description.
    pub message: String,
    /// The runtime error that caused this failure, if any (preserved
    /// rather than flattened to a string).
    pub source: Option<Box<CncError>>,
}

impl StepFailure {
    /// A transient failure (eligible for retry).
    pub fn transient(message: impl Into<String>) -> Self {
        StepFailure {
            kind: FailureKind::Transient,
            message: message.into(),
            source: None,
        }
    }

    /// A permanent failure (aborts the graph).
    pub fn permanent(message: impl Into<String>) -> Self {
        StepFailure {
            kind: FailureKind::Permanent,
            message: message.into(),
            source: None,
        }
    }

    /// Wraps a runtime error as a permanent failure, keeping the original
    /// error reachable through [`StepFailure::source`].
    pub fn from_error(err: CncError) -> Self {
        StepFailure {
            kind: FailureKind::Permanent,
            message: err.to_string(),
            source: Some(Box::new(err)),
        }
    }
}

impl fmt::Display for StepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FailureKind::Transient => "transient",
            FailureKind::Permanent => "permanent",
        };
        write!(f, "{kind}: {}", self.message)
    }
}

/// Why a step body aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepAbort {
    /// A blocking `get` found its item missing; the instance has been
    /// parked on the item's wait list and will re-execute when it is put.
    /// Step bodies propagate this with `?` — it is control flow, not a
    /// failure.
    Blocked,
    /// The step hit a real error; the graph classifies it by
    /// [`FailureKind`] (transient failures go through the retry policy).
    Failed(StepFailure),
}

impl StepAbort {
    /// Shorthand for a transient failure abort.
    ///
    /// Must be returned *before* the body performs any item or tag put:
    /// the retry re-runs the body from scratch and would repeat the puts.
    /// A transient abort after a put is escalated to a permanent failure
    /// instead of being retried (see [`FailureKind::Transient`]).
    pub fn transient(message: impl Into<String>) -> Self {
        StepAbort::Failed(StepFailure::transient(message))
    }

    /// Shorthand for a permanent failure abort.
    pub fn permanent(message: impl Into<String>) -> Self {
        StepAbort::Failed(StepFailure::permanent(message))
    }
}

impl fmt::Display for StepAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepAbort::Blocked => write!(f, "step blocked on an unavailable item"),
            StepAbort::Failed(failure) => write!(f, "step failed ({failure})"),
        }
    }
}

impl From<CncError> for StepAbort {
    fn from(e: CncError) -> Self {
        StepAbort::Failed(StepFailure::from_error(e))
    }
}

/// One parked dependency in a deadlock report: a step instance and the
/// missing item it is waiting for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedWait {
    /// Name of the blocked step collection (for instances pre-scheduled
    /// with [`crate::TagCollection::put_when`], the step that was never
    /// dispatched).
    pub step: &'static str,
    /// Item collection the instance is parked on.
    pub collection: &'static str,
    /// Debug rendering of the missing key.
    pub key: String,
}

impl fmt::Display for BlockedWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}) waits on [{}] {}",
            self.step, self.collection, self.key
        )
    }
}

/// Wait-for diagnostic attached to [`CncError::Deadlock`]: every parked
/// step with the item it is missing, plus the longest chain of blocked
/// instances linked through shared unproduced items (a best-effort
/// rendering of the stall cluster — CnC graphs do not declare producers,
/// so true producer-consumer chains are not recoverable in general).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockDiagnostic {
    /// Every (blocked step, missing item) pair at quiescence.
    pub waits: Vec<BlockedWait>,
    /// Longest alternating step/item chain through shared missing items,
    /// rendered as display strings (`(step)` and `[collection] key`
    /// entries alternate).
    pub longest_chain: Vec<String>,
}

impl DeadlockDiagnostic {
    /// Renders the full wait-for report, one line per parked dependency.
    pub fn render(&self) -> String {
        let mut out = String::from("wait-for diagnostic:\n");
        for w in &self.waits {
            out.push_str(&format!("  {w}\n"));
        }
        if !self.longest_chain.is_empty() {
            out.push_str(&format!(
                "  longest unproduced-dependency chain: {}\n",
                self.longest_chain.join(" -> ")
            ));
        }
        out
    }
}

/// Graph-level errors reported by [`crate::CncGraph::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CncError {
    /// An item key was put twice. CnC's dynamic single assignment rule —
    /// the property behind its determinism proof — forbids overwriting;
    /// like the Intel C++ runtime we check it dynamically.
    SingleAssignmentViolation {
        /// Name of the offending item collection.
        collection: &'static str,
        /// Debug rendering of the duplicated key.
        key: String,
    },
    /// A key outside the extent its grid item collection was created
    /// with (see [`crate::CncGraph::grid_item_collection`]).
    KeyOutOfExtent {
        /// Name of the item collection.
        collection: &'static str,
        /// Debug rendering of the offending key.
        key: String,
    },
    /// Execution reached quiescence while step instances were still
    /// parked on items nobody produced.
    Deadlock {
        /// Number of parked step instances.
        blocked_instances: usize,
        /// Wait-for diagnostic naming each blocked step and missing item.
        diagnostic: DeadlockDiagnostic,
    },
    /// A step reported a permanent [`StepFailure`] (or a transient one
    /// with no retry budget configured).
    StepFailed {
        /// Name of the failing step collection.
        step: &'static str,
        /// The structured failure, source error preserved.
        failure: StepFailure,
    },
    /// A transient step failure survived every attempt allowed by the
    /// graph's [`crate::RetryPolicy`].
    RetryExhausted {
        /// Name of the failing step collection.
        step: &'static str,
        /// Executions attempted (initial run plus retries).
        attempts: u32,
        /// The failure observed on the final attempt.
        failure: StepFailure,
    },
    /// A step body panicked.
    StepPanicked(String),
    /// The environment cancelled the graph through a
    /// [`crate::CancelToken`]; queued instances were drained unexecuted.
    Cancelled {
        /// Reason passed to [`crate::CancelToken::cancel`].
        reason: String,
    },
    /// [`crate::CncGraph::wait_deadline`] expired before quiescence.
    Timeout {
        /// The deadline that expired.
        deadline: Duration,
        /// Step instances still queued or running at expiry.
        pending: usize,
        /// Step instances parked on missing items at expiry.
        blocked: usize,
    },
}

impl fmt::Display for CncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CncError::SingleAssignmentViolation { collection, key } => {
                write!(f, "single-assignment violation in [{collection}] at key {key}")
            }
            CncError::KeyOutOfExtent { collection, key } => {
                write!(f, "key {key} is outside the extent of grid collection [{collection}]")
            }
            CncError::Deadlock { blocked_instances, diagnostic } => {
                write!(
                    f,
                    "deadlock: {blocked_instances} step instance(s) blocked forever\n{}",
                    diagnostic.render()
                )
            }
            CncError::StepFailed { step, failure } => {
                write!(f, "step [{step}] failed ({failure})")
            }
            CncError::RetryExhausted { step, attempts, failure } => {
                write!(f, "step [{step}] exhausted its retry budget after {attempts} attempt(s); last failure: {failure}")
            }
            CncError::StepPanicked(msg) => write!(f, "step panicked: {msg}"),
            CncError::Cancelled { reason } => write!(f, "graph cancelled: {reason}"),
            CncError::Timeout { deadline, pending, blocked } => write!(
                f,
                "wait deadline of {deadline:?} expired with {pending} instance(s) pending and {blocked} blocked"
            ),
        }
    }
}

impl std::error::Error for CncError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CncError::SingleAssignmentViolation {
            collection: "x",
            key: "(1, 2)".into(),
        };
        assert!(e.to_string().contains("[x]"));
        let d = CncError::Deadlock {
            blocked_instances: 3,
            diagnostic: DeadlockDiagnostic {
                waits: vec![BlockedWait {
                    step: "s",
                    collection: "c",
                    key: "7".into(),
                }],
                longest_chain: vec!["(s)".into(), "[c] 7".into()],
            },
        };
        let text = d.to_string();
        assert!(
            text.contains('3') && text.contains("(s) waits on [c] 7"),
            "{text}"
        );
        assert!(
            text.contains("longest unproduced-dependency chain"),
            "{text}"
        );
        assert!(StepAbort::Blocked.to_string().contains("blocked"));
        assert!(StepAbort::transient("x").to_string().contains("transient"));
        assert!(StepAbort::permanent("x").to_string().contains("permanent"));
    }

    #[test]
    fn cnc_error_converts_to_abort_preserving_source() {
        let src = CncError::SingleAssignmentViolation {
            collection: "t",
            key: "9".into(),
        };
        let a: StepAbort = src.clone().into();
        match a {
            StepAbort::Failed(failure) => {
                assert_eq!(failure.kind, FailureKind::Permanent);
                assert_eq!(failure.source.as_deref(), Some(&src));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn structured_variants_format() {
        let e = CncError::RetryExhausted {
            step: "s",
            attempts: 4,
            failure: StepFailure::transient("flaky"),
        };
        assert!(e.to_string().contains("4 attempt(s)"));
        assert!(CncError::Cancelled {
            reason: "shutdown".into()
        }
        .to_string()
        .contains("shutdown"));
        let t = CncError::Timeout {
            deadline: Duration::from_millis(250),
            pending: 2,
            blocked: 1,
        };
        assert!(t.to_string().contains("2 instance(s) pending"));
    }
}
