//! `recdp-cnc`: a Concurrent Collections (CnC) data-flow runtime.
//!
//! This crate is the repo's stand-in for Intel Concurrent Collections
//! (icnc on TBB), faithful to the semantics the paper relies on:
//!
//! * **Step collections** — user computations, prescribed by tags. A step
//!   instance is created per tag put into its prescribing tag collection.
//! * **Item collections** — associative single-assignment containers.
//!   `get` from inside a step is *blocking* in the Intel CnC sense: if
//!   the item is not yet available the step instance aborts, is parked on
//!   the missing item's wait list and is re-executed from scratch when
//!   the item is put (abort-and-retry).
//! * **Tag collections** — control: putting a tag spawns an instance of
//!   each prescribed step on the underlying thread pool
//!   (`recdp-forkjoin`, standing in for TBB).
//! * **Dynamic single assignment** — a second put to the same item key is
//!   detected at run time and surfaces as an error, as in the C++
//!   implementation the paper describes.
//! * **Tuners** — [`TagCollection::put_when`] reproduces the
//!   pre-scheduling tuner (run a step only once its declared dependencies
//!   are available) and supports the "manually pre-declared dependencies"
//!   variant (Manual-CnC) the paper evaluates.
//!
//! The environment (the code outside the graph) puts initial items/tags
//! and then calls [`CncGraph::wait`], which blocks until quiescence and
//! reports either completion statistics or a deadlock (steps still parked
//! on items nobody will ever produce — expressible in CnC, and easy to
//! diagnose thanks to determinism, as the paper notes).
//!
//! # Example
//!
//! ```
//! use recdp_cnc::{CncGraph, StepOutcome};
//!
//! let graph = CncGraph::with_threads(2);
//! let fib = graph.item_collection::<u32, u64>("fib");
//! let tags = graph.tag_collection::<u32>("fib_tags");
//! let fib_in_step = fib.clone();
//! tags.prescribe("fib_step", move |&n, scope| {
//!     if n < 2 {
//!         fib_in_step.put(n, n as u64)?;
//!     } else {
//!         // Blocking gets: abort-and-retry until both inputs exist.
//!         let a = fib_in_step.get(scope, &(n - 1))?;
//!         let b = fib_in_step.get(scope, &(n - 2))?;
//!         fib_in_step.put(n, a + b)?;
//!     }
//!     Ok(StepOutcome::Done)
//! });
//! for n in (0..=20).rev() {
//!     tags.put(n); // any order: data flow sorts it out
//! }
//! let stats = graph.wait().expect("no deadlock");
//! assert_eq!(fib.get_env(&20), Some(6765));
//! assert!(stats.steps_completed >= 21);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod diagnostic;
mod error;
mod fault;
mod hot;
mod item;
mod managed;
mod retry;
mod runtime;
mod slot;
mod stats;
mod tag;

pub use checkpoint::Checkpoint;
pub use error::{BlockedWait, CncError, DeadlockDiagnostic, FailureKind, StepAbort, StepFailure};
pub use fault::{CellFlip, CorruptionSite, FaultAction, FaultInjector, FaultSite, PutAction};
pub use hot::StepScope;
pub use item::{GridKey, ItemCollection};
pub use managed::{ManagedHandle, PickFn, ReadyTask, ScheduleEvent};
pub use retry::{BackoffKind, RetryPolicy};
pub use runtime::{CancelToken, CncGraph};
pub use stats::GraphStats;
pub use tag::TagCollection;

/// What a step body reports when it runs to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step finished its work.
    Done,
}

/// The result type of a step body: `Ok(Done)` or an abort (blocked on a
/// missing item — requeued automatically — or failed).
pub type StepResult = Result<StepOutcome, StepAbort>;
