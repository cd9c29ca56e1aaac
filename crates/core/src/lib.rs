//! `recdp` — recursive divide-and-conquer dynamic programs in fork-join
//! and data-flow execution models.
//!
//! This is the facade crate of the reproduction suite for Nookala et al.,
//! *"Understanding Recursive Divide-and-Conquer Dynamic Programs in
//! Fork-Join and Data-Flow Execution Models"* (IPDPS Workshops 2021). It
//! ties together:
//!
//! * [`executor`] — run the real GE / SW / FW-APSP kernels under any
//!   execution model (serial loops, serial R-DP, fork-join on the
//!   bundled work-stealing runtime, or data-flow on the bundled CnC
//!   runtime in its Native / Tuner / Manual variants);
//! * [`analysis`] — extract the task DAG either execution model exposes
//!   and compute work, span and parallelism;
//! * [`experiment`] — predict execution times on the paper's testbeds
//!   (EPYC-64, SKYLAKE-192) by discrete-event simulation, regenerating
//!   the shapes of Figs. 4-9 and the analytical "Estimated" series;
//! * [`calibrate`] — measure this host's base-kernel throughput to feed
//!   the simulator's cost model.
//!
//! # Quick start
//!
//! ```
//! use recdp::prelude::*;
//!
//! // Run real GE under fork-join and data-flow; results are bitwise equal.
//! let out_fj = run_benchmark(Benchmark::Ge, Execution::ForkJoin, 64, 16, 2);
//! let out_df = run_benchmark(Benchmark::Ge, Execution::Cnc(CncVariant::Native), 64, 16, 2);
//! assert!(out_fj.table.bitwise_eq(&out_df.table));
//!
//! // Compare the two models' spans for the same computation.
//! let fj = dag_metrics(Benchmark::Ge, Model::ForkJoin, 16, 64);
//! let df = dag_metrics(Benchmark::Ge, Model::DataFlow, 16, 64);
//! assert!(fj.span > df.span, "joins add artificial dependencies");
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod calibrate;
pub mod executor;
pub mod experiment;

pub use analysis::{dag, dag_metrics, Model};
pub use executor::{
    auto_base, execute, integrity_observer, prepare_job_with, prepare_sw_query, run_benchmark,
    Benchmark, Execution, JobRun, PreparedJob, RecoveryPolicy, ResilienceOptions, Run, RunEnv,
    RunOn, RunOutput, AUTO_BASE,
};
pub use experiment::{predict_seconds, FigurePanel, PanelRow, Paradigm};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::analysis::{dag, dag_metrics, Model};
    pub use crate::executor::{
        auto_base, execute, integrity_observer, prepare_job_with, prepare_sw_query, run_benchmark,
        Benchmark, Execution, JobRun, PreparedJob, RecoveryPolicy, ResilienceOptions, Run, RunEnv,
        RunOn, RunOutput, AUTO_BASE,
    };
    pub use crate::experiment::{predict_seconds, FigurePanel, PanelRow, Paradigm};
    pub use recdp_cnc::{BackoffKind, CancelToken, Checkpoint, CncError, CncGraph, RetryPolicy};
    pub use recdp_forkjoin::{join, scope, RecoveryMode, ThreadPool, ThreadPoolBuilder};
    pub use recdp_kernels::{
        CncVariant, Decomposition, IntegrityConfig, IntegrityError, IntegrityMode,
        IntegrityOptions, IntegrityReport, Matrix,
    };
    pub use recdp_machine::{epyc64, skylake192, MachineConfig};
    pub use recdp_trace::{TraceReport, TraceSession, Tracer};
}
