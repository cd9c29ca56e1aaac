//! `recdp-suite`: the integration surface of the recdp reproduction —
//! re-exports the facade crate and hosts the workspace-level examples
//! (`examples/`) and integration tests (`tests/`).
//!
//! See the [`recdp`] crate for the API and the repository README for the
//! experiment catalogue.

pub use recdp::prelude;
pub use recdp::{
    dag, dag_metrics, execute, predict_seconds, run_benchmark, Benchmark, Execution, FigurePanel,
    Model, Paradigm, Run, RunOn, RunOutput,
};
pub use recdp_server::{
    BatchMode, DpServer, JobHandle, JobSpec, ServerConfig, SubmitError, SwQuery,
};
