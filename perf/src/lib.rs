//! `recdp-perf`: the repo's benchmark. See `README.md` for the metric
//! glossary, the workloads and how to run, trace and compare.

pub mod adapter;
pub mod cli;
pub mod json;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;
