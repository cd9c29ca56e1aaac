//! Data-flow GE on `recdp-cnc` — the Rust analogue of the paper's
//! Listings 4 and 5, via the generic CnC engine over [`GeSpec`].
//!
//! The engine builds the paper's CnC program from the spec:
//!
//! * four tag collections (`funcA`..`funcD`), one per recursive function,
//!   tagged by `(i0, j0, k0, s)` in tile units;
//! * step instances with `s > 1` are the *recursive part*: they put the
//!   sub-function tags immediately, irrespective of data dependencies
//!   (exactly Listing 5's tag loop);
//! * step instances with `s == 1` are base cases: they perform blocking
//!   `get`s for their read and write-write dependencies
//!   (`GeSpec::reads`), run the shared base kernel on their tile, and
//!   `put` the tile's readiness item;
//! * a single item collection keyed `(k, i, j)` holds tile readiness — a
//!   keyed union of the paper's four `funcX_outputs` collections with
//!   identical synchronisation semantics.
//!
//! The execution variants of Sec. III-D/IV-B map onto [`CncVariant`]:
//! Native dispatches base steps eagerly (failed gets abort-and-retry),
//! Tuner pre-schedules each base step on its declared dependencies at
//! prescription time, Manual has the environment pre-declare every base
//! task of the whole computation up front, and NonBlocking polls with
//! `try_get` + self-respawn.

use recdp_cnc::{CncError, CncGraph, GraphStats};

use crate::engine::run_cnc;
use crate::table::Matrix;
use crate::CncVariant;

use super::{check_rdp_sizes, spec::GeSpec};

/// In-place data-flow GE with base-case size `base` on a fresh CnC graph
/// with `threads` workers. Returns the graph's execution statistics
/// (requeue counts etc. — the observable difference between the
/// variants).
pub fn ge_cnc(mat: &mut Matrix, base: usize, variant: CncVariant, threads: usize) -> GraphStats {
    ge_cnc_on(mat, base, variant, &CncGraph::with_threads(threads)).expect("CnC graph failed")
}

/// Fallible form of [`ge_cnc`] running on a caller-supplied graph, so the
/// caller can arm a retry policy, deadline, cancellation token or fault
/// injector before execution. Propagates the graph's structured error
/// (retry exhaustion, deadlock, timeout, cancellation) instead of
/// panicking.
pub fn ge_cnc_on(
    mat: &mut Matrix,
    base: usize,
    variant: CncVariant,
    graph: &CncGraph,
) -> Result<GraphStats, CncError> {
    let n = mat.n();
    check_rdp_sizes(n, base);
    run_cnc(&GeSpec::new(mat.ptr(), base), variant, graph, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_loops;
    use crate::workloads::ge_matrix;

    #[test]
    fn all_variants_match_loops_bitwise() {
        for variant in CncVariant::ALL {
            let m0 = ge_matrix(32, 13);
            let mut lo = m0.clone();
            ge_loops(&mut lo);
            let mut df = m0.clone();
            let stats = ge_cnc(&mut df, 8, variant, 3);
            assert!(df.bitwise_eq(&lo), "variant {variant:?}");
            // 4 tile-steps: 30 base tasks, plus expansion steps for
            // Native/Tuner.
            assert!(stats.items_put >= 30, "variant {variant:?}: {stats:?}");
        }
    }

    #[test]
    fn single_tile_problem() {
        let m0 = ge_matrix(16, 2);
        let mut lo = m0.clone();
        ge_loops(&mut lo);
        let mut df = m0.clone();
        ge_cnc(&mut df, 16, CncVariant::Native, 2);
        assert!(df.bitwise_eq(&lo));
    }

    #[test]
    fn tuner_and_manual_never_requeue() {
        for variant in [CncVariant::Tuner, CncVariant::Manual] {
            let mut m = ge_matrix(64, 5);
            let stats = ge_cnc(&mut m, 8, variant, 4);
            assert_eq!(
                stats.steps_requeued, 0,
                "{variant:?} pre-schedules all deps: {stats:?}"
            );
        }
    }

    #[test]
    fn native_blocking_gets_observed() {
        // With several workers racing down the eagerly-expanded tag tree,
        // some base step almost surely runs before its inputs exist; the
        // abort-and-retry counter is the paper's Native-CnC overhead.
        let mut m = ge_matrix(64, 3);
        let stats = ge_cnc(&mut m, 8, CncVariant::Native, 4);
        assert!(stats.gets_ok > 0);
        // Every base task (8 tile-steps -> 204 tasks) completed exactly
        // once.
        assert_eq!(stats.items_put, 204);
    }

    #[test]
    fn manual_variant_runs_only_base_steps() {
        let mut m = ge_matrix(32, 8);
        let t = 4u64;
        let base_tasks = t * (t + 1) * (2 * t + 1) / 6;
        let stats = ge_cnc(&mut m, 8, CncVariant::Manual, 2);
        assert_eq!(
            stats.steps_completed, base_tasks,
            "no expansion steps under Manual"
        );
        assert_eq!(stats.tags_put, base_tasks);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m0 = ge_matrix(64, 99);
        let mut one = m0.clone();
        ge_cnc(&mut one, 16, CncVariant::Native, 1);
        for threads in [2usize, 4] {
            let mut multi = m0.clone();
            ge_cnc(&mut multi, 16, CncVariant::Native, threads);
            assert!(
                multi.bitwise_eq(&one),
                "CnC determinism at {threads} threads"
            );
        }
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::ge::ge_loops;
    use crate::workloads::ge_matrix;

    #[test]
    fn nonblocking_matches_loops_bitwise() {
        let m0 = ge_matrix(64, 8);
        let mut lo = m0.clone();
        ge_loops(&mut lo);
        let mut df = m0.clone();
        let stats = ge_cnc(&mut df, 8, CncVariant::NonBlocking, 3);
        assert!(df.bitwise_eq(&lo));
        assert_eq!(stats.items_put, 204, "all base tasks completed once");
        // Polling style never parks on item wait lists.
        assert_eq!(stats.steps_requeued, 0);
    }

    #[test]
    fn nonblocking_retries_are_counted() {
        let mut m = ge_matrix(64, 8);
        let stats = ge_cnc(&mut m, 8, CncVariant::NonBlocking, 4);
        // With eager tag expansion racing actual execution, some base
        // steps must observe missing inputs and self-respawn.
        assert!(stats.nb_retries > 0, "{stats:?}");
        assert!(stats.gets_nb_missing > 0);
        // Every respawn is an extra completed execution of the step.
        assert_eq!(
            stats.steps_completed,
            stats.tags_put, // every put tag runs exactly one completed body
            "{stats:?}"
        );
    }

    #[test]
    fn nonblocking_deterministic() {
        let m0 = ge_matrix(64, 44);
        let mut a = m0.clone();
        ge_cnc(&mut a, 16, CncVariant::NonBlocking, 1);
        let mut b = m0.clone();
        ge_cnc(&mut b, 16, CncVariant::NonBlocking, 4);
        assert!(a.bitwise_eq(&b));
    }
}
