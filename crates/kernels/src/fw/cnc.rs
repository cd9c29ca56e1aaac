//! Data-flow FW-APSP on `recdp-cnc`, via the generic CnC engine over
//! [`FwSpec`]: recursive tag expansion mirroring the R-DP recursion,
//! base tasks synchronised by tile-readiness items keyed `(k, i, j)`
//! over the full task cube.

use recdp_cnc::{CncError, CncGraph, GraphStats};

use crate::engine::run_cnc;
use crate::table::Matrix;
use crate::CncVariant;

use super::{check_sizes, spec::FwSpec};

/// In-place data-flow FW with base size `base` on `threads` workers.
pub fn fw_cnc(dist: &mut Matrix, base: usize, variant: CncVariant, threads: usize) -> GraphStats {
    fw_cnc_on(dist, base, variant, &CncGraph::with_threads(threads)).expect("CnC graph failed")
}

/// Fallible form of [`fw_cnc`] running on a caller-supplied graph, so the
/// caller can arm a retry policy, deadline, cancellation token or fault
/// injector before execution. Propagates the graph's structured error
/// instead of panicking.
pub fn fw_cnc_on(
    dist: &mut Matrix,
    base: usize,
    variant: CncVariant,
    graph: &CncGraph,
) -> Result<GraphStats, CncError> {
    let n = dist.n();
    check_sizes(n, base);
    run_cnc(&FwSpec::new(dist.ptr(), base), variant, graph, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw::fw_loops;
    use crate::workloads::fw_matrix;

    #[test]
    fn all_variants_match_loops_bitwise() {
        let m0 = fw_matrix(32, 55, 0.4);
        let mut lo = m0.clone();
        fw_loops(&mut lo);
        for variant in CncVariant::ALL {
            let mut df = m0.clone();
            let stats = fw_cnc(&mut df, 8, variant, 3);
            assert!(df.bitwise_eq(&lo), "variant {variant:?}");
            // Full task cube: 4^3 tiles each put once.
            assert_eq!(stats.items_put, 64, "{variant:?}");
        }
    }

    #[test]
    fn tuner_and_manual_never_requeue() {
        for variant in [CncVariant::Tuner, CncVariant::Manual] {
            let mut m = fw_matrix(32, 5, 0.4);
            let stats = fw_cnc(&mut m, 8, variant, 4);
            assert_eq!(stats.steps_requeued, 0, "{variant:?}");
        }
    }

    #[test]
    fn single_tile_problem() {
        let m0 = fw_matrix(16, 2, 0.5);
        let mut lo = m0.clone();
        fw_loops(&mut lo);
        let mut df = m0.clone();
        fw_cnc(&mut df, 16, CncVariant::Native, 2);
        assert!(df.bitwise_eq(&lo));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m0 = fw_matrix(32, 91, 0.3);
        let mut one = m0.clone();
        fw_cnc(&mut one, 8, CncVariant::Native, 1);
        let mut multi = m0.clone();
        fw_cnc(&mut multi, 8, CncVariant::Native, 4);
        assert!(multi.bitwise_eq(&one));
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::fw::fw_loops;
    use crate::workloads::fw_matrix;

    #[test]
    fn nonblocking_matches_loops_bitwise() {
        let m0 = fw_matrix(32, 8, 0.4);
        let mut lo = m0.clone();
        fw_loops(&mut lo);
        let mut df = m0.clone();
        let stats = fw_cnc(&mut df, 8, CncVariant::NonBlocking, 3);
        assert!(df.bitwise_eq(&lo));
        assert_eq!(stats.items_put, 64);
        assert_eq!(stats.steps_requeued, 0, "polling never parks");
    }
}
