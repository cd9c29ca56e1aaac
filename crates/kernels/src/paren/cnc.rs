//! Data-flow parenthesization on `recdp-cnc`, via the generic CnC
//! engine over [`ParenSpec`].
//!
//! The interesting wrinkle versus GE/FW/SW: the per-tile dependency
//! list is *unbounded* — tile `(I, J)` blocks on (or is tuned on)
//! `2 (J - I)` items. The Tuner and Manual variants therefore build
//! large `put_when` dependency sets, and the NonBlocking variant may
//! poll many items per attempt; all four still reduce to the same
//! generic engine code paths.

use recdp_cnc::{CncError, CncGraph, GraphStats};

use crate::engine::run_cnc;
use crate::table::Matrix;
use crate::CncVariant;

use super::{check_sizes, spec::ParenSpec};

/// In-place data-flow parenthesization with base size `base` on
/// `threads` workers.
pub fn paren_cnc(
    table: &mut Matrix,
    dims: &[f64],
    base: usize,
    variant: CncVariant,
    threads: usize,
) -> GraphStats {
    paren_cnc_on(table, dims, base, variant, &CncGraph::with_threads(threads))
        .expect("CnC graph failed")
}

/// Fallible form of [`paren_cnc`] running on a caller-supplied graph,
/// so the caller can arm a retry policy, deadline, cancellation token
/// or fault injector before execution. Propagates the graph's
/// structured error instead of panicking.
pub fn paren_cnc_on(
    table: &mut Matrix,
    dims: &[f64],
    base: usize,
    variant: CncVariant,
    graph: &CncGraph,
) -> Result<GraphStats, CncError> {
    let n = table.n();
    check_sizes(n, base, dims);
    run_cnc(
        &ParenSpec::new(table.ptr(), dims, base),
        variant,
        graph,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paren::chain_cost;
    use crate::paren::loops::paren_loops;
    use crate::workloads::chain_dims;

    #[test]
    fn all_four_variants_match_loops_bitwise() {
        let n = 64;
        let dims = chain_dims(n, 31);
        let mut lo = Matrix::zeros(n);
        paren_loops(&mut lo, &dims);
        for variant in CncVariant::ALL4 {
            let mut df = Matrix::zeros(n);
            let stats = paren_cnc(&mut df, &dims, 8, variant, 3);
            assert!(df.bitwise_eq(&lo), "variant {variant:?}");
            assert_eq!(stats.items_put, 36, "t(t+1)/2 tiles each put once");
            assert_eq!(chain_cost(&df), chain_cost(&lo));
        }
    }

    #[test]
    fn tuner_and_manual_never_requeue() {
        let n = 64;
        let dims = chain_dims(n, 7);
        for variant in [CncVariant::Tuner, CncVariant::Manual] {
            let mut df = Matrix::zeros(n);
            let stats = paren_cnc(&mut df, &dims, 8, variant, 4);
            assert_eq!(stats.steps_requeued, 0, "variant {variant:?}");
        }
    }

    #[test]
    fn manual_completes_exactly_the_tile_count() {
        let n = 32;
        let dims = chain_dims(n, 2);
        let mut df = Matrix::zeros(n);
        let stats = paren_cnc(&mut df, &dims, 8, CncVariant::Manual, 4);
        // t = 4: 10 base tiles pre-declared, no recursive expansion tags.
        assert_eq!(stats.steps_completed, 10);
        assert_eq!(stats.tags_put, 10);
    }

    #[test]
    fn single_tile_case() {
        let n = 16;
        let dims = chain_dims(n, 11);
        let mut lo = Matrix::zeros(n);
        paren_loops(&mut lo, &dims);
        for variant in CncVariant::ALL4 {
            let mut df = Matrix::zeros(n);
            paren_cnc(&mut df, &dims, 16, variant, 2);
            assert!(df.bitwise_eq(&lo), "variant {variant:?}");
        }
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::paren::loops::paren_loops;
    use crate::workloads::chain_dims;

    #[test]
    fn nonblocking_matches_loops_and_never_parks() {
        let n = 64;
        let dims = chain_dims(n, 13);
        let mut lo = Matrix::zeros(n);
        paren_loops(&mut lo, &dims);
        let mut df = Matrix::zeros(n);
        let stats = paren_cnc(&mut df, &dims, 8, CncVariant::NonBlocking, 3);
        assert!(df.bitwise_eq(&lo));
        assert_eq!(stats.steps_requeued, 0, "polling never parks");
        assert_eq!(stats.steps_completed, stats.tags_put);
    }
}
