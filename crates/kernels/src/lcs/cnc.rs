//! Data-flow LCS on `recdp-cnc`, via the generic CnC engine over
//! [`LcsSpec`]: the SW wavefront as fine-grained tile dependencies, so
//! tiles of different anti-diagonals overlap freely.

use recdp_cnc::{CncError, CncGraph, GraphStats};

use crate::engine::run_cnc;
use crate::table::Matrix;
use crate::CncVariant;

use super::{check_sizes, spec::LcsSpec};

/// In-place data-flow LCS with base size `base` on `threads` workers.
pub fn lcs_cnc(
    table: &mut Matrix,
    a: &[u8],
    b: &[u8],
    base: usize,
    variant: CncVariant,
    threads: usize,
) -> GraphStats {
    lcs_cnc_on(table, a, b, base, variant, &CncGraph::with_threads(threads))
        .expect("CnC graph failed")
}

/// Fallible form of [`lcs_cnc`] running on a caller-supplied graph, so
/// the caller can arm a retry policy, deadline, cancellation token or
/// fault injector before execution. Propagates the graph's structured
/// error instead of panicking.
pub fn lcs_cnc_on(
    table: &mut Matrix,
    a: &[u8],
    b: &[u8],
    base: usize,
    variant: CncVariant,
    graph: &CncGraph,
) -> Result<GraphStats, CncError> {
    let n = table.n();
    check_sizes(n, base, a, b);
    run_cnc(&LcsSpec::new(table.ptr(), a, b, base), variant, graph, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::loops::lcs_loops;
    use crate::lcs::{lcs_len, lcs_traceback};
    use crate::workloads::dna_sequence;

    #[test]
    fn all_variants_match_loops_bitwise() {
        let n = 64;
        let a = dna_sequence(n, 31);
        let b = dna_sequence(n, 32);
        let mut lo = Matrix::zeros(n);
        lcs_loops(&mut lo, &a, &b);
        for variant in CncVariant::ALL4 {
            let mut df = Matrix::zeros(n);
            let stats = lcs_cnc(&mut df, &a, &b, 8, variant, 3);
            assert!(df.bitwise_eq(&lo), "variant {variant:?}");
            assert_eq!(stats.items_put, 64, "8x8 tiles each put once");
            assert_eq!(lcs_len(&df), lcs_len(&lo));
            assert_eq!(
                lcs_traceback(&df, &a, &b),
                lcs_traceback(&lo, &a, &b),
                "identical tables must give the identical witness"
            );
        }
    }

    #[test]
    fn tuner_never_requeues() {
        let n = 64;
        let a = dna_sequence(n, 1);
        let b = dna_sequence(n, 2);
        let mut df = Matrix::zeros(n);
        let stats = lcs_cnc(&mut df, &a, &b, 8, CncVariant::Tuner, 4);
        assert_eq!(stats.steps_requeued, 0);
    }
}
