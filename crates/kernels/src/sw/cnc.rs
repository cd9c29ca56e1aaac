//! Data-flow SW on `recdp-cnc`, via the generic CnC engine over
//! [`SwSpec`]: the wavefront, expressed as fine-grained tile
//! dependencies — no per-antidiagonal barrier, so tiles of different
//! wavefronts overlap freely (the paper's explanation for the data-flow
//! win on SW).

use recdp_cnc::{CncError, CncGraph, GraphStats};

use crate::engine::run_cnc;
use crate::table::Matrix;
use crate::CncVariant;

use super::{check_sizes, spec::SwSpec};

/// In-place data-flow SW with base size `base` on `threads` workers.
pub fn sw_cnc(
    table: &mut Matrix,
    a: &[u8],
    b: &[u8],
    base: usize,
    variant: CncVariant,
    threads: usize,
) -> GraphStats {
    sw_cnc_on(table, a, b, base, variant, &CncGraph::with_threads(threads))
        .expect("CnC graph failed")
}

/// Fallible form of [`sw_cnc`] running on a caller-supplied graph, so the
/// caller can arm a retry policy, deadline, cancellation token or fault
/// injector before execution. Propagates the graph's structured error
/// instead of panicking.
pub fn sw_cnc_on(
    table: &mut Matrix,
    a: &[u8],
    b: &[u8],
    base: usize,
    variant: CncVariant,
    graph: &CncGraph,
) -> Result<GraphStats, CncError> {
    let n = table.n();
    check_sizes(n, base, a, b);
    run_cnc(&SwSpec::new(table.ptr(), a, b, base), variant, graph, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::loops::sw_loops;
    use crate::sw::sw_score;
    use crate::workloads::dna_sequence;

    #[test]
    fn all_variants_match_loops_bitwise() {
        let n = 64;
        let a = dna_sequence(n, 31);
        let b = dna_sequence(n, 32);
        let mut lo = Matrix::zeros(n);
        sw_loops(&mut lo, &a, &b);
        for variant in CncVariant::ALL {
            let mut df = Matrix::zeros(n);
            let stats = sw_cnc(&mut df, &a, &b, 8, variant, 3);
            assert!(df.bitwise_eq(&lo), "variant {variant:?}");
            assert_eq!(stats.items_put, 64, "8x8 tiles each put once");
            assert_eq!(sw_score(&df), sw_score(&lo));
        }
    }

    #[test]
    fn tuner_never_requeues() {
        let n = 64;
        let a = dna_sequence(n, 1);
        let b = dna_sequence(n, 2);
        let mut df = Matrix::zeros(n);
        let stats = sw_cnc(&mut df, &a, &b, 8, CncVariant::Tuner, 4);
        assert_eq!(stats.steps_requeued, 0);
    }

    #[test]
    fn single_tile_case() {
        let n = 16;
        let a = dna_sequence(n, 5);
        let b = dna_sequence(n, 6);
        let mut lo = Matrix::zeros(n);
        sw_loops(&mut lo, &a, &b);
        let mut df = Matrix::zeros(n);
        sw_cnc(&mut df, &a, &b, 16, CncVariant::Native, 2);
        assert!(df.bitwise_eq(&lo));
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::sw::loops::sw_loops;
    use crate::workloads::dna_sequence;

    #[test]
    fn nonblocking_matches_loops_bitwise() {
        let n = 64;
        let a = dna_sequence(n, 3);
        let b = dna_sequence(n, 4);
        let mut lo = Matrix::zeros(n);
        sw_loops(&mut lo, &a, &b);
        let mut df = Matrix::zeros(n);
        let stats = sw_cnc(&mut df, &a, &b, 8, CncVariant::NonBlocking, 3);
        assert!(df.bitwise_eq(&lo));
        assert_eq!(stats.steps_requeued, 0, "polling never parks");
    }
}
