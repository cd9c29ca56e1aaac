//! Fork-join LCS via the generic engine over [`LcsSpec`]: anti-diagonal
//! stages of independent sub-blocks fork in parallel.

use recdp_forkjoin::ThreadPool;

use crate::engine::run_forkjoin;
use crate::table::Matrix;

use super::{check_sizes, spec::LcsSpec};

/// In-place fork-join R-DP LCS with base size `base` on `pool`.
pub fn lcs_forkjoin(table: &mut Matrix, a: &[u8], b: &[u8], base: usize, pool: &ThreadPool) {
    let n = table.n();
    check_sizes(n, base, a, b);
    run_forkjoin(&LcsSpec::new(table.ptr(), a, b, base), pool, 1, None, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::loops::lcs_loops;
    use crate::workloads::dna_sequence;
    use recdp_forkjoin::ThreadPoolBuilder;

    #[test]
    fn forkjoin_matches_loops_bitwise() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        let n = 64;
        let a = dna_sequence(n, 41);
        let b = dna_sequence(n, 42);
        let mut lo = Matrix::zeros(n);
        lcs_loops(&mut lo, &a, &b);
        for base in [4usize, 16] {
            let mut fj = Matrix::zeros(n);
            lcs_forkjoin(&mut fj, &a, &b, base, &pool);
            assert!(fj.bitwise_eq(&lo), "base={base}");
        }
    }
}
