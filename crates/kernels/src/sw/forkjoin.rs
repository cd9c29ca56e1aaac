//! Fork-join SW via the generic engine over [`SwSpec`]: the quadrant
//! recursion with a join around the anti-diagonal pair — the per-level
//! barrier that destroys wavefront parallelism (the reason OpenMP loses
//! SW at *every* problem size in Figs. 6-7).
//!
//! Disjointness: `X01` and `X10` occupy disjoint index rectangles; both
//! read only the final values of `X00` (sequenced before the fork) and
//! of tiles outside the region (sequenced by the parent's structure).

use recdp_forkjoin::ThreadPool;

use crate::engine::run_forkjoin;
use crate::table::Matrix;

use super::{check_sizes, spec::SwSpec};

/// In-place fork-join R-DP SW with base size `base` on `pool`.
pub fn sw_forkjoin(table: &mut Matrix, a: &[u8], b: &[u8], base: usize, pool: &ThreadPool) {
    let n = table.n();
    check_sizes(n, base, a, b);
    run_forkjoin(&SwSpec::new(table.ptr(), a, b, base), pool, 1, None, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::loops::sw_loops;
    use crate::workloads::dna_sequence;
    use recdp_forkjoin::ThreadPoolBuilder;

    #[test]
    fn forkjoin_matches_loops_bitwise() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        let n = 64;
        let a = dna_sequence(n, 8);
        let b = dna_sequence(n, 9);
        let mut lo = Matrix::zeros(n);
        sw_loops(&mut lo, &a, &b);
        for base in [4usize, 16] {
            let mut fj = Matrix::zeros(n);
            sw_forkjoin(&mut fj, &a, &b, base, &pool);
            assert!(fj.bitwise_eq(&lo), "base={base}");
        }
    }
}
