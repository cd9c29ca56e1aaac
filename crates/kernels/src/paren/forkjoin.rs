//! Fork-join parenthesization via the generic engine over
//! [`ParenSpec`]: the two half triangles fork in parallel, the square
//! blocks fork their anti-diagonal quadrant pairs.
//!
//! Disjointness: sibling calls in one stage write disjoint tile sets
//! (half triangles share no tiles; `X11`/`X22` are disjoint quadrants),
//! and every cross-sibling read targets tiles finished in an earlier
//! stage — see the stage comments in `ParenSpec::expand`.

use recdp_forkjoin::ThreadPool;

use crate::engine::run_forkjoin;
use crate::table::Matrix;

use super::{check_sizes, spec::ParenSpec};

/// In-place fork-join R-DP parenthesization with base size `base` on
/// `pool`.
pub fn paren_forkjoin(table: &mut Matrix, dims: &[f64], base: usize, pool: &ThreadPool) {
    let n = table.n();
    check_sizes(n, base, dims);
    run_forkjoin(
        &ParenSpec::new(table.ptr(), dims, base),
        pool,
        1,
        None,
        None,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paren::loops::paren_loops;
    use crate::workloads::chain_dims;
    use recdp_forkjoin::ThreadPoolBuilder;

    #[test]
    fn forkjoin_matches_loops_bitwise() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        let n = 64;
        let dims = chain_dims(n, 21);
        let mut lo = Matrix::zeros(n);
        paren_loops(&mut lo, &dims);
        for base in [4usize, 16] {
            let mut fj = Matrix::zeros(n);
            paren_forkjoin(&mut fj, &dims, base, &pool);
            assert!(fj.bitwise_eq(&lo), "base={base}");
        }
    }
}
