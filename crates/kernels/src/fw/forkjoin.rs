//! Fork-join FW-APSP: the R-DP recursion with joins at each stage
//! boundary, via the generic fork-join engine over [`FwSpec`].
//!
//! Disjointness: within each stage the parallel calls update disjoint
//! rectangles (`B` on the row panel vs `C` on the column panel; the four
//! quadrants of `D`); reads target tiles finished in earlier stages.
//! The diagonal `A` calls are self-contained (standard in-place FW
//! invariant).

use recdp_forkjoin::ThreadPool;

use crate::engine::run_forkjoin;
use crate::table::Matrix;

use super::{check_sizes, spec::FwSpec};

/// In-place fork-join R-DP FW with base size `base` on `pool`.
pub fn fw_forkjoin(dist: &mut Matrix, base: usize, pool: &ThreadPool) {
    let n = dist.n();
    check_sizes(n, base);
    run_forkjoin(&FwSpec::new(dist.ptr(), base), pool, 1, None, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw::fw_loops;
    use crate::workloads::fw_matrix;
    use recdp_forkjoin::ThreadPoolBuilder;

    #[test]
    fn forkjoin_matches_loops_bitwise() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        for n in [16usize, 64] {
            for base in [4usize, 16] {
                let m0 = fw_matrix(n, 41, 0.4);
                let mut lo = m0.clone();
                fw_loops(&mut lo);
                let mut fj = m0.clone();
                fw_forkjoin(&mut fj, base, &pool);
                assert!(fj.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }
}
