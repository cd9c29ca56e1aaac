//! Fork-join GE on `recdp-forkjoin` — the Rust analogue of the paper's
//! Listing 3 (`#pragma omp task` + `taskwait`), via the generic
//! fork-join engine over [`GeSpec`].
//!
//! ## Disjointness argument (why the `TablePtr` sharing is sound)
//!
//! At every fork point the stage's parallel calls write disjoint element
//! regions and read only regions whose writers completed before the fork
//! (sequenced by the stage joins):
//!
//! * in `A`: `B` writes `rows K x cols J1` while `C` writes
//!   `rows I1 x cols K` — disjoint; both read only the diagonal block
//!   finished by the prior `A` call;
//! * in `B`/`C`: the parallel pairs split the column/row range;
//! * in `D`: the four quadrants are disjoint and read panels finished
//!   before `D` was called.
//!
//! The joins that sequence the stages are exactly the artificial
//! dependencies of Fig. 3.

use recdp_forkjoin::ThreadPool;

use crate::engine::run_forkjoin;
use crate::table::Matrix;

use super::{check_rdp_sizes, spec::GeSpec};

/// In-place fork-join R-DP GE with base-case size `base`, executed on
/// `pool`.
pub fn ge_forkjoin(mat: &mut Matrix, base: usize, pool: &ThreadPool) {
    let n = mat.n();
    check_rdp_sizes(n, base);
    run_forkjoin(&GeSpec::new(mat.ptr(), base), pool, 1, None, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_loops;
    use crate::workloads::ge_matrix;
    use recdp_forkjoin::ThreadPoolBuilder;

    #[test]
    fn forkjoin_matches_loops_bitwise() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build();
        for n in [16usize, 64] {
            for base in [4usize, 16] {
                let m0 = ge_matrix(n, 21);
                let mut lo = m0.clone();
                ge_loops(&mut lo);
                let mut fj = m0.clone();
                ge_forkjoin(&mut fj, base, &pool);
                assert!(fj.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build();
        let m0 = ge_matrix(64, 4);
        let mut first = m0.clone();
        ge_forkjoin(&mut first, 8, &pool);
        for _ in 0..3 {
            let mut again = m0.clone();
            ge_forkjoin(&mut again, 8, &pool);
            assert!(
                again.bitwise_eq(&first),
                "steal interleavings must not matter"
            );
        }
    }
}
