//! Serial 2-way recursive divide-and-conquer GE (Fig. 2's recursion,
//! executed depth-first on one thread) — the generic serial engine over
//! [`GeSpec`].

use crate::engine::run_serial;
use crate::table::Matrix;

use super::{check_rdp_sizes, spec::GeSpec};

/// In-place serial R-DP GE with base-case size `base`.
pub fn ge_rdp(mat: &mut Matrix, base: usize) {
    let n = mat.n();
    check_rdp_sizes(n, base);
    run_serial(&GeSpec::new(mat.ptr(), base), None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_loops;
    use crate::workloads::ge_matrix;

    #[test]
    fn rdp_matches_loops_bitwise() {
        for n in [8usize, 32, 64] {
            for base in [1usize, 4, 8] {
                if base > n {
                    continue;
                }
                let m0 = ge_matrix(n, 77);
                let mut lo = m0.clone();
                ge_loops(&mut lo);
                let mut re = m0.clone();
                ge_rdp(&mut re, base);
                assert!(re.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn base_equal_to_n_degenerates_to_loops() {
        let m0 = ge_matrix(16, 3);
        let mut lo = m0.clone();
        ge_loops(&mut lo);
        let mut re = m0.clone();
        ge_rdp(&mut re, 16);
        assert!(re.bitwise_eq(&lo));
    }
}
