//! Serial 2-way R-DP FW-APSP (Chowdhury-Ramachandran recursion) — the
//! generic serial engine over [`FwSpec`].
//!
//! Every element sees its pivots in strictly ascending order (the
//! property that makes all variants bitwise-identical to the loop
//! version).

use crate::engine::run_serial;
use crate::table::Matrix;

use super::{check_sizes, spec::FwSpec};

/// In-place serial R-DP FW with base size `base`.
pub fn fw_rdp(dist: &mut Matrix, base: usize) {
    let n = dist.n();
    check_sizes(n, base);
    run_serial(&FwSpec::new(dist.ptr(), base), None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw::fw_loops;
    use crate::workloads::fw_matrix;

    #[test]
    fn rdp_matches_loops_bitwise() {
        for n in [8usize, 32, 64] {
            for base in [1usize, 4, 8] {
                let m0 = fw_matrix(n, 17, 0.35);
                let mut lo = m0.clone();
                fw_loops(&mut lo);
                let mut re = m0.clone();
                fw_rdp(&mut re, base);
                assert!(re.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn dense_graph_case() {
        let m0 = fw_matrix(32, 23, 1.0);
        let mut lo = m0.clone();
        fw_loops(&mut lo);
        let mut re = m0.clone();
        fw_rdp(&mut re, 8);
        assert!(re.bitwise_eq(&lo));
    }
}
