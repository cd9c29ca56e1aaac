//! Serial R-DP LCS — the generic serial engine over [`LcsSpec`].

use crate::engine::run_serial;
use crate::table::Matrix;

use super::{check_sizes, spec::LcsSpec};

/// In-place serial R-DP LCS with base size `base`.
pub fn lcs_rdp(table: &mut Matrix, a: &[u8], b: &[u8], base: usize) {
    let n = table.n();
    check_sizes(n, base, a, b);
    run_serial(&LcsSpec::new(table.ptr(), a, b, base), None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::loops::lcs_loops;
    use crate::workloads::dna_sequence;

    #[test]
    fn rdp_matches_loops_bitwise() {
        for n in [16usize, 64] {
            for base in [2usize, 8, 16] {
                let a = dna_sequence(n, 123);
                let b = dna_sequence(n, 124);
                let mut lo = Matrix::zeros(n);
                lcs_loops(&mut lo, &a, &b);
                let mut re = Matrix::zeros(n);
                lcs_rdp(&mut re, &a, &b, base);
                assert!(re.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }
}
