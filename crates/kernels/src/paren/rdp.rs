//! Serial 2-way R-DP parenthesization — the generic serial engine over
//! [`ParenSpec`].

use crate::engine::run_serial;
use crate::table::Matrix;

use super::{check_sizes, spec::ParenSpec};

/// In-place serial R-DP parenthesization with base size `base`.
pub fn paren_rdp(table: &mut Matrix, dims: &[f64], base: usize) {
    let n = table.n();
    check_sizes(n, base, dims);
    run_serial(&ParenSpec::new(table.ptr(), dims, base), None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paren::loops::paren_loops;
    use crate::workloads::chain_dims;

    #[test]
    fn rdp_matches_loops_bitwise() {
        for n in [16usize, 64] {
            for base in [2usize, 8, 16] {
                let dims = chain_dims(n, 123);
                let mut lo = Matrix::zeros(n);
                paren_loops(&mut lo, &dims);
                let mut re = Matrix::zeros(n);
                paren_rdp(&mut re, &dims, base);
                assert!(re.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn base_equal_to_n_degenerates_to_one_tile() {
        let n = 32;
        let dims = chain_dims(n, 4);
        let mut lo = Matrix::zeros(n);
        paren_loops(&mut lo, &dims);
        let mut re = Matrix::zeros(n);
        paren_rdp(&mut re, &dims, n);
        assert!(re.bitwise_eq(&lo));
    }

    #[test]
    #[should_panic(expected = "length n + 1")]
    fn wrong_dims_length_rejected() {
        let mut t = Matrix::zeros(8);
        paren_rdp(&mut t, &[1.0; 8], 4);
    }
}
