//! Serial 2-way R-DP SW: quadrant recursion `X00; (X01, X10); X11` —
//! the generic serial engine over [`SwSpec`].

use crate::engine::run_serial;
use crate::table::Matrix;

use super::{check_sizes, spec::SwSpec};

/// In-place serial R-DP SW with base size `base`.
pub fn sw_rdp(table: &mut Matrix, a: &[u8], b: &[u8], base: usize) {
    let n = table.n();
    check_sizes(n, base, a, b);
    run_serial(&SwSpec::new(table.ptr(), a, b, base), None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::loops::sw_loops;
    use crate::workloads::dna_sequence;

    #[test]
    fn rdp_matches_loops_bitwise() {
        for n in [16usize, 64] {
            for base in [2usize, 8, 16] {
                let a = dna_sequence(n, 10);
                let b = dna_sequence(n, 20);
                let mut lo = Matrix::zeros(n);
                sw_loops(&mut lo, &a, &b);
                let mut re = Matrix::zeros(n);
                sw_rdp(&mut re, &a, &b, base);
                assert!(re.bitwise_eq(&lo), "n={n} base={base}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length n")]
    fn wrong_sequence_length_rejected() {
        let mut t = Matrix::zeros(8);
        sw_rdp(&mut t, &[b'A'; 4], &[b'C'; 8], 4);
    }
}
