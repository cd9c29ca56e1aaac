//! LCS as a [`DpSpec`]: the same wavefront dependency structure as SW
//! (north / west / north-west), so the spec shares the r-way wavefront
//! expansion and differs from `SwSpec` only in its tile kernel.

use std::sync::Arc;

use crate::spec::{wavefront_expand, Call, Decomposition, DpSpec, TileKey};
use crate::table::TablePtr;

use super::base_kernel;

/// The LCS recurrence specification over a shared table and the two
/// input sequences.
#[derive(Clone)]
pub struct LcsSpec {
    t: TablePtr,
    a: Arc<Vec<u8>>,
    b: Arc<Vec<u8>>,
    m: usize,
    t_tiles: u32,
    decomp: Decomposition,
}

impl LcsSpec {
    /// Spec for an `n x n` table over sequences `a`, `b` with base-case
    /// (tile) size `m`; sizes must already be validated by
    /// `check_sizes`.
    pub fn new(t: TablePtr, a: &[u8], b: &[u8], m: usize) -> Self {
        let t_tiles = (t.n / m) as u32;
        LcsSpec {
            t,
            a: Arc::new(a.to_vec()),
            b: Arc::new(b.to_vec()),
            m,
            t_tiles,
            decomp: Decomposition::BINARY,
        }
    }

    /// The same spec with decomposition width `r` (default 2-way).
    pub fn with_decomposition(mut self, decomp: Decomposition) -> Self {
        self.decomp = decomp;
        self
    }
}

impl DpSpec for LcsSpec {
    fn func_names(&self) -> &'static [&'static str] {
        &["lcs_tags"]
    }

    fn step_names(&self) -> &'static [&'static str] {
        &["lcs_step"]
    }

    fn item_name(&self) -> &'static str {
        "lcs_tiles"
    }

    fn t_tiles(&self) -> u32 {
        self.t_tiles
    }

    fn tile_extent(&self) -> TileKey {
        (self.t_tiles, self.t_tiles, 1)
    }

    fn root(&self) -> Call {
        Call::new(0, 0, 0, 0, self.t_tiles)
    }

    fn expand(&self, call: &Call) -> Vec<Vec<Call>> {
        let Call { i0, j0, s, .. } = *call;
        wavefront_expand(0, i0, j0, s, self.decomp.radix(s))
    }

    fn tile(&self, call: &Call) -> TileKey {
        (call.i0, call.j0, 0)
    }

    fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        let (i, j, _) = tile;
        [
            (i > 0).then(|| (i - 1, j, 0)),              // north
            (j > 0).then(|| (i, j - 1, 0)),              // west
            (i > 0 && j > 0).then(|| (i - 1, j - 1, 0)), // north-west corner
        ]
        .into_iter()
        .flatten()
    }

    fn manual_calls(&self) -> Vec<Call> {
        let t = self.t_tiles;
        (0..t)
            .flat_map(|i| (0..t).map(move |j| Call::new(0, i, j, 0, 1)))
            .collect()
    }

    unsafe fn run_tile(&self, tile: TileKey) {
        let (i, j, _) = tile;
        let m = self.m;
        base_kernel(self.t, &self.a, &self.b, i as usize * m, j as usize * m, m);
    }

    fn tile_region(&self, tile: TileKey) -> Option<crate::table::TileRegion> {
        let (i, j, _) = tile;
        let m = self.m;
        Some(crate::table::TileRegion::new(
            self.t,
            i as usize * m,
            j as usize * m,
            m,
            m,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Matrix;
    use crate::workloads::dna_sequence;

    #[test]
    fn wavefront_reads_match_sw() {
        let mut t = Matrix::zeros(32);
        let a = dna_sequence(32, 1);
        let b = dna_sequence(32, 2);
        let spec = LcsSpec::new(t.ptr(), &a, &b, 8);
        assert_eq!(spec.reads((0, 0, 0)).count(), 0);
        assert_eq!(
            spec.reads((2, 3, 0)).collect::<Vec<_>>(),
            vec![(1, 3, 0), (2, 2, 0), (1, 2, 0)]
        );
        assert_eq!(spec.manual_calls().len(), 16);
    }

    #[test]
    fn wider_decompositions_are_bitwise_identical_to_binary() {
        use crate::engine::run_serial;
        let n = 64;
        let a = dna_sequence(n, 5);
        let b = dna_sequence(n, 6);
        let mut reference = Matrix::zeros(n);
        run_serial(&LcsSpec::new(reference.ptr(), &a, &b, 4), None);
        for r in [4u32, 8, 16] {
            let mut m = Matrix::zeros(n);
            let spec = LcsSpec::new(m.ptr(), &a, &b, 4).with_decomposition(Decomposition::new(r));
            run_serial(&spec, None);
            assert!(m.bitwise_eq(&reference), "r={r}");
        }
    }
}
