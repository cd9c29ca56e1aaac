//! Parenthesization as a [`DpSpec`]: two recursive functions over the
//! upper-triangular tile space.
//!
//! * `A(d, s)` — the triangle of tiles `(I, J)`, `d <= I <= J < d+s`:
//!   splits into the two half triangles (parallel) then the square `B`
//!   bridging them.
//! * `B(r, c, s)` — the square block of tiles rows `[r, r+s)` x cols
//!   `[c, c+s)` (entirely above the diagonal): quadrants in the order
//!   `X21; (X11 || X22); X12`.
//!
//! Tile `(I, J)` reads the row-segment `(I, I..J)` and column-segment
//! `(I+1..=J, J)` — a dependency list that grows with the gap `J - I`,
//! the defining feature of the non-O(1)-dependency DP family. There are
//! `t(t+1)/2` tiles for `t = n / base`.

use std::sync::Arc;

use crate::spec::{Call, Decomposition, DpSpec, TileKey};
use crate::table::TablePtr;

use super::base_kernel;

/// Function index for the on-diagonal triangle recursion.
const A: usize = 0;
/// Function index for the off-diagonal square recursion.
const B: usize = 1;

/// The parenthesization recurrence specification over a shared table
/// and the chain dimensions.
#[derive(Clone)]
pub struct ParenSpec {
    t: TablePtr,
    dims: Arc<Vec<f64>>,
    m: usize,
    t_tiles: u32,
    decomp: Decomposition,
}

impl ParenSpec {
    /// Spec for an `n x n` table over `n + 1` chain dimensions with
    /// base-case (tile) size `m`; sizes must already be validated by
    /// `check_sizes`.
    pub fn new(t: TablePtr, dims: &[f64], m: usize) -> Self {
        let t_tiles = (t.n / m) as u32;
        ParenSpec {
            t,
            dims: Arc::new(dims.to_vec()),
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

impl DpSpec for ParenSpec {
    fn func_names(&self) -> &'static [&'static str] {
        &["parenA", "parenB"]
    }

    fn step_names(&self) -> &'static [&'static str] {
        &["parenA", "parenB"]
    }

    fn item_name(&self) -> &'static str {
        "paren_tiles"
    }

    fn t_tiles(&self) -> u32 {
        self.t_tiles
    }

    fn tile_extent(&self) -> TileKey {
        (self.t_tiles, self.t_tiles, 1)
    }

    fn root(&self) -> Call {
        Call::new(A, 0, 0, 0, self.t_tiles)
    }

    fn expand(&self, call: &Call) -> Vec<Vec<Call>> {
        let Call {
            func, i0, j0, s, ..
        } = *call;
        let rr = self.decomp.radix(s);
        let step = s / rr;
        match func {
            A => {
                let at = |p: u32| i0 + p * step;
                // The r diagonal sub-triangles share no cells and read
                // nothing from each other; then the bridging squares by
                // ascending block gap g — a gap-g square reads only
                // squares of gap < g (row/column segments) and the
                // finished triangles.
                let mut stages = Vec::with_capacity(rr as usize);
                stages.push(
                    (0..rr)
                        .map(|p| Call::new(A, at(p), at(p), 0, step))
                        .collect(),
                );
                for g in 1..rr {
                    stages.push(
                        (0..rr - g)
                            .map(|p| Call::new(B, at(p), at(p + g), 0, step))
                            .collect(),
                    );
                }
                stages
            }
            _ => {
                // Square block: sub-block (a, b) reads (a, b' < b) via
                // row segments and (a' > a, b) via column segments, so
                // anti-diagonal stages indexed dg = b + (rr-1-a) (the
                // bottom-left corner first) sequence every within-block
                // dependency. At r = 2 this is `X21; (X11, X22); X12`.
                (0..2 * rr - 1)
                    .map(|dg| {
                        (0..rr)
                            .filter_map(|a| {
                                let b = (dg + a).checked_sub(rr - 1)?;
                                (b < rr)
                                    .then(|| Call::new(B, i0 + a * step, j0 + b * step, 0, step))
                            })
                            .collect()
                    })
                    .collect()
            }
        }
    }

    fn tile(&self, call: &Call) -> TileKey {
        (call.i0, call.j0, 0)
    }

    fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        // Both ranges are empty for the self-contained diagonal tiles.
        let (i, j, _) = tile;
        let row = (i..j).map(move |k| (i, k, 0)); // row segment, split left parts
        let column = (i + 1..=j).map(move |k| (k, j, 0)); // column segment, split right parts
        row.chain(column)
    }

    fn manual_calls(&self) -> Vec<Call> {
        let t = self.t_tiles;
        let mut calls = Vec::with_capacity((t * (t + 1) / 2) as usize);
        // Gap-major: all tiles of gap g are satisfied once gaps < g are
        // done, mirroring the length-major loop order.
        for gap in 0..t {
            for i in 0..t - gap {
                let func = if gap == 0 { A } else { B };
                calls.push(Call::new(func, i, i + gap, 0, 1));
            }
        }
        calls
    }

    unsafe fn run_tile(&self, tile: TileKey) {
        let (i, j, _) = tile;
        let m = self.m;
        base_kernel(self.t, &self.dims, i as usize * m, j as usize * m, m);
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
    use crate::workloads::chain_dims;

    fn spec(n: usize, m: usize) -> (Matrix, ParenSpec) {
        let mut t = Matrix::zeros(n);
        let dims = chain_dims(n, 1);
        let s = ParenSpec::new(t.ptr(), &dims, m);
        (t, s)
    }

    #[test]
    fn task_space_is_the_upper_triangle() {
        let (_t, spec) = spec(64, 8);
        let calls = spec.manual_calls();
        assert_eq!(calls.len(), 36, "t(t+1)/2 for t = 8");
        assert!(calls.iter().all(|c| c.i0 <= c.j0 && c.s == 1));
        assert!(calls.iter().all(|c| (c.func == 0) == (c.i0 == c.j0)));
    }

    #[test]
    fn reads_grow_with_the_gap() {
        let (_t, spec) = spec(64, 8);
        assert_eq!(spec.reads((3, 3, 0)).count(), 0);
        assert_eq!(
            spec.reads((0, 2, 0)).collect::<Vec<_>>(),
            vec![(0, 0, 0), (0, 1, 0), (1, 2, 0), (2, 2, 0)]
        );
        assert_eq!(spec.reads((1, 5, 0)).count(), 2 * 4);
    }

    #[test]
    fn expansion_stays_above_the_diagonal() {
        let (_t, spec) = spec(64, 8);
        let mut stack = vec![spec.root()];
        while let Some(call) = stack.pop() {
            if call.s == 1 {
                assert!(call.i0 <= call.j0);
                continue;
            }
            for stage in spec.expand(&call) {
                stack.extend(stage);
            }
        }
    }

    #[test]
    fn wider_decompositions_are_bitwise_identical_to_binary() {
        use crate::engine::run_serial;
        let n = 64;
        let dims = chain_dims(n, 9);
        let mut reference = Matrix::zeros(n);
        run_serial(&ParenSpec::new(reference.ptr(), &dims, 4), None);
        for r in [4u32, 8, 16] {
            let mut m = Matrix::zeros(n);
            let s = ParenSpec::new(m.ptr(), &dims, 4)
                .with_decomposition(crate::spec::Decomposition::new(r));
            run_serial(&s, None);
            assert!(m.bitwise_eq(&reference), "r={r}");
        }
    }

    #[test]
    fn rway_expansion_covers_the_upper_triangle_once() {
        let (_t, sp) = spec(64, 8);
        for r in [2u32, 4, 8] {
            let sp = sp
                .clone()
                .with_decomposition(crate::spec::Decomposition::new(r));
            let mut seen = std::collections::HashMap::new();
            let mut stack = vec![sp.root()];
            while let Some(call) = stack.pop() {
                if call.s == 1 {
                    *seen.entry(sp.tile(&call)).or_insert(0u32) += 1;
                } else {
                    for stage in sp.expand(&call) {
                        stack.extend(stage);
                    }
                }
            }
            assert_eq!(seen.len(), 36, "r={r}");
            assert!(seen.values().all(|&c| c == 1), "r={r}");
        }
    }
}
