//! The DP table: a row-major square matrix plus the raw-pointer view
//! that lets disjoint tiles be updated from parallel tasks.

/// A square row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero-filled `n x n` matrix.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "empty matrix");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw element slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A raw-pointer view for parallel tile updates. The caller promises
    /// that concurrent tasks write disjoint element sets (the R-DP tile
    /// decompositions guarantee this; see the module docs of
    /// `ge::forkjoin`).
    pub fn ptr(&mut self) -> TablePtr {
        TablePtr {
            ptr: self.data.as_mut_ptr(),
            n: self.n,
        }
    }

    /// Largest absolute element-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every element is bitwise identical to `other`'s.
    pub fn bitwise_eq(&self, other: &Matrix) -> bool {
        self.n == other.n
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// FNV-1a digest over the side length and every element's bit
    /// pattern. Two matrices digest equal iff [`Matrix::bitwise_eq`]
    /// (up to hash collision); the schedule-exploration oracles compare
    /// digests instead of keeping a full table per explored schedule.
    pub fn bit_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.n as u64);
        for v in &self.data {
            mix(v.to_bits());
        }
        h
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.n && j < self.n);
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.n && j < self.n);
        &mut self.data[i * self.n + j]
    }
}

/// An unchecked, shareable view of a [`Matrix`] used by parallel kernels.
///
/// # Safety discipline
/// `TablePtr` is `Copy + Send + Sync`; soundness rests on the kernel
/// decompositions: at any instant, tasks running concurrently write
/// disjoint tiles, and a task only reads tiles whose writers completed
/// before it started (enforced by joins in the fork-join variants and by
/// item dependencies in the CnC variants). All access methods are
/// `unsafe` to keep that obligation visible at every call site.
#[derive(Debug, Clone, Copy)]
pub struct TablePtr {
    ptr: *mut f64,
    /// Side length of the viewed matrix.
    pub n: usize,
}

// SAFETY: see the type-level discipline above; the pointer itself is
// valid for the lifetime of the borrow that created it, and callers keep
// the owning Matrix alive across the parallel region (the kernel entry
// points take `&mut Matrix`).
unsafe impl Send for TablePtr {}
unsafe impl Sync for TablePtr {}

impl TablePtr {
    /// Reads element `(i, j)`.
    ///
    /// # Safety
    /// `(i, j)` must be in range, and no concurrent task may be writing
    /// that element.
    #[inline]
    pub unsafe fn get(self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        *self.ptr.add(i * self.n + j)
    }

    /// Writes element `(i, j)`.
    ///
    /// # Safety
    /// `(i, j)` must be in range, and no concurrent task may be reading
    /// or writing that element.
    #[inline]
    pub unsafe fn set(self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n);
        *self.ptr.add(i * self.n + j) = v;
    }

    /// Raw pointer to the start of row `i`, for vectorized kernels that
    /// load/store several contiguous elements at once.
    ///
    /// # Safety
    /// `i` must be in range; every element accessed through the
    /// returned pointer carries the same obligations as [`TablePtr::get`]
    /// / [`TablePtr::set`] on that element.
    #[inline]
    pub unsafe fn row_ptr(self, i: usize) -> *mut f64 {
        debug_assert!(i < self.n);
        self.ptr.add(i * self.n)
    }
}

/// The rectangular table region one base tile writes — the unit of the
/// integrity layer's checksum/snapshot/repair cycle.
///
/// A [`crate::DpSpec`] names its region per tile via
/// `DpSpec::tile_region`; the integrity machinery digests it at write
/// time, snapshots its pre-image for repair, and flips bits in it when a
/// corruption plan fires. All element access carries the same safety
/// discipline as [`TablePtr`]: the engines only touch a region while its
/// tile task holds exclusive write access.
#[derive(Debug, Clone, Copy)]
pub struct TileRegion {
    table: TablePtr,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
}

/// Independent mixing chains of [`TileRegion::digest`].
const DIGEST_LANES: usize = 4;

impl TileRegion {
    /// The `rows x cols` region with top-left corner `(row0, col0)`;
    /// must lie inside the table.
    pub fn new(table: TablePtr, row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0 && row0 + rows <= table.n && col0 + cols <= table.n,
            "tile region [{row0}+{rows}, {col0}+{cols}) escapes the {n}x{n} table",
            n = table.n
        );
        TileRegion {
            table,
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// Number of cells in the region.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Digest over the region geometry and every cell's bit pattern: an
    /// exact per-tile checksum under bitwise determinism — two digests
    /// agree iff the regions are bit-identical (up to hash collision).
    ///
    /// Word-at-a-time over `DIGEST_LANES` independent lanes (cell `n`,
    /// row-major, goes to lane `n % DIGEST_LANES`), so the multiplies of
    /// consecutive cells overlap instead of forming one serial chain.
    /// Mixing a word `x` into a lane `h` is `(h ^ x) * K` rotated, and
    /// the lanes are folded into the result by the same step: each is a
    /// bijection of `x` for fixed `h` and of `h` for fixed `x`, so
    /// changing one cell — by any bits at all, hence by any single bit
    /// — changes its lane after that cell, the lane's final value, and
    /// the digest: a single-cell corruption never collides.
    ///
    /// # Safety
    /// No concurrent task may be writing any cell of the region.
    pub unsafe fn digest(&self) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
        }
        let mut lanes = [
            mix(0xcbf2_9ce4_8422_2325, self.rows as u64),
            mix(0x8422_2325_cbf2_9ce4, self.cols as u64),
            0x0000_0100_0000_01b3,
            0x01b3_0000_0100_0000,
        ];
        let mut n = 0;
        for i in 0..self.rows {
            let row = self.table.row_ptr(self.row0 + i).add(self.col0);
            for j in 0..self.cols {
                let lane = &mut lanes[n % DIGEST_LANES];
                *lane = mix(*lane, (*row.add(j)).to_bits());
                n += 1;
            }
        }
        let h = lanes.into_iter().fold(self.cells() as u64, mix);
        h ^ (h >> 32)
    }

    /// Copies the region's current contents out (the pre-image a repair
    /// restores before re-running the tile kernel).
    ///
    /// # Safety
    /// No concurrent task may be writing any cell of the region.
    pub unsafe fn snapshot(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// [`TileRegion::snapshot`] into a buffer the caller reuses.
    ///
    /// # Safety
    /// As [`TileRegion::snapshot`].
    pub unsafe fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.cells());
        for i in 0..self.rows {
            let row = self.table.row_ptr(self.row0 + i).add(self.col0);
            out.extend_from_slice(std::slice::from_raw_parts(row, self.cols));
        }
    }

    /// Writes a snapshot taken by [`TileRegion::snapshot`] back.
    ///
    /// # Safety
    /// Exclusive write access to the region; `saved` must come from a
    /// snapshot of the same region.
    pub unsafe fn restore(&self, saved: &[f64]) {
        assert_eq!(saved.len(), self.cells(), "snapshot geometry mismatch");
        let mut it = saved.iter();
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.table
                    .set(self.row0 + i, self.col0 + j, *it.next().unwrap());
            }
        }
    }

    /// Flips bit `bit % 64` of cell `cell % cells()` (row-major) — the
    /// injected silent-corruption primitive.
    ///
    /// # Safety
    /// Exclusive write access to the region.
    pub unsafe fn flip_bit(&self, cell: u64, bit: u32) {
        let idx = (cell % self.cells() as u64) as usize;
        let (i, j) = (self.row0 + idx / self.cols, self.col0 + idx % self.cols);
        let v = self.table.get(i, j);
        self.table
            .set(i, j, f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let mut m = Matrix::zeros(4);
        m[(1, 2)] = 7.5;
        assert_eq!(m[(1, 2)], 7.5);
        assert_eq!(m.as_slice()[4 + 2], 7.5);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.n(), 3);
    }

    #[test]
    fn diff_and_bitwise() {
        let a = Matrix::from_fn(3, |i, j| (i + j) as f64);
        let mut b = a.clone();
        assert!(a.bitwise_eq(&b));
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b[(0, 0)] += 0.5;
        assert!(!a.bitwise_eq(&b));
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn ptr_view_reads_and_writes() {
        let mut m = Matrix::zeros(2);
        let p = m.ptr();
        unsafe {
            p.set(0, 1, 3.0);
            assert_eq!(p.get(0, 1), 3.0);
        }
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn zero_size_rejected() {
        let _ = Matrix::zeros(0);
    }

    #[test]
    fn region_digest_snapshot_restore_roundtrip() {
        let mut m = Matrix::from_fn(8, |i, j| (i * 8 + j) as f64);
        let region = TileRegion::new(m.ptr(), 2, 4, 3, 2);
        unsafe {
            assert_eq!(region.cells(), 6);
            let d0 = region.digest();
            let pre = region.snapshot();
            assert_eq!(pre, vec![20.0, 21.0, 28.0, 29.0, 36.0, 37.0]);
            region.flip_bit(0, 3);
            assert_ne!(region.digest(), d0, "a flipped bit must change the digest");
            region.restore(&pre);
            assert_eq!(region.digest(), d0, "restore must be exact");
        }
        assert_eq!(m[(2, 4)], 20.0);
    }

    #[test]
    fn every_single_bit_flip_of_every_cell_changes_the_digest() {
        // 4x4 fills every lane four times; 3x2 leaves lanes uneven and
        // sits off the table's origin.
        for (row0, col0, rows, cols) in [(0, 0, 4, 4), (1, 3, 3, 2)] {
            let mut m = Matrix::from_fn(6, |i, j| (i * 6 + j) as f64 - 7.25);
            let region = TileRegion::new(m.ptr(), row0, col0, rows, cols);
            unsafe {
                let clean = region.digest();
                for cell in 0..region.cells() as u64 {
                    for bit in 0..64 {
                        region.flip_bit(cell, bit);
                        assert_ne!(region.digest(), clean, "cell {cell} bit {bit}");
                        region.flip_bit(cell, bit);
                    }
                }
                assert_eq!(region.digest(), clean);
            }
        }
    }

    #[test]
    fn region_flip_wraps_selectors() {
        // Cell 4 wraps to cell 0 and bit 64 to bit 0 in a 2x2 region.
        let mut m1 = Matrix::zeros(4);
        let mut m2 = Matrix::zeros(4);
        unsafe {
            let a = TileRegion::new(m1.ptr(), 0, 0, 2, 2);
            let b = TileRegion::new(m2.ptr(), 0, 0, 2, 2);
            a.flip_bit(4, 64);
            b.flip_bit(0, 0);
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn disjoint_regions_share_a_table() {
        let mut m = Matrix::from_fn(4, |i, j| (i + j) as f64);
        let p = m.ptr();
        let a = TileRegion::new(p, 0, 0, 2, 2);
        let b = TileRegion::new(p, 2, 2, 2, 2);
        unsafe {
            assert_ne!(a.digest(), b.digest());
            let d = b.digest();
            a.flip_bit(1, 1);
            assert_eq!(b.digest(), d, "flipping a must not touch b");
        }
    }

    #[test]
    #[should_panic(expected = "escapes")]
    fn out_of_range_region_rejected() {
        let mut m = Matrix::zeros(4);
        let _ = TileRegion::new(m.ptr(), 2, 2, 3, 1);
    }
}
