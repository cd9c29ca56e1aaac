//! FW-APSP as a [`DpSpec`]: the Chowdhury-Ramachandran A/B/C/D
//! recursion over the full `(k, i, j)` task cube.
//!
//! Unlike GE, *every* tile is updated at every pivot step, so each
//! function recurses into both pivot halves (8 sub-calls) and the `A`
//! expansion revisits the already-eliminated quadrant (the
//! `B/C/D`-at-`k0+h` tail).

use crate::spec::{Call, Decomposition, DpSpec, TileKey};
use crate::table::TablePtr;

use super::base_kernel;

const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const D: usize = 3;

/// The FW recurrence specification over a shared distance table.
#[derive(Clone, Copy)]
pub struct FwSpec {
    t: TablePtr,
    m: usize,
    t_tiles: u32,
    decomp: Decomposition,
}

impl FwSpec {
    /// Spec for an `n x n` table with base-case (tile) size `m`; sizes
    /// must already be validated by `check_sizes`.
    pub fn new(t: TablePtr, m: usize) -> Self {
        let t_tiles = (t.n / m) as u32;
        FwSpec {
            t,
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

impl DpSpec for FwSpec {
    fn func_names(&self) -> &'static [&'static str] {
        &["fwA", "fwB", "fwC", "fwD"]
    }

    fn step_names(&self) -> &'static [&'static str] {
        &["fwA", "fwB", "fwC", "fwD"]
    }

    fn item_name(&self) -> &'static str {
        "fw_tiles"
    }

    fn t_tiles(&self) -> u32 {
        self.t_tiles
    }

    fn root(&self) -> Call {
        Call::new(A, 0, 0, 0, self.t_tiles)
    }

    fn expand(&self, call: &Call) -> Vec<Vec<Call>> {
        let Call { i0, j0, k0, s, .. } = *call;
        let rr = self.decomp.radix(s);
        let step = s / rr;
        match call.func {
            A => {
                // r diagonal rounds; unlike GE every off-pivot block is
                // updated in *every* round (the revisit of the
                // already-eliminated quadrant generalises to all p != q).
                let at = |p: u32| k0 + p * step;
                let mut stages = Vec::with_capacity(3 * rr as usize);
                for q in 0..rr {
                    let kq = at(q);
                    stages.push(vec![Call::new(A, kq, kq, kq, step)]);
                    let panels: Vec<Call> = (0..rr)
                        .filter(|&p| p != q)
                        .map(|p| Call::new(B, kq, at(p), kq, step))
                        .chain(
                            (0..rr)
                                .filter(|&p| p != q)
                                .map(|p| Call::new(C, at(p), kq, kq, step)),
                        )
                        .collect();
                    if !panels.is_empty() {
                        stages.push(panels);
                    }
                    let trailing: Vec<Call> = (0..rr)
                        .filter(|&p| p != q)
                        .flat_map(|p| {
                            (0..rr)
                                .filter(move |&p2| p2 != q)
                                .map(move |p2| Call::new(D, at(p), at(p2), kq, step))
                        })
                        .collect();
                    if !trailing.is_empty() {
                        stages.push(trailing);
                    }
                }
                stages
            }
            B => {
                // Row panel: all rows are updated at every pivot round.
                let mut stages = Vec::with_capacity(2 * rr as usize);
                for q in 0..rr {
                    let kq = k0 + q * step;
                    stages.push(
                        (0..rr)
                            .map(|p| Call::new(B, kq, j0 + p * step, kq, step))
                            .collect(),
                    );
                    let updates: Vec<Call> = (0..rr)
                        .filter(|&p| p != q)
                        .flat_map(|p| {
                            (0..rr).map(move |p2| {
                                Call::new(D, k0 + p * step, j0 + p2 * step, kq, step)
                            })
                        })
                        .collect();
                    if !updates.is_empty() {
                        stages.push(updates);
                    }
                }
                stages
            }
            C => {
                // Column panel: mirror of B.
                let mut stages = Vec::with_capacity(2 * rr as usize);
                for q in 0..rr {
                    let kq = k0 + q * step;
                    stages.push(
                        (0..rr)
                            .map(|p| Call::new(C, i0 + p * step, kq, kq, step))
                            .collect(),
                    );
                    let updates: Vec<Call> = (0..rr)
                        .flat_map(|p| {
                            (0..rr).filter(move |&p2| p2 != q).map(move |p2| {
                                Call::new(D, i0 + p * step, k0 + p2 * step, kq, step)
                            })
                        })
                        .collect();
                    if !updates.is_empty() {
                        stages.push(updates);
                    }
                }
                stages
            }
            D => (0..rr)
                .map(|q| {
                    let kq = k0 + q * step;
                    (0..rr)
                        .flat_map(|p| {
                            (0..rr).map(move |p2| {
                                Call::new(D, i0 + p * step, j0 + p2 * step, kq, step)
                            })
                        })
                        .collect()
                })
                .collect(),
            f => unreachable!("FW has no function {f}"),
        }
    }

    fn tile(&self, call: &Call) -> TileKey {
        (call.k0, call.i0, call.j0)
    }

    fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        let (k, i, j) = tile;
        [
            (k > 0).then(|| (k - 1, i, j)),          // write-write chain
            (i != k || j != k).then_some((k, k, k)), // pivot diagonal tile
            (i != k).then_some((k, k, j)),           // pivot row panel
            (j != k).then_some((k, i, k)),           // pivot column panel
        ]
        .into_iter()
        .flatten()
    }

    fn manual_calls(&self) -> Vec<Call> {
        let t = self.t_tiles;
        let mut calls = Vec::new();
        for k in 0..t {
            for i in 0..t {
                for j in 0..t {
                    let func = match (i == k, j == k) {
                        (true, true) => A,
                        (true, false) => B,
                        (false, true) => C,
                        (false, false) => D,
                    };
                    calls.push(Call::new(func, i, j, k, 1));
                }
            }
        }
        calls
    }

    unsafe fn run_tile(&self, tile: TileKey) {
        let (k, i, j) = tile;
        let m = self.m;
        base_kernel(self.t, i as usize * m, j as usize * m, k as usize * m, m);
    }

    fn tile_region(&self, tile: TileKey) -> Option<crate::table::TileRegion> {
        // Tile (k, i, j) relaxes block (i, j) in place; the region is
        // independent of the pivot k (the write-write chain).
        let (_, i, j) = tile;
        let m = self.m;
        Some(crate::table::TileRegion::new(
            self.t,
            i as usize * m,
            j as usize * m,
            m,
            m,
        ))
    }

    fn anti_deps(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        // Tile (k, i, j) overwrites block (i, j). At round k-1 that
        // block was read beyond its chain successor only if it served
        // as the pivot diagonal (i = j = k-1), the pivot row panel
        // (i = k-1) or the pivot column panel (j = k-1); the readers
        // are the round-(k-1) tiles that relax against it. D blocks
        // (i, j != k-1) are read only by the chain, which `reads`
        // already orders.
        let (k, i, j) = tile;
        let (p, t) = (k.wrapping_sub(1), self.t_tiles);
        // The readers' rows and columns; the chain predecessor (p, i, j)
        // lies in every non-empty product and is left out.
        let (rows, cols) = match (k > 0, i == p, j == p) {
            // Old pivot diagonal: every round-p tile read it.
            (true, true, true) => (0..t, 0..t),
            // Old pivot row panel (p, j): read down column j.
            (true, true, false) => (0..t, j..j + 1),
            // Old pivot column panel (i, p): read across row i.
            (true, false, true) => (i..i + 1, 0..t),
            _ => (0..0, 0..0),
        };
        rows.flat_map(move |a| cols.clone().map(move |b| (p, a, b)))
            .filter(move |&r| r != (p, i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::fw_matrix;

    #[test]
    fn task_space_is_the_full_cube() {
        let mut m = fw_matrix(32, 1, 0.4);
        let spec = FwSpec::new(m.ptr(), 8);
        assert_eq!(spec.manual_calls().len(), 4 * 4 * 4);
    }

    #[test]
    fn wider_decompositions_are_bitwise_identical_to_binary() {
        use crate::engine::run_serial;
        let n = 64;
        let base = 4;
        let mut reference = fw_matrix(n, 7, 0.4);
        run_serial(&FwSpec::new(reference.ptr(), base), None);
        for r in [4u32, 8, 16] {
            let mut m = fw_matrix(n, 7, 0.4);
            let spec = FwSpec::new(m.ptr(), base).with_decomposition(Decomposition::new(r));
            run_serial(&spec, None);
            assert!(m.bitwise_eq(&reference), "r={r}");
        }
    }

    #[test]
    fn rway_expansion_covers_the_full_cube_once() {
        let mut m = fw_matrix(64, 1, 0.4);
        for r in [2u32, 4, 8] {
            let spec = FwSpec::new(m.ptr(), 8).with_decomposition(Decomposition::new(r));
            let mut seen = std::collections::HashMap::new();
            let mut stack = vec![spec.root()];
            while let Some(call) = stack.pop() {
                if call.s == 1 {
                    *seen.entry(spec.tile(&call)).or_insert(0u32) += 1;
                } else {
                    for stage in spec.expand(&call) {
                        stack.extend(stage);
                    }
                }
            }
            assert_eq!(seen.len(), 8 * 8 * 8, "r={r}");
            assert!(seen.values().all(|&c| c == 1), "r={r}");
        }
    }

    #[test]
    fn every_tile_reads_only_same_or_earlier_pivots() {
        let mut m = fw_matrix(32, 1, 0.4);
        let spec = FwSpec::new(m.ptr(), 8);
        for call in spec.manual_calls() {
            let tile = spec.tile(&call);
            for r in spec.reads(tile) {
                assert!(r.0 <= tile.0, "read {r:?} of tile {tile:?}");
            }
        }
    }

    #[test]
    fn anti_deps_cover_exactly_the_previous_rounds_region_readers() {
        use crate::spec::DpSpec;
        let mut m = fw_matrix(32, 1, 0.4);
        let spec = FwSpec::new(m.ptr(), 8); // t = 4
        let region_of = |k: TileKey| (k.1, k.2);
        for call in spec.manual_calls() {
            let tile = spec.tile(&call);
            let anti: Vec<TileKey> = spec.anti_deps(tile).collect();
            // Exactly the round-(k-1) tiles (other than the chain
            // predecessor) that read the block this tile overwrites.
            let expected: Vec<TileKey> = if tile.0 == 0 {
                Vec::new()
            } else {
                spec.manual_calls()
                    .iter()
                    .map(|c| spec.tile(c))
                    .filter(|&r| {
                        r.0 == tile.0 - 1
                            && r != (tile.0 - 1, tile.1, tile.2)
                            && spec
                                .reads(r)
                                .any(|rd| rd.0 == tile.0 - 1 && region_of(rd) == region_of(tile))
                    })
                    .collect()
            };
            let mut a = anti.clone();
            let mut e = expected;
            a.sort_unstable();
            e.sort_unstable();
            assert_eq!(a, e, "tile {tile:?}");
            // The edges always point to the previous round: acyclic by
            // construction.
            assert!(anti.iter().all(|r| r.0 + 1 == tile.0));
        }
    }
}
