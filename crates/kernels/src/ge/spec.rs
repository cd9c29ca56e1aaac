//! GE as a [`DpSpec`]: the Chowdhury-Ramachandran A/B/C/D decomposition
//! (Fig. 2) and the tile dependencies of Listing 5.
//!
//! Call coordinates (tile units): `A` has `i0 == j0 == k0 == d` (the
//! diagonal block), `B` has `i0 == k0` (row panels), `C` has `j0 == k0`
//! (column panels), `D` is the trailing update. A base call updates tile
//! `(i0, j0)` at pivot step `k0`, so its task identity is
//! `(k0, i0, j0)`.

use crate::spec::{Call, Decomposition, DpSpec, TileKey};
use crate::table::TablePtr;

use super::base_kernel;

const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const D: usize = 3;

/// The GE recurrence specification over a shared table.
#[derive(Clone, Copy)]
pub struct GeSpec {
    t: TablePtr,
    m: usize,
    t_tiles: u32,
    decomp: Decomposition,
}

impl GeSpec {
    /// Spec for an `n x n` table with base-case (tile) size `m`; sizes
    /// must already be validated by `check_rdp_sizes`.
    pub fn new(t: TablePtr, m: usize) -> Self {
        let t_tiles = (t.n / m) as u32;
        GeSpec {
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

impl DpSpec for GeSpec {
    fn func_names(&self) -> &'static [&'static str] {
        &["funcA", "funcB", "funcC", "funcD"]
    }

    fn step_names(&self) -> &'static [&'static str] {
        &["funcA", "funcB", "funcC", "funcD"]
    }

    fn item_name(&self) -> &'static str {
        "tile_out"
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
                // r diagonal rounds: eliminate pivot block q, update its
                // row/column panels, then the trailing sub-grid — the
                // r-way generalisation of the A; (B || C); D; A chain.
                let at = |p: u32| k0 + p * step;
                let mut stages = Vec::with_capacity(3 * rr as usize);
                for q in 0..rr {
                    let kq = at(q);
                    stages.push(vec![Call::new(A, kq, kq, kq, step)]);
                    let panels: Vec<Call> = (q + 1..rr)
                        .flat_map(|p| {
                            [
                                Call::new(B, kq, at(p), kq, step),
                                Call::new(C, at(p), kq, kq, step),
                            ]
                        })
                        .collect();
                    if !panels.is_empty() {
                        stages.push(panels);
                    }
                    let trailing: Vec<Call> = (q + 1..rr)
                        .flat_map(|p| {
                            (q + 1..rr).map(move |p2| Call::new(D, at(p), at(p2), kq, step))
                        })
                        .collect();
                    if !trailing.is_empty() {
                        stages.push(trailing);
                    }
                }
                stages
            }
            B => {
                // Row panel: per pivot round q, update all column
                // sub-panels at pivot kq, then the not-yet-eliminated
                // rows below the pivot block.
                let mut stages = Vec::with_capacity(2 * rr as usize);
                for q in 0..rr {
                    let kq = k0 + q * step;
                    stages.push(
                        (0..rr)
                            .map(|p| Call::new(B, kq, j0 + p * step, kq, step))
                            .collect(),
                    );
                    let updates: Vec<Call> = (q + 1..rr)
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
                            (q + 1..rr).map(move |p2| {
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
            D => {
                // Listing 5's kk/ii/jj loops: the r^3 sub-regions,
                // grouped by pivot round.
                (0..rr)
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
                    .collect()
            }
            f => unreachable!("GE has no function {f}"),
        }
    }

    fn tile(&self, call: &Call) -> TileKey {
        // The A/B/C invariants (i0 == k0 and/or j0 == k0) make this the
        // uniform form of the per-kind mapping.
        (call.k0, call.i0, call.j0)
    }

    fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        let (k, i, j) = tile;
        let inner = i != k && j != k;
        [
            (k > 0).then(|| (k - 1, i, j)),          // write-write chain
            (i != k || j != k).then_some((k, k, k)), // A's diagonal tile
            inner.then_some((k, k, j)),              // B row panel
            inner.then_some((k, i, k)),              // C column panel
        ]
        .into_iter()
        .flatten()
    }

    fn manual_calls(&self) -> Vec<Call> {
        let t = self.t_tiles;
        let mut calls = Vec::new();
        for k in 0..t {
            calls.push(Call::new(A, k, k, k, 1));
            for j in k + 1..t {
                calls.push(Call::new(B, k, j, k, 1));
            }
            for i in k + 1..t {
                calls.push(Call::new(C, i, k, k, 1));
            }
            for i in k + 1..t {
                for j in k + 1..t {
                    calls.push(Call::new(D, i, j, k, 1));
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
        // Tile (k, i, j) updates block (i, j) in place; the region is
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ge_matrix;

    #[test]
    fn task_counts_match_the_ge_pyramid() {
        let mut m = ge_matrix(32, 1);
        let spec = GeSpec::new(m.ptr(), 8);
        let t = 4u64;
        assert_eq!(
            spec.manual_calls().len() as u64,
            t * (t + 1) * (2 * t + 1) / 6
        );
    }

    #[test]
    fn wider_decompositions_are_bitwise_identical_to_binary() {
        use crate::engine::run_serial;
        let n = 64;
        let base = 4; // t = 16 tiles: r in {2, 4} aligned, 8 clamps
        let mut reference = ge_matrix(n, 7);
        run_serial(&GeSpec::new(reference.ptr(), base), None);
        for r in [4u32, 8, 16] {
            let mut m = ge_matrix(n, 7);
            let spec = GeSpec::new(m.ptr(), base).with_decomposition(Decomposition::new(r));
            run_serial(&spec, None);
            assert!(m.bitwise_eq(&reference), "r={r}");
        }
    }

    #[test]
    fn rway_expansion_reaches_every_manual_tile_once() {
        let mut m = ge_matrix(64, 1);
        for r in [2u32, 4, 8] {
            let spec = GeSpec::new(m.ptr(), 8).with_decomposition(Decomposition::new(r));
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
            let manual: Vec<_> = spec.manual_calls().iter().map(|c| spec.tile(c)).collect();
            assert_eq!(seen.len(), manual.len(), "r={r}");
            for t in manual {
                assert_eq!(seen.get(&t), Some(&1), "r={r} tile {t:?}");
            }
        }
    }

    #[test]
    fn base_calls_map_to_their_tiles_and_back() {
        let mut m = ge_matrix(32, 1);
        let spec = GeSpec::new(m.ptr(), 8);
        for call in spec.manual_calls() {
            let (k, i, j) = spec.tile(&call);
            assert_eq!((call.k0, call.i0, call.j0), (k, i, j));
            // Every read points at an earlier manual call's tile.
            for r in spec.reads((k, i, j)) {
                assert!(r.0 <= k, "read {r:?} of tile {:?}", (k, i, j));
            }
        }
    }
}
