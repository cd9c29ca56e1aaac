//! The [`DpSpec`] abstraction: a recursive divide-and-conquer DP as a
//! first-class *recurrence specification* — a tile-update kernel, its
//! parametric r-way decomposition into the paper's A/B/C/D-style
//! recursive functions, and the true data dependencies of every tile
//! task.
//!
//! A benchmark implements this trait once; the three generic engines in
//! [`crate::engine`] then run it under every execution model the paper
//! studies (serial R-DP, fork-join, and the four CnC variants) with no
//! per-benchmark driver code. Dinh–Simhadri's nested-dataflow model and
//! Tang's nested-dataflow DP paper argue for exactly this factoring: the
//! dependency structure is independent of the scheduler.
//!
//! # The contract
//!
//! * [`DpSpec::expand`] decomposes a recursive call into **stages**: an
//!   ordered list of groups of sub-calls. Calls inside a stage are
//!   mutually independent (they may run in parallel); stages are
//!   sequentially dependent. The serial engine flattens the stages
//!   depth-first; the fork-join engine forks within a stage and joins at
//!   each stage boundary (the paper's *artificial dependencies*); the
//!   CnC engine ignores the stage structure entirely and puts every
//!   sub-call's tag eagerly (Listing 5's tag loops), because data-flow
//!   synchronisation comes from [`DpSpec::reads`] alone.
//! * [`DpSpec::reads`] lists the tiles whose *final* values a base tile
//!   task consumes, in the order the CnC engine performs its blocking
//!   gets. Together with the single write per tile this is the exact
//!   dependency structure of the computation — no joins, no barriers.
//! * [`DpSpec::run_tile`] performs the in-place tile update. Every cell
//!   of the DP table must see the identical floating-point operation
//!   sequence under any topological order of the tile graph; this is
//!   what makes all engines bitwise-identical to the serial loop oracle.

/// The decomposition width `r` of a recursive divide-and-conquer DP:
/// every recursive call splits its region into an `r x r` grid of
/// sub-blocks (the paper's 2-way A/B/C/D scheme is `r = 2`).
///
/// `r` must be a power of two `>= 2`. When a region is smaller than `r`
/// tiles the effective radix clamps to the region side
/// ([`Decomposition::radix`]), so any power-of-two `r` is well-defined
/// on any power-of-two tile count; the *aligned* case — `t_tiles` a
/// power of `r`, checked by [`Decomposition::aligned_to`] — is the one
/// the `recdp-taskgraph` r-way model predicts exactly, and the one the
/// server admits.
///
/// Wider decompositions shrink recursion depth from `log2 t` to
/// `log_r t` and with it the fork-join join count — the paper's
/// *artificial dependencies* (Fig. 3). `r = 2` is bit-identical to the
/// historical fixed 2-way expansion: the generalized `expand` loops
/// degenerate to the exact same stage lists, and the per-cell FP
/// operation sequence never depends on `r` at all (only stage grouping
/// does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decomposition(u32);

impl Decomposition {
    /// The classic 2-way (quadrant) decomposition — the default, and
    /// the paper's Fig. 2 scheme.
    pub const BINARY: Decomposition = Decomposition(2);

    /// A decomposition of width `r`; panics unless `r` is a power of
    /// two `>= 2`.
    pub fn new(r: u32) -> Self {
        assert!(
            r >= 2 && r.is_power_of_two(),
            "decomposition width must be a power of two >= 2, got {r}"
        );
        Decomposition(r)
    }

    /// The decomposition width `r`.
    pub fn r(self) -> u32 {
        self.0
    }

    /// The effective split radix for a region of side `s` tiles:
    /// `min(r, s)`, so undersized regions still split evenly (both are
    /// powers of two).
    pub fn radix(self, s: u32) -> u32 {
        self.0.min(s)
    }

    /// Whether `t_tiles` is a power of `r`, i.e. every recursion level
    /// splits at the full width `r` with no clamped tail level.
    pub fn aligned_to(self, t_tiles: u32) -> bool {
        let mut t = t_tiles;
        while t > 1 && t.is_multiple_of(self.0) {
            t /= self.0;
        }
        t == 1
    }
}

impl Default for Decomposition {
    fn default() -> Self {
        Decomposition::BINARY
    }
}

/// The r-way wavefront expansion shared by the SW and LCS specs: split
/// the square region into `radix x radix` sub-blocks and emit them in
/// anti-diagonal stages (block `(p, q)` in stage `p + q`, `p`
/// ascending within a stage). Block `(p, q)` reads only its north /
/// west / north-west neighbours, all on earlier anti-diagonals, so
/// calls within a stage are mutually independent. At `radix = 2` this
/// is exactly the historical `X00; (X01, X10); X11` quadrant order.
pub(crate) fn wavefront_expand(
    func: usize,
    i0: u32,
    j0: u32,
    s: u32,
    radix: u32,
) -> Vec<Vec<Call>> {
    let step = s / radix;
    (0..2 * radix - 1)
        .map(|dg| {
            let lo = dg.saturating_sub(radix - 1);
            let hi = dg.min(radix - 1);
            (lo..=hi)
                .map(|p| Call::new(func, i0 + p * step, j0 + (dg - p) * step, 0, step))
                .collect()
        })
        .collect()
}

/// A call to one of a spec's recursive functions, in **tile units**.
///
/// `func` indexes [`DpSpec::func_names`]; `(i0, j0, k0)` are the
/// function-specific region coordinates and `s` is the region side in
/// tiles. `s == 1` is a base call: it names exactly one tile task,
/// [`DpSpec::tile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Call {
    /// Which recursive function (index into [`DpSpec::func_names`]).
    pub func: usize,
    /// First region coordinate (tile units).
    pub i0: u32,
    /// Second region coordinate (tile units).
    pub j0: u32,
    /// Third region coordinate (tile units; `0` for 2-D recursions).
    pub k0: u32,
    /// Region side in tiles; `1` is a base call.
    pub s: u32,
}

impl Call {
    /// Convenience constructor.
    pub fn new(func: usize, i0: u32, j0: u32, k0: u32, s: u32) -> Self {
        Call {
            func,
            i0,
            j0,
            k0,
            s,
        }
    }
}

/// The CnC tag a call is published under: `(i0, j0, k0, s)`.
pub type Tag = (u32, u32, u32, u32);

/// Identity of one base tile task. Benchmarks with a 2-D tile space use
/// `0` for the unused coordinate.
pub type TileKey = (u32, u32, u32);

impl From<Call> for Tag {
    fn from(c: Call) -> Tag {
        (c.i0, c.j0, c.k0, c.s)
    }
}

/// A recursive divide-and-conquer DP, specified independently of any
/// execution model. See the module docs for the contract.
///
/// Implementations are cheap-to-clone handles (a [`crate::TablePtr`]
/// plus problem parameters) shared across worker threads.
pub trait DpSpec: Clone + Send + Sync + 'static {
    /// CnC tag-collection name per recursive function. The length fixes
    /// the valid range of [`Call::func`].
    fn func_names(&self) -> &'static [&'static str];

    /// CnC step-collection name per recursive function (same length as
    /// [`DpSpec::func_names`]).
    fn step_names(&self) -> &'static [&'static str];

    /// CnC item-collection name for tile-readiness items.
    fn item_name(&self) -> &'static str;

    /// Problem size in tiles per dimension.
    fn t_tiles(&self) -> u32;

    /// Extent of the tile-key space: every [`TileKey`] the spec names
    /// (via [`DpSpec::tile`], [`DpSpec::reads`], [`DpSpec::anti_deps`])
    /// is below it in each coordinate. The CnC engine sizes its item
    /// grid with it. The default is the `t x t x t` cube of the
    /// recurrences with a pivot dimension; 2-D tile spaces override it
    /// with a flat `t x t x 1`.
    fn tile_extent(&self) -> TileKey {
        let t = self.t_tiles();
        (t, t, t)
    }

    /// The root call of the recursion (covers the whole table).
    fn root(&self) -> Call;

    /// Decomposes a recursive call (`s > 1`) into stages of independent
    /// sub-calls; see the module docs.
    fn expand(&self, call: &Call) -> Vec<Vec<Call>>;

    /// The tile a base call (`s == 1`) updates.
    fn tile(&self, call: &Call) -> TileKey;

    /// Tiles whose final values the tile task reads, in blocking-get
    /// order. Must be empty for source tiles. An iterator, not a list:
    /// the engines walk it once per use and nothing is allocated.
    fn reads(&self, tile: TileKey) -> impl Iterator<Item = TileKey>;

    /// Every base call of the whole computation in a valid topological
    /// order — the Manual-CnC pre-declaration sequence.
    fn manual_calls(&self) -> Vec<Call>;

    /// Runs the in-place tile update.
    ///
    /// # Safety
    /// The caller must guarantee exclusive write access to the tile and
    /// that every tile in [`DpSpec::reads`] holds its final value (the
    /// engines establish this from the spec's own dependency data).
    unsafe fn run_tile(&self, tile: TileKey);

    /// The table region [`DpSpec::run_tile`] writes for `tile`, if the
    /// spec exposes one — the unit the integrity layer checksums,
    /// snapshots and repairs. `None` (the default) opts the spec out of
    /// integrity checking: the engines fall back to plain execution for
    /// its tiles.
    ///
    /// For the destructive in-place recurrences (GE/FW), successive
    /// pivot tiles `(k, i, j)` map to the *same* region: repair there is
    /// pre-image restore + kernel re-run, never recompute-from-zero.
    fn tile_region(&self, tile: TileKey) -> Option<crate::table::TileRegion> {
        let _ = tile;
        None
    }

    /// Write-after-read hazards: tiles whose *reads* overlap the region
    /// this tile overwrites, beyond the write-write chain already in
    /// [`DpSpec::reads`]. A data-flow run gates tile execution only on
    /// the producers of its reads, so without these edges a tile can
    /// overwrite a block while a slow same-region reader (or a repairing
    /// one — the repair loop re-reads its inputs) is still consuming the
    /// previous phase's values. The checked CnC program waits for these
    /// tiles' readiness items too, freezing every input region for the
    /// whole execute/verify/repair window.
    ///
    /// Empty (the default) for specs whose read tiles are final when
    /// their item is put — true of every benchmark here except FW, whose
    /// pivot row/column/diagonal blocks are re-relaxed in the very next
    /// round while the current round is still reading them.
    fn anti_deps(&self, tile: TileKey) -> impl Iterator<Item = TileKey> {
        let _ = tile;
        std::iter::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_tag_roundtrip() {
        let c = Call::new(2, 1, 4, 0, 8);
        let tag: Tag = c.into();
        assert_eq!(tag, (1, 4, 0, 8));
    }

    #[test]
    fn decomposition_radix_clamps_to_region() {
        let d = Decomposition::new(8);
        assert_eq!(d.r(), 8);
        assert_eq!(d.radix(64), 8);
        assert_eq!(d.radix(8), 8);
        assert_eq!(d.radix(4), 4);
        assert_eq!(d.radix(1), 1);
        assert_eq!(Decomposition::default(), Decomposition::BINARY);
    }

    #[test]
    fn decomposition_alignment() {
        assert!(Decomposition::new(4).aligned_to(64)); // 64 = 4^3
        assert!(Decomposition::new(8).aligned_to(64)); // 64 = 8^2
        assert!(!Decomposition::new(8).aligned_to(16)); // 16 != 8^k
        assert!(Decomposition::BINARY.aligned_to(1));
        assert!(!Decomposition::new(4).aligned_to(8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn decomposition_rejects_non_power() {
        Decomposition::new(3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn decomposition_rejects_degenerate_one() {
        Decomposition::new(1);
    }

    #[test]
    fn wavefront_expand_binary_matches_quadrant_order() {
        let stages = wavefront_expand(0, 4, 8, 2, 2);
        assert_eq!(
            stages,
            vec![
                vec![Call::new(0, 4, 8, 0, 1)],
                vec![Call::new(0, 4, 9, 0, 1), Call::new(0, 5, 8, 0, 1)],
                vec![Call::new(0, 5, 9, 0, 1)],
            ]
        );
    }

    #[test]
    fn wavefront_expand_covers_the_grid_once() {
        for radix in [2u32, 4, 8] {
            let stages = wavefront_expand(0, 0, 0, 8, radix);
            assert_eq!(stages.len() as u32, 2 * radix - 1);
            let step = 8 / radix;
            let mut seen = std::collections::HashSet::new();
            for (dg, stage) in stages.iter().enumerate() {
                for c in stage {
                    assert_eq!(c.s, step);
                    assert_eq!((c.i0 + c.j0) / step, dg as u32);
                    assert!(seen.insert((c.i0, c.j0)));
                }
            }
            assert_eq!(seen.len() as u32, radix * radix);
        }
    }
}
