//! Spec-generic structural properties of the r-way decomposition.
//!
//! Every [`DpSpec`] must uphold the `expand` contract at *every*
//! decomposition width, not just the historical 2-way default:
//!
//! * flattening the stage tree depth-first reaches each of the spec's
//!   base tiles exactly once (the r-way loops neither drop nor
//!   duplicate work), and
//! * that serial order respects [`DpSpec::reads`] — every tile a task
//!   consumes was produced by an earlier stage, so the stage lists
//!   really are a topological order of the true dependency graph.
//!
//! The digest half closes the loop on the facade: at r in {2, 4} every
//! execution model must stay bitwise-identical to the serial loops
//! oracle, because the decomposition reshapes the schedule, never the
//! per-cell arithmetic.

use std::collections::{HashMap, HashSet};

use recdp::prelude::*;
use recdp_kernels::workloads::{chain_dims, dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{
    fw::FwSpec, ge::GeSpec, lcs::LcsSpec, paren::ParenSpec, sw::SwSpec, Call, DpSpec, TileKey,
};

const N: usize = 64;
const BASE: usize = 4; // t = 16 tiles: aligned for r in {2, 4}; 8 clamps

fn flatten<S: DpSpec>(spec: &S, call: &Call, order: &mut Vec<TileKey>) {
    if call.s == 1 {
        order.push(spec.tile(call));
        return;
    }
    for stage in spec.expand(call) {
        for sub in &stage {
            flatten(spec, sub, order);
        }
    }
}

fn check_structure<S: DpSpec>(spec: &S, label: &str, r: u32) {
    let mut order = Vec::new();
    flatten(spec, &spec.root(), &mut order);

    // Exactly the manual (flat data-flow) task list, each tile once.
    let mut seen: HashMap<TileKey, u32> = HashMap::new();
    for &tile in &order {
        *seen.entry(tile).or_insert(0) += 1;
    }
    let manual: HashSet<TileKey> = spec.manual_calls().iter().map(|c| spec.tile(c)).collect();
    assert_eq!(
        seen.len(),
        manual.len(),
        "{label} r={r}: expansion tile set diverges from manual_calls"
    );
    for (tile, count) in &seen {
        assert!(manual.contains(tile), "{label} r={r}: extra tile {tile:?}");
        assert_eq!(*count, 1, "{label} r={r}: tile {tile:?} visited {count}x");
    }

    // The serial stage order is a topological order of `reads`.
    let mut done: HashSet<TileKey> = HashSet::new();
    for tile in order {
        for read in spec.reads(tile) {
            assert!(
                done.contains(&read),
                "{label} r={r}: tile {tile:?} reads {read:?} before it is written"
            );
        }
        done.insert(tile);
    }
}

#[test]
fn every_spec_expands_each_tile_once_in_dependency_order() {
    let mut ge_m = ge_matrix(N, 11);
    let mut fw_m = fw_matrix(N, 11, 0.4);
    let mut sw_m = Matrix::zeros(N);
    let mut lcs_m = Matrix::zeros(N);
    let mut paren_m = Matrix::zeros(N);
    let a = dna_sequence(N, 5);
    let b = dna_sequence(N, 6);
    let dims = chain_dims(N, 7);
    for r in [2u32, 4, 8] {
        let d = Decomposition::new(r);
        check_structure(
            &GeSpec::new(ge_m.ptr(), BASE).with_decomposition(d),
            "GE",
            r,
        );
        check_structure(
            &FwSpec::new(fw_m.ptr(), BASE).with_decomposition(d),
            "FW",
            r,
        );
        check_structure(
            &SwSpec::new(sw_m.ptr(), &a, &b, BASE).with_decomposition(d),
            "SW",
            r,
        );
        check_structure(
            &LcsSpec::new(lcs_m.ptr(), &a, &b, BASE).with_decomposition(d),
            "LCS",
            r,
        );
        check_structure(
            &ParenSpec::new(paren_m.ptr(), &dims, BASE).with_decomposition(d),
            "PAREN",
            r,
        );
    }
}

#[test]
fn all_execution_models_digest_identical_across_decompositions() {
    let executions = [
        Execution::SerialRdp,
        Execution::ForkJoin,
        Execution::Cnc(CncVariant::Native),
        Execution::Cnc(CncVariant::Tuner),
        Execution::Cnc(CncVariant::Manual),
        Execution::Cnc(CncVariant::NonBlocking),
    ];
    let (n, base, threads) = (32, 4, 2);
    for benchmark in Benchmark::EXTENDED {
        let oracle = run_benchmark(benchmark, Execution::SerialLoops, n, base, 1);
        let digest = oracle.table.bit_digest();
        for r in [2u32, 4] {
            for execution in executions {
                let out = execute(&Run {
                    decomposition: Decomposition::new(r),
                    ..Run::new(benchmark, execution, n, base, threads)
                })
                .expect("fault-free runs succeed");
                assert_eq!(
                    out.table.bit_digest(),
                    digest,
                    "{} r={r} {}: digest drift from the loops oracle",
                    benchmark.name(),
                    execution.label()
                );
                assert!(out.table.bitwise_eq(&oracle.table));
            }
        }
    }
}
