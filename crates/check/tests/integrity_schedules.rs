//! Managed-schedule corpus for the data-integrity layer: detection,
//! repair and put-verification counters key on seeded per-tile rolls,
//! never on timing, so every explored schedule of a chaos run must
//! observe the same counts — and, under `Full` verification, the same
//! healed table as a clean serial run.

use std::sync::Arc;

use recdp_check::{explore, Config};
use recdp_cnc::CncGraph;
use recdp_faults::FaultPlan;
use recdp_kernels::engine::{register_cnc, run_serial};
use recdp_kernels::workloads::{dna_sequence, fw_matrix, ge_matrix};
use recdp_kernels::{
    fw, ge, sw, CncVariant, DpSpec, IntegrityConfig, IntegrityMode, IntegrityState, Matrix,
};

const N: usize = 32;
const BASE: usize = 8;
const SEED: u64 = 0xC4A05;

/// A chaos policy flipping bits in ~30% of tiles and mangling ~30% of
/// puts. Injection rerolls per repair attempt, so the raised budget
/// makes escalation numerically impossible at this rate.
fn chaos(mode: IntegrityMode) -> IntegrityConfig {
    IntegrityConfig::new(mode)
        .with_injector(Arc::new(
            FaultPlan::new(SEED).corrupt_cells(0.3).corrupt_puts(0.3),
        ))
        .with_seed(SEED)
        .with_max_repair_attempts(12)
}

/// Registers `spec`'s Native program on `graph` under `cfg`; the
/// returned state yields the report once the graph has quiesced.
fn checked_registration<S: DpSpec>(
    spec: &S,
    graph: &CncGraph,
    cfg: IntegrityConfig,
) -> Arc<IntegrityState> {
    let st = Arc::new(IntegrityState::new(cfg));
    register_cnc(spec, CncVariant::Native, graph, Some(Arc::clone(&st)));
    st
}

/// The replay-stable observation of one checked managed run.
type Observation = (u64, u64, u64, u64, u64);

fn checked_ge(sched: recdp_check::SharedScheduler, mode: IntegrityMode) -> Observation {
    let (graph, _handle) = CncGraph::managed(sched.pick_fn());
    let mut m = ge_matrix(N, SEED);
    let spec = ge::GeSpec::new(m.ptr(), BASE);
    let st = checked_registration(&spec, &graph, chaos(mode));
    graph.wait().expect("chaos GE quiesces on every schedule");
    let r = st.report();
    r.ok().expect("the raised repair budget absorbs every flip");
    (
        r.tiles_verified,
        r.corruptions_detected,
        r.tiles_recomputed,
        r.put_corruptions_detected,
        m.bit_digest(),
    )
}

#[test]
fn full_verification_is_schedule_independent_and_heals() {
    let oracle = {
        let mut m = ge_matrix(N, SEED);
        run_serial(&ge::GeSpec::new(m.ptr(), BASE), None);
        m.bit_digest()
    };
    let cfg = Config::from_env();
    let stable = explore(&cfg, |s| checked_ge(s, IntegrityMode::Full));
    assert!(stable.1 > 0, "the chaos seed never corrupted GE");
    assert_eq!(stable.1, stable.2, "every detection must be repaired");
    assert!(stable.3 > 0, "the chaos seed never mangled a put");
    assert_eq!(
        stable.4, oracle,
        "the healed table must match a clean serial run"
    );
}

#[test]
fn sampled_verification_is_schedule_independent() {
    // Partial sampling lets some corruption through — but *which* tiles
    // are sampled, detected and healed is still a pure function of the
    // seeds, so the counters and the (possibly corrupt) table are
    // identical across schedules.
    let cfg = Config::from_env();
    let stable = explore(&cfg, |s| checked_ge(s, IntegrityMode::Sample(0.5)));
    let full = explore(&Config::from_env(), |s| checked_ge(s, IntegrityMode::Full));
    assert!(
        stable.0 < full.0,
        "half-rate sampling must verify fewer tiles than Full"
    );
    assert!(
        stable.1 <= full.1,
        "sampled detections are a subset of Full detections"
    );
}

#[test]
fn fw_heals_bitwise_on_every_schedule_despite_region_reuse() {
    // FW re-relaxes the previous round's pivot row/column/diagonal
    // blocks while the current round may still be reading them — the
    // one benchmark whose physical regions are not stable under its
    // plain data-flow graph. The checked program adds the spec's
    // anti-dependence edges, so no explored ordering (including the
    // adversarial "next-round writer first" ones) can let a repair
    // re-read phase-advanced inputs. Without those edges this test
    // finds schedules where the healed table diverges from serial.
    let oracle = {
        let mut m = fw_matrix(N, 3, 0.4);
        run_serial(&fw::FwSpec::new(m.ptr(), BASE), None);
        m.bit_digest()
    };
    let cfg = Config::from_env();
    let stable = explore(&cfg, |s| {
        let (graph, _handle) = CncGraph::managed(s.pick_fn());
        let mut m = fw_matrix(N, 3, 0.4);
        let spec = fw::FwSpec::new(m.ptr(), BASE);
        let st = checked_registration(&spec, &graph, chaos(IntegrityMode::Full));
        graph.wait().expect("chaos FW quiesces on every schedule");
        let r = st.report();
        r.ok().expect("the raised repair budget absorbs every flip");
        (
            r.tiles_verified,
            r.corruptions_detected,
            r.tiles_recomputed,
            m.bit_digest(),
        )
    });
    assert!(stable.1 > 0, "the chaos seed never corrupted FW");
    assert_eq!(stable.1, stable.2, "every detection must be repaired");
    assert_eq!(stable.3, oracle, "healed FW must match a clean serial run");
}

#[test]
fn sw_put_verification_is_schedule_independent() {
    // SW's data-flow graph is get-heavy (every tile's readiness item is
    // consumed downstream), so it exercises the consumer-side payload
    // registry harder than GE.
    let a = dna_sequence(N, SEED);
    let b = dna_sequence(N, SEED ^ 0xFFFF);
    let cfg = Config::from_env();
    let stable = explore(&cfg, |s| {
        let (graph, _handle) = CncGraph::managed(s.pick_fn());
        let mut m = Matrix::zeros(N);
        let spec = sw::SwSpec::new(m.ptr(), &a, &b, BASE);
        let st = checked_registration(&spec, &graph, chaos(IntegrityMode::Full));
        graph.wait().expect("chaos SW quiesces on every schedule");
        let r = st.report();
        r.ok().expect("the raised repair budget absorbs every flip");
        (
            r.tiles_verified,
            r.corruptions_detected,
            r.tiles_recomputed,
            r.put_corruptions_detected,
            m.bit_digest(),
        )
    });
    let oracle = {
        let mut m = Matrix::zeros(N);
        run_serial(&sw::SwSpec::new(m.ptr(), &a, &b, BASE), None);
        m.bit_digest()
    };
    assert_eq!(stable.4, oracle, "healed SW table must match serial");
    assert_eq!(stable.1, stable.2, "every detection must be repaired");
}
