//! The catalogue of metrics: name, unit, direction and, for end-to-end
//! metrics, the bound by which a later change may worsen them.
//! `BENCHMARK.json` repeats it for the driver; `tests/schema.rs` checks
//! the two agree and that a run emits exactly these names.

use crate::workloads::{Bm, Model};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median a metric may worsen by. End-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: Better) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, emitted by every workload with tracing off.
///
/// A bound covers every workload, so it follows the noisiest one. Ten
/// differently seeded runs, twice (`trajectory/BENCH_11.json`), spread
/// by 1-5 % of the median on the direct workloads and by up to 10 %
/// (`wall_s.*`), 7 % (`jobs_per_s`, `lat_p50_ms`), 13 % (`lat_p95_ms`)
/// and 6 % (`peak_rss_mb`) on the served ones; each bound is two to
/// three times that, within the contract's cap of 25 %, because the
/// host's slow phases can double a spread. `setup_s`, a few
/// milliseconds of thread spawning and allocation, gets the cap.
pub fn end_to_end() -> Vec<Decl> {
    let bounded = |name: String, unit, better, bound| Decl {
        bound: Some(bound),
        ..decl(name, unit, better)
    };
    let mut out: Vec<Decl> = Model::ALL
        .iter()
        .map(|m| bounded(format!("wall_s.{}", m.key()), "s", Better::Lower, 0.25))
        .collect();
    out.extend([
        bounded("jobs_per_s".into(), "1/s", Better::Higher, 0.20),
        bounded("lat_p50_ms".into(), "ms", Better::Lower, 0.20),
        bounded("lat_p95_ms".into(), "ms", Better::Lower, 0.25),
        bounded("setup_s".into(), "s", Better::Lower, 0.25),
        bounded("peak_rss_mb".into(), "MB", Better::Lower, 0.15),
    ]);
    out
}

/// Span names the harness records; each gets a `harness.self_ms.*`
/// metric.
pub const SPAN_NAMES: [&str; 11] = [
    "pool_build",
    "prepare",
    "graph_build",
    "run",
    "verify",
    "server_build",
    "spec_build",
    "job",
    "submit",
    "queued",
    "reply",
];

/// Per-layer metrics, emitted by every workload with tracing on. Layer
/// prefixes are crate names (`recdp-` dropped; `integrity` is
/// `recdp-kernels::integrity`, `harness` is this benchmark).
pub fn per_layer() -> Vec<Decl> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let per_bm = |out: &mut Vec<Decl>, prefix: &str, unit: &'static str| {
        for bm in Bm::ALL {
            out.push(decl(format!("{prefix}.{}", bm.key()), unit, Lower));
        }
    };
    per_bm(&mut out, "kernels.loops_ns_per_update", "ns");
    for bm in [Bm::Ge, Bm::Fw] {
        for backend in ["scalar", "avx"] {
            out.push(decl(
                format!("kernels.tile_ns_per_update.{}.{backend}", bm.key()),
                "ns",
                Lower,
            ));
        }
    }
    for bm in [Bm::Sw, Bm::Paren, Bm::Lcs] {
        out.push(decl(
            format!("kernels.tile_ns_per_update.{}.scalar", bm.key()),
            "ns",
            Lower,
        ));
    }
    per_bm(&mut out, "kernels.engine_ns_per_tile", "ns");

    for probe in ["join_leaf_ns", "scope_spawn_ns", "install_ns"] {
        out.push(decl(format!("forkjoin.{probe}"), "ns", Lower));
    }
    per_bm(&mut out, "forkjoin.overhead_ns_per_task", "ns");
    per_bm(&mut out, "forkjoin.overhead_ns_per_task_r8", "ns");
    out.push(decl("forkjoin.speedup_2w", "ratio", Higher));

    for v in Model::CNC.map(Model::variant_key) {
        per_bm(&mut out, &format!("cnc.{v}.overhead_ns_per_step"), "ns");
    }
    per_bm(&mut out, "cnc.native.requeue_ratio", "ratio");
    for v in Model::CNC.map(Model::variant_key) {
        for count in ["steps", "items_put", "gets_blocked"] {
            out.push(decl(format!("cnc.{v}.{count}"), "count", Lower));
        }
    }
    out.push(decl("cnc.tag_put_step_ns", "ns", Lower));
    out.push(decl("cnc.item_put_get_ns", "ns", Lower));
    out.push(decl("cnc.graph_setup_us", "us", Lower));

    for mode in ["off", "sample", "full"] {
        out.push(decl(format!("integrity.{mode}_ratio"), "ratio", Lower));
    }
    out.push(decl("trace.on_ratio.forkjoin", "ratio", Lower));
    out.push(decl("trace.on_ratio.cnc_tuner", "ratio", Lower));
    out.push(decl("trace.server_on_ratio", "ratio", Lower));

    for (name, unit) in [
        ("submit_us_p50", "us"),
        ("queue_ms_p50", "ms"),
        ("queue_ms_p95", "ms"),
        ("run_ms_p50", "ms"),
        ("run_ms_p95", "ms"),
        ("lat_p99_ms", "ms"),
        ("lat_p999_ms", "ms"),
        ("overhead_us_per_job", "us"),
    ] {
        out.push(decl(format!("server.{name}"), unit, Lower));
    }
    for m in Model::ALL {
        out.push(decl(format!("server.lat_p50_ms.{}", m.key()), "ms", Lower));
    }
    out.push(decl("server.lat_p50_ms.sw_per_query", "ms", Lower));
    out.push(decl("server.lat_p50_ms.sw_coalesced", "ms", Lower));
    out.push(decl("server.failed", "count", Lower));
    out.push(decl("server.rejected", "count", Lower));

    per_bm(&mut out, "core.prepare_ms", "ms");

    for bm in [Bm::Ge, Bm::Sw, Bm::Fw] {
        out.push(decl(
            format!("sim.pred_over_measured.{}", bm.key()),
            "ratio",
            Lower,
        ));
    }
    out.push(decl("sim.tasks_per_s", "1/s", Higher));
    out.push(decl(
        "analytical.miss_bound_over_cachesim.ge",
        "ratio",
        Lower,
    ));
    out.push(decl("cachesim.accesses_per_s", "1/s", Higher));

    out.push(decl("harness.span_overhead_ratio", "ratio", Lower));
    for name in SPAN_NAMES {
        out.push(decl(format!("harness.self_ms.{name}"), "ms", Lower));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_fits_the_contract() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()), "{}", e2e.len());
        assert!((1..=128).contains(&layer.len()), "{}", layer.len());
        let mut seen = HashSet::new();
        for d in e2e.iter().chain(&layer) {
            assert!(seen.insert(d.name.clone()), "{} is declared twice", d.name);
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = e2e.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|d| d.bound <= setup.bound));
    }
}
