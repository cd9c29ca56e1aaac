//! `BENCHMARK.json` against the contract's limits and against what the
//! binary actually prints, driven at `--quick` sizes: all four
//! workloads end to end, every layer probe, and the `run` and `compare`
//! commands. Quick numbers prove the code paths and are never recorded.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use recdp_perf::json::{self, Value};
use recdp_perf::metrics;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

#[test]
fn benchmark_json_meets_the_contract_and_matches_the_catalogue() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = b
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["perf"]);
    let command = b.get("command").unwrap().as_arr().unwrap();
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let secs = b.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, recdp_perf::workloads::NAMES);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(name_ok(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    // The driver's whole session: 4 + 22 runs per workload, each the
    // measured seconds plus set-up, warm-up and verification.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        runs * (secs + 10.0) + 120.0 <= 3420.0,
        "the session would not fit"
    );

    for (key, declared, bounded) in [
        ("end_to_end", metrics::end_to_end(), true),
        ("per_layer", metrics::per_layer(), false),
    ] {
        let listed = b.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), declared.len(), "{key}");
        for (l, d) in listed.iter().zip(&declared) {
            let expect: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(l), expect);
            assert_eq!(str_of(l, "name"), d.name);
            assert!(name_ok(&d.name));
            assert_eq!(str_of(l, "unit"), d.unit, "{}", d.name);
            assert_eq!(str_of(l, "better"), d.better.key(), "{}", d.name);
            assert_eq!(
                l.get("bound").and_then(Value::as_f64),
                d.bound,
                "{}",
                d.name
            );
        }
    }
    let all: BTreeSet<&str> = names
        .iter()
        .copied()
        .chain(["end_to_end", "per_layer"].iter().flat_map(|k| {
            b.get(k)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| str_of(m, "name"))
        }))
        .collect();
    let total = names.len() + metrics::end_to_end().len() + metrics::per_layer().len();
    assert_eq!(all.len(), total, "a name is used once");
}

fn perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("the perf binary starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Runs one workload at quick size and checks the printed result
/// against the declared metrics.
fn check_emission(workload: &str, trace: &str, declared: &[metrics::Decl], never_zero: bool) {
    let trace_out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}.json"));
    let (ok, stdout) = perf(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--quick",
        "--trace-out",
        trace_out.to_str().unwrap(),
    ]);
    assert!(ok, "{workload} trace {trace} exits with 0");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let emitted = result.get("metrics").unwrap().as_obj().unwrap();
    let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(emitted_names, declared_names, "{workload} trace {trace}");
    for ((name, m), d) in emitted.iter().zip(declared) {
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert_eq!(str_of(m, "unit"), d.unit, "{name}");
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} is a number"));
        assert!(v.is_finite(), "{name}");
        assert!(!never_zero || v > 0.0, "{name} is {v}");
    }
    if trace == "1" {
        let spans = json::parse(&std::fs::read_to_string(&trace_out).unwrap()).unwrap();
        let events = spans.get("traceEvents").unwrap().as_arr().unwrap();
        let seen: BTreeSet<&str> = events.iter().map(|e| str_of(e, "name")).collect();
        let expect: BTreeSet<&str> = metrics::SPAN_NAMES.into_iter().collect();
        assert_eq!(seen, expect, "{workload} records every span kind");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in recdp_perf::workloads::NAMES {
        check_emission(w, "0", &metrics::end_to_end(), true);
    }
}

#[test]
fn every_workload_emits_every_layer_metric_and_a_trace() {
    for w in recdp_perf::workloads::NAMES {
        check_emission(w, "1", &metrics::per_layer(), false);
    }
}

#[test]
fn same_seed_same_inputs_and_bad_arguments_are_refused() {
    // Exact counts depend only on the generated inputs and job lists.
    let attempted = |seed: &str| {
        let (ok, out) = perf(&[
            "--workload",
            "serve_small",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            "0",
            "--quick",
        ]);
        assert!(ok);
        json::parse(out.lines().last().unwrap())
            .unwrap()
            .get("attempted")
            .and_then(Value::as_f64)
    };
    assert_eq!(attempted("3"), attempted("3"));
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "fine",
            "--seed",
            "x",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fine",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "2",
        ],
        &["--workload", "fine", "--bogus", "1"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let (ok, out) = perf(bad);
        assert!(!ok && out.is_empty(), "{bad:?} is refused without a result");
    }
}

#[test]
fn run_then_compare_against_itself_reports_no_regression() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let a = dir.join("quick-a.json");
    let (ok, _) = perf(&[
        "run",
        "--quick",
        "--seconds",
        "0",
        "--seed",
        "5",
        "--out",
        a.to_str().unwrap(),
    ]);
    assert!(ok, "perf run --quick succeeds");
    let set = json::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(
        set.get("meta")
            .unwrap()
            .get("quick")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        keys(set.get("workloads").unwrap()),
        recdp_perf::workloads::NAMES
    );

    let (ok, table) = perf(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(ok, "a file never regresses against itself:\n{table}");
    let rows = recdp_perf::workloads::NAMES.len() * metrics::end_to_end().len();
    assert_eq!(table.lines().count(), rows + 1);
    assert!(!table.contains("regressed") && !table.contains("improved"));
}
