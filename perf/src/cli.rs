//! Command line of the `perf` binary.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE]
//! perf run     [--seed N] [--seconds S] [--quick] [--out FILE]
//! perf layers  [--seed N] [--seconds S] [--quick] [--out FILE]
//! perf spread  [--seed N] [--seconds S] [--quick] [--runs K] [--out FILE]
//! perf compare BASELINE.json CANDIDATE.json
//! perf catalogue
//! ```
//!
//! The first form measures one workload in this process and prints the
//! result as the last line of standard output. The others run it in a
//! subprocess per workload, so that one workload's heap, page cache and
//! peak memory never colour another's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::measure::{self, Measured, Metric};
use crate::metrics::{self, Better};
use crate::stats::{median, quartiles};
use crate::workloads;
use crate::{adapter, layers};

const USAGE: &str = "usage:
  perf --workload <coarse|fine|serve_small|serve_heavy> --seed N --seconds S --trace <0|1> [--quick] [--trace-out FILE]
  perf run     [--seed N] [--seconds S] [--quick] [--out FILE]
  perf layers  [--seed N] [--seconds S] [--quick] [--out FILE]
  perf spread  [--seed N] [--seconds S] [--quick] [--runs K] [--out FILE]
  perf compare BASELINE.json CANDIDATE.json
  perf catalogue";

/// Seconds one run measures when the command line does not say; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("quick") => {
                flags.insert("quick".to_string(), "1".to_string());
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
            }
            None => positional.push(a.clone()),
        }
    }
    Ok(Args { flags, positional })
}

impl Args {
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn quick(&self) -> bool {
        self.flags.contains_key("quick")
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| sets_command(&a, false)),
        Some("layers") => parse_args(&args[1..]).and_then(|a| sets_command(&a, true)),
        Some("spread") => parse_args(&args[1..]).and_then(|a| spread_command(&a)),
        Some("compare") => parse_args(&args[1..]).and_then(|a| compare_command(&a)),
        Some("catalogue") => Ok(catalogue_command()),
        Some(a) if a.starts_with("--") => parse_args(&args).and_then(|a| measure_command(&a)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: {msg}");
            2
        }
    }
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

fn metric_json(m: &Metric, detail: bool) -> Value {
    let mut pairs = vec![
        ("value", Value::Num(m.summary.value)),
        ("unit", Value::str(m.unit)),
    ];
    if detail {
        pairs.push(("n", Value::Num(m.summary.n as f64)));
        pairs.push(("mad", Value::Num(m.summary.mad)));
    }
    Value::obj(pairs)
}

fn result_json(m: &Measured, detail: bool) -> Value {
    Value::obj([
        ("correct", Value::Bool(m.failed == 0)),
        ("attempted", Value::Num(m.attempted as f64)),
        ("failed", Value::Num(m.failed as f64)),
        (
            "metrics",
            Value::obj(
                m.metrics
                    .iter()
                    .map(|x| (x.name.clone(), metric_json(x, detail))),
            ),
        ),
    ])
}

/// Where a traced run writes its spans when not told: beside the
/// binary, which is inside the (ignored) build directory.
fn default_trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("recdp-perf-trace-{workload}.json"))
}

fn measure_command(args: &Args) -> Result<i32, String> {
    args.only(&["workload", "seed", "seconds", "trace", "quick", "trace-out"])?;
    let name = args.flags.get("workload").ok_or(USAGE)?;
    let quick = args.quick();
    let w = workloads::workload(name, quick)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workloads::NAMES))?;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECONDS)?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let measured = match args.num::<u8>("trace", 0)? {
        0 => measure::run(&w, seed, seconds),
        1 => layers::run(&w, seed, seconds, quick),
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    if let Some(spans) = &measured.spans {
        let path = args
            .flags
            .get("trace-out")
            .map_or_else(|| default_trace_path(w.name), PathBuf::from);
        std::fs::write(&path, spans.chrome_trace().to_line())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perf: {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
    }
    eprintln!(
        "perf: {} seed {seed}: {} checked, {} failed",
        w.name, measured.attempted, measured.failed
    );
    for m in &measured.metrics {
        eprintln!(
            "  {:<44} {:>14.6} {:<6} n={:<3} mad={:.3e}",
            m.name, m.summary.value, m.unit, m.summary.n, m.summary.mad
        );
    }
    // Two lines: the same result with sample counts and spreads for
    // this tool's own commands, then the contract's result line, last.
    println!("{}", result_json(&measured, true).to_line());
    println!("{}", result_json(&measured, false).to_line());
    Ok(0)
}

// ---------------------------------------------------------------------
// All workloads, one subprocess each
// ---------------------------------------------------------------------

struct Common {
    seed: u64,
    seconds: f64,
    quick: bool,
}

fn common(args: &Args) -> Result<Common, String> {
    Ok(Common {
        seed: args.num("seed", 1)?,
        seconds: args.num("seconds", DEFAULT_SECONDS)?,
        quick: args.quick(),
    })
}

/// Runs one workload in a child process and returns its detailed
/// result object.
fn child(
    c: &Common,
    seed: u64,
    workload: &str,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if c.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // The child's table goes to our stderr; its stdout is the result.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let (_contract, detail) = (lines.next(), lines.next());
    json::parse(detail.ok_or_else(|| format!("the {workload} run printed no result"))?)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn meta(c: &Common, mode: &str, seed: u64) -> Value {
    Value::obj([
        ("tool", Value::str("recdp-perf")),
        ("mode", Value::str(mode)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(c.seconds)),
        ("quick", Value::Bool(c.quick)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("simd_active", Value::Bool(adapter::vector_backend_active())),
        ("commit", Value::str(commit())),
    ])
}

/// One set: every workload once.
fn one_set(c: &Common, seed: u64, trace: bool, trace_dir: Option<&Path>) -> Result<Value, String> {
    let mut per_workload = Vec::new();
    for name in workloads::NAMES {
        let trace_out = trace_dir.map(|d| d.join(format!("trace-{name}.json")));
        per_workload.push((name, child(c, seed, name, trace, trace_out.as_deref())?));
    }
    Ok(Value::obj([
        ("meta", meta(c, if trace { "layers" } else { "run" }, seed)),
        ("workloads", Value::obj(per_workload)),
    ]))
}

fn set_is_correct(set: &Value) -> bool {
    set.get("workloads")
        .and_then(Value::as_obj)
        .is_some_and(|ws| {
            ws.iter()
                .all(|(_, w)| w.get("correct").and_then(Value::as_bool) == Some(true))
        })
}

fn write_file(path: &str, v: &Value) -> Result<(), String> {
    std::fs::write(path, v.to_pretty()).map_err(|e| format!("writing {path}: {e}"))
}

/// `perf run` and `perf layers`.
fn sets_command(args: &Args, trace: bool) -> Result<i32, String> {
    args.only(&["seed", "seconds", "quick", "out"])?;
    let c = common(args)?;
    let out = args.flags.get("out");
    // Span files go beside the result file.
    let trace_dir = match (trace, out) {
        (true, Some(o)) => Some(
            Path::new(o)
                .parent()
                .map_or_else(|| PathBuf::from("."), Path::to_path_buf),
        ),
        _ => None,
    };
    let set = one_set(&c, c.seed, trace, trace_dir.as_deref())?;
    match out {
        Some(path) => write_file(path, &set)?,
        None => print!("{}", set.to_pretty()),
    }
    if set_is_correct(&set) {
        Ok(0)
    } else {
        eprintln!("perf: some outputs were wrong or some jobs failed");
        Ok(1)
    }
}

// ---------------------------------------------------------------------
// Spread between runs, and comparison of two result files
// ---------------------------------------------------------------------

/// The sets of a result file: a single set, or a file of `sets`.
fn sets_of(v: &Value) -> Vec<&Value> {
    match v.get("sets").and_then(Value::as_arr) {
        Some(sets) => sets.iter().collect(),
        None => vec![v],
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of one metric on one workload across a file's sets.
fn values_of(sets: &[&Value], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|set| {
            set.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Spread of a metric between a file's sets as a share of its median:
/// the quartile distance from four sets up, the range for two or
/// three, and nothing for a single set, which cannot show one.
fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values).abs();
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (hi - lo) / mid
        }
        _ => {
            let (q1, q3) = quartiles(values);
            (q3 - q1) / mid
        }
    }
}

/// `perf spread`: the acceptance protocol. Runs every workload `runs`
/// times, each with another seed, and prints for each end-to-end
/// metric the distance between its quartiles as a share of its median,
/// beside its bound. Appends the sets to `--out`.
fn spread_command(args: &Args) -> Result<i32, String> {
    args.only(&["seed", "seconds", "quick", "runs", "out"])?;
    let c = common(args)?;
    let runs: u64 = args.num("runs", 10)?;
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let mut sets = Vec::new();
    for i in 0..runs {
        eprintln!("perf: spread run {} of {runs}", i + 1);
        sets.push(one_set(&c, c.seed + i, false, None)?);
    }
    let correct = sets.iter().all(set_is_correct);
    let refs: Vec<&Value> = sets.iter().collect();
    let mut worst = 0.0f64;
    println!(
        "{:<12} {:<18} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for name in workloads::NAMES {
        for d in metrics::end_to_end() {
            let values = values_of(&refs, name, &d.name);
            let (q1, q3) = quartiles(&values);
            let spread = (q3 - q1) / median(&values).abs();
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let verdict = if d.name == "setup_s" {
                "not gated"
            } else if spread < bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                "TOO WIDE"
            };
            if d.name != "setup_s" {
                worst = worst.max(spread / bound);
            }
            println!(
                "{name:<12} {:<18} {:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                d.name,
                median(&values),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("widest spread is {:.2} of its bound", worst);
    if let Some(path) = args.flags.get("out") {
        let mut all: Vec<Value> = match std::fs::read_to_string(path) {
            Ok(text) => sets_of(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
                .into_iter()
                .cloned()
                .collect(),
            Err(_) => Vec::new(),
        };
        all.extend(sets);
        write_file(path, &Value::obj([("sets", Value::Arr(all))]))?;
    }
    Ok(if correct && worst <= 1.0 { 0 } else { 1 })
}

/// `perf catalogue`: the `end_to_end` and `per_layer` members of
/// `BENCHMARK.json` as this build declares them, for a benchmark change
/// to paste in.
fn catalogue_command() -> i32 {
    let list = |decls: Vec<metrics::Decl>| {
        Value::Arr(
            decls
                .into_iter()
                .map(|d| {
                    let mut pairs = vec![
                        ("name", Value::Str(d.name)),
                        ("unit", Value::str(d.unit)),
                        ("better", Value::str(d.better.key())),
                    ];
                    if let Some(b) = d.bound {
                        pairs.push(("bound", Value::Num(b)));
                    }
                    Value::obj(pairs)
                })
                .collect(),
        )
    };
    let v = Value::obj([
        ("end_to_end", list(metrics::end_to_end())),
        ("per_layer", list(metrics::per_layer())),
    ]);
    print!("{}", v.to_pretty());
    0
}

/// How much worse the candidate is, as a share of the baseline
/// (positive is worse, whichever way the metric points), and what that
/// means against the metric's bound. A spread wider than the bound
/// cannot resolve a change of the bound's size either way.
fn verdict(base: f64, cand: f64, spread: f64, bound: f64, better: Better) -> (f64, &'static str) {
    let worse = match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    };
    let verdict = if spread > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    };
    (worse, verdict)
}

/// `perf compare`: one row per (end-to-end metric, workload).
fn compare_command(args: &Args) -> Result<i32, String> {
    args.only(&[])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let (a, b) = (load(a)?, load(b)?);
    let (sa, sb) = (sets_of(&a), sets_of(&b));
    let mut regressed = 0;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "spread", "bound"
    );
    for name in workloads::NAMES {
        for d in metrics::end_to_end() {
            let va = values_of(&sa, name, &d.name);
            let vb = values_of(&sb, name, &d.name);
            if va.is_empty() || vb.is_empty() {
                println!("{name:<12} {:<18} missing from one side", d.name);
                regressed += 1;
                continue;
            }
            let (base, cand) = (median(&va), median(&vb));
            let spread = relative_spread(&va).max(relative_spread(&vb));
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let (worse, verdict) = verdict(base, cand, spread, bound, d.better);
            regressed += usize::from(verdict == "regressed");
            println!(
                "{name:<12} {:<18} {base:>14.6} {cand:>14.6} {:>+7.2}% {:>7.2}% {:>6.0}%  {verdict}",
                d.name,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    let wrong = sb.iter().filter(|s| !set_is_correct(s)).count();
    if wrong > 0 {
        println!("{wrong} candidate set(s) report wrong outputs or failed jobs");
    }
    Ok(if regressed > 0 || wrong > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(1.0, 1.04, 0.01, 0.05, Lower).1, "unchanged");
        assert_eq!(verdict(1.0, 1.06, 0.01, 0.05, Lower).1, "regressed");
        assert_eq!(verdict(1.0, 0.90, 0.01, 0.05, Lower).1, "improved");
        assert_eq!(verdict(100.0, 90.0, 0.01, 0.05, Higher).1, "regressed");
        assert_eq!(verdict(100.0, 110.0, 0.01, 0.05, Higher).1, "improved");
        assert_eq!(verdict(1.0, 2.0, 0.06, 0.05, Lower).1, "unresolved");
        assert!((verdict(100.0, 90.0, 0.0, 0.05, Higher).0 - 0.10).abs() < 1e-12);
    }

    #[test]
    fn spread_comes_from_the_sets_when_there_are_several() {
        assert_eq!(relative_spread(&[10.0]), 0.0);
        assert!((relative_spread(&[9.0, 11.0]) - 0.2).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arguments_parse_and_unknown_options_are_refused() {
        let a = parse_args(&[
            "--seed".into(),
            "9".into(),
            "--quick".into(),
            "x.json".into(),
        ])
        .unwrap();
        assert_eq!(a.num::<u64>("seed", 1), Ok(9));
        assert_eq!(a.num::<u64>("runs", 10), Ok(10));
        assert!(a.quick() && a.positional == ["x.json"]);
        assert!(a.only(&["seed"]).is_err() && a.only(&["seed", "quick"]).is_ok());
        assert!(parse_args(&["--seed".into()]).is_err());
        assert!(a.num::<f64>("quick", 0.0).is_ok());
    }
}
