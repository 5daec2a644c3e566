//! Whole-set runs: every workload in a process of its own, merged into
//! one JSON document, and the repeat check that compares two such sets.

use std::process::{Command, Stdio};

use crate::json::{obj, parse, Value};
use crate::metrics::WORKLOADS;
use crate::stats::median;
use crate::workloads::{machine_cores, RunCfg};

/// Seed of the repeat check's third set, so a seed other than the default
/// is exercised through every stack, arrival stream and sweep.
const OTHER_SEED: u64 = 0xBEEF;

/// The two JSON lines one workload process printed.
struct ChildResult {
    detail: Value,
    result: Value,
}

/// Runs one workload in a child process and waits for it. The child's
/// table goes straight to our standard error.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let mut line = |what: &str| {
        let text = lines
            .next()
            .ok_or_else(|| format!("{workload} ({}) printed no {what} line", output.status))?;
        parse(text).map_err(|e| format!("{workload}: {what} line is not JSON: {e}"))
    };
    let result = line("result")?;
    let detail = line("detail")?;
    if !output.status.success() {
        eprintln!("!! {workload} exited with {}", output.status);
    }
    Ok(ChildResult { detail, result })
}

fn is_correct(result: &Value) -> bool {
    result.get("correct").and_then(Value::as_bool) == Some(true)
}

/// Runs every workload untraced, then every workload traced (the traced
/// run includes the probes), and prints one JSON document on standard
/// output. Returns whether every run was correct.
pub fn run_all(cfg: &RunCfg) -> bool {
    let mut ok = true;
    let mut merged: Vec<(String, Vec<(String, Value)>)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_owned(), Vec::new()))
        .collect();
    for trace in [false, true] {
        for (w, (_, entry)) in WORKLOADS.iter().zip(&mut merged) {
            match run_child(w.name, cfg.seed, cfg.seconds, trace) {
                Ok(child) => {
                    ok &= is_correct(&child.result);
                    let (result_key, detail_key) = if trace {
                        ("per_layer", "traced")
                    } else {
                        ("end_to_end", "untraced")
                    };
                    entry.push((result_key.into(), child.result));
                    entry.push((detail_key.into(), child.detail));
                }
                Err(e) => {
                    eprintln!("!! {e}");
                    ok = false;
                }
            }
        }
    }
    let doc = obj([
        ("machine_cores", Value::Num(machine_cores() as f64)),
        ("threads", Value::Num(cfg.threads as f64)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("correct", Value::Bool(ok)),
        (
            "workloads",
            obj(merged.into_iter().map(|(k, v)| (k, Value::Obj(v)))),
        ),
    ]);
    println!("{}", doc.render());
    ok
}

/// Direction-free relative difference of two positive measurements.
fn rel_diff(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid
    }
}

/// The end-to-end bounds of `BENCHMARK.json`, which sits beside the
/// harness directory.
fn manifest_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("../BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let manifest = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs of each workload per set in the repeat check.
const RUNS_PER_SET: usize = 3;

/// The sets of the repeat check: label and seed.
fn sets(seed: u64) -> [(&'static str, u64); 3] {
    let other = if seed == OTHER_SEED {
        OTHER_SEED + 1
    } else {
        OTHER_SEED
    };
    [
        ("set 1", seed),
        ("set 2 (same seed)", seed),
        ("set 3 (other seed)", other),
    ]
}

/// Runs every workload [`RUNS_PER_SET`] times in each of three sets — two
/// with `cfg.seed`, one with another seed — and fails if any run is
/// incorrect or the median of any end-to-end metric in a later set
/// differs from the first set's by more than its bound in
/// `BENCHMARK.json`. Prints every pair of medians and its difference.
///
/// The sets' runs are interleaved (1, 2, 3, 1, 2, 3, …), so a slow phase of
/// the host, which lasts longer than a run, falls on all sets alike; single
/// runs taken minutes apart differ by more than any bound on such a box.
pub fn repeat_check(cfg: &RunCfg) -> bool {
    let bounds = match manifest_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("!! {e}");
            return false;
        }
    };
    let sets = sets(cfg.seed);
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        // values[set][metric] = one value per run.
        let mut values = vec![vec![Vec::new(); bounds.len()]; sets.len()];
        for _ in 0..RUNS_PER_SET {
            for (per_metric, (_, seed)) in values.iter_mut().zip(&sets) {
                match run_child(w.name, *seed, cfg.seconds, false) {
                    Ok(child) => {
                        ok &= is_correct(&child.result);
                        for (runs, (name, _)) in per_metric.iter_mut().zip(&bounds) {
                            match metric_value(&child.result, name) {
                                Some(v) => runs.push(v),
                                None => {
                                    eprintln!("!! {}: `{name}` missing from a result line", w.name);
                                    ok = false;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("!! {e}");
                        ok = false;
                    }
                }
            }
        }
        for (later, (label, _)) in values.iter().zip(&sets).skip(1) {
            for ((first, later), (name, bound)) in values[0].iter().zip(later).zip(&bounds) {
                if first.is_empty() || later.is_empty() {
                    continue; // already reported above
                }
                let (x, y) = (median(first), median(later));
                let diff = rel_diff(x, y);
                let within = diff <= *bound;
                ok &= within;
                eprintln!(
                    "{:<18} {:<18} {:<12} {:>14.4} {:>14.4}  diff {:>7.4}  bound {:>5.2}  {}",
                    label,
                    w.name,
                    name,
                    x,
                    y,
                    diff,
                    bound,
                    if within { "ok" } else { "OUTSIDE BOUND" }
                );
                rows.push(obj([
                    ("compared", Value::Str((*label).into())),
                    ("workload", Value::Str(w.name.into())),
                    ("metric", Value::Str(name.clone())),
                    ("first_median", Value::Num(x)),
                    ("later_median", Value::Num(y)),
                    (
                        "first_runs",
                        Value::Arr(first.iter().copied().map(Value::Num).collect()),
                    ),
                    (
                        "later_runs",
                        Value::Arr(later.iter().copied().map(Value::Num).collect()),
                    ),
                    ("diff_frac", Value::Num(diff)),
                    ("bound", Value::Num(*bound)),
                    ("within", Value::Bool(within)),
                ]));
            }
        }
    }
    let doc = obj([
        ("repeat_check_passed", Value::Bool(ok)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("other_seed", Value::Num(sets[2].1 as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("runs_per_set", Value::Num(RUNS_PER_SET as f64)),
        ("comparisons", Value::Arr(rows)),
    ]);
    println!("{}", doc.render());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_is_symmetric() {
        assert!((rel_diff(90.0, 110.0) - 0.2).abs() < 1e-12);
        assert_eq!(rel_diff(90.0, 110.0), rel_diff(110.0, 90.0));
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(5.0, 5.0), 0.0);
    }

    #[test]
    fn the_third_set_runs_on_another_seed() {
        for seed in [crate::DEFAULT_SEED, OTHER_SEED] {
            let [(_, a), (_, b), (_, c)] = sets(seed);
            assert_eq!((a, b), (seed, seed));
            assert_ne!(c, seed);
        }
    }

    #[test]
    fn result_lines_are_read_by_metric_name() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                    \"metrics\": {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}";
        let v = parse(line).unwrap();
        assert!(is_correct(&v));
        assert_eq!(metric_value(&v, "ops_per_s"), Some(12.5));
        assert_eq!(metric_value(&v, "setup_s"), None);
        assert!(!is_correct(&parse("{\"correct\": false}").unwrap()));
    }
}
