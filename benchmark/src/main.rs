//! One benchmark for the whole lab: six workloads, one process each.
//!
//! ```text
//! fortress-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! fortress-benchmark --probes [--seed N]
//! fortress-benchmark --all [--seed N] [--seconds S]
//! fortress-benchmark --repeat-check [--seed N] [--seconds S]
//! ```
//!
//! A workload run prints a human-readable table on standard error and two
//! JSON lines on standard output: the detail line (run conditions and
//! every named value with its unit) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) of `BENCHMARK.json`. The exit code is 0 only if every
//! oracle held.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod json;
mod metrics;
mod orchestrate;
mod probes;
mod report;
mod rss;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::Report;
use workloads::steady::Steady;
use workloads::sweep::Sweep;
use workloads::{machine_cores, RunCfg};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0xF047;

/// Directory (relative to the harness's own) for trace files and sockets.
const OUT_DIR: &str = "out";

/// What the command line asked for.
#[derive(Clone, Debug, PartialEq)]
enum Mode {
    Workload(String),
    Probes,
    All,
    RepeatCheck,
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: fortress-benchmark (--workload <name> | --probes | --all | --repeat-check) \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = args.iter();
    let mut set_mode = |m: Mode| match mode.replace(m) {
        None => Ok(()),
        Some(_) => {
            Err("give exactly one of --workload, --probes, --all, --repeat-check".to_string())
        }
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if runner_for(name).is_none() {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}`; one of {}",
                        names.join(", ")
                    ));
                }
                set_mode(Mode::Workload(name.clone()))?;
            }
            "--probes" => set_mode(Mode::Probes)?,
            "--all" => set_mode(Mode::All)?,
            "--repeat-check" => set_mode(Mode::RepeatCheck)?,
            "--seed" => {
                let v = value()?;
                seed = parse_seed(v).ok_or_else(|| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds wants a number in (0, 60], got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("no mode given")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes a traced run's spans to `out/trace-<workload>.jsonl`; a failure
/// to write is a warning, the aggregates do not depend on the file.
pub fn write_trace(workload: &str, spans: &[trace::Span], report: &mut Report) {
    let path = format!("{OUT_DIR}/trace-{workload}.jsonl");
    let written = std::fs::File::create(&path)
        .and_then(|f| trace::write_jsonl(spans, &mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => {
            report.note("trace_file", json::Value::Str(format!("benchmark/{path}")));
            report.note("trace_spans", json::Value::Num(spans.len() as f64));
        }
        Err(e) => report.warnings.push(format!("could not write {path}: {e}")),
    }
}

/// The function that runs workload `name`, if there is such a workload.
fn runner_for(name: &str) -> Option<fn(&RunCfg) -> Report> {
    Some(match name {
        "sim_s2_steady" => |cfg| workloads::steady::run(Steady::SimS2, cfg),
        "sim_s0_steady" => |cfg| workloads::steady::run(Steady::SimS0, cfg),
        "sock_s2_closed" => |cfg| workloads::steady::run(Steady::SockS2, cfg),
        "sock_s2_failover" => workloads::failover::run,
        "sweep_paper" => |cfg| workloads::sweep::run(Sweep::Paper, cfg),
        "sweep_repair" => |cfg| workloads::sweep::run(Sweep::Repair, cfg),
        _ => return None,
    })
}

/// Prints the table a person reads, on standard error.
fn print_table(title: &str, report: &Report) {
    eprintln!("== {title}");
    for (key, value) in &report.info {
        eprintln!("   {key}: {}", value.render());
    }
    for m in &report.metrics {
        eprintln!("   {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for w in &report.warnings {
        eprintln!("   warning: {w}");
    }
    for v in &report.violations {
        eprintln!("   ORACLE VIOLATED: {v}");
    }
}

/// Moves into the harness's own directory and points temporary files
/// (the transport's Unix-socket directories) into it, so a run reads and
/// writes nothing outside its checkout. The relative `TMPDIR` also keeps
/// socket paths short enough for `sockaddr_un` however deep the checkout.
fn enter_harness_dir() -> Result<(), String> {
    let dir = env!("CARGO_MANIFEST_DIR");
    std::env::set_current_dir(dir).map_err(|e| format!("cannot enter {dir}: {e}"))?;
    let tmp = format!("{OUT_DIR}/tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {dir}/{tmp}: {e}"))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = enter_harness_dir() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: machine_cores(),
    };
    let ok = match &args.mode {
        Mode::Workload(name) => {
            let run = runner_for(name).expect("name checked while parsing arguments");
            let report = run(&cfg);
            let why = WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .map_or("", |w| w.why);
            print_table(&format!("{name}: {why}"), &report);
            println!("{}", report.detail_line(name));
            println!(
                "{}",
                report.contract_line(if cfg.trace { PER_LAYER } else { END_TO_END })
            );
            report.correct()
        }
        Mode::Probes => {
            let mut report = Report::default();
            workloads::note_conditions(&mut report, &cfg, "none", "isolated calls");
            probes::run_all(cfg.seed, &mut report);
            print_table("probes", &report);
            println!("{}", report.detail_line("probes"));
            true
        }
        Mode::All => orchestrate::run_all(&cfg),
        Mode::RepeatCheck => orchestrate::repeat_check(&cfg),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "sweep_repair",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.mode, Mode::Workload("sweep_repair".into()));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 10.0, true));
    }

    #[test]
    fn defaults_and_hex_seeds() {
        let a = args(&["--all"]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, RUN_SECONDS as f64, false)
        );
        assert_eq!(
            args(&["--probes", "--seed", "0xBEEF"]).unwrap().seed,
            0xBEEF
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--all", "--probes"],
            &["--all", "--seconds", "0"],
            &["--all", "--seconds", "61"],
            &["--all", "--trace", "2"],
            &["--all", "--seed", "x"],
            &["--all", "--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn the_table_and_the_dispatch_list_the_same_workloads() {
        assert!(WORKLOADS.iter().all(|w| runner_for(w.name).is_some()));
        assert!(runner_for("sim_s1_steady").is_none());
    }
}
