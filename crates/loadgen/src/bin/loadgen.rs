//! `loadgen` — open-loop load generator and soak harness CLI.
//!
//! Drives the full FORTRESS S2 stack over real kernel sockets, offers an
//! open-loop request schedule, optionally replays a periodic outage
//! schedule against the live primary-backup tier, and emits a flat JSON
//! report.
//!
//! ```text
//! loadgen [--transport tcp|uds] [--clients N] [--rate RPS]
//!         [--duration-secs S] [--tick-ms MS] [--timeout-ms MS]
//!         [--outage-period STEPS] [--outage-down STEPS] [--seed N]
//!         [--settle-ms MS] [--closed-loop] [--out PATH]
//!         [--assert-min-rps X] [--assert-max-p999-ms X]
//!         [--assert-min-failovers N]
//! ```
//!
//! `--closed-loop` runs the soak *twice* — the open-loop discipline
//! first, then the identical config closed-loop (one request in flight
//! per client, think time after each completion) — and emits a single
//! JSON object: the open columns unchanged plus the closed run's
//! headline columns under a `closed_` prefix. The pair makes the
//! coordinated-omission gap between the two disciplines directly
//! readable off one report.
//!
//! The `--assert-*` flags make the binary self-checking for CI: when any
//! bound is violated the report still prints, but the process exits
//! nonzero with the violated bound named on stderr. Asserts always apply
//! to the open-loop run.

use std::process::ExitCode;
use std::time::Duration;

use fortress_loadgen::{run_soak, SoakConfig};
use fortress_net::sock::SockKind;
use fortress_sim::outage::OutageSpec;

struct Asserts {
    min_rps: Option<f64>,
    max_p999_ms: Option<f64>,
    min_failovers: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--transport tcp|uds] [--clients N] [--rate RPS] \
         [--duration-secs S] [--tick-ms MS] [--timeout-ms MS] \
         [--outage-period STEPS] [--outage-down STEPS] [--seed N] \
         [--settle-ms MS] [--closed-loop] [--out PATH] \
         [--assert-min-rps X] [--assert-max-p999-ms X] [--assert-min-failovers N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(raw) = value else {
        eprintln!("loadgen: {flag} needs a value");
        usage();
    };
    match raw.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("loadgen: bad value `{raw}` for {flag}");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = SoakConfig::default();
    let mut outage_period: u64 = 0;
    let mut outage_down: u64 = 40;
    let mut out_path: Option<String> = None;
    let mut paired_closed = false;
    let mut asserts = Asserts {
        min_rps: None,
        max_p999_ms: None,
        min_failovers: None,
    };

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--transport" => {
                let v: String = parse(&flag, argv.next());
                cfg.kind = match v.as_str() {
                    "tcp" => SockKind::Tcp,
                    #[cfg(unix)]
                    "uds" => SockKind::Uds,
                    _ => {
                        eprintln!("loadgen: unknown transport `{v}`");
                        usage();
                    }
                };
            }
            "--clients" => cfg.clients = parse(&flag, argv.next()),
            "--rate" => cfg.rate = parse(&flag, argv.next()),
            "--duration-secs" => {
                cfg.duration = Duration::from_secs_f64(parse(&flag, argv.next()));
            }
            "--tick-ms" => cfg.tick = Duration::from_millis(parse(&flag, argv.next())),
            "--timeout-ms" => cfg.timeout = Duration::from_millis(parse(&flag, argv.next())),
            "--outage-period" => outage_period = parse(&flag, argv.next()),
            "--outage-down" => outage_down = parse(&flag, argv.next()),
            "--seed" => cfg.seed = parse(&flag, argv.next()),
            "--settle-ms" => {
                cfg.timing.settle_timeout = Duration::from_millis(parse(&flag, argv.next()));
            }
            "--closed-loop" => paired_closed = true,
            "--out" => out_path = Some(parse(&flag, argv.next())),
            "--assert-min-rps" => asserts.min_rps = Some(parse(&flag, argv.next())),
            "--assert-max-p999-ms" => asserts.max_p999_ms = Some(parse(&flag, argv.next())),
            "--assert-min-failovers" => asserts.min_failovers = Some(parse(&flag, argv.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown flag `{other}`");
                usage();
            }
        }
    }
    if outage_period > 0 {
        cfg.outage = OutageSpec::Periodic {
            period: outage_period,
            downtime: outage_down.max(1),
        };
    }

    eprintln!(
        "loadgen: {} | {} clients | {:.0} rps offered | {:.1}s | tick {:?} | outage {}",
        cfg.kind.label(),
        cfg.clients,
        cfg.rate,
        cfg.duration.as_secs_f64(),
        cfg.tick,
        cfg.outage.label(),
    );
    let report = run_soak(&cfg);
    let json = if paired_closed {
        eprintln!("loadgen: open-loop pass done; re-running closed-loop");
        let closed = run_soak(&SoakConfig { closed_loop: true, ..cfg });
        report.to_paired_json(&closed)
    } else {
        report.to_json()
    };
    print!("{json}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("loadgen: report written to {path}");
    }

    let mut failed = false;
    if let Some(min) = asserts.min_rps {
        if report.rps < min {
            eprintln!("loadgen: ASSERT FAILED: rps {:.1} < {min:.1}", report.rps);
            failed = true;
        }
    }
    if let Some(max_ms) = asserts.max_p999_ms {
        let p999_ms = report.p999_us as f64 / 1000.0;
        if p999_ms > max_ms {
            eprintln!("loadgen: ASSERT FAILED: p999 {p999_ms:.1} ms > {max_ms:.1} ms");
            failed = true;
        }
    }
    if let Some(min) = asserts.min_failovers {
        if report.failovers < min {
            eprintln!(
                "loadgen: ASSERT FAILED: failovers {} < {min}",
                report.failovers
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
