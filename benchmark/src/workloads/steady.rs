//! The three closed-loop request workloads: `sim_s2_steady`,
//! `sim_s0_steady` (in process, over `SimNet`) and `sock_s2_closed`
//! (over Unix-domain sockets).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_net::sock::{SockKind, SockNet, SockTiming};
use fortress_net::{NetStats, Transport};

use super::closed::{ClosedLoop, Segment, StepClock, Until, SLICE};
use super::{conserved, note_conditions, RunCfg, REPS, TICK};
use crate::json::Value;
use crate::probes;
use crate::report::Report;
use crate::stats::{best_of_aligned, median, quantile_sorted, spread_frac, tail_quantile};
use crate::trace::{layer_totals, LayerTotal, NoTrace, Span, Tracer};

/// Which closed-loop workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steady {
    /// `sim_s2_steady`.
    SimS2,
    /// `sim_s0_steady`.
    SimS0,
    /// `sock_s2_closed`.
    SockS2,
}

impl Steady {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Steady::SimS2 => "sim_s2_steady",
            Steady::SimS0 => "sim_s0_steady",
            Steady::SockS2 => "sock_s2_closed",
        }
    }

    fn class(self) -> SystemClass {
        match self {
            Steady::SimS0 => SystemClass::S0Smr,
            Steady::SimS2 | Steady::SockS2 => SystemClass::S2Fortress,
        }
    }

    /// Clients, each with one request in flight. The in-process stack is
    /// single-threaded, so one client saturates it; over sockets two
    /// clients share each transport settle wait.
    fn clients(self, threads: usize) -> usize {
        match self {
            Steady::SockS2 => threads.clamp(1, 2),
            _ => 1,
        }
    }

    /// Requests issued during set-up, before the first timed one.
    fn warmup(self) -> u64 {
        match self {
            Steady::SockS2 => 400,
            _ => 2_000,
        }
    }

    /// Requests per second of time budget the timed work is sized by:
    /// roughly what the reference box (2 cores) sustains, so a run given
    /// `--seconds` takes about that long there. On S0, where cost grows
    /// with the log, it is the average over a 2 s repetition.
    fn nominal_rate(self) -> f64 {
        match self {
            Steady::SimS2 => 14_000.0,
            Steady::SimS0 => 6_500.0,
            Steady::SockS2 => 4_500.0,
        }
    }

    /// The work of one repetition that is given `part` of the run's time.
    fn work(self, part: Duration) -> Until {
        Until {
            issued: (self.nominal_rate() * part.as_secs_f64()).ceil() as u64,
            guard: part.mul_f64(1.5),
        }
    }

    fn clock(self) -> StepClock {
        match self {
            Steady::SockS2 => StepClock::Wall(TICK),
            _ => StepClock::EveryRequests(16),
        }
    }
}

/// One repetition: a fresh set-up and one timed segment.
struct Rep {
    setup_s: f64,
    seg: Segment,
    net: NetStats,
    net_before: NetStats,
    suspects: usize,
    spans: Vec<Span>,
}

fn stack_cfg(kind: Steady, seed: u64) -> StackConfig {
    StackConfig {
        class: kind.class(),
        seed,
        ..StackConfig::default()
    }
}

fn rep_on<T: Transport>(
    kind: Steady,
    cfg: &RunCfg,
    until: Until,
    traced: bool,
    build: impl FnOnce() -> Stack<T>,
) -> Rep {
    let t0 = Instant::now();
    let mut lp = ClosedLoop::new(build(), kind.clients(cfg.threads), kind.clock());
    lp.run(Until::issued(kind.warmup()), &mut NoTrace);
    let setup_s = t0.elapsed().as_secs_f64();

    let net_before = lp.stack.net_stats();
    let (seg, spans) = if traced {
        let mut tracer = Tracer::new();
        let seg = lp.run(until, &mut tracer);
        (seg, tracer.into_spans())
    } else {
        (lp.run(until, &mut NoTrace), Vec::new())
    };
    // Let whatever the last round left in flight settle before the
    // conservation check reads the counters.
    lp.stack.pump();
    Rep {
        setup_s,
        seg,
        net: lp.stack.net_stats(),
        net_before,
        suspects: lp.stack.suspects().len(),
        spans,
    }
}

fn rep(kind: Steady, cfg: &RunCfg, until: Until, traced: bool) -> Rep {
    match kind {
        Steady::SockS2 => rep_on(kind, cfg, until, traced, || {
            let net = SockNet::with_timing(SockKind::Uds, SockTiming::default());
            Stack::with_transport(stack_cfg(kind, cfg.seed), net).expect("stack assembly")
        }),
        _ => rep_on(kind, cfg, until, traced, || {
            Stack::new(stack_cfg(kind, cfg.seed)).expect("stack assembly")
        }),
    }
}

fn rate(r: &Rep) -> f64 {
    r.seg.answered as f64 / r.seg.elapsed.as_secs_f64().max(1e-9)
}

/// Checks one repetition's oracles and folds its counts into `report`.
fn check_rep(report: &mut Report, index: usize, r: &Rep) {
    report.attempted += r.seg.issued;
    report.failed += r.seg.timed_out;
    report.check(r.seg.answered == r.seg.issued, || {
        format!(
            "repetition {index}: {} verified responses for {} requests",
            r.seg.answered, r.seg.issued
        )
    });
    report.check(r.seg.invalid == 0, || {
        format!(
            "repetition {index}: {} frames failed verification",
            r.seg.invalid
        )
    });
    report.check(conserved(&r.net), || {
        format!(
            "repetition {index}: transport counters do not balance: {:?}",
            r.net
        )
    });
    report.check(r.suspects == 0, || {
        format!(
            "repetition {index}: {} load clients flagged as suspects",
            r.suspects
        )
    });
}

/// Pooled latency figures of the given repetitions:
/// `(p50_us, tail_us, tail quantile, samples)`.
fn latency(reps: &[&Rep]) -> (f64, f64, f64, usize) {
    let mut all: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.seg.latencies_ns.iter().copied())
        .collect();
    if all.is_empty() {
        return (0.0, 0.0, 0.5, 0);
    }
    all.sort_unstable();
    let q = tail_quantile(all.len());
    (
        quantile_sorted(&all, 0.5) as f64 / 1e3,
        quantile_sorted(&all, q) as f64 / 1e3,
        q,
        all.len(),
    )
}

/// Records the mean self time of each request-path span as its layer
/// metric and returns the per-layer totals.
pub fn put_span_means(report: &mut Report, spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let totals = layer_totals(spans);
    for (span, metric) in [
        ("core.client.request", "core.client.request_ns"),
        ("core.client.on_response", "core.client.on_response_ns"),
        ("core.stack.submit", "core.stack.submit_ns"),
        ("core.stack.pump", "core.stack.pump_ns"),
        ("core.stack.drain_client", "core.stack.drain_client_ns"),
        ("core.stack.end_step", "core.stack.end_step_ns"),
    ] {
        report.put_def(metric, totals.get(span).map_or(0.0, |t| t.mean_self_ns()));
    }
    totals
}

/// Runs `kind` under `cfg`.
pub fn run(kind: Steady, cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let transport = match kind {
        Steady::SockS2 => "uds",
        _ => "simnet",
    };
    note_conditions(&mut report, cfg, transport, "closed loop, zero think time");
    report.note("clients", Value::Num(kind.clients(cfg.threads) as f64));
    match kind {
        Steady::SockS2 => {
            report.note("tick_ms", Value::Num(TICK.as_secs_f64() * 1e3));
            report.note(
                "message_delay",
                Value::Str("host Unix-socket loopback, no link".into()),
            );
        }
        _ => report.note(
            "message_delay",
            Value::Str(
                "none injected (SimNet latencies are logical steps): processor time only".into(),
            ),
        ),
    }

    if cfg.trace {
        run_traced(kind, cfg, &mut report);
    } else {
        run_untraced(kind, cfg, &mut report);
    }
    report.put_def("peak_rss_mb", crate::rss::peak_rss_mb().unwrap_or(0.0));
    report
}

fn run_untraced(kind: Steady, cfg: &RunCfg, report: &mut Report) {
    // Every repetition replays the same requests, so slices align.
    let work = kind.work(cfg.part(REPS));
    let reps: Vec<Rep> = (0..REPS).map(|_| rep(kind, cfg, work, false)).collect();
    for (i, r) in reps.iter().enumerate() {
        check_rep(report, i, r);
    }
    let slices: Vec<&[f64]> = reps.iter().map(|r| &r.seg.slice_secs[..]).collect();
    let (n_slices, best_secs) = best_of_aligned(&slices);
    let best_rate = (n_slices as u64 * SLICE) as f64 / best_secs.max(1e-9);
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let (p50, tail, q, n) = latency(&reps.iter().collect::<Vec<_>>());
    let served = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;

    report.put("requests_per_s", best_rate, "1/s");
    report.put("requests_per_s.median_of_reps", median(&rates), "1/s");
    report.put("requests_per_s.spread_frac", spread_frac(&rates), "frac");
    report.put("p50_us", p50, "us");
    report.put("p99_us", tail, "us");
    report.put("p99_us.quantile", q, "frac");
    report.put("latency_samples", n as f64, "count");
    report.put("failed_frac", 1.0 - served, "frac");
    report.put("setup_s.spread_frac", spread_frac(&setups), "frac");
    report.put_def("ops_per_s", best_rate);
    report.put_def("served_frac", served);
    report.put_def("setup_s", median(&setups));
}

fn run_traced(kind: Steady, cfg: &RunCfg, report: &mut Report) {
    // One untraced and one traced repetition of the untraced run's size,
    // then the probes.
    let until = kind.work(cfg.part(REPS));
    let plain = rep(kind, cfg, until, false);
    let traced = rep(kind, cfg, until, true);
    check_rep(report, 0, &plain);
    check_rep(report, 1, &traced);
    crate::write_trace(kind.name(), &traced.spans, report);

    let (p50, tail, _, n) = latency(&[&plain]);
    let failed = plain.seg.timed_out as f64 / plain.seg.issued.max(1) as f64;
    report.put_def("e2e.p50_us", p50);
    report.put_def("e2e.p99_us", tail);
    report.put_def("e2e.latency_samples", n as f64);
    report.put_def("e2e.failed_frac", failed);
    report.put_def(
        "trace_overhead_frac",
        1.0 - rate(&traced) / rate(&plain).max(1e-9),
    );

    let totals = put_span_means(report, &traced.spans);
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ns());
    let answered = traced.seg.answered.max(1) as f64;
    report.put_def(
        "core.stack.pumps_per_request",
        traced.seg.pumps as f64 / answered,
    );
    let delivered = traced.net.delivered - traced.net_before.delivered;
    report.put_def("net.deliveries_per_request", delivered as f64 / answered);
    report.put_def(
        "net.conservation_ok",
        f64::from(u8::from(conserved(&plain.net) && conserved(&traced.net))),
    );
    if kind == Steady::SockS2 {
        let pump = totals.get("core.stack.pump").copied().unwrap_or_default();
        let sent = traced.net.sent - traced.net_before.sent;
        report.put_def("net.sock.frames_per_request", sent as f64 / answered);
        report.put_def("net.sock.pump_us_mean", pump.mean_self_ns() / 1e3);
        report.put_def("net.sock.pump_us_max", pump.max_ns as f64 / 1e3);
        report.put_def("net.sock.dead_lettered", traced.net.dead_lettered as f64);
        report.put_def("net.sock.closures", traced.net.closures as f64);
    }

    let p = probes::run_all(cfg.seed, report);
    match kind {
        Steady::SimS2 => {
            // Reconcile the probes with this run's own untraced figure.
            let request_ns = 1e9 / rate(&plain).max(1e-9);
            // One span of each per request: the `on_response` span covers
            // all three proxy responses a request draws.
            let client_ns = mean("core.client.request")
                + mean("core.client.on_response")
                + mean("core.stack.drain_client");
            let frac = (client_ns + p.interior_ns) / request_ns;
            report.put_def("budget.sim_s2.request_ns", request_ns);
            report.put_def("budget.sim_s2.layer_sum_frac", frac);
            if !(0.7..=1.3).contains(&frac) {
                report.warnings.push(format!(
                    "layer sum is {frac:.2} of the measured request time (tolerance 0.7-1.3)"
                ));
            }
        }
        Steady::SockS2 => {
            report.put_def(
                "budget.sock_s2.cpu_frac",
                p.sim_s2_request_ns / (p50 * 1e3).max(1e-9),
            );
        }
        Steady::SimS0 => {}
    }

    // The contract's end-to-end keys are printed only with tracing off,
    // but the report carries them so a traced run reads the same way.
    report.put_def("ops_per_s", rate(&plain));
    report.put_def("served_frac", 1.0 - failed);
    report.put_def("setup_s", median(&[plain.setup_s, traced.setup_s]));
}
