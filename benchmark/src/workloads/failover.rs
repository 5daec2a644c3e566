//! `sock_s2_failover`: open-loop load on the S2 stack over Unix sockets
//! while the serving primary is crashed on a fixed schedule.
//!
//! Open loop is mandatory here: requests that fall due while no primary
//! serves must be issued and counted, and a closed loop would simply stop
//! asking. Latency runs from the instant a request was *due*, so the
//! wait a stall imposes on later requests is charged to the system.
//!
//! The offered rate is deliberately 150 requests/s over two clients. At
//! 300 requests/s both clients cross the default `SuspicionPolicy`
//! (50 invalid in a window of 100) during the first outage, end up in
//! `Stack::suspects()`, and goodput collapses to 0.11–0.18.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fortress_core::system::{Availability, Stack, StackConfig, SystemClass};
use fortress_net::sock::{SockKind, SockNet, SockTiming};
use fortress_net::{NetEvent, NetStats};

use super::closed::{ClosedLoop, StepClock, Until};
use super::{conserved, note_conditions, Accepted, LoadClient, RunCfg, TICK, TIMEOUT};
use crate::arrivals::{derive, ArrivalSchedule};
use crate::json::Value;
use crate::probes;
use crate::report::Report;
use crate::stats::{median, quantile_sorted, spread_frac, tail_quantile};
use crate::trace::{NoTrace, Span, Trace, Tracer};

/// Timed repetitions per run, each on a fresh stack with its own arrival
/// schedule.
const REPS: usize = 3;
/// Total offered load, requests per second over all clients.
const RATE: f64 = 150.0;
/// Open-loop clients, fewer on a box with fewer processors.
const MAX_CLIENTS: usize = 2;
/// Step of the first crash in a repetition.
const FIRST_CRASH: u64 = 60;
/// Steps between crashes.
const CRASH_PERIOD: u64 = 100;
/// Steps a crashed machine stays down.
const DOWN_STEPS: u64 = 40;
/// Steps a repetition keeps running after its last crash, so the
/// failover completes and the machine is back before the run ends.
const TAIL_STEPS: u64 = 70;
/// Requests issued closed-loop during set-up.
const WARMUP: u64 = 400;
/// How long after the last arrival the driver keeps collecting answers.
const DRAIN_GRACE: Duration = Duration::from_millis(50);
/// A lost request fired this close before a crash was in flight when the
/// machine died; it is charged to the crash.
const IN_FLIGHT_SLACK: Duration = TICK;

struct OpenSlot {
    name: String,
    client: LoadClient,
    arrivals: ArrivalSchedule,
    /// Sequence number → (due, fired) offsets of every request awaiting
    /// an answer.
    pending: HashMap<u64, (Duration, Duration)>,
}

/// One crash and what followed, as offsets from the repetition's start.
#[derive(Clone, Copy, Debug)]
struct Outage {
    crashed_at: Duration,
    /// First verified response to a request due after the crash.
    resumed_at: Option<Duration>,
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    elapsed: Duration,
    attempted: u64,
    served: u64,
    /// Offsets at which the requests never answered were fired.
    lost: Vec<Duration>,
    invalid: u64,
    latencies_ns: Vec<u64>,
    late_ns: Vec<u64>,
    outages: Vec<Outage>,
    avail: Availability,
    net: NetStats,
    suspects: usize,
    spans: Vec<Span>,
}

impl Rep {
    /// Lost requests no crash accounts for: not fired inside
    /// `[crash - slack, service resumed]` of any outage. The fire instant
    /// decides, not the due instant: a generator stalled by the host fires
    /// late, and what the stack did with a request depends on when it got it.
    fn unexplained_losses(&self) -> u64 {
        let end = self.elapsed;
        self.lost
            .iter()
            .filter(|&&fired| {
                !self.outages.iter().any(|o| {
                    fired + IN_FLIGHT_SLACK >= o.crashed_at && fired <= o.resumed_at.unwrap_or(end)
                })
            })
            .count() as u64
    }

    fn unserved_ms(&self) -> Vec<f64> {
        self.outages
            .iter()
            .filter_map(|o| Some((o.resumed_at? - o.crashed_at).as_secs_f64() * 1e3))
            .collect()
    }
}

/// Steps one repetition runs: whole crash periods that fit `budget`,
/// never fewer than one.
fn steps_for(budget: Duration) -> (u64, u64) {
    let steps = (budget.as_secs_f64() / TICK.as_secs_f64()) as u64;
    let crashes = (steps.saturating_sub(FIRST_CRASH + TAIL_STEPS) / CRASH_PERIOD + 1).max(1);
    let needed = FIRST_CRASH + (crashes - 1) * CRASH_PERIOD + TAIL_STEPS;
    (steps.max(needed), crashes)
}

fn rep<Tr: Trace>(cfg: &RunCfg, index: u64, budget: Duration, tr: &mut Tr) -> Rep {
    let t0 = Instant::now();
    let net = SockNet::with_timing(SockKind::Uds, SockTiming::default());
    let stack_cfg = StackConfig {
        class: SystemClass::S2Fortress,
        seed: cfg.seed,
        ..StackConfig::default()
    };
    let stack = Stack::with_transport(stack_cfg, net).expect("stack assembly");
    // Warm up through the closed-loop driver on clients of its own, then
    // take the stack back for the open-loop clients.
    let clients = cfg.threads.clamp(1, MAX_CLIENTS);
    let mut warm = ClosedLoop::new(stack, clients, StepClock::Wall(TICK));
    warm.run(Until::issued(WARMUP), &mut NoTrace);
    let mut stack = warm.stack;
    let (total_steps, crashes) = steps_for(budget);
    let run_for = TICK * total_steps as u32;
    let per_client = (RATE / clients as f64 * run_for.as_secs_f64()).round() as usize;
    let mut slots: Vec<OpenSlot> = (0..clients)
        .map(|i| {
            let name = format!("ol{i}");
            let client = LoadClient::attach(&mut stack, &name);
            let stream = derive(derive(cfg.seed, index), i as u64);
            OpenSlot {
                name,
                client,
                arrivals: ArrivalSchedule::new(stream, per_client, run_for),
                pending: HashMap::new(),
            }
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let mut out = Rep {
        setup_s,
        ..Rep::default()
    };
    let mut events: Vec<NetEvent> = Vec::new();
    let mut down: Option<(usize, u64)> = None;
    let mut step = 1u64;
    let mut next_step_at = TICK;
    let mut round = 0u64;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        let running = now < run_for;
        if !running && out.elapsed.is_zero() {
            // The schedule's window as the generator lived it: the first
            // instant at or past its end.
            out.elapsed = now;
        }
        // Every arrival is due before the window ends, so one more round
        // after it fires the stragglers.
        let settled = slots
            .iter()
            .all(|s| s.arrivals.next_due().is_none() && s.pending.is_empty());
        if !running && (settled || now >= run_for + DRAIN_GRACE) {
            break;
        }
        round += 1;
        tr.set_request(round);
        let root = tr.begin("round");

        // 1. Fire every arrival that is due, whether or not earlier
        //    requests have been answered.
        for slot in &mut slots {
            while let Some(due) = slot.arrivals.next_due().filter(|due| *due <= now) {
                slot.arrivals.advance();
                out.late_ns.push((now - due).as_nanos() as u64);
                let s = tr.begin("core.client.request");
                let req = slot.client.request();
                tr.end(s);
                let s = tr.begin("core.stack.submit");
                stack.submit(&slot.name, &req);
                tr.end(s);
                slot.pending.insert(req.seq, (due, now));
                out.attempted += 1;
            }
        }

        // 2. Drive the stack and collect verified answers.
        let s = tr.begin("core.stack.pump");
        stack.pump();
        tr.end(s);
        let completed = start.elapsed();
        for slot in &mut slots {
            let s = tr.begin("core.stack.drain_client");
            events.clear();
            stack.drain_client_into(&slot.name, &mut events);
            tr.end(s);
            let s = tr.begin("core.client.on_response");
            for ev in &events {
                let Some(payload) = ev.payload() else {
                    continue;
                };
                match slot.client.accept(payload) {
                    Accepted::Answer(seq) => {
                        // An answer to a request already written off
                        // arrives here with no pending entry.
                        let Some((due, _)) = slot.pending.remove(&seq) else {
                            continue;
                        };
                        out.served += 1;
                        out.latencies_ns.push((completed - due).as_nanos() as u64);
                        if let Some(o) = out.outages.last_mut() {
                            if o.resumed_at.is_none() && due >= o.crashed_at {
                                o.resumed_at = Some(completed);
                            }
                        }
                    }
                    Accepted::Redundant => {}
                    Accepted::Invalid => out.invalid += 1,
                }
            }
            tr.end(s);
            // 3. Write off requests past the timeout.
            slot.pending.retain(|_, (due, fired)| {
                let expired = now >= *due + TIMEOUT;
                if expired {
                    out.lost.push(*fired);
                }
                !expired
            });
        }
        tr.end(root);

        // 4. Advance the logical clock; crash and repair on schedule.
        while next_step_at <= now && step <= total_steps {
            if down.is_some_and(|(_, up_at)| step >= up_at) {
                stack.bring_up_server(down.take().expect("checked above").0);
            }
            let nth = step
                .checked_sub(FIRST_CRASH)
                .filter(|d| d % CRASH_PERIOD == 0);
            if nth.is_some_and(|d| d / CRASH_PERIOD < crashes) {
                if let Some(primary) = stack.pb_primary_index() {
                    stack.take_down_server(primary);
                    down = Some((primary, step + DOWN_STEPS));
                    out.outages.push(Outage {
                        crashed_at: start.elapsed(),
                        resumed_at: None,
                    });
                }
            }
            let s = tr.begin("core.stack.end_step");
            stack.end_step();
            tr.end(s);
            step += 1;
            next_step_at += TICK;
        }

        // 5. Sleep only until the next arrival or tick is due.
        let next_arrival = slots.iter().filter_map(|s| s.arrivals.next_due()).min();
        let wake = match next_arrival {
            Some(due) => due.min(next_step_at),
            None if running => next_step_at,
            None => next_step_at.min(run_for + DRAIN_GRACE),
        };
        if let Some(nap) = wake.checked_sub(start.elapsed()) {
            std::thread::sleep(nap);
        }
    }
    // Whatever is still unanswered after the drain grace never will be:
    // a dropped request is not retried.
    for slot in &mut slots {
        out.lost
            .extend(slot.pending.drain().map(|(_, (_, fired))| fired));
    }
    stack.pump();
    out.avail = stack.availability();
    out.net = stack.net_stats();
    out.suspects = stack.suspects().len();
    out
}

fn check_rep(report: &mut Report, index: usize, r: &Rep, crashes: u64) {
    let unexplained = r.unexplained_losses();
    report.attempted += r.attempted;
    report.failed += unexplained;
    report.check(unexplained == 0, || {
        format!("repetition {index}: {unexplained} requests lost outside any crash window")
    });
    report.check(r.served + r.lost.len() as u64 == r.attempted, || {
        format!(
            "repetition {index}: {} served + {} lost != {} attempted",
            r.served,
            r.lost.len(),
            r.attempted
        )
    });
    report.check(r.invalid == 0, || {
        format!(
            "repetition {index}: {} frames failed verification",
            r.invalid
        )
    });
    report.check(r.suspects == 0, || {
        format!(
            "repetition {index}: {} load clients flagged as suspects",
            r.suspects
        )
    });
    report.check(
        r.avail.failovers == crashes && r.avail.recoveries == crashes,
        || {
            format!(
                "repetition {index}: {} failovers and {} recoveries for {crashes} crashes",
                r.avail.failovers, r.avail.recoveries
            )
        },
    );
    report.check(r.unserved_ms().len() as u64 == crashes, || {
        format!(
            "repetition {index}: service resumed after {} of {crashes} crashes",
            r.unserved_ms().len()
        )
    });
    report.check(conserved(&r.net), || {
        format!(
            "repetition {index}: transport counters do not balance: {:?}",
            r.net
        )
    });
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        quantile_sorted(sorted, q) as f64 / 1e3
    }
}

/// Runs `sock_s2_failover` under `cfg`.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    note_conditions(
        &mut report,
        cfg,
        "uds",
        "open loop, Poisson arrivals (count fixed), latency from the due instant",
    );
    report.note(
        "clients",
        Value::Num(cfg.threads.clamp(1, MAX_CLIENTS) as f64),
    );
    report.note("offered_per_s", Value::Num(RATE));
    report.note("tick_ms", Value::Num(TICK.as_secs_f64() * 1e3));
    report.note("timeout_ms", Value::Num(TIMEOUT.as_secs_f64() * 1e3));
    report.note(
        "message_delay",
        Value::Str("host Unix-socket loopback, no link".into()),
    );

    // Traced: one untraced and one traced repetition, then the probes.
    let parts = if cfg.trace { 2 } else { REPS };
    let budget = cfg.part(REPS);
    let (steps, crashes) = steps_for(budget);
    report.note("steps_per_repetition", Value::Num(steps as f64));
    report.note("crashes_per_repetition", Value::Num(crashes as f64));

    let reps: Vec<Rep> = (0..parts)
        .map(|i| {
            if cfg.trace && i == 1 {
                let mut tracer = Tracer::new();
                let mut r = rep(cfg, i as u64, budget, &mut tracer);
                r.spans = tracer.into_spans();
                r
            } else {
                rep(cfg, i as u64, budget, &mut NoTrace)
            }
        })
        .collect();
    for (i, r) in reps.iter().enumerate() {
        check_rep(&mut report, i, r, crashes);
    }

    // With tracing on, every figure comes from the untraced repetition.
    let measured: &[Rep] = if cfg.trace { &reps[..1] } else { &reps };
    let attempted: u64 = measured.iter().map(|r| r.attempted).sum();
    let served: u64 = measured.iter().map(|r| r.served).sum();
    let served_frac = served as f64 / attempted.max(1) as f64;
    let goodput: Vec<f64> = measured
        .iter()
        .map(|r| r.served as f64 / r.elapsed.as_secs_f64())
        .collect();
    // Pooled over the repetitions, like every other figure here.
    let window: f64 = measured.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let pooled_goodput = served as f64 / window.max(1e-9);
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let unserved: Vec<f64> = measured.iter().flat_map(Rep::unserved_ms).collect();
    let unserved_p50 = if unserved.is_empty() {
        0.0
    } else {
        median(&unserved)
    };
    let latencies = sorted(
        measured
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect(),
    );
    let late = sorted(
        measured
            .iter()
            .flat_map(|r| r.late_ns.iter().copied())
            .collect(),
    );
    let tail_q = tail_quantile(latencies.len());

    report.put_def("ops_per_s", pooled_goodput);
    report.put_def("served_frac", served_frac);
    report.put_def("setup_s", median(&setups));
    report.put_def("peak_rss_mb", crate::rss::peak_rss_mb().unwrap_or(0.0));

    if cfg.trace {
        let traced = &reps[1];
        crate::write_trace("sock_s2_failover", &traced.spans, &mut report);
        let avail = measured[0].avail;
        report.put_def("e2e.p50_us", quantile_us(&latencies, 0.5));
        report.put_def("e2e.p99_us", quantile_us(&latencies, tail_q));
        report.put_def("e2e.latency_samples", latencies.len() as f64);
        report.put_def("e2e.unserved_ms_p50", unserved_p50);
        report.put_def("e2e.failed_frac", 1.0 - served_frac);
        let traced_goodput = traced.served as f64 / traced.elapsed.as_secs_f64();
        report.put_def(
            "trace_overhead_frac",
            1.0 - traced_goodput / goodput[0].max(1e-9),
        );
        report.put_def(
            "failover.detect_steps_mean",
            avail.mean_failover_latency().unwrap_or(0.0),
        );
        report.put_def("failover.down_steps", avail.down_steps as f64);
        report.put_def("failover.lost_requests", avail.lost_requests as f64);
        report.put_def("failover.count", avail.failovers as f64);
        report.put_def("failover.served_p50_us", quantile_us(&latencies, 0.5));
        report.put_def(
            "gen.late_p99_us",
            quantile_us(&late, tail_quantile(late.len())),
        );
        report.put_def(
            "net.sock.dead_lettered",
            measured[0].net.dead_lettered as f64,
        );
        report.put_def("net.sock.closures", measured[0].net.closures as f64);
        report.put_def(
            "net.conservation_ok",
            f64::from(u8::from(reps.iter().all(|r| conserved(&r.net)))),
        );
        super::steady::put_span_means(&mut report, &traced.spans);
        probes::run_all(cfg.seed, &mut report);
    } else {
        report.put("requests_per_s", pooled_goodput, "1/s");
        report.put("requests_per_s.spread_frac", spread_frac(&goodput), "frac");
        report.put("unserved_ms_p50", unserved_p50, "ms");
        report.put("unserved_ms.spread_frac", spread_frac(&unserved), "frac");
        report.put("failovers", unserved.len() as f64, "count");
        report.put("failed_frac", 1.0 - served_frac, "frac");
        report.put("p50_us", quantile_us(&latencies, 0.5), "us");
        report.put("p99_us", quantile_us(&latencies, tail_q), "us");
        report.put("p99_us.quantile", tail_q, "frac");
        report.put("latency_samples", latencies.len() as f64, "count");
        report.put(
            "gen.late_p99_us",
            quantile_us(&late, tail_quantile(late.len())),
            "us",
        );
        report.put("setup_s.spread_frac", spread_frac(&setups), "frac");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_hold_whole_crash_periods() {
        // 3.33 s at a 10 ms tick: three crashes (steps 60, 160, 260) and
        // the tail fit in 333 steps.
        assert_eq!(steps_for(Duration::from_millis(3_333)), (333, 3));
        // Too short for even one crash: stretched to the minimum.
        assert_eq!(steps_for(Duration::from_millis(300)), (130, 1));
        assert_eq!(steps_for(Duration::from_secs(20)).1, 19);
    }

    #[test]
    fn losses_inside_a_crash_window_are_explained() {
        let ms = Duration::from_millis;
        let mut r = Rep {
            elapsed: ms(3_000),
            lost: vec![ms(595), ms(600), ms(700), ms(790)],
            outages: vec![Outage {
                crashed_at: ms(600),
                resumed_at: Some(ms(795)),
            }],
            ..Rep::default()
        };
        assert_eq!(r.unexplained_losses(), 0);
        assert_eq!(r.unserved_ms(), vec![195.0]);
        r.lost.push(ms(580)); // well before the crash
        r.lost.push(ms(900)); // after service resumed
        assert_eq!(r.unexplained_losses(), 2);
    }
}
