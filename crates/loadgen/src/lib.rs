//! Open-loop load generator and wall-clock soak harness for the FORTRESS
//! stack over real kernel sockets.
//!
//! The harness assembles the *identical* `Stack<T>` the simulations use —
//! same proxies, same primary-backup tier, same wire envelope — but over
//! [`SockNet`], so every request crosses the kernel (TCP loopback or a
//! Unix-domain socket). On top of it:
//!
//! * **Open-loop arrivals.** Each client owns a seeded exponential
//!   inter-arrival stream (total offered load split evenly), and requests
//!   fire on schedule whether or not earlier ones have completed. Latency
//!   is measured from the *scheduled* arrival, so queueing delay is
//!   charged to the system — the open-loop discipline that avoids
//!   coordinated omission.
//! * **Closed-loop arrivals** ([`SoakConfig::closed_loop`]): each client
//!   keeps at most one request in flight and draws an exponential think
//!   time after every completion, the discipline most benchmarks
//!   accidentally run. Latency is measured from the issue instant. The
//!   CLI's `--closed-loop` flag runs *both* disciplines back to back and
//!   emits the paired columns, so the coordinated-omission gap between
//!   them is a first-class number.
//! * **HDR-style histograms** ([`hist::Histogram`]): p50/p99/p999 with
//!   bounded relative error and O(1) allocation-free recording.
//! * **Soak mode**: an [`OutageSpec`] replays machine outages against the
//!   real socket stack while load is offered, and the report splits tail
//!   latency into steady-state vs outage-window samples so the
//!   failover-induced p999 spike is a first-class number.
//!
//! The logical clock advances one `Stack::end_step` per configured tick of
//! wall time; PB failure detection (heartbeat silence → view change) runs
//! on that clock, so a 10 ms tick puts the paper's 20-step failover
//! timeout at ≈ 200 ms of wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fortress_core::client::FortressClient;
use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_core::wire::WireMsg;
use fortress_net::sock::{SockKind, SockNet, SockTiming};
use fortress_net::NetEvent;
use fortress_sim::outage::{OutageDriver, OutageSpec};
use fortress_sim::runner::trial_seed;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The benign service operation every generated request carries.
const OP: &[u8] = b"PUT k v";

/// Per-client stream index folded into the arrival-seed derivation, so
/// arrival schedules are decorrelated from the stack's protocol streams.
const ARRIVAL_STREAM: u64 = 0x10AD_6E57;

/// Soak-run configuration. Construct with [`SoakConfig::default`] and
/// override fields.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Socket family to run over.
    pub kind: SockKind,
    /// Concurrent clients (each with its own listener and connections).
    pub clients: usize,
    /// Total offered load, requests per second across all clients.
    pub rate: f64,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Wall time per logical step (heartbeats, failure detection,
    /// re-randomization all run on the step clock).
    pub tick: Duration,
    /// A request unanswered this long is counted as lost and dropped
    /// from the pending table; a reply arriving later counts as late.
    pub timeout: Duration,
    /// Outage schedule replayed against the live stack (in steps).
    pub outage: OutageSpec,
    /// Master seed: stack assembly, key draws, arrival schedules.
    pub seed: u64,
    /// The socket transport's settle timeout.
    pub timing: SockTiming,
    /// Arrival discipline: `false` (default) is open-loop — requests
    /// fire on schedule regardless of completions; `true` is closed-loop
    /// — each client holds at most one request in flight and thinks for
    /// an exponential gap (same mean) after each completion or timeout,
    /// with latency charged from the issue instant.
    pub closed_loop: bool,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            kind: SockKind::Tcp,
            clients: 64,
            rate: 400.0,
            duration: Duration::from_secs(5),
            tick: Duration::from_millis(10),
            timeout: Duration::from_millis(1000),
            outage: OutageSpec::None,
            seed: 1,
            timing: SockTiming::default(),
            closed_loop: false,
        }
    }
}

/// Everything a soak run measured, flattened for JSON emission (one
/// scalar per key, so reading a column is a plain grep).
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Transport label (`tcp` / `uds`).
    pub transport: String,
    /// Concurrent clients.
    pub clients: usize,
    /// Measured wall-clock run length in seconds.
    pub duration_secs: f64,
    /// Logical steps executed.
    pub steps: u64,
    /// Requests submitted.
    pub requests_sent: u64,
    /// Requests answered with a valid doubly-signed response in time.
    pub responses_ok: u64,
    /// Requests that hit the client timeout unanswered.
    pub timeouts: u64,
    /// Valid responses that arrived after their request timed out.
    pub late_responses: u64,
    /// Achieved throughput: valid responses per second.
    pub rps: f64,
    /// `responses_ok / requests_sent`.
    pub goodput: f64,
    /// Median latency, microseconds. All quantiles are over completed
    /// requests only; a request that timed out is counted in
    /// [`SoakReport::timeouts`] and lowers [`SoakReport::goodput`], the
    /// loss columns.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Worst observed latency, microseconds (exact).
    pub max_us: u64,
    /// p999 over completed requests that never overlapped a failover
    /// window.
    pub steady_p999_us: u64,
    /// p999 over completed requests overlapping a no-serving-primary
    /// window.
    pub outage_p999_us: u64,
    /// `outage_p999_us / steady_p999_us` (0 when either side is empty).
    pub p999_spike: f64,
    /// Completed requests classified into the outage-window histogram.
    pub outage_samples: u64,
    /// Machine outages injected.
    pub outages: u64,
    /// PB failovers observed.
    pub failovers: u64,
    /// Completed failover windows.
    pub recoveries: u64,
    /// Mean completed-failover latency in steps (0 when none completed).
    pub failover_mean_steps: f64,
    /// Steps with no serving primary.
    pub down_steps: u64,
    /// Deliveries dead-lettered while a server machine was down.
    pub lost_requests: u64,
    /// Transport frames sent.
    pub net_sent: u64,
    /// Transport frames delivered.
    pub net_delivered: u64,
    /// Transport frames dropped.
    pub net_dropped: u64,
    /// Transport frames dead-lettered (crash-lost).
    pub net_dead_lettered: u64,
    /// Connection-closure events surfaced.
    pub net_closures: u64,
}

impl SoakReport {
    /// Renders the report as a flat JSON object with a stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let mut field = |key: &str, value: String| {
            if out.len() > 2 {
                out.push_str(",\n");
            }
            out.push_str(&format!("  \"{key}\": {value}"));
        };
        field("transport", format!("\"{}\"", self.transport));
        field("clients", self.clients.to_string());
        field("duration_secs", format!("{:.3}", self.duration_secs));
        field("steps", self.steps.to_string());
        field("requests_sent", self.requests_sent.to_string());
        field("responses_ok", self.responses_ok.to_string());
        field("timeouts", self.timeouts.to_string());
        field("late_responses", self.late_responses.to_string());
        field("rps", format!("{:.1}", self.rps));
        field("goodput", format!("{:.4}", self.goodput));
        field("p50_us", self.p50_us.to_string());
        field("p99_us", self.p99_us.to_string());
        field("p999_us", self.p999_us.to_string());
        field("max_us", self.max_us.to_string());
        field("steady_p999_us", self.steady_p999_us.to_string());
        field("outage_p999_us", self.outage_p999_us.to_string());
        field("p999_spike", format!("{:.2}", self.p999_spike));
        field("outage_samples", self.outage_samples.to_string());
        field("outages", self.outages.to_string());
        field("failovers", self.failovers.to_string());
        field("recoveries", self.recoveries.to_string());
        field("failover_mean_steps", format!("{:.2}", self.failover_mean_steps));
        field("down_steps", self.down_steps.to_string());
        field("lost_requests", self.lost_requests.to_string());
        field("net_sent", self.net_sent.to_string());
        field("net_delivered", self.net_delivered.to_string());
        field("net_dropped", self.net_dropped.to_string());
        field("net_dead_lettered", self.net_dead_lettered.to_string());
        field("net_closures", self.net_closures.to_string());
        out.push_str("\n}\n");
        out
    }

    /// Renders a paired open/closed report: `self` (the open-loop run)
    /// contributes every column of [`SoakReport::to_json`] unchanged,
    /// and the closed-loop run's headline columns ride along under a
    /// `closed_` prefix — same flat shape, so a side-by-side read of
    /// the coordinated-omission gap stays a plain grep.
    pub fn to_paired_json(&self, closed: &SoakReport) -> String {
        let mut out = self.to_json();
        out.truncate(out.len() - "\n}\n".len());
        let pairs = [
            ("closed_requests_sent", closed.requests_sent.to_string()),
            ("closed_responses_ok", closed.responses_ok.to_string()),
            ("closed_timeouts", closed.timeouts.to_string()),
            ("closed_rps", format!("{:.1}", closed.rps)),
            ("closed_goodput", format!("{:.4}", closed.goodput)),
            ("closed_p50_us", closed.p50_us.to_string()),
            ("closed_p99_us", closed.p99_us.to_string()),
            ("closed_p999_us", closed.p999_us.to_string()),
            ("closed_max_us", closed.max_us.to_string()),
            ("closed_steady_p999_us", closed.steady_p999_us.to_string()),
            ("closed_outage_p999_us", closed.outage_p999_us.to_string()),
            ("closed_p999_spike", format!("{:.2}", closed.p999_spike)),
            ("closed_failovers", closed.failovers.to_string()),
        ];
        for (key, value) in pairs {
            out.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }
}

/// One load-generating client: its protocol state, arrival stream and
/// in-flight table.
struct ClientSlot {
    name: String,
    client: FortressClient,
    arrivals: SmallRng,
    /// When the next request is scheduled to fire (open loop: the next
    /// arrival; closed loop: think-time expiry).
    next_due: Instant,
    /// seq → latency origin: the scheduled arrival in open-loop mode,
    /// the issue instant in closed-loop mode.
    pending: HashMap<u64, Instant>,
}

/// Draws an exponential inter-arrival gap with the given mean.
fn exp_gap(rng: &mut SmallRng, mean_secs: f64) -> Duration {
    // Uniform in (0, 1]: never 0, so ln() is finite.
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / 9_007_199_254_740_992.0;
    Duration::from_secs_f64(-mean_secs * u.ln())
}

/// Runs one soak: assembles an S2 stack over kernel sockets, offers
/// open-loop load, replays the outage schedule, and reports throughput,
/// tail latency and failover impact.
///
/// # Panics
///
/// Panics if stack assembly fails (bad config) — a harness-setup error,
/// not a measurement outcome.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let net = SockNet::with_timing(cfg.kind, cfg.timing);
    let mut stack = Stack::with_transport(
        StackConfig {
            class: SystemClass::S2Fortress,
            seed: cfg.seed,
            ..StackConfig::default()
        },
        net,
    )
    .expect("soak stack assembly");
    let mut outage = OutageDriver::new(cfg.outage, trial_seed(cfg.seed, ARRIVAL_STREAM));

    let start = Instant::now();
    let per_client_mean = cfg.clients as f64 / cfg.rate.max(1e-9);
    let mut slots: Vec<ClientSlot> = (0..cfg.clients)
        .map(|i| {
            let name = format!("lg{i}");
            stack.add_client(&name);
            let client = FortressClient::new(&name, stack.authority(), stack.ns().clone());
            let mut arrivals =
                SmallRng::seed_from_u64(trial_seed(cfg.seed ^ ARRIVAL_STREAM, i as u64));
            let first = exp_gap(&mut arrivals, per_client_mean);
            ClientSlot {
                name,
                client,
                arrivals,
                next_due: start + first,
                pending: HashMap::new(),
            }
        })
        .collect();

    let deadline = start + cfg.duration;
    let mut step: u64 = 1;
    let mut next_step_at = start + cfg.tick;

    // Failover windows, tracked from the stack's own serving signal:
    // [since, until) intervals with no serving primary. A sample whose
    // [scheduled, completed] span overlaps any window is outage-tainted.
    let mut down_windows: Vec<(Instant, Instant)> = Vec::new();
    let mut down_since: Option<Instant> = None;

    let mut overall = hist::Histogram::new();
    let mut steady = hist::Histogram::new();
    let mut outage_h = hist::Histogram::new();
    let mut requests_sent = 0u64;
    let mut responses_ok = 0u64;
    let mut timeouts = 0u64;
    let mut late_responses = 0u64;
    let mut events: Vec<NetEvent> = Vec::new();

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }

        // 1. Fire arrivals. Open loop: every due arrival fires, the
        //    schedule does not wait for responses. Closed loop: a client
        //    with a request still in flight holds its fire — the next
        //    think timer is armed when the response (or timeout) lands.
        for slot in &mut slots {
            if cfg.closed_loop {
                if slot.pending.is_empty() && slot.next_due <= now {
                    let req = slot.client.request(OP);
                    stack.submit(&slot.name, &req);
                    slot.pending.insert(req.seq, now);
                    requests_sent += 1;
                }
            } else {
                while slot.next_due <= now {
                    let req = slot.client.request(OP);
                    stack.submit(&slot.name, &req);
                    slot.pending.insert(req.seq, slot.next_due);
                    requests_sent += 1;
                    let gap = exp_gap(&mut slot.arrivals, per_client_mean);
                    slot.next_due += gap;
                }
            }
        }

        // 2. Drive the stack: services every tier and settles the socket
        //    transport's in-flight frames.
        stack.pump();

        // 3. Collect responses.
        let completed = Instant::now();
        for slot in &mut slots {
            let in_flight = slot.pending.len();
            events.clear();
            stack.drain_client_into(&slot.name, &mut events);
            for ev in &events {
                let Some(payload) = ev.payload() else { continue };
                let WireMsg::ProxyResponse(resp) = WireMsg::decode(payload) else {
                    continue;
                };
                let Ok(Some((seq, _body))) = slot.client.on_response(&resp) else {
                    continue;
                };
                match slot.pending.remove(&seq) {
                    Some(scheduled) => {
                        let us = completed.saturating_duration_since(scheduled).as_micros() as u64;
                        overall.record(us);
                        let tainted = down_since.is_some_and(|s| completed >= s)
                            || down_windows
                                .iter()
                                .any(|&(s, u)| scheduled < u && completed >= s);
                        if tainted {
                            outage_h.record(us);
                        } else {
                            steady.record(us);
                        }
                        responses_ok += 1;
                    }
                    None => late_responses += 1,
                }
            }
            if cfg.closed_loop && in_flight > 0 && slot.pending.is_empty() {
                slot.next_due = completed + exp_gap(&mut slot.arrivals, per_client_mean);
            }
        }

        // 4. Expire requests past the timeout. During a failover gap
        //    FORTRESS *drops* in-flight requests (backups ignore traffic
        //    delivered before they adopt the view); each is counted as a
        //    timeout, so the outage shows in `timeouts` and `goodput`
        //    while the histograms hold completed requests only.
        if let Some(cutoff) = now.checked_sub(cfg.timeout) {
            for slot in &mut slots {
                let in_flight = slot.pending.len();
                slot.pending.retain(|_, scheduled| *scheduled > cutoff);
                timeouts += (in_flight - slot.pending.len()) as u64;
                if cfg.closed_loop && in_flight > 0 && slot.pending.is_empty() {
                    slot.next_due = now + exp_gap(&mut slot.arrivals, per_client_mean);
                }
            }
        }

        // 5. Advance the logical clock: outage schedule, heartbeats,
        //    failure detection, end-of-step maintenance.
        while next_step_at <= now {
            outage.before_step(&mut stack, step);
            stack.end_step();
            step += 1;
            next_step_at += cfg.tick;
            let serving = stack.serving();
            match (down_since, serving) {
                (None, false) => down_since = Some(now),
                (Some(s), true) => {
                    down_windows.push((s, now));
                    down_since = None;
                }
                _ => {}
            }
        }

        // 6. `pump` returned at quiescence and this is the only thread,
        //    so nothing can arrive during a nap: sleep until the next
        //    arrival, the next tick or the deadline, whichever is first.
        let next_arrival = slots
            .iter()
            .filter(|slot| !cfg.closed_loop || slot.pending.is_empty())
            .map(|slot| slot.next_due)
            .min();
        let wake = next_arrival.map_or(next_step_at, |due| due.min(next_step_at));
        std::thread::sleep(wake.min(deadline).saturating_duration_since(Instant::now()));
    }
    if let Some(s) = down_since {
        down_windows.push((s, deadline));
    }

    let elapsed = start.elapsed().as_secs_f64();
    let avail = stack.availability();
    let nstats = stack.net_stats();
    let steady_p999 = steady.quantile(0.999);
    let outage_p999 = outage_h.quantile(0.999);
    SoakReport {
        transport: cfg.kind.label().to_string(),
        clients: cfg.clients,
        duration_secs: elapsed,
        steps: step - 1,
        requests_sent,
        responses_ok,
        timeouts,
        late_responses,
        rps: responses_ok as f64 / elapsed.max(1e-9),
        goodput: responses_ok as f64 / (requests_sent.max(1)) as f64,
        p50_us: overall.quantile(0.50),
        p99_us: overall.quantile(0.99),
        p999_us: overall.quantile(0.999),
        max_us: overall.max(),
        steady_p999_us: steady_p999,
        outage_p999_us: outage_p999,
        p999_spike: if steady_p999 > 0 && outage_p999 > 0 {
            outage_p999 as f64 / steady_p999 as f64
        } else {
            0.0
        },
        outage_samples: outage_h.count(),
        outages: avail.outages,
        failovers: avail.failovers,
        recoveries: avail.recoveries,
        failover_mean_steps: if avail.recoveries > 0 {
            avail.failover_latency_total as f64 / avail.recoveries as f64
        } else {
            0.0
        },
        down_steps: avail.down_steps,
        lost_requests: avail.lost_requests,
        net_sent: nstats.sent,
        net_delivered: nstats.delivered,
        net_dropped: nstats.dropped,
        net_dead_lettered: nstats.dead_lettered,
        net_closures: nstats.closures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end soak over Unix-domain sockets: a few clients,
    /// a few hundred milliseconds, no outage — throughput must be
    /// nonzero and accounting must close.
    #[test]
    #[cfg(unix)]
    fn short_uds_soak_delivers_requests() {
        let cfg = SoakConfig {
            kind: SockKind::Uds,
            clients: 4,
            rate: 200.0,
            duration: Duration::from_millis(600),
            tick: Duration::from_millis(5),
            timeout: Duration::from_millis(400),
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg);
        assert!(report.responses_ok > 0, "no responses: {report:?}");
        assert!(report.rps > 0.0);
        assert!(report.goodput > 0.0 && report.goodput <= 1.0);
        assert!(report.p50_us > 0);
        assert!(report.p999_us >= report.p50_us);
        assert_eq!(report.outages, 0);
        // Open-loop accounting closes: every request is answered, timed
        // out, late, or still pending at the deadline.
        assert!(report.responses_ok + report.timeouts <= report.requests_sent);
    }

    /// Closed-loop discipline: at most one request in flight per client
    /// at any instant, so the number submitted can never exceed the
    /// number resolved plus one straggler per client; and the paired
    /// emitter carries both disciplines in one flat object.
    #[test]
    #[cfg(unix)]
    fn closed_loop_holds_one_request_in_flight_per_client() {
        let cfg = SoakConfig {
            kind: SockKind::Uds,
            clients: 4,
            rate: 200.0,
            duration: Duration::from_millis(600),
            tick: Duration::from_millis(5),
            timeout: Duration::from_millis(400),
            closed_loop: true,
            ..SoakConfig::default()
        };
        let closed = run_soak(&cfg);
        assert!(closed.responses_ok > 0, "no responses: {closed:?}");
        assert!(
            closed.requests_sent <= closed.responses_ok + closed.timeouts + cfg.clients as u64,
            "closed loop overlapped requests: {closed:?}"
        );
        let open = run_soak(&SoakConfig { closed_loop: false, ..cfg });
        let paired = open.to_paired_json(&closed);
        for key in ["\"rps\":", "\"closed_rps\":", "\"closed_p999_us\":"] {
            assert!(paired.contains(key), "missing {key} in {paired}");
        }
        assert!(paired.starts_with("{\n") && paired.ends_with("}\n"));
    }

    #[test]
    fn report_json_is_flat_and_stable() {
        let report = run_soak(&SoakConfig {
            kind: SockKind::Tcp,
            clients: 2,
            rate: 50.0,
            duration: Duration::from_millis(300),
            tick: Duration::from_millis(5),
            ..SoakConfig::default()
        });
        let json = report.to_json();
        for key in [
            "\"transport\":",
            "\"rps\":",
            "\"p999_us\":",
            "\"p999_spike\":",
            "\"failovers\":",
            "\"net_dead_lettered\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
    }
}
