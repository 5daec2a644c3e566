//! The metric and workload tables — the single definition behind the
//! result lines, `BENCHMARK.json` (a test keeps the file equal to these
//! tables) and the README.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of a table.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// A workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// One line on why the benchmark carries it.
    pub why: &'static str,
}

/// The six workloads, in the order a full set runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_s2_steady",
        why: "full fortified request path (client, 3 proxies, primary-backup, HMAC) in process: processor cost per request, no kernel, no timers",
    },
    WorkloadDef {
        name: "sim_s0_steady",
        why: "same stack and crypto ordered by 4-replica SMR instead of proxies and primary-backup: cost grows with log length; bypasses the proxy tier",
    },
    WorkloadDef {
        name: "sock_s2_closed",
        why: "the S2 stack over Unix sockets, 2 closed-loop clients: latency is set by the transport's readiness wait, not by processor time",
    },
    WorkloadDef {
        name: "sock_s2_failover",
        why: "open-loop Poisson load at 150 requests/s while the serving primary is crashed repeatedly: time without service and requests lost to it",
    },
    WorkloadDef {
        name: "sweep_paper",
        why: "the default campaign sweep (50 protocol cells, adaptive budget) on all cores: what a researcher waits for; arena, pool and scheduler",
    },
    WorkloadDef {
        name: "sweep_repair",
        why: "the SMR repair sweep on the same engine: 50x costlier trials dominated by view changes and state transfer, almost no proxy or PB work",
    },
];

/// End-to-end metrics: every workload reports every one of them.
///
/// `ops_per_s` counts the workload's own operation — a signature-verified
/// response on the request workloads, a completed trial on the sweeps.
/// `served_frac` is the share of attempted operations that completed
/// correctly (requests lost to an injected crash count against it).
pub const END_TO_END: &[Def] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("served_frac", "frac", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics of the traced pass and the probes. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // End-to-end figures that exist on some workloads only, taken in the
    // traced run's untraced repetition.
    layer("e2e.p50_us", "us", Lower),
    layer("e2e.p99_us", "us", Lower),
    layer("e2e.latency_samples", "count", Higher),
    layer("e2e.unserved_ms_p50", "ms", Lower),
    layer("e2e.failed_frac", "frac", Lower),
    layer("trace_overhead_frac", "frac", Lower),
    // Spans around the harness's calls into the request path.
    layer("core.client.request_ns", "ns", Lower),
    layer("core.client.on_response_ns", "ns", Lower),
    layer("core.stack.submit_ns", "ns", Lower),
    layer("core.stack.pump_ns", "ns", Lower),
    layer("core.stack.drain_client_ns", "ns", Lower),
    layer("core.stack.end_step_ns", "ns", Lower),
    layer("core.stack.pumps_per_request", "count", Lower),
    // Probes: isolated calls on the message shapes of one S2 request.
    layer("crypto.sha256_mb_per_s", "MB/s", Higher),
    layer("crypto.hmac_mac_ns", "ns", Lower),
    layer("crypto.signer_sign_ns", "ns", Lower),
    layer("crypto.authority_verify_ns", "ns", Lower),
    layer("crypto.doubly_signed_verify_ns", "ns", Lower),
    layer("core.wire.encode_ns", "ns", Lower),
    layer("core.wire.decode_ns", "ns", Lower),
    layer("net.wire.classify_ns", "ns", Lower),
    layer("core.proxy.on_input_ns", "ns", Lower),
    layer("core.proxy.should_forward_ns", "ns", Lower),
    layer("replication.pb.on_input_ns", "ns", Lower),
    layer("replication.smr.on_input_ns.log1k", "ns", Lower),
    layer("replication.smr.on_input_ns.log16k", "ns", Lower),
    layer("replication.smr.log_growth_ratio", "ratio", Lower),
    layer("net.sim.send_drain_ns", "ns", Lower),
    layer("net.deliveries_per_request", "count", Lower),
    layer("net.conservation_ok", "count", Higher),
    layer("net.sock.hop_us", "us", Lower),
    layer("net.sock.frames_per_request", "count", Lower),
    layer("net.sock.pump_us_mean", "us", Lower),
    layer("net.sock.pump_us_max", "us", Lower),
    layer("net.sock.dead_lettered", "count", Lower),
    layer("net.sock.closures", "count", Lower),
    // Failover accounting (`Stack::availability`) and the generator.
    layer("failover.detect_steps_mean", "steps", Lower),
    layer("failover.down_steps", "steps", Lower),
    layer("failover.lost_requests", "count", Lower),
    layer("failover.count", "count", Higher),
    layer("failover.served_p50_us", "us", Lower),
    layer("gen.late_p99_us", "us", Lower),
    // The Monte-Carlo engine.
    layer("sim.runner.parallel_speedup", "ratio", Higher),
    layer("sim.runner.steals", "count", Lower),
    layer("sim.runner.pool_dispatch_us", "us", Lower),
    layer("sim.scheduler.trials_per_cell", "count", Lower),
    layer("sim.scheduler.cell_us_p50", "us", Lower),
    layer("sim.scheduler.cell_us_max", "us", Lower),
    layer("sim.arena.hit_ratio", "ratio", Higher),
    layer("core.stack.new_us", "us", Lower),
    layer("core.stack.reset_us", "us", Lower),
    layer("sim.event_mc.sample_lifetime_ns", "ns", Lower),
    layer("sim.abstract_mc.block_trials_per_s", "1/s", Higher),
    // Reconciliation of the layer sums with the end-to-end figures.
    layer("budget.sim_s2.request_ns", "ns", Lower),
    layer("budget.sim_s2.layer_sum_frac", "frac", Higher),
    layer("budget.sock_s2.cpu_frac", "frac", Lower),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, valid_name, valid_unit, Value};
    use std::collections::HashSet;

    #[test]
    fn names_are_legal_and_used_once() {
        let mut seen = HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables the result lines are printed from.
    #[test]
    fn manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let v = parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(field(&v, "run_seconds").as_f64(), Some(RUN_SECONDS as f64));

        let workloads = field(&v, "workloads").as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(got.as_object().unwrap().len(), 2);
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "why").as_str(), Some(want.why));
        }
        for (key, table, members) in [("end_to_end", END_TO_END, 4), ("per_layer", PER_LAYER, 3)] {
            let listed = field(&v, key).as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (got, want) in listed.iter().zip(table) {
                assert_eq!(got.as_object().unwrap().len(), members, "{}", want.name);
                assert_eq!(field(got, "name").as_str(), Some(want.name));
                assert_eq!(
                    field(got, "unit").as_str(),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                assert_eq!(
                    field(got, "better").as_str(),
                    Some(want.better.label()),
                    "{}",
                    want.name
                );
                assert_eq!(
                    got.get("bound").and_then(Value::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
    }
}
