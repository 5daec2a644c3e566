//! Isolated micro-measurements of single layers, on the message shapes
//! one benign S2 request produces.
//!
//! A probe calls one public function in a loop, outside any stack, and
//! reports the median over five batches of the mean time per call. The
//! counts that turn probe times into a per-request budget are those of
//! the S2 request path (3 proxies, 3 primary-backup servers):
//!
//! | per request | count |
//! |---|---|
//! | deliveries (send + drain), each decoded once | 32 |
//! | … client request frames (3 at proxies, 9 at servers) | 12 |
//! | … signed replies at proxies (3 from the primary, 1 per backup, × 3 proxies) | 15 |
//! | … state updates at backups | 2 |
//! | … proxy responses at the client | 3 |
//! | encodes (1 request, 5 signed replies, 1 update, 3 proxy responses) | 10 |
//! | `Proxy::should_forward` | 3 |
//! | `Proxy::on_input` with a server reply | 15 |
//! | `PbReplica::on_input` (9 request copies, 2 updates) | 11 |

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use fortress_core::messages::{ClientRequest, ProxyResponse};
use fortress_core::nameserver::{NameServer, ReplicationType};
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::proxy::{Proxy, ProxyInput};
use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_core::wire::WireMsg;
use fortress_crypto::sig::DoublySigned;
use fortress_crypto::{HmacSha256, KeyAuthority, Sha256, Signer};
use fortress_model::params::{AttackParams, Policy};
use fortress_model::{LaunchPad, SystemKind};
use fortress_net::sock::SockNet;
use fortress_net::{SimConfig, SimNet, Transport, WireKind};
use fortress_replication::message::{PbMsg, ReplyBody, SignedReply, SmrMsg};
use fortress_replication::pb::{PbConfig, PbInput, PbOutput, PbReplica};
use fortress_replication::service::{KvStore, Service};
use fortress_replication::smr::{SmrConfig, SmrInput, SmrOutput, SmrReplica};
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::CELL_CHUNK;
use fortress_sim::{sample_lifetime, AbstractModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::stats::median;
use crate::workloads::closed::{ClosedLoop, StepClock, Until};
use crate::workloads::{machine_cores, OP};

/// Deliveries per S2 request, each decoded once at its receiver.
const DELIVERIES: f64 = 32.0;
/// Frames of each kind among those deliveries.
const DECODES: [f64; 4] = [12.0, 15.0, 2.0, 3.0];
/// Frames of each kind encoded per request.
const ENCODES: [f64; 4] = [1.0, 5.0, 1.0, 3.0];
const SHOULD_FORWARDS: f64 = 3.0;
const PROXY_INPUTS: f64 = 15.0;
const PB_INPUTS: f64 = 11.0;

/// The probe results the budgets are computed from.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSums {
    /// Σ(probe ns × calls per request) over everything `Stack::submit`
    /// and `Stack::pump` do for one S2 request.
    pub interior_ns: f64,
    /// Wall time of one in-process S2 request, measured by a short
    /// closed loop.
    pub sim_s2_request_ns: f64,
}

/// Median over five batches of the mean ns per call of `f`, after a
/// quarter-batch warm-up.
fn per_call_ns(batch: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch / 4 + 1 {
        f();
    }
    let mut samples = [0.0f64; 5];
    for sample in &mut samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        *sample = t.elapsed().as_nanos() as f64 / batch as f64;
    }
    median(&samples)
}

fn weighted(times: [f64; 4], weights: [f64; 4]) -> f64 {
    let total: f64 = weights.iter().sum();
    times.iter().zip(weights).map(|(t, w)| t * w).sum::<f64>() / total
}

/// Principals and frames of one benign S2 exchange.
struct Fixture {
    authority: Arc<KeyAuthority>,
    ns: NameServer,
    servers: Vec<Signer>,
    proxies: Vec<Signer>,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let authority = Arc::new(KeyAuthority::with_seed(seed));
        let mut builder = NameServer::builder().replication(ReplicationType::PrimaryBackup);
        for i in 0..3 {
            builder = builder
                .proxy(&format!("proxy-{i}"))
                .server(&format!("server-{i}"));
        }
        let ns = builder.build().expect("probe name server");
        let proxies = (0..3)
            .map(|i| Signer::register(&format!("proxy-{i}"), &authority))
            .collect();
        let servers = (0..3)
            .map(|i| Signer::register(&format!("server-{i}"), &authority))
            .collect();
        Fixture {
            authority,
            ns,
            servers,
            proxies,
        }
    }

    fn reply(&self, seq: u64, server: usize) -> SignedReply {
        SignedReply::sign(
            ReplyBody {
                request_seq: seq,
                client: "lg0".into(),
                body: b"OK".to_vec(),
                server_index: server as u32,
            },
            &self.servers[server],
        )
    }
}

fn crypto(fx: &Fixture, report: &mut Report) {
    let block = vec![0xA5u8; 64 * 1024];
    let ns = per_call_ns(40, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    report.put_def("crypto.sha256_mb_per_s", block.len() as f64 / ns * 1e3);

    let message = fx.reply(1, 0).reply.signing_bytes();
    let key = [7u8; 32];
    report.put_def(
        "crypto.hmac_mac_ns",
        per_call_ns(20_000, || {
            black_box(HmacSha256::mac(black_box(&key), black_box(&message)));
        }),
    );
    let signer = &fx.servers[0];
    report.put_def(
        "crypto.signer_sign_ns",
        per_call_ns(20_000, || {
            black_box(signer.sign(black_box(&message)));
        }),
    );
    let sig = signer.sign(&message);
    report.put_def(
        "crypto.authority_verify_ns",
        per_call_ns(20_000, || {
            assert!(fx
                .authority
                .verify("server-0", black_box(&message), black_box(&sig)));
        }),
    );
    let doubly = DoublySigned::over_sign(message.clone(), sig, &fx.proxies[0]);
    let (servers, proxies) = (fx.ns.servers(), fx.ns.proxies());
    report.put_def(
        "crypto.doubly_signed_verify_ns",
        per_call_ns(10_000, || {
            black_box(&doubly)
                .verify(&fx.authority, servers, proxies)
                .expect("probe signature verifies");
        }),
    );
}

/// Returns `(encode ns, decode ns)` per frame, weighted by the request's
/// frame mix.
fn wire(fx: &Fixture, report: &mut Report) -> (f64, f64) {
    let request = ClientRequest {
        seq: 1,
        client: "lg0".into(),
        op: OP.to_vec(),
    };
    let reply = fx.reply(1, 0);
    let (response, delta) = KvStore::new().execute(OP);
    let update = PbMsg::StateUpdate {
        view: 0,
        seq: 1,
        request_seq: 1,
        client: "lg0".into(),
        response,
        delta,
    };
    let frames = [
        request.encode(),
        reply.encode(),
        update.encode(),
        ProxyResponse::over_sign(reply, &fx.proxies[0]).encode(),
    ];
    let decode = frames.each_ref().map(|frame| {
        per_call_ns(20_000, || {
            let msg = WireMsg::decode(black_box(frame));
            assert!(msg.kind().is_some());
            black_box(msg);
        })
    });
    let encode = frames.each_ref().map(|frame| {
        let msg = WireMsg::decode(frame);
        per_call_ns(20_000, || {
            black_box(black_box(&msg).encode());
        })
    });
    let (encode, decode) = (weighted(encode, ENCODES), weighted(decode, DECODES));
    report.put_def("core.wire.encode_ns", encode);
    report.put_def("core.wire.decode_ns", decode);
    report.put_def(
        "net.wire.classify_ns",
        per_call_ns(200_000, || {
            black_box(WireKind::classify(black_box(&frames[0])).expect("registered tag"));
        }),
    );
    (encode, decode)
}

/// Requests per timed group in the engine probes: large enough to
/// amortise the clock reads, small enough that the proxy's
/// forwarded-but-unanswered queues stay as short as a closed loop keeps
/// them.
const GROUP: u64 = 8;

/// Returns `(should_forward ns, on_input ns)` per call.
fn proxy(fx: &Fixture, report: &mut Report) -> (f64, f64) {
    let mut engine = Proxy::new(
        "proxy-0",
        fx.proxies[0].clone(),
        Arc::clone(&fx.authority),
        fx.ns.clone(),
        SuspicionPolicy::default(),
    );
    let mut forward_ns = Vec::new();
    let mut input_ns = Vec::new();
    let mut seq = 0u64;
    for round in 0..600 {
        // The replies of this group, signed outside the timed region: the
        // primary answers each of the three forwarded copies, each backup
        // answers once.
        let inputs: Vec<ProxyInput> = (seq + 1..=seq + GROUP)
            .flat_map(|s| [0, 0, 0, 1, 2].map(|server| (s, server)))
            .map(|(s, server)| ProxyInput::ServerReply {
                server_index: server,
                reply: fx.reply(s, server),
            })
            .collect();
        let t = Instant::now();
        for s in seq + 1..=seq + GROUP {
            assert!(engine.should_forward(black_box("lg0"), s));
        }
        let forwarded = t.elapsed();
        let t = Instant::now();
        let mut outputs = 0;
        for input in inputs {
            outputs += engine.on_input(input).len();
        }
        let replied = t.elapsed();
        assert_eq!(
            outputs as u64, GROUP,
            "one over-signed response per request"
        );
        seq += GROUP;
        if round >= 100 {
            forward_ns.push(forwarded.as_nanos() as f64 / GROUP as f64);
            input_ns.push(replied.as_nanos() as f64 / (5 * GROUP) as f64);
        }
    }
    let (forward, input) = (median(&forward_ns), median(&input_ns));
    report.put_def("core.proxy.should_forward_ns", forward);
    report.put_def("core.proxy.on_input_ns", input);
    (forward, input)
}

/// Returns ns per `PbReplica::on_input` call over one request's eleven.
fn pb(fx: &Fixture, report: &mut Report) -> f64 {
    let mut group: Vec<PbReplica<KvStore>> = (0..3)
        .map(|i| {
            PbReplica::new(
                PbConfig::default(),
                i,
                KvStore::new(),
                fx.servers[i].clone(),
            )
        })
        .collect();
    let mut samples = Vec::new();
    let mut seq = 0u64;
    for round in 0..600 {
        let request = |s| PbInput::Request {
            seq: s,
            client: "lg0".to_owned(),
            op: OP.to_vec(),
        };
        // Nine request copies per request, built outside the timed region.
        let mut copies: Vec<PbInput> = (seq + 1..=seq + GROUP)
            .flat_map(|s| (0..9).map(move |_| s))
            .map(request)
            .collect();
        let t = Instant::now();
        for _ in 0..GROUP {
            let mut update = None;
            let mut replies = 0;
            for _ in 0..3 {
                for out in group[0].on_input(copies.pop().expect("nine copies per request")) {
                    match out {
                        PbOutput::Broadcast(msg) => update = Some(msg),
                        PbOutput::Reply(_) => replies += 1,
                    }
                }
            }
            let update = update.expect("the primary orders the request");
            for backup in &mut group[1..] {
                for _ in 0..3 {
                    replies += backup.on_input(copies.pop().expect("nine copies")).len();
                }
                let msg = update.clone();
                replies += backup.on_input(PbInput::ReplicaMsg { from: 0, msg }).len();
            }
            assert_eq!(replies, 5, "three primary replies and one per backup");
        }
        let elapsed = t.elapsed();
        seq += GROUP;
        if round >= 100 {
            samples.push(elapsed.as_nanos() as f64 / (PB_INPUTS * GROUP as f64));
        }
    }
    let ns = median(&samples);
    report.put_def("replication.pb.on_input_ns", ns);
    ns
}

/// Four sans-I/O SMR replicas and the message routing between them.
struct SmrGroup {
    replicas: Vec<SmrReplica<KvStore>>,
    queue: std::collections::VecDeque<(usize, SmrInput)>,
}

impl SmrGroup {
    fn new(fx: &Fixture) -> SmrGroup {
        let replicas = (0..4)
            .map(|i| {
                let signer = Signer::register(&format!("smr-{i}"), &fx.authority);
                SmrReplica::new(SmrConfig::default(), i, KvStore::new(), signer)
                    .expect("valid SMR group")
            })
            .collect();
        SmrGroup {
            replicas,
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Broadcasts request `seq` to every replica and routes messages
    /// until the group is quiet; returns the signed replies produced.
    fn request(&mut self, seq: u64) -> usize {
        for to in 0..4 {
            let input = SmrInput::Request {
                seq,
                client: "lg0".to_owned(),
                op: OP.to_vec(),
            };
            self.queue.push_back((to, input));
        }
        let mut replies = 0;
        while let Some((to, input)) = self.queue.pop_front() {
            for out in self.replicas[to].on_input(input) {
                let deliver = |msg: &SmrMsg, dest: usize| {
                    (
                        dest,
                        SmrInput::ReplicaMsg {
                            from: to,
                            msg: msg.clone(),
                        },
                    )
                };
                match out {
                    SmrOutput::Broadcast(msg) => {
                        let others = (0..4).filter(|&d| d != to);
                        self.queue.extend(others.map(|d| deliver(&msg, d)));
                    }
                    SmrOutput::ToReplica(dest, msg) => self.queue.push_back(deliver(&msg, dest)),
                    SmrOutput::Reply(_) => replies += 1,
                }
            }
        }
        replies
    }

    /// Mean ns per request over `n` requests starting after `done`.
    fn timed(&mut self, done: &mut u64, n: u64) -> f64 {
        let t = Instant::now();
        for _ in 0..n {
            *done += 1;
            assert!(self.request(*done) >= 3, "a quorum answers request {done}");
        }
        t.elapsed().as_nanos() as f64 / n as f64
    }
}

fn smr(fx: &Fixture, report: &mut Report) {
    let mut group = SmrGroup::new(fx);
    let mut done = 0u64;
    group.timed(&mut done, 1_000);
    let at_1k = group.timed(&mut done, 128);
    let grow = 16_000 - done;
    group.timed(&mut done, grow);
    let at_16k = group.timed(&mut done, 128);
    report.put_def("replication.smr.on_input_ns.log1k", at_1k);
    report.put_def("replication.smr.on_input_ns.log16k", at_16k);
    report.put_def("replication.smr.log_growth_ratio", at_16k / at_1k.max(1e-9));
}

/// Returns ns per `send` → `step` → `drain_into` on `SimNet`.
fn sim_net(report: &mut Report) -> f64 {
    let mut net = SimNet::new(SimConfig::default());
    let (a, b) = (net.register("a"), net.register("b"));
    let payload = Bytes::copy_from_slice(&[0x10; 48]);
    let mut inbox = Vec::new();
    let ns = per_call_ns(20_000, || {
        Transport::send(&mut net, a, b, payload.clone());
        while Transport::step(&mut net) {}
        inbox.clear();
        Transport::drain_into(&mut net, b, &mut inbox);
        assert_eq!(inbox.len(), 1);
    });
    report.put_def("net.sim.send_drain_ns", ns);
    ns
}

fn sock_net(report: &mut Report) {
    let mut net = SockNet::uds();
    let (a, b) = (net.register("a"), net.register("b"));
    let payload = Bytes::copy_from_slice(&[0x10; 48]);
    let mut inbox = Vec::new();
    let ns = per_call_ns(200, || {
        net.send(a, b, payload.clone());
        inbox.clear();
        while inbox.is_empty() {
            net.step();
            net.drain_into(b, &mut inbox);
        }
    });
    report.put_def("net.sock.hop_us", ns / 1e3);
}

fn engine(seed: u64, report: &mut Report) {
    // A 64-trial batch in the sweeps' 8-trial chunks: the unit of work the
    // scheduler hands the pool between two stopping-rule checks.
    let runner = Runner::with_threads(machine_cores()).with_chunk(CELL_CHUNK);
    let mut call = 0u64;
    let ns = per_call_ns(200, || {
        call += 1;
        let stats = runner.run(seed ^ call, TrialBudget::Fixed(64), |i, _| i as f64);
        assert_eq!(stats.n(), 64);
    });
    report.put_def("sim.runner.pool_dispatch_us", ns / 1e3);

    let cfg = StackConfig {
        class: SystemClass::S2Fortress,
        entropy_bits: 8,
        ..StackConfig::default()
    };
    let mut s = seed;
    let ns = per_call_ns(100, || {
        s += 1;
        black_box(Stack::new(StackConfig { seed: s, ..cfg }).expect("stack assembly"));
    });
    report.put_def("core.stack.new_us", ns / 1e3);
    let mut stack = Stack::new(cfg).expect("stack assembly");
    let ns = per_call_ns(400, || {
        s += 1;
        stack.reset(black_box(s));
    });
    report.put_def("core.stack.reset_us", ns / 1e3);

    let params = AttackParams::from_entropy_bits(16, 1e-3).expect("valid attack parameters");
    let kind = SystemKind::S2Fortress { kappa: 0.05 };
    let mut rng = SmallRng::seed_from_u64(seed);
    report.put_def(
        "sim.event_mc.sample_lifetime_ns",
        per_call_ns(100_000, || {
            black_box(sample_lifetime(
                kind,
                Policy::StartupOnly,
                &params,
                LaunchPad::NextStep,
                &mut rng,
            ));
        }),
    );
    let model = AbstractModel::new(kind, Policy::Proactive, params);
    let mut block = vec![0u64; 4096];
    let mut start = 0u64;
    let ns = per_call_ns(50, || {
        model.simulate_block(seed, start, &mut block);
        start += block.len() as u64;
        black_box(&block);
    });
    report.put_def(
        "sim.abstract_mc.block_trials_per_s",
        block.len() as f64 / ns * 1e9,
    );
}

/// Wall time of one in-process S2 request: a short closed loop, the same
/// driver `sim_s2_steady` runs.
fn sim_s2_request_ns(seed: u64) -> f64 {
    let cfg = StackConfig {
        class: SystemClass::S2Fortress,
        seed,
        ..StackConfig::default()
    };
    let stack = Stack::new(cfg).expect("stack assembly");
    let mut lp = ClosedLoop::new(stack, 1, StepClock::EveryRequests(16));
    lp.run(Until::issued(1_000), &mut crate::trace::NoTrace);
    let seg = lp.run(Until::issued(8_000), &mut crate::trace::NoTrace);
    assert_eq!(seg.answered, 8_000, "probe loop lost a request");
    seg.elapsed.as_nanos() as f64 / seg.answered as f64
}

/// Runs every probe, records its metric in `report`, and returns the
/// sums the budgets need.
pub fn run_all(seed: u64, report: &mut Report) -> ProbeSums {
    let fx = Fixture::new(seed);
    crypto(&fx, report);
    let (encode, decode) = wire(&fx, report);
    let (forward, proxy_input) = proxy(&fx, report);
    let pb_input = pb(&fx, report);
    smr(&fx, report);
    let hop = sim_net(report);
    sock_net(report);
    engine(seed, report);
    let sim_s2_request_ns = sim_s2_request_ns(seed);
    report.put_def("budget.sim_s2.request_ns", sim_s2_request_ns);
    ProbeSums {
        interior_ns: DELIVERIES * (hop + decode)
            + ENCODES.iter().sum::<f64>() * encode
            + SHOULD_FORWARDS * forward
            + PROXY_INPUTS * proxy_input
            + PB_INPUTS * pb_input,
        sim_s2_request_ns,
    }
}
