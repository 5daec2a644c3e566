//! The proxy tier serves the clients it protects: under loss or a machine
//! outage, a benign client beside an attacker is never charged with the
//! attacker's crashes, and a request whose responses were all lost is
//! answered when the client retransmits it.
//!
//! A proxy charges a closure to the oldest request of the current step
//! still pending at that server, and a closure from a machine that is down
//! (the transport bounces every send to it) is charged to no one. A reply
//! lost on the way and a request sent into a downed machine therefore
//! leave nothing behind for the attacker's next crash to be charged to.

use fortress_core::client::FortressClient;
use fortress_core::messages::{ClientRequest, ProxyResponseRef};
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{Stack, StackConfig};
use fortress_net::fault::FaultPlan;
use fortress_net::sim::{SimConfig, SimNet};
use fortress_obf::keys::RandomizationKey;
use fortress_obf::schedule::Policy;
use fortress_obf::scheme::ExploitPayload;

/// Steps between two of the attacker's probes: one more than the
/// hair-trigger window, so the attacker itself is never flagged and keeps
/// crashing the servers for the whole run.
const PROBE_PERIOD: u64 = 65;
const STEPS: u64 = 400;

fn stack(seed: u64, faults: FaultPlan) -> Stack<SimNet> {
    let cfg = StackConfig {
        policy: Policy::StartupOnly,
        suspicion: SuspicionPolicy::hair_trigger(),
        seed,
        ..StackConfig::default()
    };
    let net = SimNet::new(SimConfig { faults, fault_stream: seed ^ 0x5eed });
    Stack::with_transport(cfg, net).unwrap()
}

/// The bodies `client` accepts from what arrived for it.
fn accept(stack: &mut Stack<SimNet>, client: &mut FortressClient) -> Vec<(u64, Vec<u8>)> {
    let mut accepted = Vec::new();
    for ev in stack.drain_client(client.name()) {
        let Some(response) = ev.payload().and_then(|p| ProxyResponseRef::decode(p).ok()) else {
            continue;
        };
        if let Ok(Some(answer)) = client.on_response(&response) {
            accepted.push(answer);
        }
    }
    accepted
}

/// A benign client requests every step while a second identity submits a
/// wrong-key probe every [`PROBE_PERIOD`] steps; `outage` runs before each
/// step. Returns the benign client's accepted answers.
fn run(mut stack: Stack<SimNet>, mut outage: impl FnMut(&mut Stack<SimNet>, u64)) -> u64 {
    stack.add_client("alice");
    stack.add_client("mallory");
    let mut alice = FortressClient::new("alice", stack.authority(), stack.ns().clone());
    let mut answers = 0;
    for step in 1..=STEPS {
        outage(&mut stack, step);
        if step % PROBE_PERIOD == 0 {
            let wrong = RandomizationKey(stack.server_keys()[0].0 ^ 1);
            let op = ExploitPayload::aimed_at(wrong).to_bytes();
            let probe = ClientRequest { seq: step, client: "mallory".into(), op };
            stack.submit("mallory", &probe);
            stack.pump();
        }
        let req = alice.request(b"GET k");
        stack.submit("alice", &req);
        stack.pump();
        answers += accept(&mut stack, &mut alice).len() as u64;
        stack.end_step();
        assert!(
            !stack.suspects().iter().any(|s| s == "alice"),
            "step {step}: the benign client is flagged; suspects = {:?}",
            stack.suspects()
        );
    }
    assert!(stack.server_restarts() >= 3 * (STEPS / PROBE_PERIOD), "the attack ran");
    assert!(!stack.suspects().iter().any(|s| s == "mallory"), "the attacker paced");
    answers
}

#[test]
fn a_benign_client_is_not_charged_under_loss() {
    for seed in 0..4 {
        let answers = run(stack(seed, FaultPlan::lossy(0.1)), |_, _| {});
        assert!(answers > STEPS * 9 / 10, "seed {seed}: {answers} of {STEPS} answered");
    }
}

#[test]
fn a_benign_client_is_not_charged_across_an_outage() {
    for (seed, server) in [(0, 0), (1, 1), (2, 2), (3, 0)] {
        let outage = |stack: &mut Stack<SimNet>, step: u64| match step {
            50 => stack.take_down_server(server),
            150 => stack.bring_up_server(server),
            _ => {}
        };
        let answers = run(stack(seed, FaultPlan::None), outage);
        assert!(answers > STEPS * 9 / 10, "seed {seed}: {answers} of {STEPS} answered");
    }
}

/// The responses to a request are drained and thrown away, as if every
/// one was lost; the client retransmits the request in a later step and
/// is answered.
#[test]
fn a_retransmission_in_a_later_step_is_answered() {
    let mut stack = stack(11, FaultPlan::None);
    stack.add_client("alice");
    let mut alice = FortressClient::new("alice", stack.authority(), stack.ns().clone());
    let req = alice.request(b"PUT color teal");
    stack.submit("alice", &req);
    stack.pump();
    assert!(!stack.drain_client("alice").is_empty(), "the first round arrived");
    stack.end_step();
    stack.submit("alice", &req);
    stack.pump();
    assert_eq!(accept(&mut stack, &mut alice), [(1, b"OK".to_vec())]);
}
