//! Quickstart: assemble a FORTRESS (S2) deployment, issue requests through
//! the proxy tier, and verify the doubly-signed responses — the §3
//! client–proxy–server interaction end to end — then measure that same
//! deployment's resilience with a tiny scenario sweep on the unified
//! experiment surface.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fortress::attack::campaign::StrategyKind;
use fortress::core::client::FortressClient;
use fortress::core::messages::ProxyResponseRef;
use fortress::core::probelog::SuspicionPolicy;
use fortress::core::system::{Stack, StackConfig, SystemClass};
use fortress::model::params::Policy;
use fortress::sim::protocol_mc::ProtocolExperiment;
use fortress::sim::runner::{Runner, TrialBudget};
use fortress::sim::scenario::{SweepScheduler, SweepSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A FORTRESS stack: 3 proxies (distinct keys) in front of 3 PB servers
    // (one shared key), proactively re-randomized every unit time-step.
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        seed: 42,
        ..StackConfig::default()
    })?;
    println!("assembled: {:?} with proxies {:?} and servers {:?}",
        stack.class(), stack.ns().proxies(), stack.ns().servers());

    stack.add_client("alice");
    let mut alice = FortressClient::new("alice", stack.authority(), stack.ns().clone());

    for op in ["PUT motto fortify-everything", "GET motto", "LEN"] {
        let req = alice.request(op.as_bytes());
        // Clients broadcast to every proxy; proxies forward to every server;
        // servers sign; proxies over-sign one authentic response each.
        stack.submit("alice", &req);
        stack.pump();

        let mut answer = None;
        for ev in stack.drain_client("alice") {
            if let Some(payload) = ev.payload() {
                let resp = ProxyResponseRef::decode(payload)?;
                // Acceptance rule (§3): exactly two authentic signatures.
                if let Some((seq, body)) = alice.on_response(&resp)? {
                    answer = Some((seq, String::from_utf8_lossy(&body).into_owned()));
                }
            }
        }
        let (seq, body) = answer.expect("the proxy tier must answer");
        println!("request {seq}: {op:<30} -> {body}");
        stack.end_step();
    }

    println!("\nafter {} steps the system re-randomized {} times and is {}",
        stack.step(),
        stack.step(), // PO with period 1: once per step
        if stack.is_compromised() { "COMPROMISED" } else { "intact" });

    // And how long does this deployment survive under attack? One
    // declarative sweep — SO vs PO, paper attacker vs a 3-identity Sybil
    // fleet — scheduled cell-parallel, every core on one queue of chunks.
    println!("\nscenario sweep (chi = 2^5, omega = 8, mean steps until compromise):");
    let sweep = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 5,
        omega: 8.0,
        max_steps: 400,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .policies(Policy::ALL.to_vec())
    .suspicions(vec![SuspicionPolicy { window: 8, threshold: 3 }])
    .strategies(vec![
        StrategyKind::PacedBelowThreshold,
        StrategyKind::SybilPaced { identities: 3 },
    ]);
    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(24))
        .run(&sweep.compile(42));
    println!("{}", report.to_table().to_aligned());
    Ok(())
}
