//! Why proxies buy resilience (§2.2): a fast prober gets flagged and cut
//! off by the proxy tier's invalid-request log, while an attacker pacing
//! below the suspicion threshold retains only a fraction κ of its probe
//! rate. This example shows both, plus the κ the policy induces.
//!
//! ```text
//! cargo run --example proxy_detection
//! ```

use fortress::attack::pacing::Pacer;
use fortress::core::messages::ClientRequest;
use fortress::core::probelog::SuspicionPolicy;
use fortress::core::system::{Stack, StackConfig, SystemClass};
use fortress::obf::keys::RandomizationKey;
use fortress::obf::schedule::Policy;
use fortress::obf::scheme::ExploitPayload;

fn exploit(seq: u64, client: &str, guess: RandomizationKey) -> ClientRequest {
    ClientRequest {
        seq,
        client: client.into(),
        op: ExploitPayload::aimed_at(guess).to_bytes(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suspicion = SuspicionPolicy {
        window: 100,
        threshold: 5,
    };
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        entropy_bits: 10,
        policy: Policy::StartupOnly,
        suspicion,
        seed: 99,
        ..StackConfig::default()
    })?;
    stack.add_client("greedy");

    println!("proxy suspicion policy: >= {} invalid requests within {} steps",
        suspicion.threshold, suspicion.window);

    // The greedy attacker burns probes as fast as it can craft them. Every
    // wrong guess crashes the (shared-key) servers; each proxy attributes
    // the crash to greedy's request and logs it.
    let true_key = stack.server_keys()[0];
    for seq in 1..=10u64 {
        let wrong = RandomizationKey((true_key.0 + seq) % stack.key_space().size());
        stack.submit("greedy", &exploit(seq, "greedy", wrong));
        stack.pump();
        let flagged = stack.suspects().contains(&"greedy".to_string());
        println!("probe {seq:>2}: server restarts = {:>2}, flagged = {flagged}",
            stack.server_restarts());
        if flagged {
            println!("         -> the proxy tier now drops everything from `greedy`");
            break;
        }
    }

    let before = stack.server_restarts();
    stack.submit("greedy", &exploit(99, "greedy", RandomizationKey(0)));
    stack.pump();
    println!("post-flag probe reached servers: {}", stack.server_restarts() != before);

    // What does this cost a *careful* attacker? Exactly kappa.
    println!("\ninduced indirect-attack coefficients (Definition 5):");
    for omega in [1.0, 4.0, 16.0, 64.0] {
        let pacer = Pacer::against(suspicion, omega);
        println!(
            "  attacker omega = {omega:>4} probes/step -> safe rate {:.3}/step, kappa = {:.4}",
            pacer.rate(),
            pacer.kappa()
        );
    }
    println!("\nThe stronger the attacker, the more the proxy tier taxes it — which is");
    println!("precisely why S2PO outlives S1PO for kappa <= 0.9 in Figure 2.");
    Ok(())
}
