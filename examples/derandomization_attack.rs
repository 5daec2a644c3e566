//! A de-randomization attack, live: the two-phase attack of §2.1 against a
//! primary-backup system with start-up-only obfuscation (S1SO), exactly as
//! in Shacham et al. — probe, observe the connection closure, let the
//! forking daemon restart the child, repeat until the key falls.
//!
//! ```text
//! cargo run --example derandomization_attack
//! ```

use fortress::attack::attacker::Adversary;
use fortress::core::probelog::SuspicionPolicy;
use fortress::core::system::{CompromiseState, Stack, StackConfig, SystemClass};
use fortress::obf::schedule::Policy;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2024);
    // A deliberately small key space (2^8 = 256 keys) so the attack
    // finishes while you watch; the paper's 2^16 works identically.
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S1Pb,
        entropy_bits: 8,
        policy: Policy::StartupOnly,
        seed: 7,
        ..StackConfig::default()
    })?;
    println!("target: S1 (3-replica primary-backup), chi = 256 keys, SO policy");
    println!("all replicas share one randomization key (the FORTRESS prescription)\n");

    // The attacker probes at omega = 16 guesses per unit time-step.
    // `None` is the 1-tier posture: no proxy tier, so nothing to pace
    // against and the suspicion policy is moot.
    let mut attacker = Adversary::new(
        &mut stack,
        "mallory",
        16.0,
        SuspicionPolicy::default(),
        None,
        &mut rng,
    );

    let mut step = 0u64;
    loop {
        step += 1;
        attacker.step(&mut stack);
        let report = attacker.report();
        let state = stack.end_step();
        println!(
            "step {step:>3}: probes so far {:>4}, crashes observed {:>4}, restarts {:>4} -> {}",
            report.server_probes,
            report.closures_observed,
            stack.server_restarts(),
            match state {
                CompromiseState::Intact => "system intact".to_string(),
                other => format!("{other:?}"),
            }
        );
        if state != CompromiseState::Intact {
            println!("\nphase 1 complete after {step} steps: the shared key was uncovered.");
            println!("every probe that missed crashed a child (closure observed over the");
            println!("attacker's connection); the probe that matched compromised all three");
            println!("identically randomized replicas at once.");
            break;
        }
        if step > 64 {
            println!("\n(unreachable with this seed: 256 keys / 16 probes per step)");
            break;
        }
    }
    Ok(())
}
