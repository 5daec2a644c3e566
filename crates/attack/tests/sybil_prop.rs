//! Property tests for the coordinated multi-identity attacker
//! ([`StrategyKind::SybilPaced`]): when every identity's rate stays
//! below the per-source threshold, **no** identity is ever flagged — for
//! any policy, budget and identity count, window = 1 and threshold = 1
//! edges included.
//!
//! Two layers, from cheap to full-fidelity:
//!
//! * the split-rate schedule (one [`Pacer`] per identity at
//!   [`StrategyKind::sybil_rate_per_identity`]) fed into a shared
//!   [`ProbeLog`] — the pacer and the log are independent
//!   implementations of the same inequality, so this is a genuine
//!   cross-check of the *rates*;
//! * the real strategy driving a real S2 stack — the end-to-end
//!   assertion that the implementation's probing (registration,
//!   submission, observation) keeps every Sybil source under the radar.

use fortress_attack::attacker::Adversary;
use fortress_attack::campaign::StrategyKind;
use fortress_attack::pacing::Pacer;
use fortress_core::probelog::{ProbeLog, SuspicionPolicy};
use fortress_core::system::{CompromiseState, Stack, StackConfig, SystemClass};
use fortress_obf::schedule::Policy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Feeds `identities` split-rate pacer schedules into one shared log for
/// `steps` unit time-steps; returns whether any source was flagged.
fn split_schedule_gets_flagged(
    policy: SuspicionPolicy,
    omega: f64,
    identities: u8,
    steps: u64,
) -> bool {
    let rate = StrategyKind::sybil_rate_per_identity(policy, omega, identities);
    let mut log = ProbeLog::new(policy);
    let mut pacers: Vec<(String, Pacer)> = (0..identities.max(1))
        .map(|j| (format!("sybil#{j}"), Pacer::with_rate(rate, omega)))
        .collect();
    for t in 0..steps {
        for (name, pacer) in &mut pacers {
            for _ in 0..pacer.probes_this_step() {
                log.record_invalid(name, t);
            }
            if log.is_suspicious(name) {
                return true; // sticky; no need to run further
            }
        }
    }
    pacers.iter().any(|(name, _)| log.is_suspicious(name))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The split schedule never flags any identity, across randomized
    /// windows, thresholds, budgets and identity counts — including
    /// window = 1 (safe rate is whole probes per step) and threshold = 1
    /// (nothing is safe; every identity must stay silent).
    #[test]
    fn no_sybil_identity_ever_crosses_the_boundary(
        window in 1u64..128,
        threshold in 1u32..48,
        omega in 0.05f64..32.0,
        identities in 1u8..12,
    ) {
        let policy = SuspicionPolicy { window, threshold };
        prop_assert!(
            !split_schedule_gets_flagged(policy, omega, identities, 4 * window + 256),
            "sybil identity flagged under window={window} threshold={threshold} \
             omega={omega} identities={identities}"
        );
    }

    /// The fleet's combined rate never exceeds the single probe budget ω
    /// — "splitting" may not manufacture probes.
    #[test]
    fn combined_rate_never_exceeds_the_budget(
        window in 1u64..128,
        threshold in 1u32..48,
        omega in 0.05f64..32.0,
        identities in 1u8..12,
    ) {
        let policy = SuspicionPolicy { window, threshold };
        let rate = StrategyKind::sybil_rate_per_identity(policy, omega, identities);
        prop_assert!(rate * f64::from(identities) <= omega + 1e-9);
        prop_assert!(rate <= policy.max_safe_rate() + 1e-12);
    }
}

/// Drives the real strategy against a real SO FORTRESS and asserts no
/// suspect is ever recorded.
fn stack_run_stays_unflagged(
    policy: SuspicionPolicy,
    omega: f64,
    identities: u8,
    steps: u64,
    seed: u64,
) {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        entropy_bits: 9,
        policy: Policy::StartupOnly,
        suspicion: policy,
        np: 3,
        seed,
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51B1);
    let mut strategy = Adversary::new(
        &mut stack,
        "mallory",
        omega,
        policy,
        Some(StrategyKind::SybilPaced { identities }),
        &mut rng,
    );
    for _ in 0..steps {
        strategy.step(&mut stack);
        if stack.end_step() != CompromiseState::Intact {
            break;
        }
    }
    assert!(
        stack.suspects().is_empty(),
        "sybil identity flagged at window={} threshold={} omega={omega} identities={identities}: {:?}",
        policy.window,
        policy.threshold,
        stack.suspects()
    );
}

/// End-to-end: the real strategy on a real stack, over a policy grid
/// that includes both edges (window = 1, threshold = 1) and both split
/// regimes (threshold-bound and budget-bound).
#[test]
fn real_stack_runs_never_flag_any_identity() {
    let policies = [
        SuspicionPolicy { window: 1, threshold: 1 },  // nothing is safe
        SuspicionPolicy { window: 1, threshold: 3 },  // 2 whole probes/step/source
        SuspicionPolicy { window: 16, threshold: 1 }, // radio silence again
        SuspicionPolicy { window: 16, threshold: 4 },
        SuspicionPolicy::hair_trigger(),
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        for identities in [1u8, 3, 8] {
            stack_run_stays_unflagged(policy, 8.0, identities, 150, 0xF0 + i as u64);
        }
    }
}

/// threshold = 1 forces full radio silence: zero indirect probes from
/// every identity, not merely zero flags.
#[test]
fn threshold_one_means_fleet_wide_radio_silence() {
    let policy = SuspicionPolicy { window: 8, threshold: 1 };
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        entropy_bits: 8,
        policy: Policy::StartupOnly,
        suspicion: policy,
        np: 3,
        seed: 0xDEAD,
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut strategy = Adversary::new(
        &mut stack,
        "mallory",
        8.0,
        policy,
        Some(StrategyKind::SybilPaced { identities: 5 }),
        &mut rng,
    );
    for _ in 0..80 {
        strategy.step(&mut stack);
        if stack.end_step() != CompromiseState::Intact {
            break;
        }
    }
    assert_eq!(
        strategy.report().server_probes,
        0,
        "nothing is safe under threshold 1; the fleet must go silent"
    );
    assert!(stack.suspects().is_empty());
}
