//! The protocol-level trial: one drive loop for every class, adversary
//! and transport.
//!
//! Every protocol cell of a sweep — S0, S1 or S2, under the paper's
//! baseline attacker or any [`StrategyKind`] from `fortress-attack`, on
//! a clean or a fault-decorated network — runs its trials through
//! [`run_trial`]. The loop owns the per-step drivers of the other axes
//! (outage schedule, SMR repair schedule, goodput probe), so a measured
//! quantity has exactly one place it can come from.
//!
//! # Seeding contract
//!
//! A trial is a pure function of `(experiment, adversary, seed)`: the
//! adversary draws from `seed`'s own `StdRng` stream and every driver
//! splits a dedicated stream off the same seed (see [`crate::faults`]),
//! so a vacuous axis consumes nothing and perturbs no other axis's
//! draws. Cells get their seeds from their *content*
//! ([`ScenarioSpec::content_seed`](crate::scenario::ScenarioSpec::content_seed)),
//! never from a sweep position. Consequences, asserted by
//! `tests/campaign.rs`: the same sweep gives bit-identical per-cell
//! results at any thread count, and reordering or subsetting the
//! sweep's axes cannot change any cell's trials.

use fortress_attack::attacker::Adversary;
use fortress_attack::campaign::StrategyKind;
use fortress_core::client::RetryPolicy;
use fortress_core::system::{CompromiseState, Stack};
use fortress_model::params::Policy;
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::{FaultSpec, GoodputProbe};
use crate::outage::{OutageDriver, RepairDriver};
use crate::protocol_mc::ProtocolExperiment;
use crate::scenario::TrialMeasure;

/// One trial of one protocol cell: assemble the stack, instantiate the
/// adversary, walk unit time-steps until the compromise condition holds,
/// and read the measured columns off the stack and the drivers. The
/// lifetime is the 1-based step of the fall, or `max_steps` if censored.
///
/// `adversary` is the posture attacking the proxy tier; `None` is the
/// paper's 1-tier baseline, probing the servers themselves (S0 and S1
/// have no proxies to pace against) — both are the one [`Adversary`]
/// engine.
pub fn run_trial(
    exp: &ProtocolExperiment,
    adversary: Option<StrategyKind>,
    seed: u64,
) -> TrialMeasure {
    // Shard dispatch first: a non-vacuous shard coordinate runs the cell
    // as a fleet behind the key-hash directory (`fleet_mc`), which does
    // its own fault dispatch. Only strategy-bearing cells shard; the
    // 1-tier baseline ignores the coordinate.
    if let (Some(strategy), false) = (adversary, exp.shard.is_none()) {
        return crate::fleet_mc::run_fleet_measured(exp, strategy, seed);
    }
    // Fault dispatch: `None` runs the bare transport (byte-identical to
    // the pre-axis path — no decorator, no probe, no extra RNG), drawn
    // from the worker's trial arena so a cell's trials rewind one
    // assembled stack instead of rebuilding; `Degraded` wraps the same
    // assembly in the fault decorator and rides a goodput probe along.
    match exp.fault {
        FaultSpec::None => crate::arena::with_arena_stack(exp.stack_config(seed), |stack| {
            drive_trial(exp, seed, stack, adversary, None)
        }),
        FaultSpec::Degraded { plan, retry } => drive_trial(
            exp,
            seed,
            &mut exp.build_faulty_stack(seed, plan),
            adversary,
            Some(retry),
        ),
    }
}

/// The one protocol drive loop, generic over the transport: the
/// adversary stepped against `stack`, the outage and repair schedules
/// applied at the top of each step, and — when `retry` is given — a
/// [`GoodputProbe`] stepped after the adversary.
fn drive_trial<T: Transport>(
    exp: &ProtocolExperiment,
    seed: u64,
    stack: &mut Stack<T>,
    adversary: Option<StrategyKind>,
    retry: Option<RetryPolicy>,
) -> TrialMeasure {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
    let mut outage = OutageDriver::new(exp.outage, seed);
    let mut repair = RepairDriver::new(exp.repair, "repair");
    let mut adversary =
        Adversary::new(stack, "attacker", exp.scheme, exp.omega, exp.suspicion, adversary, &mut rng);
    let mut probe = retry.map(|policy| GoodputProbe::new(stack, "probe", policy));
    let mut fell = None;
    for step in 1..=exp.max_steps {
        outage.before_step(stack, step);
        repair.before_step(stack, step);
        adversary.step(stack, &mut rng);
        if let Some(probe) = probe.as_mut() {
            probe.step(stack, step);
        }
        if stack.end_step() != CompromiseState::Intact {
            fell = Some(step);
            break;
        }
        if exp.policy == Policy::Proactive {
            adversary.on_rerandomized(&mut rng);
        }
    }
    let cap = exp.max_steps;
    TrialMeasure::of_protocol_trial(cap, fell.unwrap_or(cap), fell.is_some(), stack)
        .with_degrade(probe.as_mut().map(GoodputProbe::finish))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, TrialBudget};
    use crate::scenario::{ScenarioSpec, SweepScheduler, SweepSpec};
    use fortress_core::probelog::SuspicionPolicy;
    use fortress_core::system::SystemClass;

    fn tiny_grid() -> SweepSpec {
        SweepSpec::new(ProtocolExperiment {
            entropy_bits: 5,
            omega: 8.0,
            max_steps: 300,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .suspicions(vec![
            SuspicionPolicy { window: 8, threshold: 3 },
            SuspicionPolicy { window: 16, threshold: 2 },
        ])
        .fleets(vec![1, 3])
        .strategies(vec![StrategyKind::PacedBelowThreshold, StrategyKind::ScanThenStrike])
    }

    #[test]
    fn grid_enumerates_the_cartesian_product() {
        let cells = tiny_grid().compile(1);
        assert_eq!(cells.len(), 2 * 2 * 2);
        let mut seen = std::collections::HashSet::new();
        for cell in &cells {
            assert!(matches!(cell.spec, ScenarioSpec::Campaign { .. }), "S2 cells carry a strategy");
            assert!(seen.insert(&cell.label), "coordinate {} enumerated twice", cell.label);
        }
    }

    #[test]
    fn experiment_patches_cell_knobs_into_the_stack() {
        for cell in tiny_grid().compile(1) {
            let exp = cell.spec.experiment().expect("protocol-level cell");
            let stack = exp.build_stack(1);
            let cfg = stack.config();
            assert_eq!(cfg.np, exp.np);
            assert_eq!(cfg.suspicion, exp.suspicion);
            assert_eq!(stack.proxy_count(), exp.np);
        }
    }

    #[test]
    fn cell_seeds_are_content_derived_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for cell in tiny_grid().compile(42) {
            assert!(seen.insert(cell.seed), "seed collision at {}", cell.label);
            assert_eq!(cell.seed, cell.spec.content_seed(42), "seed must be pure");
            assert_ne!(cell.seed, cell.spec.content_seed(43), "base seed must matter");
        }
    }

    #[test]
    fn report_round_trips_cells() {
        let cells = tiny_grid().compile(7);
        let report =
            SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(4)).run(&cells);
        assert_eq!(report.cells.len(), 8);
        for (cell, outcome) in cells.iter().zip(&report.cells) {
            assert_eq!(outcome.cell.label, cell.label, "every cell reported, in order");
            assert!(outcome.estimate.mean >= 1.0);
            assert_eq!(outcome.estimate.n, 4);
        }
        assert_eq!(report.to_table().len(), 8);
        assert!(report.to_json().contains("np=3 paced\""));
    }

    #[test]
    fn adaptive_budget_spends_more_on_noisier_cells() {
        let budget = TrialBudget::TargetRse {
            target: 0.08,
            min_trials: 8,
            max_trials: 64,
            batch: 8,
        };
        let report =
            SweepScheduler::new(&Runner::with_threads(2), budget).run(&tiny_grid().compile(11));
        let ns: Vec<u64> = report.cells.iter().map(|o| o.estimate.n).collect();
        assert!(ns.iter().all(|n| (8..=64).contains(n)), "{ns:?}");
        assert!(
            ns.iter().any(|n| *n > 8),
            "some cell must need more than the minimum: {ns:?}"
        );
    }
}
