//! The protocol-level trial: one assembly and one drive loop for every
//! class, adversary, fault plan and fleet size.
//!
//! Every protocol cell of a sweep — S0, S1 or S2, under the paper's
//! baseline attacker or any [`StrategyKind`] from `fortress-attack`, on
//! a clean or a degraded network, one stack or a sharded fleet — runs
//! its trials through [`run_trial`], on the same type: a slice of
//! groups, each a [`Stack`] on its own `SimNet` under the cell's fault
//! plan, drawn from the worker's trial arena ([`crate::arena`]). An
//! unsharded cell is one group on the trial seed, watched for its own
//! fall; a sharded cell is N groups, group `g` on
//! [`group_seed`]`(seed, g)` under the placement's share of ω, watched at
//! the hottest shard. Groups share no wire: each has its own addresses,
//! clock, counters and fault stream `fold(seed_of(g), FAULT_STREAM)`. A
//! clean cell runs the nets under [`FaultPlan::None`], whose sends take
//! the plain path and draw nothing (the five sweep goldens pin that clean
//! cells kept their bits). The loop owns the per-step
//! drivers of the other axes (crash schedule, workload probe), so a
//! measured quantity has exactly one place it can come from.
//!
//! # Seeding contract
//!
//! A trial is a pure function of `(experiment, adversary, seed)`: each
//! group's adversary draws from its group seed's own `StdRng` stream and
//! every driver splits a dedicated stream off the same seed (see
//! [`crate::faults`]), so a vacuous axis consumes nothing and perturbs no
//! other axis's draws. Cells get their seeds from their *content*
//! ([`ScenarioSpec::content_seed`](crate::scenario::ScenarioSpec::content_seed)),
//! never from a sweep position. Consequences, asserted by
//! `tests/campaign.rs`: the same sweep gives bit-identical per-cell
//! results at any thread count, and reordering or subsetting the
//! sweep's axes cannot change any cell's trials.

use fortress_attack::attacker::Adversary;
use fortress_attack::campaign::StrategyKind;
use fortress_core::client::RetryPolicy;
use fortress_core::nameserver::ShardMap;
use fortress_core::system::{CompromiseState, Stack};
use fortress_model::params::Policy;
use fortress_net::fault::FaultPlan;
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arena::with_arena_groups;
use crate::faults::FaultSpec;
use crate::fleet_mc::{hottest_group, ShardSpec, WorkloadProbe, ZipfWorkload, SHARD_WORKLOAD_STREAM};
use crate::outage::OutageDriver;
use crate::protocol_mc::ProtocolExperiment;
use crate::runner::fold;
use crate::scenario::TrialMeasure;
use crate::stats::Column;

/// Stream salt folded into per-group seed derivation (see [`group_seed`]),
/// following the repo's stream-splitting convention: every independent
/// randomness consumer gets its own documented SplitMix64 stream.
pub const GROUP_STREAM: u64 = 0x0061_2F5E_ED00;

/// Derives fortress group `group`'s master seed from a sharded trial's
/// seed — a SplitMix64 fold, so sibling groups draw from decorrelated
/// streams and group `g` of seed `s` is a pure function of `(s, g)`.
/// [`run_trial`] puts the groups of a sharded cell on it.
pub fn group_seed(trial_seed: u64, group: usize) -> u64 {
    let mut z = trial_seed
        .rotate_left(25)
        .wrapping_add(GROUP_STREAM)
        .wrapping_add((group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One trial of one protocol cell: draw the assembly from the arena,
/// instantiate the adversary, walk unit time-steps until the compromise
/// condition holds, and read the measured columns off the groups and the
/// drivers. The lifetime is the 1-based step of the first fall, or
/// `max_steps` if censored.
///
/// `adversary` is the posture attacking the proxy tier; `None` is the
/// paper's 1-tier baseline, probing the servers themselves (S0 and S1
/// have no proxies to pace against) — both are the one [`Adversary`]
/// engine. Only strategy-bearing cells shard; the 1-tier baseline
/// ignores the coordinate.
pub fn run_trial(
    exp: &ProtocolExperiment,
    adversary: Option<StrategyKind>,
    seed: u64,
) -> TrialMeasure {
    let shard = if adversary.is_some() { exp.shard } else { ShardSpec::None };
    // The cell's coordinates pick the arguments of the one assembly, and
    // this is the only place that says which seed a group runs on: a
    // lone group on the trial seed itself, the groups of a sharded cell
    // on their own folds of it.
    let groups = match shard {
        ShardSpec::None => 1,
        ShardSpec::Sharded { shards, .. } => shards,
    };
    let seed_of = |g| if shard.is_none() { seed } else { group_seed(seed, g) };
    // A clean cell measures no goodput; a degraded one runs its plan in
    // every group, on the fault stream split off that group's seed.
    let (plan, retry) = match exp.fault {
        FaultSpec::None => (FaultPlan::None, None),
        FaultSpec::Degraded { plan, retry } => (plan, Some(retry)),
    };
    with_arena_groups(exp.stack_config(), groups, seed_of, plan, |groups| {
        drive(exp, adversary, shard, seed, groups, retry)
    })
}

/// The probe retry policy sharded fault-free cells run under (degraded
/// cells use their [`FaultSpec`]'s policy instead).
fn default_probe_retry() -> RetryPolicy {
    RetryPolicy::retrying(8, 2, 2)
}

/// The one protocol drive loop, generic over the transport and the
/// number of groups. Each step is: the scheduled rebalance → every
/// group's crash schedule → every adversary → the workload
/// probe → [`Stack::end_step`] on every group, each fall read off its
/// return value (end-of-step maintenance may revoke the foothold it
/// reports — under PO it always does).
///
/// `shard` says what the groups are. [`ShardSpec::None`]: one group
/// facing the whole ω, probed only when `retry` asks for a goodput
/// measurement. [`ShardSpec::Sharded`]: adversaries placed by the cell's
/// placement (groups with a zero budget get no adversary at all), and a
/// Zipf workload routed through the shard directory. Each group's
/// adversary and crash schedule seed from the seed the group was
/// assembled on; `seed` is the trial's, for the workload stream.
fn drive<T: Transport>(
    exp: &ProtocolExperiment,
    adversary: Option<StrategyKind>,
    shard: ShardSpec,
    seed: u64,
    groups: &mut [Stack<T>],
    retry: Option<RetryPolicy>,
) -> TrialMeasure {
    let n = groups.len();
    let mut map = ShardMap::uniform(n);
    let sharded = match shard {
        ShardSpec::None => None,
        ShardSpec::Sharded { zipf_s, placement, rebalance_at, .. } => {
            Some((zipf_s, placement, rebalance_at))
        }
    };
    // The group whose fall ends the mission: the hottest shard — the
    // placement question's observable — or the only group there is.
    let watched = sharded.map_or(0, |(zipf_s, ..)| hottest_group(zipf_s, &map));

    let mut adversaries = Vec::new();
    for (g, stack) in groups.iter_mut().enumerate() {
        let omega = sharded.map_or(exp.omega, |(_, placement, _)| {
            placement.omega_for_group(exp.omega, g, watched, n)
        });
        if omega <= 0.0 {
            continue; // a zero budget is no adversary at all
        }
        let mut rng = StdRng::seed_from_u64(stack.config().seed.wrapping_mul(0x9e3779b97f4a7c15));
        let adv = Adversary::new(
            stack,
            "attacker",
            exp.scheme,
            omega,
            exp.suspicion,
            adversary,
            &mut rng,
        );
        adversaries.push((g, adv, rng));
    }
    let mut outages: Vec<OutageDriver> = groups
        .iter()
        .map(|stack| OutageDriver::new(exp.outage, stack.config().seed))
        .collect();
    let mut probe = (sharded.is_some() || retry.is_some()).then(|| {
        let workload = sharded
            .map(|(zipf_s, ..)| ZipfWorkload::new(zipf_s, fold(seed, SHARD_WORKLOAD_STREAM)));
        let retry = retry.unwrap_or_else(default_probe_retry);
        WorkloadProbe::new(groups, "probe", retry, workload, watched)
    });

    let cap = exp.max_steps;
    let mut falls: Vec<Option<u64>> = vec![None; n];
    for step in 1..=cap {
        if sharded.is_some_and(|(.., rebalance_at)| step == rebalance_at) && n > 1 {
            // The hottest group sheds half its key ranges to a sibling,
            // and the probe re-routes what was in flight to them.
            let half = map.slots_owned_by(watched).len() / 2;
            map.migrate_from(watched, (watched + 1) % n, half);
            if let Some(probe) = probe.as_mut() {
                probe.rebalance(groups, &map, step);
            }
        }
        for (stack, outage) in groups.iter_mut().zip(&mut outages) {
            outage.before_step(stack, step);
        }
        for (g, adv, _) in &mut adversaries {
            adv.step(&mut groups[*g]);
        }
        if let Some(probe) = probe.as_mut() {
            probe.step(groups, &map, step);
        }
        // Every group ticks, fallen or not: sibling falls are recorded
        // but the fleet keeps serving the remaining shards.
        for (stack, fall) in groups.iter_mut().zip(&mut falls) {
            if stack.end_step() != CompromiseState::Intact && fall.is_none() {
                *fall = Some(step);
            }
        }
        if falls[watched].is_some() {
            break;
        }
        if exp.policy == Policy::Proactive {
            for (_, adv, rng) in &mut adversaries {
                adv.on_rerandomized(rng);
            }
        }
    }

    let mut measure = TrialMeasure::of_protocol_trial(cap, &falls, groups);
    if let (Some(probe), Some(point)) = (probe.as_mut(), measure.avail.as_mut()) {
        let (degrade, hot_load, moved) = probe.finish();
        if retry.is_some() {
            point[Column::Goodput] = Some(degrade.goodput_fraction());
            point[Column::Retries] = Some(degrade.retries_per_request());
            point[Column::DupSuppressed] = Some(degrade.duplicates_suppressed as f64);
            point[Column::GaveUp] = Some(degrade.gave_up as f64);
        }
        if sharded.is_some() {
            point[Column::HotLifetime] = Some(falls[watched].unwrap_or(cap) as f64);
            point[Column::HotLoad] = Some(hot_load);
            point[Column::MovedRequests] = Some(moved);
            point[Column::GroupsFallen] = Some(falls.iter().flatten().count() as f64);
        }
    }
    measure
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
    fn group_seeds_are_pure_and_distinct() {
        for g in 0..8 {
            assert_eq!(group_seed(42, g), group_seed(42, g));
            assert_ne!(group_seed(42, g), group_seed(43, g));
            for h in 0..g {
                assert_ne!(group_seed(42, g), group_seed(42, h));
            }
        }
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
            let stack = Stack::new(exp.stack_config()).expect("valid cell");
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
