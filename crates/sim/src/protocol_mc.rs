//! Protocol-level Monte-Carlo: the real stacks under real attackers.
//!
//! A [`ProtocolExperiment`] is one protocol cell: class, policy, scaled
//! key space (default 2^10, so trials finish in milliseconds), the
//! adversary posture and every sweep coordinate. [`run_trial`] runs one
//! trial of it: a full [`Stack`] (randomized processes, replication
//! engines, proxies, deterministic network) and the matching attacker,
//! walked in unit time-steps until the class's compromise condition
//! holds. The *shape* of the results — who outlives whom — is what
//! corroborates the abstract models (the `proto` table of the `figures`
//! binary).
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
//! drivers of the other axes (crash schedule, workload probe), and this
//! module writes every column of a trial's [`TrialPoint`], so a measured
//! quantity has exactly one place it can come from.
//!
//! # Seeding contract
//!
//! A trial is a pure function of `(experiment, seed)`: each
//! group's adversary draws from its group seed's own `StdRng` stream and
//! every driver splits a dedicated stream off the same seed (see
//! [`crate::faults`]), so a vacuous axis consumes nothing and perturbs no
//! other axis's draws. Cells get their seeds from their *content*
//! ([`ProtocolExperiment::content_seed`]),
//! never from a sweep position. Consequences, asserted by
//! `tests/campaign.rs`: the same sweep gives bit-identical per-cell
//! results at any thread count, and reordering or subsetting the
//! sweep's axes cannot change any cell's trials.

use fortress_attack::attacker::Adversary;
use fortress_attack::campaign::StrategyKind;
use fortress_core::client::RetryPolicy;
use fortress_core::nameserver::ShardMap;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{Availability, CompromiseState, Stack, StackConfig, SystemClass};
use fortress_model::params::Policy;
use fortress_net::fault::FaultPlan;
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arena::with_arena_groups;
use crate::faults::FaultSpec;
use crate::fleet_mc::{hottest_group, ShardSpec, WorkloadProbe, ZipfWorkload, SHARD_WORKLOAD_STREAM};
use crate::outage::{OutageDriver, OutageSpec};
use crate::runner::{fold, Runner, Sample, TrialBudget};
use crate::stats::{Column, Estimate, TrialPoint};

/// Configuration of one protocol-level experiment.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolExperiment {
    /// System class under attack.
    pub class: SystemClass,
    /// Obfuscation policy.
    pub policy: Policy,
    /// Key entropy in bits (scaled down from the paper's 16 for runtime).
    pub entropy_bits: u32,
    /// Attacker's unconstrained probe rate ω per unit time-step.
    pub omega: f64,
    /// Proxy suspicion policy (S2 only; determines the effective κ).
    pub suspicion: SuspicionPolicy,
    /// Proxy fleet size `np` (S2 only; the paper deploys 3). The sweeps
    /// cross this axis.
    pub np: usize,
    /// The adversary posture attacking the proxy tier (S2 only; the
    /// default is the paper's baseline,
    /// [`StrategyKind::PacedBelowThreshold`]). S0 and S1 have no proxies
    /// to pace against and face the 1-tier baseline, probing the servers
    /// themselves; [`ProtocolExperiment::adversary`] says which.
    pub strategy: StrategyKind,
    /// Cap on steps per trial (trials hitting the cap are censored at it).
    pub max_steps: u64,
    /// Machine-crash schedule injected during the drive loop (the
    /// crash-schedule axis): a PB schedule on S1 and S2, recovered by
    /// failover, or [`OutageSpec::Smr`] on S0, recovered by view change
    /// and priced state transfer. [`OutageSpec::None`] preserves the
    /// pre-axis behavior and seeds bit-for-bit — no driver work, no
    /// workload client, no repair accounting.
    pub outage: OutageSpec,
    /// Network-fault schedule the trial's transport runs under (the
    /// fault axis; [`FaultSpec::None`] preserves the pre-axis results
    /// and seeds bit-for-bit — the network is clean and draws nothing,
    /// and there is no goodput probe).
    pub fault: FaultSpec,
    /// Shard coordinate: run the cell as a multi-group fleet behind the
    /// key-hash directory (the shard axis; [`ShardSpec::None`] preserves
    /// the pre-axis behavior and seeds bit-for-bit — one group, no
    /// workload). S2 only; the 1-tier baseline ignores it.
    pub shard: ShardSpec,
}

impl ProtocolExperiment {
    /// A default experiment against the given class and policy.
    pub fn new(class: SystemClass, policy: Policy) -> ProtocolExperiment {
        ProtocolExperiment {
            class,
            policy,
            entropy_bits: 10,
            omega: 8.0,
            suspicion: SuspicionPolicy {
                window: 64,
                threshold: 9,
            },
            np: 3,
            strategy: StrategyKind::PacedBelowThreshold,
            max_steps: 50_000,
            outage: OutageSpec::None,
            fault: FaultSpec::None,
            shard: ShardSpec::None,
        }
    }

    /// The posture this experiment's adversary takes: `Some(strategy)`
    /// against the proxy tier of S2, `None` — the 1-tier baseline — on S0
    /// and S1. Both are the one [`Adversary`] engine. The cell's label,
    /// content seed and κ and [`run_trial`] all read this rule.
    pub fn adversary(&self) -> Option<StrategyKind> {
        (self.class == SystemClass::S2Fortress).then_some(self.strategy)
    }

    /// Human-readable cell label (reports, golden files).
    pub fn label(&self) -> String {
        match self.adversary() {
            Some(strategy) => format!(
                "{} {} chi=2^{} w={}/t={} np={} {}{}",
                class_label(self.class),
                self.policy.suffix(),
                self.entropy_bits,
                self.suspicion.window,
                self.suspicion.threshold,
                self.np,
                strategy.display_label(),
                axis_suffixes(self),
            ),
            None => format!(
                "protocol {} {} chi=2^{}{}",
                class_label(self.class),
                self.policy.suffix(),
                self.entropy_bits,
                axis_suffixes(self),
            ),
        }
    }

    /// The cell's base seed under `base_seed` — a pure function of the
    /// cell *content* (every parameter, never a sweep position), mixed
    /// through the runner's SplitMix64 fold. A cell facing a posture on
    /// S2 folds under its own salt and then the posture's id; a 1-tier
    /// cell folds no posture, so its `strategy` field cannot move it.
    /// Consequences: per-cell results are invariant under sweep
    /// reordering and subsetting, and any two cells differing in any
    /// parameter draw decorrelated trial streams.
    pub fn content_seed(&self, base_seed: u64) -> u64 {
        match self.adversary() {
            Some(strategy) => fold(
                fold_experiment(fold(base_seed, 0x00CA_4A17), self),
                strategy.id(),
            ),
            None => fold_experiment(fold(base_seed, 0x9207_0C01), self),
        }
    }

    /// The indirect-attack coefficient κ this cell realizes: the
    /// posture's long-run κ against the suspicion policy on S2 (`None`
    /// for postures without a steady indirect rate, and for 1-tier
    /// classes, where κ has no meaning).
    pub fn kappa(&self) -> Option<f64> {
        self.adversary()?.indirect_kappa(self.suspicion, self.omega)
    }

    /// The shape every group of one trial of this experiment is
    /// assembled under, which is what the trial arena keys reuse on. The
    /// seed is not part of it: [`run_trial`] sets it per group.
    fn stack_config(&self) -> StackConfig {
        StackConfig {
            class: self.class,
            entropy_bits: self.entropy_bits,
            policy: self.policy,
            suspicion: self.suspicion,
            np: self.np,
            ..StackConfig::default()
        }
    }

    /// Runs `trials` independent trials through the parallel runner and
    /// returns the lifetime estimate. Each trial's stack and attacker are
    /// seeded from the runner's per-trial counter seed, so the estimate
    /// is identical at any thread count.
    pub fn estimate(&self, trials: u64, base_seed: u64) -> Estimate {
        self.estimate_with(&Runner::new(), TrialBudget::Fixed(trials), base_seed)
    }

    /// [`ProtocolExperiment::estimate`] with explicit runner and budget —
    /// the hook for callers that pin thread counts (determinism tests) or
    /// want adaptive stopping. One delegation to the sweep surface
    /// ([`crate::scenario::run_scenario_measured`]): trial `i` is
    /// [`run_trial`] at the per-trial counter seed, so PROTO estimates
    /// and sweeps of the same experiment are bit-identical.
    pub fn estimate_with(&self, runner: &Runner, budget: TrialBudget, base_seed: u64) -> Estimate {
        crate::scenario::run_scenario_measured(*self, runner, budget, base_seed)
            .0
            .estimate()
    }
}

/// The crash-schedule / fault / shard suffixes of a cell label, in axis
/// order: nothing for a `None` coordinate (legacy labels are preserved
/// verbatim), ` <axis>=<coordinate label>` otherwise — a crash schedule
/// keyed `out` on the PB tier and `repair` on the SMR one.
fn axis_suffixes(e: &ProtocolExperiment) -> String {
    let mut out = String::new();
    for (axis, vacuous, label) in [
        (e.outage.key(), e.outage.is_none(), e.outage.label()),
        ("fault", e.fault.is_none(), e.fault.label()),
        ("shard", e.shard.is_none(), e.shard.label()),
    ] {
        if !vacuous {
            out.push_str(&format!(" {axis}={label}"));
        }
    }
    out
}

/// Short class label for cell names.
fn class_label(class: SystemClass) -> &'static str {
    match class {
        SystemClass::S0Smr => "S0",
        SystemClass::S1Pb => "S1",
        SystemClass::S2Fortress => "S2",
    }
}

/// Folds every seeded parameter of a protocol experiment. The crash
/// schedule (PB or SMR), fault and shard coordinates fold last (in that
/// order), and all three `None` coordinates fold nothing — so every
/// pre-axis cell keeps its pinned seed, while any two cells differing in
/// any crash-schedule, fault, retry or shard parameter draw decorrelated
/// trial streams.
fn fold_experiment(seed: u64, e: &ProtocolExperiment) -> u64 {
    let mut s = fold(seed, class_id(e.class));
    s = fold(s, e.policy.id());
    s = fold(s, u64::from(e.entropy_bits));
    s = fold(s, e.omega.to_bits());
    s = fold(s, e.suspicion.window);
    s = fold(s, u64::from(e.suspicion.threshold));
    s = fold(s, e.np as u64);
    // The randomization scheme's slot. There is one scheme, ASLR, whose
    // id is 0; folding the constant keeps every seed's bits.
    s = fold(s, 0);
    s = fold(s, e.max_steps);
    s = e.outage.fold_into(s);
    s = e.fault.fold_into(s);
    e.shard.fold_into(s)
}

/// Stable id of a system class for seeding.
fn class_id(class: SystemClass) -> u64 {
    match class {
        SystemClass::S0Smr => 0,
        SystemClass::S1Pb => 1,
        SystemClass::S2Fortress => 2,
    }
}

/// One protocol trial's measurement: the lifetime, plus the availability
/// point (downtime fraction, failovers, failover latency, lost requests
/// and the columns of the cell's other axes).
#[derive(Clone, Copy, Debug)]
pub struct TrialMeasure {
    /// The 1-based step at which the system fell (or the step cap).
    pub lifetime: u64,
    /// The trial's measured columns.
    pub avail: TrialPoint,
}

impl TrialMeasure {
    /// The runner-facing sample: lifetime as the primary value, the
    /// availability point alongside.
    pub(crate) fn into_sample(self) -> Sample {
        Sample {
            value: self.lifetime as f64,
            avail: Some(self.avail),
        }
    }
}

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
/// The adversary takes the experiment's posture
/// ([`ProtocolExperiment::adversary`]). Only cells with a posture against
/// the proxy tier shard; the 1-tier baseline ignores the coordinate.
pub fn run_trial(exp: &ProtocolExperiment, seed: u64) -> TrialMeasure {
    let shard = if exp.adversary().is_some() { exp.shard } else { ShardSpec::None };
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
        drive(exp, shard, seed, groups, retry)
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
            omega,
            exp.suspicion,
            exp.adversary(),
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

    let mut measure = measure_trial(cap, &falls, groups);
    if let Some(probe) = probe.as_mut() {
        let point = &mut measure.avail;
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

/// The measurement of one finished protocol trial over its `groups`
/// (one stack for an unsharded cell, a fleet's for a sharded one):
/// `falls[g]` is the 1-based step group `g` fell at, `None` while it
/// stands. The lifetime is the first fall (or `cap` when censored).
/// The downtime fraction is taken over the full mission window `cap`
/// and averaged over groups: observed down steps plus — for a group
/// that fell — every remaining step of the window (a fallen system
/// delivers no correct service), so "resisted the attack" and "stayed
/// up" compose into one availability number, the survivability
/// literature's resilience metric. Failovers and losses sum over
/// groups; latency averages the groups that completed a failover. At
/// one group this is the single-stack arithmetic bit for bit
/// (`0.0 + x`, `x / 1.0`).
fn measure_trial<T: Transport>(
    cap: u64,
    falls: &[Option<u64>],
    groups: &[Stack<T>],
) -> TrialMeasure {
    let window = cap.max(1) as f64;
    let mut total = Availability::default();
    let (mut downtime, mut latency_sum, mut latency_n) = (0.0, 0.0, 0u32);
    for (stack, fall) in groups.iter().zip(falls) {
        let avail = stack.availability();
        let post = fall.map_or(0, |fell| cap - fell);
        downtime += (avail.down_steps + post) as f64 / window;
        total.failovers += avail.failovers;
        total.lost_requests += avail.lost_requests;
        total.view_changes += avail.view_changes;
        total.transfer_units += avail.transfer_units;
        total.peak_transfer_queue = total.peak_transfer_queue.max(avail.peak_transfer_queue);
        if let Some(latency) = avail.mean_failover_latency() {
            latency_sum += latency;
            latency_n += 1;
        }
    }
    let latency = (latency_n > 0).then(|| latency_sum / f64::from(latency_n));
    let mut point = TrialPoint::default();
    point[Column::Downtime] = Some(downtime / groups.len() as f64);
    point[Column::Failovers] = Some(total.failovers as f64);
    point[Column::FailoverLatency] = latency;
    point[Column::LostRequests] = Some(total.lost_requests as f64);
    // Repair economics only exist on trials that armed the S0
    // accounting (an SMR crash schedule or an explicit enable); legacy
    // cells leave the group unmeasured and their accumulators empty.
    if groups.iter().any(|stack| stack.smr_repair_tracked()) {
        point[Column::ViewChanges] = Some(total.view_changes as f64);
        point[Column::ViewChangeLatency] = latency;
        point[Column::TransferUnits] = Some(total.transfer_units as f64);
        point[Column::StormQueueDepth] = Some(total.peak_transfer_queue as f64);
    }
    TrialMeasure {
        lifetime: falls.iter().flatten().copied().min().unwrap_or(cap),
        avail: point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SweepScheduler, SweepSpec};
    use fortress_model::params::{AttackParams, ProbeModel};
    use fortress_model::{expected_lifetime, SystemKind};

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
            assert!(cell.spec.adversary().is_some(), "S2 cells carry a strategy");
            assert!(seen.insert(&cell.label), "coordinate {} enumerated twice", cell.label);
        }
    }

    #[test]
    fn experiment_patches_cell_knobs_into_the_stack() {
        for cell in tiny_grid().compile(1) {
            let exp = cell.spec;
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

    /// Protocol S1SO lifetimes agree with the analytic model at scaled χ.
    #[test]
    fn s1_so_protocol_matches_model() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let est = exp.estimate(60, 1000);
        let params = AttackParams::new(256.0, 8.0).unwrap();
        let analytic = expected_lifetime(
            SystemKind::S1Pb,
            Policy::StartupOnly,
            ProbeModel::Broadcast,
            &params,
        )
        .unwrap();
        let rel = (est.mean - analytic).abs() / analytic;
        assert!(rel < 0.25, "protocol {est:?} vs analytic {analytic}");
    }

    /// Protocol S1PO lifetimes agree with 1/α at scaled χ.
    #[test]
    fn s1_po_protocol_matches_model() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 16.0,
            max_steps: 1000,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive)
        };
        let est = exp.estimate(60, 2000);
        let analytic = 256.0 / 16.0; // 1/alpha = chi/omega
        let rel = (est.mean - analytic).abs() / analytic;
        assert!(rel < 0.3, "protocol {est:?} vs analytic {analytic}");
    }

    /// The protocol stacks reproduce S1SO → S0SO (trend 1).
    #[test]
    fn trend1_holds_at_protocol_level() {
        let s1 = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let s0 = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S0Smr, Policy::StartupOnly)
        };
        let e1 = s1.estimate(60, 3000);
        let e0 = s0.estimate(60, 4000);
        assert!(
            e1.mean > e0.mean,
            "S1SO ({:?}) must outlive S0SO ({:?})",
            e1,
            e0
        );
    }

    /// PO outlives SO at protocol level (trend 2, S1 slice).
    #[test]
    fn trend2_holds_at_protocol_level() {
        let po = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            max_steps: 2000,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive)
        };
        let so = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let e_po = po.estimate(50, 5000);
        let e_so = so.estimate(50, 6000);
        assert!(
            e_po.mean > e_so.mean,
            "S1PO ({:?}) must outlive S1SO ({:?})",
            e_po,
            e_so
        );
    }

    /// FORTRESS under SO with a detection-constrained attacker outlives the
    /// bare PB system under SO against the same attacker.
    #[test]
    fn proxies_add_resilience_at_protocol_level() {
        let s2 = ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            suspicion: SuspicionPolicy {
                window: 32,
                threshold: 3,
            },
            max_steps: 4000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        };
        let s1 = ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let e2 = s2.estimate(40, 7000);
        let e1 = s1.estimate(40, 8000);
        assert!(
            e2.mean > e1.mean,
            "S2SO ({:?}) must outlive S1SO ({:?}) when proxies pace the attacker",
            e2,
            e1
        );
    }
}
