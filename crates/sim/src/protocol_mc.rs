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
//! a clean or a degraded network — runs its trials through
//! [`run_trial`], on the same type: one [`Stack`] on its own `SimNet`
//! under the cell's fault plan and the fault stream
//! `fold(seed, FAULT_STREAM)`, drawn from the worker's trial arena
//! ([`crate::arena`]) and walked by `drive`. A clean cell runs the net
//! under [`FaultPlan::None`], whose sends take the plain path and draw
//! nothing (the four sweep goldens pin that clean cells kept their bits).
//! The loop owns the per-step drivers of the other axes (crash schedule,
//! goodput probe), and this module writes every column of a trial's
//! [`TrialPoint`], so a measured quantity has exactly one place it can
//! come from.
//!
//! # Seeding contract
//!
//! A trial is a pure function of `(experiment, seed)`: the adversary
//! draws from the seed's own `StdRng` stream and
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
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{CompromiseState, Stack, StackConfig, SystemClass};
use fortress_model::params::Policy;
use fortress_net::fault::FaultPlan;
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arena::with_arena;
use crate::faults::{FaultSpec, WorkloadProbe};
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

    /// The shape every trial of this experiment is assembled under, which
    /// is what the trial arena keys reuse on. The seed is not part of it:
    /// [`run_trial`] sets it per trial.
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

/// The crash-schedule and fault suffixes of a cell label, in axis
/// order: nothing for a `None` coordinate (legacy labels are preserved
/// verbatim), ` <axis>=<coordinate label>` otherwise — a crash schedule
/// keyed `out` on the PB tier and `repair` on the SMR one.
fn axis_suffixes(e: &ProtocolExperiment) -> String {
    let mut out = String::new();
    for (axis, vacuous, label) in [
        (e.outage.key(), e.outage.is_none(), e.outage.label()),
        ("fault", e.fault.is_none(), e.fault.label()),
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
/// schedule (PB or SMR) and fault coordinates fold last (in that order),
/// and both `None` coordinates fold nothing — so every pre-axis cell
/// keeps its pinned seed, while any two cells differing in any
/// crash-schedule, fault or retry parameter draw decorrelated trial
/// streams.
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
    e.fault.fold_into(s)
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

/// One trial of one protocol cell: draw the stack from the arena, then
/// `drive` it. The lifetime is the 1-based step of the fall, or
/// `max_steps` if censored.
pub fn run_trial(exp: &ProtocolExperiment, seed: u64) -> TrialMeasure {
    // A clean cell measures no goodput; a degraded one runs its plan on
    // the fault stream split off the trial seed.
    let (plan, retry) = match exp.fault {
        FaultSpec::None => (FaultPlan::None, None),
        FaultSpec::Degraded { plan, retry } => (plan, Some(retry)),
    };
    with_arena(exp.stack_config(), seed, plan, |stack| drive(exp, stack, retry))
}

/// The one protocol drive loop, generic over the transport. Each step is:
/// the crash schedule → the adversary → the goodput probe (when `retry`
/// asks for one) → [`Stack::end_step`], the fall read off its return
/// value (end-of-step maintenance may revoke the foothold it reports —
/// under PO it always does). The adversary takes the experiment's posture
/// ([`ProtocolExperiment::adversary`]); it and the crash schedule seed
/// from the seed the stack was assembled on. They are built in that
/// order, and the probe after them, which fixes the endpoint addresses.
fn drive<T: Transport>(
    exp: &ProtocolExperiment,
    stack: &mut Stack<T>,
    retry: Option<RetryPolicy>,
) -> TrialMeasure {
    let seed = stack.config().seed;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
    let mut adversary =
        Adversary::new(stack, "attacker", exp.omega, exp.suspicion, exp.adversary(), &mut rng);
    let mut outage = OutageDriver::new(exp.outage, seed);
    let mut probe = retry.map(|retry| WorkloadProbe::new(stack, "probe", retry));

    let cap = exp.max_steps;
    let mut fall = None;
    for step in 1..=cap {
        outage.before_step(stack, step);
        adversary.step(stack);
        if let Some(probe) = probe.as_mut() {
            probe.step(stack, step);
        }
        if stack.end_step() != CompromiseState::Intact {
            fall = Some(step);
            break;
        }
        if exp.policy == Policy::Proactive {
            adversary.on_rerandomized(&mut rng);
        }
    }

    let mut measure = measure_trial(cap, fall, stack);
    if let Some(probe) = probe {
        let degrade = probe.finish();
        let point = &mut measure.avail;
        point[Column::Goodput] = Some(degrade.goodput_fraction());
        point[Column::Retries] = Some(degrade.retries_per_request());
        point[Column::DupSuppressed] = Some(degrade.duplicates_suppressed as f64);
        point[Column::GaveUp] = Some(degrade.gave_up as f64);
    }
    measure
}

/// The measurement of one finished protocol trial: `fall` is the 1-based
/// step the stack fell at, `None` while it stands. The lifetime is the
/// fall (or `cap` when censored). The downtime fraction is taken over the
/// full mission window `cap`: observed down steps plus — for a trial that
/// fell — every remaining step of the window (a fallen system delivers no
/// correct service), so "resisted the attack" and "stayed up" compose
/// into one availability number, the survivability literature's
/// resilience metric.
fn measure_trial<T: Transport>(cap: u64, fall: Option<u64>, stack: &Stack<T>) -> TrialMeasure {
    let avail = stack.availability();
    let post = fall.map_or(0, |fell| cap - fell);
    let latency = avail.mean_failover_latency();
    let mut point = TrialPoint::default();
    point[Column::Downtime] = Some((avail.down_steps + post) as f64 / cap.max(1) as f64);
    point[Column::Failovers] = Some(avail.failovers as f64);
    point[Column::FailoverLatency] = latency;
    point[Column::LostRequests] = Some(avail.lost_requests as f64);
    // Repair economics only exist on trials that armed the S0
    // accounting (an SMR crash schedule or an explicit enable); legacy
    // cells leave the group unmeasured and their accumulators empty.
    if stack.smr_repair_tracked() {
        point[Column::ViewChanges] = Some(avail.view_changes as f64);
        point[Column::ViewChangeLatency] = latency;
        point[Column::TransferUnits] = Some(avail.transfer_units as f64);
        point[Column::StormQueueDepth] = Some(avail.peak_transfer_queue as f64);
    }
    TrialMeasure {
        lifetime: fall.unwrap_or(cap),
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

    /// A trial does not depend on its transport: `drive` on a stack over
    /// Unix sockets gives what [`run_trial`] gives on `SimNet` (the
    /// lifetime and every column) for the first trial of every fault-free
    /// cell of the four presets. Every step pumps to quiescence, so the
    /// order in which the kernel hands frames over decides nothing.
    #[test]
    fn a_trial_over_unix_sockets_equals_the_simnet_trial() {
        use crate::runner::trial_seed;
        use crate::scenario::{availability_sweep, fault_sweep, paper_default_sweep, repair_sweep};
        use fortress_net::sock::SockNet;

        let cells = [paper_default_sweep(0), availability_sweep(0), fault_sweep(0), repair_sweep(0)];
        let (mut trials, mut steps) = (0, 0);
        for cell in cells.iter().flatten().filter(|cell| cell.spec.fault.is_none()) {
            let seed = trial_seed(cell.seed, 0);
            let want = run_trial(&cell.spec, seed);
            let cfg = StackConfig { seed, ..cell.spec.stack_config() };
            let mut stack = Stack::with_transport(cfg, SockNet::uds()).expect("a UDS stack");
            let got = drive(&cell.spec, &mut stack, None);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", cell.label);
            trials += 1;
            steps += got.lifetime;
        }
        assert_eq!(trials, 65, "every fault-free cell ran");
        assert!(steps > 1_000, "the row must walk real trials, not {steps} steps");
    }

    /// The proxy tier never flags a benign client. Trials 0..8 of every
    /// cell of the fault and availability slices at base seed 7 (the
    /// trials `trial_bits` pins) are driven with a goodput probe, one
    /// retrying twice on an 8-step timeout added where the cell carries
    /// none, and the probe is never among the stack's suspects: links
    /// drop frames or machines go down beside a pacing attacker, which
    /// is where a proxy used to charge the probe with the attacker's
    /// crashes.
    #[test]
    fn no_trial_flags_its_goodput_probe() {
        use crate::runner::trial_seed;
        use crate::scenario::{availability_sweep, fault_sweep};

        let (mut trials, mut s2) = (0, 0);
        for cell in [fault_sweep(7), availability_sweep(7)].iter().flatten() {
            let (plan, retry) = match cell.spec.fault {
                FaultSpec::None => (FaultPlan::None, RetryPolicy::retrying(8, 2, 2)),
                FaultSpec::Degraded { plan, retry } => (plan, retry),
            };
            for i in 0..8 {
                let seed = trial_seed(cell.seed, i);
                let flagged = with_arena(cell.spec.stack_config(), seed, plan, |stack| {
                    drive(&cell.spec, stack, Some(retry));
                    stack.suspects().iter().any(|source| source == "probe")
                });
                assert!(!flagged, "{}: trial {i} flagged its probe", cell.label);
                trials += 1;
                s2 += u32::from(cell.spec.adversary().is_some());
            }
        }
        assert_eq!((trials, s2), (120, 72), "every trial of both slices ran");
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
