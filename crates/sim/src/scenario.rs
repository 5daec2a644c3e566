//! One experiment surface over every fidelity: the unified scenario
//! API and its cell-parallel sweep scheduler.
//!
//! The paper's resilience claims are comparisons *across scenarios* —
//! bare PB vs fortified, SO vs PO, abstract κ predictions vs
//! protocol-level runs — and survivability methodology (Ellison et al.)
//! insists such claims be assessed as systematic sweeps over
//! usage/intrusion scenarios, not point samples. This module is that
//! sweep surface:
//!
//! * [`ScenarioSpec`] — the declarative, `Copy` coordinate of one cell
//!   and the unit contract: a label and `run_measured(seed) → lifetime`
//!   (plus availability) over an [`AbstractModel`] (step-by-step
//!   hazards), event-driven sampling, or a [`ProtocolExperiment`] (real
//!   stacks under the experiment's adversary posture).
//!   Every variant is a pure function of its seed, which is what lets
//!   one scheduler run them all deterministically; the content-derived
//!   seed ([`ScenarioSpec::content_seed`]) means two cells differing in
//!   *any* parameter draw decorrelated trial streams, and reordering or
//!   subsetting a sweep cannot change any cell's trials.
//! * [`SweepSpec`] — the axis builder: one `Vec` field per axis (the
//!   README's "sweep axes" table lists them all, with which classes
//!   each applies to), compiled to a flat list of seeded
//!   [`SweepCell`]s.
//! * [`SweepScheduler`] — runs every cell through one call of the
//!   [`Runner`]'s claim-and-file loop (see [`crate::runner`]): the
//!   chunks of all cells share one queue, so the embarrassingly
//!   parallel grid does not serialize at the cell level.
//! * [`CrossCheck`] — compares each protocol-level S2 cell against the
//!   abstract model's κ prediction cell-by-cell, closing the loop
//!   between the fidelities.
//!
//! # Worked example
//!
//! Sweep a small FORTRESS grid over both service-order policies and two
//! adversary strategies, in parallel, and cross-check the measured
//! lifetimes against the abstract model:
//!
//! ```
//! use fortress_attack::campaign::StrategyKind;
//! use fortress_core::probelog::SuspicionPolicy;
//! use fortress_core::system::SystemClass;
//! use fortress_model::params::Policy;
//! use fortress_sim::protocol_mc::ProtocolExperiment;
//! use fortress_sim::runner::{Runner, TrialBudget};
//! use fortress_sim::scenario::{CrossCheck, SweepScheduler, SweepSpec};
//!
//! let spec = SweepSpec::new(ProtocolExperiment {
//!     entropy_bits: 5,
//!     omega: 8.0,
//!     max_steps: 300,
//!     ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
//! })
//! .policies(Policy::ALL.to_vec())
//! .suspicions(vec![SuspicionPolicy { window: 8, threshold: 3 }])
//! .strategies(vec![
//!     StrategyKind::PacedBelowThreshold,
//!     StrategyKind::SybilPaced { identities: 3 },
//! ]);
//!
//! let cells = spec.compile(42);
//! assert_eq!(cells.len(), 4); // 2 policies × 2 strategies
//! let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(4)).run(&cells);
//! for outcome in &report.cells {
//!     assert!(outcome.estimate.mean >= 1.0);
//! }
//! // Identical bits at any thread count:
//! let serial = SweepScheduler::new(&Runner::with_threads(1), TrialBudget::Fixed(4)).run(&cells);
//! assert_eq!(report.to_json(), serial.to_json());
//! // Abstract-model κ predictions, cell by cell:
//! let check = CrossCheck::of(&report);
//! assert!(!check.rows.is_empty());
//! ```

use fortress_attack::campaign::StrategyKind;
use fortress_attack::shard::ShardPlacement;
use fortress_core::client::RetryPolicy;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_net::fault::FaultPlan;
use fortress_markov::LaunchPad;
use fortress_model::lifetime::expected_lifetime_s2_so;
use fortress_model::params::{AttackParams, Policy, ProbeModel};
use fortress_model::{expected_lifetime, SystemKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::abstract_mc::AbstractModel;
use crate::event_mc::sample_lifetime;
use crate::faults::FaultSpec;
use crate::fleet_mc::ShardSpec;
use crate::outage::OutageSpec;
use crate::protocol_mc::{run_trial, ProtocolExperiment};
use crate::report::{avail_json, fmt_avail, fmt_num, CsvTable};
use crate::runner::{fold, trial_seed, Runner, Sample, TrialBudget};
use crate::stats::{
    AvailStats, Column, ColumnGroup, Estimate, RunningStats, TrialPoint, COLUMNS,
};

/// Trials per work unit for sweep cells. Protocol trials are ms-scale,
/// so small chunks keep every thread busy even at adaptive-budget batch
/// sizes. Fixed (not derived from the runner) because the chunk size is
/// part of the merge tree and hence of the golden-pinned bits.
pub const CELL_CHUNK: u64 = 8;

/// One trial's full measurement: the lifetime every scenario produces,
/// plus the availability point protocol-level trials attach (downtime
/// fraction, failovers, failover latency, lost requests — the
/// availability axis's per-trial observables).
#[derive(Clone, Copy, Debug)]
pub struct TrialMeasure {
    /// The 1-based step at which the system fell (or the step cap).
    pub lifetime: u64,
    /// Availability measurements, where the scenario produces them
    /// (protocol trials always do; abstract and
    /// event-driven trials have no machinery to measure).
    pub avail: Option<TrialPoint>,
}

impl TrialMeasure {
    /// A lifetime-only measurement (scenarios without an availability
    /// dimension).
    fn lifetime_only(lifetime: u64) -> TrialMeasure {
        TrialMeasure {
            lifetime,
            avail: None,
        }
    }

    /// The runner-facing sample: lifetime as the primary value, the
    /// availability point alongside.
    pub(crate) fn into_sample(self) -> Sample {
        Sample {
            value: self.lifetime as f64,
            avail: self.avail,
        }
    }
}

/// The declarative coordinate of one scenario cell — which engine runs
/// it and with which parameters. `Copy`, so sweeps can treat it as a
/// value; its [content seed](ScenarioSpec::content_seed) is a pure
/// function of every field.
#[derive(Clone, Copy, Debug)]
pub enum ScenarioSpec {
    /// Step-by-step abstract-model simulation ([`AbstractModel`]).
    Abstract(AbstractModel),
    /// Event-driven sampling from the closed-form distributions — O(1)
    /// per trial, the only fidelity that reaches the `α = 10⁻⁵` corner.
    Event {
        /// System class (κ embedded for S2).
        kind: SystemKind,
        /// Obfuscation policy.
        policy: Policy,
        /// Attack parameters.
        params: AttackParams,
        /// Launch-pad semantics (S2 only).
        launch_pad: LaunchPad,
    },
    /// Protocol-level stacks under the experiment's adversary posture
    /// ([`ProtocolExperiment::adversary`]).
    Protocol(ProtocolExperiment),
}

impl ScenarioSpec {
    /// Human-readable cell label (reports, golden files).
    pub fn label(&self) -> String {
        match self {
            ScenarioSpec::Abstract(m) => {
                format!("abstract {} {}", kind_label(m.kind), m.policy.suffix())
            }
            ScenarioSpec::Event { kind, policy, params, .. } => format!(
                "event {} {} alpha={:.1e}",
                kind_label(*kind),
                policy.suffix(),
                params.alpha()
            ),
            ScenarioSpec::Protocol(e) => match e.adversary() {
                Some(strategy) => format!(
                    "{} {} chi=2^{} w={}/t={} np={} {}{}",
                    class_label(e.class),
                    e.policy.suffix(),
                    e.entropy_bits,
                    e.suspicion.window,
                    e.suspicion.threshold,
                    e.np,
                    strategy.display_label(),
                    axis_suffixes(e),
                ),
                None => format!(
                    "protocol {} {} chi=2^{}{}",
                    class_label(e.class),
                    e.policy.suffix(),
                    e.entropy_bits,
                    axis_suffixes(e),
                ),
            },
        }
    }

    /// Runs one trial and returns the full [`TrialMeasure`]: the 1-based
    /// step at which the system fell (or the scenario's step cap if
    /// censored), with no availability point for the abstract and
    /// event-driven fidelities. A pure function of `seed` — that is what
    /// makes sweeps deterministic at any thread count. An abstract
    /// trial's RNG stream derives from `seed` exactly as the runner
    /// derives per-trial streams, so [`AbstractModel::estimate_with`]
    /// and a scenario sweep of the same model return identical bits.
    pub fn run_measured(&self, seed: u64) -> TrialMeasure {
        match *self {
            ScenarioSpec::Abstract(m) => {
                TrialMeasure::lifetime_only(m.simulate_once(&mut SmallRng::seed_from_u64(seed)))
            }
            ScenarioSpec::Event { kind, policy, params, launch_pad } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                TrialMeasure::lifetime_only(sample_lifetime(
                    kind, policy, &params, launch_pad, &mut rng,
                ))
            }
            ScenarioSpec::Protocol(e) => run_trial(&e, seed),
        }
    }

    /// The cell's base seed under `base_seed` — a pure function of the
    /// cell *content* (every parameter, never a sweep position), mixed
    /// through the runner's SplitMix64 fold. A protocol cell facing a posture
    /// on S2 folds under its own salt and then the posture's id; a 1-tier
    /// cell folds no posture, so its `strategy` field cannot move it.
    /// Consequences: per-cell results are invariant under sweep
    /// reordering and subsetting, and any two cells differing in any
    /// parameter draw decorrelated trial streams.
    pub fn content_seed(&self, base_seed: u64) -> u64 {
        match *self {
            ScenarioSpec::Abstract(m) => {
                let s = fold_model(fold(base_seed, 0xAB57_4AC7), m.kind, m.policy, &m.params, m.launch_pad);
                fold(s, m.max_steps)
            }
            ScenarioSpec::Event { kind, policy, params, launch_pad } => {
                fold_model(fold(base_seed, 0x0E7E_4272), kind, policy, &params, launch_pad)
            }
            ScenarioSpec::Protocol(e) => match e.adversary() {
                Some(strategy) => fold(
                    fold_experiment(fold(base_seed, 0x00CA_4A17), &e),
                    strategy.id(),
                ),
                None => fold_experiment(fold(base_seed, 0x9207_0C01), &e),
            },
        }
    }

    /// The protocol experiment behind a protocol-level cell (`None` for
    /// the abstract and event-driven fidelities).
    pub(crate) fn experiment(&self) -> Option<ProtocolExperiment> {
        match *self {
            ScenarioSpec::Protocol(e) => Some(e),
            ScenarioSpec::Abstract(_) | ScenarioSpec::Event { .. } => None,
        }
    }

    /// The step cap this scenario censors at, if it has one.
    fn step_cap(&self) -> Option<u64> {
        match self {
            ScenarioSpec::Abstract(m) => Some(m.max_steps),
            _ => self.experiment().map(|e| e.max_steps),
        }
    }

    /// The indirect-attack coefficient κ this cell realizes, where one
    /// is defined: the embedded κ for abstract/event S2 cells, and the
    /// posture's long-run κ against the suspicion policy for protocol S2
    /// cells (None for postures without a steady indirect rate, and for
    /// 1-tier classes, where κ has no meaning).
    pub fn kappa(&self) -> Option<f64> {
        match *self {
            ScenarioSpec::Abstract(AbstractModel { kind, .. })
            | ScenarioSpec::Event { kind, .. } => match kind {
                SystemKind::S2Fortress { kappa } => Some(kappa),
                _ => None,
            },
            ScenarioSpec::Protocol(e) => e.adversary()?.indirect_kappa(e.suspicion, e.omega),
        }
    }
}

/// Runs one scenario through the parallel runner: trial `i` executes
/// `spec.run_measured(trial_seed(base_seed, i))`, so results are
/// bit-identical at any thread count and reproduce cell-by-cell inside
/// any sweep that assigns the same seed. This is the single MC entry
/// point `AbstractModel::estimate_with` and
/// `ProtocolExperiment::estimate_with` delegate to.
pub fn run_scenario(
    spec: ScenarioSpec,
    runner: &Runner,
    budget: TrialBudget,
    base_seed: u64,
) -> RunningStats {
    run_scenario_measured(spec, runner, budget, base_seed).0
}

/// [`run_scenario`] with the merged availability statistics alongside
/// the lifetime statistics: the same trials, the same chunk-ordered
/// merge tree (one reduction per chunk carries both accumulators), so
/// both returns are bit-identical at any thread count and the lifetime
/// statistics equal `run_scenario`'s exactly.
pub fn run_scenario_measured(
    spec: ScenarioSpec,
    runner: &Runner,
    budget: TrialBudget,
    base_seed: u64,
) -> (RunningStats, AvailStats) {
    let stats = runner.run_cells(budget, &[(base_seed, trial_fn(spec, base_seed))])[0];
    (stats.value, stats.avail)
}

/// The runner-facing trial closure of a cell: trial `i` runs
/// `spec.run_measured(trial_seed(base_seed, i))`, ignoring the runner's
/// own per-trial RNG (a scenario derives every stream from its seed).
fn trial_fn(spec: ScenarioSpec, base_seed: u64) -> impl Fn(u64, &mut SmallRng) -> Sample + Sync {
    move |i, _rng: &mut SmallRng| spec.run_measured(trial_seed(base_seed, i)).into_sample()
}

/// One compiled sweep cell: a scenario, its display label, and its
/// content-derived seed.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Display label (reports, golden files).
    pub label: String,
    /// The scenario coordinate.
    pub spec: ScenarioSpec,
    /// The cell's base seed (trial `i` runs at
    /// [`trial_seed`]`(seed, i)`).
    pub seed: u64,
}

impl SweepCell {
    /// A cell from a spec, seeded by the spec's content under
    /// `base_seed`.
    pub fn of(spec: ScenarioSpec, base_seed: u64) -> SweepCell {
        SweepCell {
            label: spec.label(),
            spec,
            seed: spec.content_seed(base_seed),
        }
    }
}

/// A declarative sweep: one `Vec` field per axis over a shared
/// experiment template, compiled to a flat, content-seeded cell list
/// (the README's "sweep axes" table is the one list of axes).
///
/// For [`SystemClass::S2Fortress`] the full cartesian product of
/// suspicion × fleet × strategy applies; for the 1-tier classes those
/// axes are vacuous (there is no proxy tier to pace against), so each
/// (class, policy, entropy) coordinate compiles to a single
/// [`ScenarioSpec::Protocol`] cell instead of duplicated ones.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// System-class axis.
    pub classes: Vec<SystemClass>,
    /// Service-order policy axis (SO/PO).
    pub policies: Vec<Policy>,
    /// Key-entropy axis (χ = 2^bits).
    pub entropy_bits: Vec<u32>,
    /// Suspicion-policy axis (S2 cells only).
    pub suspicions: Vec<SuspicionPolicy>,
    /// Proxy-fleet-size axis (S2 cells only).
    pub fleets: Vec<usize>,
    /// Adversary-strategy axis (S2 cells only).
    pub strategies: Vec<StrategyKind>,
    /// Crash-schedule axis: each class takes the schedules that apply to
    /// it — the PB outage schedules on S1 and S2 (recovered by
    /// failover), [`OutageSpec::Smr`] on S0 (recovered by view change
    /// and priced state transfer), `None` on every class.
    pub outages: Vec<OutageSpec>,
    /// Network-fault axis (every class — faults live at the transport
    /// layer, below the replication scheme).
    pub faults: Vec<FaultSpec>,
    /// Shard axis (S2 cells only — the fleet multiplies fortress
    /// *groups*, which only the fortified class deploys as tenants
    /// behind the key-hash directory).
    pub shards: Vec<ShardSpec>,
    /// Shared experiment template; each cell overrides the swept fields.
    pub base: ProtocolExperiment,
}

impl SweepSpec {
    /// A sweep with every axis pinned to the template's value (one
    /// cell); widen axes with the builder methods.
    pub fn new(base: ProtocolExperiment) -> SweepSpec {
        SweepSpec {
            classes: vec![base.class],
            policies: vec![base.policy],
            entropy_bits: vec![base.entropy_bits],
            suspicions: vec![base.suspicion],
            fleets: vec![base.np],
            strategies: vec![base.strategy],
            outages: vec![base.outage],
            faults: vec![base.fault],
            shards: vec![base.shard],
            base,
        }
    }

    /// Replaces the system-class axis.
    pub fn classes(mut self, classes: Vec<SystemClass>) -> SweepSpec {
        self.classes = classes;
        self
    }

    /// Replaces the service-order policy axis.
    pub fn policies(mut self, policies: Vec<Policy>) -> SweepSpec {
        self.policies = policies;
        self
    }

    /// Replaces the suspicion-policy axis.
    pub fn suspicions(mut self, suspicions: Vec<SuspicionPolicy>) -> SweepSpec {
        self.suspicions = suspicions;
        self
    }

    /// Replaces the fleet-size axis.
    pub fn fleets(mut self, fleets: Vec<usize>) -> SweepSpec {
        self.fleets = fleets;
        self
    }

    /// Replaces the adversary-strategy axis.
    pub fn strategies(mut self, strategies: Vec<StrategyKind>) -> SweepSpec {
        self.strategies = strategies;
        self
    }

    /// Replaces the crash-schedule axis (PB outages and SMR crashes).
    pub fn outages(mut self, outages: Vec<OutageSpec>) -> SweepSpec {
        self.outages = outages;
        self
    }

    /// Replaces the network-fault axis (the degraded-network dimension).
    pub fn faults(mut self, faults: Vec<FaultSpec>) -> SweepSpec {
        self.faults = faults;
        self
    }

    /// Replaces the shard axis (the multi-tenant fleet dimension).
    pub fn shards(mut self, shards: Vec<ShardSpec>) -> SweepSpec {
        self.shards = shards;
        self
    }

    /// Compiles the axes to the flat cell list in axis-major order
    /// (class, policy, entropy, suspicion, fleet, strategy, crash
    /// schedule, fault, shard). The order is presentation only — every
    /// cell's seed derives from its content, so reordering or subsetting
    /// axes changes no cell's trials. Vacuous axes collapse: 1-tier
    /// classes skip suspicion / fleet / strategy **and the shard axis**
    /// (only the fortified class deploys fleet tenants), and each class
    /// crosses only the crash schedules that apply to it (S0 recovers
    /// through the view-change protocol, S1 and S2 through failover), or
    /// keeps `None` when none does. The fault axis applies to every
    /// class — network faults live at the transport layer, below the
    /// replication scheme.
    pub fn compile(&self, base_seed: u64) -> Vec<SweepCell> {
        /// `cells` × one more axis, axis-major; `set` writes the axis
        /// value into a copy of the cell.
        fn cross<C: Copy, T: Copy>(cells: Vec<C>, axis: &[T], set: impl Fn(&mut C, T)) -> Vec<C> {
            let set = &set;
            cells
                .iter()
                .flat_map(|&cell| {
                    axis.iter().map(move |&value| {
                        let mut cell = cell;
                        set(&mut cell, value);
                        cell
                    })
                })
                .collect()
        }
        let mut out = Vec::new();
        for &class in &self.classes {
            let s2 = class == SystemClass::S2Fortress;
            // A class's vacuous axes stay on their `None` coordinate
            // (suspicion and fleet on the template's values).
            let template = ProtocolExperiment {
                class,
                outage: OutageSpec::None,
                shard: ShardSpec::None,
                ..self.base
            };
            let outages: Vec<_> =
                self.outages.iter().copied().filter(|o| o.applies_to(class)).collect();
            let mut cells = vec![template];
            cells = cross(cells, &self.policies, |c, v| c.policy = v);
            cells = cross(cells, &self.entropy_bits, |c, v| c.entropy_bits = v);
            if s2 {
                cells = cross(cells, &self.suspicions, |c, v| c.suspicion = v);
                cells = cross(cells, &self.fleets, |c, v| c.np = v);
                cells = cross(cells, &self.strategies, |c, v| c.strategy = v);
            }
            if !outages.is_empty() {
                cells = cross(cells, &outages, |c, v| c.outage = v);
            }
            cells = cross(cells, &self.faults, |c, v| c.fault = v);
            if s2 {
                cells = cross(cells, &self.shards, |c, v| c.shard = v);
            }
            out.extend(
                cells
                    .into_iter()
                    .map(|e| SweepCell::of(ScenarioSpec::Protocol(e), base_seed)),
            );
        }
        out
    }
}

/// The default sweep `figures -- campaign` prints: the SO campaign
/// grid (paper suspicion trio × fleets 1/3/5 × all strategies, Sybil
/// included) plus a PO slice — proactive re-randomization at a smaller
/// key space and step cap, so PO cells stay ms-scale while the
/// PO-policy axis is genuinely exercised.
pub fn paper_default_sweep(base_seed: u64) -> Vec<SweepCell> {
    let so = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 8,
        omega: 8.0,
        max_steps: 4_000,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .suspicions(SuspicionPolicy::paper_grid().to_vec())
    .fleets(vec![1, 3, 5])
    .strategies(StrategyKind::ALL.to_vec());
    let po = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 6,
        omega: 8.0,
        max_steps: 800,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::Proactive)
    })
    .suspicions(vec![SuspicionPolicy::paper_grid()[2]])
    .strategies(StrategyKind::ALL.to_vec());
    let mut cells = so.compile(base_seed);
    cells.extend(po.compile(base_seed));
    cells
}

/// The availability slice `figures -- availability` prints: three
/// outage schedules (none / periodic / Poisson-seeded) against the
/// paper's tightest suspicion policy, under both a rate-disciplined
/// adversary and the outage-timing [`StrategyKind::OutageStrike`]
/// attacker, on the fortified S2 — plus the same schedules against the
/// bare-PB S1 baseline (strategy axis vacuous there), so the fortified
/// vs bare availability comparison rides in one report.
pub fn availability_sweep(base_seed: u64) -> Vec<SweepCell> {
    let outages = vec![
        OutageSpec::None,
        OutageSpec::Periodic {
            period: 40,
            downtime: 25,
        },
        OutageSpec::Random {
            rate: 0.01,
            downtime: 25,
        },
    ];
    // One spec, two classes: the strategy axis is vacuous on S1.
    SweepSpec::new(availability_base(SystemClass::S2Fortress))
        .classes(vec![SystemClass::S2Fortress, SystemClass::S1Pb])
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::OutageStrike,
        ])
        .outages(outages)
        .compile(base_seed)
}

/// The shared experiment template of the availability slice — one
/// definition, reused by [`availability_sweep`], the directional tests
/// and the availability example, so a tuning change cannot silently
/// leave them on different configurations. Longer-lived cells than the
/// lifetime grids: the availability signal needs trials that survive
/// deep into the mission window (several outage periods), so the key
/// space is wider and the attacker slower than in the
/// compromise-focused sweeps.
pub fn availability_base(class: SystemClass) -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 10,
        omega: 4.0,
        max_steps: 300,
        suspicion: SuspicionPolicy::paper_grid()[0],
        ..ProtocolExperiment::new(class, Policy::StartupOnly)
    }
}

/// The network-fault slice `figures -- faults` prints: three
/// fault coordinates (a clean network, light per-link loss with a
/// 2-retry client, heavy loss plus jitter and duplication with a
/// 3-retry client) on the fortified S2 under a rate-disciplined
/// adversary, plus the same coordinates on the bare-PB S1 baseline —
/// the degraded-network analogue of [`availability_sweep`], riding the
/// same report machinery. The `FaultSpec::None` cells run the same
/// assembly on a clean network, so this sweep doubles as a check that
/// the clean path is untouched by the fault axis.
pub fn fault_sweep(base_seed: u64) -> Vec<SweepCell> {
    let degraded = |loss, delay_max, dup, retries| FaultSpec::Degraded {
        plan: FaultPlan::Degraded {
            loss,
            delay_min: 0,
            delay_max,
            dup,
            partition: None,
            slow: None,
        },
        retry: RetryPolicy::retrying(8, retries, 2),
    };
    let faults = vec![
        FaultSpec::None,
        degraded(0.05, 2, 0.0, 2),
        degraded(0.10, 3, 0.02, 3),
    ];
    SweepSpec::new(fault_base(SystemClass::S2Fortress))
        .classes(vec![SystemClass::S2Fortress, SystemClass::S1Pb])
        .faults(faults)
        .compile(base_seed)
}

/// The shared experiment template of the fault slice — one definition,
/// reused by [`fault_sweep`], the directional goodput tests and the
/// fault-sweep example, so a tuning change cannot silently leave them
/// on different configurations. Like [`availability_base`], the cells
/// are survival-biased (wide key space, slow attacker) so the goodput
/// signal comes from trials that live deep into the mission window.
pub fn fault_base(class: SystemClass) -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 10,
        omega: 4.0,
        max_steps: 200,
        suspicion: SuspicionPolicy::paper_grid()[0],
        ..ProtocolExperiment::new(class, Policy::StartupOnly)
    }
}

/// The shard slice `figures -- shards` prints: a vacuous
/// coordinate (a fleet of one group on the trial seed, which the golden
/// pins to the pre-axis bits), a 3-group fleet under both cross-shard
/// placements, and a concentrated fleet with a mid-trial rebalance —
/// all on the fortified S2 under a rate-disciplined adversary.
pub fn shard_sweep(base_seed: u64) -> Vec<SweepCell> {
    let sharded = |placement, rebalance_at| ShardSpec::Sharded {
        shards: 3,
        zipf_s: 1.2,
        placement,
        rebalance_at,
    };
    let shards = vec![
        ShardSpec::None,
        sharded(ShardPlacement::Concentrate, 0),
        sharded(ShardPlacement::Spread, 0),
        sharded(ShardPlacement::Concentrate, 6),
    ];
    SweepSpec::new(shard_base()).shards(shards).compile(base_seed)
}

/// The shared experiment template of the shard slice — one definition,
/// reused by [`shard_sweep`], the directional placement tests and the
/// shard-sweep example. Fall-biased (narrow key space, full-rate
/// attacker) so the hottest-shard lifetime signal lands inside the
/// mission window instead of censoring at it.
pub fn shard_base() -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 7,
        omega: 8.0,
        max_steps: 400,
        suspicion: SuspicionPolicy { window: 16, threshold: 8 },
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    }
}

/// The repair slice `figures -- repair` prints, all on the
/// SMR-quorum S0 under a slow rate-disciplined adversary: a vacuous
/// coordinate (no crash schedule, which the golden pins to the pre-axis
/// bits), a single leader crash (one full view change),
/// and a two-crash schedule under both recovery disciplines —
/// staggered (each machine rejoins `downtime` after its own crash) and
/// storm (correlated bring-ups contending head-of-line for the
/// bandwidth budget while the quorum is hostage). The storm cell is
/// the economics headline: same crashes, same downtime parameter,
/// strictly more measured downtime.
pub fn repair_sweep(base_seed: u64) -> Vec<SweepCell> {
    let smr = |crashes, storm| OutageSpec::Smr {
        crashes,
        crash_at: 40,
        stagger: 60,
        downtime: 30,
        bandwidth: 1,
        storm,
    };
    let repairs = vec![OutageSpec::None, smr(1, false), smr(2, false), smr(2, true)];
    SweepSpec::new(repair_base()).outages(repairs).compile(base_seed)
}

/// The shared experiment template of the repair slice — one definition,
/// reused by [`repair_sweep`] and the directional storm tests.
/// Survival-biased (wide key space, slow attacker) so the
/// repair signal comes from trials that live through the whole crash
/// schedule; the 300-step window fits the storm cell's full recovery
/// (last rejoiner paid off around step 250 at bandwidth 1).
pub fn repair_base() -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 12,
        omega: 2.0,
        max_steps: 300,
        ..ProtocolExperiment::new(SystemClass::S0Smr, Policy::StartupOnly)
    }
}

/// The measured outcome of one sweep cell.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The κ the cell realizes, where defined (see
    /// [`ScenarioSpec::kappa`]).
    pub kappa: Option<f64>,
    /// Full trial statistics (the estimate's source of truth, plus
    /// min/max for censoring detection).
    pub stats: RunningStats,
    /// Lifetime estimate (mean steps until compromise, 95% CI).
    pub estimate: Estimate,
    /// Whether any trial reached the scenario's step cap (read the mean
    /// as a lower bound when set).
    pub censored: bool,
    /// Availability statistics across the cell's trials — empty for
    /// scenarios without an availability dimension (abstract,
    /// event-driven).
    pub avail: AvailStats,
}

impl SweepOutcome {
    /// The outcome of `cell` given its merged trial and availability
    /// statistics — the single definition of the derived fields
    /// (estimate, κ, censoring), shared by the scheduler and every
    /// cell-at-a-time driver so their reports cannot diverge in anything
    /// but scheduling.
    pub fn measured(cell: &SweepCell, stats: RunningStats, avail: AvailStats) -> SweepOutcome {
        let censored = cell
            .spec
            .step_cap()
            .is_some_and(|cap| stats.max() >= cap as f64);
        SweepOutcome {
            kappa: cell.spec.kappa(),
            estimate: stats.estimate(),
            stats,
            censored,
            avail,
            cell: cell.clone(),
        }
    }
}

/// All cell outcomes of one sweep, in input-cell order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Outcomes, one per input cell, in input order.
    pub cells: Vec<SweepOutcome>,
}

impl SweepReport {
    /// Renders the report as a CSV table (one row per cell), the
    /// availability columns included (`-` where a cell's scenario has no
    /// availability dimension). The degradation columns (goodput,
    /// retries, duplicate suppression, give-ups) appear only when some
    /// cell ran under a fault plan, and the shard columns (hottest-shard
    /// lifetime/load, moved requests, fallen groups) only when some cell
    /// ran sharded, and the repair columns (view changes and their
    /// latency, transfer units, storm queue depth) only when some cell
    /// armed the SMR repair accounting — sweeps without those axes keep
    /// the exact pre-axis column set, which the golden files pin.
    pub fn to_table(&self) -> CsvTable {
        let shown: Vec<_> = COLUMNS
            .iter()
            .filter(|def| {
                def.group == ColumnGroup::Core
                    || self.cells.iter().any(|o| o.avail.measured(def.group))
            })
            .collect();
        let mut headers = vec![
            "cell",
            "kappa",
            "mean_lifetime",
            "ci_low",
            "ci_high",
            "trials",
            "censored",
        ];
        headers.extend(shown.iter().map(|def| def.csv));
        let mut table = CsvTable::new(&headers);
        for o in &self.cells {
            let mut row = vec![
                o.cell.label.clone(),
                o.kappa.map(fmt_num).unwrap_or_else(|| "-".to_string()),
                fmt_num(o.estimate.mean),
                fmt_num(o.estimate.ci_low),
                fmt_num(o.estimate.ci_high),
                o.estimate.n.to_string(),
                o.censored.to_string(),
            ];
            row.extend(shown.iter().map(|def| fmt_avail(&o.avail[def.column])));
            table.push_row(row);
        }
        table
    }

    /// Renders the report as a JSON array (stable field order, input
    /// order) — the determinism comparator the bench binaries diff. The
    /// availability means are full-precision so serial/parallel drift in
    /// any metric fails the comparison, not just the lifetimes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, o) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kappa = o
                .kappa
                .map(|k| k.to_string())
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "{{\"cell\":\"{}\",\"kappa\":{},\"mean\":{},\"n\":{},\"censored\":{}",
                o.cell.label, kappa, o.estimate.mean, o.estimate.n, o.censored,
            ));
            for def in COLUMNS {
                out.push_str(&format!(",\"{}\":{}", def.json, avail_json(&o.avail[def.column])));
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Mean of `column`'s per-cell means across every cell that measured
    /// it (`None` when no cell did) — the sweep-level headlines the
    /// `figures` binary prints: [`Column::Downtime`] is the availability
    /// headline, [`Column::Goodput`] and [`Column::Retries`] the
    /// degradation headlines (how hard the retry policy worked for the
    /// goodput it delivered), and [`Column::ViewChangeLatency`] the
    /// SMR crash-schedule headline — for a crash-of-the-leader schedule it sits
    /// at the SMR view timer, not the PB failover timeout.
    pub fn mean_of(&self, column: Column) -> Option<f64> {
        self.mean_where(column, |_| true)
    }

    /// [`SweepReport::mean_of`] restricted to the cells `keep` selects.
    fn mean_where(&self, column: Column, keep: impl Fn(&ScenarioSpec) -> bool) -> Option<f64> {
        let mut acc = RunningStats::new();
        for o in &self.cells {
            if o.avail[column].n() > 0 && keep(&o.cell.spec) {
                acc.push(o.avail[column].mean());
            }
        }
        (acc.n() > 0).then(|| acc.mean())
    }

    /// Ratio of the mean hottest-shard lifetime under concentrated vs
    /// spread placement, across the sharded cells by the placement their
    /// [`ShardSpec`] coordinate says they ran (`None` unless both
    /// placements appear) — the shard-axis headline the `figures` binary
    /// prints: below 1.0 means concentrating the probe budget kills the
    /// hottest shard faster.
    pub fn hot_shard_lifetime_ratio(&self) -> Option<f64> {
        let placed = |want: ShardPlacement| {
            self.mean_where(Column::HotLifetime, |spec| {
                matches!(
                    spec.experiment().map(|e| e.shard),
                    Some(ShardSpec::Sharded { placement, .. }) if placement == want
                )
            })
        };
        let spread = placed(ShardPlacement::Spread).filter(|&mean| mean > 0.0)?;
        Some(placed(ShardPlacement::Concentrate)? / spread)
    }
}

/// Runs sweep cells through one call of the runner's claim-and-file
/// loop (described in [`crate::runner`]): the chunks of every cell
/// share one queue.
///
/// Per-cell results are bit-identical to running each cell through
/// [`run_scenario_measured`] with the same budget and chunk size — at
/// any thread count, including the 1-thread runner, which runs every
/// trial on the caller's thread and is the reference.
pub struct SweepScheduler {
    runner: Runner,
    budget: TrialBudget,
}

impl SweepScheduler {
    /// A scheduler with `runner`'s thread count, `budget` per cell and
    /// the campaign-standard [`CELL_CHUNK`] trials per work unit.
    pub fn new(runner: &Runner, budget: TrialBudget) -> SweepScheduler {
        SweepScheduler {
            runner: runner.with_chunk(CELL_CHUNK),
            budget,
        }
    }

    /// Runs every cell and returns their outcomes in input order.
    ///
    /// # Panics
    ///
    /// When a trial panics, with that trial's own panic, exactly as
    /// under [`Runner::run`].
    pub fn run(&self, cells: &[SweepCell]) -> SweepReport {
        let trials: Vec<_> = cells
            .iter()
            .map(|cell| (cell.seed, trial_fn(cell.spec, cell.seed)))
            .collect();
        let stats = self.runner.run_cells(self.budget, &trials);
        SweepReport {
            cells: cells
                .iter()
                .zip(stats)
                .map(|(cell, stats)| SweepOutcome::measured(cell, stats.value, stats.avail))
                .collect(),
        }
    }
}

/// One protocol-vs-abstract comparison row: a protocol-level S2 cell's
/// measured mean lifetime against the abstract model's closed-form
/// prediction at the cell's κ, χ and ω.
#[derive(Clone, Debug)]
pub struct CrossCheckRow {
    /// The protocol cell's label.
    pub label: String,
    /// The κ the cell's strategy realizes against its suspicion policy.
    pub kappa: f64,
    /// Measured mean lifetime (protocol trials).
    pub measured: f64,
    /// Abstract S2 model prediction at (κ, χ, ω).
    pub predicted: f64,
    /// `measured / predicted` — near 1 where the abstract model's shape
    /// survives contact with the implementation.
    pub ratio: f64,
    /// Whether the cell censored at its step cap: `measured` is then a
    /// lower bound, and a small `ratio` means "the cap was too low", not
    /// "the model diverged".
    pub censored: bool,
    /// Measured mean downtime fraction across the cell's trials (`None`
    /// when the cell produced no availability samples).
    pub downtime: Option<f64>,
    /// Closed-form availability prediction: the outage schedule's
    /// expected downtime ([`OutageSpec::expected_downtime_fraction`] at
    /// the deployed fleet size and PB failover timeout) plus the
    /// expected compromise tail of the mission window (`1 − EL/cap` at
    /// the abstract model's predicted lifetime), clamped to 1. `None`
    /// for schedules without a steady rate (strike-then-crash).
    pub predicted_downtime: Option<f64>,
}

/// Cell-by-cell cross-validation of protocol-level S2 cells against the
/// abstract S2 model's κ predictions — the fidelity-closing report the
/// ROADMAP's scenario-growth item asks for. Cells whose strategy has no
/// steady indirect rate (scan-then-strike, adaptive backoff) have no κ
/// to read the model at and are skipped, as are cells whose parameters
/// fall outside the model's domain (ω ≥ χ, non-finite predictions).
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// One row per comparable protocol cell, in report order.
    pub rows: Vec<CrossCheckRow>,
}

impl CrossCheck {
    /// Builds the cross-check for every comparable cell of `report`.
    pub fn of(report: &SweepReport) -> CrossCheck {
        let rows = report
            .cells
            .iter()
            .filter_map(|o| {
                let experiment = o.cell.spec.experiment()?;
                if experiment.class != SystemClass::S2Fortress {
                    return None;
                }
                let kappa = o.kappa?;
                let chi = (2.0f64).powi(experiment.entropy_bits as i32);
                let params = AttackParams::new(chi, experiment.omega).ok()?;
                let predicted = match experiment.policy {
                    Policy::StartupOnly => {
                        expected_lifetime_s2_so(&params, kappa, LaunchPad::NextStep)
                    }
                    Policy::Proactive => expected_lifetime(
                        SystemKind::S2Fortress { kappa },
                        Policy::Proactive,
                        ProbeModel::Broadcast,
                        &params,
                    )
                    .ok()?,
                };
                if !predicted.is_finite() || predicted <= 0.0 {
                    return None;
                }
                let cap = experiment.max_steps.max(1) as f64;
                let tail = 1.0 - (predicted.min(cap) / cap);
                let predicted_downtime = experiment
                    .outage
                    .expected_downtime_fraction(fortress_core::system::pb_failover_timeout())
                    .map(|outage_fraction| (outage_fraction + tail).min(1.0));
                Some(CrossCheckRow {
                    label: o.cell.label.clone(),
                    kappa,
                    measured: o.estimate.mean,
                    predicted,
                    ratio: o.estimate.mean / predicted,
                    censored: o.censored,
                    downtime: (!o.avail.is_empty()).then(|| o.avail[Column::Downtime].mean()),
                    predicted_downtime,
                })
            })
            .collect();
        CrossCheck { rows }
    }

    /// Renders the cross-check as a CSV table.
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(&[
            "cell",
            "kappa",
            "measured",
            "predicted",
            "ratio",
            "censored",
            "downtime",
            "predicted_downtime",
        ]);
        let opt = |v: Option<f64>| v.map(fmt_num).unwrap_or_else(|| "-".to_string());
        for row in &self.rows {
            table.push_row(vec![
                row.label.clone(),
                fmt_num(row.kappa),
                fmt_num(row.measured),
                fmt_num(row.predicted),
                fmt_num(row.ratio),
                row.censored.to_string(),
                opt(row.downtime),
                opt(row.predicted_downtime),
            ]);
        }
        table
    }
}

/// The crash-schedule / fault / shard suffixes of a protocol-level cell
/// label, in axis order: nothing for a `None` coordinate (legacy labels
/// are preserved verbatim), ` <axis>=<coordinate label>` otherwise — a
/// crash schedule keyed `out` on the PB tier and `repair` on the SMR one.
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

/// Short kind label for cell names.
fn kind_label(kind: SystemKind) -> String {
    match kind {
        SystemKind::S0Smr => "S0".to_string(),
        SystemKind::S1Pb => "S1".to_string(),
        SystemKind::S2Fortress { kappa } => format!("S2(k={kappa})"),
    }
}

/// Folds the parameters the abstract and event-driven fidelities share:
/// the [`SystemKind`] (discriminant plus κ bits for S2), the policy, χ,
/// ω and the launch-pad semantics.
fn fold_model(seed: u64, kind: SystemKind, policy: Policy, params: &AttackParams, pad: LaunchPad) -> u64 {
    let mut s = match kind {
        SystemKind::S0Smr => fold(seed, 0),
        SystemKind::S1Pb => fold(seed, 1),
        SystemKind::S2Fortress { kappa } => fold(fold(seed, 2), kappa.to_bits()),
    };
    s = fold(s, policy.id());
    s = fold(s, params.chi().to_bits());
    s = fold(s, params.omega().to_bits());
    fold(s, match pad {
        LaunchPad::NextStep => 0,
        LaunchPad::Disabled => 1,
    })
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
    s = fold(s, scheme_id(e.scheme));
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

/// Stable id of a randomization scheme for seeding.
fn scheme_id(scheme: fortress_obf::scheme::Scheme) -> u64 {
    match scheme {
        fortress_obf::scheme::Scheme::Aslr => 0,
        fortress_obf::scheme::Scheme::Isr => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Vec<SweepCell> {
        SweepSpec::new(ProtocolExperiment {
            entropy_bits: 5,
            omega: 8.0,
            max_steps: 300,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .policies(Policy::ALL.to_vec())
        .suspicions(vec![SuspicionPolicy { window: 8, threshold: 3 }])
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::SybilPaced { identities: 3 },
        ])
        .compile(0xCAFE)
    }

    #[test]
    fn compile_covers_axes_and_collapses_vacuous_ones() {
        let spec = SweepSpec::new(ProtocolExperiment {
            entropy_bits: 5,
            omega: 8.0,
            max_steps: 200,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .classes(vec![SystemClass::S1Pb, SystemClass::S2Fortress])
        .policies(Policy::ALL.to_vec())
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::Burst,
        ]);
        let cells = spec.compile(1);
        // S1 contributes 1 cell per policy (strategy axis vacuous); S2
        // contributes 2 per policy.
        assert_eq!(cells.len(), 2 + 4);
        let mut seeds = std::collections::HashSet::new();
        for cell in &cells {
            assert!(seeds.insert(cell.seed), "seed collision at {}", cell.label);
        }
    }

    #[test]
    fn content_seeds_are_pure_and_axis_sensitive() {
        let cells = tiny_sweep();
        for cell in &cells {
            assert_eq!(cell.seed, cell.spec.content_seed(0xCAFE), "pure");
            assert_ne!(cell.seed, cell.spec.content_seed(0xCAFF), "base matters");
        }
        // SO and PO cells of the same coordinate differ.
        assert_ne!(cells[0].seed, cells[2].seed);
    }

    #[test]
    fn scheduler_matches_per_cell_runner_bit_for_bit() {
        let cells = tiny_sweep();
        let budget = TrialBudget::Fixed(24);
        let report = SweepScheduler::new(&Runner::with_threads(4), budget).run(&cells);
        // One thread, every trial on the caller's: a multi-threaded
        // runner here would be the one loop compared with itself.
        let reference_runner = Runner::with_threads(1).with_chunk(CELL_CHUNK);
        for (cell, outcome) in cells.iter().zip(&report.cells) {
            let reference = run_scenario(cell.spec, &reference_runner, budget, cell.seed);
            assert_eq!(outcome.stats, reference, "cell {} diverged", cell.label);
        }
    }

    #[test]
    fn scheduler_is_thread_count_invariant_under_adaptive_budgets() {
        let cells = tiny_sweep();
        let budget = TrialBudget::TargetRse {
            target: 0.1,
            min_trials: 8,
            max_trials: 48,
            batch: 8,
        };
        let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
        let parallel = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
        assert_eq!(serial.to_json(), parallel.to_json());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.stats, b.stats, "cell {} diverged", a.cell.label);
        }
    }

    #[test]
    fn sweep_report_renders_kappa_and_censoring() {
        let cells = tiny_sweep();
        let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(6))
            .run(&cells);
        assert_eq!(report.cells.len(), cells.len());
        let table = report.to_table();
        assert_eq!(table.len(), cells.len());
        let json = report.to_json();
        assert!(json.contains("\"cell\":\"S2 SO"));
        assert!(json.contains("sybil"));
        for o in &report.cells {
            assert!(o.kappa.is_some(), "every S2 rate cell has a κ");
            assert!(o.estimate.mean >= 1.0);
        }
    }

    #[test]
    fn event_and_abstract_scenarios_run_through_the_same_surface() {
        let params = AttackParams::from_alpha(4096.0, 0.01).unwrap();
        let event = ScenarioSpec::Event {
            kind: SystemKind::S1Pb,
            policy: Policy::Proactive,
            params,
            launch_pad: LaunchPad::NextStep,
        };
        let stats = run_scenario(event, &Runner::with_threads(2), TrialBudget::Fixed(4000), 9);
        let analytic = 1.0 / params.alpha();
        assert!((stats.mean() - analytic).abs() / analytic < 0.1);

        let abstract_spec = ScenarioSpec::Abstract(AbstractModel::new(
            SystemKind::S1Pb,
            Policy::Proactive,
            params,
        ));
        let ab = run_scenario(abstract_spec, &Runner::with_threads(2), TrialBudget::Fixed(2000), 9);
        assert!((ab.mean() - analytic).abs() / analytic < 0.15);
        assert_ne!(
            event.content_seed(5),
            abstract_spec.content_seed(5),
            "different fidelities are different cells"
        );
    }

    #[test]
    fn cross_check_rows_cover_rate_disciplined_cells_only() {
        let cells = SweepSpec::new(ProtocolExperiment {
            entropy_bits: 6,
            omega: 8.0,
            max_steps: 2_000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .suspicions(vec![SuspicionPolicy { window: 16, threshold: 5 }])
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::ScanThenStrike,
            StrategyKind::SybilPaced { identities: 4 },
        ])
        .compile(0xC4EC);
        let report =
            SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(48)).run(&cells);
        let check = CrossCheck::of(&report);
        // paced + sybil have a κ; scan-then-strike does not.
        assert_eq!(check.rows.len(), 2);
        for row in &check.rows {
            assert!(row.predicted.is_finite() && row.predicted > 0.0);
            assert!(row.measured > 0.0);
            assert!(row.ratio.is_finite());
        }
        assert_eq!(check.to_table().len(), 2);
    }
}
