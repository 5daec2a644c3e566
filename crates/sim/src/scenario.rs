//! The sweep surface: protocol cells and their cell-parallel scheduler.
//!
//! The paper's resilience claims are comparisons *across scenarios* —
//! bare PB vs fortified, SO vs PO, abstract κ predictions vs
//! protocol-level runs — and survivability methodology (Ellison et al.)
//! insists such claims be assessed as systematic sweeps over
//! usage/intrusion scenarios, not point samples. This module is that
//! sweep surface:
//!
//! * [`SweepCell`] — one [`ProtocolExperiment`] (real stacks under the
//!   experiment's adversary posture) with its label and its
//!   content-derived seed ([`ProtocolExperiment::content_seed`]). A trial
//!   is a pure function of its seed, which is what lets one scheduler run
//!   every cell deterministically; two cells differing in *any* parameter
//!   draw decorrelated trial streams, and reordering or subsetting a
//!   sweep cannot change any cell's trials. The abstract-model samplers
//!   ([`crate::event_mc`], [`crate::abstract_mc`]) are no sweep cells:
//!   they run through [`Runner::run`] directly.
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
use fortress_core::client::RetryPolicy;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_net::fault::FaultPlan;
use fortress_model::LaunchPad;
use fortress_model::lifetime::expected_lifetime_s2_so;
use fortress_model::params::{AttackParams, Policy, ProbeModel};
use fortress_model::{expected_lifetime, SystemKind};
use rand::rngs::SmallRng;

use crate::faults::FaultSpec;
use crate::outage::OutageSpec;
use crate::protocol_mc::{run_trial, ProtocolExperiment};
use crate::report::{avail_json, fmt_avail, fmt_num, CsvTable};
use crate::runner::{trial_seed, Runner, Sample, TrialBudget};
use crate::stats::{AvailStats, Column, ColumnGroup, Estimate, RunningStats, COLUMNS};

/// Trials per work unit for sweep cells. Protocol trials are ms-scale,
/// so small chunks keep every thread busy even at adaptive-budget batch
/// sizes. Fixed (not derived from the runner) because the chunk size is
/// part of the merge tree and hence of the golden-pinned bits.
pub const CELL_CHUNK: u64 = 8;

/// Runs one protocol cell through the parallel runner and returns its
/// merged lifetime and availability statistics: trial `i` executes
/// [`run_trial`]`(spec, trial_seed(base_seed, i))`, and one reduction
/// per chunk carries both accumulators, so both returns are
/// bit-identical at any thread count and reproduce cell-by-cell inside
/// any sweep that assigns the same seed.
/// [`ProtocolExperiment::estimate_with`] delegates here.
pub fn run_scenario_measured(
    spec: ProtocolExperiment,
    runner: &Runner,
    budget: TrialBudget,
    base_seed: u64,
) -> (RunningStats, AvailStats) {
    let stats = runner.run_cells(budget, &[(base_seed, trial_fn(spec, base_seed))])[0];
    (stats.value, stats.avail)
}

/// The runner-facing trial closure of a cell: trial `i` runs
/// [`run_trial`] at `trial_seed(base_seed, i)`, ignoring the runner's
/// own per-trial RNG (a trial derives every stream from its seed).
fn trial_fn(
    spec: ProtocolExperiment,
    base_seed: u64,
) -> impl Fn(u64, &mut SmallRng) -> Sample + Sync {
    move |i, _rng: &mut SmallRng| run_trial(&spec, trial_seed(base_seed, i)).into_sample()
}

/// One compiled sweep cell: a protocol experiment, its display label,
/// and its content-derived seed.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Display label (reports, golden files).
    pub label: String,
    /// The experiment the cell runs.
    pub spec: ProtocolExperiment,
    /// The cell's base seed (trial `i` runs at
    /// [`trial_seed`]`(seed, i)`).
    pub seed: u64,
}

impl SweepCell {
    /// A cell from an experiment, seeded by its content under
    /// `base_seed`.
    pub fn of(spec: ProtocolExperiment, base_seed: u64) -> SweepCell {
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
/// (class, policy, entropy) coordinate compiles to a single cell
/// instead of duplicated ones.
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

    /// Compiles the axes to the flat cell list in axis-major order
    /// (class, policy, entropy, suspicion, fleet, strategy, crash
    /// schedule, fault). The order is presentation only — every
    /// cell's seed derives from its content, so reordering or subsetting
    /// axes changes no cell's trials. Vacuous axes collapse: 1-tier
    /// classes skip suspicion / fleet / strategy, and each class
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
            out.extend(cells.into_iter().map(|e| SweepCell::of(e, base_seed)));
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

/// The repair slice `figures -- repair` prints, all on the
/// SMR-quorum S0 under a slow rate-disciplined adversary: a vacuous
/// coordinate (no crash schedule and no workload, so its downtime is a
/// compromised leader that nothing deposes), a single leader crash (one
/// full view change),
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
    /// [`ProtocolExperiment::kappa`]).
    pub kappa: Option<f64>,
    /// Full trial statistics (the estimate's source of truth, plus
    /// min/max for censoring detection).
    pub stats: RunningStats,
    /// Lifetime estimate (mean steps until compromise, 95% CI).
    pub estimate: Estimate,
    /// Whether any trial reached the cell's step cap (read the mean as a
    /// lower bound when set).
    pub censored: bool,
    /// Availability statistics across the cell's trials.
    pub avail: AvailStats,
}

impl SweepOutcome {
    /// The outcome of `cell` given its merged trial and availability
    /// statistics — the single definition of the derived fields
    /// (estimate, κ, censoring), shared by the scheduler and every
    /// cell-at-a-time driver so their reports cannot diverge in anything
    /// but scheduling.
    pub fn measured(cell: &SweepCell, stats: RunningStats, avail: AvailStats) -> SweepOutcome {
        let censored = stats.max() >= cell.spec.max_steps as f64;
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
    /// availability columns included (`-` where no trial of a cell
    /// measured one). The degradation columns (goodput, retries,
    /// duplicate suppression, give-ups) appear only when some cell ran
    /// under a fault plan, and the repair columns (transfer units, storm
    /// queue depth) only when some cell ran an S0 tier — sweeps without
    /// those axes keep the exact pre-axis column set, which the golden
    /// files pin.
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
    /// goodput it delivered), and [`Column::FailoverLatency`] the SMR
    /// crash-schedule headline (`mean_view_change_latency`) — for a
    /// crash-of-the-leader schedule it sits at the SMR view timer, not
    /// the PB failover timeout.
    pub fn mean_of(&self, column: Column) -> Option<f64> {
        let mut acc = RunningStats::new();
        for o in &self.cells {
            if o.avail[column].n() > 0 {
                acc.push(o.avail[column].mean());
            }
        }
        (acc.n() > 0).then(|| acc.mean())
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
                let experiment = o.cell.spec;
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
            let (reference, _) =
                run_scenario_measured(cell.spec, &reference_runner, budget, cell.seed);
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
