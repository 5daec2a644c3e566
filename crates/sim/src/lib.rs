//! Monte-Carlo engines for the FORTRESS resilience evaluation (paper §5).
//!
//! Three fidelities, each validating the next:
//!
//! * [`event_mc`] — **event-driven** samplers: key-discovery times are
//!   sampled directly from their closed-form distributions (uniform order
//!   statistics for SO, geometrics for PO), so one trial costs O(1)
//!   regardless of how many steps the system survives. This is what makes
//!   Figure 1's `α = 10⁻⁵` points (expected lifetimes in the millions of
//!   steps) computable by simulation at all.
//! * [`abstract_mc`] — **step-by-step** simulation of the abstract attack
//!   model, hazard by hazard; cross-validates the event-driven sampler and
//!   the analytic survival functions.
//! * [`protocol_mc`] — **protocol-level** simulation: the real FORTRESS /
//!   PB / SMR stacks from `fortress-core` under the real probing attackers
//!   from `fortress-attack`, over the deterministic network, with a scaled
//!   key space; corroborates that the abstract model's shapes survive
//!   contact with an actual implementation. One
//!   [`ProtocolExperiment`] is one protocol cell, its adversary posture
//!   included, and [`run_trial`] is the single trial every protocol cell
//!   runs — any class, any adversary strategy, clean or degraded
//!   network, one stack or a sharded fleet, all on one assembly drawn
//!   from the worker's [`arena`].
//!
//! All three meet in [`scenario`] — the unified experiment surface and
//! the **one sweep path**: a declarative [`scenario::SweepSpec`] axis
//! builder (class × SO/PO × entropy × suspicion × fleet × strategy ×
//! [`outage`] crash schedule — PB outages or SMR crashes with priced
//! repair — × [`faults`] schedule — the network-fault axis — ×
//! [`fleet_mc`] shard coordinate — the multi-tenant shard axis) compiles to
//! content-seeded [`scenario::ScenarioSpec`] cells, a cell-parallel
//! [`scenario::SweepScheduler`] runs them through one call of the
//! runner's claim-and-file loop, and one [`scenario::SweepReport`]
//! renders them — every measured column from the single table in
//! [`stats::COLUMNS`].
//! A [`scenario::CrossCheck`] validates protocol cells against the
//! abstract model's κ (and availability) predictions cell-by-cell.
//!
//! Support: [`runner`] (the parallel deterministic trial runner every
//! consumer goes through), [`stats`] (Welford accumulators, parallel
//! merge, Student-t confidence intervals), [`report`] (CSV emission for
//! the figures harness).
//!
//! # Determinism contract
//!
//! All simulation entry points take a `u64` seed and are reproducible:
//!
//! * Trials executed through [`runner::Runner`] are seeded **per trial**
//!   as [`runner::trial_seed`]`(base_seed, trial_index)` — a SplitMix64
//!   mix of the run seed and the trial counter — so no trial's stream
//!   depends on which thread ran it or on how work was chunked.
//! * Per-chunk [`RunningStats`] reduce with [`RunningStats::merge`]
//!   (Chan et al.'s parallel Welford combination) **in chunk-index
//!   order**, fixing the floating-point reduction tree. Together these
//!   make every result bit-identical across thread counts; the property
//!   is asserted by `tests/runner_determinism.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_mc;
pub mod arena;
pub mod event_mc;
pub mod faults;
pub mod fleet_mc;
pub mod outage;
pub mod protocol_mc;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;

pub use abstract_mc::AbstractModel;
pub use arena::{arena_stats, clear_arena};
pub use event_mc::{sample_lifetime, HazardTable};
pub use faults::FaultSpec;
pub use fleet_mc::{ShardSpec, WorkloadProbe, ZipfWorkload};
pub use outage::{OutageDriver, OutageSpec};
pub use protocol_mc::{run_trial, ProtocolExperiment};
pub use runner::{Runner, TrialBudget};
pub use scenario::{
    CrossCheck, ScenarioSpec, SweepCell, SweepReport, SweepScheduler, SweepSpec,
};
pub use stats::{AvailStats, Column, ColumnGroup, Estimate, RunningStats, TrialPoint, COLUMNS};
