//! Analytical resilience models for the FORTRESS evaluation.
//!
//! This crate computes the **expected lifetime** (EL, paper Definition 7) of
//! every system class (S0/S1/S2, paper §4) under both obfuscation policies
//! (SO = start-up-only, PO = proactive, §4.1), for the full parameter space
//! of the paper's evaluation: key-space size `χ`, probe rate `ω` (equivalently
//! `α`), and indirect-attack coefficient `κ`.
//!
//! The paper (§5) computes ELs with "either Absorbing Markov Chain methods
//! (where state spaces are sufficiently small) or Monte-Carlo simulations".
//! The repository has all three methods, and they agree on the PO systems:
//!
//! 1. **Closed forms** — [`lifetime`], summing the survival functions of
//!    [`survival`].
//! 2. **The absorbing chain** — [`chain`]'s [`PeriodChainSpec`], which
//!    generalizes PO to a re-randomization period `P` and is solved as a
//!    renewal over one period (`EL = V / A`), not by a general matrix
//!    inverse.
//! 3. **Monte-Carlo** — the samplers of `fortress-sim`, which read their
//!    parameters and [`LaunchPad`] semantics from here.
//!
//! Modules:
//!
//! * [`params`] — attack/system parameters and the probe-model variants.
//! * [`survival`] — per-system survival functions `S(t)`, and the PO step
//!   hazard [`survival::po_step`] with its kernel.
//! * [`lifetime`] — expected lifetimes `EL = Σ_t S(t)` and PO closed forms.
//! * [`chain`] — the period-`P` chain, [`SystemKind`] and [`LaunchPad`].
//! * [`ordering`] — the paper's `outlives` relation (`A → B`) and a verifier
//!   for the §6 summary chain.
//!
//! The central modeling decision is the
//! **broadcast-probe model**: a probe is a malicious service request carrying
//! one guessed key value, and requests are broadcast to *all* replicas, so a
//! single probe tests every replica simultaneously. This is what makes the
//! paper's `4/(χ−i)` and `1/(χ−i)` hazards (§6) correct, and it is the model
//! under which all four headline trends hold. The alternative
//! independent-per-node model is provided for the `ABL-PROBE` ablation.
//!
//! # Example
//!
//! ```
//! use fortress_model::params::{AttackParams, Policy, ProbeModel};
//! use fortress_model::lifetime::expected_lifetime;
//! use fortress_model::SystemKind;
//!
//! let params = AttackParams::from_alpha(65536.0, 1e-3)?;
//! let el_s1_po = expected_lifetime(
//!     SystemKind::S1Pb, Policy::Proactive, ProbeModel::Broadcast, &params)?;
//! assert!((el_s1_po - 1000.0).abs() < 1.0);
//! # Ok::<(), fortress_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod error;
pub mod lifetime;
pub mod ordering;
pub mod params;
pub mod survival;

pub use error::ModelError;
pub use chain::{LaunchPad, PeriodChainSpec, SystemKind};
pub use lifetime::expected_lifetime;
pub use params::{AttackParams, Policy, ProbeModel};
