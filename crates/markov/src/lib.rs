//! Absorbing Markov chain toolkit for the FORTRESS resilience evaluation.
//!
//! The paper (§5) determines expected system lifetimes with "either Absorbing
//! Markov Chain methods (where state spaces are sufficiently small) or
//! Monte-Carlo simulations". This crate is the Markov half:
//!
//! * [`matrix`] — from-scratch dense `f64` linear algebra (LU decomposition
//!   with partial pivoting, solves, inverses). No external math crates.
//! * [`chain`] — [`chain::AbsorbingChain`]: fundamental matrix
//!   `N = (I − Q)⁻¹`, expected absorption times `t = N·1`, absorption
//!   probabilities `B = N·R`, and absorption-time variances.
//! * [`builders`] — chains for every system class of the paper under
//!   proactive obfuscation with a generalized re-randomization period `P`
//!   (the paper fixes `P = 1`; sweeping `P` interpolates between PO and SO
//!   and is the `ablation-period` table of the `figures` binary).
//!
//! # Example
//!
//! ```
//! use fortress_markov::chain::AbsorbingChain;
//!
//! // A geometric chain: survive with probability 0.99, absorb with 0.01.
//! let chain = AbsorbingChain::geometric(0.01).unwrap();
//! let el = chain.expected_steps().unwrap()[0];
//! assert!((el - 100.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod chain;
pub mod error;
pub mod matrix;

pub use builders::{LaunchPad, PeriodChainSpec, SystemKind};
pub use chain::AbsorbingChain;
pub use error::{ChainError, LinAlgError};
pub use matrix::Matrix;
