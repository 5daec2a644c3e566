//! # FORTRESS — a fortified primary-backup system and its resilience lab
//!
//! Reproduction of *"Assessing the Attack Resilience Capabilities of a
//! Fortified Primary-Backup System"* (Clarke & Ezhilchelvan, DSN 2010).
//!
//! This umbrella crate re-exports the workspace:
//!
//! | Crate | What it provides |
//! |-------|------------------|
//! | [`crypto`] | from-scratch SHA-256/HMAC, MAC-based signatures, trusted key authority |
//! | [`net`] | `Transport` trait over the deterministic `SimNet` and the kernel-socket `SockNet`, observable connection closure, seeded link faults (`FaultPlan`) inside `SimNet` |
//! | [`obf`] | simulated PaX ASLR (the one scheme and its one exploit), the forking daemon that is each node, the SO/PO policy and its re-randomizer |
//! | [`replication`] | primary-backup engine and a VSR-style SMR engine with real view changes (sans-I/O) |
//! | [`core`] | the FORTRESS architecture: name server, proxies, clients, full stacks |
//! | [`attack`] | de-randomization attackers: a permuted key scan, pacing, launch pads |
//! | [`model`] | expected lifetimes by closed form and by the period-P absorbing chain, and the `outlives` relation |
//! | [`sim`] | Monte-Carlo engines at three fidelities, statistics, CSV reports, the `figures` binary |
//!
//! ## Quick start
//!
//! ```
//! use fortress::model::params::{AttackParams, Policy, ProbeModel};
//! use fortress::model::{expected_lifetime, SystemKind};
//!
//! // How long does a FORTRESS system (kappa = 0.5) survive at alpha = 1e-3?
//! let params = AttackParams::from_alpha(65536.0, 1e-3)?;
//! let el = expected_lifetime(
//!     SystemKind::S2Fortress { kappa: 0.5 },
//!     Policy::Proactive,
//!     ProbeModel::Broadcast,
//!     &params,
//! )?;
//! assert!(el > 1900.0 && el < 2100.0); // ~2x the bare PB system's 1000
//! # Ok::<(), fortress::model::ModelError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `README.md` for
//! the crate map, the sweep surface and the commands that regenerate every
//! figure and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fortress_attack as attack;
pub use fortress_core as core;
pub use fortress_crypto as crypto;
pub use fortress_model as model;
pub use fortress_net as net;
pub use fortress_obf as obf;
pub use fortress_replication as replication;
pub use fortress_sim as sim;
