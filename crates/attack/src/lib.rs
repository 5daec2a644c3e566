//! De-randomization attacker models.
//!
//! The paper's attacker (§2.1, §4.2) works in two phases: phase 1 probes
//! for the randomization key (every wrong guess crashes the serving child
//! and is observed as a closed connection; the forking daemon obligingly
//! restarts it), and phase 2 uses the recovered key to land the real
//! exploit — in our model, a correct guess compromises the node directly.
//!
//! * [`scan`] — the key scan: a permuted walk that never repeats a guess,
//!   redrawn whenever a PO target re-randomizes (yesterday's eliminations
//!   are worthless).
//! * [`pacing`] — probe budgeting against proxy detection: given the
//!   proxies' suspicion policy, how fast can an attacker probe without
//!   ever being flagged? This is the operational meaning of κ.
//! * [`attacker`] — the one adversary engine,
//!   [`attacker::Adversary`], driving a
//!   [`fortress_core::system::Stack`] one unit time-step at a time:
//!   every posture is a schedule over the same four probing moves, and
//!   the module docs tabulate all of them.
//! * [`campaign`] — the posture as a first-class sweep axis:
//!   [`campaign::StrategyKind`], the engine's only constructor
//!   coordinate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod campaign;
pub mod pacing;
pub mod scan;

pub use attacker::{Adversary, AttackReport};
pub use campaign::StrategyKind;
pub use pacing::Pacer;
pub use scan::KeyScanner;
