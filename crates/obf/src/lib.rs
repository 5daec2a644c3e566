//! Randomization and proactive-obfuscation substrate.
//!
//! The paper's defense (§2.1, §4.1) is *artificial diversity through
//! randomization*: each node's executable is randomized under a key drawn
//! from a space of `χ` possibilities (16 bits of entropy under PaX ASLR), and
//! either kept for the node's lifetime (**SO**, start-up-only — proactive
//! *recovery* reinstalls the same executable) or refreshed every unit
//! time-step (**PO**, proactive obfuscation).
//!
//! This crate simulates that machinery faithfully at the level the attack
//! cares about:
//!
//! * [`keys`] — key spaces parameterized by entropy bits; randomization keys.
//! * [`layout`] — a process's simulated memory layout: the stack's base
//!   derived from the key, and the critical address an exploit must name.
//! * [`scheme`] — the one randomization scheme, PaX ASLR, and the
//!   [`ExploitPayload`] an attacker sends against it: a return-address
//!   overwrite that lands iff it names the key.
//! * [`daemon`] — [`daemon::ForkingDaemon`], one serving node: a wrong-key
//!   exploit **crashes** its child, which the daemon restarts at once *with
//!   the same executable* (the loophole de-randomization attacks exploit),
//!   and a right-key exploit **compromises** it (paper §2.1's two-step
//!   code-injection model). A crash is an event, counted as a restart; a
//!   node is serving or held.
//! * [`schedule`] — the SO/PO [`schedule::Policy`] and the re-randomizer
//!   that applies it at the end of every unit time-step: nothing under SO,
//!   fresh keys under PO (`P = 1`; shared for the server group, distinct
//!   for proxies, per the FORTRESS prescription in §3).
//!
//! # Example
//!
//! ```
//! use fortress_obf::daemon::{ForkingDaemon, ProbeOutcome};
//! use fortress_obf::keys::KeySpace;
//! use fortress_obf::scheme::ExploitPayload;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let space = KeySpace::from_entropy_bits(16);
//! let key = space.sample(&mut rng);
//! let mut node = ForkingDaemon::boot("server-0", key);
//!
//! // A wrong guess crashes the serving child; the right one compromises it.
//! let wrong = space.sample(&mut rng);
//! assert_ne!(wrong, key);
//! assert_eq!(node.deliver_exploit(ExploitPayload::aimed_at(wrong)),
//!            ProbeOutcome::Crashed);
//! assert_eq!(node.deliver_exploit(ExploitPayload::aimed_at(key)),
//!            ProbeOutcome::Compromised);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod keys;
pub mod layout;
pub mod scheme;
pub mod schedule;

pub use daemon::{ForkingDaemon, ProbeOutcome};
pub use keys::{KeySpace, RandomizationKey};
pub use schedule::{KeyAssignment, Policy, Rerandomizer};
pub use scheme::ExploitPayload;
