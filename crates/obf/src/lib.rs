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
//! * [`layout`] — a process's simulated memory layout: section bases derived
//!   from the key, and the critical address an exploit must name.
//! * [`scheme`] — ASLR and ISR randomization schemes: two mechanically
//!   different defenses that both reduce a code-injection attempt to "did
//!   the attacker guess the key".
//! * [`process`] — [`process::SimProcess`]: delivers benign requests,
//!   **crashes** on wrong-key exploits, is **compromised** by right-key
//!   exploits (paper §2.1's two-step code-injection model).
//! * [`daemon`] — the forking daemon that restarts crashed children *with
//!   the same executable*, the loophole de-randomization attacks exploit.
//! * [`schedule`] — obfuscation policies and the re-randomizer that assigns
//!   fresh keys at period boundaries (shared key for the server group,
//!   distinct keys for proxies, per the FORTRESS prescription in §3).
//!
//! # Example
//!
//! ```
//! use fortress_obf::keys::KeySpace;
//! use fortress_obf::process::{ProbeOutcome, SimProcess};
//! use fortress_obf::scheme::Scheme;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let space = KeySpace::from_entropy_bits(16);
//! let key = space.sample(&mut rng);
//! let mut process = SimProcess::new("server-0", Scheme::Aslr, key);
//!
//! // A wrong guess crashes the serving process; the right one compromises it.
//! let wrong = space.sample(&mut rng);
//! assert_ne!(wrong, key);
//! assert_eq!(process.deliver_exploit(Scheme::Aslr.craft_exploit(wrong)),
//!            ProbeOutcome::Crashed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod keys;
pub mod layout;
pub mod process;
pub mod scheme;
pub mod schedule;

pub use daemon::ForkingDaemon;
pub use keys::{KeySpace, RandomizationKey};
pub use process::{ProbeOutcome, ProcessState, SimProcess};
pub use schedule::{KeyAssignment, ObfuscationPolicy, Rerandomizer};
pub use scheme::{ExploitPayload, Scheme};
