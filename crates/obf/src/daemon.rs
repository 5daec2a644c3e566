//! The forking daemon: one serving node.
//!
//! "Usually, servers have a forking daemon which forks a new (child) server
//! process if the working one crashes, assuming the causes underlying the
//! crash to be benign" (paper §2.1). The daemon is what lets a
//! de-randomization attacker probe repeatedly: every wrong guess kills the
//! child, the daemon restarts it **with the same executable** (same key),
//! and the attacker tries the next value.
//!
//! A node is therefore **serving** or **held**. A right guess holds it
//! ("the attacker gains a greater control over the system leaving the
//! latter compromised") until re-randomization. A crash is an event, not a
//! state: the restart is synchronous, so no caller ever sees a node
//! mid-crash. What a crash leaves behind is the restart count, the
//! telemetry an administrator (or FORTRESS proxy) could use to detect
//! probing, and the reason an attacker paces probes "so that the number of
//! crashes he causes in a given period does not exceed the threshold for
//! raising suspicion".

use crate::keys::RandomizationKey;
use crate::scheme::ExploitPayload;

/// What one exploit did to a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeOutcome {
    /// The guess missed: the child crashed and the daemon restarted it
    /// under the same key.
    Crashed,
    /// The guess landed, or the node was already held: the attacker holds
    /// it until it is re-randomized.
    Compromised,
}

/// A serving node: a forking daemon and the randomized child it
/// supervises.
///
/// # Example
///
/// ```
/// use fortress_obf::daemon::{ForkingDaemon, ProbeOutcome};
/// use fortress_obf::keys::RandomizationKey;
/// use fortress_obf::scheme::ExploitPayload;
///
/// let mut node = ForkingDaemon::boot("server-0", RandomizationKey(3));
/// let wrong = ExploitPayload::aimed_at(RandomizationKey(4));
/// // The wrong probe crashes the child, but the daemon restarts it at once.
/// assert_eq!(node.deliver_exploit(wrong), ProbeOutcome::Crashed);
/// assert_eq!(node.restarts(), 1);
/// let right = ExploitPayload::aimed_at(RandomizationKey(3));
/// assert_eq!(node.deliver_exploit(right), ProbeOutcome::Compromised);
/// assert!(node.is_compromised());
/// ```
#[derive(Clone, Debug)]
pub struct ForkingDaemon {
    name: String,
    key: RandomizationKey,
    compromised: bool,
    restarts: u64,
}

impl ForkingDaemon {
    /// Boots a node whose child is randomized under `key`.
    pub fn boot(name: &str, key: RandomizationKey) -> ForkingDaemon {
        ForkingDaemon {
            name: name.to_owned(),
            key,
            compromised: false,
            restarts: 0,
        }
    }

    /// Rewinds to the just-booted state under `key`: serving, no restarts.
    /// Equivalent to [`ForkingDaemon::boot`] with the same name, without
    /// reallocating the name. The trial-arena reset path.
    pub fn reset(&mut self, key: RandomizationKey) {
        self.key = key;
        self.compromised = false;
        self.restarts = 0;
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The child's current key (oracle and test access; the attacker never
    /// reads this).
    pub fn key(&self) -> RandomizationKey {
        self.key
    }

    /// Times the daemon restarted a crashed child: one per wrong guess at
    /// a serving node.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Whether the attacker holds the node.
    pub fn is_compromised(&self) -> bool {
        self.compromised
    }

    /// Delivers an exploit. A right guess holds the node. A wrong one
    /// crashes the child, which the daemon restarts at once under the same
    /// key; the outcome still reports [`ProbeOutcome::Crashed`] so the
    /// network layer can emit the connection closure the attacker
    /// observes. A held node stays held.
    pub fn deliver_exploit(&mut self, payload: ExploitPayload) -> ProbeOutcome {
        if self.compromised || payload.lands(self.key) {
            self.compromised = true;
            ProbeOutcome::Compromised
        } else {
            self.restarts += 1;
            ProbeOutcome::Crashed
        }
    }

    /// Reboots the child into a fresh executable randomized under `key`.
    /// Clears compromise: the attacker's foothold dies with the old
    /// executable ("continues to control it until re-randomization is
    /// applied", paper §4.2).
    pub fn rerandomize(&mut self, key: RandomizationKey) {
        self.key = key;
        self.compromised = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeySpace;

    #[test]
    fn survives_many_wrong_probes_then_falls_to_right_one() {
        let space = KeySpace::from_entropy_bits(8);
        let key = RandomizationKey(123);
        let mut node = ForkingDaemon::boot("s", key);

        // Phase 1 of the de-randomization attack: scan the space.
        let mut found = None;
        for guess in space.iter() {
            if node.deliver_exploit(ExploitPayload::aimed_at(guess)) == ProbeOutcome::Compromised {
                found = Some(guess);
                break;
            }
        }
        assert_eq!(found, Some(key));
        assert_eq!(node.restarts(), 123, "one restart per wrong guess");
        assert!(node.is_compromised());
    }

    #[test]
    fn compromised_child_stops_serving() {
        let mut node = ForkingDaemon::boot("s", RandomizationKey(1));
        node.deliver_exploit(ExploitPayload::aimed_at(RandomizationKey(1)));
        assert!(node.is_compromised());
        // A held node stays held, and a forking daemon does NOT restart
        // it: there is no crash to react to.
        let wrong = ExploitPayload::aimed_at(RandomizationKey(2));
        assert_eq!(node.deliver_exploit(wrong), ProbeOutcome::Compromised);
        assert_eq!(node.restarts(), 0);
    }

    #[test]
    fn rerandomize_revokes_compromise() {
        let mut node = ForkingDaemon::boot("s", RandomizationKey(1));
        node.deliver_exploit(ExploitPayload::aimed_at(RandomizationKey(1)));
        node.rerandomize(RandomizationKey(2));
        assert!(!node.is_compromised());
        assert_eq!(node.key(), RandomizationKey(2));
    }
}
