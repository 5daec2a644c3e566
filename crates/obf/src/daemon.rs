//! The forking daemon.
//!
//! "Usually, servers have a forking daemon which forks a new (child) server
//! process if the working one crashes, assuming the causes underlying the
//! crash to be benign" (paper §2.1). The daemon is what lets a
//! de-randomization attacker probe repeatedly: every wrong guess kills the
//! child, the daemon restarts it **with the same executable** (same key),
//! and the attacker tries the next value.
//!
//! The daemon also carries the node's crash telemetry — the signal an
//! administrator (or FORTRESS proxy) could use to detect probing, and the
//! reason an attacker paces probes "so that the number of crashes he causes
//! in a given period does not exceed the threshold for raising suspicion".

use crate::keys::RandomizationKey;
use crate::process::{ProbeOutcome, SimProcess};
use crate::scheme::{ExploitPayload, Scheme};

/// A serving node: a forking daemon supervising one child process.
///
/// # Example
///
/// ```
/// use fortress_obf::daemon::ForkingDaemon;
/// use fortress_obf::keys::RandomizationKey;
/// use fortress_obf::process::ProbeOutcome;
/// use fortress_obf::scheme::Scheme;
///
/// let mut node = ForkingDaemon::boot("server-0", Scheme::Aslr, RandomizationKey(3));
/// let wrong = Scheme::Aslr.craft_exploit(RandomizationKey(4));
/// // The wrong probe crashes the child, but the daemon restarts it at once.
/// assert_eq!(node.deliver_exploit(wrong), ProbeOutcome::Crashed);
/// assert!(node.is_serving());
/// assert_eq!(node.restarts(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ForkingDaemon {
    child: SimProcess,
    restarts: u64,
}

impl ForkingDaemon {
    /// Boots a node whose child runs `scheme` under `key`.
    pub fn boot(name: &str, scheme: Scheme, key: RandomizationKey) -> ForkingDaemon {
        ForkingDaemon {
            child: SimProcess::new(name, scheme, key),
            restarts: 0,
        }
    }

    /// Rewinds to the just-booted state under `key` (see
    /// [`SimProcess::reset`]): the child runs again with zero counters
    /// and the restart count clears. The trial-arena reset path.
    pub fn reset(&mut self, key: RandomizationKey) {
        self.child.reset(key);
        self.restarts = 0;
    }

    /// Node name.
    pub fn name(&self) -> &str {
        self.child.name()
    }

    /// Current child key (oracle/test access).
    pub fn key(&self) -> RandomizationKey {
        self.child.key()
    }

    /// The child's randomization scheme.
    pub fn scheme(&self) -> Scheme {
        self.child.scheme()
    }

    /// Times the daemon restarted a crashed child.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Whether the child currently serves requests (it is not compromised
    /// and not mid-crash — the daemon restarts crashes synchronously here).
    pub fn is_serving(&self) -> bool {
        self.child.is_running()
    }

    /// Whether the attacker controls the child.
    pub fn is_compromised(&self) -> bool {
        self.child.is_compromised()
    }

    /// Serves a benign request.
    pub fn deliver_benign(&mut self) -> ProbeOutcome {
        self.child.deliver_benign()
    }

    /// Delivers an exploit. A crash is immediately followed by a same-key
    /// restart — the outcome still reports [`ProbeOutcome::Crashed`] so the
    /// network layer can emit the connection-closure the attacker observes.
    pub fn deliver_exploit(&mut self, payload: ExploitPayload) -> ProbeOutcome {
        let outcome = self.child.deliver_exploit(payload);
        if outcome == ProbeOutcome::Crashed {
            self.child.restart_same_key();
            self.restarts += 1;
        }
        outcome
    }

    /// Re-randomizes the child under a fresh key (reboot + new executable).
    /// Clears any compromise.
    pub fn rerandomize(&mut self, key: RandomizationKey) {
        self.child.rerandomize(key);
    }

    /// Immutable access to the child (telemetry).
    pub fn child(&self) -> &SimProcess {
        &self.child
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
        let mut node = ForkingDaemon::boot("s", Scheme::Isr, key);

        // Phase 1 of the de-randomization attack: scan the space.
        let mut found = None;
        for guess in space.iter() {
            match node.deliver_exploit(Scheme::Isr.craft_exploit(guess)) {
                ProbeOutcome::Crashed => continue,
                ProbeOutcome::Compromised => {
                    found = Some(guess);
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(found, Some(key));
        assert_eq!(node.restarts(), 123, "one restart per wrong guess");
        assert!(node.is_compromised());
    }

    #[test]
    fn compromised_child_stops_serving() {
        let mut node = ForkingDaemon::boot("s", Scheme::Aslr, RandomizationKey(1));
        node.deliver_exploit(Scheme::Aslr.craft_exploit(RandomizationKey(1)));
        assert!(!node.is_serving());
        assert_eq!(node.deliver_benign(), ProbeOutcome::Unserved);
        // A forking daemon does NOT restart a compromised (non-crashed)
        // child; it has no crash to react to.
        assert_eq!(node.restarts(), 0);
    }

    #[test]
    fn rerandomize_revokes_compromise() {
        let mut node = ForkingDaemon::boot("s", Scheme::Aslr, RandomizationKey(1));
        node.deliver_exploit(Scheme::Aslr.craft_exploit(RandomizationKey(1)));
        node.rerandomize(RandomizationKey(2));
        assert!(node.is_serving());
        assert!(!node.is_compromised());
        assert_eq!(node.key(), RandomizationKey(2));
    }

    #[test]
    fn benign_traffic_flows_between_probes() {
        let mut node = ForkingDaemon::boot("s", Scheme::Aslr, RandomizationKey(5));
        let wrong = Scheme::Aslr.craft_exploit(RandomizationKey(6));
        assert_eq!(node.deliver_exploit(wrong), ProbeOutcome::Crashed);
        assert_eq!(node.deliver_benign(), ProbeOutcome::Benign);
        assert_eq!(node.child().served(), 1);
        assert_eq!(node.name(), "s");
        assert_eq!(node.scheme(), Scheme::Aslr);
    }
}
