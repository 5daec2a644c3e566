//! Simulated serving processes.
//!
//! A [`SimProcess`] is the unit the attack interacts with: it serves benign
//! requests, **crashes** when a wrong-key exploit corrupts its control flow
//! (the occasional "incorrect address value … merely causes crashing of the
//! process serving the attacker", paper §2.1), and is **compromised** when a
//! right-key exploit executes ("the attacker gains a greater control over
//! the system leaving the latter compromised").

use crate::keys::RandomizationKey;
use crate::scheme::{ExploitPayload, Scheme};

/// Lifecycle state of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessState {
    /// Serving requests normally.
    Running,
    /// Crashed (awaiting the forking daemon).
    Crashed,
    /// Under attacker control until the next re-randomization.
    Compromised,
}

/// Outcome of delivering one request/probe to a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeOutcome {
    /// Benign request served normally.
    Benign,
    /// Exploit misfired; the process crashed.
    Crashed,
    /// Exploit landed; the process is compromised.
    Compromised,
    /// The process was not running (crashed or already compromised), so the
    /// request went unserved.
    Unserved,
}

/// A simulated serving process randomized under one key.
///
/// # Example
///
/// ```
/// use fortress_obf::keys::RandomizationKey;
/// use fortress_obf::process::{ProbeOutcome, ProcessState, SimProcess};
/// use fortress_obf::scheme::Scheme;
///
/// let key = RandomizationKey(9);
/// let mut p = SimProcess::new("server-0", Scheme::Isr, key);
/// assert_eq!(p.deliver_exploit(Scheme::Isr.craft_exploit(key)),
///            ProbeOutcome::Compromised);
/// assert_eq!(p.state(), ProcessState::Compromised);
/// ```
#[derive(Clone, Debug)]
pub struct SimProcess {
    name: String,
    scheme: Scheme,
    key: RandomizationKey,
    state: ProcessState,
    served: u64,
    crashes: u64,
}

impl SimProcess {
    /// Boots a process randomized under `key`.
    pub fn new(name: &str, scheme: Scheme, key: RandomizationKey) -> SimProcess {
        SimProcess {
            name: name.to_owned(),
            scheme,
            key,
            state: ProcessState::Running,
            served: 0,
            crashes: 0,
        }
    }

    /// Rewinds to the just-booted state under `key`: running, zero
    /// counters. Equivalent to `SimProcess::new(self.name(), self.scheme(), key)`
    /// without reallocating the name — the trial-arena reset path.
    pub fn reset(&mut self, key: RandomizationKey) {
        self.key = key;
        self.state = ProcessState::Running;
        self.served = 0;
        self.crashes = 0;
    }

    /// Process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active randomization scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The current key (test/oracle access; the attacker never reads this).
    pub fn key(&self) -> RandomizationKey {
        self.key
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// Requests served since boot.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Crashes suffered since creation (across restarts).
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Whether the process currently serves requests.
    pub fn is_running(&self) -> bool {
        self.state == ProcessState::Running
    }

    /// Whether the attacker controls the process.
    pub fn is_compromised(&self) -> bool {
        self.state == ProcessState::Compromised
    }

    /// Serves a benign request.
    pub fn deliver_benign(&mut self) -> ProbeOutcome {
        if self.state != ProcessState::Running {
            return ProbeOutcome::Unserved;
        }
        self.served += 1;
        ProbeOutcome::Benign
    }

    /// Delivers an exploit payload: compromise on a correct key guess,
    /// crash otherwise.
    pub fn deliver_exploit(&mut self, payload: ExploitPayload) -> ProbeOutcome {
        if self.state != ProcessState::Running {
            return ProbeOutcome::Unserved;
        }
        if self.scheme.evaluate(&payload, self.key) {
            self.state = ProcessState::Compromised;
            ProbeOutcome::Compromised
        } else {
            self.state = ProcessState::Crashed;
            self.crashes += 1;
            ProbeOutcome::Crashed
        }
    }

    /// Restarts a crashed process with the *same* executable and key — what
    /// a forking daemon does, and the loophole SO leaves open.
    pub fn restart_same_key(&mut self) {
        if self.state == ProcessState::Crashed {
            self.state = ProcessState::Running;
        }
    }

    /// Reboots with a fresh executable randomized under `key` — the
    /// re-randomization path. Clears compromise: the attacker's foothold
    /// dies with the old executable ("continues to control it until
    /// re-randomization is applied", paper §4.2).
    pub fn rerandomize(&mut self, key: RandomizationKey) {
        self.key = key;
        self.state = ProcessState::Running;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AddressSpace;

    fn proc_with_key(k: u64) -> SimProcess {
        SimProcess::new("p", Scheme::Aslr, RandomizationKey(k))
    }

    #[test]
    fn benign_requests_served() {
        let mut p = proc_with_key(1);
        assert_eq!(p.deliver_benign(), ProbeOutcome::Benign);
        assert_eq!(p.served(), 1);
    }

    #[test]
    fn wrong_exploit_crashes_then_unserved() {
        let mut p = proc_with_key(1);
        let wrong = Scheme::Aslr.craft_exploit(RandomizationKey(2));
        assert_eq!(p.deliver_exploit(wrong), ProbeOutcome::Crashed);
        assert_eq!(p.state(), ProcessState::Crashed);
        assert_eq!(p.crashes(), 1);
        // Crashed process serves nothing until restarted.
        assert_eq!(p.deliver_benign(), ProbeOutcome::Unserved);
        assert_eq!(p.deliver_exploit(wrong), ProbeOutcome::Unserved);
    }

    #[test]
    fn right_exploit_compromises() {
        let mut p = proc_with_key(7);
        let right = Scheme::Aslr.craft_exploit(RandomizationKey(7));
        assert_eq!(p.deliver_exploit(right), ProbeOutcome::Compromised);
        assert!(p.is_compromised());
        // Compromised processes are attacker-held; they no longer serve.
        assert_eq!(p.deliver_benign(), ProbeOutcome::Unserved);
    }

    #[test]
    fn restart_keeps_key() {
        let mut p = proc_with_key(1);
        let wrong = Scheme::Aslr.craft_exploit(RandomizationKey(2));
        p.deliver_exploit(wrong);
        p.restart_same_key();
        assert!(p.is_running());
        assert_eq!(p.key(), RandomizationKey(1), "same executable, same key");
        // The attacker can now land the right guess on the restarted child.
        let right = Scheme::Aslr.craft_exploit(RandomizationKey(1));
        assert_eq!(p.deliver_exploit(right), ProbeOutcome::Compromised);
    }

    #[test]
    fn restart_does_not_resurrect_compromised() {
        let mut p = proc_with_key(1);
        p.deliver_exploit(Scheme::Aslr.craft_exploit(RandomizationKey(1)));
        p.restart_same_key();
        assert!(p.is_compromised(), "restart only applies to crashes");
    }

    #[test]
    fn rerandomize_clears_compromise_and_changes_key() {
        let mut p = proc_with_key(1);
        p.deliver_exploit(Scheme::Aslr.craft_exploit(RandomizationKey(1)));
        assert!(p.is_compromised());
        p.rerandomize(RandomizationKey(9));
        assert!(p.is_running());
        assert_eq!(p.key(), RandomizationKey(9));
        // The old exploit no longer lands.
        let stale = Scheme::Aslr.craft_exploit(RandomizationKey(1));
        assert_eq!(p.deliver_exploit(stale), ProbeOutcome::Crashed);
    }

    #[test]
    fn address_space_matches_key() {
        let p = proc_with_key(4);
        assert_eq!(AddressSpace::randomize(p.key()).key(), RandomizationKey(4));
        assert_eq!(p.scheme(), Scheme::Aslr);
        assert_eq!(p.name(), "p");
    }
}
