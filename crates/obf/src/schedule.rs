//! Obfuscation policies and the fleet re-randomizer.
//!
//! The paper compares two maintenance regimes (§4.1):
//!
//! * **SO (start-up-only obfuscation)**: nodes are randomized once, then
//!   merely *recovered* at the end of each unit time-step. The reboot
//!   reinstalls the **same executable and key** (proactive recovery, Castro
//!   & Liskov). A reboot cleanses a compromised process image, but an
//!   attacker who knows the key simply re-lands the exploit, so a known key
//!   means a permanently re-compromisable node. A serving child is already
//!   running that executable, so SO end-of-step is the identity.
//! * **PO (proactive obfuscation)**: at the end of every unit time-step
//!   (the paper's period `P = 1`), every node reboots into a **freshly
//!   randomized** executable: new key, compromise revoked, prior key
//!   knowledge useless.
//!
//! FORTRESS additionally prescribes the **key assignment** (§3): all PB
//! servers share one key (so primary→backup state updates need no
//! marshalling), while proxies get distinct keys (they never talk to each
//! other, so diversity is free).

use rand::Rng;

use crate::daemon::ForkingDaemon;
use crate::keys::{KeySpace, RandomizationKey};

/// Obfuscation policy (paper §4.1): whether nodes are ever re-randomized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// SO: randomized once at start-up, proactively *recovered* (same key
    /// reinstalled) each step. Key guessing is sampling **without**
    /// replacement; uncovered keys stay uncovered.
    StartupOnly,
    /// PO: re-randomized with a fresh key at the end of every unit
    /// time-step (`P = 1`). Key guessing is sampling **with** replacement
    /// across steps.
    Proactive,
}

impl Policy {
    /// Both policies in the paper's presentation order — the
    /// service-order axis a scenario sweep enumerates.
    pub const ALL: [Policy; 2] = [Policy::StartupOnly, Policy::Proactive];

    /// Short suffix used in figure labels ("SO"/"PO").
    pub fn suffix(&self) -> &'static str {
        match self {
            Policy::StartupOnly => "SO",
            Policy::Proactive => "PO",
        }
    }

    /// Stable numeric id, part of the scenario-sweep seeding contract:
    /// content-derived cell seeds fold this value (never an axis
    /// position), so SO and PO cells of the same coordinate draw
    /// decorrelated trial streams.
    pub fn id(&self) -> u64 {
        match self {
            Policy::StartupOnly => 0,
            Policy::Proactive => 1,
        }
    }
}

/// How keys are distributed across a node group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyAssignment {
    /// Every node in the group gets the same key (FORTRESS servers).
    SharedAcrossGroup,
    /// Every node gets its own distinct key (FORTRESS proxies, S0 replicas).
    DistinctPerNode,
}

impl KeyAssignment {
    /// Draws keys for `n` nodes under this assignment.
    ///
    /// Distinct keys are rejection-sampled to be pairwise different, which
    /// always terminates because group sizes (≤ a handful) are far below
    /// any key-space size this workspace configures.
    fn draw_keys<R: Rng + ?Sized>(
        &self,
        space: KeySpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<RandomizationKey> {
        let mut keys = Vec::with_capacity(n);
        self.draw_keys_into(space, n, rng, &mut keys);
        keys
    }

    /// [`KeyAssignment::draw_keys`] into a caller-owned buffer, reusing
    /// its allocation. The RNG consumption is identical.
    fn draw_keys_into<R: Rng + ?Sized>(
        &self,
        space: KeySpace,
        n: usize,
        rng: &mut R,
        keys: &mut Vec<RandomizationKey>,
    ) {
        keys.clear();
        match self {
            KeyAssignment::SharedAcrossGroup => {
                let k = space.sample(rng);
                keys.resize(n, k);
            }
            KeyAssignment::DistinctPerNode => {
                while keys.len() < n {
                    let k = space.sample(rng);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            }
        }
    }
}

/// Applies an obfuscation policy to one node group at step boundaries.
///
/// # Example
///
/// ```
/// use fortress_obf::daemon::ForkingDaemon;
/// use fortress_obf::keys::KeySpace;
/// use fortress_obf::schedule::{KeyAssignment, Policy, Rerandomizer};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut rr = Rerandomizer::new(
///     KeySpace::from_entropy_bits(16),
///     Policy::Proactive,
///     KeyAssignment::SharedAcrossGroup,
/// );
/// let keys = rr.initial_keys(3, &mut rng);
/// let mut nodes: Vec<ForkingDaemon> = keys.iter().enumerate()
///     .map(|(i, k)| ForkingDaemon::boot(&format!("s{i}"), *k))
///     .collect();
/// let old_key = nodes[0].key();
/// rr.end_of_step(nodes.iter_mut(), &mut rng);
/// assert_ne!(nodes[0].key(), old_key, "fresh key every step under PO");
/// ```
#[derive(Clone, Debug)]
pub struct Rerandomizer {
    space: KeySpace,
    policy: Policy,
    assignment: KeyAssignment,
    /// Reused across steps so PO maintenance allocates nothing.
    key_buf: Vec<RandomizationKey>,
}

impl Rerandomizer {
    /// Creates a re-randomizer for one group.
    pub fn new(space: KeySpace, policy: Policy, assignment: KeyAssignment) -> Rerandomizer {
        Rerandomizer {
            space,
            policy,
            assignment,
            key_buf: Vec::new(),
        }
    }

    /// The key space in use.
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// Draws the group's start-up keys.
    pub fn initial_keys<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<RandomizationKey> {
        self.assignment.draw_keys(self.space, n, rng)
    }

    /// Applies end-of-step maintenance to the group, in place, so a drive
    /// loop passes the daemons where they live (embedded in larger node
    /// structs) with no clone-out, copy-back or allocation.
    ///
    /// Under SO this is the identity and draws nothing. Recovery
    /// re-installs the same key on a child that is already running, and a
    /// held node stays held: the reboot would clear the process image, but
    /// the attacker still knows the unchanged key and re-lands the exploit
    /// at once (paper §4.2: control persists "until re-randomization is
    /// applied"). Under PO every node is re-randomized under fresh keys.
    pub fn end_of_step<'a, R: Rng + ?Sized>(
        &mut self,
        nodes: impl ExactSizeIterator<Item = &'a mut ForkingDaemon>,
        rng: &mut R,
    ) {
        if self.policy == Policy::StartupOnly {
            return;
        }
        self.assignment
            .draw_keys_into(self.space, nodes.len(), rng, &mut self.key_buf);
        for (node, key) in nodes.zip(&self.key_buf) {
            node.rerandomize(*key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ExploitPayload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(n: usize, keys: &[RandomizationKey]) -> Vec<ForkingDaemon> {
        (0..n)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), keys[i]))
            .collect()
    }

    #[test]
    fn shared_assignment_gives_one_key() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys = KeyAssignment::SharedAcrossGroup.draw_keys(
            KeySpace::from_entropy_bits(16),
            3,
            &mut rng,
        );
        assert_eq!(keys.len(), 3);
        assert!(keys.iter().all(|k| *k == keys[0]));
    }

    #[test]
    fn distinct_assignment_gives_pairwise_different_keys() {
        let mut rng = StdRng::seed_from_u64(1);
        // A tiny space forces the rejection loop to do real work.
        let keys = KeyAssignment::DistinctPerNode.draw_keys(
            KeySpace::from_entropy_bits(2),
            4,
            &mut rng,
        );
        let mut sorted: Vec<u64> = keys.iter().map(|k| k.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn so_recovery_keeps_keys_and_attacker_control() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut rr = Rerandomizer::new(
            KeySpace::from_entropy_bits(16),
            Policy::StartupOnly,
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes = fleet(3, &keys);
        // Attacker compromises node 0 with the right key.
        let key = nodes[0].key();
        nodes[0].deliver_exploit(ExploitPayload::aimed_at(key));
        assert!(nodes[0].is_compromised());

        rr.end_of_step(nodes.iter_mut(), &mut rng);
        assert_eq!(nodes[0].key(), key, "recovery must not change the key");
        // The attacker knows the key, so recovery cannot evict them: the
        // re-exploitation is collapsed into persistent control.
        assert!(nodes[0].is_compromised());
        // Uncompromised siblings keep serving under the same key.
        assert!(!nodes[1].is_compromised());
        assert_eq!(nodes[1].key(), key);
    }

    #[test]
    fn po_rerandomization_revokes_key_knowledge() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut rr = Rerandomizer::new(
            KeySpace::from_entropy_bits(16),
            Policy::Proactive,
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes = fleet(3, &keys);
        let old_key = nodes[1].key();
        nodes[1].deliver_exploit(ExploitPayload::aimed_at(old_key));
        assert!(nodes[1].is_compromised());

        rr.end_of_step(nodes.iter_mut(), &mut rng);
        assert!(!nodes[1].is_compromised());
        assert_ne!(nodes[1].key(), old_key);
        // Stale key knowledge now just crashes the child.
        let outcome = nodes[1].deliver_exploit(ExploitPayload::aimed_at(old_key));
        assert_eq!(outcome, crate::daemon::ProbeOutcome::Crashed);
    }

    #[test]
    fn shared_group_rerandomizes_to_a_common_key() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut rr = Rerandomizer::new(
            KeySpace::from_entropy_bits(16),
            Policy::Proactive,
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes = fleet(3, &keys);
        rr.end_of_step(nodes.iter_mut(), &mut rng);
        assert_eq!(nodes[0].key(), nodes[1].key());
        assert_eq!(nodes[1].key(), nodes[2].key());
    }
}
