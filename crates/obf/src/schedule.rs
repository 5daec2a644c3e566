//! Obfuscation policies and the fleet re-randomizer.
//!
//! The paper compares two maintenance regimes (§4.1):
//!
//! * **SO (start-up-only obfuscation)** — nodes are randomized once, then
//!   merely *recovered* at the end of each unit time-step: the reboot
//!   reinstalls the **same executable and key** (proactive recovery, Castro
//!   & Liskov). A reboot cleanses a compromised process image, but an
//!   attacker who knows the key simply re-lands the exploit, so a known key
//!   means a permanently re-compromisable node.
//! * **PO (proactive obfuscation)** — at the end of every period `P` (the
//!   paper uses `P = 1`), every node reboots into a **freshly randomized**
//!   executable: new key, compromise revoked, prior key knowledge useless.
//!
//! FORTRESS additionally prescribes the **key assignment** (§3): all PB
//! servers share one key (so primary→backup state updates need no
//! marshalling), while proxies get distinct keys (they never talk to each
//! other, so diversity is free).

use rand::Rng;

use crate::daemon::ForkingDaemon;
use crate::keys::{KeySpace, RandomizationKey};

/// When (if ever) nodes are re-randomized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObfuscationPolicy {
    /// Randomize at start-up only; recover (same key) every step.
    StartupOnly,
    /// Re-randomize every `period` unit time-steps with fresh keys.
    Proactive {
        /// Re-randomization period in unit time-steps (the paper uses 1).
        period: u64,
    },
}

impl ObfuscationPolicy {
    /// The paper's PO configuration (`P = 1`).
    pub fn proactive_unit() -> ObfuscationPolicy {
        ObfuscationPolicy::Proactive { period: 1 }
    }

    /// Whether a re-randomization falls at the end of `step` (0-indexed).
    fn rerandomizes_at(&self, step: u64) -> bool {
        match self {
            ObfuscationPolicy::StartupOnly => false,
            ObfuscationPolicy::Proactive { period } => (step + 1).is_multiple_of(*period),
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
/// use fortress_obf::schedule::{KeyAssignment, ObfuscationPolicy, Rerandomizer};
/// use fortress_obf::scheme::Scheme;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut rr = Rerandomizer::new(
///     KeySpace::from_entropy_bits(16),
///     ObfuscationPolicy::proactive_unit(),
///     KeyAssignment::SharedAcrossGroup,
/// );
/// let keys = rr.initial_keys(3, &mut rng);
/// let mut nodes: Vec<ForkingDaemon> = keys.iter().enumerate()
///     .map(|(i, k)| ForkingDaemon::boot(&format!("s{i}"), Scheme::Aslr, *k))
///     .collect();
/// let old_key = nodes[0].key();
/// assert!(rr.end_of_step(0, nodes.iter_mut(), &mut rng));
/// assert_ne!(nodes[0].key(), old_key, "fresh key every step under PO");
/// ```
#[derive(Clone, Debug)]
pub struct Rerandomizer {
    space: KeySpace,
    policy: ObfuscationPolicy,
    assignment: KeyAssignment,
    rerandomizations: u64,
    /// Reused across steps so PO maintenance allocates nothing.
    key_buf: Vec<RandomizationKey>,
}

impl Rerandomizer {
    /// Creates a re-randomizer for one group.
    pub fn new(
        space: KeySpace,
        policy: ObfuscationPolicy,
        assignment: KeyAssignment,
    ) -> Rerandomizer {
        Rerandomizer {
            space,
            policy,
            assignment,
            rerandomizations: 0,
            key_buf: Vec::new(),
        }
    }

    /// The key space in use.
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// The policy in force.
    pub fn policy(&self) -> ObfuscationPolicy {
        self.policy
    }

    /// Draws the group's start-up keys.
    pub fn initial_keys<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<RandomizationKey> {
        self.assignment.draw_keys(self.space, n, rng)
    }

    /// Applies end-of-step maintenance to the group. Returns `true` if the
    /// group was re-randomized (fresh keys), `false` if it was merely
    /// recovered (same keys; compromised images rebooted but keys known to
    /// the attacker stay valid). The daemons are maintained in place, so a
    /// drive loop passes them where they live (embedded in larger node
    /// structs) with no clone-out, copy-back or allocation.
    pub fn end_of_step<'a, R: Rng + ?Sized>(
        &mut self,
        step: u64,
        nodes: impl ExactSizeIterator<Item = &'a mut ForkingDaemon>,
        rng: &mut R,
    ) -> bool {
        if !self.policy.rerandomizes_at(step) {
            nodes.for_each(recover);
            return false;
        }
        self.assignment
            .draw_keys_into(self.space, nodes.len(), rng, &mut self.key_buf);
        self.rerandomizations += 1;
        for (node, key) in nodes.zip(&self.key_buf) {
            node.rerandomize(*key);
        }
        true
    }

    /// Number of re-randomizations applied so far.
    pub fn rerandomizations(&self) -> u64 {
        self.rerandomizations
    }
}

/// Per-node proactive recovery — the `false` branch of
/// [`Rerandomizer::end_of_step`]: reboot with the same executable. A
/// compromised node is NOT cleansed in the model's terms — the reboot
/// would clear the process image, but the attacker still knows the
/// unchanged key and re-lands the exploit immediately (paper §4.2:
/// control persists "until re-randomization is applied", and recovery
/// is not re-randomization). We collapse that re-exploitation dance
/// by leaving control in place.
fn recover(node: &mut ForkingDaemon) {
    if node.is_compromised() {
        return;
    }
    let key = node.key();
    node.rerandomize(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(n: usize, keys: &[RandomizationKey]) -> Vec<ForkingDaemon> {
        (0..n)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), Scheme::Aslr, keys[i]))
            .collect()
    }

    #[test]
    fn policy_boundaries() {
        let po1 = ObfuscationPolicy::proactive_unit();
        assert!(po1.rerandomizes_at(0));
        assert!(po1.rerandomizes_at(1));
        let po4 = ObfuscationPolicy::Proactive { period: 4 };
        assert!(!po4.rerandomizes_at(0));
        assert!(!po4.rerandomizes_at(2));
        assert!(po4.rerandomizes_at(3));
        assert!(po4.rerandomizes_at(7));
        assert!(!ObfuscationPolicy::StartupOnly.rerandomizes_at(100));
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
            ObfuscationPolicy::StartupOnly,
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes = fleet(3, &keys);
        // Attacker compromises node 0 with the right key.
        let key = nodes[0].key();
        nodes[0].deliver_exploit(Scheme::Aslr.craft_exploit(key));
        assert!(nodes[0].is_compromised());

        let rerand = rr.end_of_step(0, nodes.iter_mut(), &mut rng);
        assert!(!rerand);
        assert_eq!(nodes[0].key(), key, "recovery must not change the key");
        // The attacker knows the key, so recovery cannot evict them: the
        // re-exploitation is collapsed into persistent control.
        assert!(nodes[0].is_compromised());
        // Uncompromised siblings are recovered normally.
        assert!(nodes[1].is_serving());
    }

    #[test]
    fn po_rerandomization_revokes_key_knowledge() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut rr = Rerandomizer::new(
            KeySpace::from_entropy_bits(16),
            ObfuscationPolicy::proactive_unit(),
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes = fleet(3, &keys);
        let old_key = nodes[1].key();
        nodes[1].deliver_exploit(Scheme::Aslr.craft_exploit(old_key));
        assert!(nodes[1].is_compromised());

        assert!(rr.end_of_step(0, nodes.iter_mut(), &mut rng));
        assert!(!nodes[1].is_compromised());
        assert_ne!(nodes[1].key(), old_key);
        // Stale key knowledge now just crashes the child.
        let outcome = nodes[1].deliver_exploit(Scheme::Aslr.craft_exploit(old_key));
        assert_eq!(outcome, crate::process::ProbeOutcome::Crashed);
        assert_eq!(rr.rerandomizations(), 1);
    }

    #[test]
    fn po_period_four_rerandomizes_every_fourth_step() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rr = Rerandomizer::new(
            KeySpace::from_entropy_bits(16),
            ObfuscationPolicy::Proactive { period: 4 },
            KeyAssignment::DistinctPerNode,
        );
        let keys = rr.initial_keys(2, &mut rng);
        let mut nodes = fleet(2, &keys);
        let mut rerands = 0;
        for step in 0..8 {
            if rr.end_of_step(step, nodes.iter_mut(), &mut rng) {
                rerands += 1;
            }
        }
        assert_eq!(rerands, 2);
        assert_eq!(rr.rerandomizations(), 2);
    }

    #[test]
    fn shared_group_rerandomizes_to_a_common_key() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut rr = Rerandomizer::new(
            KeySpace::from_entropy_bits(16),
            ObfuscationPolicy::proactive_unit(),
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes = fleet(3, &keys);
        rr.end_of_step(0, nodes.iter_mut(), &mut rng);
        assert_eq!(nodes[0].key(), nodes[1].key());
        assert_eq!(nodes[1].key(), nodes[2].key());
    }
}
