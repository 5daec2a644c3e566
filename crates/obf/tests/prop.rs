//! Property-based invariants of the randomization substrate.

use fortress_obf::daemon::{ForkingDaemon, ProbeOutcome};
use fortress_obf::keys::{KeySpace, RandomizationKey};
use fortress_obf::schedule::{KeyAssignment, Policy, Rerandomizer};
use fortress_obf::layout::critical_address;
use fortress_obf::scheme::ExploitPayload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The probe dichotomy: a guess compromises iff it equals the key;
    /// otherwise it crashes the child. No third outcome exists for a
    /// serving node.
    #[test]
    fn probe_dichotomy(key in 0u64..1024, guess in 0u64..1024) {
        let mut node = ForkingDaemon::boot("p", RandomizationKey(key));
        let outcome = node.deliver_exploit(ExploitPayload::aimed_at(RandomizationKey(guess)));
        if key == guess {
            prop_assert_eq!(outcome, ProbeOutcome::Compromised);
        } else {
            prop_assert_eq!(outcome, ProbeOutcome::Crashed);
        }
    }

    /// A forking daemon under arbitrary probe sequences: crash count equals
    /// wrong guesses delivered while serving, compromise happens exactly on
    /// the first correct guess, and a held node stays held.
    #[test]
    fn daemon_bookkeeping(key in 0u64..256,
                          guesses in proptest::collection::vec(0u64..256, 0..64)) {
        let mut node = ForkingDaemon::boot("n", RandomizationKey(key));
        let mut wrong = 0u64;
        let mut compromised = false;
        for g in &guesses {
            let out = node.deliver_exploit(ExploitPayload::aimed_at(RandomizationKey(*g)));
            if compromised {
                prop_assert_eq!(out, ProbeOutcome::Compromised);
            } else if *g == key {
                prop_assert_eq!(out, ProbeOutcome::Compromised);
                compromised = true;
            } else {
                prop_assert_eq!(out, ProbeOutcome::Crashed);
                wrong += 1;
            }
        }
        prop_assert_eq!(node.restarts(), wrong);
        prop_assert_eq!(node.is_compromised(), compromised);
    }

    /// PO re-randomization always revokes compromise and (in spaces of more
    /// than one key) eventually rotates the key.
    #[test]
    fn po_rerandomization_revokes(seed in any::<u64>(), bits in 2u32..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::from_entropy_bits(bits);
        let mut rr = Rerandomizer::new(
            space,
            Policy::Proactive,
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes: Vec<ForkingDaemon> = (0..3)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), keys[i]))
            .collect();
        // Compromise all three via the shared key.
        let k = nodes[0].key();
        for n in &mut nodes {
            n.deliver_exploit(ExploitPayload::aimed_at(k));
        }
        prop_assert!(nodes.iter().all(ForkingDaemon::is_compromised));
        rr.end_of_step(nodes.iter_mut(), &mut rng);
        prop_assert!(nodes.iter().all(|n| !n.is_compromised()));
        // Keys remain shared across the group.
        prop_assert!(nodes.iter().all(|n| n.key() == nodes[0].key()));
    }

    /// SO recovery never changes keys, for any number of steps.
    #[test]
    fn so_recovery_key_stability(seed in any::<u64>(), steps in 1u64..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::from_entropy_bits(10);
        let mut rr = Rerandomizer::new(
            space,
            Policy::StartupOnly,
            KeyAssignment::DistinctPerNode,
        );
        let keys = rr.initial_keys(4, &mut rng);
        let mut nodes: Vec<ForkingDaemon> = (0..4)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), keys[i]))
            .collect();
        for _ in 0..steps {
            rr.end_of_step(nodes.iter_mut(), &mut rng);
        }
        for (node, key) in nodes.iter().zip(&keys) {
            prop_assert_eq!(node.key(), *key);
        }
    }

    /// A node is serving or held, and a crash is an event, not a state.
    /// Under any interleaving of wrong and right exploits, SO and PO
    /// end-of-step maintenance and direct re-randomization, a node's
    /// restarts equal the wrong guesses made at it while it was serving,
    /// it is held exactly from a right guess to its next re-randomization,
    /// and an SO end-of-step leaves every node's key, compromise and
    /// restarts as they were.
    #[test]
    fn a_node_is_serving_or_held(seed in any::<u64>(),
                                 ops in proptest::collection::vec((0u8..5, 0usize..3, 0u64..8), 0..64)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::from_entropy_bits(3);
        let mut so = Rerandomizer::new(space, Policy::StartupOnly, KeyAssignment::SharedAcrossGroup);
        let mut po = Rerandomizer::new(space, Policy::Proactive, KeyAssignment::DistinctPerNode);
        let keys = so.initial_keys(3, &mut rng);
        let mut nodes: Vec<ForkingDaemon> = (0..3)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), keys[i]))
            .collect();
        let (mut restarts, mut held) = ([0u64; 3], [false; 3]);
        let observe = |nodes: &[ForkingDaemon]| -> Vec<(RandomizationKey, bool, u64)> {
            nodes.iter().map(|n| (n.key(), n.is_compromised(), n.restarts())).collect()
        };
        for (op, i, k) in ops {
            let key = nodes[i].key();
            match op {
                0 => {
                    let wrong = RandomizationKey((key.0 + 1 + k % 7) % 8);
                    let out = nodes[i].deliver_exploit(ExploitPayload::aimed_at(wrong));
                    if held[i] {
                        prop_assert_eq!(out, ProbeOutcome::Compromised);
                    } else {
                        prop_assert_eq!(out, ProbeOutcome::Crashed);
                        restarts[i] += 1;
                    }
                }
                1 => {
                    let out = nodes[i].deliver_exploit(ExploitPayload::aimed_at(key));
                    prop_assert_eq!(out, ProbeOutcome::Compromised);
                    held[i] = true;
                }
                2 => {
                    let before = observe(&nodes);
                    so.end_of_step(nodes.iter_mut(), &mut rng);
                    prop_assert_eq!(observe(&nodes), before);
                }
                3 => {
                    po.end_of_step(nodes.iter_mut(), &mut rng);
                    held = [false; 3];
                }
                _ => {
                    nodes[i].rerandomize(RandomizationKey(k));
                    held[i] = false;
                }
            }
            for (n, node) in nodes.iter().enumerate() {
                prop_assert_eq!(node.restarts(), restarts[n]);
                prop_assert_eq!(node.is_compromised(), held[n]);
            }
        }
    }

    /// Layouts are injective over keys of the widest space (no two keys
    /// share a critical address), so a probe value tests exactly one key.
    #[test]
    fn layouts_injective(a in 0u64..1 << 32, b in 0u64..1 << 32) {
        prop_assume!(a != b);
        prop_assert_ne!(critical_address(RandomizationKey(a)),
                        critical_address(RandomizationKey(b)));
    }
}
