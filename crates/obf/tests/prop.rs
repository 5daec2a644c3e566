//! Property-based invariants of the randomization substrate.

use fortress_obf::daemon::ForkingDaemon;
use fortress_obf::keys::{KeySpace, RandomizationKey};
use fortress_obf::process::{ProbeOutcome, SimProcess};
use fortress_obf::schedule::{KeyAssignment, ObfuscationPolicy, Rerandomizer};
use fortress_obf::scheme::Scheme;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![Just(Scheme::Aslr), Just(Scheme::Isr)]
}

proptest! {
    /// The probe dichotomy: a guess compromises iff it equals the key;
    /// otherwise it crashes the process. No third outcome exists for a
    /// running process.
    #[test]
    fn probe_dichotomy(key in 0u64..1024, guess in 0u64..1024, scheme in scheme_strategy()) {
        let mut p = SimProcess::new("p", scheme, RandomizationKey(key));
        let outcome = p.deliver_exploit(scheme.craft_exploit(RandomizationKey(guess)));
        if key == guess {
            prop_assert_eq!(outcome, ProbeOutcome::Compromised);
        } else {
            prop_assert_eq!(outcome, ProbeOutcome::Crashed);
        }
    }

    /// A forking daemon under arbitrary probe sequences: crash count equals
    /// wrong guesses delivered while serving, and compromise happens exactly
    /// on the first correct guess.
    #[test]
    fn daemon_bookkeeping(key in 0u64..256,
                          guesses in proptest::collection::vec(0u64..256, 0..64),
                          scheme in scheme_strategy()) {
        let mut node = ForkingDaemon::boot("n", scheme, RandomizationKey(key));
        let mut wrong = 0u64;
        let mut compromised = false;
        for g in &guesses {
            let out = node.deliver_exploit(scheme.craft_exploit(RandomizationKey(*g)));
            if compromised {
                prop_assert_eq!(out, ProbeOutcome::Unserved);
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
            ObfuscationPolicy::proactive_unit(),
            KeyAssignment::SharedAcrossGroup,
        );
        let keys = rr.initial_keys(3, &mut rng);
        let mut nodes: Vec<ForkingDaemon> = (0..3)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), Scheme::Aslr, keys[i]))
            .collect();
        // Compromise all three via the shared key.
        let k = nodes[0].key();
        for n in &mut nodes {
            n.deliver_exploit(Scheme::Aslr.craft_exploit(k));
        }
        prop_assert!(nodes.iter().all(ForkingDaemon::is_compromised));
        rr.end_of_step(0, nodes.iter_mut(), &mut rng);
        prop_assert!(nodes.iter().all(|n| !n.is_compromised()));
        // Keys remain shared across the group.
        prop_assert!(nodes.iter().all(|n| n.key() == nodes[0].key()));
    }

    /// SO recovery never changes keys, for any step pattern.
    #[test]
    fn so_recovery_key_stability(seed in any::<u64>(), steps in 1u64..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::from_entropy_bits(10);
        let mut rr = Rerandomizer::new(
            space,
            ObfuscationPolicy::StartupOnly,
            KeyAssignment::DistinctPerNode,
        );
        let keys = rr.initial_keys(4, &mut rng);
        let mut nodes: Vec<ForkingDaemon> = (0..4)
            .map(|i| ForkingDaemon::boot(&format!("n{i}"), Scheme::Isr, keys[i]))
            .collect();
        for step in 0..steps {
            rr.end_of_step(step, nodes.iter_mut(), &mut rng);
        }
        for (node, key) in nodes.iter().zip(&keys) {
            prop_assert_eq!(node.key(), *key);
        }
        prop_assert_eq!(rr.rerandomizations(), 0);
    }

    /// Layouts are injective over keys within a space (no two keys share a
    /// critical address), so a probe value tests exactly one key.
    #[test]
    fn layouts_injective(a in 0u64..4096, b in 0u64..4096) {
        prop_assume!(a != b);
        use fortress_obf::layout::{AddressSpace, Region};
        let la = AddressSpace::randomize(RandomizationKey(a));
        let lb = AddressSpace::randomize(RandomizationKey(b));
        prop_assert_ne!(la.critical_address(Region::Stack),
                        lb.critical_address(Region::Stack));
    }
}
