//! The attacker posture as a sweep axis.
//!
//! The paper evaluates FORTRESS against one attacker posture: probe every
//! tier simultaneously, with the indirect stream paced just below the
//! proxies' suspicion threshold. Survivability analysis methodology
//! (Ellison et al.) argues a resilience claim only stands once it is swept
//! across *adversary strategies* as well as defense configurations — so
//! [`StrategyKind`] makes the posture a first-class, enumerable,
//! serializable coordinate. It is also the only constructor coordinate of
//! the one [`Adversary`](crate::attacker::Adversary) engine, whose module
//! docs tabulate what each posture does: adding a posture is one variant
//! here (with its `label`/`id`/`indirect_kappa` rows) plus one row of
//! that engine's schedule.

use fortress_core::probelog::SuspicionPolicy;

/// The adversary-strategy axis of a campaign grid: which attacker posture
/// a cell runs. `Copy + Eq` so grids can use it as a coordinate, and the
/// discriminant feeds the content-derived cell seeding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrategyKind {
    /// The paper's baseline three-pronged attacker, §4.2.
    PacedBelowThreshold,
    /// Stealth proxy capture, then full-rate launch-pad strike.
    ScanThenStrike,
    /// Threshold-width bursts separated by window-length silences.
    Burst,
    /// Full rate, halved (with a fresh identity) after every detection.
    AdaptiveBackoff,
    /// `identities` coordinated sources splitting one probe budget, each
    /// paced below the per-source threshold.
    SybilPaced {
        /// Number of coordinated identities (0 is treated as 1).
        identities: u8,
    },
    /// Availability-aware opportunist: probes the proxy tier at full
    /// rate like the baseline, but sends indirect server probes **only
    /// while a server machine is down** — outages are externally
    /// observable (health pages, error rates), and a window where the
    /// tier is distracted by failover is exactly when a probe is
    /// cheapest to sneak. Per-window volume stays at `threshold − 1`,
    /// so, like burst, it is never flagged.
    OutageStrike,
}

impl StrategyKind {
    /// Every strategy, in the canonical grid order. `OutageStrike` is
    /// deliberately not here: without an outage schedule on the cell it
    /// degenerates to proxy-only probing, so it belongs on
    /// availability sweeps (which list it explicitly), not the default
    /// grid.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::PacedBelowThreshold,
        StrategyKind::ScanThenStrike,
        StrategyKind::Burst,
        StrategyKind::AdaptiveBackoff,
        StrategyKind::SybilPaced { identities: 4 },
    ];

    /// Stable human-readable family label (used in reports and golden
    /// files). Parameterized kinds share one family label — use
    /// [`StrategyKind::display_label`] where cells differing in the
    /// parameter must stay distinguishable.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::PacedBelowThreshold => "paced",
            StrategyKind::ScanThenStrike => "scan_strike",
            StrategyKind::Burst => "burst",
            StrategyKind::AdaptiveBackoff => "adaptive",
            StrategyKind::SybilPaced { .. } => "sybil",
            StrategyKind::OutageStrike => "outage_strike",
        }
    }

    /// Full display label, parameters included: two distinct kinds never
    /// share a display label (`SybilPaced { identities: 4 }` renders as
    /// `"sybil x4"`). The scenario sweep labels cells with this, so
    /// sweeping the identity-count axis stays readable in reports and
    /// unambiguous in golden comparators.
    pub fn display_label(self) -> String {
        match self {
            StrategyKind::SybilPaced { identities } => format!("sybil x{identities}"),
            other => other.label().to_string(),
        }
    }

    /// Stable numeric id — part of the campaign seeding contract (cell
    /// seeds mix this value, never a grid position, so reordering a
    /// grid's strategy list cannot change any cell's trials). Must be
    /// pairwise distinct across every constructible kind (asserted by the
    /// tests below): parameterized kinds fold their parameters into the
    /// high bits so `SybilPaced { identities: 2 }` and `{ identities: 3 }`
    /// are different cells with different seeds.
    pub fn id(self) -> u64 {
        match self {
            StrategyKind::PacedBelowThreshold => 1,
            StrategyKind::ScanThenStrike => 2,
            StrategyKind::Burst => 3,
            StrategyKind::AdaptiveBackoff => 4,
            StrategyKind::SybilPaced { identities } => 5 | (u64::from(identities) << 8),
            StrategyKind::OutageStrike => 6,
        }
    }

    /// The per-identity indirect rate a [`StrategyKind::SybilPaced`]
    /// attacker with `identities` sources runs at: the probe budget ω
    /// split evenly, capped at the policy's per-source safe rate. One
    /// definition, shared by the strategy and its property tests.
    pub fn sybil_rate_per_identity(
        suspicion: SuspicionPolicy,
        omega: f64,
        identities: u8,
    ) -> f64 {
        let k = f64::from(identities.max(1));
        suspicion.max_safe_rate().min(omega.max(0.0) / k)
    }

    /// The indirect-attack coefficient κ this strategy's long-run
    /// schedule realizes against `suspicion` at unconstrained rate
    /// `omega` — `None` for strategies whose indirect stream is not a
    /// steady rate (scan-then-strike sends nothing indirect; adaptive
    /// backoff only converges toward the safe rate). This is what the
    /// scenario layer's cross-check reads the abstract S2 model at.
    pub fn indirect_kappa(self, suspicion: SuspicionPolicy, omega: f64) -> Option<f64> {
        match self {
            // Pacing and bursting realize the same long-run rate: the
            // largest per-source rate that never fills a window.
            StrategyKind::PacedBelowThreshold | StrategyKind::Burst => {
                Some(suspicion.induced_kappa(omega))
            }
            StrategyKind::SybilPaced { identities } => {
                if omega <= 0.0 {
                    return Some(1.0);
                }
                let k = f64::from(identities.max(1));
                let per_identity =
                    StrategyKind::sybil_rate_per_identity(suspicion, omega, identities);
                Some(((per_identity * k) / omega).min(1.0))
            }
            // No steady indirect rate: scan-then-strike sends nothing
            // indirect, adaptive backoff only converges toward the safe
            // rate, and the outage striker's schedule is gated on the
            // defender's outage windows.
            StrategyKind::ScanThenStrike
            | StrategyKind::AdaptiveBackoff
            | StrategyKind::OutageStrike => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::Adversary;
    use fortress_core::system::{CompromiseState, Stack, StackConfig, SystemClass};
    use fortress_obf::schedule::Policy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s2_stack(bits: u32, suspicion: SuspicionPolicy, np: usize, seed: u64) -> Stack {
        Stack::new(StackConfig {
            class: SystemClass::S2Fortress,
            entropy_bits: bits,
            policy: Policy::StartupOnly,
            suspicion,
            np,
            seed,
        })
        .unwrap()
    }

    fn build(
        kind: StrategyKind,
        stack: &mut Stack,
        omega: f64,
        suspicion: SuspicionPolicy,
        rng: &mut StdRng,
    ) -> Adversary {
        Adversary::new(stack, "mallory", omega, suspicion, Some(kind), rng)
    }

    fn drive(stack: &mut Stack, strategy: &mut Adversary, cap: u64) -> Option<u64> {
        for step in 1..=cap {
            strategy.step(stack);
            if stack.end_step() != CompromiseState::Intact {
                return Some(step);
            }
        }
        None
    }

    #[test]
    fn every_strategy_eventually_breaks_a_tiny_so_fortress() {
        for kind in StrategyKind::ALL {
            let suspicion = SuspicionPolicy {
                window: 8,
                threshold: 3,
            };
            let mut stack = s2_stack(5, suspicion, 3, 0xA0 + kind.id());
            let mut rng = StdRng::seed_from_u64(kind.id());
            let mut strategy =
                build(kind, &mut stack, 8.0, suspicion, &mut rng);
            let fell = drive(&mut stack, &mut strategy, 400);
            assert!(
                fell.is_some(),
                "{} never broke a 32-key SO FORTRESS in 400 steps",
                kind.label()
            );
            let report = strategy.report();
            assert!(
                report.proxy_probes + report.server_probes + report.pad_probes > 0,
                "{} launched nothing",
                kind.label()
            );
        }
    }

    #[test]
    fn paced_burst_and_sybil_are_never_flagged() {
        for kind in [
            StrategyKind::PacedBelowThreshold,
            StrategyKind::Burst,
            StrategyKind::SybilPaced { identities: 3 },
        ] {
            let suspicion = SuspicionPolicy {
                window: 16,
                threshold: 4,
            };
            let mut stack = s2_stack(8, suspicion, 3, 0xB0 + kind.id());
            let mut rng = StdRng::seed_from_u64(100 + kind.id());
            let mut strategy =
                build(kind, &mut stack, 6.0, suspicion, &mut rng);
            for _ in 0..120 {
                strategy.step(&mut stack);
                if stack.end_step() != CompromiseState::Intact {
                    break;
                }
            }
            assert!(
                stack.suspects().is_empty(),
                "{} was flagged: {:?}",
                kind.label(),
                stack.suspects()
            );
        }
    }

    #[test]
    fn scan_then_strike_sends_nothing_through_proxies() {
        let suspicion = SuspicionPolicy {
            window: 4,
            threshold: 2, // hair-trigger policy: any indirect probing flags
        };
        let mut stack = s2_stack(6, suspicion, 3, 0xC1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut strategy = build(StrategyKind::ScanThenStrike, &mut stack, 8.0, suspicion, &mut rng);
        let fell = drive(&mut stack, &mut strategy, 400);
        assert!(fell.is_some(), "strike phase must land");
        assert!(
            stack.suspects().is_empty(),
            "radio-silent scanner got flagged"
        );
        let report = strategy.report();
        assert_eq!(report.server_probes, 0, "no probe may cross the proxies");
        assert!(report.pad_probes > 0, "the strike goes through the pad");
    }

    #[test]
    fn adaptive_backoff_rotates_identities_under_hair_trigger_policy() {
        let suspicion = SuspicionPolicy {
            window: 64,
            threshold: 2,
        };
        let mut stack = s2_stack(10, suspicion, 3, 0xD1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut strategy = build(StrategyKind::AdaptiveBackoff, &mut stack, 8.0, suspicion, &mut rng);
        for _ in 0..40 {
            strategy.step(&mut stack);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        assert!(
            stack.suspects().len() > 1,
            "full-rate start against threshold 2 must burn identities, got {:?}",
            stack.suspects()
        );
    }

    #[test]
    fn outage_strike_gates_indirect_probes_on_outage_windows() {
        let suspicion = SuspicionPolicy {
            window: 8,
            threshold: 4,
        };
        let mut stack = s2_stack(12, suspicion, 3, 0xF2);
        let mut rng = StdRng::seed_from_u64(21);
        let mut strategy = build(StrategyKind::OutageStrike, &mut stack, 8.0, suspicion, &mut rng);
        // Healthy tier: the indirect stream stays silent.
        for _ in 0..20 {
            strategy.step(&mut stack);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        assert_eq!(
            strategy.report().server_probes,
            0,
            "no indirect probe may fire while every server is up"
        );
        // A server machine goes down: the striker spends threshold − 1
        // probes per window, and is never flagged doing it.
        stack.take_down_server(0);
        for _ in 0..24 {
            strategy.step(&mut stack);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        let fired = strategy.report().server_probes;
        assert!(fired > 0, "outage windows must be exploited");
        assert!(
            fired <= 24 / 8 * 3 + 3,
            "at most threshold − 1 per window: {fired}"
        );
        assert!(
            stack.suspects().is_empty(),
            "outage striker was flagged: {:?}",
            stack.suspects()
        );
    }

    /// Content-derived cell seeds silently collide if two distinct
    /// strategies share an id, so ids must be pairwise distinct across
    /// every constructible kind — including the parameterized Sybil
    /// family, whose identity count is part of the cell coordinate.
    #[test]
    fn strategy_ids_and_labels_are_distinct() {
        let mut ids = std::collections::HashSet::new();
        let mut labels = std::collections::HashSet::new();
        let every = StrategyKind::ALL
            .into_iter()
            .chain([StrategyKind::OutageStrike]);
        for kind in every.clone() {
            assert!(ids.insert(kind.id()), "id collision at {kind:?}");
            assert!(labels.insert(kind.label()));
        }
        let mut display_labels: std::collections::HashSet<String> =
            every.map(|k| k.display_label()).collect();
        assert_eq!(display_labels.len(), StrategyKind::ALL.len() + 1);
        for identities in 0..=u8::MAX {
            let kind = StrategyKind::SybilPaced { identities };
            if kind == (StrategyKind::SybilPaced { identities: 4 }) {
                continue; // already inserted via ALL
            }
            assert!(ids.insert(kind.id()), "id collision at {kind:?}");
            assert!(
                display_labels.insert(kind.display_label()),
                "display label collision at {kind:?}"
            );
        }
    }

    #[test]
    fn sybil_split_respects_both_caps() {
        let policy = SuspicionPolicy { window: 10, threshold: 6 }; // safe 0.5
        // Budget-bound: omega/k below the safe rate.
        let r = StrategyKind::sybil_rate_per_identity(policy, 1.0, 4);
        assert!((r - 0.25).abs() < 1e-12);
        // Threshold-bound: omega/k above the safe rate.
        let r = StrategyKind::sybil_rate_per_identity(policy, 8.0, 4);
        assert!((r - 0.5).abs() < 1e-12);
        // identities = 0 treated as 1.
        let r = StrategyKind::sybil_rate_per_identity(policy, 0.3, 0);
        assert!((r - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sybil_kappa_scales_with_identity_count_until_budget_bound() {
        let policy = SuspicionPolicy { window: 64, threshold: 9 }; // safe 0.125
        let omega = 8.0;
        let k1 = StrategyKind::SybilPaced { identities: 1 }
            .indirect_kappa(policy, omega)
            .unwrap();
        let k4 = StrategyKind::SybilPaced { identities: 4 }
            .indirect_kappa(policy, omega)
            .unwrap();
        assert!((k1 - policy.induced_kappa(omega)).abs() < 1e-12);
        assert!((k4 - 4.0 * k1).abs() < 1e-12, "below budget, κ scales with k");
        // Enough identities to spend the whole budget: κ caps at 1.
        let k_many = StrategyKind::SybilPaced { identities: 255 }
            .indirect_kappa(policy, omega)
            .unwrap();
        assert!((k_many - 1.0).abs() < 1e-12);
        // Non-rate strategies have no κ to cross-check.
        assert!(StrategyKind::ScanThenStrike.indirect_kappa(policy, omega).is_none());
        assert!(StrategyKind::AdaptiveBackoff.indirect_kappa(policy, omega).is_none());
    }

    #[test]
    fn sybil_sustains_a_multiple_of_the_single_source_indirect_budget() {
        // The Sybil gap quantified: against the same tight policy, 6
        // coordinated identities push ~6× the indirect probes of one
        // paced source through the proxies — all of it unflagged.
        let suspicion = SuspicionPolicy { window: 32, threshold: 2 }; // safe 1/32
        let mut probes = [0u64; 2];
        for (slot, kind) in [
            StrategyKind::SybilPaced { identities: 6 },
            StrategyKind::PacedBelowThreshold,
        ]
        .into_iter()
        .enumerate()
        {
            let mut stack = s2_stack(12, suspicion, 3, 0xE1);
            let mut rng = StdRng::seed_from_u64(0x51B);
            let mut strategy =
                build(kind, &mut stack, 8.0, suspicion, &mut rng);
            for _ in 0..160 {
                strategy.step(&mut stack);
                if stack.end_step() != CompromiseState::Intact {
                    break;
                }
            }
            assert!(stack.suspects().is_empty(), "{} was flagged", kind.label());
            probes[slot] = strategy.report().server_probes;
        }
        let [sybil, paced] = probes;
        assert!(
            sybil >= 4 * paced.max(1),
            "6 identities must multiply the indirect budget: sybil {sybil} vs paced {paced}"
        );
    }
}
