//! The period-`P` absorbing chain, solved on its own structure.
//!
//! The paper evaluates proactive obfuscation with re-randomization period
//! `P = 1` unit time-step. This chain generalizes to any finite `P`: within
//! a period, compromised nodes stay compromised and (for S2) serve as launch
//! pads; at each period boundary every node is re-randomized, which resets
//! the attacker's footholds. `P = 1` reproduces the paper's PO systems
//! exactly; growing `P` interpolates toward SO behavior (the
//! `ablation-period` table of the `figures` binary).
//!
//! Per-phase hazards are expressed directly through `α` (Definition 6 of the
//! paper), under the paper's own assumption "that χ is large compared to ω",
//! which makes within-period key-space depletion negligible.
//!
//! A state is `(phase, footholds held)`:
//!
//! * **S1** — nothing is held: the shared server key either falls (absorb)
//!   or not.
//! * **S0** — `keys_found ∈ {0,1}`: absorb when the second of the four
//!   distinct replica keys is uncovered within one period.
//! * **S2** — `proxies_down ∈ {0,1,2}`: absorb when the shared server key
//!   falls or all three proxies are compromised at once.
//!
//! Every period starts in `(0, 0)`, so the chain is a renewal process over
//! periods. Walking the foothold mass through one period's `P` phases gives
//! the expected phases visited `V` and the probability `A` of absorbing
//! within the period, and `EL = V + (1 − A)·EL`, i.e. `EL = V / A`. `A` is
//! summed from the absorbing transitions, never taken as one minus the
//! survival, so it keeps its digits at the paper's small `α`.

use crate::error::ModelError;
use crate::survival::{binomial_pmf, either};

/// Which system class a chain models (paper §4, Definitions 1–3).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SystemKind {
    /// S0: 1-tier, 4-replica state machine replication, distinct keys.
    S0Smr,
    /// S1: 1-tier, 3-replica primary-backup, one shared key.
    S1Pb,
    /// S2: FORTRESS — 3 proxies (distinct keys) fronting 3 PB servers (one
    /// shared key); `kappa` is the indirect attack coefficient (Def. 5).
    S2Fortress {
        /// Indirect attack coefficient `κ ∈ [0, 1]`.
        kappa: f64,
    },
}

impl SystemKind {
    /// Short label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::S0Smr => "S0",
            SystemKind::S1Pb => "S1",
            SystemKind::S2Fortress { .. } => "S2",
        }
    }
}

/// Whether a compromised proxy can be used to attack servers directly.
///
/// The paper's attacker "compromises a proxy and uses it as a launch pad
/// from which to compromise a server" (§4). A pad becomes usable in the
/// phase *after* the proxy fell (control persists "until re-randomization").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LaunchPad {
    /// Paper semantics: pads usable from the next phase of the same period.
    #[default]
    NextStep,
    /// Ablation: proxies can never be used as launch pads.
    Disabled,
}

/// Held counts a phase can start from: 0, 1 or 2 (S2's proxies down).
const HELD: usize = 3;

/// Parameters for a generalized-period chain.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PeriodChainSpec {
    /// System class.
    pub kind: SystemKind,
    /// Per-phase direct-attack success probability on one key (Def. 6).
    pub alpha: f64,
    /// Re-randomization period in unit time-steps; the paper uses 1.
    pub period: usize,
    /// Launch-pad semantics for S2.
    pub launch_pad: LaunchPad,
}

impl PeriodChainSpec {
    /// Spec with the paper's defaults (`period = 1`, launch pads on).
    pub fn paper(kind: SystemKind, alpha: f64) -> PeriodChainSpec {
        PeriodChainSpec {
            kind,
            alpha,
            period: 1,
            launch_pad: LaunchPad::NextStep,
        }
    }

    /// Expected lifetime, in phases, from the all-correct start of a period.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] for `alpha`/`kappa` outside
    /// `(0,1)`/`[0,1]`, or a zero period.
    pub fn expected_lifetime(&self) -> Result<f64, ModelError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ModelError::invalid("alpha", self.alpha, "(0, 1)"));
        }
        if self.period == 0 {
            return Err(ModelError::invalid("period", 0.0, "[1, inf)"));
        }
        if let SystemKind::S2Fortress { kappa } = self.kind {
            if !(0.0..=1.0).contains(&kappa) || !kappa.is_finite() {
                return Err(ModelError::invalid("kappa", kappa, "[0, 1]"));
            }
        }
        let mut mass: [f64; HELD] = [1.0, 0.0, 0.0];
        let (mut visited, mut absorbed) = (0.0, 0.0);
        for _ in 0..self.period {
            let mut next = [0.0; HELD];
            for (held, &m) in mass.iter().enumerate() {
                visited += m;
                let (absorb, stay) = self.phase(held);
                absorbed += m * absorb;
                for (n, s) in next.iter_mut().zip(stay) {
                    *n += m * s;
                }
            }
            mass = next;
        }
        Ok(visited / absorbed)
    }

    /// One phase's kernel from `held` footholds: the probability of
    /// absorbing, and of surviving with each count held at its end.
    fn phase(&self, held: usize) -> (f64, [f64; HELD]) {
        let alpha = self.alpha;
        let mut absorb = 0.0;
        let mut stay = [0.0; HELD];
        match self.kind {
            SystemKind::S1Pb => {
                absorb = alpha;
                stay[0] = 1.0 - alpha;
            }
            SystemKind::S0Smr => {
                // g = newly found keys this phase.
                let remaining = 4 - held;
                for g in 0..=remaining {
                    let pg = binomial_pmf(remaining, g, alpha);
                    if held + g >= 2 {
                        absorb += pg;
                    } else {
                        stay[held + g] += pg;
                    }
                }
            }
            SystemKind::S2Fortress { kappa } => {
                // Server hazard this phase: indirect probes always; direct
                // probes too when a pad is active.
                let pad_active = held >= 1 && self.launch_pad == LaunchPad::NextStep;
                let s = if pad_active {
                    either(kappa * alpha, alpha)
                } else {
                    kappa * alpha
                };
                let remaining = 3 - held;
                for g in 0..=remaining {
                    let pg = binomial_pmf(remaining, g, alpha);
                    // Server falling absorbs regardless of proxies.
                    absorb += pg * s;
                    let survive_server = pg * (1.0 - s);
                    if held + g >= 3 {
                        absorb += survive_server;
                    } else {
                        stay[held + g] += survive_server;
                    }
                }
            }
        }
        (absorb, stay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALPHA: f64 = 1e-3;

    fn el(kind: SystemKind, alpha: f64, period: usize) -> f64 {
        PeriodChainSpec {
            kind,
            alpha,
            period,
            launch_pad: LaunchPad::NextStep,
        }
        .expected_lifetime()
        .unwrap()
    }

    #[test]
    fn s1_period_one_is_geometric() {
        let got = el(SystemKind::S1Pb, ALPHA, 1);
        assert!((got - 1.0 / ALPHA).abs() / (1.0 / ALPHA) < 1e-9, "{got}");
    }

    #[test]
    fn s1_el_is_period_invariant() {
        let base = el(SystemKind::S1Pb, ALPHA, 1);
        for p in [2usize, 3, 8] {
            let got = el(SystemKind::S1Pb, ALPHA, p);
            assert!((got - base).abs() / base < 1e-9, "P={p}: {got} vs {base}");
        }
    }

    /// At the paper's period the chain is the PO closed form: `EL` is
    /// `1 / po_step` for every class, α from 1e-2 down to 1e-6 and the κ
    /// grid, to 1e-12.
    #[test]
    fn period_one_is_one_over_po_step() {
        use crate::params::{paper_kappa_grid, AttackParams, ProbeModel};
        let kinds = [SystemKind::S0Smr, SystemKind::S1Pb].into_iter().chain(
            paper_kappa_grid()
                .into_iter()
                .map(|kappa| SystemKind::S2Fortress { kappa }),
        );
        for kind in kinds {
            for alpha in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6] {
                let params = AttackParams::from_alpha(65536.0, alpha).unwrap();
                let want = 1.0 / crate::survival::po_step(kind, ProbeModel::Broadcast, &params);
                let got = PeriodChainSpec::paper(kind, alpha)
                    .expected_lifetime()
                    .unwrap();
                assert!(
                    (got - want).abs() / want < 1e-12,
                    "{kind:?} α = {alpha}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn s0_period_one_matches_binomial_closed_form() {
        // p = P(Bin(4, alpha) >= 2)
        let a = ALPHA;
        let p_step = 1.0 - binomial_pmf(4, 0, a) - binomial_pmf(4, 1, a);
        let want = 1.0 / p_step;
        let got = el(SystemKind::S0Smr, a, 1);
        assert!((got - want).abs() / want < 1e-9, "{got} vs {want}");
        // And approximately 1/(6 alpha^2).
        let approx = 1.0 / (6.0 * a * a);
        assert!((got - approx).abs() / approx < 0.01);
    }

    #[test]
    fn s2_period_one_matches_closed_form() {
        let a = ALPHA;
        let kappa = 0.5;
        let p_step = 1.0 - (1.0 - kappa * a) * (1.0 - a * a * a);
        let want = 1.0 / p_step;
        let got = el(SystemKind::S2Fortress { kappa }, a, 1);
        assert!((got - want).abs() / want < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn s2_kappa_zero_only_proxy_path() {
        let a = 1e-2; // keep EL finite-ish
        let got = el(SystemKind::S2Fortress { kappa: 0.0 }, a, 1);
        let want = 1.0 / (a * a * a);
        assert!((got - want).abs() / want < 1e-9, "{got} vs {want}");
    }

    /// Every phase kernel is a distribution: from any held count, absorbing
    /// plus surviving with each count is 1.
    #[test]
    fn every_phase_kernel_conserves_mass() {
        for kind in [
            SystemKind::S0Smr,
            SystemKind::S1Pb,
            SystemKind::S2Fortress { kappa: 0.0 },
            SystemKind::S2Fortress { kappa: 0.5 },
            SystemKind::S2Fortress { kappa: 1.0 },
        ] {
            for launch_pad in [LaunchPad::NextStep, LaunchPad::Disabled] {
                for alpha in [1e-5, 1e-3, 0.1, 0.9] {
                    let spec = PeriodChainSpec {
                        kind,
                        alpha,
                        period: 1,
                        launch_pad,
                    };
                    for held in 0..HELD {
                        let (absorb, stay) = spec.phase(held);
                        let total = absorb + stay.iter().sum::<f64>();
                        assert!(
                            (total - 1.0).abs() < 1e-12,
                            "{kind:?} {launch_pad:?} alpha={alpha} held={held}: {total}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn longer_period_reduces_s0_lifetime() {
        // Persistence across phases makes the 2-of-4 condition easier.
        let mut prev = el(SystemKind::S0Smr, 1e-2, 1);
        for p in [2usize, 4, 8, 16] {
            let cur = el(SystemKind::S0Smr, 1e-2, p);
            assert!(cur < prev * (1.0 + 1e-12), "P={p}: EL {cur} not <= {prev}");
            prev = cur;
        }
    }

    #[test]
    fn longer_period_reduces_s2_lifetime() {
        let kind = SystemKind::S2Fortress { kappa: 0.1 };
        let mut prev = el(kind, 1e-2, 1);
        for p in [2usize, 4, 8] {
            let cur = el(kind, 1e-2, p);
            assert!(cur < prev, "P={p}: EL {cur} not < {prev}");
            prev = cur;
        }
    }

    #[test]
    fn launch_pad_disabled_extends_s2_lifetime_for_long_periods() {
        let alpha = 1e-2;
        let kappa = 0.1;
        let with_pad = PeriodChainSpec {
            kind: SystemKind::S2Fortress { kappa },
            alpha,
            period: 8,
            launch_pad: LaunchPad::NextStep,
        }
        .expected_lifetime()
        .unwrap();
        let without_pad = PeriodChainSpec {
            kind: SystemKind::S2Fortress { kappa },
            alpha,
            period: 8,
            launch_pad: LaunchPad::Disabled,
        }
        .expected_lifetime()
        .unwrap();
        assert!(
            without_pad > with_pad,
            "no-pad {without_pad} should exceed pad {with_pad}"
        );
    }

    #[test]
    fn launch_pad_irrelevant_at_period_one() {
        let alpha = 1e-2;
        let kappa = 0.3;
        let a = PeriodChainSpec {
            kind: SystemKind::S2Fortress { kappa },
            alpha,
            period: 1,
            launch_pad: LaunchPad::NextStep,
        }
        .expected_lifetime()
        .unwrap();
        let b = PeriodChainSpec {
            kind: SystemKind::S2Fortress { kappa },
            alpha,
            period: 1,
            launch_pad: LaunchPad::Disabled,
        }
        .expected_lifetime()
        .unwrap();
        assert!((a - b).abs() / a < 1e-12);
    }

    #[test]
    fn spec_validation() {
        let invalid = |spec: PeriodChainSpec| {
            matches!(
                spec.expected_lifetime(),
                Err(ModelError::InvalidParameter { .. })
            )
        };
        assert!(invalid(PeriodChainSpec::paper(SystemKind::S1Pb, 0.0)));
        assert!(invalid(PeriodChainSpec::paper(SystemKind::S1Pb, 1.0)));
        assert!(invalid(PeriodChainSpec {
            kind: SystemKind::S1Pb,
            alpha: 0.5,
            period: 0,
            launch_pad: LaunchPad::NextStep,
        }));
        assert!(invalid(PeriodChainSpec::paper(
            SystemKind::S2Fortress { kappa: 1.5 },
            0.5
        )));
    }

    #[test]
    fn paper_ordering_at_period_one() {
        // S0PO > S2PO(kappa=0.5) > S1PO for a mid-range alpha.
        let a = 1e-3;
        let s0 = el(SystemKind::S0Smr, a, 1);
        let s2 = el(SystemKind::S2Fortress { kappa: 0.5 }, a, 1);
        let s1 = el(SystemKind::S1Pb, a, 1);
        assert!(s0 > s2 && s2 > s1, "s0={s0} s2={s2} s1={s1}");
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for n in 0..=4usize {
            for p in [0.0, 0.1, 0.5, 0.9] {
                let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
                assert!((total - 1.0).abs() < 1e-12, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SystemKind::S0Smr.label(), "S0");
        assert_eq!(SystemKind::S1Pb.label(), "S1");
        assert_eq!(SystemKind::S2Fortress { kappa: 0.5 }.label(), "S2");
    }
}
