//! Expected lifetimes: `EL = Σ_{t≥0} S(t)` (paper Definition 7).
//!
//! For PO systems the survival is geometric and `EL = 1/p` with the per-step
//! compromise probability `p` from [`survival::po_step`]. For SO systems the
//! survival has finite support (the key space is exhausted after `⌈χ/ω⌉`
//! steps) and the sum is evaluated directly.

use crate::error::ModelError;
use crate::params::{AttackParams, Policy, ProbeModel};
use crate::survival;
use crate::{LaunchPad, SystemKind};

/// Expected lifetime of `kind` under `policy` in probe model `probe`.
///
/// For S2, the indirect-attack coefficient comes from
/// [`SystemKind::S2Fortress`]'s `kappa` field; launch pads follow the paper
/// semantics ([`LaunchPad::NextStep`]). Use [`expected_lifetime_s2_so`] for
/// the pad ablation.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] for a `κ` outside `[0, 1]`, and
/// [`ModelError::Unsupported`] for S2 under SO in the
/// [`ProbeModel::IndependentPerNode`] ablation (only the 1-tier systems
/// participate in that ablation).
pub fn expected_lifetime(
    kind: SystemKind,
    policy: Policy,
    probe: ProbeModel,
    params: &AttackParams,
) -> Result<f64, ModelError> {
    if let SystemKind::S2Fortress { kappa } = kind {
        check_kappa(kappa)?;
    }
    match (kind, policy) {
        (_, Policy::Proactive) => Ok(1.0 / survival::po_step(kind, probe, params)),
        (SystemKind::S1Pb, Policy::StartupOnly) => {
            Ok(sum_survival(params, |t| survival::s1_so(params, probe, t)))
        }
        (SystemKind::S0Smr, Policy::StartupOnly) => {
            Ok(sum_survival(params, |t| survival::s0_so(params, probe, t)))
        }
        (SystemKind::S2Fortress { kappa }, Policy::StartupOnly) => {
            if probe == ProbeModel::IndependentPerNode {
                return Err(ModelError::Unsupported {
                    what: "S2 under SO with independent-per-node probes".into(),
                });
            }
            Ok(expected_lifetime_s2_so(params, kappa, LaunchPad::NextStep))
        }
    }
}

/// Expected lifetime of S2 under SO with explicit launch-pad semantics
/// (broadcast probe model).
pub fn expected_lifetime_s2_so(params: &AttackParams, kappa: f64, pad: LaunchPad) -> f64 {
    sum_survival(params, |t| survival::s2_so(params, kappa, pad, t))
}

fn check_kappa(kappa: f64) -> Result<(), ModelError> {
    if !(0.0..=1.0).contains(&kappa) || !kappa.is_finite() {
        return Err(ModelError::invalid("kappa", kappa, "[0, 1]"));
    }
    Ok(())
}

/// Sums `S(t)` for `t = 0, 1, 2, …` until exhaustion.
///
/// The SO survival functions all vanish at `t ≥ ⌈χ/ω⌉` (every key value has
/// been tried), so the sum is finite with at most `exhaustion_steps + 2`
/// terms.
fn sum_survival<F: Fn(f64) -> f64>(params: &AttackParams, s: F) -> f64 {
    let horizon = params.exhaustion_steps() + 1;
    let mut total = 0.0;
    for t in 0..=horizon {
        let v = s(t as f64);
        if v <= 0.0 {
            break;
        }
        total += v;
    }
    total
}

/// A labeled (system, policy) pair — the unit the figures compare.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SystemPolicy {
    /// System class (κ is embedded for S2).
    pub kind: SystemKind,
    /// Obfuscation policy.
    pub policy: Policy,
}

impl SystemPolicy {
    /// Figure label, e.g. `"S2PO"`.
    pub fn label(&self) -> String {
        format!("{}{}", self.kind.label(), self.policy.suffix())
    }

    /// Expected lifetime under the default broadcast model.
    ///
    /// # Errors
    ///
    /// As for [`expected_lifetime`].
    pub fn expected_lifetime(&self, params: &AttackParams) -> Result<f64, ModelError> {
        expected_lifetime(self.kind, self.policy, ProbeModel::Broadcast, params)
    }
}

/// The five systems of the paper's Figure 1, with S2PO at the given `κ`.
pub fn figure1_systems(kappa: f64) -> Vec<SystemPolicy> {
    vec![
        SystemPolicy {
            kind: SystemKind::S0Smr,
            policy: Policy::Proactive,
        },
        SystemPolicy {
            kind: SystemKind::S2Fortress { kappa },
            policy: Policy::Proactive,
        },
        SystemPolicy {
            kind: SystemKind::S1Pb,
            policy: Policy::Proactive,
        },
        SystemPolicy {
            kind: SystemKind::S1Pb,
            policy: Policy::StartupOnly,
        },
        SystemPolicy {
            kind: SystemKind::S0Smr,
            policy: Policy::StartupOnly,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHI: f64 = 65536.0;

    fn params(alpha: f64) -> AttackParams {
        AttackParams::from_alpha(CHI, alpha).unwrap()
    }

    fn el(kind: SystemKind, policy: Policy, alpha: f64) -> f64 {
        expected_lifetime(kind, policy, ProbeModel::Broadcast, &params(alpha)).unwrap()
    }

    #[test]
    fn s1_po_is_one_over_alpha() {
        for alpha in [1e-5, 1e-4, 1e-3, 1e-2] {
            let got = el(SystemKind::S1Pb, Policy::Proactive, alpha);
            assert!((got - 1.0 / alpha).abs() / (1.0 / alpha) < 1e-12);
        }
    }

    #[test]
    fn s1_so_is_about_half_the_horizon() {
        // Survival is linear from 1 to 0 over T_p = 1/alpha steps, so the
        // expected lifetime is about T_p/2.
        let alpha = 1e-3;
        let got = el(SystemKind::S1Pb, Policy::StartupOnly, alpha);
        let t_p = 1.0 / alpha;
        assert!(
            (got - t_p / 2.0).abs() < 0.01 * t_p,
            "{got} vs {}",
            t_p / 2.0
        );
    }

    #[test]
    fn s0_so_is_about_two_fifths_of_the_horizon() {
        // Second order statistic of 4 uniforms: mean (2/5)·T_p.
        let alpha = 1e-3;
        let got = el(SystemKind::S0Smr, Policy::StartupOnly, alpha);
        let t_p = 1.0 / alpha;
        assert!(
            (got - 0.4 * t_p).abs() < 0.01 * t_p,
            "{got} vs {}",
            0.4 * t_p
        );
    }

    #[test]
    fn s0_po_matches_inverse_binomial() {
        let alpha: f64 = 1e-3;
        let got = el(SystemKind::S0Smr, Policy::Proactive, alpha);
        let want = 1.0 / (6.0 * alpha * alpha);
        assert!((got - want).abs() / want < 0.01, "{got} vs {want}");
    }

    #[test]
    fn s2_po_closed_form() {
        let alpha: f64 = 1e-3;
        let kappa = 0.5;
        let got = el(
            SystemKind::S2Fortress { kappa },
            Policy::Proactive,
            alpha,
        );
        let want = 1.0 / (kappa * alpha + alpha.powi(3));
        assert!((got - want).abs() / want < 0.01, "{got} vs {want}");
    }

    /// The paper's four headline trends (§6) across the full α grid.
    #[test]
    fn trend1_s1so_outlives_s0so() {
        for alpha in crate::params::paper_alpha_grid(3) {
            let s1 = el(SystemKind::S1Pb, Policy::StartupOnly, alpha);
            let s0 = el(SystemKind::S0Smr, Policy::StartupOnly, alpha);
            assert!(s1 > s0, "alpha={alpha}: S1SO={s1} S0SO={s0}");
        }
    }

    #[test]
    fn trend2_po_systems_outlive_so_systems() {
        for alpha in crate::params::paper_alpha_grid(3) {
            let s1po = el(SystemKind::S1Pb, Policy::Proactive, alpha);
            let s2po = el(
                SystemKind::S2Fortress { kappa: 0.5 },
                Policy::Proactive,
                alpha,
            );
            let s1so = el(SystemKind::S1Pb, Policy::StartupOnly, alpha);
            let s0so = el(SystemKind::S0Smr, Policy::StartupOnly, alpha);
            for (label, po) in [("S1PO", s1po), ("S2PO", s2po)] {
                assert!(po > s1so && po > s0so, "alpha={alpha}: {label}={po}");
            }
        }
    }

    #[test]
    fn trend3_s2po_outlives_s1po_iff_kappa_at_most_09() {
        for alpha in crate::params::paper_alpha_grid(3) {
            let s1po = el(SystemKind::S1Pb, Policy::Proactive, alpha);
            for kappa in [0.0, 0.3, 0.6, 0.9] {
                let s2po = el(
                    SystemKind::S2Fortress { kappa },
                    Policy::Proactive,
                    alpha,
                );
                assert!(s2po > s1po, "alpha={alpha} kappa={kappa}");
            }
            // At κ = 1 the extra all-proxies path makes S2PO strictly worse.
            let s2po_k1 = el(
                SystemKind::S2Fortress { kappa: 1.0 },
                Policy::Proactive,
                alpha,
            );
            assert!(s2po_k1 < s1po, "alpha={alpha}");
        }
    }

    #[test]
    fn trend4_s0po_outlives_s2po_except_kappa_zero() {
        for alpha in crate::params::paper_alpha_grid(3) {
            let s0po = el(SystemKind::S0Smr, Policy::Proactive, alpha);
            for kappa in [0.1, 0.5, 1.0] {
                let s2po = el(
                    SystemKind::S2Fortress { kappa },
                    Policy::Proactive,
                    alpha,
                );
                assert!(s0po > s2po, "alpha={alpha} kappa={kappa}");
            }
            let s2po_k0 = el(
                SystemKind::S2Fortress { kappa: 0.0 },
                Policy::Proactive,
                alpha,
            );
            assert!(s2po_k0 > s0po, "alpha={alpha}: S2PO(0)={s2po_k0} S0PO={s0po}");
        }
    }

    #[test]
    fn probe_ablation_flips_trend1() {
        for alpha in [1e-4, 1e-3, 1e-2] {
            let p = params(alpha);
            let s1 = expected_lifetime(
                SystemKind::S1Pb,
                Policy::StartupOnly,
                ProbeModel::IndependentPerNode,
                &p,
            )
            .unwrap();
            let s0 = expected_lifetime(
                SystemKind::S0Smr,
                Policy::StartupOnly,
                ProbeModel::IndependentPerNode,
                &p,
            )
            .unwrap();
            assert!(
                s0 > s1,
                "independent probes should flip trend 1: alpha={alpha} S0SO={s0} S1SO={s1}"
            );
        }
    }

    #[test]
    fn s2_so_pad_reduces_lifetime() {
        let p = params(1e-3);
        for kappa in [0.0, 0.2, 0.8] {
            let with_pad = expected_lifetime_s2_so(&p, kappa, LaunchPad::NextStep);
            let without = expected_lifetime_s2_so(&p, kappa, LaunchPad::Disabled);
            assert!(with_pad < without, "kappa={kappa}: {with_pad} vs {without}");
        }
    }

    #[test]
    fn s2_so_between_bounds() {
        // S2SO with kappa=1 and pads is still bounded by the S1SO lifetime
        // of its server tier probed directly (lower bound sanity) and by the
        // pad-free pure proxy race (upper bound).
        let p = params(1e-3);
        let el_s2 = expected_lifetime_s2_so(&p, 1.0, LaunchPad::NextStep);
        let el_upper = expected_lifetime_s2_so(&p, 0.0, LaunchPad::Disabled);
        assert!(el_s2 < el_upper);
        assert!(el_s2 > 0.0);
    }

    #[test]
    fn el_monotone_decreasing_in_alpha() {
        let systems = figure1_systems(0.5);
        for pair in systems {
            let mut prev = f64::INFINITY;
            for alpha in crate::params::paper_alpha_grid(2) {
                let e = pair.expected_lifetime(&params(alpha)).unwrap();
                assert!(
                    e < prev,
                    "{} not monotone at alpha={alpha}",
                    pair.label()
                );
                prev = e;
            }
        }
    }

    #[test]
    fn el_increases_with_entropy() {
        for bits in [12u32, 16, 20, 24] {
            let lo = AttackParams::from_entropy_bits(bits, 1e-3).unwrap();
            let hi = AttackParams::from_entropy_bits(bits + 4, 1e-3).unwrap();
            // With alpha fixed, PO lifetimes are entropy-invariant (1/alpha),
            // but SO lifetimes scale with the exhaustion horizon chi/omega =
            // 1/alpha — also invariant! The entropy effect appears with
            // omega fixed instead:
            let lo_fixed = AttackParams::new(lo.chi(), 64.0).unwrap();
            let hi_fixed = AttackParams::new(hi.chi(), 64.0).unwrap();
            let e_lo = expected_lifetime(
                SystemKind::S1Pb,
                Policy::StartupOnly,
                ProbeModel::Broadcast,
                &lo_fixed,
            )
            .unwrap();
            let e_hi = expected_lifetime(
                SystemKind::S1Pb,
                Policy::StartupOnly,
                ProbeModel::Broadcast,
                &hi_fixed,
            )
            .unwrap();
            assert!(e_hi > e_lo, "bits={bits}");
        }
    }

    #[test]
    fn markov_chain_agrees_with_model_for_po() {
        use crate::PeriodChainSpec;
        let alpha = 1e-3;
        for kind in [
            SystemKind::S0Smr,
            SystemKind::S1Pb,
            SystemKind::S2Fortress { kappa: 0.4 },
        ] {
            let model_el = el(kind, Policy::Proactive, alpha);
            let chain_el = PeriodChainSpec::paper(kind, alpha)
                .expected_lifetime()
                .unwrap();
            let rel = (model_el - chain_el).abs() / chain_el;
            assert!(rel < 1e-9, "{kind:?}: model {model_el} vs chain {chain_el}");
        }
    }

    #[test]
    fn invalid_kappa_rejected() {
        let p = params(1e-3);
        assert!(expected_lifetime(
            SystemKind::S2Fortress { kappa: -0.1 },
            Policy::Proactive,
            ProbeModel::Broadcast,
            &p
        )
        .is_err());
        assert!(expected_lifetime(
            SystemKind::S2Fortress { kappa: 1.2 },
            Policy::StartupOnly,
            ProbeModel::Broadcast,
            &p
        )
        .is_err());
    }

    #[test]
    fn s2_so_independent_probe_unsupported() {
        let p = params(1e-3);
        let e = expected_lifetime(
            SystemKind::S2Fortress { kappa: 0.5 },
            Policy::StartupOnly,
            ProbeModel::IndependentPerNode,
            &p,
        );
        assert!(matches!(e, Err(ModelError::Unsupported { .. })));
    }

    #[test]
    fn labels() {
        assert_eq!(
            SystemPolicy {
                kind: SystemKind::S2Fortress { kappa: 0.5 },
                policy: Policy::Proactive
            }
            .label(),
            "S2PO"
        );
        assert_eq!(figure1_systems(0.5).len(), 5);
    }
}
