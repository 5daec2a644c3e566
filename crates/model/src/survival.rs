//! Survival functions `S(t)` — the probability that a system is still
//! uncompromised after `t` whole unit time-steps — and the per-step
//! compromise probabilities of the PO (geometric) systems.
//!
//! # Derivations (broadcast-probe model, see the [crate docs](crate))
//!
//! A without-replacement attacker has tested `m(t) = min(tω, χ)` distinct key
//! values after `t` steps.
//!
//! * **S1SO** — the single shared key is uniform over the `χ` values, so
//!   `S(t) = 1 − m/χ` exactly.
//! * **S0SO** — the number of the four distinct keys uncovered is
//!   hypergeometric `X ~ Hyp(χ, 4, m)`, and `S(t) = P(X ≤ 1)`.
//! * **S2SO** — three distinct proxy keys with discovery times ≈ iid
//!   `U(0, χ/ω)`, plus the shared server key probed indirectly at rate `κω`
//!   until the first proxy falls (the **launch pad**), then at `(1+κ)ω`.
//!   The survival decomposes over the order statistics `X(1) ≤ X(3)` of the
//!   proxy discovery times; with `τ = tω/χ` and `x0 = max(0, (1+κ)τ − 1)`:
//!
//!   ```text
//!   S(τ) = (1−τ)³·(1−κτ)⁺ + 3(1−τ)·[F(τ) − F(x0)]⁺,
//!   F(x)  = cBx + (B−2c)x²/2 − (2/3)x³,   c = 1−(1+κ)τ,  B = 1+τ
//!   ```
//!
//!   where the first term is the event "no proxy fell yet" and the integral
//!   accumulates `(server survives | first proxy fell at x)·P(not all three
//!   proxies fell)`. `S(τ ≥ 1) = 0` because all proxy keys are certainly
//!   uncovered once the space is exhausted.

use crate::params::{AttackParams, ProbeModel};
use crate::LaunchPad;

/// Values tested after `t` steps under without-replacement probing.
fn tested(params: &AttackParams, t: f64) -> f64 {
    (t * params.omega()).min(params.chi())
}

/// Survival of the S1 (primary-backup, one shared key) system under SO.
pub fn s1_so(params: &AttackParams, probe: ProbeModel, t: f64) -> f64 {
    let per_stream = 1.0 - tested(params, t) / params.chi();
    match probe {
        // One broadcast stream tests the shared key once.
        ProbeModel::Broadcast | ProbeModel::BroadcastExact => per_stream.max(0.0),
        // Three independent streams each chew through their own pool.
        ProbeModel::IndependentPerNode => per_stream.max(0.0).powi(3),
    }
}

/// Survival of the S0 (4-replica SMR, distinct keys) system under SO:
/// alive while at most one key has been uncovered.
pub fn s0_so(params: &AttackParams, probe: ProbeModel, t: f64) -> f64 {
    let chi = params.chi();
    let m = tested(params, t);
    match probe {
        ProbeModel::Broadcast | ProbeModel::IndependentPerNode => {
            // Per-key marginal found-probability is m/χ in both models;
            // treat keys as independent (exact for IndependentPerNode,
            // χ≫ω-approximation for Broadcast).
            let s = (1.0 - m / chi).max(0.0);
            s.powi(4) + 4.0 * s.powi(3) * (1.0 - s)
        }
        ProbeModel::BroadcastExact => {
            // X ~ Hypergeometric(χ, 4, m): exact joint for one shared pool.
            let p0: f64 = (0..4)
                .map(|i| ((chi - m - i as f64).max(0.0)) / (chi - i as f64))
                .product();
            let p1 = 4.0 * m * (chi - m).max(0.0) * (chi - m - 1.0).max(0.0)
                * (chi - m - 2.0).max(0.0)
                / (chi * (chi - 1.0) * (chi - 2.0) * (chi - 3.0));
            (p0 + p1).clamp(0.0, 1.0)
        }
    }
}

/// Survival of the S2 (FORTRESS) system under SO in the broadcast model.
///
/// `kappa` is the indirect attack coefficient; `launch_pad` selects whether
/// a compromised proxy accelerates server probing (paper semantics) or not
/// (ablation).
pub fn s2_so(params: &AttackParams, kappa: f64, launch_pad: LaunchPad, t: f64) -> f64 {
    let t_p = params.chi() / params.omega();
    let tau = t / t_p;
    if tau >= 1.0 {
        return 0.0;
    }
    match launch_pad {
        LaunchPad::Disabled => {
            // Proxies: not all three uncovered. Server: eliminated at κω.
            let proxies_alive = 1.0 - tau.powi(3);
            let server_alive = (1.0 - kappa * tau).max(0.0);
            proxies_alive * server_alive
        }
        LaunchPad::NextStep => {
            let c = 1.0 - (1.0 + kappa) * tau;
            let b = 1.0 + tau;
            let f = |x: f64| c * b * x + (b - 2.0 * c) * x * x / 2.0 - (2.0 / 3.0) * x.powi(3);
            let x0 = ((1.0 + kappa) * tau - 1.0).max(0.0);
            let no_proxy_term = (1.0 - tau).powi(3) * (1.0 - kappa * tau).max(0.0);
            let integral = if x0 < tau {
                3.0 * (1.0 - tau) * (f(tau) - f(x0))
            } else {
                0.0
            };
            (no_proxy_term + integral.max(0.0)).clamp(0.0, 1.0)
        }
    }
}

/// Per-step compromise probability of S1 under PO.
pub fn s1_po_step(params: &AttackParams, probe: ProbeModel) -> f64 {
    let a = params.alpha();
    match probe {
        ProbeModel::Broadcast | ProbeModel::BroadcastExact => a,
        ProbeModel::IndependentPerNode => 1.0 - (1.0 - a).powi(3),
    }
}

/// Per-step compromise probability of S0 under PO: at least two of the four
/// distinct keys uncovered within one step's probe batch.
pub fn s0_po_step(params: &AttackParams, probe: ProbeModel) -> f64 {
    let a = params.alpha();
    match probe {
        ProbeModel::Broadcast | ProbeModel::IndependentPerNode => {
            1.0 - (1.0 - a).powi(4) - 4.0 * a * (1.0 - a).powi(3)
        }
        ProbeModel::BroadcastExact => {
            // Exact within-batch hypergeometric with m = ω tested values.
            let chi = params.chi();
            let m = params.omega().min(chi);
            let p0: f64 = (0..4)
                .map(|i| ((chi - m - i as f64).max(0.0)) / (chi - i as f64))
                .product();
            let p1 = 4.0 * m * (chi - m).max(0.0) * (chi - m - 1.0).max(0.0)
                * (chi - m - 2.0).max(0.0)
                / (chi * (chi - 1.0) * (chi - 2.0) * (chi - 3.0));
            (1.0 - p0 - p1).clamp(0.0, 1.0)
        }
    }
}

/// Per-step compromise probability of S2 under PO: shared server key falls
/// to indirect probes, or all three proxies fall within the same step.
///
/// Launch pads play no role at period 1: a pad only becomes usable after the
/// step in which the proxy fell, and re-randomization revokes it first.
pub fn s2_po_step(params: &AttackParams, probe: ProbeModel, kappa: f64) -> f64 {
    let a = params.alpha();
    let server = match probe {
        ProbeModel::Broadcast | ProbeModel::BroadcastExact => kappa * a,
        ProbeModel::IndependentPerNode => 1.0 - (1.0 - kappa * a).powi(3),
    };
    let proxies = match probe {
        ProbeModel::Broadcast | ProbeModel::IndependentPerNode => a.powi(3),
        ProbeModel::BroadcastExact => {
            let chi = params.chi();
            let m = params.omega().min(chi);
            (m * (m - 1.0).max(0.0) * (m - 2.0).max(0.0))
                / (chi * (chi - 1.0) * (chi - 2.0))
        }
    };
    // `1 − (1 − s)(1 − p)` expanded: subtracting a hazard near 1e-15 from
    // 1 would keep only its leading digits.
    server + proxies - server * proxies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(alpha: f64) -> AttackParams {
        AttackParams::from_alpha(65536.0, alpha).unwrap()
    }

    #[test]
    fn s1_so_is_linear_and_hits_zero() {
        let p = params(1e-2);
        assert_eq!(s1_so(&p, ProbeModel::Broadcast, 0.0), 1.0);
        let half = s1_so(&p, ProbeModel::Broadcast, 50.0);
        assert!((half - 0.5).abs() < 1e-9, "{half}");
        assert_eq!(s1_so(&p, ProbeModel::Broadcast, 100.0), 0.0);
        assert_eq!(s1_so(&p, ProbeModel::Broadcast, 1e9), 0.0);
    }

    #[test]
    fn s1_so_independent_is_cubed() {
        let p = params(1e-2);
        let b = s1_so(&p, ProbeModel::Broadcast, 30.0);
        let i = s1_so(&p, ProbeModel::IndependentPerNode, 30.0);
        assert!((i - b.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn s0_so_exact_close_to_independent() {
        let p = params(1e-3);
        for t in [0.0, 100.0, 400.0, 900.0] {
            let approx = s0_so(&p, ProbeModel::Broadcast, t);
            let exact = s0_so(&p, ProbeModel::BroadcastExact, t);
            assert!(
                (approx - exact).abs() < 1e-4,
                "t={t}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn s0_so_monotone_decreasing() {
        let p = params(1e-3);
        let mut prev = 1.0;
        for t in 0..1100 {
            let s = s0_so(&p, ProbeModel::BroadcastExact, t as f64);
            assert!(s <= prev + 1e-12, "t={t}");
            prev = s;
        }
        assert_eq!(prev, 0.0, "exhaustion reached");
    }

    #[test]
    fn s2_so_boundaries() {
        let p = params(1e-3);
        assert_eq!(s2_so(&p, 0.5, LaunchPad::NextStep, 0.0), 1.0);
        assert_eq!(s2_so(&p, 0.5, LaunchPad::NextStep, 1e7), 0.0);
        assert_eq!(s2_so(&p, 0.0, LaunchPad::Disabled, 0.0), 1.0);
    }

    #[test]
    fn s2_so_pad_never_helps_the_defender() {
        let p = params(1e-3);
        for kappa in [0.0, 0.3, 0.9] {
            for t in [50.0, 200.0, 500.0, 900.0] {
                let with_pad = s2_so(&p, kappa, LaunchPad::NextStep, t);
                let without = s2_so(&p, kappa, LaunchPad::Disabled, t);
                assert!(
                    with_pad <= without + 1e-9,
                    "kappa={kappa} t={t}: pad {with_pad} > nopad {without}"
                );
            }
        }
    }

    #[test]
    fn s2_so_kappa_zero_disabled_is_pure_proxy_race() {
        // With kappa=0 and no pads the server is untouchable: survival is
        // exactly P(not all 3 proxy keys found).
        let p = params(1e-2);
        let t_p = p.chi() / p.omega();
        for frac in [0.1, 0.5, 0.9] {
            let t = frac * t_p;
            let s = s2_so(&p, 0.0, LaunchPad::Disabled, t);
            let want = 1.0 - frac.powi(3);
            assert!((s - want).abs() < 1e-9, "frac={frac}");
        }
    }

    #[test]
    fn s2_so_monotone_in_kappa() {
        let p = params(1e-3);
        for t in [100.0, 400.0, 800.0] {
            let mut prev = f64::INFINITY;
            for k in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let s = s2_so(&p, k, LaunchPad::NextStep, t);
                assert!(s <= prev + 1e-12, "t={t} k={k}");
                prev = s;
            }
        }
    }

    #[test]
    fn po_step_probabilities_match_closed_forms() {
        let p = params(1e-3);
        let a = p.alpha();
        assert!((s1_po_step(&p, ProbeModel::Broadcast) - a).abs() < 1e-15);
        let s0 = s0_po_step(&p, ProbeModel::Broadcast);
        assert!((s0 - 6.0 * a * a).abs() / (6.0 * a * a) < 0.01, "{s0}");
        let s2 = s2_po_step(&p, ProbeModel::Broadcast, 0.5);
        let approx = 0.5 * a + a.powi(3);
        assert!((s2 - approx).abs() / approx < 0.01);
    }

    #[test]
    fn po_exact_matches_binomial_closely() {
        // The exact within-batch joint differs from the binomial by a factor
        // of (ω−1)/ω per extra key — about 1.5% at ω ≈ 65.
        let p = params(1e-3);
        let b = s0_po_step(&p, ProbeModel::Broadcast);
        let e = s0_po_step(&p, ProbeModel::BroadcastExact);
        assert!((b - e).abs() / b < 0.025, "{b} vs {e}");
        let b2 = s2_po_step(&p, ProbeModel::Broadcast, 0.3);
        let e2 = s2_po_step(&p, ProbeModel::BroadcastExact, 0.3);
        assert!((b2 - e2).abs() / b2 < 0.025);
    }

    /// At κ = 0 only the proxy race is left, so the step hazard is α³
    /// itself, down to α = 10⁻⁵ where it is 10⁻¹⁵.
    #[test]
    fn s2_po_at_kappa_zero_is_alpha_cubed() {
        for alpha in crate::params::paper_alpha_grid(5) {
            let p = params(alpha);
            let want = p.alpha().powi(3);
            let got = s2_po_step(&p, ProbeModel::Broadcast, 0.0);
            assert!((got - want).abs() <= 1e-12 * want, "α = {alpha}: {got} vs {want}");
        }
    }

    #[test]
    fn s2_po_exact_small_omega_cannot_take_three_proxies() {
        // With fewer than 3 probes per step the batch cannot contain all
        // three distinct proxy keys.
        let p = AttackParams::new(65536.0, 2.0).unwrap();
        let e = s2_po_step(&p, ProbeModel::BroadcastExact, 0.0);
        assert_eq!(e, 0.0);
        // The binomial abstraction keeps a tiny nonzero probability.
        let b = s2_po_step(&p, ProbeModel::Broadcast, 0.0);
        assert!(b > 0.0);
    }

    #[test]
    fn s1_po_independent_triples_hazard() {
        let p = params(1e-4);
        let b = s1_po_step(&p, ProbeModel::Broadcast);
        let i = s1_po_step(&p, ProbeModel::IndependentPerNode);
        assert!((i / b - 3.0).abs() < 0.01, "ratio {}", i / b);
    }
}
