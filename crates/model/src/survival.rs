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
//!
//! # PO: one step's hazard, as kernel calls
//!
//! Under PO every key is re-randomized each step, so [`po_step`]'s hazard
//! `p` is the same every step and `EL = 1/p`. Each form is a call to one
//! kernel ([`binomial_pmf`], `at_least` for the binomial tail, [`either`]),
//! never a "one minus a product", so each keeps its digits down to
//! `α = 10⁻⁶` (the tests hold them to 1e-12 against exact rationals):
//!
//! * **S1PO** — `α`; with independent streams `at_least(1, 3, α)`.
//! * **S0PO** — `at_least(2, 4, α)` in both binomial models.
//! * **S2PO** — `either(κα, α³)`; with independent streams
//!   `either(at_least(1, 3, κα), α³)`.
//! * The period chain's server hazard while a launch pad is held —
//!   `either(κα, α)`.
//!
//! `BroadcastExact` replaces the binomials with the within-batch
//! hypergeometric of `m = ω` tested values: `P(X ≥ 2)` for S0, summed as
//! `p2 + p3 + p4`, and `m(m−1)(m−2) / χ(χ−1)(χ−2)` for S2's proxies.

use crate::params::{AttackParams, ProbeModel};
use crate::{LaunchPad, SystemKind};

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
            let (p0, p1) = hypergeometric_p0_p1(chi, m);
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

/// Per-step compromise probability of `kind` under PO. Every node is
/// re-randomized each step, so a step starts with every key hidden and
/// the hazard is the same every step (`EL = 1/p`):
///
/// * S1 — the shared key falls;
/// * S0 — at least two of the four distinct keys fall within one step's
///   probe batch;
/// * S2 — the shared server key falls to indirect probes, or all three
///   proxies fall within the same step.
///
/// Launch pads play no role at period 1: a pad only becomes usable after the
/// step in which the proxy fell, and re-randomization revokes it first.
pub fn po_step(kind: SystemKind, probe: ProbeModel, params: &AttackParams) -> f64 {
    let a = params.alpha();
    let chi = params.chi();
    let m = params.omega().min(chi);
    match (kind, probe) {
        (SystemKind::S1Pb, ProbeModel::IndependentPerNode) => at_least(1, 3, a),
        (SystemKind::S1Pb, _) => a,
        (SystemKind::S0Smr, ProbeModel::BroadcastExact) => hypergeometric_at_least_2(chi, m),
        (SystemKind::S0Smr, _) => at_least(2, 4, a),
        (SystemKind::S2Fortress { kappa }, ProbeModel::Broadcast) => either(kappa * a, a.powi(3)),
        (SystemKind::S2Fortress { kappa }, ProbeModel::IndependentPerNode) => {
            either(at_least(1, 3, kappa * a), a.powi(3))
        }
        (SystemKind::S2Fortress { kappa }, ProbeModel::BroadcastExact) => {
            either(kappa * a, falling(m, 3) / falling(chi, 3))
        }
    }
}

/// `P(X = 0)` and `P(X = 1)` for `X ~ Hyp(χ, 4, m)`: how many of four
/// distinct keys are among `m` values tested from one shared pool.
fn hypergeometric_p0_p1(chi: f64, m: f64) -> (f64, f64) {
    let p0: f64 = (0..4)
        .map(|i| ((chi - m - i as f64).max(0.0)) / (chi - i as f64))
        .product();
    let p1 = 4.0 * m * (chi - m).max(0.0) * (chi - m - 1.0).max(0.0) * (chi - m - 2.0).max(0.0)
        / (chi * (chi - 1.0) * (chi - 2.0) * (chi - 3.0));
    (p0, p1)
}

/// `P(X ≥ 2)` for `X ~ Hyp(χ, 4, m)`: at least two of four distinct keys
/// are among `m` values tested from one shared pool. The tail is summed as
/// `p2 + p3 + p4`, the same polynomial in `m` as `1 − p0 − p1`
/// (Vandermonde), with every term positive, so a hazard near 1e-8 keeps its
/// digits.
fn hypergeometric_at_least_2(chi: f64, m: f64) -> f64 {
    let ways: f64 = [(2, 6.0), (3, 4.0), (4, 1.0)]
        .iter()
        .map(|&(j, choose)| choose * falling(m, j) * falling(chi - m, 4 - j))
        .sum();
    ways / falling(chi, 4)
}

/// The falling factorial `x(x−1)…(x−k+1)`, each factor floored at 0: the
/// ordered ways to draw `k` of `x` values without replacement.
fn falling(x: f64, k: usize) -> f64 {
    (0..k).map(|i| (x - i as f64).max(0.0)).product()
}

/// Binomial pmf `P(X = k)` for `X ~ Bin(n, p)` with small `n`.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    let choose = |n: usize, k: usize| -> f64 {
        let mut c = 1.0;
        for i in 0..k {
            c = c * (n - i) as f64 / (i + 1) as f64;
        }
        c
    };
    choose(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// `P(X ≥ k)` for `X ~ Bin(n, p)`, the tail summed term by term. Every
/// term is positive, so the sum keeps its digits however small `p` is,
/// where `1 − P(X < k)` keeps only the leading ones. "Any of `n`" is
/// `at_least(1, n, p)`.
fn at_least(k: usize, n: usize, p: f64) -> f64 {
    (k..=n).map(|j| binomial_pmf(n, j, p)).sum()
}

/// The probability that either of two independent events happens:
/// `1 − (1 − p)(1 − q)` expanded, since subtracting a hazard near 1e-15
/// from 1 would keep only its leading digits.
pub fn either(p: f64, q: f64) -> f64 {
    p + q - p * q
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

    const S0: SystemKind = SystemKind::S0Smr;
    const S1: SystemKind = SystemKind::S1Pb;

    fn s2(kappa: f64) -> SystemKind {
        SystemKind::S2Fortress { kappa }
    }

    #[test]
    fn po_step_probabilities_match_closed_forms() {
        let p = params(1e-3);
        let a = p.alpha();
        assert!((po_step(S1, ProbeModel::Broadcast, &p) - a).abs() < 1e-15);
        let s0 = po_step(S0, ProbeModel::Broadcast, &p);
        assert!((s0 - 6.0 * a * a).abs() / (6.0 * a * a) < 0.01, "{s0}");
        let s2 = po_step(s2(0.5), ProbeModel::Broadcast, &p);
        let approx = 0.5 * a + a.powi(3);
        assert!((s2 - approx).abs() / approx < 0.01);
    }

    #[test]
    fn po_exact_matches_binomial_closely() {
        // The exact within-batch joint differs from the binomial by a factor
        // of (ω−1)/ω per extra key — about 1.5% at ω ≈ 65.
        let p = params(1e-3);
        let b = po_step(S0, ProbeModel::Broadcast, &p);
        let e = po_step(S0, ProbeModel::BroadcastExact, &p);
        assert!((b - e).abs() / b < 0.025, "{b} vs {e}");
        let b2 = po_step(s2(0.3), ProbeModel::Broadcast, &p);
        let e2 = po_step(s2(0.3), ProbeModel::BroadcastExact, &p);
        assert!((b2 - e2).abs() / b2 < 0.025);
    }

    #[test]
    fn s2_po_exact_small_omega_cannot_take_three_proxies() {
        // With fewer than 3 probes per step the batch cannot contain all
        // three distinct proxy keys.
        let p = AttackParams::new(65536.0, 2.0).unwrap();
        let e = po_step(s2(0.0), ProbeModel::BroadcastExact, &p);
        assert_eq!(e, 0.0);
        // The binomial abstraction keeps a tiny nonzero probability.
        let b = po_step(s2(0.0), ProbeModel::Broadcast, &p);
        assert!(b > 0.0);
    }

    #[test]
    fn s1_po_independent_triples_hazard() {
        let p = params(1e-4);
        let b = po_step(S1, ProbeModel::Broadcast, &p);
        let i = po_step(S1, ProbeModel::IndependentPerNode, &p);
        assert!((i / b - 3.0).abs() < 0.01, "ratio {}", i / b);
    }

    /// An exact non-negative rational `num / den` in lowest terms. Every
    /// step is checked: a plain `i128` product wraps silently in release
    /// and reads as a plausible error.
    #[derive(Clone, Copy, Debug)]
    struct Exact {
        num: i128,
        den: i128,
    }

    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.abs()
    }

    fn checked(v: Option<i128>) -> i128 {
        v.expect("i128 overflow in the exact reference")
    }

    impl Exact {
        fn new(num: i128, den: i128) -> Exact {
            let g = gcd(num, den).max(1);
            Exact {
                num: num / g,
                den: den / g,
            }
        }

        fn int(n: i128) -> Exact {
            Exact::new(n, 1)
        }

        /// `10⁻ᵏ`.
        fn ten_to_minus(k: u32) -> Exact {
            Exact::new(1, checked(10i128.checked_pow(k)))
        }

        /// Sum through the lcm of the denominators.
        fn add(self, o: Exact) -> Exact {
            let lcm = checked((self.den / gcd(self.den, o.den)).checked_mul(o.den));
            let a = checked(self.num.checked_mul(lcm / self.den));
            let b = checked(o.num.checked_mul(lcm / o.den));
            Exact::new(checked(a.checked_add(b)), lcm)
        }

        fn sub(self, o: Exact) -> Exact {
            self.add(Exact {
                num: -o.num,
                den: o.den,
            })
        }

        /// Product, cross-reduced before multiplying.
        fn mul(self, o: Exact) -> Exact {
            let g1 = gcd(self.num, o.den).max(1);
            let g2 = gcd(o.num, self.den).max(1);
            Exact::new(
                checked((self.num / g1).checked_mul(o.num / g2)),
                checked((self.den / g2).checked_mul(o.den / g1)),
            )
        }

        fn pow(self, n: usize) -> Exact {
            (0..n).fold(Exact::int(1), |acc, _| acc.mul(self))
        }

        fn to_f64(self) -> f64 {
            self.num as f64 / self.den as f64
        }
    }

    /// `P(Bin(n, p) ≥ k)`, exactly.
    fn exact_at_least(k: usize, n: usize, p: Exact) -> Exact {
        let q = Exact::int(1).sub(p);
        (k..=n).fold(Exact::int(0), |acc, j| {
            let choose = (0..j).fold(1i128, |c, i| c * (n - i) as i128 / (i + 1) as i128);
            acc.add(Exact::int(choose).mul(p.pow(j)).mul(q.pow(n - j)))
        })
    }

    /// `1 − (1 − p)(1 − q)`, exactly.
    fn exact_either(p: Exact, q: Exact) -> Exact {
        p.add(q).sub(p.mul(q))
    }

    /// Relative error of `got` against `exact`; an exact zero must be hit
    /// exactly.
    fn rel_err(got: f64, exact: Exact) -> f64 {
        let want = exact.to_f64();
        if want == 0.0 {
            return if got == 0.0 { 0.0 } else { f64::INFINITY };
        }
        (got - want).abs() / want
    }

    /// Every per-step PO hazard against exact rationals at α = 10⁻ᵏ
    /// (k = 2 … 6) and κ = j/10 (j = 0 … 10): the kernel's calls, the
    /// period chain's pad hazard and [`po_step`]. A row is a site, its
    /// lowest α and its pair (f64 under test, exact value). Prints the
    /// worst relative error per site, then holds each to 1e-12. At κ = 0
    /// S2's row is α³ itself, 10⁻¹⁸ at α = 10⁻⁶.
    #[test]
    fn every_po_hazard_is_exact_to_1e_12() {
        use ProbeModel::{Broadcast, IndependentPerNode};
        type Site = (
            &'static str,
            u32,
            fn(&AttackParams, f64, Exact, Exact) -> (f64, Exact),
        );
        let sites: [Site; 8] = [
            ("at_least(2, 4, α)", 6, |p, _, a, _| {
                (at_least(2, 4, p.alpha()), exact_at_least(2, 4, a))
            }),
            ("at_least(1, 3, κα)", 6, |p, kappa, a, k| {
                (
                    at_least(1, 3, kappa * p.alpha()),
                    exact_at_least(1, 3, k.mul(a)),
                )
            }),
            ("either(κα, α)", 6, |p, kappa, a, k| {
                (
                    either(kappa * p.alpha(), p.alpha()),
                    exact_either(k.mul(a), a),
                )
            }),
            ("po_step S0 Broadcast", 6, |p, _, a, _| {
                (po_step(S0, Broadcast, p), exact_at_least(2, 4, a))
            }),
            ("po_step S1 Broadcast", 6, |p, _, a, _| {
                (po_step(S1, Broadcast, p), a)
            }),
            ("po_step S1 IndependentPerNode", 6, |p, _, a, _| {
                (po_step(S1, IndependentPerNode, p), exact_at_least(1, 3, a))
            }),
            ("po_step S2 Broadcast", 6, |p, kappa, a, k| {
                (
                    po_step(s2(kappa), Broadcast, p),
                    exact_either(k.mul(a), a.pow(3)),
                )
            }),
            // At 1e-6 the exact value's denominator is 10³⁹, past i128;
            // its server piece is the `at_least(1, 3, κα)` row.
            ("po_step S2 IndependentPerNode", 5, |p, kappa, a, k| {
                let server = exact_at_least(1, 3, k.mul(a));
                (
                    po_step(s2(kappa), IndependentPerNode, p),
                    exact_either(server, a.pow(3)),
                )
            }),
        ];
        let alphas = [(2, 1e-2), (3, 1e-3), (4, 1e-4), (5, 1e-5), (6, 1e-6)];
        let mut failed = Vec::new();
        for (name, lowest, site) in sites {
            let mut worst = (-1.0, 0.0, 0.0);
            for &(k, alpha) in alphas.iter().filter(|(k, _)| *k <= lowest) {
                let p = params(alpha);
                for j in 0..=10 {
                    let (got, exact) = site(
                        &p,
                        j as f64 / 10.0,
                        Exact::ten_to_minus(k),
                        Exact::new(j, 10),
                    );
                    let err = rel_err(got, exact);
                    if err > worst.0 {
                        worst = (err, alpha, j as f64 / 10.0);
                    }
                }
            }
            let (err, alpha, kappa) = worst;
            println!("{name:<32} worst relative error {err:.1e} (α = {alpha:e}, κ = {kappa})");
            if err > 1e-12 {
                failed.push(format!("{name}: {err:.1e} at α = {alpha:e}, κ = {kappa}"));
            }
        }
        assert!(failed.is_empty(), "off by more than 1e-12: {failed:#?}");
    }

    /// `BroadcastExact`'s S0 hazard is the within-batch hypergeometric
    /// tail `P(X ≥ 2)`, `X ~ Hyp(χ, 4, ω)`, held to 1e-12 against exact
    /// rationals at χ = 2¹⁶ and ω ∈ {7, 16, 64}. At ω = 7 the hazard is
    /// about 7e-8, so "one minus the rest" keeps only its leading digits.
    #[test]
    fn s0_broadcast_exact_po_step_is_exact_to_1e_12() {
        let chi: i128 = 1 << 16;
        let falling = |x: i128, k: usize| (0..k as i128).map(|i| x - i).product::<i128>();
        let choose4 = [1, 4, 6, 4, 1];
        let mut failed = Vec::new();
        for omega in [7, 16, 64] {
            let p = AttackParams::new(chi as f64, omega as f64).unwrap();
            let exact = (2..=4).fold(Exact::int(0), |acc, j| {
                let ways = choose4[j] * falling(omega, j) * falling(chi - omega, 4 - j);
                acc.add(Exact::new(ways, falling(chi, 4)))
            });
            let err = rel_err(po_step(S0, ProbeModel::BroadcastExact, &p), exact);
            println!("po_step S0 BroadcastExact ω = {omega:<3} relative error {err:.1e}");
            if err > 1e-12 {
                failed.push(format!("ω = {omega}: {err:.1e}"));
            }
        }
        assert!(failed.is_empty(), "off by more than 1e-12: {failed:#?}");
    }
}
