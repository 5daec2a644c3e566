//! Event-driven lifetime sampling: O(1) per trial.
//!
//! Rather than walking steps, each trial samples the *discovery step* of
//! every relevant key directly from its distribution and combines them:
//!
//! * **SO** (without replacement): a key's position in the attacker's probe
//!   order is uniform over `{1..χ}`, so its discovery step is
//!   `⌈position/ω⌉`. S0 takes the 2nd order statistic of four positions;
//!   S2 splices the server stream's rate change at the first proxy fall
//!   (the launch pad).
//! * **PO** (with replacement): per-step compromise probabilities are the
//!   geometric parameters from `fortress-model`, sampled by inversion.
//!
//! Equality in distribution with the step-by-step engine is asserted by
//! tests in both modules; this engine is what makes simulating expected
//! lifetimes of ~10⁶ steps (Figure 1's small-α corner) instantaneous.

use fortress_model::LaunchPad;
use fortress_model::params::{AttackParams, Policy, ProbeModel};
use fortress_model::{survival, SystemKind};
use rand::Rng;

/// A geometric hazard with its log-survival denominator precomputed —
/// the table-driven form of `sample_geometric`.
///
/// The denominator is `ln(1−p)` computed as `(−p).ln_1p()`: for the tiny
/// `p` of the small-α corner (`p ≈ 10⁻⁹` and below), `(1.0 - p).ln()`
/// rounds `1.0 - p` to 1 and collapses to `ln(1) = 0`, turning the
/// division into ±inf; `ln_1p` keeps full precision down to the smallest
/// subnormal `p`.
///
/// Within a campaign cell `p` is a constant, so the `ln_1p` call — by far
/// the most expensive instruction of a draw — can be hoisted out of the
/// trial loop. The cached value is the **denominator**, and
/// [`HazardTable::sample`] still divides by it: caching the *reciprocal*
/// and multiplying would round differently (two roundings instead of
/// one) and silently break every golden that pins lifetimes.
#[derive(Clone, Copy, Debug)]
pub struct HazardTable {
    p: f64,
    /// `ln(1 − p)` via `ln_1p`; meaningful only for `0 < p < 1`.
    ln_q: f64,
}

impl HazardTable {
    /// Builds the table for per-step success probability `p`.
    pub fn new(p: f64) -> HazardTable {
        HazardTable { p, ln_q: (-p).ln_1p() }
    }

    /// Samples one geometric step count (1-based) by inversion —
    /// bit-identical to `sample_geometric(p, rng)` for the `p` the table
    /// was built for.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        if self.p <= 0.0 {
            return u64::MAX;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let steps = u.ln() / self.ln_q;
        if steps >= u64::MAX as f64 {
            return u64::MAX;
        }
        steps.ceil().max(1.0) as u64
    }
}

/// Samples a geometric step count (1-based) with success probability `p`
/// by inversion. One-shot form of [`HazardTable`] — the table is the
/// single definition of the arithmetic, so the two are bit-identical.
fn sample_geometric<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    HazardTable::new(p).sample(rng)
}

/// Samples the discovery step of a key probed at `rate` values per step
/// out of a pool of `chi` (without replacement): position uniform, step =
/// ⌈position/rate⌉.
fn sample_discovery_step<R: Rng + ?Sized>(chi: f64, rate: f64, rng: &mut R) -> u64 {
    let position = rng.gen::<f64>() * chi;
    (position / rate).ceil().max(1.0) as u64
}

/// Samples one system lifetime (whole unit time-steps until compromise).
///
/// For S2 under SO, `launch_pad` selects the paper semantics
/// ([`LaunchPad::NextStep`]) or the ablation ([`LaunchPad::Disabled`]).
pub fn sample_lifetime<R: Rng + ?Sized>(
    kind: SystemKind,
    policy: Policy,
    params: &AttackParams,
    launch_pad: LaunchPad,
    rng: &mut R,
) -> u64 {
    let chi = params.chi();
    let omega = params.omega();
    match (kind, policy) {
        (_, Policy::Proactive) => {
            sample_geometric(survival::po_step(kind, ProbeModel::Broadcast, params), rng)
        }
        (SystemKind::S1Pb, Policy::StartupOnly) => sample_discovery_step(chi, omega, rng),
        (SystemKind::S0Smr, Policy::StartupOnly) => {
            // Fixed-size arrays keep the hot path allocation-free; the
            // runner executes this millions of times per figure.
            let mut steps = [0u64; 4];
            for s in &mut steps {
                *s = sample_discovery_step(chi, omega, rng);
            }
            steps.sort_unstable();
            steps[1] // second key uncovered compromises S0
        }
        (SystemKind::S2Fortress { kappa }, Policy::StartupOnly) => {
            // Proxy discovery steps (distinct keys, shared probe stream).
            let mut proxies = [0u64; 3];
            for p in &mut proxies {
                *p = sample_discovery_step(chi, omega, rng);
            }
            proxies.sort_unstable();
            let first_proxy = proxies[0];
            let all_proxies = proxies[2];

            // Server key position in its own probe order.
            let server_position = rng.gen::<f64>() * chi;
            let indirect_rate = kappa * omega;
            let server_step = match launch_pad {
                LaunchPad::Disabled => {
                    if indirect_rate <= 0.0 {
                        u64::MAX
                    } else {
                        (server_position / indirect_rate).ceil().max(1.0) as u64
                    }
                }
                LaunchPad::NextStep => {
                    // Indirect rate until the pad activates, then (1+κ)ω.
                    let eliminated_at_pad = indirect_rate * first_proxy as f64;
                    if server_position < eliminated_at_pad {
                        (server_position / indirect_rate).ceil().max(1.0) as u64
                    } else {
                        let pad_rate = (1.0 + kappa) * omega;
                        let extra = (server_position - eliminated_at_pad) / pad_rate;
                        (first_proxy as f64 + extra.max(0.0)).ceil().max(1.0) as u64
                    }
                }
            };
            server_step.min(all_proxies)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, TrialBudget};
    use crate::stats::RunningStats;
    use fortress_model::lifetime::{expected_lifetime, expected_lifetime_s2_so};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mc_mean(
        kind: SystemKind,
        policy: Policy,
        params: &AttackParams,
        pad: LaunchPad,
        trials: u64,
        seed: u64,
    ) -> f64 {
        let params = *params;
        Runner::new()
            .run(seed, TrialBudget::Fixed(trials), move |_, rng| {
                sample_lifetime(kind, policy, &params, pad, rng) as f64
            })
            .mean()
    }

    fn params(alpha: f64) -> AttackParams {
        AttackParams::from_alpha(65536.0, alpha).unwrap()
    }

    #[test]
    fn matches_analytic_for_every_system_policy_pair() {
        let p = params(1e-3);
        let cases: Vec<(SystemKind, Policy)> = vec![
            (SystemKind::S1Pb, Policy::Proactive),
            (SystemKind::S1Pb, Policy::StartupOnly),
            (SystemKind::S0Smr, Policy::Proactive),
            (SystemKind::S0Smr, Policy::StartupOnly),
            (SystemKind::S2Fortress { kappa: 0.5 }, Policy::Proactive),
            (SystemKind::S2Fortress { kappa: 0.5 }, Policy::StartupOnly),
        ];
        for (seed, (kind, policy)) in cases.into_iter().enumerate() {
            let analytic =
                expected_lifetime(kind, policy, ProbeModel::Broadcast, &p).unwrap();
            let trials = if analytic > 1e5 { 40_000 } else { 20_000 };
            let mc = mc_mean(kind, policy, &p, LaunchPad::NextStep, trials, seed as u64);
            let rel = (mc - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "{kind:?}/{policy:?}: MC {mc} vs analytic {analytic} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn event_driven_is_fast_for_tiny_alpha() {
        // EL(S0PO) at alpha = 1e-5 is ~1.7e9 steps; the sampler must not care.
        let p = params(1e-5);
        let mc = mc_mean(
            SystemKind::S0Smr,
            Policy::Proactive,
            &p,
            LaunchPad::NextStep,
            10_000,
            9,
        );
        let analytic =
            expected_lifetime(SystemKind::S0Smr, Policy::Proactive, ProbeModel::Broadcast, &p)
                .unwrap();
        assert!(
            (mc - analytic).abs() / analytic < 0.1,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn s2_so_pad_matches_analytic() {
        let p = params(1e-3);
        for kappa in [0.1, 0.5, 0.9] {
            let analytic = expected_lifetime_s2_so(&p, kappa, LaunchPad::NextStep);
            let mc = mc_mean(
                SystemKind::S2Fortress { kappa },
                Policy::StartupOnly,
                &p,
                LaunchPad::NextStep,
                20_000,
                11,
            );
            let rel = (mc - analytic).abs() / analytic;
            assert!(rel < 0.05, "kappa {kappa}: MC {mc} vs analytic {analytic}");
        }
    }

    #[test]
    fn s2_so_kappa_zero_disabled_is_pure_proxy_race() {
        let p = params(1e-2);
        let mc = mc_mean(
            SystemKind::S2Fortress { kappa: 0.0 },
            Policy::StartupOnly,
            &p,
            LaunchPad::Disabled,
            20_000,
            13,
        );
        // Max of 3 uniforms over T_p = 100 steps: mean 3/4 · 100 = 75.
        let t_p = p.chi() / p.omega();
        assert!((mc - 0.75 * t_p).abs() / (0.75 * t_p) < 0.05, "{mc}");
    }

    #[test]
    fn geometric_sampler_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_geometric(1.0, &mut rng), 1);
        assert_eq!(sample_geometric(0.0, &mut rng), u64::MAX);
        // Mean check for p = 0.25.
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(sample_geometric(0.25, &mut rng) as f64);
        }
        assert!((stats.mean() - 4.0).abs() < 0.15, "{}", stats.mean());
    }

    #[test]
    fn geometric_sampler_survives_tiny_p() {
        // ln(1 - p) naively evaluates to 0 once p < 2⁻⁵³; the ln_1p form
        // must keep producing finite, unbiased step counts. Mean of the
        // geometric is 1/p = 2⁶⁰; check the log-scale magnitude.
        let mut rng = StdRng::seed_from_u64(2);
        let p = (2.0f64).powi(-60);
        let mut stats = RunningStats::new();
        for _ in 0..2_000 {
            let steps = sample_geometric(p, &mut rng);
            assert!(steps < u64::MAX, "inversion overflowed");
            stats.push((steps as f64).ln());
        }
        // E[ln X] = ln(1/p) − γ for an exponential; γ ≈ 0.5772.
        let expected = (1.0 / p).ln() - 0.5772;
        assert!(
            (stats.mean() - expected).abs() < 0.1,
            "mean log-lifetime {} vs {expected}",
            stats.mean()
        );
    }

    #[test]
    fn hazard_table_matches_sample_geometric_bit_for_bit() {
        // The table caches the ln_1p denominator; the draw arithmetic
        // must stay bit-identical across the whole p range, including
        // the subnormal-adjacent corner the ln_1p form exists for.
        for (i, p) in [0.9, 0.25, 1e-3, 1e-9, (2.0f64).powi(-60)].into_iter().enumerate() {
            let table = HazardTable::new(p);
            let mut a = StdRng::seed_from_u64(100 + i as u64);
            let mut b = StdRng::seed_from_u64(100 + i as u64);
            for _ in 0..1_000 {
                assert_eq!(sample_geometric(p, &mut a), table.sample(&mut b), "p = {p}");
            }
        }
    }

    #[test]
    fn paper_trends_reproduced_by_sampling() {
        // The §6 ordering at alpha = 1e-3, kappa = 0.5, via simulation only.
        let p = params(1e-3);
        let pad = LaunchPad::NextStep;
        let s0po = mc_mean(SystemKind::S0Smr, Policy::Proactive, &p, pad, 30_000, 21);
        let s2po = mc_mean(
            SystemKind::S2Fortress { kappa: 0.5 },
            Policy::Proactive,
            &p,
            pad,
            30_000,
            22,
        );
        let s1po = mc_mean(SystemKind::S1Pb, Policy::Proactive, &p, pad, 30_000, 23);
        let s1so = mc_mean(SystemKind::S1Pb, Policy::StartupOnly, &p, pad, 30_000, 24);
        let s0so = mc_mean(SystemKind::S0Smr, Policy::StartupOnly, &p, pad, 30_000, 25);
        assert!(
            s0po > s2po && s2po > s1po && s1po > s1so && s1so > s0so,
            "ordering violated: S0PO={s0po} S2PO={s2po} S1PO={s1po} S1SO={s1so} S0SO={s0so}"
        );
    }
}
