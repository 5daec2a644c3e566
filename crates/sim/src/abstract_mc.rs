//! Step-by-step Monte-Carlo simulation of the abstract attack model.
//!
//! One [`AbstractModel`] trial walks unit time-steps, sampling per-key
//! Bernoulli hazards exactly as the analytic survival functions integrate
//! them (the broadcast-probe model of `fortress-model`): a
//! without-replacement attacker's per-remaining-key hazard at step `i` is
//! `ω/(χ − (i−1)ω)`; a PO defender resets keys (and the attacker's
//! eliminations) every step.
//!
//! The SO paths cost O(steps) per trial — use them to validate the O(1)
//! event-driven sampler and the closed forms, not for the `α = 10⁻⁵`
//! corner of Figure 1. Under PO the per-step state resets completely, so
//! the step loop collapses to one geometric draw: those trials are one
//! [`HazardTable`] draw on [`survival::po_step`], the same hazard the
//! closed forms and the event-driven sampler read, making PO trials O(1)
//! here too; the per-key hazard of the step walk serves SO only.

use crate::event_mc::HazardTable;
use crate::runner::trial_seed;
use fortress_model::params::{AttackParams, Policy, ProbeModel};
use fortress_model::{survival, LaunchPad, SystemKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Abstract-model Monte-Carlo configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbstractModel {
    /// System class (κ embedded for S2).
    pub kind: SystemKind,
    /// Obfuscation policy.
    pub policy: Policy,
    /// Attack parameters.
    pub params: AttackParams,
    /// Launch-pad semantics (S2 only).
    pub launch_pad: LaunchPad,
    /// Safety cap on simulated steps per trial.
    pub max_steps: u64,
}

impl AbstractModel {
    /// A model with the paper's launch-pad semantics and a generous cap.
    pub fn new(kind: SystemKind, policy: Policy, params: AttackParams) -> AbstractModel {
        AbstractModel {
            kind,
            policy,
            params,
            launch_pad: LaunchPad::NextStep,
            max_steps: 100_000_000,
        }
    }

    /// Runs `trials` step-by-step trials through the parallel runner and
    /// returns the lifetime estimate (deterministic at any thread count).
    pub fn estimate(&self, trials: u64, base_seed: u64) -> crate::stats::Estimate {
        self.estimate_with(
            &crate::runner::Runner::new(),
            crate::runner::TrialBudget::Fixed(trials),
            base_seed,
        )
    }

    /// [`AbstractModel::estimate`] with explicit runner and budget:
    /// trial `i` is [`simulate_once`] on the runner's per-trial stream,
    /// seeded from [`trial_seed`]`(base_seed, i)` as [`simulate_block`]
    /// seeds it.
    ///
    /// [`simulate_once`]: AbstractModel::simulate_once
    /// [`simulate_block`]: AbstractModel::simulate_block
    pub fn estimate_with(
        &self,
        runner: &crate::runner::Runner,
        budget: crate::runner::TrialBudget,
        base_seed: u64,
    ) -> crate::stats::Estimate {
        runner
            .run(base_seed, budget, |_, rng| self.simulate_once(rng) as f64)
            .estimate()
    }

    /// Simulates one trial; returns the step index (1-based) at which the
    /// system was compromised, capped at `max_steps`.
    ///
    /// PO trials are memoryless — every step sees the same hazard — so
    /// they are one [`HazardTable`] draw; SO trials walk the steps.
    pub fn simulate_once<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.policy == Policy::Proactive {
            let p = survival::po_step(self.kind, ProbeModel::Broadcast, &self.params);
            return HazardTable::new(p).sample(rng).min(self.max_steps);
        }
        match self.kind {
            SystemKind::S1Pb => self.run_shared_key(rng, 1.0),
            SystemKind::S0Smr => self.run_s0(rng),
            SystemKind::S2Fortress { kappa } => self.run_s2(rng, kappa),
        }
    }

    /// Fills `out[k]` with the lifetime of trial `start + k` under
    /// `base_seed` — the batched form of running [`simulate_once`] once
    /// per trial through the [runner](crate::runner::Runner), and
    /// bit-identical to it: both seed trial `start + k`'s [`SmallRng`]
    /// from [`trial_seed`]`(base_seed, start + k)`, so block boundaries
    /// cannot affect values.
    ///
    /// [`simulate_once`]: AbstractModel::simulate_once
    pub fn simulate_block(&self, base_seed: u64, start: u64, out: &mut [u64]) {
        for (k, slot) in out.iter_mut().enumerate() {
            let mut rng = SmallRng::seed_from_u64(trial_seed(base_seed, start + k as u64));
            *slot = self.simulate_once(&mut rng);
        }
    }

    /// Hazard of one specific key being among this step's probes, given
    /// `eliminated` values already ruled out.
    fn hazard(&self, eliminated: f64, rate: f64) -> f64 {
        let chi = self.params.chi();
        let remaining = (chi - eliminated).max(1.0);
        (rate / remaining).clamp(0.0, 1.0)
    }

    /// S1 under SO: one shared key probed without replacement by a
    /// broadcast stream at rate `scale·ω`.
    fn run_shared_key<R: Rng + ?Sized>(&self, rng: &mut R, scale: f64) -> u64 {
        let omega = self.params.omega() * scale;
        let mut eliminated = 0.0;
        for step in 1..=self.max_steps {
            let h = self.hazard(eliminated, omega);
            if rng.gen::<f64>() < h {
                return step;
            }
            eliminated += omega;
        }
        self.max_steps
    }

    /// S0 under SO: four distinct keys, cumulatively uncovered;
    /// compromised when two are held at once.
    fn run_s0<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let omega = self.params.omega();
        let mut eliminated = 0.0;
        let mut found = [false; 4];
        for step in 1..=self.max_steps {
            let h = self.hazard(eliminated, omega);
            let mut held = 0;
            for f in &mut found {
                if !*f && rng.gen::<f64>() < h {
                    *f = true;
                }
                if *f {
                    held += 1;
                }
            }
            if held >= 2 {
                return step;
            }
            eliminated += omega;
        }
        self.max_steps
    }

    /// S2 under SO: three distinct proxy keys (direct stream at ω) plus
    /// one shared server key (indirect stream at κω, plus the pad's ω
    /// once a proxy is held at the start of a step).
    fn run_s2<R: Rng + ?Sized>(&self, rng: &mut R, kappa: f64) -> u64 {
        let omega = self.params.omega();
        let mut proxy_eliminated = 0.0;
        let mut server_eliminated = 0.0;
        let mut proxies = [false; 3];
        for step in 1..=self.max_steps {
            let pad_active =
                self.launch_pad == LaunchPad::NextStep && proxies.iter().any(|p| *p);
            let server_rate = if pad_active {
                (1.0 + kappa) * omega
            } else {
                kappa * omega
            };
            let hs = self.hazard(server_eliminated, server_rate);
            let server_falls = rng.gen::<f64>() < hs;

            let hp = self.hazard(proxy_eliminated, omega);
            for p in &mut proxies {
                if !*p && rng.gen::<f64>() < hp {
                    *p = true;
                }
            }

            if server_falls {
                return step;
            }
            if proxies.iter().all(|p| *p) {
                return step;
            }
            proxy_eliminated += omega;
            server_eliminated += server_rate;
        }
        self.max_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_model::lifetime::expected_lifetime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn estimate(model: &AbstractModel, trials: u64, seed: u64) -> crate::stats::Estimate {
        model.estimate(trials, seed)
    }

    fn params(alpha: f64) -> AttackParams {
        // Small chi keeps SO trials short while alpha stays realistic.
        AttackParams::from_alpha(4096.0, alpha).unwrap()
    }

    #[test]
    fn s1_po_matches_geometric_lifetime() {
        let alpha = 0.02;
        let model = AbstractModel::new(SystemKind::S1Pb, Policy::Proactive, params(alpha));
        let est = estimate(&model, 4000, 1);
        let analytic =
            expected_lifetime(SystemKind::S1Pb, Policy::Proactive, ProbeModel::Broadcast, &params(alpha))
                .unwrap();
        assert!(
            est.contains(analytic) || (est.mean - analytic).abs() / analytic < 0.05,
            "MC {est:?} vs analytic {analytic}"
        );
    }

    #[test]
    fn s1_so_matches_uniform_lifetime() {
        let alpha = 0.01;
        let model = AbstractModel::new(SystemKind::S1Pb, Policy::StartupOnly, params(alpha));
        let est = estimate(&model, 4000, 2);
        let analytic = expected_lifetime(
            SystemKind::S1Pb,
            Policy::StartupOnly,
            ProbeModel::Broadcast,
            &params(alpha),
        )
        .unwrap();
        assert!(
            (est.mean - analytic).abs() / analytic < 0.05,
            "MC {est:?} vs analytic {analytic}"
        );
    }

    #[test]
    fn s0_so_matches_order_statistic_lifetime() {
        let alpha = 0.01;
        let model = AbstractModel::new(SystemKind::S0Smr, Policy::StartupOnly, params(alpha));
        let est = estimate(&model, 4000, 3);
        let analytic = expected_lifetime(
            SystemKind::S0Smr,
            Policy::StartupOnly,
            ProbeModel::Broadcast,
            &params(alpha),
        )
        .unwrap();
        assert!(
            (est.mean - analytic).abs() / analytic < 0.05,
            "MC {est:?} vs analytic {analytic}"
        );
    }

    #[test]
    fn s2_po_matches_closed_form() {
        let alpha = 0.02;
        let kappa = 0.5;
        let model = AbstractModel::new(
            SystemKind::S2Fortress { kappa },
            Policy::Proactive,
            params(alpha),
        );
        let est = estimate(&model, 4000, 4);
        let analytic = expected_lifetime(
            SystemKind::S2Fortress { kappa },
            Policy::Proactive,
            ProbeModel::Broadcast,
            &params(alpha),
        )
        .unwrap();
        assert!(
            (est.mean - analytic).abs() / analytic < 0.06,
            "MC {est:?} vs analytic {analytic}"
        );
    }

    #[test]
    fn s2_so_matches_survival_integral() {
        let alpha = 0.01;
        let kappa = 0.4;
        let model = AbstractModel::new(
            SystemKind::S2Fortress { kappa },
            Policy::StartupOnly,
            params(alpha),
        );
        let est = estimate(&model, 4000, 5);
        let analytic = fortress_model::lifetime::expected_lifetime_s2_so(
            &params(alpha),
            kappa,
            LaunchPad::NextStep,
        );
        assert!(
            (est.mean - analytic).abs() / analytic < 0.06,
            "MC {est:?} vs analytic {analytic}"
        );
    }

    #[test]
    fn s2_so_pad_ablation_ordering() {
        let alpha = 0.01;
        let kappa = 0.2;
        let mut with_pad = AbstractModel::new(
            SystemKind::S2Fortress { kappa },
            Policy::StartupOnly,
            params(alpha),
        );
        with_pad.launch_pad = LaunchPad::NextStep;
        let mut without = with_pad;
        without.launch_pad = LaunchPad::Disabled;
        let e_with = estimate(&with_pad, 2000, 6);
        let e_without = estimate(&without, 2000, 7);
        assert!(
            e_with.mean < e_without.mean,
            "pads must shorten lifetimes: {e_with:?} vs {e_without:?}"
        );
    }

    #[test]
    fn s0_po_matches_closed_form() {
        let alpha = 0.02;
        let model = AbstractModel::new(SystemKind::S0Smr, Policy::Proactive, params(alpha));
        let est = estimate(&model, 4000, 8);
        let analytic = expected_lifetime(
            SystemKind::S0Smr,
            Policy::Proactive,
            ProbeModel::Broadcast,
            &params(alpha),
        )
        .unwrap();
        assert!(
            (est.mean - analytic).abs() / analytic < 0.06,
            "MC {est:?} vs analytic {analytic}"
        );
    }

    #[test]
    fn block_mode_matches_per_trial_seeding_bit_for_bit() {
        // A block of n trials must equal n counter-seeded runner trials
        // for every system/policy pair: each slot runs `simulate_once`
        // on its own counter-seeded stream and must land on the runner's
        // exact bits.
        use rand::rngs::SmallRng;
        let cases: Vec<(SystemKind, Policy)> = vec![
            (SystemKind::S1Pb, Policy::Proactive),
            (SystemKind::S0Smr, Policy::Proactive),
            (SystemKind::S2Fortress { kappa: 0.5 }, Policy::Proactive),
            (SystemKind::S1Pb, Policy::StartupOnly),
            (SystemKind::S0Smr, Policy::StartupOnly),
            (SystemKind::S2Fortress { kappa: 0.5 }, Policy::StartupOnly),
        ];
        for (kind, policy) in cases {
            let model = AbstractModel::new(kind, policy, params(0.02));
            let base = 0xAB_B10C;
            let mut block = [0u64; 256];
            model.simulate_block(base, 0, &mut block);
            for (t, &got) in block.iter().enumerate() {
                let mut rng =
                    SmallRng::seed_from_u64(crate::runner::trial_seed(base, t as u64));
                let want = model.simulate_once(&mut rng);
                assert_eq!(got, want, "{kind:?}/{policy:?} trial {t}");
            }
        }
    }

    #[test]
    fn block_boundaries_cannot_change_abstract_draws() {
        // Counter seeding makes the partition irrelevant, so workers can
        // carve a cell's trial range at arbitrary chunk boundaries.
        let model = AbstractModel::new(
            SystemKind::S2Fortress { kappa: 0.5 },
            Policy::Proactive,
            params(0.02),
        );
        let base = 0xAB_0002;
        let mut whole = [0u64; 300];
        model.simulate_block(base, 0, &mut whole);
        let mut split = [0u64; 300];
        for (lo, hi) in [(0usize, 7), (7, 130), (130, 131), (131, 300)] {
            model.simulate_block(base, lo as u64, &mut split[lo..hi]);
        }
        assert_eq!(whole, split);
    }

    /// `estimate_with`'s `(mean bits, n)` for S0, S1 and S2(κ = 0.5) ×
    /// SO/PO at a fixed budget and seed, at 1 and 4 threads, against a
    /// table taken while the estimate still ran through a scenario
    /// closure: the runner's own per-trial stream must land on the same
    /// bits.
    #[test]
    fn estimate_with_keeps_its_pinned_bits() {
        use crate::runner::{Runner, TrialBudget};
        let s2 = SystemKind::S2Fortress { kappa: 0.5 };
        let want = [
            (SystemKind::S0Smr, Policy::StartupOnly, 0x4034_beb8_51eb_851e, 3000),
            (SystemKind::S0Smr, Policy::Proactive, 0x407a_f4a2_7983_c131, 3000),
            (SystemKind::S1Pb, Policy::StartupOnly, 0x4039_edfe_a279_83ba, 3000),
            (SystemKind::S1Pb, Policy::Proactive, 0x4049_3106_24dd_2f20, 3000),
            (s2, Policy::StartupOnly, 0x4037_9307_8263_ab52, 3000),
            (s2, Policy::Proactive, 0x4059_2c65_08df_ea2a, 3000),
        ];
        for threads in [1, 4] {
            let got: Vec<_> = want
                .iter()
                .map(|&(kind, policy, ..)| {
                    let est = AbstractModel::new(kind, policy, params(0.02)).estimate_with(
                        &Runner::with_threads(threads),
                        TrialBudget::Fixed(3000),
                        0xAB_5EED,
                    );
                    (kind, policy, est.mean.to_bits(), est.n)
                })
                .collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn po_block_respects_max_steps_cap() {
        let mut model = AbstractModel::new(
            SystemKind::S1Pb,
            Policy::Proactive,
            AttackParams::from_alpha(1e9, 1e-9).unwrap(),
        );
        model.max_steps = 40;
        let mut block = [0u64; 64];
        model.simulate_block(3, 0, &mut block);
        assert!(block.iter().all(|&t| t <= 40), "cap must clamp block draws");
        assert!(block.contains(&40), "tiny hazard must hit the cap");
    }

    #[test]
    fn max_steps_caps_runaway_trials() {
        let mut model = AbstractModel::new(
            SystemKind::S2Fortress { kappa: 0.0 },
            Policy::Proactive,
            AttackParams::from_alpha(1e9, 1e-9).unwrap(),
        );
        model.max_steps = 50;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(model.simulate_once(&mut rng), 50);
    }
}
