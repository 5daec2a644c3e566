//! Chain builders for the paper's system classes.
//!
//! The paper evaluates proactive obfuscation with re-randomization period
//! `P = 1` unit time-step. These builders generalize to arbitrary finite `P`:
//! within a period, compromised nodes stay compromised and (for S2) serve as
//! launch pads; at each period boundary every node is re-randomized, which
//! resets the attacker's footholds. `P = 1` reproduces the paper's PO
//! systems exactly; growing `P` interpolates toward SO behavior (the
//! `ablation-period` table of the `figures` binary).
//!
//! Per-phase hazards are expressed directly through `α` (Definition 6 of the
//! paper), under the paper's own assumption "that χ is large compared to ω",
//! which makes within-period key-space depletion negligible.
//!
//! State spaces:
//!
//! * **S1** — `(phase)`: the shared server key either falls (absorb) or not.
//! * **S0** — `(phase, keys_found ∈ {0,1})`: absorb when the second of the
//!   four distinct replica keys is uncovered within one period.
//! * **S2** — `(phase, proxies_down ∈ {0,1,2,3})`: absorb when the shared
//!   server key falls (`server` state) or all three proxies are
//!   simultaneously compromised (`proxies` state).

use crate::chain::AbsorbingChain;
use crate::error::ChainError;

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
    /// Short label used in figures and state names.
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

    /// Builds the absorbing chain for this spec.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidProbability`] for `alpha`/`kappa` outside
    /// `(0,1]`/`[0,1]`, or a zero period.
    pub fn build(&self) -> Result<AbsorbingChain, ChainError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ChainError::InvalidProbability {
                from: "spec".into(),
                to: "alpha".into(),
                value: self.alpha,
            });
        }
        if self.period == 0 {
            return Err(ChainError::InvalidProbability {
                from: "spec".into(),
                to: "period".into(),
                value: 0.0,
            });
        }
        if let SystemKind::S2Fortress { kappa } = self.kind {
            if !(0.0..=1.0).contains(&kappa) || !kappa.is_finite() {
                return Err(ChainError::InvalidProbability {
                    from: "spec".into(),
                    to: "kappa".into(),
                    value: kappa,
                });
            }
        }
        match self.kind {
            SystemKind::S0Smr => build_s0(self.alpha, self.period),
            SystemKind::S1Pb => build_s1(self.alpha, self.period),
            SystemKind::S2Fortress { kappa } => {
                build_s2(self.alpha, kappa, self.period, self.launch_pad)
            }
        }
    }

    /// Convenience: expected lifetime from the all-correct initial state.
    ///
    /// # Errors
    ///
    /// As for [`PeriodChainSpec::build`] plus chain analysis errors.
    pub fn expected_lifetime(&self) -> Result<f64, ChainError> {
        let chain = self.build()?;
        chain.expected_steps_from(&initial_label(self.kind))
    }
}

/// Label of the initial (all-correct, phase 0) state for `kind`.
fn initial_label(kind: SystemKind) -> String {
    match kind {
        SystemKind::S0Smr => state_label("S0", 0, 0),
        SystemKind::S1Pb => state_label("S1", 0, 0),
        SystemKind::S2Fortress { .. } => state_label("S2", 0, 0),
    }
}

fn state_label(sys: &str, phase: usize, found: usize) -> String {
    format!("{sys}:phase{phase}:found{found}")
}

/// Binomial pmf `P(X = k)` for `X ~ Bin(n, p)` with small `n`.
fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    let choose = |n: usize, k: usize| -> f64 {
        let mut c = 1.0;
        for i in 0..k {
            c = c * (n - i) as f64 / (i + 1) as f64;
        }
        c
    };
    choose(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// S1: one shared key; state is just the phase (no accumulation matters
/// because a single key either falls — absorbing — or does not).
fn build_s1(alpha: f64, period: usize) -> Result<AbsorbingChain, ChainError> {
    let mut b = AbsorbingChain::builder().absorbing("compromised");
    for j in 0..period {
        b = b.transient(&state_label("S1", j, 0));
    }
    for j in 0..period {
        let here = state_label("S1", j, 0);
        let next = state_label("S1", (j + 1) % period, 0);
        b = b
            .transition(&here, "compromised", alpha)
            .transition(&here, &next, 1.0 - alpha);
    }
    b.build()
}

/// S0: four distinct keys; compromise when two are uncovered within one
/// period. States track (phase, keys found so far this period ∈ {0,1}).
fn build_s0(alpha: f64, period: usize) -> Result<AbsorbingChain, ChainError> {
    let mut b = AbsorbingChain::builder().absorbing("compromised");
    for j in 0..period {
        for f in 0..=1usize {
            b = b.transient(&state_label("S0", j, f));
        }
    }
    for j in 0..period {
        for f in 0..=1usize {
            let here = state_label("S0", j, f);
            let remaining = 4 - f;
            // g = newly found keys this phase.
            let mut p_absorb = 0.0;
            let mut p_stay = [0.0; 2]; // next found-count 0..=1
            for g in 0..=remaining {
                let pg = binomial_pmf(remaining, g, alpha);
                let total = f + g;
                if total >= 2 {
                    p_absorb += pg;
                } else {
                    // Survives the phase; period boundary resets the count.
                    let next_found = if j + 1 == period { 0 } else { total };
                    p_stay[next_found] += pg;
                }
            }
            let next_phase = (j + 1) % period;
            b = b.transition(&here, "compromised", p_absorb);
            for (nf, p) in p_stay.iter().enumerate() {
                if *p > 0.0 {
                    b = b.transition(&here, &state_label("S0", next_phase, nf), *p);
                }
            }
        }
    }
    b.build()
}

/// S2: three proxies with distinct keys, three servers sharing one key.
/// States track (phase, proxies currently compromised ∈ {0..3}); two
/// absorbing states distinguish the compromise path.
fn build_s2(
    alpha: f64,
    kappa: f64,
    period: usize,
    launch_pad: LaunchPad,
) -> Result<AbsorbingChain, ChainError> {
    let mut b = AbsorbingChain::builder()
        .absorbing("server-compromised")
        .absorbing("all-proxies-compromised");
    for j in 0..period {
        for pf in 0..=2usize {
            b = b.transient(&state_label("S2", j, pf));
        }
    }
    for j in 0..period {
        for pf in 0..=2usize {
            let here = state_label("S2", j, pf);
            // Server hazard this phase: indirect probes always; direct
            // probes too when a pad is active.
            let pad_active = pf >= 1 && launch_pad == LaunchPad::NextStep;
            let s = if pad_active {
                1.0 - (1.0 - kappa * alpha) * (1.0 - alpha)
            } else {
                kappa * alpha
            };
            let remaining = 3 - pf;
            let next_phase = (j + 1) % period;
            let mut p_server = 0.0;
            let mut p_proxies = 0.0;
            let mut p_stay = [0.0; 3];
            for g in 0..=remaining {
                let pg = binomial_pmf(remaining, g, alpha);
                let total = pf + g;
                // Server falling absorbs regardless of proxies.
                p_server += pg * s;
                let survive_server = pg * (1.0 - s);
                if total >= 3 {
                    p_proxies += survive_server;
                } else {
                    let next_pf = if j + 1 == period { 0 } else { total };
                    p_stay[next_pf] += survive_server;
                }
            }
            b = b
                .transition(&here, "server-compromised", p_server)
                .transition(&here, "all-proxies-compromised", p_proxies);
            for (npf, p) in p_stay.iter().enumerate() {
                if *p > 0.0 {
                    b = b.transition(&here, &state_label("S2", next_phase, npf), *p);
                }
            }
        }
    }
    b.build()
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

    #[test]
    fn s0_period_one_matches_binomial_closed_form() {
        // p = P(Bin(4, alpha) >= 2)
        let a = ALPHA;
        let p_step = 1.0
            - binomial_pmf(4, 0, a)
            - binomial_pmf(4, 1, a);
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

    #[test]
    fn s2_absorption_path_split() {
        // With kappa = 0 and P = 1, absorption must be 100% via proxies.
        let spec = PeriodChainSpec::paper(SystemKind::S2Fortress { kappa: 0.0 }, 1e-2);
        let chain = spec.build().unwrap();
        let b = chain.absorption_probabilities().unwrap();
        let idx = chain
            .transient_index(&initial_label(spec.kind))
            .unwrap();
        let server_col = chain
            .absorbing_labels()
            .iter()
            .position(|l| l == "server-compromised")
            .unwrap();
        let proxies_col = chain
            .absorbing_labels()
            .iter()
            .position(|l| l == "all-proxies-compromised")
            .unwrap();
        assert!(b.get(idx, server_col).abs() < 1e-12);
        assert!((b.get(idx, proxies_col) - 1.0).abs() < 1e-9);

        // With kappa = 0.5 the server path dominates overwhelmingly.
        let spec = PeriodChainSpec::paper(SystemKind::S2Fortress { kappa: 0.5 }, 1e-3);
        let chain = spec.build().unwrap();
        let b = chain.absorption_probabilities().unwrap();
        let idx = chain.transient_index(&initial_label(spec.kind)).unwrap();
        assert!(b.get(idx, server_col) > 0.999);
    }

    #[test]
    fn longer_period_reduces_s0_lifetime() {
        // Persistence across phases makes the 2-of-4 condition easier.
        let mut prev = el(SystemKind::S0Smr, 1e-2, 1);
        for p in [2usize, 4, 8, 16] {
            let cur = el(SystemKind::S0Smr, 1e-2, p);
            assert!(
                cur < prev * (1.0 + 1e-12),
                "P={p}: EL {cur} not <= {prev}"
            );
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
        assert!(PeriodChainSpec::paper(SystemKind::S1Pb, 0.0).build().is_err());
        assert!(PeriodChainSpec::paper(SystemKind::S1Pb, 1.0).build().is_err());
        assert!(PeriodChainSpec {
            kind: SystemKind::S1Pb,
            alpha: 0.5,
            period: 0,
            launch_pad: LaunchPad::NextStep,
        }
        .build()
        .is_err());
        assert!(
            PeriodChainSpec::paper(SystemKind::S2Fortress { kappa: 1.5 }, 0.5)
                .build()
                .is_err()
        );
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
        assert_eq!(initial_label(SystemKind::S0Smr), "S0:phase0:found0");
    }
}
