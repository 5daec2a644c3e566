//! Attack and obfuscation parameters.
//!
//! The paper's two independent attack knobs are the key-space size `χ`
//! (determined by randomization-key entropy, §4.1: "we consider the case
//! χ = 2^16") and the attacker's probe budget `ω` per unit time-step. They
//! combine into `α = ω/χ`, Definition 6's per-step direct-attack success
//! probability on a freshly randomized node. The evaluation (§5) sweeps
//! `α ∈ [10⁻⁵, 10⁻²]`.

use crate::error::ModelError;

// The obfuscation policy (§4.1) is the one the substrate applies, named
// here too so every `params::Policy` path resolves.
pub use fortress_obf::schedule::Policy;

/// How probes interact with replicas (see the [crate docs](crate)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProbeModel {
    /// Paper model: one probe (a malicious service request carrying one
    /// guessed key value) reaches **every** replica; cross-key success
    /// events within a step are treated as independent (binomial), per the
    /// paper's `χ ≫ ω` assumption.
    #[default]
    Broadcast,
    /// Like [`ProbeModel::Broadcast`] but with the exact within-batch
    /// hypergeometric joint for multiple distinct keys (S0's four keys, S2's
    /// three proxy keys). Negligibly different for `χ ≫ ω`; provided as the
    /// exactness reference.
    BroadcastExact,
    /// Ablation: each node is probed by its own independent stream with its
    /// own elimination pool. Under this model trend 1 of the paper
    /// (S1SO → S0SO) *reverses* — see the `ABL-PROBE` experiment.
    IndependentPerNode,
}

/// Attack parameters: key-space size and per-step probe budget.
///
/// `chi` and `omega` are kept as `f64` so that `α`-parameterized sweeps can
/// express fractional expected probe rates (e.g. `α = 10⁻⁵` at `χ = 2^16`
/// gives `ω ≈ 0.66` probes per step, i.e. one probe every ~1.5 steps).
///
/// # Example
///
/// ```
/// use fortress_model::params::AttackParams;
///
/// let p = AttackParams::new(65536.0, 64.0)?;
/// assert!((p.alpha() - 64.0 / 65536.0).abs() < 1e-12);
/// let q = AttackParams::from_alpha(65536.0, 1e-3)?;
/// assert!((q.omega() - 65.536).abs() < 1e-9);
/// # Ok::<(), fortress_model::ModelError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AttackParams {
    chi: f64,
    omega: f64,
}

impl AttackParams {
    /// Creates parameters from a key-space size and probe rate.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive `chi`, negative `omega`, or
    /// `omega >= chi`.
    pub fn new(chi: f64, omega: f64) -> Result<AttackParams, ModelError> {
        if !chi.is_finite() || chi < 2.0 {
            return Err(ModelError::invalid("chi", chi, "[2, inf)"));
        }
        if !omega.is_finite() || omega <= 0.0 {
            return Err(ModelError::invalid("omega", omega, "(0, inf)"));
        }
        if omega >= chi {
            return Err(ModelError::invalid("omega", omega, "(0, chi)"));
        }
        Ok(AttackParams { chi, omega })
    }

    /// Creates parameters from `χ` and the paper's `α = ω/χ`.
    ///
    /// # Errors
    ///
    /// Rejects `alpha` outside `(0, 1)` and invalid `chi`.
    pub fn from_alpha(chi: f64, alpha: f64) -> Result<AttackParams, ModelError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(ModelError::invalid("alpha", alpha, "(0, 1)"));
        }
        AttackParams::new(chi, alpha * chi)
    }

    /// Creates parameters for an `n`-bit randomization key entropy
    /// (`χ = 2^n`), as in PaX's 16 bits.
    ///
    /// # Errors
    ///
    /// As for [`AttackParams::from_alpha`].
    pub fn from_entropy_bits(bits: u32, alpha: f64) -> Result<AttackParams, ModelError> {
        AttackParams::from_alpha((2.0f64).powi(bits as i32), alpha)
    }

    /// Key-space size `χ`.
    pub fn chi(&self) -> f64 {
        self.chi
    }

    /// Probes per unit time-step `ω`.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// The paper's `α = ω/χ` (Definition 6).
    pub fn alpha(&self) -> f64 {
        self.omega / self.chi
    }

    /// Number of whole steps after which a without-replacement attacker has
    /// exhausted the key space: `⌈χ/ω⌉`.
    pub fn exhaustion_steps(&self) -> usize {
        (self.chi / self.omega).ceil() as usize
    }
}

/// The standard α grid of the paper's evaluation: log-spaced points across
/// `[10⁻⁵, 10⁻²]` ("a realistic range", §5).
pub fn paper_alpha_grid(points_per_decade: usize) -> Vec<f64> {
    let lo = 1e-5f64;
    let hi = 1e-2f64;
    let decades = (hi / lo).log10();
    let n = (decades * points_per_decade as f64).round() as usize;
    (0..=n)
        .map(|i| lo * 10f64.powf(decades * i as f64 / n as f64))
        .collect()
}

/// The κ grid used by Figure 2: `{0.0, 0.1, …, 1.0}`.
pub fn paper_kappa_grid() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// The α grid paired with ready-validated [`AttackParams`] at key-space
/// size `chi` — the form every sweep consumer (figure generators,
/// runner-based tests) actually wants, so the validation
/// happens once per grid instead of once per consumer per row.
pub fn paper_alpha_params(
    points_per_decade: usize,
    chi: f64,
) -> Result<Vec<(f64, AttackParams)>, ModelError> {
    paper_alpha_grid(points_per_decade)
        .into_iter()
        .map(|alpha| Ok((alpha, AttackParams::from_alpha(chi, alpha)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_omega_roundtrip() {
        let p = AttackParams::from_alpha(65536.0, 1e-3).unwrap();
        assert!((p.alpha() - 1e-3).abs() < 1e-15);
        assert!((p.omega() - 65.536).abs() < 1e-9);
    }

    #[test]
    fn entropy_bits() {
        let p = AttackParams::from_entropy_bits(16, 1e-2).unwrap();
        assert_eq!(p.chi(), 65536.0);
    }

    #[test]
    fn validation() {
        assert!(AttackParams::new(1.0, 0.5).is_err());
        assert!(AttackParams::new(100.0, 0.0).is_err());
        assert!(AttackParams::new(100.0, 100.0).is_err());
        assert!(AttackParams::new(f64::NAN, 1.0).is_err());
        assert!(AttackParams::from_alpha(65536.0, 0.0).is_err());
        assert!(AttackParams::from_alpha(65536.0, 1.0).is_err());
    }

    #[test]
    fn exhaustion_steps() {
        let p = AttackParams::new(1000.0, 10.0).unwrap();
        assert_eq!(p.exhaustion_steps(), 100);
        let q = AttackParams::new(1000.0, 3.0).unwrap();
        assert_eq!(q.exhaustion_steps(), 334);
    }

    #[test]
    fn alpha_grid_covers_range() {
        let grid = paper_alpha_grid(5);
        assert!((grid.first().unwrap() - 1e-5).abs() < 1e-12);
        assert!((grid.last().unwrap() - 1e-2).abs() < 1e-8);
        assert_eq!(grid.len(), 16);
        assert!(grid.windows(2).all(|w| w[0] < w[1]), "monotone");
    }

    #[test]
    fn alpha_params_matches_grid() {
        let grid = paper_alpha_grid(3);
        let pairs = paper_alpha_params(3, 65536.0).unwrap();
        assert_eq!(grid.len(), pairs.len());
        for ((alpha, params), grid_alpha) in pairs.iter().zip(&grid) {
            assert_eq!(alpha, grid_alpha);
            assert!((params.alpha() - alpha).abs() < 1e-15);
            assert_eq!(params.chi(), 65536.0);
        }
        // Invalid chi propagates instead of panicking mid-sweep.
        assert!(paper_alpha_params(3, 1.0).is_err());
    }

    #[test]
    fn kappa_grid() {
        let grid = paper_kappa_grid();
        assert_eq!(grid.len(), 11);
        assert_eq!(grid[0], 0.0);
        assert_eq!(grid[10], 1.0);
    }

    #[test]
    fn policy_suffixes() {
        assert_eq!(Policy::StartupOnly.suffix(), "SO");
        assert_eq!(Policy::Proactive.suffix(), "PO");
    }
}
