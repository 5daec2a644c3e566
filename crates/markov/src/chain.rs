//! Absorbing Markov chains in canonical form.
//!
//! A chain with `t` transient and `a` absorbing states is stored as the
//! canonical blocks `Q` (t×t, transient→transient) and `R` (t×a,
//! transient→absorbing). From the fundamental matrix `N = (I − Q)⁻¹`:
//!
//! * expected steps to absorption from each transient state: `t = N·1`
//! * absorption probabilities: `B = N·R`
//!
//! This is exactly the machinery the paper invokes for expected-lifetime
//! computation (§5, Definition 7).

use crate::error::ChainError;
use crate::matrix::Matrix;

/// Tolerance for row-sum validation.
const ROW_SUM_EPS: f64 = 1e-9;

/// An absorbing Markov chain in canonical `(Q, R)` form with labeled states.
///
/// Build with [`AbsorbingChain::builder`], or use the
/// [`AbsorbingChain::geometric`] shortcut for single-transient-state chains.
///
/// # Example
///
/// ```
/// use fortress_markov::chain::AbsorbingChain;
///
/// // Two-stage failure: healthy -> degraded -> failed.
/// let chain = AbsorbingChain::builder()
///     .transient("healthy")
///     .transient("degraded")
///     .absorbing("failed")
///     .transition("healthy", "healthy", 0.9)
///     .transition("healthy", "degraded", 0.1)
///     .transition("degraded", "degraded", 0.5)
///     .transition("degraded", "failed", 0.5)
///     .build()?;
/// let steps = chain.expected_steps()?;
/// assert!((steps[0] - 12.0).abs() < 1e-9); // 10 + 2
/// # Ok::<(), fortress_markov::ChainError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AbsorbingChain {
    transient_labels: Vec<String>,
    absorbing_labels: Vec<String>,
    q: Matrix,
    r: Matrix,
}

impl AbsorbingChain {
    /// Starts building a chain.
    pub fn builder() -> ChainBuilder {
        ChainBuilder::default()
    }

    /// A single-transient-state chain absorbing with probability `p` per
    /// step: the geometric lifetime model used for all PO systems with
    /// re-randomization period 1.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidProbability`] unless `0 < p <= 1`.
    pub fn geometric(p: f64) -> Result<AbsorbingChain, ChainError> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(ChainError::InvalidProbability {
                from: "alive".into(),
                to: "compromised".into(),
                value: p,
            });
        }
        AbsorbingChain::builder()
            .transient("alive")
            .absorbing("compromised")
            .transition("alive", "alive", 1.0 - p)
            .transition("alive", "compromised", p)
            .build()
    }

    /// Number of transient states.
    pub fn n_transient(&self) -> usize {
        self.transient_labels.len()
    }

    /// Number of absorbing states.
    pub fn n_absorbing(&self) -> usize {
        self.absorbing_labels.len()
    }

    /// Labels of transient states, in `Q` index order.
    #[cfg(test)]
    fn transient_labels(&self) -> &[String] {
        &self.transient_labels
    }

    /// Labels of absorbing states, in `R` column order.
    pub fn absorbing_labels(&self) -> &[String] {
        &self.absorbing_labels
    }

    /// The `Q` block.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The `R` block.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Index of the transient state named `label`.
    pub fn transient_index(&self, label: &str) -> Option<usize> {
        self.transient_labels.iter().position(|l| l == label)
    }

    /// The fundamental matrix `N = (I − Q)⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::LinAlg`] if `I − Q` is singular, which happens
    /// when some transient state cannot reach absorption.
    pub fn fundamental(&self) -> Result<Matrix, ChainError> {
        let n = self.n_transient();
        let i = Matrix::identity(n);
        let i_minus_q = i.sub(&self.q)?;
        Ok(i_minus_q.inverse()?)
    }

    /// Expected number of steps to absorption from each transient state,
    /// `t = N·1`.
    ///
    /// # Errors
    ///
    /// As for [`AbsorbingChain::fundamental`].
    pub fn expected_steps(&self) -> Result<Vec<f64>, ChainError> {
        // Solve (I − Q) t = 1 directly rather than forming N.
        let n = self.n_transient();
        let i = Matrix::identity(n);
        let i_minus_q = i.sub(&self.q)?;
        Ok(i_minus_q.solve(&vec![1.0; n])?)
    }

    /// Expected steps to absorption starting from the transient state named
    /// `label`.
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownState`] for unknown labels, otherwise as for
    /// [`AbsorbingChain::fundamental`].
    pub fn expected_steps_from(&self, label: &str) -> Result<f64, ChainError> {
        let idx = self
            .transient_index(label)
            .ok_or_else(|| ChainError::UnknownState(label.to_owned()))?;
        Ok(self.expected_steps()?[idx])
    }

    /// Probability of ending in each absorbing state from each transient
    /// state, `B = N·R` (rows: transient, cols: absorbing).
    ///
    /// # Errors
    ///
    /// As for [`AbsorbingChain::fundamental`].
    pub fn absorption_probabilities(&self) -> Result<Matrix, ChainError> {
        let n = self.n_transient();
        let i = Matrix::identity(n);
        let i_minus_q = i.sub(&self.q)?;
        Ok(i_minus_q.solve_matrix(&self.r)?)
    }

    /// Survival function: probability of still being transient after `steps`
    /// steps, starting from transient state `start`.
    ///
    /// Computed by repeated multiplication; useful for cross-validating the
    /// Monte-Carlo engines on small horizons.
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownState`] for unknown labels.
    pub fn survival(&self, start: &str, steps: usize) -> Result<f64, ChainError> {
        let idx = self
            .transient_index(start)
            .ok_or_else(|| ChainError::UnknownState(start.to_owned()))?;
        let n = self.n_transient();
        let mut dist = vec![0.0; n];
        dist[idx] = 1.0;
        for _ in 0..steps {
            let mut next = vec![0.0; n];
            for (from, mass) in dist.iter().enumerate() {
                if *mass == 0.0 {
                    continue;
                }
                for (to, slot) in next.iter_mut().enumerate() {
                    *slot += mass * self.q.get(from, to);
                }
            }
            dist = next;
        }
        Ok(dist.iter().sum())
    }
}

/// Incremental builder for [`AbsorbingChain`].
///
/// States must be declared (via [`ChainBuilder::transient`] /
/// [`ChainBuilder::absorbing`]) before transitions referencing them are
/// added. Unspecified transitions default to probability zero; every
/// transient row must sum to 1 at [`ChainBuilder::build`] time.
#[derive(Default, Debug, Clone)]
pub struct ChainBuilder {
    transient: Vec<String>,
    absorbing: Vec<String>,
    transitions: Vec<(String, String, f64)>,
}

impl ChainBuilder {
    /// Declares a transient state.
    pub fn transient(mut self, label: &str) -> Self {
        self.transient.push(label.to_owned());
        self
    }

    /// Declares an absorbing state.
    pub fn absorbing(mut self, label: &str) -> Self {
        self.absorbing.push(label.to_owned());
        self
    }

    /// Records transition probability `p` from `from` to `to`.
    ///
    /// Repeated calls for the same pair *accumulate* (convenient for
    /// builders that enumerate disjoint events landing on the same state).
    pub fn transition(mut self, from: &str, to: &str, p: f64) -> Self {
        self.transitions.push((from.to_owned(), to.to_owned(), p));
        self
    }

    /// Validates and builds the chain.
    ///
    /// # Errors
    ///
    /// * [`ChainError::NoTransientStates`] / [`ChainError::NoAbsorbingStates`]
    /// * [`ChainError::UnknownState`] for transitions naming undeclared states
    /// * [`ChainError::InvalidProbability`] for out-of-range probabilities
    /// * [`ChainError::RowSum`] when a transient row does not sum to 1
    pub fn build(self) -> Result<AbsorbingChain, ChainError> {
        if self.transient.is_empty() {
            return Err(ChainError::NoTransientStates);
        }
        if self.absorbing.is_empty() {
            return Err(ChainError::NoAbsorbingStates);
        }
        let t_index = |label: &str| self.transient.iter().position(|l| l == label);
        let a_index = |label: &str| self.absorbing.iter().position(|l| l == label);

        let nt = self.transient.len();
        let na = self.absorbing.len();
        let mut q = Matrix::zeros(nt, nt);
        let mut r = Matrix::zeros(nt, na);

        for (from, to, p) in &self.transitions {
            if !p.is_finite() || *p < 0.0 || *p > 1.0 + ROW_SUM_EPS {
                return Err(ChainError::InvalidProbability {
                    from: from.clone(),
                    to: to.clone(),
                    value: *p,
                });
            }
            let fi = t_index(from).ok_or_else(|| ChainError::UnknownState(from.clone()))?;
            if let Some(ti) = t_index(to) {
                q.set(fi, ti, q.get(fi, ti) + p);
            } else if let Some(ai) = a_index(to) {
                r.set(fi, ai, r.get(fi, ai) + p);
            } else {
                return Err(ChainError::UnknownState(to.clone()));
            }
        }

        for i in 0..nt {
            let sum: f64 = q.row(i).iter().sum::<f64>() + r.row(i).iter().sum::<f64>();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(ChainError::RowSum {
                    state: self.transient[i].clone(),
                    sum,
                });
            }
        }

        Ok(AbsorbingChain {
            transient_labels: self.transient,
            absorbing_labels: self.absorbing,
            q,
            r,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_expected_steps() {
        for p in [0.5, 0.1, 0.01, 1e-5] {
            let chain = AbsorbingChain::geometric(p).unwrap();
            let el = chain.expected_steps().unwrap()[0];
            assert!((el - 1.0 / p).abs() / (1.0 / p) < 1e-9, "p={p}, el={el}");
        }
    }

    #[test]
    fn geometric_rejects_bad_p() {
        assert!(AbsorbingChain::geometric(0.0).is_err());
        assert!(AbsorbingChain::geometric(-0.1).is_err());
        assert!(AbsorbingChain::geometric(1.5).is_err());
        assert!(AbsorbingChain::geometric(f64::NAN).is_err());
    }

    /// The classic gambler's-ruin-style drunkard walk: states 1,2,3 between
    /// absorbing barriers 0 and 4; p = 1/2 each way. Expected steps from
    /// state k is k(4-k): 3, 4, 3.
    #[test]
    fn drunkard_walk() {
        let chain = AbsorbingChain::builder()
            .transient("1")
            .transient("2")
            .transient("3")
            .absorbing("0")
            .absorbing("4")
            .transition("1", "0", 0.5)
            .transition("1", "2", 0.5)
            .transition("2", "1", 0.5)
            .transition("2", "3", 0.5)
            .transition("3", "2", 0.5)
            .transition("3", "4", 0.5)
            .build()
            .unwrap();
        let t = chain.expected_steps().unwrap();
        assert!((t[0] - 3.0).abs() < 1e-9);
        assert!((t[1] - 4.0).abs() < 1e-9);
        assert!((t[2] - 3.0).abs() < 1e-9);

        // Absorption probabilities from state 1: 3/4 ruin, 1/4 win.
        let b = chain.absorption_probabilities().unwrap();
        assert!((b.get(0, 0) - 0.75).abs() < 1e-9);
        assert!((b.get(0, 1) - 0.25).abs() < 1e-9);
        // Rows of B sum to 1.
        for i in 0..3 {
            let s: f64 = (0..2).map(|j| b.get(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn survival_matches_geometric() {
        let p: f64 = 0.3;
        let chain = AbsorbingChain::geometric(p).unwrap();
        for steps in [0usize, 1, 5, 20] {
            let s = chain.survival("alive", steps).unwrap();
            let want = (1.0f64 - p).powi(steps as i32);
            assert!((s - want).abs() < 1e-12, "steps={steps}");
        }
    }

    #[test]
    fn expected_steps_from_label() {
        let chain = AbsorbingChain::geometric(0.25).unwrap();
        assert!((chain.expected_steps_from("alive").unwrap() - 4.0).abs() < 1e-9);
        assert!(matches!(
            chain.expected_steps_from("nope"),
            Err(ChainError::UnknownState(_))
        ));
    }

    #[test]
    fn builder_validation_errors() {
        // No absorbing state.
        let e = AbsorbingChain::builder()
            .transient("a")
            .transition("a", "a", 1.0)
            .build();
        assert!(matches!(e, Err(ChainError::NoAbsorbingStates)));

        // No transient state.
        let e = AbsorbingChain::builder().absorbing("x").build();
        assert!(matches!(e, Err(ChainError::NoTransientStates)));

        // Unknown destination.
        let e = AbsorbingChain::builder()
            .transient("a")
            .absorbing("x")
            .transition("a", "zzz", 1.0)
            .build();
        assert!(matches!(e, Err(ChainError::UnknownState(_))));

        // Row sum wrong.
        let e = AbsorbingChain::builder()
            .transient("a")
            .absorbing("x")
            .transition("a", "x", 0.4)
            .build();
        assert!(matches!(e, Err(ChainError::RowSum { .. })));

        // Negative probability.
        let e = AbsorbingChain::builder()
            .transient("a")
            .absorbing("x")
            .transition("a", "x", -0.5)
            .build();
        assert!(matches!(e, Err(ChainError::InvalidProbability { .. })));
    }

    #[test]
    fn accumulating_transitions() {
        let chain = AbsorbingChain::builder()
            .transient("a")
            .absorbing("x")
            .transition("a", "x", 0.25)
            .transition("a", "x", 0.25)
            .transition("a", "a", 0.5)
            .build()
            .unwrap();
        assert!((chain.expected_steps().unwrap()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_absorption_is_singular() {
        let chain = AbsorbingChain::builder()
            .transient("stuck")
            .transient("a")
            .absorbing("x")
            .transition("stuck", "stuck", 1.0)
            .transition("a", "x", 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            chain.expected_steps(),
            Err(ChainError::LinAlg(_))
        ));
    }

    #[test]
    fn accessors() {
        let chain = AbsorbingChain::geometric(0.5).unwrap();
        assert_eq!(chain.n_transient(), 1);
        assert_eq!(chain.n_absorbing(), 1);
        assert_eq!(chain.transient_labels(), &["alive".to_string()]);
        assert_eq!(chain.absorbing_labels(), &["compromised".to_string()]);
        assert_eq!(chain.transient_index("alive"), Some(0));
        assert_eq!(chain.transient_index("x"), None);
        assert_eq!(chain.q().rows(), 1);
        assert_eq!(chain.r().cols(), 1);
        let n = chain.fundamental().unwrap();
        assert!((n.get(0, 0) - 2.0).abs() < 1e-9);
    }
}
