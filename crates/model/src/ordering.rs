//! The paper's `outlives` relation and the §6 summary-ordering verifier.
//!
//! Definition 7: "We say that system A *outlives* system B if EL of A is
//! larger than EL of B. It is denoted as A → B." The summary chain of §6 is
//!
//! ```text
//! S0PO --(κ>0)--> S2PO --(κ≤0.9)--> S1PO → S1SO → S0SO
//! ```
//!
//! [`verify_paper_ordering`] checks every arrow across an α grid and reports
//! the result per arrow, which `figures -- ordering` prints as the
//! reproduction of the paper's summary.

use crate::error::ModelError;
use crate::lifetime::{expected_lifetime, SystemPolicy};
use crate::params::{AttackParams, Policy, ProbeModel};
use crate::SystemKind;

/// Whether system `a` outlives system `b` at the given parameters
/// (broadcast probe model).
///
/// # Errors
///
/// As for [`expected_lifetime`].
fn outlives(a: SystemPolicy, b: SystemPolicy, params: &AttackParams) -> Result<bool, ModelError> {
    let el_a = expected_lifetime(a.kind, a.policy, ProbeModel::Broadcast, params)?;
    let el_b = expected_lifetime(b.kind, b.policy, ProbeModel::Broadcast, params)?;
    Ok(el_a > el_b)
}

/// One arrow of the summary chain, checked over a grid.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrowReport {
    /// Human-readable arrow, e.g. `"S0PO -> S2PO (kappa > 0)"`.
    pub arrow: String,
    /// Number of grid points checked.
    pub checked: usize,
    /// Grid points at which the arrow held.
    pub held: usize,
    /// α values at which it failed (empty when `held == checked`).
    pub failures: Vec<f64>,
}

impl ArrowReport {
    /// `true` when the arrow held at every grid point.
    pub fn holds(&self) -> bool {
        self.held == self.checked && self.checked > 0
    }
}

/// Verifies the full §6 summary ordering over an α grid at a representative
/// `κ` for the conditional arrows.
///
/// * `S0PO → S2PO` is checked at every `κ > 0` in `kappas`.
/// * `S2PO → S1PO` is checked at every `κ ≤ 0.9` in `kappas`.
/// * The unconditional arrows are checked once per α.
///
/// # Errors
///
/// As for [`expected_lifetime`].
pub fn verify_paper_ordering(
    alphas: &[f64],
    kappas: &[f64],
    chi: f64,
) -> Result<Vec<ArrowReport>, ModelError> {
    let sp = |kind: SystemKind, policy: Policy| SystemPolicy { kind, policy };
    let mut reports = Vec::new();

    // Arrow 1: S0PO -> S2PO for kappa > 0.
    {
        let mut report = ArrowReport {
            arrow: "S0PO -> S2PO (kappa > 0)".into(),
            checked: 0,
            held: 0,
            failures: vec![],
        };
        for &alpha in alphas {
            let params = AttackParams::from_alpha(chi, alpha)?;
            for &kappa in kappas.iter().filter(|k| **k > 0.0) {
                report.checked += 1;
                let ok = outlives(
                    sp(SystemKind::S0Smr, Policy::Proactive),
                    sp(SystemKind::S2Fortress { kappa }, Policy::Proactive),
                    &params,
                )?;
                if ok {
                    report.held += 1;
                } else {
                    report.failures.push(alpha);
                }
            }
        }
        reports.push(report);
    }

    // Arrow 2: S2PO -> S1PO for kappa <= 0.9.
    {
        let mut report = ArrowReport {
            arrow: "S2PO -> S1PO (kappa <= 0.9)".into(),
            checked: 0,
            held: 0,
            failures: vec![],
        };
        for &alpha in alphas {
            let params = AttackParams::from_alpha(chi, alpha)?;
            for &kappa in kappas.iter().filter(|k| **k <= 0.9) {
                report.checked += 1;
                let ok = outlives(
                    sp(SystemKind::S2Fortress { kappa }, Policy::Proactive),
                    sp(SystemKind::S1Pb, Policy::Proactive),
                    &params,
                )?;
                if ok {
                    report.held += 1;
                } else {
                    report.failures.push(alpha);
                }
            }
        }
        reports.push(report);
    }

    // Arrows 3 and 4: S1PO -> S1SO -> S0SO, unconditional.
    for (arrow, a, b) in [
        (
            "S1PO -> S1SO",
            sp(SystemKind::S1Pb, Policy::Proactive),
            sp(SystemKind::S1Pb, Policy::StartupOnly),
        ),
        (
            "S1SO -> S0SO",
            sp(SystemKind::S1Pb, Policy::StartupOnly),
            sp(SystemKind::S0Smr, Policy::StartupOnly),
        ),
    ] {
        let mut report = ArrowReport {
            arrow: arrow.into(),
            checked: 0,
            held: 0,
            failures: vec![],
        };
        for &alpha in alphas {
            let params = AttackParams::from_alpha(chi, alpha)?;
            report.checked += 1;
            if outlives(a, b, &params)? {
                report.held += 1;
            } else {
                report.failures.push(alpha);
            }
        }
        reports.push(report);
    }

    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{paper_alpha_grid, paper_kappa_grid};

    #[test]
    fn full_paper_ordering_holds() {
        let reports =
            verify_paper_ordering(&paper_alpha_grid(4), &paper_kappa_grid(), 65536.0).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.holds(), "arrow failed: {} ({:?})", r.arrow, r.failures);
        }
    }

    #[test]
    fn outlives_is_asymmetric() {
        let params = AttackParams::from_alpha(65536.0, 1e-3).unwrap();
        let a = SystemPolicy {
            kind: SystemKind::S0Smr,
            policy: Policy::Proactive,
        };
        let b = SystemPolicy {
            kind: SystemKind::S0Smr,
            policy: Policy::StartupOnly,
        };
        assert!(outlives(a, b, &params).unwrap());
        assert!(!outlives(b, a, &params).unwrap());
    }

    #[test]
    fn kappa_one_breaks_arrow_two() {
        // Sanity: at kappa = 1.0, S2PO no longer outlives S1PO, which is why
        // the paper conditions the arrow on kappa <= 0.9.
        let params = AttackParams::from_alpha(65536.0, 1e-3).unwrap();
        let s2 = SystemPolicy {
            kind: SystemKind::S2Fortress { kappa: 1.0 },
            policy: Policy::Proactive,
        };
        let s1 = SystemPolicy {
            kind: SystemKind::S1Pb,
            policy: Policy::Proactive,
        };
        assert!(!outlives(s2, s1, &params).unwrap());
    }

    #[test]
    fn empty_report_does_not_hold() {
        let r = ArrowReport {
            arrow: "x".into(),
            checked: 0,
            held: 0,
            failures: vec![],
        };
        assert!(!r.holds());
    }
}
