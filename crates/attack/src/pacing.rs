//! Probe budgeting against proxy detection.
//!
//! "The attacker can pace his probes so that the number of crashes he
//! causes in a given period does not exceed the threshold for raising
//! suspicion" (paper §2.2). A [`Pacer`] turns the proxies' suspicion
//! policy into a per-step probe allowance; the ratio between the allowed
//! indirect rate and the attacker's unconstrained rate is the κ the
//! abstract models use (Definition 5).

use fortress_core::probelog::SuspicionPolicy;

/// Allocates probes per unit time-step under a rate cap.
///
/// Fractional rates accumulate: a safe rate of 0.4 probes/step yields the
/// sequence 0, 1, 0, 1, 0, … (two probes every five steps).
///
/// # Example
///
/// ```
/// use fortress_attack::pacing::Pacer;
/// use fortress_core::probelog::SuspicionPolicy;
///
/// // Threshold 5 in a window of 20 → at most 4 per 20 steps = 0.2/step.
/// let policy = SuspicionPolicy { window: 20, threshold: 5 };
/// let mut pacer = Pacer::against(policy, 8.0);
/// assert!((pacer.kappa() - 0.025).abs() < 1e-12);
/// let total: u64 = (0..100).map(|_| pacer.probes_this_step()).sum();
/// assert_eq!(total, 20, "0.2 probes/step over 100 steps");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pacer {
    /// Allowed probes per step.
    rate: f64,
    /// Unconstrained probe rate ω.
    omega: f64,
    /// Accumulated fractional allowance.
    credit: f64,
}

impl Pacer {
    /// A pacer that keeps an attacker with unconstrained rate `omega`
    /// strictly below `policy`'s flagging threshold forever.
    pub fn against(policy: SuspicionPolicy, omega: f64) -> Pacer {
        let rate = policy.max_safe_rate().min(omega);
        Pacer {
            rate,
            omega,
            credit: 0.0,
        }
    }

    /// An unconstrained pacer (direct attacks, or launch-pad probing from
    /// a compromised proxy where nothing logs).
    pub fn unconstrained(omega: f64) -> Pacer {
        Pacer {
            rate: omega,
            omega,
            credit: 0.0,
        }
    }

    /// A pacer at an explicit rate (clamped to `omega`) — the hook for
    /// strategies that choose their own operating point, like the
    /// adaptive-backoff campaign attacker walking its rate down after
    /// each detection.
    pub fn with_rate(rate: f64, omega: f64) -> Pacer {
        Pacer {
            rate: rate.clamp(0.0, omega.max(0.0)),
            omega,
            credit: 0.0,
        }
    }

    /// A pacer that never releases a probe: an identity that sends
    /// nothing through the proxies.
    pub fn silent() -> Pacer {
        Pacer::with_rate(0.0, 0.0)
    }

    /// A fresh pacer at half this one's rate, never below `floor` — the
    /// adaptive-backoff attacker's step down after a detection.
    pub fn halved(&self, floor: f64) -> Pacer {
        Pacer::with_rate((self.rate / 2.0).max(floor), self.omega)
    }

    /// The effective indirect-attack coefficient `κ = rate / ω`.
    pub fn kappa(&self) -> f64 {
        if self.omega <= 0.0 {
            return 1.0;
        }
        (self.rate / self.omega).min(1.0)
    }

    /// The allowed probes-per-step rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whole probes permitted this step (fractional allowance carries
    /// over).
    pub fn probes_this_step(&mut self) -> u64 {
        self.credit += self.rate;
        let whole = self.credit.floor();
        self.credit -= whole;
        whole as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_gives_full_rate() {
        let mut p = Pacer::unconstrained(3.0);
        assert_eq!(p.kappa(), 1.0);
        assert_eq!(p.probes_this_step(), 3);
        assert_eq!(p.probes_this_step(), 3);
    }

    #[test]
    fn fractional_rates_accumulate_exactly() {
        let mut p = Pacer::unconstrained(0.4);
        let schedule: Vec<u64> = (0..10).map(|_| p.probes_this_step()).collect();
        assert_eq!(schedule.iter().sum::<u64>(), 4);
        assert!(schedule.iter().all(|n| *n <= 1));
    }

    #[test]
    fn kappa_matches_policy_ratio() {
        let policy = SuspicionPolicy {
            window: 100,
            threshold: 11,
        };
        // Safe rate 0.1; attacker omega 2.0 → kappa 0.05.
        let p = Pacer::against(policy, 2.0);
        assert!((p.kappa() - 0.05).abs() < 1e-12);
        assert!((p.rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn slow_attacker_is_not_constrained() {
        let policy = SuspicionPolicy {
            window: 10,
            threshold: 9,
        };
        // Safe rate 0.8 > omega 0.5: attack at full speed, kappa = 1.
        let p = Pacer::against(policy, 0.5);
        assert_eq!(p.kappa(), 1.0);
        assert!((p.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paced_attacker_stays_under_threshold() {
        use fortress_core::probelog::ProbeLog;
        let policy = SuspicionPolicy {
            window: 50,
            threshold: 6,
        };
        let mut pacer = Pacer::against(policy, 10.0);
        let mut log = ProbeLog::new(policy);
        for t in 0..5000u64 {
            for _ in 0..pacer.probes_this_step() {
                log.record_invalid("attacker", t);
            }
        }
        assert!(
            !log.is_suspicious("attacker"),
            "a correctly paced attacker is never flagged"
        );
    }
}
