//! Per-source invalid-request accounting — the mechanism behind κ.
//!
//! "Since proxies do not do processing (unlike servers), they can be used
//! for logging their observations on client behavior for longer periods
//! which can be used for identifying sources suspected of launching
//! de-randomization probes. … Given this possibility, the attacker is
//! forced to opt for a smaller ω to evade detection; this means that the
//! presence of proxies effectively reduces ω of an attacker" (paper §2.2,
//! §4.2).
//!
//! [`SuspicionPolicy`] fixes a sliding window and a threshold; a source
//! whose invalid-request count within the window reaches the threshold is
//! flagged. The largest rate an attacker can sustain without *ever* being
//! flagged is `(threshold − 1) / window` — which, divided by the attacker's
//! unconstrained rate, is exactly the indirect attack coefficient κ the
//! abstract models use. [`SuspicionPolicy::induced_kappa`] computes it.

use std::collections::{HashMap, VecDeque};

/// Sliding-window threshold policy for suspecting probing sources.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SuspicionPolicy {
    /// Window length in unit time-steps.
    pub window: u64,
    /// Invalid requests within the window that trigger suspicion.
    pub threshold: u32,
}

impl Default for SuspicionPolicy {
    fn default() -> Self {
        SuspicionPolicy {
            window: 100,
            threshold: 50,
        }
    }
}

impl SuspicionPolicy {
    /// The paper-default suspicion axis every campaign sweep shares: safe
    /// rates 1/64, 4/32 and 8/16 per step, so at ω = 8 the induced κ
    /// spans 0.002–0.0625 (a 32× spread). One definition — the campaign
    /// grid defaults, the scenario sweeps and the bench binaries all call
    /// this instead of re-typing the literals.
    pub fn paper_grid() -> [SuspicionPolicy; 3] {
        [
            SuspicionPolicy::hair_trigger(),
            SuspicionPolicy { window: 32, threshold: 5 },
            SuspicionPolicy { window: 16, threshold: 9 },
        ]
    }

    /// The tightest policy of [`SuspicionPolicy::paper_grid`]: threshold
    /// 2 in a 64-step window (safe rate 1/64) — the "any repeat probing
    /// burns you" posture the tightness tests sweep against.
    pub fn hair_trigger() -> SuspicionPolicy {
        SuspicionPolicy { window: 64, threshold: 2 }
    }

    /// The largest per-step invalid-request rate a source can sustain
    /// indefinitely without being flagged.
    pub fn max_safe_rate(&self) -> f64 {
        if self.threshold <= 1 {
            return 0.0;
        }
        (self.threshold - 1) as f64 / self.window as f64
    }

    /// The indirect-attack coefficient this policy induces on an attacker
    /// whose unconstrained probe rate is `omega` per step: the fraction of
    /// probing the attacker retains when forced below the detection radar.
    pub fn induced_kappa(&self, omega: f64) -> f64 {
        if omega <= 0.0 {
            return 1.0;
        }
        (self.max_safe_rate() / omega).min(1.0)
    }
}

/// Per-source log of invalid requests with sliding-window suspicion.
///
/// # Example
///
/// ```
/// use fortress_core::probelog::{ProbeLog, SuspicionPolicy};
///
/// let mut log = ProbeLog::new(SuspicionPolicy { window: 10, threshold: 3 });
/// log.record_invalid("mallory", 1);
/// log.record_invalid("mallory", 2);
/// assert!(!log.is_suspicious("mallory"));
/// log.record_invalid("mallory", 3);
/// assert!(log.is_suspicious("mallory"));
/// assert!(!log.is_suspicious("alice"));
/// ```
#[derive(Clone, Debug)]
pub struct ProbeLog {
    policy: SuspicionPolicy,
    /// Per-source timestamps of invalid requests, pruned to the window.
    events: HashMap<String, VecDeque<u64>>,
    /// Sources ever flagged (suspicion is sticky: an identified prober
    /// stays identified).
    flagged: Vec<String>,
}

impl ProbeLog {
    /// Creates an empty log under `policy`.
    pub fn new(policy: SuspicionPolicy) -> ProbeLog {
        ProbeLog {
            policy,
            events: HashMap::new(),
            flagged: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> SuspicionPolicy {
        self.policy
    }

    /// Clears every observation, keeping the policy and allocated
    /// capacity — the trial-arena reset path.
    pub fn reset(&mut self) {
        self.events.clear();
        self.flagged.clear();
    }

    /// Records an invalid request from `source` at time `now` and updates
    /// the suspicion flag.
    pub fn record_invalid(&mut self, source: &str, now: u64) {
        if !self.events.contains_key(source) {
            self.events.insert(source.to_owned(), VecDeque::new());
        }
        let q = self.events.get_mut(source).expect("just inserted");
        q.push_back(now);
        // The window is the half-open interval (now − window, now]: an
        // event exactly `window` steps old has aged out.
        while let Some(front) = q.front() {
            if now >= self.policy.window && *front <= now - self.policy.window {
                q.pop_front();
            } else {
                break;
            }
        }
        if q.len() as u32 >= self.policy.threshold && !self.flagged.iter().any(|s| s == source) {
            self.flagged.push(source.to_owned());
        }
    }

    /// Invalid requests from `source` currently inside the window.
    pub fn window_count(&self, source: &str) -> usize {
        self.events.get(source).map_or(0, VecDeque::len)
    }

    /// Whether `source` has ever been flagged.
    pub fn is_suspicious(&self, source: &str) -> bool {
        self.flagged.iter().any(|s| s == source)
    }

    /// All flagged sources, in flagging order.
    #[cfg(test)]
    fn flagged(&self) -> &[String] {
        &self.flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(window: u64, threshold: u32) -> SuspicionPolicy {
        SuspicionPolicy { window, threshold }
    }

    #[test]
    fn below_threshold_is_unsuspicious() {
        let mut log = ProbeLog::new(policy(10, 5));
        for t in 0..4 {
            log.record_invalid("m", t);
        }
        assert!(!log.is_suspicious("m"));
        assert_eq!(log.window_count("m"), 4);
    }

    #[test]
    fn reaching_threshold_flags() {
        let mut log = ProbeLog::new(policy(10, 5));
        for t in 0..5 {
            log.record_invalid("m", t);
        }
        assert!(log.is_suspicious("m"));
        assert_eq!(log.flagged(), &["m".to_string()]);
    }

    #[test]
    fn window_slides() {
        let mut log = ProbeLog::new(policy(10, 5));
        // 4 probes early, then far later another 4: never 5 in a window.
        for t in 0..4 {
            log.record_invalid("m", t);
        }
        for t in 100..104 {
            log.record_invalid("m", t);
        }
        assert!(!log.is_suspicious("m"));
        assert_eq!(log.window_count("m"), 4, "old events pruned");
    }

    #[test]
    fn suspicion_is_sticky() {
        let mut log = ProbeLog::new(policy(10, 2));
        log.record_invalid("m", 0);
        log.record_invalid("m", 1);
        assert!(log.is_suspicious("m"));
        // Long quiet period does not clear the flag.
        log.record_invalid("m", 10_000);
        assert!(log.is_suspicious("m"));
    }

    #[test]
    fn sources_are_independent() {
        let mut log = ProbeLog::new(policy(10, 2));
        log.record_invalid("a", 0);
        log.record_invalid("b", 0);
        assert!(!log.is_suspicious("a"));
        assert!(!log.is_suspicious("b"));
        log.record_invalid("a", 1);
        assert!(log.is_suspicious("a"));
        assert!(!log.is_suspicious("b"));
    }

    #[test]
    fn max_safe_rate_and_kappa() {
        let p = policy(100, 51);
        assert!((p.max_safe_rate() - 0.5).abs() < 1e-12);
        // An attacker with omega = 5 probes/step keeps 10% of its rate.
        assert!((p.induced_kappa(5.0) - 0.1).abs() < 1e-12);
        // A slow attacker is unconstrained: kappa capped at 1.
        assert_eq!(p.induced_kappa(0.1), 1.0);
        // Degenerate threshold: nothing is safe.
        assert_eq!(policy(10, 1).max_safe_rate(), 0.0);
        assert_eq!(policy(10, 1).induced_kappa(1.0), 0.0);
        assert_eq!(p.induced_kappa(0.0), 1.0);
    }

    #[test]
    fn attacker_at_safe_rate_is_never_flagged() {
        let p = policy(20, 5);
        let mut log = ProbeLog::new(p);
        // Safe rate = 4/20 = one probe every 5 steps.
        let mut t = 0;
        for _ in 0..200 {
            log.record_invalid("m", t);
            t += 5;
        }
        assert!(!log.is_suspicious("m"));
        // At double the rate the attacker is flagged quickly.
        let mut log2 = ProbeLog::new(p);
        let mut t = 0;
        for _ in 0..10 {
            log2.record_invalid("m", t);
            t += 2;
        }
        assert!(log2.is_suspicious("m"));
    }
}
