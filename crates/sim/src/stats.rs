//! Streaming statistics and confidence intervals.

use std::ops::{Index, IndexMut};

/// Welford's online mean/variance accumulator.
///
/// # Example
///
/// ```
/// use fortress_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.n(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al.'s parallel
    /// Welford update: counts add, means combine weighted, and the second
    /// central moments combine with a between-groups correction).
    ///
    /// Merging is exact in infinite precision and, crucially for the
    /// parallel runner, **deterministic**: merging the same sequence of
    /// per-chunk accumulators in the same order gives bit-identical
    /// results no matter which threads produced the chunks.
    ///
    /// # Example
    ///
    /// ```
    /// use fortress_sim::stats::RunningStats;
    ///
    /// let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    /// let mut whole = RunningStats::new();
    /// let mut left = RunningStats::new();
    /// let mut right = RunningStats::new();
    /// for x in &data[..3] { whole.push(*x); left.push(*x); }
    /// for x in &data[3..] { whole.push(*x); right.push(*x); }
    /// left.merge(&right);
    /// assert_eq!(left.n(), whole.n());
    /// assert!((left.mean() - whole.mean()).abs() < 1e-12);
    /// assert!((left.variance() - whole.variance()).abs() < 1e-12);
    /// ```
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.m2 / (self.n - 1) as f64
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// Standard error of the mean relative to its magnitude — the
    /// stopping criterion for adaptive trial budgets. Infinite until the
    /// accumulator has two observations and a non-zero mean.
    pub fn relative_std_error(&self) -> f64 {
        if self.n < 2 || self.mean == 0.0 {
            return f64::INFINITY;
        }
        self.std_error() / self.mean.abs()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% Student-t confidence interval of the mean.
    pub fn estimate(&self) -> Estimate {
        // With fewer than two observations the interval is unbounded.
        let half = if self.n < 2 {
            f64::INFINITY
        } else {
            t_quantile_975(self.n - 1) * self.std_error()
        };
        Estimate {
            mean: self.mean(),
            ci_low: self.mean() - half,
            ci_high: self.mean() + half,
            n: self.n,
        }
    }
}

/// Which trials populate a [`Column`]. A trial measures a group as a
/// whole or not at all, and a report shows an optional group's columns
/// only when some cell measured it — so sweeps without that axis keep
/// the exact pre-axis column set the golden files pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnGroup {
    /// Every protocol-level trial (always reported).
    Core,
    /// Trials that ran a goodput probe under a fault plan.
    Degrade,
    /// S0 trials: the SMR tier's state-transfer accounting.
    Repair,
}

/// One row of the column table: a measured quantity's identity, its
/// names in the two report renderings, and the group that gates it.
#[derive(Clone, Copy, Debug)]
pub struct ColumnDef {
    /// The column (its discriminant is this row's index in [`COLUMNS`]).
    pub column: Column,
    /// CSV header (`SweepReport::to_table`).
    pub csv: &'static str,
    /// JSON key (`SweepReport::to_json`).
    pub json: &'static str,
    /// Which trials measure it.
    pub group: ColumnGroup,
}

/// Declares [`Column`] and [`COLUMNS`] from one list, so the enum, the
/// CSV header, the JSON key and the group of a column cannot drift
/// apart: adding a measured quantity is one row here.
macro_rules! columns {
    ($($(#[$doc:meta])* $column:ident: $csv:literal, $json:literal, $group:ident;)*) => {
        /// One measured quantity of a protocol-level trial, in report
        /// order. Trials of scenarios without an availability dimension
        /// (abstract, event-driven) measure none of them.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Column {
            $($(#[$doc])* $column,)*
        }

        /// The column table, in report order — the single source of the
        /// CSV headers, the JSON keys, the optional-group gating and the
        /// width of [`TrialPoint`] and [`AvailStats`].
        pub const COLUMNS: &[ColumnDef] = &[
            $(ColumnDef {
                column: Column::$column,
                csv: $csv,
                json: $json,
                group: ColumnGroup::$group,
            },)*
        ];
    };
}

columns! {
    /// Fraction of the trial's mission window (its step cap) during
    /// which the system delivered no correct service: steps the server
    /// tier was not serving (no live quorum, or no live replica leading
    /// the highest live view), plus every step after the compromise (a
    /// fallen system serves nothing trustworthy).
    Downtime: "downtime", "downtime", Core;
    /// View advances observed during the trial: PB failovers and SMR
    /// view changes (leader crashes or silent leaders that the
    /// StartViewChange / DoViewChange / StartView exchange resolved, plus
    /// any escalations past dead successors).
    Failovers: "failovers", "failovers", Core;
    /// Mean steps from losing the serving primary or leader to a
    /// replica serving again — unmeasured when the trial completed no
    /// such window.
    FailoverLatency: "failover_latency", "failover_latency", Core;
    /// Deliveries dead-lettered while a server machine was down
    /// (requests lost to the outage windows).
    LostRequests: "lost_requests", "lost_requests", Core;
    /// Fraction of issued probe requests that got an accepted answer.
    Goodput: "goodput", "goodput", Degrade;
    /// Mean retransmissions per issued request.
    Retries: "retries_per_req", "retries", Degrade;
    /// Redundant replies suppressed by request nonce.
    DupSuppressed: "dup_suppressed", "dup_suppressed", Degrade;
    /// Requests abandoned after exhausting the retry budget (plus the
    /// unanswered tail at the mission window's end).
    GaveUp: "gave_up", "gave_up", Degrade;
    /// State-transfer units paid by rejoining replicas (each unit is one
    /// log entry of divergence drained through the bandwidth budget).
    TransferUnits: "transfer_units", "transfer_units", Repair;
    /// Peak depth of the bounded-bandwidth transfer queue — > 1 only
    /// when a recovery storm made rejoiners contend.
    StormQueueDepth: "storm_queue_depth", "storm_queue_depth", Repair;
}

/// One trial's measurements, one slot per [`Column`]: `None` where the
/// trial did not measure the column (its group's axis was vacuous, or
/// no failover / view change completed to take a latency from).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrialPoint([Option<f64>; COLUMNS.len()]);

impl Index<Column> for TrialPoint {
    type Output = Option<f64>;

    fn index(&self, column: Column) -> &Option<f64> {
        &self.0[column as usize]
    }
}

impl IndexMut<Column> for TrialPoint {
    fn index_mut(&mut self, column: Column) -> &mut Option<f64> {
        &mut self.0[column as usize]
    }
}

/// Welford accumulators for the availability metrics of one sweep cell,
/// one per [`Column`], merged chunk-by-chunk alongside the lifetime
/// statistics with the same fixed reduction order — so availability
/// reports are bit-identical at any thread count, exactly like the
/// lifetimes.
///
/// A column only accumulates the trials that measured it, so a latency
/// column's `n()` may be smaller than its group's other metrics', and
/// the optional groups stay empty in sweeps without their axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvailStats([RunningStats; COLUMNS.len()]);

impl Default for AvailStats {
    /// [`AvailStats::new`] — empty accumulators with proper min/max
    /// sentinels, not zeroed fields.
    fn default() -> AvailStats {
        AvailStats::new()
    }
}

impl Index<Column> for AvailStats {
    type Output = RunningStats;

    fn index(&self, column: Column) -> &RunningStats {
        &self.0[column as usize]
    }
}

impl AvailStats {
    /// An empty accumulator.
    pub fn new() -> AvailStats {
        AvailStats([RunningStats::new(); COLUMNS.len()])
    }

    /// Adds one trial's measurements.
    pub fn push(&mut self, point: &TrialPoint) {
        for (stats, value) in self.0.iter_mut().zip(point.0) {
            if let Some(value) = value {
                stats.push(value);
            }
        }
    }

    /// Merges another accumulator into this one, metric by metric (the
    /// same parallel-Welford combination as [`RunningStats::merge`]).
    pub fn merge(&mut self, other: &AvailStats) {
        for (stats, other) in self.0.iter_mut().zip(&other.0) {
            stats.merge(other);
        }
    }

    /// Whether no trial contributed availability measurements (cells of
    /// scenarios without an availability dimension).
    pub fn is_empty(&self) -> bool {
        self[Column::Downtime].n() == 0
    }

    /// Whether any trial measured a column of `group`.
    pub fn measured(&self, group: ColumnGroup) -> bool {
        COLUMNS
            .iter()
            .any(|def| def.group == group && self[def.column].n() > 0)
    }
}

/// A mean with a 95% confidence interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Lower bound of the 95% CI.
    pub ci_low: f64,
    /// Upper bound of the 95% CI.
    pub ci_high: f64,
    /// Sample size.
    pub n: u64,
}

impl Estimate {
    /// Whether `value` falls inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.ci_low && value <= self.ci_high
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom.
///
/// Exact table entries for small `df`, the normal limit elsewhere — within
/// a percent of the true quantile for every `df`, which is far below the
/// Monte-Carlo noise it brackets.
fn t_quantile_975(df: u64) -> f64 {
    const TABLE: [f64; 31] = [
        f64::INFINITY, // df = 0 sentinel
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[d as usize],
        d if d <= 60 => 2.00,
        d if d <= 120 => 1.98,
        _ => 1.96,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = RunningStats::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
        // df = 0: interval is unbounded, honestly reflecting ignorance.
        assert!(s.estimate().ci_high.is_infinite());
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut s = RunningStats::new();
        for x in &data {
            s.push(*x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn ci_covers_true_mean_for_uniform_noise() {
        // Deterministic LCG noise around mean 0.5.
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let mut s = RunningStats::new();
        for _ in 0..500 {
            s.push(next());
        }
        let est = s.estimate();
        assert!(est.contains(0.5), "{est:?}");
        assert!((est.ci_high - est.ci_low) / 2.0 < 0.1 * est.mean);
    }

    #[test]
    fn t_quantiles_decrease_towards_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(30));
        assert!(t_quantile_975(30) > t_quantile_975(1000));
        assert!((t_quantile_975(1_000_000) - 1.96).abs() < 1e-12);
    }

    #[test]
    fn estimate_contains() {
        let e = Estimate {
            mean: 10.0,
            ci_low: 9.0,
            ci_high: 11.0,
            n: 100,
        };
        assert!(e.contains(9.5));
        assert!(!e.contains(8.0));
    }
}
