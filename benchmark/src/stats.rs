//! Exact sample statistics: sorted-sample quantiles, medians, spreads.
//!
//! No histograms and no interpolation: latencies are kept as raw samples
//! and a quantile is the nearest-rank element of the sorted sample, so a
//! reported p99 is a latency that was actually observed.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// element with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in a sample of `n >= 1`. The
/// small slack keeps `q = k/n` computed in floating point on rank `k`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Whether a sample of `n` supports reporting quantile `q`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// The tail quantile to report for a sample of `n`: 0.99 when supported,
/// otherwise the highest quantile that still leaves [`MIN_BEYOND`]
/// samples beyond it (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    if supports(n, 0.99) {
        return 0.99;
    }
    if n <= 2 * MIN_BEYOND {
        return 0.5;
    }
    (n - MIN_BEYOND) as f64 / n as f64
}

/// Median of an unsorted float sample (mean of the middle pair for even
/// sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` of a positive sample — the in-process
/// repetition spread every timed section reports.
pub fn spread_frac(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Total time of a piece of work timed slice by slice in several
/// repetitions on identical input: per slice the fastest repetition is
/// kept, and the kept times are summed. Returns `(slices, seconds)`,
/// covering the slices every repetition completed.
///
/// Interference from the host only ever adds time, and on the boxes this
/// runs on it comes in bursts that last from milliseconds to minutes; the
/// fastest of several replays of one slice is the reading least touched by
/// it. Alignment keeps the estimate valid where cost changes along the run
/// (the SMR log grows), which a quantile over slices would not.
pub fn best_of_aligned(reps: &[&[f64]]) -> (usize, f64) {
    let slices = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    let total = (0..slices)
        .map(|j| reps.iter().map(|r| r[j]).fold(f64::MAX, f64::min))
        .sum();
    (slices, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond — the smallest supported n.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(0, 0.5));
        assert_eq!(tail_quantile(28_000), 0.99);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_quantile() {
        let q = tail_quantile(400);
        assert!((q - 0.975).abs() < 1e-12);
        assert!(supports(400, q));
        assert!(!supports(400, q + 0.005));
        assert_eq!(tail_quantile(15), 0.5);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((spread_frac(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread_frac(&[5.0]), 0.0);
    }

    #[test]
    fn best_of_aligned_keeps_the_fastest_replay_of_each_slice() {
        let reps: [&[f64]; 3] = [
            &[1.0, 9.0, 3.0, 4.0],
            &[2.0, 2.0, 8.0], // one slice short: only three are compared
            &[5.0, 5.0, 5.0, 1.0],
        ];
        assert_eq!(best_of_aligned(&reps), (3, 1.0 + 2.0 + 3.0));
        assert_eq!(best_of_aligned(&[]), (0, 0.0));
        assert_eq!(best_of_aligned(&[&[]]), (0, 0.0));
    }
}
