//! Seeded input streams owned by the harness: a SplitMix64 generator and
//! the arrival schedule the open-loop driver fires from.
//!
//! The product never sees the seed — only the requests generated from
//! it — and the harness does not borrow the product's RNG for its own
//! inputs, so a change to the product's generators cannot move the load.

use std::time::Duration;

/// SplitMix64 (Steele, Lea, Flood 2014): one add and three xor-shift
/// multiplies per draw, full 2^64 period, any seed valid.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Derives the seed of sub-stream `index` under `seed` (one SplitMix64
/// step over their combination), so per-client and per-repetition streams
/// are decorrelated.
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The instants at which an open-loop client's requests fall due, as
/// offsets from the start of a run: Poisson arrivals with the count fixed.
///
/// A Poisson process conditioned on how many arrivals fall in `[0, T)` is
/// that many independent uniform instants, sorted. Fixing the count at
/// rate × T keeps Poisson's irregular gaps and bursts but removes the
/// run-to-run variance of the count itself (±2.6 % at 1 500 arrivals),
/// which would otherwise be the largest term in every throughput figure
/// of an open-loop run.
#[derive(Clone, Debug)]
pub struct ArrivalSchedule {
    due: Vec<Duration>,
    next: usize,
}

impl ArrivalSchedule {
    /// `count` arrivals over `[0, span)`, drawn from the stream `seed`.
    pub fn new(seed: u64, count: usize, span: Duration) -> ArrivalSchedule {
        let mut rng = SplitMix64::new(seed);
        let mut due: Vec<Duration> = (0..count)
            .map(|_| span.mul_f64(1.0 - rng.next_unit()))
            .collect();
        due.sort_unstable();
        ArrivalSchedule { due, next: 0 }
    }

    /// Offset at which the next request is due; `None` once all have fired.
    pub fn next_due(&self) -> Option<Duration> {
        self.due.get(self.next).copied()
    }

    /// Moves to the following arrival.
    pub fn advance(&mut self) {
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    fn schedule(seed: u64) -> Vec<Duration> {
        let mut s = ArrivalSchedule::new(seed, 250, Duration::from_millis(3_330));
        std::iter::from_fn(|| {
            let due = s.next_due()?;
            s.advance();
            Some(due)
        })
        .collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn the_count_is_fixed_and_arrivals_are_ordered_inside_the_span() {
        for seed in 0..20 {
            let s = schedule(seed);
            assert_eq!(s.len(), 250);
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            assert!(*s.last().unwrap() < Duration::from_millis(3_330));
        }
    }

    #[test]
    fn gaps_are_irregular_like_a_poisson_stream() {
        // Exponential gaps have a coefficient of variation of 1; a
        // metronome would have 0.
        let s = schedule(42);
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.8..1.2).contains(&cv), "coefficient of variation {cv}");
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..10_000 {
            let u = rng.next_unit();
            assert!(u > 0.0 && u <= 1.0);
        }
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_eq!(derive(9, 3), derive(9, 3));
    }
}
