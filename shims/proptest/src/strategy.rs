//! Strategies: deterministic value generators.

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 stream driving case generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an explicit value.
    #[cfg(test)]
    pub(crate) fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Seeds from a test name (FNV-1a), so every test has its own fixed,
    /// machine-independent stream.
    pub fn from_test_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below: zero bound");
        self.next_u64() % bound
    }
}

/// A generator of values for one property-test input.
pub trait Strategy {
    /// The produced type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among same-typed strategies (built by `prop_oneof!`).
pub struct OneOf<S>(pub Vec<S>);

impl<S: Strategy> Strategy for OneOf<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        assert!(!self.0.is_empty(), "prop_oneof! of zero strategies");
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].sample(rng)
    }
}

macro_rules! impl_range_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % width) as $t
            }
        }
    )*};
}
impl_range_strategy_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_strategy_sint {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % width) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy_sint!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        self.start() + u * (self.end() - self.start())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!(
    (A 0, B 1),
    (A 0, B 1, C 2),
    (A 0, B 1, C 2, D 3),
    (A 0, B 1, C 2, D 3, E 4),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..2000 {
            let a = (3u8..9).sample(&mut rng);
            assert!((3..9).contains(&a));
            let b = (0.0f64..=1.0).sample(&mut rng);
            assert!((0.0..=1.0).contains(&b));
            let c = (-5i64..-2).sample(&mut rng);
            assert!((-5..-2).contains(&c));
        }
    }

    #[test]
    fn tuples_and_oneof() {
        let mut rng = TestRng::new(2);
        let (x, y, z) = (0u8..10, 5u64..6, 0.0f64..1.0).sample(&mut rng);
        assert!(x < 10 && y == 5 && z < 1.0);
        let choice = OneOf(vec![Just(1u8), Just(2u8)]).sample(&mut rng);
        assert!(choice == 1 || choice == 2);
    }

    #[test]
    fn per_name_streams_are_fixed() {
        let a: Vec<u64> = {
            let mut r = TestRng::from_test_name("t");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::from_test_name("t");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }
}
