//! Randomization key spaces.
//!
//! "These attacks take advantage of the fact that keys cannot be arbitrarily
//! large. In a 32-bit machine using the PaX system only 16 bits of entropy
//! are available, so the random address offset is one of 65536 possibilities"
//! (paper §2.1). A [`KeySpace`] models exactly that: `χ = 2^bits` possible
//! [`RandomizationKey`]s.

use std::fmt;

use rand::Rng;

/// A randomization key: the secret offset the layout is derived
/// from. Values lie in `[0, χ)` for the owning [`KeySpace`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RandomizationKey(pub u64);

impl fmt::Debug for RandomizationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RandomizationKey({:#x})", self.0)
    }
}

impl fmt::Display for RandomizationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The widest key space, in bits: keys must be distinct on their low 32
/// bits, because the layout shifts the stack by the key's mix modulo 2^32
/// pages ([`critical_address`](crate::layout::critical_address)). In a
/// wider space keys 2^32 apart name one address, so an exploit aimed at
/// one compromises a process running the other.
pub const MAX_ENTROPY_BITS: u32 = 32;

/// A key space of `χ = 2^bits` possible randomization keys.
///
/// # Example
///
/// ```
/// use fortress_obf::keys::KeySpace;
///
/// let pax = KeySpace::from_entropy_bits(16);
/// assert_eq!(pax.size(), 65536);
/// assert!(pax.contains(fortress_obf::keys::RandomizationKey(65535)));
/// assert!(!pax.contains(fortress_obf::keys::RandomizationKey(65536)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KeySpace {
    bits: u32,
}

impl KeySpace {
    /// A key space with `bits` bits of entropy (`1 ..=`
    /// [`MAX_ENTROPY_BITS`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above [`MAX_ENTROPY_BITS`]; system assembly
    /// fixes entropy at configuration time, so an invalid value is a
    /// configuration bug.
    pub fn from_entropy_bits(bits: u32) -> KeySpace {
        assert!(
            (1..=MAX_ENTROPY_BITS).contains(&bits),
            "entropy bits must be in 1..={MAX_ENTROPY_BITS}"
        );
        KeySpace { bits }
    }

    /// Entropy in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of possible keys `χ`.
    pub fn size(&self) -> u64 {
        1u64 << self.bits
    }

    /// Whether `key` lies in this space.
    pub fn contains(&self, key: RandomizationKey) -> bool {
        key.0 < self.size()
    }

    /// Samples a uniformly random key.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RandomizationKey {
        RandomizationKey(rng.gen_range(0..self.size()))
    }

    /// Iterates over every key in the space, in order. Useful for
    /// exhaustive-scan attackers on small test spaces.
    pub fn iter(&self) -> impl Iterator<Item = RandomizationKey> {
        (0..self.size()).map(RandomizationKey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pax_space() {
        let s = KeySpace::from_entropy_bits(16);
        assert_eq!(s.size(), 65536);
        assert_eq!(s.bits(), 16);
    }

    #[test]
    #[should_panic(expected = "entropy bits")]
    fn zero_bits_panics() {
        KeySpace::from_entropy_bits(0);
    }

    #[test]
    #[should_panic(expected = "entropy bits")]
    fn too_many_bits_panics() {
        KeySpace::from_entropy_bits(MAX_ENTROPY_BITS + 1);
    }

    #[test]
    fn sample_is_in_range_and_deterministic() {
        let s = KeySpace::from_entropy_bits(8);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let k1 = s.sample(&mut r1);
            let k2 = s.sample(&mut r2);
            assert_eq!(k1, k2);
            assert!(s.contains(k1));
        }
    }

    #[test]
    fn iter_enumerates_whole_space() {
        let s = KeySpace::from_entropy_bits(4);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0], RandomizationKey(0));
        assert_eq!(all[15], RandomizationKey(15));
    }

    #[test]
    fn sample_covers_space_roughly_uniformly() {
        let s = KeySpace::from_entropy_bits(4);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u32; 16];
        for _ in 0..1600 {
            counts[s.sample(&mut rng).0 as usize] += 1;
        }
        for (k, c) in counts.iter().enumerate() {
            assert!(*c > 40, "key {k} sampled only {c} times");
        }
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", RandomizationKey(255)), "0xff");
    }
}
