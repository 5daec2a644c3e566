//! The key scan for phase 1 of the de-randomization attack.
//!
//! Every crash eliminates one key, so the attacker never repeats a guess
//! (sampling **without** replacement). The scan walks a full-cycle affine
//! permutation `x ↦ (a·x + b) mod χ` with odd `a`, a bijection for
//! power-of-two χ: it visits every key exactly once in an order unrelated
//! to any structure in key assignment, with O(1) state even for `χ = 2^32`.
//! Against a PO target every elimination goes stale at the end of the
//! step, so the attacker [resets](KeyScanner::reset) onto a fresh walk;
//! across steps that is sampling **with** replacement, which is exactly
//! the cost PO imposes.

use fortress_obf::keys::{KeySpace, RandomizationKey};
use rand::Rng;

/// The permuted walk over one key space.
///
/// # Example
///
/// ```
/// use fortress_attack::scan::KeyScanner;
/// use fortress_obf::keys::KeySpace;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let space = KeySpace::from_entropy_bits(8);
/// let mut scan = KeyScanner::new(space, &mut rng);
/// let mut seen = std::collections::HashSet::new();
/// while let Some(guess) = scan.next_guess() {
///     assert!(seen.insert(guess), "the scan repeated a key");
/// }
/// assert_eq!(seen.len(), 256, "the whole space was covered");
/// ```
#[derive(Clone, Debug)]
pub struct KeyScanner {
    space: KeySpace,
    /// Keys tried since the last reset.
    tried: u64,
    /// Affine parameters of the walk.
    a: u64,
    b: u64,
}

impl KeyScanner {
    /// Creates a scanner; `rng` draws the walk's `a`, then its `b`.
    pub fn new<R: Rng + ?Sized>(space: KeySpace, rng: &mut R) -> KeyScanner {
        let mut scan = KeyScanner {
            space,
            tried: 0,
            a: 1,
            b: 0,
        };
        scan.reset(rng);
        scan
    }

    /// The next guess; `None` once the walk has covered the space.
    pub fn next_guess(&mut self) -> Option<RandomizationKey> {
        let size = self.space.size();
        if self.tried >= size {
            return None;
        }
        let x = self.tried;
        self.tried += 1;
        Some(RandomizationKey(
            self.a.wrapping_mul(x).wrapping_add(self.b) % size,
        ))
    }

    /// Forgets all progress and draws a fresh walk (`a`, then `b`): what
    /// the attacker must do when the target re-randomizes (PO) and every
    /// elimination becomes stale.
    pub fn reset<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.tried = 0;
        let size = self.space.size();
        // Odd multiplier → bijection modulo a power of two.
        self.a = ((rng.gen_range(0..size) | 1) % size.max(2)).max(1);
        self.b = rng.gen_range(0..size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn permuted_covers_exactly_once() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let space = KeySpace::from_entropy_bits(10);
            let mut scan = KeyScanner::new(space, &mut rng);
            let mut seen = HashSet::new();
            while let Some(g) = scan.next_guess() {
                assert!(space.contains(g));
                assert!(seen.insert(g.0), "seed {seed} repeated {g:?}");
            }
            assert_eq!(seen.len(), 1024, "seed {seed}");
        }
    }

    #[test]
    fn permuted_is_not_the_identity_usually() {
        let mut rng = StdRng::seed_from_u64(3);
        let space = KeySpace::from_entropy_bits(10);
        let mut scan = KeyScanner::new(space, &mut rng);
        let first: Vec<u64> = (0..8)
            .filter_map(|_| scan.next_guess())
            .map(|k| k.0)
            .collect();
        assert_ne!(first, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn reset_restarts_with_new_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let space = KeySpace::from_entropy_bits(10);
        let mut scan = KeyScanner::new(space, &mut rng);
        let first: Vec<u64> = (0..16)
            .filter_map(|_| scan.next_guess())
            .map(|k| k.0)
            .collect();
        scan.reset(&mut rng);
        let second: Vec<u64> = (0..16)
            .filter_map(|_| scan.next_guess())
            .map(|k| k.0)
            .collect();
        assert_ne!(first, second, "reset should reshuffle the walk");
        // And the fresh walk still covers the space exactly once.
        let mut seen: HashSet<u64> = second.iter().copied().collect();
        while let Some(g) = scan.next_guess() {
            assert!(seen.insert(g.0));
        }
        assert_eq!(seen.len(), 1024);
    }
}
