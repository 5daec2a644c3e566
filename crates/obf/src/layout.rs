//! Simulated process memory layout.
//!
//! Code-injection attacks need "the critical address values; this is easy to
//! determine once the details of the operating system of the target system
//! are figured out" (paper §2.1). Address-space randomization moves the
//! bases of the stack, heap and shared libraries by a secret offset derived
//! from the randomization key, so the attacker's hard-coded address is wrong
//! unless the key is guessed.
//!
//! The layout here is a deterministic function of the key — two processes
//! randomized with the same key have identical layouts, which is exactly why
//! FORTRESS randomizes all PB servers identically (state updates need no
//! marshalling, §3) and why one correct guess compromises every server.

use crate::keys::RandomizationKey;

/// Memory regions whose bases are randomized.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// The runtime stack (PaX-style base randomization).
    Stack,
    /// The heap arena.
    Heap,
    /// Shared library text (return-to-libc target).
    Libc,
    /// Global offset table (TRR-style randomization, Xu et al.).
    Got,
}

impl Region {
    /// All regions, in a fixed order.
    pub const ALL: [Region; 4] = [Region::Stack, Region::Heap, Region::Libc, Region::Got];

    /// The well-known (unrandomized) default base of the region, as found in
    /// published memory-layout documentation for major operating systems.
    fn default_base(&self) -> u64 {
        match self {
            Region::Stack => 0x7fff_0000_0000,
            Region::Heap => 0x5555_0000_0000,
            Region::Libc => 0x7f00_0000_0000,
            Region::Got => 0x0000_6000_0000,
        }
    }
}

/// A process's randomized memory layout.
///
/// # Example
///
/// ```
/// use fortress_obf::keys::RandomizationKey;
/// use fortress_obf::layout::{AddressSpace, Region};
///
/// let a = AddressSpace::randomize(RandomizationKey(7));
/// let b = AddressSpace::randomize(RandomizationKey(7));
/// let c = AddressSpace::randomize(RandomizationKey(8));
/// assert_eq!(a.base(Region::Stack), b.base(Region::Stack));
/// assert_ne!(a.base(Region::Stack), c.base(Region::Stack));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AddressSpace {
    key: RandomizationKey,
}

/// Offset (in bytes) of the canonical exploit target within its region —
/// e.g. a saved return address at a known frame depth.
const CRITICAL_OFFSET: u64 = 0x1b8;

impl AddressSpace {
    /// Lays out a process under `key`.
    pub fn randomize(key: RandomizationKey) -> AddressSpace {
        AddressSpace { key }
    }

    /// The key this layout was derived from.
    pub fn key(&self) -> RandomizationKey {
        self.key
    }

    /// Base address of `region` under this randomization.
    ///
    /// The key shifts each region by a page-aligned, region-specific mix so
    /// that learning one region's base reveals the key (as with real ASLR,
    /// a single leak de-randomizes the process).
    pub fn base(&self, region: Region) -> u64 {
        let salt = match region {
            Region::Stack => 0x9e37_79b9,
            Region::Heap => 0x85eb_ca6b,
            Region::Libc => 0xc2b2_ae35,
            Region::Got => 0x27d4_eb2f,
        };
        // Page-aligned (12 bits) offset mixed from key and region salt.
        let mixed = self
            .key
            .0
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(salt);
        region.default_base() ^ ((mixed & 0xffff_ffff) << 12)
    }

    /// The critical address (e.g. saved return address slot) an exploit for
    /// `region` must name to take control.
    pub fn critical_address(&self, region: Region) -> u64 {
        self.base(region) + CRITICAL_OFFSET
    }

    /// The critical address an attacker *predicts* if they believe the key
    /// is `guess`. Equal to [`AddressSpace::critical_address`] iff the guess
    /// is right.
    pub fn predicted_critical_address(guess: RandomizationKey, region: Region) -> u64 {
        AddressSpace::randomize(guess).critical_address(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_layout() {
        let a = AddressSpace::randomize(RandomizationKey(42));
        let b = AddressSpace::randomize(RandomizationKey(42));
        for r in Region::ALL {
            assert_eq!(a.base(r), b.base(r));
            assert_eq!(a.critical_address(r), b.critical_address(r));
        }
    }

    #[test]
    fn different_keys_differ_in_every_region() {
        let a = AddressSpace::randomize(RandomizationKey(1));
        let b = AddressSpace::randomize(RandomizationKey(2));
        for r in Region::ALL {
            assert_ne!(a.base(r), b.base(r), "{r:?}");
        }
    }

    #[test]
    fn bases_are_page_aligned_offsets_from_defaults() {
        let a = AddressSpace::randomize(RandomizationKey(77));
        for r in Region::ALL {
            let offset = a.base(r) ^ r.default_base();
            assert_eq!(offset & 0xfff, 0, "not page aligned in {r:?}");
        }
    }

    #[test]
    fn critical_address_sits_in_region() {
        let a = AddressSpace::randomize(RandomizationKey(3));
        for r in Region::ALL {
            assert_eq!(a.critical_address(r) - a.base(r), 0x1b8);
        }
    }

    #[test]
    fn predicted_address_matches_iff_guess_right() {
        let key = RandomizationKey(1234);
        let layout = AddressSpace::randomize(key);
        assert_eq!(
            AddressSpace::predicted_critical_address(key, Region::Stack),
            layout.critical_address(Region::Stack)
        );
        assert_ne!(
            AddressSpace::predicted_critical_address(RandomizationKey(1235), Region::Stack),
            layout.critical_address(Region::Stack)
        );
    }

    #[test]
    fn key_accessor() {
        let a = AddressSpace::randomize(RandomizationKey(5));
        assert_eq!(a.key(), RandomizationKey(5));
    }

    #[test]
    fn distinct_keys_rarely_collide_on_critical_address() {
        // Over a small space, every pair of keys should produce distinct
        // stack critical addresses (the mix is injective on the low 32 bits
        // times the multiplier being odd).
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for k in 0..4096u64 {
            let addr = AddressSpace::randomize(RandomizationKey(k))
                .critical_address(Region::Stack);
            assert!(seen.insert(addr), "collision at key {k}");
        }
    }
}
