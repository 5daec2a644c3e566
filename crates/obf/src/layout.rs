//! Simulated process memory layout.
//!
//! Code-injection attacks need "the critical address values; this is easy to
//! determine once the details of the operating system of the target system
//! are figured out" (paper §2.1). Address-space randomization moves the
//! stack's base by a secret offset derived from the randomization key, so
//! the attacker's hard-coded address is wrong unless the key is guessed.
//!
//! The layout here is a deterministic function of the key — two processes
//! randomized with the same key have identical layouts, which is exactly why
//! FORTRESS randomizes all PB servers identically (state updates need no
//! marshalling, §3) and why one correct guess compromises every server.

use crate::keys::RandomizationKey;

/// The stack's well-known (unrandomized) default base, as found in
/// published memory-layout documentation for major operating systems.
const STACK_BASE: u64 = 0x7fff_0000_0000;

/// The stack's salt in the key mix.
const STACK_SALT: u64 = 0x9e37_79b9;

/// Offset (in bytes) of the canonical exploit target within the stack —
/// a saved return address at a known frame depth.
const CRITICAL_OFFSET: u64 = 0x1b8;

/// The critical address (the saved return-address slot) an exploit must
/// name to take control of a process randomized under `key`.
///
/// The key shifts the stack's base by `(key·M + salt) mod 2^32` pages.
/// `M` is odd, so the shift is injective on keys under 2^32 and learning
/// the address reveals the key: a probe value tests exactly one key.
/// Keys 2^32 apart share an address, which is why
/// [`MAX_ENTROPY_BITS`](crate::keys::MAX_ENTROPY_BITS) is 32.
///
/// # Example
///
/// ```
/// use fortress_obf::keys::RandomizationKey;
/// use fortress_obf::layout::critical_address;
///
/// let a = critical_address(RandomizationKey(7));
/// assert_eq!(a, critical_address(RandomizationKey(7)));
/// assert_ne!(a, critical_address(RandomizationKey(8)));
/// ```
pub fn critical_address(key: RandomizationKey) -> u64 {
    let mixed = key.0.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(STACK_SALT);
    (STACK_BASE ^ ((mixed & 0xffff_ffff) << 12)) + CRITICAL_OFFSET
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stack's base under `key`.
    fn stack_base(key: RandomizationKey) -> u64 {
        critical_address(key) - CRITICAL_OFFSET
    }

    #[test]
    fn same_key_same_layout() {
        assert_eq!(critical_address(RandomizationKey(42)), critical_address(RandomizationKey(42)));
    }

    #[test]
    fn bases_are_page_aligned_offsets_from_defaults() {
        for k in [0, 77, u64::from(u32::MAX)] {
            let offset = stack_base(RandomizationKey(k)) ^ STACK_BASE;
            assert_eq!(offset & 0xfff, 0, "not page aligned at key {k}");
        }
    }

    #[test]
    fn critical_address_sits_in_region() {
        // The slot is 0x1b8 bytes into the page the base moved to, and the
        // base moved within the stack's 2^44-byte window.
        for k in [3, u64::from(u32::MAX)] {
            let address = critical_address(RandomizationKey(k));
            assert_eq!(address & 0xfff, 0x1b8, "key {k}");
            assert_eq!(address >> 44, STACK_BASE >> 44, "key {k}");
        }
    }

    #[test]
    fn predicted_address_matches_iff_guess_right() {
        let key = RandomizationKey(1234);
        let address = critical_address(key);
        assert_eq!(critical_address(RandomizationKey(1234)), address);
        assert_ne!(critical_address(RandomizationKey(1235)), address);
    }

    #[test]
    fn distinct_keys_rarely_collide_on_critical_address() {
        // Over a small space, every pair of keys should produce distinct
        // critical addresses (the mix is injective on the low 32 bits
        // because the multiplier is odd).
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for k in 0..4096u64 {
            assert!(seen.insert(critical_address(RandomizationKey(k))), "collision at key {k}");
        }
    }
}
