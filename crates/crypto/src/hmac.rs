//! RFC 2104 HMAC over [`crate::sha256`].
//!
//! HMAC-SHA256 is the sole MAC primitive of the stack: it backs the
//! [`crate::sig`] signature scheme.
//!
//! Half of a MAC depends on the key alone: the key block padded with `ipad`
//! and with `opad` is one SHA-256 compression each before any message byte
//! is seen. [`HmacKey`] is that half, computed once; a MAC through it is the
//! inner and outer tails only (two compressions for a message under 56
//! bytes, not four). A [`crate::keys::SecretKey`] keeps its `HmacKey` from
//! first use on; [`HmacSha256`] is the same body behind a one-shot key.
//!
//! Every MAC runs through [`HmacKey::mac_parts`], which counts it in a
//! per-thread tally, [`macs_computed`]: signatures, verifications and
//! one-shot MACs alike. Tests hold a request to its MACs with it, a count
//! the host's speed cannot move.
//!
//! # Example
//!
//! ```
//! use fortress_crypto::hmac::{HmacKey, HmacSha256};
//!
//! let tag = HmacSha256::mac(b"key material", b"message");
//! assert!(HmacSha256::verify(b"key material", b"message", &tag));
//! assert!(!HmacSha256::verify(b"key material", b"other", &tag));
//!
//! let keyed = HmacKey::new(b"key material");
//! assert_eq!(keyed.mac_parts(&[b"mess", b"age"]), tag);
//! ```

use std::cell::Cell;
use std::fmt;

use crate::sha256::{Digest, Sha256, BLOCK_LEN};

thread_local! {
    // Const-initialised and without a destructor: a MAC pays one
    // thread-local increment.
    static MACS: Cell<u64> = const { Cell::new(0) };
}

/// How many MACs this thread has computed so far: a tally that
/// [`HmacKey::mac_parts`] advances by one per call.
pub fn macs_computed() -> u64 {
    MACS.with(Cell::get)
}

/// The key-dependent half of HMAC-SHA256: RFC 2104's inner and outer
/// hashers, each stopped after its pad block.
///
/// It forges MACs as well as the key does, so it is key material: `Debug`
/// prints no state and nothing reads the states back out.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Pads `key` and compresses both pads.
    ///
    /// Keys longer than the 64-byte block size are first hashed, per RFC
    /// 2104; shorter keys are zero-padded.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = Sha256::digest(key);
            key_block[..hashed.0.len()].copy_from_slice(&hashed.0);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// Computes the MAC of the concatenation of `parts` without allocating a
    /// joined buffer, on copies of the two states: no message reaches the next.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        MACS.with(|n| n.set(n.get() + 1));
        let mut inner = self.inner.clone();
        for p in parts {
            inner.update(p);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize().0);
        outer.finalize()
    }

    /// Verifies a tag in constant time with respect to tag contents.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        constant_time_eq(&self.mac_parts(&[message]).0, &tag.0)
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

/// HMAC-SHA256 under a key used once: each function builds an [`HmacKey`]
/// and drops it. A caller that MACs under one key twice holds the `HmacKey`.
#[derive(Debug, Clone, Copy)]
pub struct HmacSha256;

impl HmacSha256 {
    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(key: &[u8], message: &[u8]) -> Digest {
        HmacKey::new(key).mac_parts(&[message])
    }

    /// Computes the MAC of the concatenation of `parts`.
    pub fn mac_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
        HmacKey::new(key).mac_parts(parts)
    }

    /// Verifies a tag in constant time with respect to tag contents.
    pub fn verify(key: &[u8], message: &[u8], tag: &Digest) -> bool {
        HmacKey::new(key).verify(message, tag)
    }
}

/// Constant-time byte-slice comparison (no early exit on mismatch).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The tag as hex, computed on both paths: under a one-shot key, and
    /// under a prepared key that has already MACed something else.
    fn tag_hex(key: &[u8], message: &[u8]) -> String {
        let tag = HmacSha256::mac(key, message);
        let keyed = HmacKey::new(key);
        let other = keyed.mac_parts(&[b"some other message"]);
        assert_eq!(keyed.mac_parts(&[message]), tag);
        assert!(keyed.verify(message, &tag));
        assert!(!keyed.verify(message, &other));
        hex(&tag.0)
    }

    /// RFC 4231 test cases 1-4 and 6 for HMAC-SHA256 (case 6: a key over
    /// the block size is hashed before it is padded, keyed path included).
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            tag_hex(&key, b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            tag_hex(b"Jefe", b"what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            tag_hex(&key, &data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            tag_hex(&key, &data),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            tag_hex(&key, b"Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn every_mac_is_tallied_on_its_own_thread() {
        let key = HmacKey::new(b"k");
        let before = macs_computed();
        let tag = key.mac_parts(&[b"m"]);
        assert!(key.verify(b"m", &tag));
        assert_eq!(HmacSha256::mac(b"k", b"m"), tag);
        assert_eq!(macs_computed() - before, 3, "a MAC, a verification and a one-shot MAC");
        let elsewhere = std::thread::spawn(|| (HmacSha256::mac(b"k", b"m"), macs_computed()));
        assert_eq!(elsewhere.join().unwrap(), (tag, 1), "another thread counts its own");
        assert_eq!(macs_computed() - before, 3);
    }

    #[test]
    fn mac_parts_matches_joined() {
        let key = b"some key";
        let joined = HmacSha256::mac(key, b"one two three");
        let parts = HmacSha256::mac_parts(key, &[b"one ", b"two ", b"three"]);
        assert_eq!(joined, parts);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &tag));
        assert!(!HmacSha256::verify(b"k", b"m2", &tag));
        assert!(!HmacSha256::verify(b"k2", b"m", &tag));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(HmacSha256::mac(b"a", b"m"), HmacSha256::mac(b"b", b"m"));
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"abcd"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn key_exactly_block_size() {
        let key = [0x42u8; 64];
        let t1 = HmacSha256::mac(&key, b"msg");
        // A block-size key must NOT be hashed first; compare against a
        // manually padded equivalent by checking it differs from the hashed
        // variant.
        let hashed_key = crate::sha256::Sha256::digest(&key);
        let t2 = HmacSha256::mac(&hashed_key.0, b"msg");
        assert_ne!(t1, t2);
    }
}
