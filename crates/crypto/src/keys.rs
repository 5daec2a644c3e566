//! Secret keys, key identifiers and deterministic key generation.
//!
//! Keys in this crate are 32-byte symmetric secrets. Each key carries a
//! [`KeyId`] derived from its bytes so that signatures can name the key that
//! produced them without revealing it.

use std::fmt;

use rand::RngCore;

use crate::sha256::Sha256;

/// Length of a secret key in bytes.
pub const KEY_LEN: usize = 32;

/// A public, non-secret identifier for a [`SecretKey`].
///
/// Derived as the first 8 bytes of `SHA-256("fortress-key-id" || key)`, so it
/// is safe to embed in messages: recovering the key from it would require
/// inverting SHA-256.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyId({:016x})", self.0)
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A 32-byte symmetric secret key.
///
/// The `Debug` implementation never prints key material (only the key id),
/// and the raw bytes are only reachable through [`SecretKey::expose`], which
/// makes accidental leakage grep-able.
///
/// # Example
///
/// ```
/// use fortress_crypto::keys::SecretKey;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let key = SecretKey::generate(&mut rng);
/// assert_eq!(key.id(), key.clone().id());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    bytes: [u8; KEY_LEN],
}

impl SecretKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SecretKey { bytes }
    }

    /// Generates a fresh random key from the supplied RNG.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        SecretKey { bytes }
    }

    /// Deterministically derives a sub-key for `purpose`.
    ///
    /// Used to give each principal pair its own MAC key from one registered
    /// root key: `derive` is a one-way function of the parent key, so a
    /// compromised derived key does not reveal its siblings.
    pub fn derive(&self, purpose: &[u8]) -> SecretKey {
        let digest = Sha256::digest_parts(&[b"fortress-derive", &self.bytes, purpose]);
        SecretKey { bytes: digest.0 }
    }

    /// Returns the public identifier of this key.
    pub fn id(&self) -> KeyId {
        let digest = Sha256::digest_parts(&[b"fortress-key-id", &self.bytes]);
        KeyId(digest.prefix_u64())
    }

    /// Exposes the raw key bytes. Call sites of this method are the audit
    /// surface for key-material handling.
    pub fn expose(&self) -> &[u8; KEY_LEN] {
        &self.bytes
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey({:?})", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_is_seed_deterministic() {
        let k1 = SecretKey::generate(&mut StdRng::seed_from_u64(42));
        let k2 = SecretKey::generate(&mut StdRng::seed_from_u64(42));
        let k3 = SecretKey::generate(&mut StdRng::seed_from_u64(43));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn id_is_stable_and_key_dependent() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = SecretKey::generate(&mut rng);
        let b = SecretKey::generate(&mut rng);
        assert_eq!(a.id(), a.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn derive_is_deterministic_and_purpose_separated() {
        let root = SecretKey::from_bytes([9u8; KEY_LEN]);
        let d1 = root.derive(b"proxy-0");
        let d2 = root.derive(b"proxy-0");
        let d3 = root.derive(b"proxy-1");
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
        assert_ne!(d1, root);
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = SecretKey::from_bytes([0xabu8; KEY_LEN]);
        let rendered = format!("{key:?}");
        assert!(!rendered.contains("abababab"), "debug leaked key: {rendered}");
        assert!(rendered.starts_with("SecretKey(KeyId("));
    }

    #[test]
    fn key_id_formatting() {
        let id = KeyId(0xdeadbeef);
        assert_eq!(format!("{id}"), "00000000deadbeef");
        assert_eq!(format!("{id:?}"), "KeyId(00000000deadbeef)");
    }
}
