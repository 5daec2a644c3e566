//! Secret keys, key identifiers and deterministic key generation.
//!
//! Keys in this crate are 32-byte symmetric secrets. Each key carries a
//! [`KeyId`] derived from its bytes so that signatures can name the key that
//! produced them without revealing it, and the [`HmacKey`] it MACs through.
//! Both are computed once, on the key's first use: a key that is derived and
//! never signs (every key of a sweep trial) pays for neither.

use std::fmt;
use std::sync::OnceLock;

use rand::RngCore;

use crate::hmac::HmacKey;
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
/// Equality is equality of the key bytes: whether a key has been used yet
/// is not part of its value.
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
#[derive(Clone)]
pub struct SecretKey {
    bytes: [u8; KEY_LEN],
    /// Filled on first use and never invalidated: the bytes are immutable
    /// and re-keying builds a new `SecretKey`. A lock and not a cell because
    /// the authority fills its copy under a shared guard.
    keyed: OnceLock<(KeyId, HmacKey)>,
}

impl PartialEq for SecretKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for SecretKey {}

impl SecretKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SecretKey { bytes, keyed: OnceLock::new() }
    }

    /// Generates a fresh random key from the supplied RNG.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        SecretKey::from_bytes(bytes)
    }

    /// Deterministically derives a sub-key for `purpose`.
    ///
    /// Used to give each principal pair its own MAC key from one registered
    /// root key: `derive` is a one-way function of the parent key, so a
    /// compromised derived key does not reveal its siblings.
    pub fn derive(&self, purpose: &[u8]) -> SecretKey {
        let digest = Sha256::digest_parts(&[b"fortress-derive", &self.bytes, purpose]);
        SecretKey::from_bytes(digest.0)
    }

    fn keyed(&self) -> &(KeyId, HmacKey) {
        self.keyed.get_or_init(|| {
            let digest = Sha256::digest_parts(&[b"fortress-key-id", &self.bytes]);
            (KeyId(digest.prefix_u64()), HmacKey::new(&self.bytes))
        })
    }

    /// Returns the public identifier of this key (hashed on first use).
    pub fn id(&self) -> KeyId {
        self.keyed().0
    }

    /// The key prepared for MACing: what signing and verification read.
    pub fn hmac(&self) -> &HmacKey {
        &self.keyed().1
    }

    /// Exposes the raw key bytes. Call sites of this method are the audit
    /// surface for key-material handling: the key derivations only, since
    /// signing and verifying read [`SecretKey::hmac`].
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
        let cold = format!("{key:?}");
        // Formatting asked for the id, so the key is warm from here on: it
        // holds both pad states, which forge MACs as well as the bytes do.
        let signer = crate::sig::Signer::from_key("s0", key.clone());
        signer.sign(b"m");
        let warm = format!("{key:?}");
        assert!(warm.starts_with("SecretKey(KeyId("));
        let renderings = [cold, warm, format!("{signer:?}"), format!("{:?}", key.hmac())];

        let mut secret_words = Vec::new();
        for pad in [0x36u8, 0x5c] {
            let mut block = [pad; crate::sha256::BLOCK_LEN];
            block[..KEY_LEN].fill(0xab ^ pad);
            let mut midstate = Sha256::new();
            midstate.update(&block);
            secret_words.extend(midstate.state_words());
        }
        for rendered in &renderings {
            assert!(!rendered.contains("abababab"), "debug leaked key: {rendered}");
            assert!(!rendered.contains("171, 171"), "debug leaked key: {rendered}");
            for w in &secret_words {
                for leaked in [format!("{w}"), format!("{w:x}"), format!("{w:08x}")] {
                    assert!(!rendered.contains(&leaked), "debug leaked pad state: {rendered}");
                }
            }
        }
    }

    /// Whether a key has been used is not part of its value: equality,
    /// the id and the tags are functions of the bytes.
    #[test]
    fn a_key_that_has_signed_equals_its_fresh_clone() {
        let used = SecretKey::from_bytes([3u8; KEY_LEN]);
        let fresh = used.clone();
        let tag = used.hmac().mac_parts(&[b"m"]);
        assert!(used.keyed.get().is_some() && fresh.keyed.get().is_none());
        assert_eq!(used, fresh);
        assert_eq!(fresh, used);
        assert_ne!(used, SecretKey::from_bytes([4u8; KEY_LEN]));
        assert_eq!(used.id(), fresh.id());
        assert_eq!(fresh.hmac().mac_parts(&[b"m"]), tag);
        assert_eq!(tag, crate::hmac::HmacSha256::mac(used.expose(), b"m"));
        // A clone of a warm key carries the cache and is still the same key.
        let warm_clone = used.clone();
        assert!(warm_clone.keyed.get().is_some());
        assert_eq!(warm_clone, SecretKey::from_bytes([3u8; KEY_LEN]));
    }

    #[test]
    fn key_id_formatting() {
        let id = KeyId(0xdeadbeef);
        assert_eq!(format!("{id}"), "00000000deadbeef");
        assert_eq!(format!("{id:?}"), "KeyId(00000000deadbeef)");
    }
}
