//! The trusted key authority, modeling the paper's trusted name server.
//!
//! FORTRESS assumes "a trusted name-server (NS) that is read-only for
//! clients" through which principals' public keys are learned. Because this
//! reproduction uses MAC-based signatures (see crate docs), the authority is
//! the component that holds every principal's verification key and answers
//! verification queries. It is *trusted*: the attack model never allows it to
//! be compromised, exactly as the paper assumes for its NS.

use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::CryptoError;
use crate::keys::SecretKey;
use crate::sha256::{Digest, Sha256};
use crate::sig::{Signature, SignatureRef};

/// Trusted registry of signing principals and their verification keys.
///
/// Thread-safe: proxies, servers and clients may share one authority across
/// threads (`Arc<KeyAuthority>`).
///
/// # Example
///
/// ```
/// use fortress_crypto::authority::KeyAuthority;
/// use fortress_crypto::sig::Signer;
///
/// let authority = KeyAuthority::with_seed(1);
/// let proxy = Signer::register("proxy-0", &authority);
/// let sig = proxy.sign(b"fwd");
/// assert!(authority.verify("proxy-0", b"fwd", &sig));
/// ```
#[derive(Debug)]
pub struct KeyAuthority {
    principals: RwLock<HashMap<String, SecretKey>>,
    /// Master seed from which registered keys are derived; keeps whole-system
    /// runs reproducible from a single seed. Behind a lock only so
    /// [`KeyAuthority::reset_with_seed`] can rewind shared handles.
    master: RwLock<SecretKey>,
    counter: RwLock<u64>,
}

/// Shared guard, transparent to poisoning: every state a writer below
/// passes through is a valid registry (at worst the derivation counter
/// runs ahead of the map), so a guard recovered from a panicked holder
/// is safe to use.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Exclusive guard, poison-transparent for the same reason as [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Why [`KeyAuthority::check`] refused a signature. It carries no name, so
/// a refusal allocates nothing; [`KeyAuthority::verify_strict`] adds it.
enum Refusal {
    UnknownPrincipal,
    BadSignature,
}

fn master_from_seed(seed: u64) -> SecretKey {
    let digest = Sha256::digest_parts(&[b"fortress-authority-seed", &seed.to_le_bytes()]);
    SecretKey::from_bytes(digest.0)
}

impl KeyAuthority {
    /// Creates an authority with a random master seed.
    pub fn new() -> Self {
        let master = SecretKey::generate(&mut rand::thread_rng());
        KeyAuthority {
            principals: RwLock::new(HashMap::new()),
            master: RwLock::new(master),
            counter: RwLock::new(0),
        }
    }

    /// Creates an authority whose registrations are a deterministic function
    /// of `seed` and the registration order/names.
    pub fn with_seed(seed: u64) -> Self {
        KeyAuthority {
            principals: RwLock::new(HashMap::new()),
            master: RwLock::new(master_from_seed(seed)),
            counter: RwLock::new(0),
        }
    }

    /// Rewinds shared handles to the state [`KeyAuthority::with_seed`]
    /// would construct: principals cleared (keeping map capacity), the
    /// derivation counter zeroed, the master key re-derived from `seed`.
    /// Re-registering the same names in the same order afterwards yields
    /// identical keys — the trial-arena reset path.
    pub fn reset_with_seed(&self, seed: u64) {
        let mut principals = write(&self.principals);
        let mut counter = write(&self.counter);
        *write(&self.master) = master_from_seed(seed);
        principals.clear();
        *counter = 0;
    }

    /// Registers a new principal and returns its secret signing key.
    ///
    /// Prefer [`crate::sig::Signer::register`], which wraps this.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DuplicatePrincipal`] if the name is taken.
    pub fn register(&self, name: &str) -> Result<SecretKey, CryptoError> {
        let mut principals = write(&self.principals);
        if principals.contains_key(name) {
            return Err(CryptoError::DuplicatePrincipal(name.to_owned()));
        }
        let mut counter = write(&self.counter);
        let master = read(&self.master);
        let digest = Sha256::digest_parts(&[
            b"fortress-principal",
            master.expose(),
            &counter.to_le_bytes(),
            name.as_bytes(),
        ]);
        *counter += 1;
        let key = SecretKey::from_bytes(digest.0);
        principals.insert(name.to_owned(), key.clone());
        Ok(key)
    }

    /// Re-keys an existing principal (used when a node is re-randomized and
    /// rebooted with fresh credentials). Returns the new key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownPrincipal`] if the principal was never
    /// registered.
    pub fn rekey(&self, name: &str) -> Result<SecretKey, CryptoError> {
        let mut principals = write(&self.principals);
        if !principals.contains_key(name) {
            return Err(CryptoError::UnknownPrincipal(name.to_owned()));
        }
        let mut counter = write(&self.counter);
        let master = read(&self.master);
        let digest = Sha256::digest_parts(&[
            b"fortress-rekey",
            master.expose(),
            &counter.to_le_bytes(),
            name.as_bytes(),
        ]);
        *counter += 1;
        let key = SecretKey::from_bytes(digest.0);
        principals.insert(name.to_owned(), key.clone());
        Ok(key)
    }

    /// Verifies that `sig` is `name`'s signature over `message`.
    ///
    /// Unknown principals verify as `false`.
    pub fn verify(&self, name: &str, message: &[u8], sig: &Signature) -> bool {
        self.verify_ref(name, message, sig.view())
    }

    /// [`KeyAuthority::verify`] on a signature still lying in the frame it
    /// arrived in. A refusal costs no more than an acceptance: neither
    /// verdict touches the allocator.
    pub fn verify_ref(&self, name: &str, message: &[u8], sig: SignatureRef<'_>) -> bool {
        self.check(name, message, sig).is_ok()
    }

    /// Like [`KeyAuthority::verify`] but explains failures.
    ///
    /// # Errors
    ///
    /// [`CryptoError::UnknownPrincipal`] if `name` is unregistered;
    /// [`CryptoError::BadSignature`] if the tag or key id do not match.
    pub fn verify_strict(
        &self,
        name: &str,
        message: &[u8],
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        self.check(name, message, sig.view()).map_err(|refusal| match refusal {
            Refusal::UnknownPrincipal => CryptoError::UnknownPrincipal(name.to_owned()),
            Refusal::BadSignature => CryptoError::BadSignature { principal: name.to_owned() },
        })
    }

    /// The one body of verification, four checks in this order: `name` is
    /// registered, the signature claims `name`, it names `name`'s current
    /// key, and its tag is that key's MAC over `message`.
    fn check(&self, name: &str, message: &[u8], sig: SignatureRef<'_>) -> Result<(), Refusal> {
        let principals = read(&self.principals);
        let key = principals.get(name).ok_or(Refusal::UnknownPrincipal)?;
        if sig.signer != name
            || sig.key_id != key.id()
            || !key.hmac().verify(message, &Digest(*sig.tag))
        {
            return Err(Refusal::BadSignature);
        }
        Ok(())
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        read(&self.principals).len()
    }

    /// Returns `true` if no principal has been registered.
    pub fn is_empty(&self) -> bool {
        read(&self.principals).is_empty()
    }
}

impl Default for KeyAuthority {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Signer;

    #[test]
    fn register_and_verify_roundtrip() {
        let authority = KeyAuthority::with_seed(7);
        let signer = Signer::register("s0", &authority);
        let sig = signer.sign(b"hello");
        assert!(authority.verify("s0", b"hello", &sig));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let authority = KeyAuthority::with_seed(7);
        authority.register("s0").unwrap();
        assert_eq!(
            authority.register("s0"),
            Err(CryptoError::DuplicatePrincipal("s0".into()))
        );
    }

    #[test]
    fn unknown_principal_fails_verification() {
        let authority = KeyAuthority::with_seed(7);
        let signer = Signer::register("s0", &authority);
        let sig = signer.sign(b"m");
        let err = authority.verify_strict("ghost", b"m", &sig).unwrap_err();
        assert_eq!(err, CryptoError::UnknownPrincipal("ghost".into()));
    }

    #[test]
    fn cross_principal_signature_rejected() {
        let authority = KeyAuthority::with_seed(7);
        let s0 = Signer::register("s0", &authority);
        Signer::register("s1", &authority);
        let sig = s0.sign(b"m");
        // A signature by s0 must not verify as s1's.
        assert!(!authority.verify("s1", b"m", &sig));
    }

    #[test]
    fn rekey_invalidates_old_signatures() {
        let authority = KeyAuthority::with_seed(7);
        let signer = Signer::register("s0", &authority);
        let old_sig = signer.sign(b"m");
        assert!(authority.verify("s0", b"m", &old_sig));
        // Nothing is cold by now: the signer's key and the authority's
        // entry have both cached their id and pad states. The caches go
        // where the keys go.
        let new_key = authority.rekey("s0").unwrap();
        assert!(!authority.verify("s0", b"m", &old_sig), "stale key accepted");
        assert!(!authority.verify("s0", b"n", &signer.sign(b"n")), "stale signer accepted");
        // The old tag under the new id passes the id check and must fail
        // the MAC: the entry MACs with the new key's pads, not the old.
        let relabelled = Signature::from_parts("s0".into(), new_key.id(), *old_sig.tag());
        assert!(!authority.verify("s0", b"m", &relabelled), "stale pad states accepted");
        let new_signer = Signer::from_key("s0", new_key);
        assert!(authority.verify("s0", b"m", &new_signer.sign(b"m")));
    }

    /// A rewound authority hands out the same keys again, whatever its
    /// entries had cached before the rewind.
    #[test]
    fn reset_with_seed_forgets_warm_entries() {
        let authority = KeyAuthority::with_seed(5);
        let first = Signer::register("s0", &authority);
        let sig = first.sign(b"m");
        assert!(authority.verify("s0", b"m", &sig));
        authority.reset_with_seed(6);
        assert!(!authority.verify("s0", b"m", &sig), "a cleared principal verified");
        let other = Signer::register("s0", &authority);
        assert!(!authority.verify("s0", b"m", &sig), "another seed's key accepted");
        assert!(authority.verify("s0", b"m", &other.sign(b"m")));
        authority.reset_with_seed(5);
        let again = Signer::register("s0", &authority);
        assert_eq!(again.sign(b"m"), sig);
        assert!(authority.verify("s0", b"m", &sig));
    }

    #[test]
    fn rekey_unknown_principal_errors() {
        let authority = KeyAuthority::with_seed(7);
        assert_eq!(
            authority.rekey("nobody"),
            Err(CryptoError::UnknownPrincipal("nobody".into()))
        );
    }

    #[test]
    fn seeded_authorities_are_reproducible() {
        let a = KeyAuthority::with_seed(99);
        let b = KeyAuthority::with_seed(99);
        let ka = a.register("x").unwrap();
        let kb = b.register("x").unwrap();
        assert_eq!(ka, kb);
    }

    #[test]
    fn len_and_is_empty() {
        let authority = KeyAuthority::with_seed(1);
        assert!(authority.is_empty());
        authority.register("a").unwrap();
        assert_eq!(authority.len(), 1);
        assert!(!authority.is_empty());
    }
}
