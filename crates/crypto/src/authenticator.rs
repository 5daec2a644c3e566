//! PBFT-style authenticator vectors.
//!
//! The SMR engine's ordering protocol (used by system class S0) authenticates
//! each multicast with an *authenticator*: a vector of MACs, one per
//! receiver, each computed under the pairwise key shared by the sender and
//! that receiver (Castro & Liskov, *Practical Byzantine Fault Tolerance*).
//! This is cheaper than a signature per message and matches how production
//! BFT systems authenticate the common case.

use crate::authority::KeyAuthority;
use crate::error::CryptoError;
use crate::hmac::HmacSha256;
use crate::sha256::Digest;

/// A vector of per-receiver MACs over one message.
///
/// # Example
///
/// ```
/// use fortress_crypto::authenticator::Authenticator;
/// use fortress_crypto::KeyAuthority;
///
/// let authority = KeyAuthority::with_seed(5);
/// authority.register("replica-0")?;
/// let receivers = vec!["replica-1".to_string(), "replica-2".to_string()];
/// let auth = Authenticator::generate(&authority, "replica-0", &receivers, b"PRE-PREPARE")?;
/// assert!(auth.verify(&authority, "replica-0", "replica-1", b"PRE-PREPARE")?);
/// # Ok::<(), fortress_crypto::CryptoError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Authenticator {
    entries: Vec<(String, Digest)>,
}

impl Authenticator {
    /// Computes the authenticator of `message` from `sender` to every name in
    /// `receivers`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownPrincipal`] if `sender` is unregistered.
    pub fn generate(
        authority: &KeyAuthority,
        sender: &str,
        receivers: &[String],
        message: &[u8],
    ) -> Result<Authenticator, CryptoError> {
        let mut entries = Vec::with_capacity(receivers.len());
        for receiver in receivers {
            let key = authority.pairwise(sender, receiver)?;
            entries.push((receiver.clone(), HmacSha256::mac(key.expose(), message)));
        }
        Ok(Authenticator { entries })
    }

    /// Verifies the entry addressed to `receiver`.
    ///
    /// Returns `Ok(true)` when the MAC checks out, `Ok(false)` when it does
    /// not (a *detected* forgery, the normal Byzantine case).
    ///
    /// # Errors
    ///
    /// [`CryptoError::MissingAuthenticatorEntry`] when no entry is addressed
    /// to `receiver`; [`CryptoError::UnknownPrincipal`] when `sender` is
    /// unregistered.
    pub fn verify(
        &self,
        authority: &KeyAuthority,
        sender: &str,
        receiver: &str,
        message: &[u8],
    ) -> Result<bool, CryptoError> {
        let entry = self
            .entries
            .iter()
            .find(|(name, _)| name == receiver)
            .ok_or_else(|| CryptoError::MissingAuthenticatorEntry {
                verifier: receiver.to_owned(),
            })?;
        let key = authority.pairwise(sender, receiver)?;
        Ok(HmacSha256::verify(key.expose(), message, &entry.1))
    }

    /// Number of receiver entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Corrupts the entry addressed to `receiver`, for fault-injection tests.
    /// Returns `true` if an entry was found and corrupted.
    pub fn corrupt_entry(&mut self, receiver: &str) -> bool {
        for (name, tag) in &mut self.entries {
            if name == receiver {
                tag.0[0] ^= 0xff;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn setup() -> KeyAuthority {
        let authority = KeyAuthority::with_seed(21);
        for name in ["r0", "r1", "r2", "r3"] {
            authority.register(name).unwrap();
        }
        authority
    }

    #[test]
    fn all_receivers_verify() {
        let authority = setup();
        let rx = names(&["r1", "r2", "r3"]);
        let auth = Authenticator::generate(&authority, "r0", &rx, b"msg").unwrap();
        assert_eq!(auth.len(), 3);
        for r in ["r1", "r2", "r3"] {
            assert!(auth.verify(&authority, "r0", r, b"msg").unwrap(), "{r}");
        }
    }

    #[test]
    fn wrong_message_fails() {
        let authority = setup();
        let auth =
            Authenticator::generate(&authority, "r0", &names(&["r1"]), b"msg").unwrap();
        assert!(!auth.verify(&authority, "r0", "r1", b"other").unwrap());
    }

    #[test]
    fn wrong_sender_fails() {
        let authority = setup();
        let auth =
            Authenticator::generate(&authority, "r0", &names(&["r2"]), b"msg").unwrap();
        // r1 claims to be the sender; r2's pairwise key with r1 differs.
        assert!(!auth.verify(&authority, "r1", "r2", b"msg").unwrap());
    }

    #[test]
    fn missing_entry_is_an_error() {
        let authority = setup();
        let auth =
            Authenticator::generate(&authority, "r0", &names(&["r1"]), b"msg").unwrap();
        let err = auth.verify(&authority, "r0", "r3", b"msg").unwrap_err();
        assert_eq!(
            err,
            CryptoError::MissingAuthenticatorEntry {
                verifier: "r3".into()
            }
        );
    }

    #[test]
    fn corrupt_entry_detected() {
        let authority = setup();
        let mut auth =
            Authenticator::generate(&authority, "r0", &names(&["r1", "r2"]), b"m").unwrap();
        assert!(auth.corrupt_entry("r1"));
        assert!(!auth.verify(&authority, "r0", "r1", b"m").unwrap());
        // Other entries are unaffected.
        assert!(auth.verify(&authority, "r0", "r2", b"m").unwrap());
        assert!(!auth.corrupt_entry("r9"));
    }

    #[test]
    fn empty_receiver_set() {
        let authority = setup();
        let auth = Authenticator::generate(&authority, "r0", &[], b"m").unwrap();
        assert!(auth.is_empty());
    }

    #[test]
    fn unknown_sender_errors() {
        let authority = setup();
        let err = Authenticator::generate(&authority, "ghost", &names(&["r1"]), b"m");
        assert!(matches!(err, Err(CryptoError::UnknownPrincipal(_))));
    }
}
