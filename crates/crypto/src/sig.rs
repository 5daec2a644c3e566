//! MAC-based signatures and the doubly-signed response envelope.
//!
//! A [`Signer`] holds a principal's secret key (registered with the trusted
//! [`KeyAuthority`]) and produces [`Signature`]s. Verification goes through
//! the authority, mirroring how FORTRESS clients learn keys from the trusted
//! name server.
//!
//! [`DoublySigned`] is the wire format of a FORTRESS response: the server's
//! signature over the response body, over-signed by the proxy that forwarded
//! it. A client "accepts a response as valid if it has two authentic
//! signatures - one from the proxy that sent the response and the other from
//! one of the servers" (paper §3).

use crate::authority::KeyAuthority;
use crate::error::CryptoError;
use crate::keys::{KeyId, SecretKey};
use crate::sha256::Digest;

/// A signature: the signer's name, the id of the key used, and the MAC tag.
///
/// The name and key id are authenticated implicitly: verification recomputes
/// the tag with the authority's key for that name and compares key ids, so a
/// relabeled or replayed-under-new-key signature fails.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    signer: String,
    key_id: KeyId,
    tag: Digest,
}

impl Signature {
    /// Name of the principal that (claims to have) produced this signature.
    pub fn signer(&self) -> &str {
        &self.signer
    }

    /// Identifier of the key used.
    pub fn key_id(&self) -> KeyId {
        self.key_id
    }

    /// The MAC tag.
    pub fn tag(&self) -> &Digest {
        &self.tag
    }

    /// Builds a deliberately invalid signature for fault-injection tests.
    pub fn forged(signer: &str) -> Signature {
        Signature {
            signer: signer.to_owned(),
            key_id: KeyId(0),
            tag: Digest([0u8; 32]),
        }
    }

    /// Reassembles a signature from its wire components. Decoders use this;
    /// a fabricated signature simply fails verification.
    pub fn from_parts(signer: String, key_id: KeyId, tag: Digest) -> Signature {
        Signature { signer, key_id, tag }
    }

    /// This signature, borrowed.
    pub fn view(&self) -> SignatureRef<'_> {
        SignatureRef {
            signer: &self.signer,
            key_id: self.key_id,
            tag: &self.tag.0,
        }
    }
}

/// A [`Signature`] whose name and tag lie somewhere else, typically in the
/// frame it arrived in: what
/// [`KeyAuthority::verify_ref`](crate::KeyAuthority::verify_ref) checks
/// without anything being copied out first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SignatureRef<'a> {
    /// Name of the principal that (claims to have) produced the signature.
    pub signer: &'a str,
    /// Identifier of the key used.
    pub key_id: KeyId,
    /// The MAC tag.
    pub tag: &'a [u8; 32],
}

impl SignatureRef<'_> {
    /// Materializes the owned [`Signature`].
    pub fn to_owned(&self) -> Signature {
        Signature::from_parts(self.signer.to_owned(), self.key_id, Digest(*self.tag))
    }
}

/// A signing principal: a name plus its current secret key.
///
/// # Example
///
/// ```
/// use fortress_crypto::{KeyAuthority, Signer};
///
/// let authority = KeyAuthority::with_seed(3);
/// let signer = Signer::register("backup-2", &authority);
/// let sig = signer.sign(b"state update 17");
/// assert!(authority.verify("backup-2", b"state update 17", &sig));
/// ```
#[derive(Clone, Debug)]
pub struct Signer {
    name: String,
    key: SecretKey,
}

impl Signer {
    /// Registers `name` with the authority and returns its signer.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered; system assembly controls all
    /// names, so a duplicate is a configuration bug.
    pub fn register(name: &str, authority: &KeyAuthority) -> Signer {
        let key = authority
            .register(name)
            .expect("principal names are unique at assembly time");
        Signer {
            name: name.to_owned(),
            key,
        }
    }

    /// Wraps an existing key (e.g. after [`KeyAuthority::rekey`]).
    pub fn from_key(name: &str, key: SecretKey) -> Signer {
        Signer {
            name: name.to_owned(),
            key,
        }
    }

    /// This signer's principal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Identifier of this signer's key: with [`Signer::name`] and a stored
    /// tag it rebuilds a signature this signer made earlier.
    pub fn key_id(&self) -> KeyId {
        self.key.id()
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Signs the concatenation of `parts` without joining them.
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        Signature {
            signer: self.name.clone(),
            key_id: self.key.id(),
            tag: self.key.hmac().mac_parts(parts),
        }
    }
}

/// A response body carrying a server signature over-signed by a proxy.
///
/// The proxy signs the *pair* (body, server signature tag) so the two
/// signatures cannot be mixed and matched across responses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DoublySigned {
    body: Vec<u8>,
    server_sig: Signature,
    proxy_sig: Signature,
}

impl DoublySigned {
    /// Proxy-side constructor: over-signs an authentic server response.
    pub fn over_sign(body: Vec<u8>, server_sig: Signature, proxy: &Signer) -> DoublySigned {
        let proxy_sig = proxy.sign_parts(&[&body, &server_sig.tag().0]);
        DoublySigned {
            body,
            server_sig,
            proxy_sig,
        }
    }

    /// Client-side verification against the trusted authority.
    ///
    /// `expected_servers` is the set of server principal names learned from
    /// the name server (the client knows server indices and public keys,
    /// paper §3); the inner signature must come from one of them. Likewise
    /// the outer signature must come from a known proxy.
    ///
    /// # Errors
    ///
    /// Returns the first failing check as a [`CryptoError`].
    pub fn verify(
        &self,
        authority: &KeyAuthority,
        expected_servers: &[String],
        expected_proxies: &[String],
    ) -> Result<(), CryptoError> {
        if !expected_servers.iter().any(|s| s == self.server_sig.signer()) {
            return Err(CryptoError::BadSignature {
                principal: self.server_sig.signer().to_owned(),
            });
        }
        if !expected_proxies.iter().any(|p| p == self.proxy_sig.signer()) {
            return Err(CryptoError::BadSignature {
                principal: self.proxy_sig.signer().to_owned(),
            });
        }
        authority.verify_strict(self.server_sig.signer(), &self.body, &self.server_sig)?;
        let over_signed: Vec<u8> = self
            .body
            .iter()
            .copied()
            .chain(self.server_sig.tag().0.iter().copied())
            .collect();
        authority.verify_strict(self.proxy_sig.signer(), &over_signed, &self.proxy_sig)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KeyAuthority, Signer, Signer) {
        let authority = KeyAuthority::with_seed(11);
        let server = Signer::register("server-1", &authority);
        let proxy = Signer::register("proxy-0", &authority);
        (authority, server, proxy)
    }

    #[test]
    fn doubly_signed_roundtrip() {
        let (authority, server, proxy) = setup();
        let body = b"result=42".to_vec();
        let server_sig = server.sign(&body);
        let env = DoublySigned::over_sign(body, server_sig, &proxy);
        env.verify(
            &authority,
            &["server-1".into()],
            &["proxy-0".into()],
        )
        .unwrap();
    }

    #[test]
    fn tampered_body_rejected() {
        let (authority, server, proxy) = setup();
        let body = b"result=42".to_vec();
        let server_sig = server.sign(&body);
        let mut env = DoublySigned::over_sign(body, server_sig, &proxy);
        env.body = b"result=43".to_vec();
        assert!(env
            .verify(&authority, &["server-1".into()], &["proxy-0".into()])
            .is_err());
    }

    #[test]
    fn unexpected_server_rejected() {
        let (authority, server, proxy) = setup();
        let body = b"r".to_vec();
        let sig = server.sign(&body);
        let env = DoublySigned::over_sign(body, sig, &proxy);
        // Client only trusts server-9.
        let err = env
            .verify(&authority, &["server-9".into()], &["proxy-0".into()])
            .unwrap_err();
        assert!(matches!(err, CryptoError::BadSignature { .. }));
    }

    #[test]
    fn unexpected_proxy_rejected() {
        let (authority, server, proxy) = setup();
        let body = b"r".to_vec();
        let sig = server.sign(&body);
        let env = DoublySigned::over_sign(body, sig, &proxy);
        assert!(env
            .verify(&authority, &["server-1".into()], &["proxy-7".into()])
            .is_err());
    }

    #[test]
    fn forged_server_signature_rejected() {
        let (authority, _server, proxy) = setup();
        let body = b"r".to_vec();
        let env = DoublySigned::over_sign(body, Signature::forged("server-1"), &proxy);
        assert!(env
            .verify(&authority, &["server-1".into()], &["proxy-0".into()])
            .is_err());
    }

    #[test]
    fn signature_cannot_be_transplanted_across_bodies() {
        let (authority, server, proxy) = setup();
        let sig_a = server.sign(b"a");
        let env = DoublySigned::over_sign(b"b".to_vec(), sig_a, &proxy);
        assert!(env
            .verify(&authority, &["server-1".into()], &["proxy-0".into()])
            .is_err());
    }

    #[test]
    fn sign_parts_equals_sign_of_concat() {
        let (_, server, _) = setup();
        assert_eq!(server.sign(b"xyz"), server.sign_parts(&[b"x", b"yz"]));
    }

    #[test]
    fn accessors() {
        let (_, server, _) = setup();
        let sig = server.sign(b"m");
        assert_eq!(sig.signer(), "server-1");
        assert_eq!(server.name(), "server-1");
    }
}
