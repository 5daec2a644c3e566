//! Cryptographic substrate for the FORTRESS reproduction.
//!
//! The FORTRESS architecture (Clarke & Ezhilchelvan, DSN 2010) requires that
//! servers *sign* responses, that proxies *over-sign* one authentic server
//! response, and that clients verify the resulting **doubly-signed** response
//! carries two authentic signatures. The paper assumes a trusted, read-only
//! name server (NS) through which clients learn proxies' and servers' public
//! keys.
//!
//! This crate provides everything the protocol stack needs, built from
//! scratch on the approved dependency set (no external crypto crates):
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, on the CPU's SHA extensions where it
//!   has them and a portable loop otherwise (chosen at run time).
//! * [`hmac`] — RFC 2104 HMAC-SHA256; [`hmac::HmacKey`] is the half of a
//!   MAC that depends on the key alone, computed once per key.
//! * [`keys`] — secret keys, key identifiers and deterministic generation;
//!   a key caches its id and its `HmacKey` the first time it is used.
//! * [`authority`] — a trusted [`KeyAuthority`] modeling the paper's NS: it
//!   distributes verification capability for every principal's signatures.
//! * [`sig`] — MAC-based signatures ([`Signer`], [`Signature`]) verified
//!   through the authority, plus the [`sig::DoublySigned`] envelope.
//!
//! # Substitution note
//!
//! Real deployments would use asymmetric signatures. Within the paper's trust
//! model a trusted NS already exists, so MAC-based signatures whose
//! verification keys are held by that trusted authority provide the same two
//! properties the protocol relies on: the attacker cannot forge a signature of
//! an uncompromised principal, and any party can check authenticity through
//! the NS.
//!
//! # Example
//!
//! ```
//! use fortress_crypto::authority::KeyAuthority;
//! use fortress_crypto::sig::Signer;
//!
//! let authority = KeyAuthority::new();
//! let server = Signer::register("server-0", &authority);
//! let sig = server.sign(b"response body");
//! assert!(authority.verify("server-0", b"response body", &sig));
//! assert!(!authority.verify("server-0", b"tampered body", &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod sha256;
pub mod sig;

pub use authority::KeyAuthority;
pub use error::CryptoError;
pub use hmac::HmacSha256;
pub use keys::{KeyId, SecretKey};
pub use sha256::Sha256;
pub use sig::{Signature, Signer};

#[cfg(test)]
mod tests {
    #[test]
    fn crate_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::KeyAuthority>();
        assert_send_sync::<super::Signer>();
        assert_send_sync::<super::Signature>();
        assert_send_sync::<super::SecretKey>();
    }
}
