//! Error types for the crypto substrate.

use std::error::Error;
use std::fmt;

/// Errors returned by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// The named principal is not registered with the key authority.
    UnknownPrincipal(String),
    /// A principal with this name is already registered.
    DuplicatePrincipal(String),
    /// A signature failed verification.
    BadSignature {
        /// Principal whose signature was being checked.
        principal: String,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::UnknownPrincipal(name) => {
                write!(f, "principal `{name}` is not registered with the authority")
            }
            CryptoError::DuplicatePrincipal(name) => {
                write!(f, "principal `{name}` is already registered")
            }
            CryptoError::BadSignature { principal } => {
                write!(f, "signature attributed to `{principal}` failed verification")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_unpunctuated() {
        let errors: Vec<CryptoError> = vec![
            CryptoError::UnknownPrincipal("p".into()),
            CryptoError::DuplicatePrincipal("p".into()),
            CryptoError::BadSignature { principal: "p".into() },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.ends_with('.'), "trailing punctuation: {msg}");
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with('`'));
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(CryptoError::UnknownPrincipal("x".into()));
    }
}
