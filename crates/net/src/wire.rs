//! The top-level wire-tag registry every FORTRESS message family shares.
//!
//! Every payload that crosses a [`Transport`](crate::transport::Transport)
//! starts with **one tag byte** that names its message family — a
//! [`WireKind`]. Receivers classify a frame with a single
//! [`WireKind::classify`] call and dispatch on the result; there is no
//! ordered try-decode chain anywhere, so the interface a node exposes to
//! the network is exactly the set of kinds it matches on (the explicit
//! resistance interface the survivability literature asks for), and bytes
//! that match no kind are an *observable* outcome (the consumer counts
//! them per endpoint, `Stack::malformed_at` in `fortress_core`), not a
//! silent fall-through.
//!
//! The registry is deliberately sparse and grouped by layer:
//!
//! | tag    | kind                 | defined in             |
//! |--------|----------------------|------------------------|
//! | `0x10` | `ClientRequest`      | `fortress-core`        |
//! | `0x11` | `ProxyResponse`      | `fortress-core`        |
//! | `0x12` | `SignedReply`        | `fortress-replication` |
//! | `0x13` | `Exploit`            | `fortress-obf` (the first byte of its magic prefix) |
//! | `0x20` | `Pb` (sub-tagged)    | `fortress-replication` |
//! | `0x21` | `Smr` (sub-tagged)   | `fortress-replication` |
//!
//! The *typed* envelope over these kinds — `fortress_core::wire::WireMsg`
//! — lives in `fortress-core`, where all the payload types are in scope;
//! this module owns only the tag space, so every crate encodes against
//! one registry and two families can never claim the same first byte.

use crate::codec::CodecError;

/// The message family named by a frame's first byte. See the
/// [module docs](self) for the full registry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum WireKind {
    /// A client's service request (broadcast to proxies or servers).
    ClientRequest = 0x10,
    /// A proxy's doubly-signed response to a client.
    ProxyResponse = 0x11,
    /// A server's signed reply (to proxies in S2, to clients in S0/S1).
    SignedReply = 0x12,
    /// A raw exploit payload thrown directly at a process (the tag is the
    /// first byte of `fortress-obf`'s exploit magic prefix).
    Exploit = 0x13,
    /// A primary-backup protocol message (sub-tagged internally).
    Pb = 0x20,
    /// An SMR ordering-protocol message (sub-tagged internally).
    Smr = 0x21,
}

/// Every kind, for exhaustive tests and fuzzers.
pub const ALL_KINDS: [WireKind; 6] = [
    WireKind::ClientRequest,
    WireKind::ProxyResponse,
    WireKind::SignedReply,
    WireKind::Exploit,
    WireKind::Pb,
    WireKind::Smr,
];

impl WireKind {
    /// The kind's tag byte — the first byte of every frame of this kind.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// Maps a tag byte back to its kind, if registered.
    pub const fn from_tag(tag: u8) -> Option<WireKind> {
        match tag {
            0x10 => Some(WireKind::ClientRequest),
            0x11 => Some(WireKind::ProxyResponse),
            0x12 => Some(WireKind::SignedReply),
            0x13 => Some(WireKind::Exploit),
            0x20 => Some(WireKind::Pb),
            0x21 => Some(WireKind::Smr),
            _ => None,
        }
    }

    /// Classifies a frame by its first byte — the single-pass dispatch
    /// entry point. Classification is O(1) and allocation-free; the
    /// caller then runs exactly one family decoder on the full frame.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] for an empty frame,
    /// [`CodecError::BadTag`] for an unregistered tag byte.
    pub fn classify(frame: &[u8]) -> Result<WireKind, CodecError> {
        let Some(&tag) = frame.first() else {
            return Err(CodecError::UnexpectedEnd { field: "wire.tag" });
        };
        WireKind::from_tag(tag).ok_or(CodecError::BadTag {
            message: "WireMsg",
            tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for kind in ALL_KINDS {
            assert!(seen.insert(kind.tag()), "duplicate tag {:#x}", kind.tag());
            assert_eq!(WireKind::from_tag(kind.tag()), Some(kind));
        }
    }

    #[test]
    fn unregistered_tags_rejected() {
        for tag in 0u8..=255 {
            let registered = ALL_KINDS.iter().any(|k| k.tag() == tag);
            assert_eq!(WireKind::from_tag(tag).is_some(), registered, "tag {tag:#x}");
        }
    }

    #[test]
    fn classify_reads_exactly_the_first_byte() {
        assert_eq!(
            WireKind::classify(&[0x10, 0xff, 0xff]),
            Ok(WireKind::ClientRequest)
        );
        assert_eq!(
            WireKind::classify(&[]),
            Err(CodecError::UnexpectedEnd { field: "wire.tag" })
        );
        assert_eq!(
            WireKind::classify(&[0x77]),
            Err(CodecError::BadTag {
                message: "WireMsg",
                tag: 0x77
            })
        );
    }
}
