//! The typed wire envelope: one decode, one `match`, nothing silent.
//!
//! [`WireMsg`] instantiates the [`WireKind`] tag registry from
//! `fortress-net` with the workspace's actual payload types. Decoding is
//! a **total** function — [`WireMsg::decode`] classifies the frame's tag
//! byte once and runs exactly one family decoder; bytes that fit no
//! registered kind (or fail their family's decoder) come back as the
//! explicit [`WireMsg::Malformed`] variant carrying the [`CodecError`].
//! That replaces the old ordered `if let Ok(x) = X::decode(..)` chains,
//! where the accepted interface was an accident of decode order and
//! undecodable traffic vanished without a trace.
//!
//! The hot variants are **zero-copy**: [`WireMsg::ClientRequest`],
//! [`WireMsg::SignedReply`] and [`WireMsg::ProxyResponse`] hold borrowed
//! views ([`ClientRequestRef`], [`SignedReplyRef`], [`ProxyResponseRef`])
//! whose string/byte fields point into the frame, so the exploit-probe
//! path (sniff `op`, crash or compromise, drop the frame) never clones a
//! buffer and a reply is verified and over-signed in the frame it arrived
//! in. Call `.to_owned()` only on frames that must outlive the dispatch.

use fortress_net::codec::CodecError;
use fortress_net::wire::WireKind;
use fortress_obf::scheme::ExploitPayload;
use fortress_replication::message::{PbMsg, SignedReplyRef, SmrMsg};

use crate::messages::{ClientRequestRef, ProxyResponseRef};

/// One decoded wire frame. See the [module docs](self).
#[derive(Clone, PartialEq, Debug)]
pub enum WireMsg<'a> {
    /// A client's service request (zero-copy view).
    ClientRequest(ClientRequestRef<'a>),
    /// A proxy's doubly-signed response to a client (zero-copy view).
    ProxyResponse(ProxyResponseRef<'a>),
    /// A server's signed reply (zero-copy view).
    SignedReply(SignedReplyRef<'a>),
    /// A primary-backup protocol message.
    Pb(PbMsg),
    /// An SMR ordering-protocol message.
    Smr(SmrMsg),
    /// A raw exploit payload thrown directly at a process.
    Exploit(ExploitPayload),
    /// The frame decoded as no registered kind — the observable outcome
    /// for adversarial or corrupted bytes (count it, don't swallow it).
    Malformed(CodecError),
}

impl<'a> WireMsg<'a> {
    /// Decodes a frame. Total: malformed input yields
    /// [`WireMsg::Malformed`], never an `Err` and never a panic.
    pub fn decode(frame: &'a [u8]) -> WireMsg<'a> {
        let kind = match WireKind::classify(frame) {
            Ok(kind) => kind,
            Err(e) => return WireMsg::Malformed(e),
        };
        let decoded = match kind {
            WireKind::ClientRequest => {
                ClientRequestRef::decode(frame).map(WireMsg::ClientRequest)
            }
            WireKind::ProxyResponse => {
                ProxyResponseRef::decode(frame).map(WireMsg::ProxyResponse)
            }
            WireKind::SignedReply => SignedReplyRef::decode(frame).map(WireMsg::SignedReply),
            WireKind::Pb => PbMsg::decode(frame).map(WireMsg::Pb).map_err(codec_cause),
            WireKind::Smr => SmrMsg::decode(frame).map(WireMsg::Smr).map_err(codec_cause),
            WireKind::Exploit => ExploitPayload::from_bytes(frame)
                .map(WireMsg::Exploit)
                .ok_or(CodecError::BadTag {
                    message: "ExploitPayload",
                    tag: WireKind::Exploit.tag(),
                }),
        };
        decoded.unwrap_or_else(WireMsg::Malformed)
    }

    /// The frame's kind, `None` for [`WireMsg::Malformed`].
    pub fn kind(&self) -> Option<WireKind> {
        match self {
            WireMsg::ClientRequest(_) => Some(WireKind::ClientRequest),
            WireMsg::ProxyResponse(_) => Some(WireKind::ProxyResponse),
            WireMsg::SignedReply(_) => Some(WireKind::SignedReply),
            WireMsg::Pb(_) => Some(WireKind::Pb),
            WireMsg::Smr(_) => Some(WireKind::Smr),
            WireMsg::Exploit(_) => Some(WireKind::Exploit),
            WireMsg::Malformed(_) => None,
        }
    }

    /// Re-encodes the frame (round-trip testing and relays).
    ///
    /// # Panics
    ///
    /// Panics on [`WireMsg::Malformed`] — there is nothing to re-encode.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireMsg::ClientRequest(r) => r.to_owned().encode(),
            WireMsg::ProxyResponse(r) => r.to_owned().encode(),
            WireMsg::SignedReply(r) => r.to_owned().encode(),
            WireMsg::Pb(m) => m.encode(),
            WireMsg::Smr(m) => m.encode(),
            WireMsg::Exploit(p) => p.to_bytes(),
            WireMsg::Malformed(e) => panic!("cannot re-encode a malformed frame: {e}"),
        }
    }
}

/// Extracts the codec cause of a replication decode failure (decoders
/// only produce `Codec` during decoding; the fallback covers the
/// `#[non_exhaustive]` future).
fn codec_cause(e: fortress_replication::ReplicationError) -> CodecError {
    match e {
        fortress_replication::ReplicationError::Codec(c) => c,
        _ => CodecError::UnexpectedEnd { field: "frame" },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ClientRequest;
    use fortress_obf::keys::RandomizationKey;

    #[test]
    fn dispatches_each_kind_by_first_byte() {
        let req = ClientRequest {
            seq: 7,
            client: "alice".into(),
            op: b"GET k".to_vec(),
        };
        let bytes = req.encode();
        let WireMsg::ClientRequest(view) = WireMsg::decode(&bytes) else {
            panic!("wrong kind");
        };
        assert_eq!(view.seq, 7);
        assert_eq!(view.client, "alice");
        assert_eq!(view.op, b"GET k");
        assert_eq!(view.to_owned(), req);

        let pb = PbMsg::Heartbeat { view: 1, seq: 2 };
        assert_eq!(WireMsg::decode(&pb.encode()), WireMsg::Pb(pb));

        let smr = SmrMsg::SnapshotRequest { last_exec: 3 };
        assert_eq!(WireMsg::decode(&smr.encode()), WireMsg::Smr(smr));

        let exploit = ExploitPayload::aimed_at(RandomizationKey(9));
        assert_eq!(
            WireMsg::decode(&exploit.to_bytes()),
            WireMsg::Exploit(exploit)
        );
    }

    #[test]
    fn garbage_is_an_explicit_outcome() {
        for frame in [&b""[..], b"\x00", b"\x7f\x7f\x7f", b"PUT k v"] {
            let msg = WireMsg::decode(frame);
            assert!(
                matches!(msg, WireMsg::Malformed(_)),
                "{frame:?} must classify as malformed, got {msg:?}"
            );
            assert_eq!(msg.kind(), None);
        }
    }

    #[test]
    fn truncated_known_kind_is_malformed_not_panic() {
        let bytes = ClientRequest {
            seq: 1,
            client: "c".into(),
            op: b"x".to_vec(),
        }
        .encode();
        for cut in 0..bytes.len() {
            let msg = WireMsg::decode(&bytes[..cut]);
            assert!(matches!(msg, WireMsg::Malformed(_)), "cut={cut}: {msg:?}");
        }
    }
}
