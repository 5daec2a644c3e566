//! Client ↔ proxy wire messages.
//!
//! A client broadcasts [`ClientRequest`]s to every proxy; a proxy answers
//! with a [`ProxyResponse`] — one authentic server reply **over-signed** by
//! the proxy. "A client accepts a response as valid if it has two authentic
//! signatures - one from the proxy that sent the response and the other
//! from one of the servers" (paper §3).
//!
//! A response frame is a tag, the server's reply frame as the proxy
//! received it, and the over-signature of that frame. The client reads it
//! through [`ProxyResponseRef`] and checks both signatures on slices of it:
//! [`ProxyResponseRef::verify`] is the one body of the two-signature rule.
//! [`ProxyResponse`] is the owned form tests and the measurement harness
//! build; what it does, it does by encoding itself and asking the view.

use fortress_crypto::sig::{Signature, SignatureRef, Signer};
use fortress_crypto::KeyAuthority;
use fortress_net::codec::{CodecError, Reader, Writer};
use fortress_net::wire::WireKind;
use fortress_obf::scheme::ExploitPayload;
use fortress_replication::message::{
    decode_signature, encode_signature, SignedReply, SignedReplyRef,
};

use crate::error::FortressError;

/// A client's request, broadcast to all proxies (or, in 1-tier systems,
/// directly to all servers).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClientRequest {
    /// Client-chosen request sequence number.
    pub seq: u64,
    /// Requesting client's name.
    pub client: String,
    /// Service operation (possibly carrying an exploit).
    pub op: Vec<u8>,
}

impl ClientRequest {
    /// Encodes for transport: [`WireKind::ClientRequest`] tag, then body.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_reusing(Vec::new())
    }

    /// [`ClientRequest::encode`] into a reused buffer (cleared first and
    /// returned by value) — the probe hot path cycles one allocation.
    pub fn encode_reusing(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut w = Writer::tagged_reusing(WireKind::ClientRequest.tag(), buf);
        w.put_u64(self.seq).put_str(&self.client).put_bytes(&self.op);
        w.finish()
    }

    /// Decodes from transport bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError::Codec`] for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<ClientRequest, FortressError> {
        Ok(ClientRequestRef::decode(bytes)
            .map_err(FortressError::Codec)?
            .to_owned())
    }
}

/// A borrowed decode view of a [`ClientRequest`]: `client` and `op`
/// point into the wire frame. The exploit-probe hot path sniffs
/// [`ClientRequestRef::exploit`] on the borrowed `op` and never copies
/// the buffer unless the request turns out benign and must be handed to
/// a replication engine (via [`ClientRequestRef::to_owned`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClientRequestRef<'a> {
    /// Client-chosen request sequence number.
    pub seq: u64,
    /// Requesting client's name.
    pub client: &'a str,
    /// Service operation (possibly carrying an exploit).
    pub op: &'a [u8],
}

impl<'a> ClientRequestRef<'a> {
    /// Zero-copy decode of a client-request frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed bytes.
    pub fn decode(bytes: &'a [u8]) -> Result<ClientRequestRef<'a>, CodecError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8("creq.tag")?;
        if tag != WireKind::ClientRequest.tag() {
            return Err(CodecError::BadTag {
                message: "ClientRequest",
                tag,
            });
        }
        let out = ClientRequestRef {
            seq: r.u64("creq.seq")?,
            client: r.str_ref("creq.client")?,
            op: r.bytes_ref("creq.op")?,
        };
        r.expect_end()?;
        Ok(out)
    }

    /// The exploit embedded in `op`, if any — allocation-free sniffing on
    /// the borrowed slice (what servers do to every arriving request).
    pub fn exploit(&self) -> Option<ExploitPayload> {
        ExploitPayload::from_bytes(self.op)
    }

    /// Materializes the owned [`ClientRequest`].
    pub fn to_owned(&self) -> ClientRequest {
        ClientRequest {
            seq: self.seq,
            client: self.client.to_owned(),
            op: self.op.to_vec(),
        }
    }
}

/// A doubly-signed response: an authentic server reply plus the forwarding
/// proxy's over-signature (over the *encoded* server reply, binding body
/// and server signature together), owned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProxyResponse {
    /// The server's signed reply.
    pub reply: SignedReply,
    /// The proxy's over-signature.
    pub proxy_sig: Signature,
}

impl ProxyResponse {
    /// Proxy-side constructor: over-signs an authentic server reply.
    pub fn over_sign(reply: SignedReply, proxy: &Signer) -> ProxyResponse {
        let proxy_sig = proxy.sign(&reply.encode());
        ProxyResponse { reply, proxy_sig }
    }

    /// [`ProxyResponseRef::verify`] on this response's encoding.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError::Rejected`] naming the failed check.
    pub fn verify(
        &self,
        authority: &KeyAuthority,
        known_servers: &[String],
        known_proxies: &[String],
    ) -> Result<(), FortressError> {
        ProxyResponseRef::decode(&self.encode())
            .map_err(FortressError::Codec)?
            .verify(authority, known_servers, known_proxies)
    }

    /// Encodes for transport: [`WireKind::ProxyResponse`] tag, then body.
    pub fn encode(&self) -> Vec<u8> {
        response_frame(Vec::new(), &self.reply.encode(), self.proxy_sig.view())
    }
}

/// The one layout of a response frame: the tag, the reply frame
/// length-prefixed, the over-signature.
fn response_frame(buf: Vec<u8>, reply_frame: &[u8], proxy_sig: SignatureRef<'_>) -> Vec<u8> {
    let mut w = Writer::tagged_reusing(WireKind::ProxyResponse.tag(), buf);
    w.put_bytes(reply_frame);
    encode_signature(&mut w, proxy_sig);
    w.finish()
}

/// A [`ProxyResponse`] read where it lies: reply and over-signature point
/// into the response frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProxyResponseRef<'a> {
    /// The server's signed reply; `reply.frame` is the run of the
    /// response frame that the proxy over-signed.
    pub reply: SignedReplyRef<'a>,
    /// The proxy's over-signature.
    pub proxy_sig: SignatureRef<'a>,
}

impl<'a> ProxyResponseRef<'a> {
    /// Zero-copy decode of a proxy-response frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed bytes.
    pub fn decode(bytes: &'a [u8]) -> Result<ProxyResponseRef<'a>, CodecError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8("presp.tag")?;
        if tag != WireKind::ProxyResponse.tag() {
            return Err(CodecError::BadTag {
                message: "ProxyResponse",
                tag,
            });
        }
        let reply = SignedReplyRef::decode(r.bytes_ref("presp.reply")?)?;
        let proxy_sig = decode_signature(&mut r)?;
        r.expect_end()?;
        Ok(ProxyResponseRef { reply, proxy_sig })
    }

    /// The frame a proxy sends for `reply` under its over-signature: the
    /// reply frame goes out as it came in, never re-encoded.
    pub fn encode_reusing(&self, buf: Vec<u8>) -> Vec<u8> {
        response_frame(buf, self.reply.frame, self.proxy_sig)
    }

    /// Client-side verification: the inner signer must be a known server
    /// and the outer a known proxy, the server's signature must verify
    /// over what it signed and the proxy's over the reply frame.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError::Rejected`] naming the failed check.
    pub fn verify(
        &self,
        authority: &KeyAuthority,
        known_servers: &[String],
        known_proxies: &[String],
    ) -> Result<(), FortressError> {
        let server = self.reply.signature.signer;
        if !known_servers.iter().any(|s| s == server) {
            return Err(FortressError::Rejected {
                reason: format!("inner signer `{server}` is not a known server"),
            });
        }
        let proxy = self.proxy_sig.signer;
        if !known_proxies.iter().any(|p| p == proxy) {
            return Err(FortressError::Rejected {
                reason: format!("outer signer `{proxy}` is not a known proxy"),
            });
        }
        if !self.reply.verify(authority) {
            return Err(FortressError::Rejected {
                reason: "server signature failed verification".into(),
            });
        }
        if !authority.verify_ref(proxy, self.reply.frame, self.proxy_sig) {
            return Err(FortressError::Rejected {
                reason: "proxy over-signature failed verification".into(),
            });
        }
        Ok(())
    }

    /// Materializes the owned [`ProxyResponse`].
    pub fn to_owned(&self) -> ProxyResponse {
        ProxyResponse {
            reply: self.reply.to_owned(),
            proxy_sig: self.proxy_sig.to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_replication::message::ReplyBody;

    fn setup() -> (KeyAuthority, Signer, Signer, SignedReply) {
        let authority = KeyAuthority::with_seed(3);
        let server = Signer::register("server-1", &authority);
        let proxy = Signer::register("proxy-0", &authority);
        let reply = SignedReply::sign(
            ReplyBody {
                request_seq: 9,
                client: "alice".into(),
                body: b"OK".to_vec(),
                server_index: 1,
            },
            &server,
        );
        (authority, server, proxy, reply)
    }

    #[test]
    fn client_request_roundtrip() {
        let req = ClientRequest {
            seq: 3,
            client: "alice".into(),
            op: b"GET k".to_vec(),
        };
        assert_eq!(ClientRequest::decode(&req.encode()).unwrap(), req);
        // Bad tag rejected.
        let mut bytes = req.encode();
        bytes[0] = 0x55;
        assert!(ClientRequest::decode(&bytes).is_err());
    }

    #[test]
    fn proxy_response_roundtrip_and_verify() {
        let (authority, _, proxy, reply) = setup();
        let resp = ProxyResponse::over_sign(reply, &proxy);
        let decoded = ProxyResponseRef::decode(&resp.encode()).unwrap().to_owned();
        assert_eq!(decoded, resp);
        decoded
            .verify(
                &authority,
                &["server-1".into()],
                &["proxy-0".into()],
            )
            .unwrap();
    }

    #[test]
    fn unknown_server_rejected() {
        let (authority, _, proxy, reply) = setup();
        let resp = ProxyResponse::over_sign(reply, &proxy);
        let err = resp
            .verify(&authority, &["server-9".into()], &["proxy-0".into()])
            .unwrap_err();
        assert!(matches!(err, FortressError::Rejected { .. }));
    }

    #[test]
    fn unknown_proxy_rejected() {
        let (authority, _, proxy, reply) = setup();
        let resp = ProxyResponse::over_sign(reply, &proxy);
        assert!(resp
            .verify(&authority, &["server-1".into()], &["proxy-9".into()])
            .is_err());
    }

    #[test]
    fn tampered_body_rejected() {
        let (authority, _, proxy, reply) = setup();
        let mut resp = ProxyResponse::over_sign(reply, &proxy);
        resp.reply.reply.body = b"EVIL".to_vec();
        assert!(resp
            .verify(&authority, &["server-1".into()], &["proxy-0".into()])
            .is_err());
    }

    #[test]
    fn single_signature_insufficient() {
        // A response signed only by the server (forged proxy sig) fails.
        let (authority, _, _, reply) = setup();
        let resp = ProxyResponse {
            reply,
            proxy_sig: Signature::forged("proxy-0"),
        };
        assert!(resp
            .verify(&authority, &["server-1".into()], &["proxy-0".into()])
            .is_err());
    }

    #[test]
    fn proxy_signature_binds_to_server_signature() {
        // Swapping in a different (even authentic) server reply under the
        // same proxy signature must fail.
        let (authority, server, proxy, reply) = setup();
        let resp = ProxyResponse::over_sign(reply, &proxy);
        let other_reply = SignedReply::sign(
            ReplyBody {
                request_seq: 10,
                client: "alice".into(),
                body: b"OTHER".to_vec(),
                server_index: 1,
            },
            &server,
        );
        let forged = ProxyResponse {
            reply: other_reply,
            proxy_sig: resp.proxy_sig.clone(),
        };
        assert!(forged
            .verify(&authority, &["server-1".into()], &["proxy-0".into()])
            .is_err());
    }
}
