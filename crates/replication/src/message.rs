//! Wire messages for the PB and SMR engines, plus the canonical signed
//! reply shared with proxies and clients.
//!
//! All formats are hand-encoded with the bounds-checked codec from
//! `fortress-net`; decoding untrusted bytes returns errors rather than
//! panicking. Every frame's first byte is its family's
//! [`WireKind`] tag ([`WireKind::SignedReply`], [`WireKind::Pb`],
//! [`WireKind::Smr`]), so receivers route with one tag dispatch instead
//! of trying decoders in order. Every message type has an exhaustive
//! round-trip test.
//!
//! # Where a reply's bytes live
//!
//! A server MACs a [`ReplyBody`]'s fields where they lie
//! ([`SignedReply::sign`]) and encodes the reply once, into the frame it
//! sends. Past that nobody copies it: proxies and clients read the frame
//! through [`SignedReplyRef`], whose `signed` and `frame` are the two runs
//! of it a signature can cover, and verify there
//! ([`SignedReplyRef::verify`]). [`ReplyBody::signing_bytes`] and
//! [`SignedReply::encode`] define those runs; tests hold the view to them.
//! A replica answers a further copy of a request with the bytes it first
//! signed: both engines keep each answer's body, in one at-most-once
//! table per replica, and the tag of each client's latest answer. An
//! older answer is signed again, and HMAC-SHA256 under an unchanged key
//! gives the same tag.
//!
//! # Where an ordering vote's bytes live
//!
//! The digest of an [`SmrMsg::Prepare`] or [`SmrMsg::Commit`] is read in
//! place: its 32 bytes go from the frame into the [`Digest`], so decoding a
//! vote allocates nothing. A view-change log is sized by what the rest of
//! its frame can hold, never by its count field alone.

use std::collections::HashMap;

use fortress_crypto::keys::KeyId;
use fortress_crypto::sha256::Digest;
use fortress_crypto::sig::{Signature, SignatureRef, Signer};
use fortress_crypto::KeyAuthority;
use fortress_net::codec::{CodecError, Reader, Writer};
use fortress_net::wire::WireKind;

use crate::error::ReplicationError;
use crate::seqlog::SeqLog;

/// Checks a frame's leading tag byte against the family's [`WireKind`].
fn expect_kind(r: &mut Reader<'_>, kind: WireKind, message: &'static str) -> Result<(), CodecError> {
    let tag = r.u8("wire.tag")?;
    if tag != kind.tag() {
        return Err(CodecError::BadTag { message, tag });
    }
    Ok(())
}

/// The response a server produces for one client request.
///
/// Per the paper (§3): "Each server signs the response together with its
/// index" — the index is part of the signed bytes, so a response cannot be
/// replayed as another server's.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplyBody {
    /// The client-chosen request sequence number this answers.
    pub request_seq: u64,
    /// The requesting client's name.
    pub client: String,
    /// Response payload.
    pub body: Vec<u8>,
    /// Index of the responding server.
    pub server_index: u32,
}

impl ReplyBody {
    /// Canonical bytes covered by the server's signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.finish()
    }

    /// Appends the signed fields, as they stand in a reply frame too.
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.request_seq)
            .put_str(&self.client)
            .put_bytes(&self.body)
            .put_u32(self.server_index);
    }
}

/// A [`ReplyBody`] with its server signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedReply {
    /// The response.
    pub reply: ReplyBody,
    /// Signature by the server named in `signature.signer()`.
    pub signature: Signature,
}

impl SignedReply {
    /// Signs `reply` with the server's signer: the MAC of
    /// [`ReplyBody::signing_bytes`], computed without building them.
    pub fn sign(reply: ReplyBody, signer: &Signer) -> SignedReply {
        let signature = signer.sign_parts(&[
            &reply.request_seq.to_le_bytes(),
            &(reply.client.len() as u32).to_le_bytes(),
            reply.client.as_bytes(),
            &(reply.body.len() as u32).to_le_bytes(),
            &reply.body,
            &reply.server_index.to_le_bytes(),
        ]);
        SignedReply { reply, signature }
    }

    /// Verifies the signature against the trusted authority.
    pub fn verify(&self, authority: &KeyAuthority) -> bool {
        authority.verify(
            self.signature.signer(),
            &self.reply.signing_bytes(),
            &self.signature,
        )
    }

    /// Encodes for transport (and for the proxy's over-signature, which
    /// covers exactly these bytes).
    pub fn encode(&self) -> Vec<u8> {
        // One allocation for the owned forms that encode to get a view:
        // 69 bytes of tag, integers, prefixes and MAC tag, plus three fields.
        let variable = self.reply.client.len() + self.reply.body.len() + self.signature.signer().len();
        self.encode_reusing(Vec::with_capacity(69 + variable))
    }

    /// [`SignedReply::encode`] into a reused buffer (cleared first and
    /// returned by value) — replies ride the same per-step scratch as
    /// the rest of the drive loop's frames.
    pub fn encode_reusing(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut w = Writer::tagged_reusing(WireKind::SignedReply.tag(), buf);
        self.reply.put(&mut w);
        encode_signature(&mut w, self.signature.view());
        w.finish()
    }
}

/// A signed reply read where it lies: every field points into the frame
/// it was decoded from (see the [module docs](self));
/// [`SignedReplyRef::to_owned`] is for a harness that keeps one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SignedReplyRef<'a> {
    /// The client-chosen request sequence number this answers.
    pub request_seq: u64,
    /// The requesting client's name.
    pub client: &'a str,
    /// Response payload.
    pub body: &'a [u8],
    /// Index of the responding server.
    pub server_index: u32,
    /// The server's signature.
    pub signature: SignatureRef<'a>,
    /// What the server signed: [`ReplyBody::signing_bytes`], as a slice
    /// of `frame`.
    pub signed: &'a [u8],
    /// The whole frame, [`SignedReply::encode`]: what a proxy over-signs
    /// and passes on.
    pub frame: &'a [u8],
}

impl<'a> SignedReplyRef<'a> {
    /// Zero-copy decode of a full signed-reply frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed bytes.
    pub fn decode(frame: &'a [u8]) -> Result<SignedReplyRef<'a>, CodecError> {
        let mut r = Reader::new(frame);
        expect_kind(&mut r, WireKind::SignedReply, "SignedReply")?;
        // The signed run is delimited by where the reader stands before
        // and after the body's fields, never by a length read off the wire.
        let body_start = frame.len() - r.remaining();
        let request_seq = r.u64("reply.request_seq")?;
        let client = r.str_ref("reply.client")?;
        let body = r.bytes_ref("reply.body")?;
        let server_index = r.u32("reply.server_index")?;
        let signed = &frame[body_start..frame.len() - r.remaining()];
        let signature = decode_signature(&mut r)?;
        r.expect_end()?;
        Ok(SignedReplyRef {
            request_seq,
            client,
            body,
            server_index,
            signature,
            signed,
            frame,
        })
    }

    /// Verifies the server's signature in place: the one check of
    /// [`KeyAuthority::verify_ref`] over `signed`.
    pub fn verify(&self, authority: &KeyAuthority) -> bool {
        authority.verify_ref(self.signature.signer, self.signed, self.signature)
    }

    /// Materializes the owned [`SignedReply`].
    pub fn to_owned(&self) -> SignedReply {
        SignedReply {
            reply: ReplyBody {
                request_seq: self.request_seq,
                client: self.client.to_owned(),
                body: self.body.to_vec(),
                server_index: self.server_index,
            },
            signature: self.signature.to_owned(),
        }
    }
}

/// The at-most-once table both engines keep: `client →` a [`SeqLog`] of
/// the bodies this replica signed, by request seq, and the seq and tag of
/// that client's latest answer. The signer's name and key id are the
/// replica's own, so body and tag are the whole signed reply. A tag is
/// not kept per answer: HMAC-SHA256 is deterministic and a replica's
/// signer changes only on reset, which clears the table too, so signing
/// a kept body again gives the tag it was first sent with. A replay of
/// the latest answer (the copies the other proxies forward, which arrive
/// in the same pump) reads the kept tag and the record the log wrote
/// last, which it finds without a walk; an older one signs again. Every
/// answer is kept, at its body and about a byte and a quarter for seqs
/// in order, and 40 bytes per client for the latest tag; the lookup
/// borrows the client's name instead of building a key.
#[derive(Debug, Default)]
pub(crate) struct Answers(HashMap<String, Answered>);

/// One client's answers: [`Answers`] under its name.
#[derive(Debug)]
struct Answered {
    bodies: SeqLog,
    /// The seq and tag of the answer signed last.
    latest: (u64, Digest),
}

impl Answers {
    /// Signs `reply` and keeps its body, and its tag as the client's latest.
    pub(crate) fn sign(&mut self, reply: ReplyBody, signer: &Signer) -> SignedReply {
        let signed = SignedReply::sign(reply, signer);
        let (seq, client, body) = (signed.reply.request_seq, &signed.reply.client, &signed.reply.body);
        let latest = (seq, *signed.signature.tag());
        match self.0.get_mut(client.as_str()) {
            Some(answered) => {
                answered.bodies.insert(seq, body);
                answered.latest = latest;
            }
            None => {
                let mut bodies = SeqLog::default();
                bodies.insert(seq, body);
                self.0.insert(client.clone(), Answered { bodies, latest });
            }
        }
        signed
    }

    /// The response to `(client, request_seq)` as first signed, under
    /// `signer`'s name: the same bytes, not re-executed; the latest
    /// answer's tag is read back and an older one's computed again.
    pub(crate) fn replay(
        &self,
        request_seq: u64,
        client: &str,
        server_index: u32,
        signer: &Signer,
    ) -> Option<SignedReply> {
        let answered = self.0.get(client)?;
        let body = answered.bodies.get(request_seq)?;
        let reply = ReplyBody {
            request_seq,
            client: client.to_owned(),
            body: body.to_vec(),
            server_index,
        };
        Some(match answered.latest {
            (seq, tag) if seq == request_seq => {
                let signature = Signature::from_parts(signer.name().to_owned(), signer.key_id(), tag);
                SignedReply { reply, signature }
            }
            _ => SignedReply::sign(reply, signer),
        })
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Encodes a signature (signer, key id, tag).
pub fn encode_signature(w: &mut Writer, sig: SignatureRef<'_>) {
    w.put_str(sig.signer).put_u64(sig.key_id.0).put_bytes(sig.tag);
}

/// Decodes a signature, borrowed: the single definition of the signature
/// wire layout.
///
/// # Errors
///
/// Returns [`CodecError`] for malformed bytes.
pub fn decode_signature<'a>(r: &mut Reader<'a>) -> Result<SignatureRef<'a>, CodecError> {
    let signer = r.str_ref("sig.signer")?;
    let key_id = KeyId(r.u64("sig.key_id")?);
    let raw = r.bytes_ref("sig.tag")?;
    let tag: &[u8; 32] = raw.try_into().map_err(|_| CodecError::BadLength {
        field: "sig.tag",
        len: raw.len(),
    })?;
    Ok(SignatureRef { signer, key_id, tag })
}

/// Messages of the primary-backup protocol.
///
/// Sub-tag 0 is retired (a replica-forwarded client request no node
/// sent): it decodes as malformed, and no variant takes it again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PbMsg {
    /// Primary → backups: the resolved effect of one request.
    StateUpdate {
        /// View (primary = `view % n`).
        view: u64,
        /// Primary-assigned execution sequence number.
        seq: u64,
        /// The request this update resolves.
        request_seq: u64,
        /// Requesting client.
        client: String,
        /// Response body the primary computed.
        response: Vec<u8>,
        /// Resolved state delta for backups to apply.
        delta: Vec<u8>,
    },
    /// Primary liveness beacon.
    Heartbeat {
        /// Current view.
        view: u64,
        /// Primary's last assigned sequence number.
        seq: u64,
    },
    /// A backup announcing it has taken over as primary of `view`.
    NewView {
        /// The new view.
        view: u64,
        /// The new primary's last applied sequence number.
        seq: u64,
    },
}

/// Starts a sub-tagged frame over a reused buffer (cleared first): the
/// family's [`WireKind`] tag byte, then the variant's sub-tag. The
/// heartbeat/probe hot path cycles one scratch allocation per stack
/// instead of allocating per encode.
fn family_writer_reusing(kind: WireKind, sub: u8, buf: Vec<u8>) -> Writer {
    let mut w = Writer::tagged_reusing(kind.tag(), buf);
    w.put_u8(sub);
    w
}

impl PbMsg {
    /// Encodes for transport: [`WireKind::Pb`] tag, variant sub-tag, body.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_reusing(Vec::new())
    }

    /// [`PbMsg::encode`] into a reused buffer (cleared first and
    /// returned by value). Heartbeats are the per-step steady-state
    /// traffic of a PB group, so this is the encode the drive loop's
    /// allocation budget is measured against.
    pub fn encode_reusing(&self, buf: Vec<u8>) -> Vec<u8> {
        match self {
            PbMsg::StateUpdate {
                view,
                seq,
                request_seq,
                client,
                response,
                delta,
            } => {
                let mut w = family_writer_reusing(WireKind::Pb, 1, buf);
                w.put_u64(*view)
                    .put_u64(*seq)
                    .put_u64(*request_seq)
                    .put_str(client)
                    .put_bytes(response)
                    .put_bytes(delta);
                w.finish()
            }
            PbMsg::Heartbeat { view, seq } => {
                let mut w = family_writer_reusing(WireKind::Pb, 2, buf);
                w.put_u64(*view).put_u64(*seq);
                w.finish()
            }
            PbMsg::NewView { view, seq } => {
                let mut w = family_writer_reusing(WireKind::Pb, 3, buf);
                w.put_u64(*view).put_u64(*seq);
                w.finish()
            }
        }
    }

    /// Decodes from transport bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::Codec`] for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<PbMsg, ReplicationError> {
        let mut r = Reader::new(bytes);
        expect_kind(&mut r, WireKind::Pb, "PbMsg")?;
        let tag = r.u8("pb.subtag")?;
        let msg = match tag {
            1 => PbMsg::StateUpdate {
                view: r.u64("pb.view")?,
                seq: r.u64("pb.seq")?,
                request_seq: r.u64("pb.request_seq")?,
                client: r.str("pb.client")?,
                response: r.bytes("pb.response")?,
                delta: r.bytes("pb.delta")?,
            },
            2 => PbMsg::Heartbeat {
                view: r.u64("pb.view")?,
                seq: r.u64("pb.seq")?,
            },
            3 => PbMsg::NewView {
                view: r.u64("pb.view")?,
                seq: r.u64("pb.seq")?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    message: "PbMsg",
                    tag,
                }
                .into())
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// One uncommitted log slot carried by the VSR view-change messages:
/// enough to re-propose the request under the new view (the digest is
/// recomputed from `request_seq`/`client`/`op` on arrival, never
/// trusted from the wire).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SmrLogEntry {
    /// Execution slot.
    pub seq: u64,
    /// View the slot was last prepared in (merge rule: highest wins).
    pub view: u64,
    /// Client-chosen request sequence number.
    pub request_seq: u64,
    /// Requesting client.
    pub client: String,
    /// Service operation.
    pub op: Vec<u8>,
}

fn encode_log(w: &mut Writer, log: &[SmrLogEntry]) {
    w.put_u32(log.len() as u32);
    for e in log {
        w.put_u64(e.seq)
            .put_u64(e.view)
            .put_u64(e.request_seq)
            .put_str(&e.client)
            .put_bytes(&e.op);
    }
}

/// The fewest bytes one encoded [`SmrLogEntry`] takes: three `u64`s and
/// two length prefixes.
const MIN_LOG_ENTRY: usize = 3 * 8 + 2 * 4;

fn decode_log(r: &mut Reader<'_>) -> Result<Vec<SmrLogEntry>, CodecError> {
    let len = r.u32("smr.log_len")?;
    // Sized by what the rest of the frame can hold, not by the count field.
    let mut log = Vec::with_capacity((len as usize).min(r.remaining() / MIN_LOG_ENTRY));
    for _ in 0..len {
        log.push(SmrLogEntry {
            seq: r.u64("smr.log.seq")?,
            view: r.u64("smr.log.view")?,
            request_seq: r.u64("smr.log.request_seq")?,
            client: r.str("smr.log.client")?,
            op: r.bytes("smr.log.op")?,
        });
    }
    Ok(log)
}

/// Messages of the SMR ordering protocol (PBFT-style three-phase commit
/// in normal operation, VSR-style view changes on leader failure).
///
/// Sub-tags 0, 4 and 5 are retired (a replica-forwarded client request
/// and the vote-based view change, none of which any node sent): they
/// decode as malformed, and no variant takes them again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SmrMsg {
    /// Leader → all: proposed ordering of one request.
    PrePrepare {
        /// View (leader = `view % n`).
        view: u64,
        /// Proposed execution slot.
        seq: u64,
        /// The ordered request.
        request_seq: u64,
        /// Requesting client.
        client: String,
        /// Service operation.
        op: Vec<u8>,
    },
    /// Replica agreement on a proposal's digest.
    Prepare {
        /// View.
        view: u64,
        /// Slot.
        seq: u64,
        /// Digest of the ordered request.
        digest: Digest,
    },
    /// Replica commitment after a prepare quorum.
    Commit {
        /// View.
        view: u64,
        /// Slot.
        seq: u64,
        /// Digest of the ordered request.
        digest: Digest,
    },
    /// Rejoining replica asks for a snapshot.
    SnapshotRequest {
        /// The requester's last executed slot.
        last_exec: u64,
    },
    /// Snapshot offer for the rejoin rule.
    SnapshotOffer {
        /// Slot the snapshot reflects.
        seq: u64,
        /// State digest.
        digest: Digest,
        /// Serialized service state.
        snapshot: Vec<u8>,
    },
    /// VSR phase 1: a replica whose view timer fired asks the group to
    /// move to `new_view`. Replicas that agree echo it; `f + 1`
    /// agreeing replicas advance the protocol to phase 2.
    StartViewChange {
        /// Proposed new view.
        new_view: u64,
    },
    /// VSR phase 2: a replica that saw `f + 1` StartViewChange votes
    /// sends its uncommitted log suffix to the new view's leader, who
    /// merges `2f + 1` of these per-slot (highest `view` wins).
    DoViewChange {
        /// The view being started.
        new_view: u64,
        /// Last view in which the sender was in normal operation.
        last_normal_view: u64,
        /// Sender's last executed slot.
        last_exec: u64,
        /// Sender's uncommitted log suffix (slots above `last_exec`).
        log: Vec<SmrLogEntry>,
    },
    /// VSR phase 3: the new leader installs the merged log and
    /// announces normal operation in `view`.
    StartView {
        /// The new view.
        view: u64,
        /// The leader's last executed slot.
        last_exec: u64,
        /// Merged uncommitted log suffix replicas must adopt.
        log: Vec<SmrLogEntry>,
    },
}

impl SmrMsg {
    /// Encodes for transport: [`WireKind::Smr`] tag, variant sub-tag, body.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_reusing(Vec::new())
    }

    /// [`SmrMsg::encode`] into a reused buffer (cleared first and
    /// returned by value).
    pub fn encode_reusing(&self, buf: Vec<u8>) -> Vec<u8> {
        match self {
            SmrMsg::PrePrepare {
                view,
                seq,
                request_seq,
                client,
                op,
            } => {
                let mut w = family_writer_reusing(WireKind::Smr, 1, buf);
                w.put_u64(*view)
                    .put_u64(*seq)
                    .put_u64(*request_seq)
                    .put_str(client)
                    .put_bytes(op);
                w.finish()
            }
            SmrMsg::Prepare { view, seq, digest } => {
                let mut w = family_writer_reusing(WireKind::Smr, 2, buf);
                w.put_u64(*view).put_u64(*seq).put_bytes(&digest.0);
                w.finish()
            }
            SmrMsg::Commit { view, seq, digest } => {
                let mut w = family_writer_reusing(WireKind::Smr, 3, buf);
                w.put_u64(*view).put_u64(*seq).put_bytes(&digest.0);
                w.finish()
            }
            SmrMsg::SnapshotRequest { last_exec } => {
                let mut w = family_writer_reusing(WireKind::Smr, 6, buf);
                w.put_u64(*last_exec);
                w.finish()
            }
            SmrMsg::SnapshotOffer {
                seq,
                digest,
                snapshot,
            } => {
                let mut w = family_writer_reusing(WireKind::Smr, 7, buf);
                w.put_u64(*seq).put_bytes(&digest.0).put_bytes(snapshot);
                w.finish()
            }
            SmrMsg::StartViewChange { new_view } => {
                let mut w = family_writer_reusing(WireKind::Smr, 8, buf);
                w.put_u64(*new_view);
                w.finish()
            }
            SmrMsg::DoViewChange {
                new_view,
                last_normal_view,
                last_exec,
                log,
            } => {
                let mut w = family_writer_reusing(WireKind::Smr, 9, buf);
                w.put_u64(*new_view)
                    .put_u64(*last_normal_view)
                    .put_u64(*last_exec);
                encode_log(&mut w, log);
                w.finish()
            }
            SmrMsg::StartView {
                view,
                last_exec,
                log,
            } => {
                let mut w = family_writer_reusing(WireKind::Smr, 10, buf);
                w.put_u64(*view).put_u64(*last_exec);
                encode_log(&mut w, log);
                w.finish()
            }
        }
    }

    /// Decodes from transport bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::Codec`] for malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<SmrMsg, ReplicationError> {
        let mut r = Reader::new(bytes);
        expect_kind(&mut r, WireKind::Smr, "SmrMsg")?;
        let tag = r.u8("smr.subtag")?;
        let msg = match tag {
            1 => SmrMsg::PrePrepare {
                view: r.u64("smr.view")?,
                seq: r.u64("smr.seq")?,
                request_seq: r.u64("smr.request_seq")?,
                client: r.str("smr.client")?,
                op: r.bytes("smr.op")?,
            },
            2 => SmrMsg::Prepare {
                view: r.u64("smr.view")?,
                seq: r.u64("smr.seq")?,
                digest: read_digest(&mut r)?,
            },
            3 => SmrMsg::Commit {
                view: r.u64("smr.view")?,
                seq: r.u64("smr.seq")?,
                digest: read_digest(&mut r)?,
            },
            6 => SmrMsg::SnapshotRequest {
                last_exec: r.u64("smr.last_exec")?,
            },
            7 => SmrMsg::SnapshotOffer {
                seq: r.u64("smr.seq")?,
                digest: read_digest(&mut r)?,
                snapshot: r.bytes("smr.snapshot")?,
            },
            8 => SmrMsg::StartViewChange {
                new_view: r.u64("smr.new_view")?,
            },
            9 => SmrMsg::DoViewChange {
                new_view: r.u64("smr.new_view")?,
                last_normal_view: r.u64("smr.last_normal_view")?,
                last_exec: r.u64("smr.last_exec")?,
                log: decode_log(&mut r)?,
            },
            10 => SmrMsg::StartView {
                view: r.u64("smr.view")?,
                last_exec: r.u64("smr.last_exec")?,
                log: decode_log(&mut r)?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    message: "SmrMsg",
                    tag,
                }
                .into())
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// Reads a digest where it lies: the 32 bytes are copied out of the frame
/// into the [`Digest`], never through a `Vec`.
fn read_digest(r: &mut Reader<'_>) -> Result<Digest, ReplicationError> {
    let raw = r.bytes_ref("digest")?;
    let arr: [u8; 32] = raw.try_into().map_err(|_| CodecError::BadLength {
        field: "digest",
        len: raw.len(),
    })?;
    Ok(Digest(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_pb(msg: PbMsg) {
        let bytes = msg.encode();
        assert_eq!(PbMsg::decode(&bytes).unwrap(), msg);
    }

    fn roundtrip_smr(msg: SmrMsg) {
        let bytes = msg.encode();
        assert_eq!(SmrMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn pb_roundtrips() {
        roundtrip_pb(PbMsg::StateUpdate {
            view: 2,
            seq: 9,
            request_seq: 1,
            client: "c0".into(),
            response: b"OK".to_vec(),
            delta: b"PUT a 1".to_vec(),
        });
        roundtrip_pb(PbMsg::Heartbeat { view: 0, seq: 4 });
        roundtrip_pb(PbMsg::NewView { view: 3, seq: 11 });
    }

    #[test]
    fn smr_roundtrips() {
        let d = fortress_crypto::sha256::Sha256::digest(b"req");
        roundtrip_smr(SmrMsg::PrePrepare {
            view: 1,
            seq: 2,
            request_seq: 5,
            client: "c1".into(),
            op: b"GET x".to_vec(),
        });
        roundtrip_smr(SmrMsg::Prepare { view: 1, seq: 2, digest: d });
        roundtrip_smr(SmrMsg::Commit { view: 1, seq: 2, digest: d });
        roundtrip_smr(SmrMsg::SnapshotRequest { last_exec: 3 });
        roundtrip_smr(SmrMsg::SnapshotOffer {
            seq: 7,
            digest: d,
            snapshot: b"snap".to_vec(),
        });
        roundtrip_smr(SmrMsg::StartViewChange { new_view: 3 });
        roundtrip_smr(SmrMsg::DoViewChange {
            new_view: 3,
            last_normal_view: 1,
            last_exec: 6,
            log: vec![],
        });
        roundtrip_smr(SmrMsg::DoViewChange {
            new_view: 3,
            last_normal_view: 2,
            last_exec: 6,
            log: vec![
                SmrLogEntry {
                    seq: 7,
                    view: 2,
                    request_seq: 40,
                    client: "c1".into(),
                    op: b"PUT k v".to_vec(),
                },
                SmrLogEntry {
                    seq: 8,
                    view: 1,
                    request_seq: 41,
                    client: "c2".into(),
                    op: b"GET k".to_vec(),
                },
            ],
        });
        roundtrip_smr(SmrMsg::StartView {
            view: 3,
            last_exec: 6,
            log: vec![SmrLogEntry {
                seq: 7,
                view: 2,
                request_seq: 40,
                client: "c1".into(),
                op: b"PUT k v".to_vec(),
            }],
        });
    }

    #[test]
    fn bad_tags_rejected() {
        // Family (wire-kind) tag flipped.
        let mut bytes = PbMsg::Heartbeat { view: 0, seq: 0 }.encode();
        bytes[0] = 99;
        assert!(matches!(
            PbMsg::decode(&bytes),
            Err(ReplicationError::Codec(CodecError::BadTag { .. }))
        ));
        let mut bytes = SmrMsg::StartViewChange { new_view: 0 }.encode();
        bytes[0] = 99;
        assert!(SmrMsg::decode(&bytes).is_err());
        // Variant sub-tag flipped.
        let mut bytes = PbMsg::Heartbeat { view: 0, seq: 0 }.encode();
        bytes[1] = 99;
        assert!(matches!(
            PbMsg::decode(&bytes),
            Err(ReplicationError::Codec(CodecError::BadTag { .. }))
        ));
        let mut bytes = SmrMsg::StartViewChange { new_view: 0 }.encode();
        bytes[1] = 99;
        assert!(SmrMsg::decode(&bytes).is_err());
    }

    #[test]
    fn frames_lead_with_their_wire_kind() {
        assert_eq!(
            PbMsg::Heartbeat { view: 0, seq: 0 }.encode()[0],
            WireKind::Pb.tag()
        );
        assert_eq!(
            SmrMsg::SnapshotRequest { last_exec: 0 }.encode()[0],
            WireKind::Smr.tag()
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let msg = PbMsg::StateUpdate {
            view: 1,
            seq: 2,
            request_seq: 3,
            client: "c".into(),
            response: b"r".to_vec(),
            delta: b"d".to_vec(),
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(PbMsg::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // The log-bearing view-change frames too: no truncation parses.
        let msg = SmrMsg::DoViewChange {
            new_view: 3,
            last_normal_view: 2,
            last_exec: 6,
            log: vec![SmrLogEntry {
                seq: 7,
                view: 2,
                request_seq: 40,
                client: "c1".into(),
                op: b"PUT k v".to_vec(),
            }],
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(SmrMsg::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = PbMsg::Heartbeat { view: 0, seq: 0 }.encode();
        bytes.push(0);
        assert!(PbMsg::decode(&bytes).is_err());
    }

    #[test]
    fn signed_reply_roundtrip_and_verify() {
        let authority = KeyAuthority::with_seed(8);
        let signer = Signer::register("s1-server-0", &authority);
        let reply = ReplyBody {
            request_seq: 4,
            client: "alice".into(),
            body: b"VALUE teal".to_vec(),
            server_index: 0,
        };
        let signed = SignedReply::sign(reply, &signer);
        assert!(signed.verify(&authority));
        let bytes = signed.encode();
        assert_eq!(bytes[0], WireKind::SignedReply.tag());
        let decoded = SignedReplyRef::decode(&bytes).unwrap().to_owned();
        assert_eq!(decoded, signed);
        assert!(decoded.verify(&authority));
    }

    #[test]
    fn signed_reply_ref_borrows_and_matches_owned() {
        let authority = KeyAuthority::with_seed(8);
        let signer = Signer::register("s1-server-0", &authority);
        let signed = SignedReply::sign(
            ReplyBody {
                request_seq: 4,
                client: "alice".into(),
                body: b"VALUE teal".to_vec(),
                server_index: 2,
            },
            &signer,
        );
        let bytes = signed.encode();
        let view = SignedReplyRef::decode(&bytes).unwrap();
        assert_eq!(view.request_seq, 4);
        assert_eq!(view.client, "alice");
        assert_eq!(view.body, b"VALUE teal");
        assert_eq!(view.server_index, 2);
        assert_eq!(view.signature.signer, "s1-server-0");
        let owned = view.to_owned();
        assert_eq!(owned, signed);
        assert!(owned.verify(&authority));
    }

    #[test]
    fn tampered_reply_fails_verification() {
        let authority = KeyAuthority::with_seed(8);
        let signer = Signer::register("s", &authority);
        let reply = ReplyBody {
            request_seq: 4,
            client: "alice".into(),
            body: b"VALUE teal".to_vec(),
            server_index: 0,
        };
        let mut signed = SignedReply::sign(reply, &signer);
        signed.reply.body = b"VALUE red".to_vec();
        assert!(!signed.verify(&authority));
        // Index is covered by the signature too.
        let reply2 = ReplyBody {
            request_seq: 4,
            client: "alice".into(),
            body: b"VALUE teal".to_vec(),
            server_index: 0,
        };
        let mut signed2 = SignedReply::sign(reply2, &signer);
        signed2.reply.server_index = 1;
        assert!(!signed2.verify(&authority));
    }

    #[test]
    fn malformed_signature_tag_length_rejected() {
        let authority = KeyAuthority::with_seed(8);
        let signer = Signer::register("s", &authority);
        let reply = ReplyBody {
            request_seq: 1,
            client: "c".into(),
            body: vec![],
            server_index: 0,
        };
        let signed = SignedReply::sign(reply, &signer);
        let mut bytes = signed.encode();
        // Shorten the trailing tag bytes.
        bytes.truncate(bytes.len() - 4);
        assert!(SignedReplyRef::decode(&bytes).is_err());
    }
}
