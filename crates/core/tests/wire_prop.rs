//! Property tests of the typed wire envelope: every [`WireMsg`] variant
//! round-trips, and adversarial mutations (truncation, tag flips, random
//! bytes) always land in the explicit `Malformed` outcome or a correctly
//! re-classified frame — never a panic, never a cross-variant
//! misinterpretation.

use fortress_core::messages::ClientRequest;
use fortress_core::wire::WireMsg;
use fortress_crypto::sig::Signer;
use fortress_crypto::KeyAuthority;
use fortress_net::wire::{WireKind, ALL_KINDS};
use fortress_obf::keys::RandomizationKey;
use fortress_obf::scheme::ExploitPayload;
use fortress_replication::message::{PbMsg, ReplyBody, SignedReply, SmrMsg};
use proptest::prelude::*;

/// One representative frame per kind, with generated field content.
fn frames(seq: u64, body: &[u8], text: String, key: u64) -> Vec<(WireKind, Vec<u8>)> {
    let authority = KeyAuthority::with_seed(seq ^ 0xF0F0);
    let server = Signer::register("server-0", &authority);
    let proxy = Signer::register("proxy-0", &authority);
    let reply = SignedReply::sign(
        ReplyBody {
            request_seq: seq,
            client: text.clone(),
            body: body.to_vec(),
            server_index: (seq % 7) as u32,
        },
        &server,
    );
    vec![
        (
            WireKind::ClientRequest,
            ClientRequest {
                seq,
                client: text.clone(),
                op: body.to_vec(),
            }
            .encode(),
        ),
        (
            WireKind::ProxyResponse,
            fortress_core::messages::ProxyResponse::over_sign(reply.clone(), &proxy).encode(),
        ),
        (WireKind::SignedReply, reply.encode()),
        (
            WireKind::Pb,
            PbMsg::StateUpdate {
                view: seq,
                seq: seq.wrapping_add(1),
                request_seq: seq,
                client: text.clone(),
                response: body.to_vec(),
                delta: body.to_vec(),
            }
            .encode(),
        ),
        (
            WireKind::Smr,
            SmrMsg::PrePrepare {
                view: seq,
                seq: seq.wrapping_add(2),
                request_seq: seq,
                client: text,
                op: body.to_vec(),
            }
            .encode(),
        ),
        (
            WireKind::Exploit,
            ExploitPayload::aimed_at(RandomizationKey(key)).to_bytes(),
        ),
    ]
}

fn printable(raw: Vec<u8>) -> String {
    raw.into_iter()
        .map(|b| char::from(b'a' + (b % 26)))
        .collect()
}

proptest! {
    /// Every variant round-trips bit-for-bit through encode → decode →
    /// encode, and classifies as its own kind.
    #[test]
    fn all_variants_round_trip(
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..48),
        name_raw in proptest::collection::vec(any::<u8>(), 1..12),
        key in 0u64..1024,
    ) {
        for (kind, bytes) in frames(seq, &body, printable(name_raw.clone()), key) {
            let msg = WireMsg::decode(&bytes);
            prop_assert_eq!(msg.kind(), Some(kind), "kind drifted for {:?}", kind);
            prop_assert_eq!(&msg.encode(), &bytes, "re-encode drifted for {:?}", kind);
            prop_assert_eq!(bytes[0], kind.tag(), "frame must lead with its tag");
        }
    }

    /// Any strict prefix of a valid frame is `Malformed` — truncation can
    /// never crash the decoder or be mistaken for a shorter valid frame.
    #[test]
    fn truncation_is_always_malformed(
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..32),
        name_raw in proptest::collection::vec(any::<u8>(), 1..8),
        key in 0u64..1024,
        cut_sel in any::<prop::sample::Index>(),
    ) {
        for (kind, bytes) in frames(seq, &body, printable(name_raw.clone()), key) {
            let cut = cut_sel.index(bytes.len());
            let msg = WireMsg::decode(&bytes[..cut]);
            prop_assert!(
                matches!(msg, WireMsg::Malformed(_)),
                "{:?} cut at {} decoded as {:?}",
                kind, cut, msg
            );
        }
    }

    /// Flipping the leading tag byte never lets a frame masquerade as a
    /// *successfully decoded* message of another kind with the original
    /// content: the result is either `Malformed` or (for the rare byte
    /// pattern that happens to parse) a frame honestly classified under
    /// the flipped tag.
    #[test]
    fn tag_flips_never_cross_misinterpret(
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..32),
        name_raw in proptest::collection::vec(any::<u8>(), 1..8),
        key in 0u64..1024,
        new_tag in any::<u8>(),
    ) {
        for (kind, mut bytes) in frames(seq, &body, printable(name_raw.clone()), key) {
            if new_tag == kind.tag() {
                continue;
            }
            bytes[0] = new_tag;
            match WireMsg::decode(&bytes) {
                WireMsg::Malformed(_) => {}
                msg => {
                    let got = msg.kind().expect("non-malformed frames have a kind");
                    prop_assert_eq!(
                        got.tag(), new_tag,
                        "flipped {:?} frame claimed kind {:?}", kind, got
                    );
                    prop_assert!(
                        ALL_KINDS.contains(&got),
                        "decoded kind must be registered"
                    );
                }
            }
        }
    }

    /// Arbitrary bytes: decoding is total — no panic, and anything that
    /// does decode leads with the tag it claims.
    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..96)) {
        match WireMsg::decode(&raw) {
            WireMsg::Malformed(_) => {}
            msg => {
                let kind = msg.kind().expect("non-malformed frames have a kind");
                prop_assert_eq!(raw[0], kind.tag());
            }
        }
    }
}
