//! The borrowed reply views against their definitions, and their decoders
//! against hostile bytes.
//!
//! A reply is verified, over-signed and accepted in the frame it arrived
//! in, through [`SignedReplyRef`] and [`ProxyResponseRef`]. What those
//! views must equal is defined by the owned forms, which build their bytes
//! from fields: [`ReplyBody::signing_bytes`] is what a server signs,
//! [`SignedReply::encode`] what a proxy over-signs and
//! [`ProxyResponse::over_sign`]`.encode()` what a client receives. The
//! first property holds the views to those definitions and borrowed
//! verification to verification over the definitions, on the authentic
//! reply and on each forgery. The rest are the first rows of ROADMAP B's
//! decoder bullet for the two frames: no truncation and no single-byte
//! mutation panics a decoder, and whatever still decodes points into the
//! frame and re-encodes to it.

use fortress_core::messages::{ProxyResponse, ProxyResponseRef};
use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_core::wire::WireMsg;
use fortress_crypto::keys::KeyId;
use fortress_crypto::sha256::Digest;
use fortress_crypto::sig::{Signature, Signer};
use fortress_crypto::KeyAuthority;
use fortress_replication::message::{ReplyBody, SignedReply, SignedReplyRef};
use proptest::prelude::*;

const SERVERS: [&str; 2] = ["server-0", "server-1"];
const PROXY: &str = "proxy-0";

struct Keys {
    authority: KeyAuthority,
    servers: Vec<Signer>,
    proxy: Signer,
}

fn keys() -> Keys {
    let authority = KeyAuthority::with_seed(24);
    let servers = SERVERS.iter().map(|name| Signer::register(name, &authority)).collect();
    let proxy = Signer::register(PROXY, &authority);
    Keys { authority, servers, proxy }
}

/// Client names from raw bytes: empty, ASCII, and two-, three- and
/// four-byte UTF-8, so no length is ever a character count.
fn name(raw: &[u8]) -> String {
    const ALPHABET: [char; 6] = ['a', 'z', ' ', 'é', '日', '🦀'];
    raw.iter().map(|b| ALPHABET[*b as usize % ALPHABET.len()]).collect()
}

/// The two-signature rule spelled out over the definitions: nothing here
/// reads a view.
fn accepted_by_definition(keys: &Keys, response: &ProxyResponse) -> bool {
    let (server, proxy) = (response.reply.signature.signer(), response.proxy_sig.signer());
    SERVERS.contains(&server)
        && proxy == PROXY
        && keys.authority.verify(server, &response.reply.reply.signing_bytes(), &response.reply.signature)
        && keys.authority.verify(proxy, &response.reply.encode(), &response.proxy_sig)
}

/// The authentic response and the six forgeries of it, each with whether it
/// may be accepted.
fn forgeries(keys: &Keys, authentic: &ProxyResponse, other: &Signer) -> Vec<(&'static str, ProxyResponse, bool)> {
    let forge = |what, mutate: &dyn Fn(&mut ProxyResponse)| {
        let mut response = authentic.clone();
        mutate(&mut response);
        (what, response, false)
    };
    let relabel = |sig: &Signature, name: &str, id: KeyId| Signature::from_parts(name.into(), id, *sig.tag());
    vec![
        ("authentic", authentic.clone(), true),
        forge("bad tag", &|r| {
            let sig = &r.reply.signature;
            r.reply.signature = Signature::from_parts(sig.signer().into(), sig.key_id(), Digest([0; 32]));
        }),
        // The other server's authentic signature over the same body is an
        // authentic reply of the other server: the client's rule takes any
        // known server, the proxy's rule is what pins the index.
        ("wrong signer", {
            let reply = SignedReply::sign(authentic.reply.reply.clone(), other);
            ProxyResponse::over_sign(reply, &keys.proxy)
        }, true),
        forge("wrong key id", &|r| {
            let sig = &r.reply.signature;
            r.reply.signature = relabel(sig, sig.signer(), KeyId(sig.key_id().0 ^ 1));
        }),
        forge("index ≠ body", &|r| r.reply.reply.server_index ^= 1),
        forge("one flipped body byte", &|r| match r.reply.reply.body.first_mut() {
            Some(byte) => *byte ^= 0x20,
            None => r.reply.reply.body.push(0),
        }),
        forge("server tag under the proxy's name", &|r| {
            r.proxy_sig = relabel(&r.reply.signature, PROXY, r.proxy_sig.key_id());
        }),
    ]
}

/// Every slice a view hands out lies inside the frame it was decoded from.
fn assert_inside(frame: &[u8], reply: &SignedReplyRef<'_>, more: &[&[u8]]) {
    let bounds = frame.as_ptr_range();
    let slices = [
        reply.client.as_bytes(),
        reply.body,
        reply.signature.signer.as_bytes(),
        reply.signature.tag,
        reply.signed,
        reply.frame,
    ];
    for slice in slices.iter().chain(more) {
        let range = slice.as_ptr_range();
        assert!(bounds.start <= range.start && range.end <= bounds.end, "a slice outside the frame");
    }
}

/// Decodes `bytes`, which came from `kind`'s frame by truncation or by one
/// changed byte at `changed`. Returns whether they were malformed; whatever
/// decodes must lie inside `bytes` and re-encode to them.
fn malformed_or_faithful(bytes: &[u8], changed: Option<usize>) -> bool {
    match WireMsg::decode(bytes) {
        WireMsg::Malformed(_) => return true,
        WireMsg::SignedReply(view) => {
            assert_inside(bytes, &view, &[]);
            assert_eq!(view.to_owned().encode(), bytes);
        }
        WireMsg::ProxyResponse(view) => {
            let sig = view.proxy_sig;
            assert_inside(bytes, &view.reply, &[sig.signer.as_bytes(), sig.tag]);
            assert_eq!(view.to_owned().encode(), bytes);
        }
        // Only a changed tag byte can make it another family's frame.
        other => assert_eq!(changed, Some(0), "decoded as {other:?}"),
    }
    false
}

fn reply_and_response(keys: &Keys, body: &[u8]) -> [Vec<u8>; 2] {
    let reply = ReplyBody { request_seq: 9, client: "alice é".into(), body: body.to_vec(), server_index: 1 };
    let reply = SignedReply::sign(reply, &keys.servers[1]);
    [reply.encode(), ProxyResponse::over_sign(reply, &keys.proxy).encode()]
}

proptest! {
    #[test]
    fn the_view_is_the_definition(
        seq in any::<u64>(),
        client in proptest::collection::vec(any::<u8>(), 0..12),
        body in proptest::collection::vec(any::<u8>(), 0..301),
        index in any::<u32>(),
        signer in 0usize..2,
    ) {
        let keys = keys();
        let server = &keys.servers[signer];
        let body = ReplyBody { request_seq: seq, client: name(&client), body, server_index: index };
        let reply = SignedReply::sign(body.clone(), server);
        // Signed over the fields where they lie, the tag is the tag over
        // the definition.
        prop_assert_eq!(&reply.signature, &server.sign(&body.signing_bytes()));

        let frame = reply.encode();
        let view = SignedReplyRef::decode(&frame).expect("an encoded reply decodes");
        prop_assert_eq!(view.signed, &body.signing_bytes()[..]);
        prop_assert_eq!(view.frame, &frame[..]);
        prop_assert_eq!(&view.to_owned(), &reply);

        // What the stack writes for this reply under the proxy's
        // over-signature is the owned response's encoding.
        let authentic = ProxyResponse::over_sign(reply, &keys.proxy);
        let proxy_sig = keys.proxy.sign(view.frame);
        let written = ProxyResponseRef { reply: view, proxy_sig: proxy_sig.view() };
        prop_assert_eq!(&written.encode_reusing(Vec::new()), &authentic.encode());

        for (what, response, acceptable) in forgeries(&keys, &authentic, &keys.servers[1 - signer]) {
            let by_definition = accepted_by_definition(&keys, &response);
            prop_assert_eq!(by_definition, acceptable, "{}", what);
            let frame = response.encode();
            let view = ProxyResponseRef::decode(&frame).expect("an encoded response decodes");
            prop_assert_eq!(view.to_owned(), response.clone(), "{}", what);
            let servers = SERVERS.map(String::from);
            let borrowed = view.verify(&keys.authority, &servers, &[PROXY.into()]);
            prop_assert_eq!(borrowed.is_ok(), by_definition, "{}: {:?}", what, borrowed);
            prop_assert_eq!(view.reply.verify(&keys.authority), response.reply.verify(&keys.authority), "{}", what);
        }
    }

    /// Random frames under one random change per position.
    #[test]
    fn a_changed_byte_is_malformed_or_decodes_to_itself(
        body in proptest::collection::vec(any::<u8>(), 0..40),
        mask in 1u8..=255,
    ) {
        for frame in reply_and_response(&keys(), &body) {
            for at in 0..frame.len() {
                let mut changed = frame.clone();
                changed[at] ^= mask;
                malformed_or_faithful(&changed, Some(at));
            }
        }
    }
}

/// One frame of each kind under every truncation and every value of every
/// byte: never a panic, and most of it malformed.
#[test]
fn every_truncation_and_every_changed_byte_of_a_reply_frame() {
    for frame in reply_and_response(&keys(), b"VALUE v") {
        for cut in 0..frame.len() {
            assert!(malformed_or_faithful(&frame[..cut], None), "cut at {cut} decoded");
        }
        assert!(!malformed_or_faithful(&frame, None));
        let mut malformed = 0;
        for at in 0..frame.len() {
            for value in (0..=255u8).filter(|v| *v != frame[at]) {
                let mut changed = frame.clone();
                changed[at] = value;
                malformed += malformed_or_faithful(&changed, Some(at)) as usize;
            }
        }
        // Tag and every length prefix reject all but a few values; the
        // payload bytes take any.
        assert!(malformed > 255 * 20, "only {malformed} changes were malformed");
    }
}

/// A decode failure is an event at the stack: every truncation of both
/// frames, thrown at a proxy, is counted there and answered by nobody.
#[test]
fn a_truncated_reply_frame_is_counted_malformed_at_the_stack() {
    let cfg = StackConfig { class: SystemClass::S2Fortress, seed: 3, ..StackConfig::default() };
    let mut stack = Stack::new(cfg).expect("assembly");
    stack.add_client("eve");
    let proxy = stack.proxy_addrs()[0];
    let mut thrown = 0;
    for frame in reply_and_response(&keys(), b"VALUE v") {
        for cut in 0..frame.len() {
            stack.send_frame("eve", proxy, &frame[..cut]);
            thrown += 1;
        }
    }
    stack.pump();
    assert_eq!(stack.malformed_at(proxy), thrown);
    assert!(stack.drain_client("eve").is_empty());
}
