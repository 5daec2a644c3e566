//! Property-based tests for the crypto substrate.

use fortress_crypto::authority::KeyAuthority;
use fortress_crypto::hmac::{constant_time_eq, HmacKey, HmacSha256};
use fortress_crypto::keys::SecretKey;
use fortress_crypto::sha256::{Digest, Sha256};
use fortress_crypto::sig::{DoublySigned, Signer};
use proptest::prelude::*;

/// RFC 2104 spelled out over the one-shot hash and joined buffers, sharing
/// nothing with `HmacKey` but `Sha256::digest`:
/// `H((K' ^ opad) || H((K' ^ ipad) || message))`.
fn rfc2104(key: &[u8], message: &[u8]) -> Digest {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&Sha256::digest(key).0);
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let padded = |pad: u8, tail: &[u8]| {
        let mut joined: Vec<u8> = block.iter().map(|b| b ^ pad).collect();
        joined.extend_from_slice(tail);
        Sha256::digest(&joined)
    };
    padded(0x5c, &padded(0x36, message).0)
}

/// The keyed path, the stateless functions and the definition agree for
/// every key length on both sides of the block size and for message
/// lengths on both sides of every padding boundary of the inner hash,
/// however the message is cut into parts.
#[test]
fn keyed_mac_matches_the_definition_at_every_boundary() {
    let message: Vec<u8> = (0u8..=255).cycle().take(130).collect();
    for key_len in 0..=200usize {
        let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + key_len) as u8).collect();
        let keyed = HmacKey::new(&key);
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 118, 119, 120, 121, 128] {
            let m = &message[..len];
            let want = rfc2104(&key, m);
            assert_eq!(HmacSha256::mac(&key, m), want, "key {key_len}, message {len}");
            for cut in [0, len / 3, len / 2, len] {
                let (a, b) = m.split_at(cut);
                let (b, c) = b.split_at(b.len() / 2);
                assert_eq!(keyed.mac_parts(&[a, b, c]), want, "key {key_len}, {len} cut at {cut}");
                assert_eq!(HmacSha256::mac_parts(&key, &[a, b, c]), want);
            }
        }
    }
}

/// A MAC works on copies of the key's two states: a thousand messages
/// through one `HmacKey` are a thousand independent MACs, in any order.
#[test]
fn one_key_a_thousand_messages() {
    let key = [0x42u8; 32];
    let keyed = HmacKey::new(&key);
    let message = |i: u32| -> Vec<u8> {
        let word = i.wrapping_mul(0x9e37_79b9).to_le_bytes();
        word.iter().copied().cycle().take(i as usize % 150).collect()
    };
    let tags: Vec<Digest> = (0..1_000).map(|i| keyed.mac_parts(&[&message(i)])).collect();
    for i in (0..1_000).rev() {
        let m = message(i);
        assert_eq!(tags[i as usize], rfc2104(&key, &m), "message {i}");
        assert_eq!(tags[i as usize], HmacSha256::mac(&key, &m), "message {i}");
        assert_eq!(tags[i as usize], keyed.mac_parts(&[&m]), "message {i}, second pass");
        assert!(keyed.verify(&m, &tags[i as usize]));
    }
}

proptest! {
    /// Hashing is a pure function of the byte stream, independent of chunking.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                 split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Distinct single-byte flips change the digest (second-preimage smoke).
    #[test]
    fn sha256_bit_flip_changes_digest(mut data in proptest::collection::vec(any::<u8>(), 1..512),
                                      idx in any::<prop::sample::Index>()) {
        let original = Sha256::digest(&data);
        let i = idx.index(data.len());
        data[i] ^= 0x01;
        prop_assert_ne!(Sha256::digest(&data), original);
    }

    /// HMAC verifies what it MACs and distinguishes keys and messages.
    #[test]
    fn hmac_roundtrip(key in proptest::collection::vec(any::<u8>(), 0..128),
                      msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
    }

    #[test]
    fn hmac_key_separation(key in proptest::collection::vec(any::<u8>(), 1..64),
                           msg in proptest::collection::vec(any::<u8>(), 0..256),
                           flip in any::<prop::sample::Index>()) {
        let mut other = key.clone();
        let i = flip.index(other.len());
        other[i] ^= 0x80;
        prop_assert_ne!(HmacSha256::mac(&key, &msg), HmacSha256::mac(&other, &msg));
    }

    /// constant_time_eq agrees with ==.
    #[test]
    fn ct_eq_agrees_with_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(constant_time_eq(&a, &b), a == b);
    }

    /// Key derivation is injective over purposes in practice.
    #[test]
    fn derive_purpose_separation(seed in any::<[u8; 32]>(),
                                 p1 in proptest::collection::vec(any::<u8>(), 0..32),
                                 p2 in proptest::collection::vec(any::<u8>(), 0..32)) {
        prop_assume!(p1 != p2);
        let root = SecretKey::from_bytes(seed);
        prop_assert_ne!(root.derive(&p1), root.derive(&p2));
    }

    /// Any body signed and over-signed verifies; any tampering is caught.
    #[test]
    fn doubly_signed_integrity(body in proptest::collection::vec(any::<u8>(), 0..256),
                               tamper in any::<Option<prop::sample::Index>>()) {
        let authority = KeyAuthority::with_seed(1234);
        let server = Signer::register("s", &authority);
        let proxy = Signer::register("p", &authority);
        let sig = server.sign(&body);
        let env = DoublySigned::over_sign(body.clone(), sig, &proxy);
        let servers = vec!["s".to_string()];
        let proxies = vec!["p".to_string()];
        match tamper {
            None => prop_assert!(env.verify(&authority, &servers, &proxies).is_ok()),
            Some(idx) if !body.is_empty() => {
                let mut forged_body = body.clone();
                let i = idx.index(forged_body.len());
                forged_body[i] ^= 0x01;
                let forged_sig = server.sign(&body); // sig over ORIGINAL body
                let env2 = DoublySigned::over_sign(forged_body, forged_sig, &proxy);
                // The proxy signed the forged body, but the server signature
                // no longer matches it.
                prop_assert!(env2.verify(&authority, &servers, &proxies).is_err());
            }
            _ => {}
        }
    }
}
