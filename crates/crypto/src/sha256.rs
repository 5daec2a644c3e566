//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! The implementation follows the specification directly: 512-bit blocks, 64
//! rounds, Merkle–Damgård padding with a 64-bit big-endian length. It is used
//! by [`crate::hmac`] and, transitively, by every signature, key id, key
//! derivation and replicated-state digest in the protocol stack.
//!
//! # Which compression body runs
//!
//! Every block goes through one private dispatcher with two bodies behind
//! it. On x86-64 CPUs with the SHA extensions (`sha`, `sse4.1`, `ssse3`,
//! as `is_x86_feature_detected!` reports them; std caches the answer) a
//! block is 16 × two `sha256rnds2` instructions with the message schedule
//! from `sha256msg1/2`. Everywhere else it is the portable 64-round loop.
//! Both compute the same function, bit for bit; the tests run the FIPS
//! vectors through each body by name and hold the two equal on random
//! (state, block) pairs. Nothing selects a body but the CPU.
//!
//! The hardware body is a `#[target_feature]` function, so calling it is the
//! one `unsafe` block in this crate: its whole obligation is that the CPU
//! has the features the function enables, and the line before the call
//! checks exactly those. Inside it every intrinsic is a safe call; words go
//! in through `u32::from_be_bytes` and come out through lane extracts, with
//! no raw-pointer load or store.
//!
//! # Example
//!
//! ```
//! use fortress_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_string(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::fmt;

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Length of a SHA-256 message block in bytes.
pub const BLOCK_LEN: usize = 64;

/// The per-round constants `K` (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values `H0` (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 256-bit digest produced by [`Sha256`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The digest as a lowercase hexadecimal string: what `Display` and
    /// `Debug` print.
    ///
    /// ```
    /// use fortress_crypto::sha256::Sha256;
    /// let hex = Sha256::digest(b"").to_string();
    /// assert!(hex.starts_with("e3b0c442"));
    /// ```
    fn to_hex(self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Interprets the first eight bytes of the digest as a big-endian `u64`.
    ///
    /// Useful for deriving well-distributed integers (e.g. simulated layout
    /// offsets) from hashed material.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// Supports streaming input via [`Sha256::update`] and one-shot hashing via
/// [`Sha256::digest`].
///
/// # Example
///
/// ```
/// use fortress_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"a");
/// hasher.update(b"bc");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full block is available.
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    /// Total message length in bytes (mod 2^64).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several byte slices without allocating.
    ///
    /// Equivalent to updating with each part in order.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Consumes the hasher and returns the digest of all fed data.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] over a given compression body (the tests name
    /// each body; the product passes the dispatcher).
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; BLOCK_LEN])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially-filled buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_LEN {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }

        // Process full blocks straight from the input, borrowed in place.
        while let Some((block, rest)) = input.split_first_chunk::<BLOCK_LEN>() {
            compress(&mut self.state, block);
            input = rest;
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// [`Sha256::finalize`] over a given compression body.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8; BLOCK_LEN])) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, in
        // the block the buffered bytes already sit in; a second block when
        // the length no longer fits behind them. `update` keeps
        // `buffer_len` under a full block.
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= BLOCK_LEN - 8 {
            compress(&mut self.state, &block);
            block = [0u8; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// The chaining value so far, for the tests that check a keyed
    /// hasher's state is never printed.
    #[cfg(test)]
    pub(crate) fn state_words(&self) -> [u32; 8] {
        self.state
    }
}

/// The SHA-256 compression function applied to one 512-bit block: the
/// SHA-extensions body where the CPU has it, the portable one otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if ni::try_compress(state, block) {
        return;
    }
    compress_portable(state, block);
}

/// The compression function as FIPS 180-4 spells it: the 64-word message
/// schedule, then 64 rounds.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk is 4 bytes"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::{BLOCK_LEN, K};

    /// Compresses `block` into `state` on the SHA extensions and returns
    /// `true`, or leaves `state` alone and returns `false` when this CPU
    /// lacks them.
    pub(super) fn try_compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) -> bool {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3");
        if present {
            // SAFETY: the CPU has every feature `compress_ni` enables: the
            // three just checked, and sse2, which x86-64 itself guarantees.
            unsafe { compress_ni(state, block) };
        }
        present
    }

    /// One block in the register layout `sha256rnds2` works in: the state
    /// as ABEF and CDGH (lane 3 first), the message as four quads of
    /// schedule words, each quad plus its four constants feeding two
    /// `sha256rnds2` (two rounds each).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_ni(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let (abef_in, cdgh_in) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);

        let word =
            |t: usize| i32::from_be_bytes(block[4 * t..4 * t + 4].try_into().expect("4 bytes"));
        let quad = |q: usize| {
            _mm_set_epi32(
                word(4 * q + 3),
                word(4 * q + 2),
                word(4 * q + 1),
                word(4 * q),
            )
        };
        // The window of the last 16 schedule words: quads q .. q+3.
        let (mut w0, mut w1, mut w2, mut w3) = (quad(0), quad(1), quad(2), quad(3));
        for q in 0..16 {
            let k = |t: usize| K[4 * q + t] as i32;
            let wk = _mm_add_epi32(w0, _mm_set_epi32(k(3), k(2), k(1), k(0)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            // Quad q+4 from the window; the last four go unused.
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(partial, w3));
        }

        let (abef, cdgh) = (_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / well-known test vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    /// A compression body, as the hasher's `*_with` functions take it.
    type Body = fn(&mut [u32; 8], &[u8; BLOCK_LEN]);

    /// The SHA-extensions body, where this CPU has it.
    fn ni_body() -> Option<Body> {
        #[cfg(target_arch = "x86_64")]
        if ni::try_compress(&mut [0; 8], &[0; BLOCK_LEN]) {
            return Some(|state, block| assert!(ni::try_compress(state, block)));
        }
        None
    }

    /// Every body by name: the dispatcher, the portable loop, and the
    /// SHA-extensions one where this CPU has it. A missing hardware body
    /// is printed as skipped by `test`, never passed over silently.
    fn bodies(test: &str) -> Vec<(&'static str, Body)> {
        let mut out: Vec<(&'static str, Body)> =
            vec![("dispatcher", compress), ("portable", compress_portable)];
        match ni_body() {
            Some(body) => out.push(("sha-ni", body)),
            None => println!("{test}: sha-ni body skipped, this CPU lacks the SHA extensions"),
        }
        out
    }

    fn digest_with(body: Body, data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update_with(data, body);
        h.finalize_with(body)
    }

    #[test]
    fn the_sha_ni_body_equals_the_portable_one() {
        use rand::{Rng, RngCore, SeedableRng};
        let Some(ni) = ni_body() else {
            println!("the_sha_ni_body_equals_the_portable_one: skipped, this CPU lacks the SHA extensions");
            return;
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a256);
        for case in 0..20_000 {
            let start: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let mut block = [0u8; BLOCK_LEN];
            rng.fill_bytes(&mut block);
            let (mut want, mut got) = (start, start);
            compress_portable(&mut want, &block);
            ni(&mut got, &block);
            assert_eq!(
                got, want,
                "case {case}: state {start:08x?}, block {block:02x?}"
            );
        }
    }

    #[test]
    fn known_vectors() {
        for (name, body) in bodies("known_vectors") {
            for (msg, want) in VECTORS {
                assert_eq!(
                    digest_with(body, msg).to_hex(),
                    *want,
                    "{name}: vector {msg:?}"
                );
            }
        }
    }

    #[test]
    fn million_a_vector() {
        // FIPS 180-4 long vector: one million 'a' characters.
        let chunk = [b'a'; 1000];
        for (name, body) in bodies("million_a_vector") {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.update_with(&chunk, body);
            }
            assert_eq!(
                h.finalize_with(body).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0u8..=255).cycle().take(513).collect();
        let oneshot = digest_with(compress_portable, &data);
        assert_eq!(Sha256::digest(&data), oneshot);
        for (name, body) in bodies("streaming_matches_oneshot_at_every_split") {
            for split in 0..data.len() {
                let mut h = Sha256::new();
                h.update_with(&data[..split], body);
                h.update_with(&data[split..], body);
                assert_eq!(h.finalize_with(body), oneshot, "{name}: split at {split}");
            }
        }
    }

    #[test]
    fn digest_parts_matches_concatenation() {
        let joined = Sha256::digest(b"hello world");
        let parts = Sha256::digest_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(joined, parts);
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding boundaries.
        let lens = [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128];
        for (name, body) in bodies("padding_boundaries") {
            for len in lens {
                let data = vec![0x5au8; len];
                let mut h = Sha256::new();
                for b in &data {
                    h.update_with(std::slice::from_ref(b), body);
                }
                let want = digest_with(compress_portable, &data);
                assert_eq!(h.finalize_with(body), want, "{name}: len {len}");
                assert_eq!(digest_with(body, &data), want, "{name}: len {len}");
            }
        }
    }

    #[test]
    fn digest_formatting() {
        let d = Sha256::digest(b"abc");
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
        assert_eq!(d.as_bytes().len(), DIGEST_LEN);
    }

    #[test]
    fn prefix_u64_is_big_endian_prefix() {
        let d = Digest([
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.prefix_u64(), 0x0102030405060708);
    }

    #[test]
    fn distinct_messages_distinct_digests() {
        // Smoke-level collision sanity over a structured family.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0u32..1000 {
            assert!(seen.insert(Sha256::digest(&i.to_le_bytes())), "i={i}");
        }
    }
}
