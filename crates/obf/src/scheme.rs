//! The randomization scheme and the exploit an attacker sends against it.
//!
//! The paper's scheme is PaX-style address-space layout randomization
//! (paper refs \[1\], \[13\]) at `χ = 2^16`: a code-injection exploit
//! overwrites a saved return address, and it takes control only if it names
//! the process's critical address, which the key moves. A wrong address
//! makes the corrupted control transfer land in unmapped memory, and the
//! child crashes. So a probe lands iff it names the key, which is the
//! abstraction the paper's models build on.

use crate::keys::RandomizationKey;
use crate::layout::critical_address;

/// The exploit a malicious request carries: overwrite the saved return
/// address with `target`.
///
/// Crafted by [`ExploitPayload::aimed_at`]; judged by
/// [`ExploitPayload::lands`] against the victim's current key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExploitPayload {
    /// The absolute address the attacker redirects control to.
    pub target: u64,
}

impl ExploitPayload {
    /// Magic prefix marking a request op as carrying an exploit. Servers
    /// sniff for it; proxies deliberately do not (they forward blindly, per
    /// the architecture — they only *log* request validity after the fact).
    pub const WIRE_PREFIX: &'static [u8] = b"\x13\x37!EXP";

    /// The two bytes between the prefix and the target: the
    /// return-overwrite form aimed at the stack. An exploit frame has no
    /// other form.
    const FORM: [u8; 2] = [0, 0];

    /// The exploit an attacker who believes the key is `guess` sends.
    pub fn aimed_at(guess: RandomizationKey) -> ExploitPayload {
        ExploitPayload {
            target: critical_address(guess),
        }
    }

    /// Whether the exploit takes control of a process randomized under
    /// `key`: `true` means the process is compromised, `false` that the
    /// child crashes.
    pub fn lands(&self, key: RandomizationKey) -> bool {
        self.target == critical_address(key)
    }

    /// Encodes the payload, prefixed with [`ExploitPayload::WIRE_PREFIX`],
    /// for embedding in a request op.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_PREFIX.len() + 10);
        self.write_to(&mut out);
        out
    }

    /// Appends the wire encoding to `out` — the probe hot path reuses
    /// one buffer across millions of guesses instead of allocating a
    /// fresh `Vec` per probe. Byte-identical to [`ExploitPayload::to_bytes`].
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(Self::WIRE_PREFIX);
        out.extend_from_slice(&Self::FORM);
        out.extend_from_slice(&self.target.to_le_bytes());
    }

    /// Decodes an op if it carries an exploit; `None` for benign ops or
    /// malformed exploit bytes (which a real parser would reject early,
    /// before the vulnerable code path).
    pub fn from_bytes(op: &[u8]) -> Option<ExploitPayload> {
        let rest = op
            .strip_prefix(Self::WIRE_PREFIX)?
            .strip_prefix(&Self::FORM)?;
        let bytes: [u8; 8] = rest.get(..8)?.try_into().ok()?;
        Some(ExploitPayload {
            target: u64::from_le_bytes(bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aslr_right_guess_lands() {
        let key = RandomizationKey(31337);
        assert!(ExploitPayload::aimed_at(key).lands(key));
    }

    #[test]
    fn aslr_wrong_guess_crashes() {
        let key = RandomizationKey(31337);
        assert!(!ExploitPayload::aimed_at(RandomizationKey(31338)).lands(key));
    }

    #[test]
    fn wire_roundtrip() {
        for k in [0, 9, 77, u64::from(u32::MAX)] {
            let p = ExploitPayload::aimed_at(RandomizationKey(k));
            let bytes = p.to_bytes();
            assert!(bytes.starts_with(ExploitPayload::WIRE_PREFIX));
            assert_eq!(ExploitPayload::from_bytes(&bytes), Some(p));
        }
    }

    #[test]
    fn benign_ops_do_not_decode_as_exploits() {
        assert_eq!(ExploitPayload::from_bytes(b"PUT key value"), None);
        assert_eq!(ExploitPayload::from_bytes(b""), None);
        // Truncated exploit bytes are rejected, not panicked on.
        let full = ExploitPayload::aimed_at(RandomizationKey(1)).to_bytes();
        for cut in 0..full.len() {
            assert_eq!(ExploitPayload::from_bytes(&full[..cut]), None, "cut at {cut}");
        }
        // Every form but the one exploit is rejected: an unknown region or
        // variant tag, the heap/libc/GOT regions (1..=3) and the
        // code-injection form (variant 1 and an 8-byte word) that no
        // attacker sends.
        let forms: [&[u8]; 5] = [
            &[0, 9, 0, 0, 0, 0, 0, 0, 0, 0],
            &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
            &[0, 3, 0, 0, 0, 0, 0, 0, 0, 0],
            &[1, 0xcc, 0xcc, 0xcc, 0xcc, 0x90, 0x90, 0x90, 0x90],
            &[7],
        ];
        for form in forms {
            let mut bad = ExploitPayload::WIRE_PREFIX.to_vec();
            bad.extend_from_slice(form);
            assert_eq!(ExploitPayload::from_bytes(&bad), None, "{form:?}");
        }
    }

    #[test]
    fn exhaustive_scan_finds_exactly_one_key() {
        // Over a tiny space, exactly one guess lands — the basis of the
        // de-randomization attack's phase 1.
        let space = crate::keys::KeySpace::from_entropy_bits(8);
        let key = RandomizationKey(200);
        let hits: Vec<_> = space
            .iter()
            .filter(|g| ExploitPayload::aimed_at(*g).lands(key))
            .collect();
        assert_eq!(hits, vec![key]);
    }
}
