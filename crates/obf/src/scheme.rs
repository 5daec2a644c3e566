//! Randomization schemes and exploit payloads.
//!
//! Two schemes from the paper's background section are modeled:
//!
//! * **ASLR** (address-space layout randomization, PaX / TRR — paper refs
//!   \[1\], \[13\]): the exploit must name the correct critical *address*;
//!   a wrong base makes the corrupted control transfer land in unmapped
//!   memory → crash.
//! * **ISR** (instruction-set randomization, Sovarel et al. — paper ref
//!   \[12\]): injected code must be encoded under the process's
//!   instruction key; wrongly encoded instructions decode to garbage →
//!   crash.
//!
//! Both reduce a code-injection attempt to "did the attacker guess the key",
//! which is precisely the abstraction the paper's models build on — but the
//! two code paths exercise different mechanics, which the protocol-level
//! simulation and tests use.

use crate::keys::RandomizationKey;
use crate::layout::{AddressSpace, Region};

/// A randomization scheme.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// Address-space layout randomization.
    Aslr,
    /// Instruction-set randomization.
    Isr,
}

/// The attack payload a malicious request carries.
///
/// Crafted by [`Scheme::craft_exploit`]; evaluated by
/// [`Scheme::evaluate`] against the victim's current key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExploitPayload {
    /// Overwrite the saved return address with `target` (ASLR attack).
    ReturnOverwrite {
        /// The absolute address the attacker redirects control to.
        target: u64,
        /// The region attacked.
        region: Region,
    },
    /// Inject `encoded` shellcode XOR-encoded under a guessed instruction
    /// key (ISR attack).
    CodeInjection {
        /// First word of the encoded shellcode.
        encoded: u64,
    },
}

impl ExploitPayload {
    /// Magic prefix marking a request op as carrying an exploit. Servers
    /// sniff for it; proxies deliberately do not (they forward blindly, per
    /// the architecture — they only *log* request validity after the fact).
    pub const WIRE_PREFIX: &'static [u8] = b"\x13\x37!EXP";

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
        match self {
            ExploitPayload::ReturnOverwrite { target, region } => {
                out.push(0);
                out.push(match region {
                    Region::Stack => 0,
                    Region::Heap => 1,
                    Region::Libc => 2,
                    Region::Got => 3,
                });
                out.extend_from_slice(&target.to_le_bytes());
            }
            ExploitPayload::CodeInjection { encoded } => {
                out.push(1);
                out.extend_from_slice(&encoded.to_le_bytes());
            }
        }
    }

    /// Decodes an op if it carries an exploit; `None` for benign ops or
    /// malformed exploit bytes (which a real parser would reject early,
    /// before the vulnerable code path).
    pub fn from_bytes(op: &[u8]) -> Option<ExploitPayload> {
        let rest = op.strip_prefix(Self::WIRE_PREFIX)?;
        match rest.first()? {
            0 => {
                let region = match rest.get(1)? {
                    0 => Region::Stack,
                    1 => Region::Heap,
                    2 => Region::Libc,
                    3 => Region::Got,
                    _ => return None,
                };
                let bytes: [u8; 8] = rest.get(2..10)?.try_into().ok()?;
                Some(ExploitPayload::ReturnOverwrite {
                    target: u64::from_le_bytes(bytes),
                    region,
                })
            }
            1 => {
                let bytes: [u8; 8] = rest.get(1..9)?.try_into().ok()?;
                Some(ExploitPayload::CodeInjection {
                    encoded: u64::from_le_bytes(bytes),
                })
            }
            _ => None,
        }
    }
}

/// Canonical plaintext first word of the attacker's shellcode.
const SHELLCODE_WORD: u64 = 0x90_90_90_90_cc_cc_cc_cc;

/// Expand a randomization key into an ISR XOR pad.
fn isr_pad(key: RandomizationKey) -> u64 {
    key.0
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(17)
        .wrapping_add(0x1337)
}

impl Scheme {
    /// Crafts the exploit payload an attacker who believes the key is
    /// `guess` would send.
    pub fn craft_exploit(&self, guess: RandomizationKey) -> ExploitPayload {
        match self {
            Scheme::Aslr => ExploitPayload::ReturnOverwrite {
                target: AddressSpace::predicted_critical_address(guess, Region::Stack),
                region: Region::Stack,
            },
            Scheme::Isr => ExploitPayload::CodeInjection {
                encoded: SHELLCODE_WORD ^ isr_pad(guess),
            },
        }
    }

    /// Evaluates a payload against the victim's true `key`: `true` means
    /// the exploit lands (process compromised), `false` means it misfires
    /// (process crashes).
    pub fn evaluate(&self, payload: &ExploitPayload, key: RandomizationKey) -> bool {
        match (self, payload) {
            (Scheme::Aslr, ExploitPayload::ReturnOverwrite { target, region }) => {
                *target == AddressSpace::randomize(key).critical_address(*region)
            }
            (Scheme::Isr, ExploitPayload::CodeInjection { encoded }) => {
                // The processor decodes with the true pad; only correctly
                // encoded shellcode survives decoding.
                (*encoded ^ isr_pad(key)) == SHELLCODE_WORD
            }
            // A payload crafted for the wrong scheme never lands; it still
            // corrupts state, so the caller treats `false` as a crash.
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aslr_right_guess_lands() {
        let key = RandomizationKey(31337);
        let p = Scheme::Aslr.craft_exploit(key);
        assert!(Scheme::Aslr.evaluate(&p, key));
    }

    #[test]
    fn aslr_wrong_guess_crashes() {
        let key = RandomizationKey(31337);
        let p = Scheme::Aslr.craft_exploit(RandomizationKey(31338));
        assert!(!Scheme::Aslr.evaluate(&p, key));
    }

    #[test]
    fn isr_right_guess_lands() {
        let key = RandomizationKey(99);
        let p = Scheme::Isr.craft_exploit(key);
        assert!(Scheme::Isr.evaluate(&p, key));
    }

    #[test]
    fn isr_wrong_guess_crashes() {
        let key = RandomizationKey(99);
        let p = Scheme::Isr.craft_exploit(RandomizationKey(100));
        assert!(!Scheme::Isr.evaluate(&p, key));
    }

    #[test]
    fn cross_scheme_payload_never_lands() {
        let key = RandomizationKey(5);
        let aslr_payload = Scheme::Aslr.craft_exploit(key);
        let isr_payload = Scheme::Isr.craft_exploit(key);
        assert!(!Scheme::Isr.evaluate(&aslr_payload, key));
        assert!(!Scheme::Aslr.evaluate(&isr_payload, key));
    }

    #[test]
    fn wire_roundtrip() {
        for p in [
            Scheme::Aslr.craft_exploit(RandomizationKey(9)),
            Scheme::Isr.craft_exploit(RandomizationKey(77)),
        ] {
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
        let full = Scheme::Aslr.craft_exploit(RandomizationKey(1)).to_bytes();
        for cut in 0..full.len() {
            let _ = ExploitPayload::from_bytes(&full[..cut]);
        }
        // Unknown region / variant tags rejected.
        let mut bad = ExploitPayload::WIRE_PREFIX.to_vec();
        bad.extend_from_slice(&[0, 9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(ExploitPayload::from_bytes(&bad), None);
        let mut bad2 = ExploitPayload::WIRE_PREFIX.to_vec();
        bad2.push(7);
        assert_eq!(ExploitPayload::from_bytes(&bad2), None);
    }

    #[test]
    fn exhaustive_scan_finds_exactly_one_key() {
        // Over a tiny space, exactly one guess lands — the basis of the
        // de-randomization attack's phase 1.
        let space = crate::keys::KeySpace::from_entropy_bits(8);
        let key = RandomizationKey(200);
        for scheme in [Scheme::Aslr, Scheme::Isr] {
            let hits: Vec<_> = space
                .iter()
                .filter(|g| scheme.evaluate(&scheme.craft_exploit(*g), key))
                .collect();
            assert_eq!(hits, vec![key], "{scheme:?}");
        }
    }
}
