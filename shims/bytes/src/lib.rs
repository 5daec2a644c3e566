//! Offline stand-in for the `bytes` crate's `Bytes` type: a cheaply
//! clonable, immutable byte buffer. Covers exactly the surface the
//! workspace uses (`from`, `from_static`, `copy_from_slice`,
//! deref-to-slice, equality/hash).
//!
//! Short buffers (up to [`INLINE_CAP`] bytes) are stored inline in the
//! handle itself — no heap allocation, and `clone` is a plain copy.
//! Longer buffers fall back to a shared `Arc<[u8]>`. Most protocol
//! frames in this workspace (exploit probes, heartbeats, client
//! requests) are well under the cap, so the hot paths never touch the
//! allocator. Equality, ordering and hashing are by content, so the two
//! representations are indistinguishable to callers.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Buffers at or below this length are stored inline (no allocation).
/// Sized to cover every per-probe frame: raw exploit probes (16 B) and
/// framed client requests (~45 B) stay inline; signed replies and bulk
/// payloads spill to the shared representation.
pub const INLINE_CAP: usize = 64;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<[u8]>),
}

/// Cheaply clonable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// Copies `data` into a new buffer (inline when it fits).
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..data.len()].copy_from_slice(data);
            Bytes(Repr::Inline { len: data.len() as u8, buf })
        } else {
            Bytes(Repr::Shared(Arc::from(data)))
        }
    }

    /// Builds a buffer from a static slice. (The shim copies; the real
    /// crate borrows. Every call site passes short literals.)
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(a) => a,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        if v.len() <= INLINE_CAP {
            Bytes::copy_from_slice(&v)
        } else {
            Bytes(Repr::Shared(Arc::from(v.into_boxed_slice())))
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(v: &'static [u8; N]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Matches `<[u8] as Hash>::hash`, as the `Borrow<[u8]>` impl
        // requires.
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_eq() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..], &[1, 2, 3]);
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(Bytes::from_static(b"hi").as_ref(), b"hi");
    }

    #[test]
    fn inline_and_shared_compare_by_content() {
        let long: Vec<u8> = (0..=255).collect();
        let shared = Bytes::from(long.clone());
        let copy = Bytes::copy_from_slice(&long);
        assert_eq!(shared, copy);
        assert_eq!(shared.len(), 256);

        // A buffer right at the cap is inline; one past it is shared.
        let at_cap = Bytes::from(vec![7u8; INLINE_CAP]);
        let past_cap = Bytes::from(vec![7u8; INLINE_CAP + 1]);
        assert_eq!(at_cap.len(), INLINE_CAP);
        assert_eq!(past_cap.len(), INLINE_CAP + 1);
        assert_ne!(at_cap, past_cap);
        assert_eq!(at_cap, Bytes::copy_from_slice(&[7u8; INLINE_CAP]));
    }

    #[test]
    fn hash_matches_slice_hash() {
        use std::collections::HashMap;
        let mut m: HashMap<Bytes, u32> = HashMap::new();
        m.insert(Bytes::from(vec![1, 2, 3]), 1);
        m.insert(Bytes::from(vec![9u8; 64]), 2);
        // Borrow<[u8]> lookups must agree with Bytes hashing.
        assert_eq!(m.get(&[1u8, 2, 3][..]), Some(&1));
        assert_eq!(m.get(&vec![9u8; 64][..]), Some(&2));
    }
}
