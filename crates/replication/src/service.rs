//! The replicated service abstraction and the concrete service.
//!
//! PB's selling point (paper §1) is that it replicates **any** service:
//! "PB is thus suited to replicating any service without having to deal
//! with sources of non-determinism". SMR, by contrast, "requires that the
//! system to be protected execute as a deterministic state machine".
//!
//! The [`Service`] trait captures the split: `execute` returns both the
//! response and a **resolved state delta**. A primary ships the delta, so
//! backups converge even when execution was non-deterministic; an SMR
//! replica executes the op itself, which is only safe for deterministic
//! services.
//!
//! [`KvStore`] is the deterministic key-value store every tier here
//! replicates (SMR-safe). A store whose writes embed node-local values
//! (timestamps, random session ids) is the case the split exists for: its
//! replicas converge under PB, where the primary's resolved delta wins,
//! and diverge under naive SMR, where each executes the op itself.

use std::collections::BTreeMap;

use fortress_crypto::sha256::{Digest, Sha256};
use fortress_net::codec::{CodecError, Reader, Writer};

/// A service that can be replicated.
///
/// Implementations must uphold: applying `delta`s in execution order to a
/// replica that started from the same snapshot yields the same state and
/// the same [`Service::digest`].
pub trait Service {
    /// Executes an operation, returning `(response, resolved delta)`.
    ///
    /// The delta must deterministically reproduce the state change when fed
    /// to [`Service::apply_delta`] on any replica; an empty delta means the
    /// op was read-only.
    fn execute(&mut self, op: &[u8]) -> (Vec<u8>, Vec<u8>);

    /// Applies a delta produced by another replica's `execute`.
    fn apply_delta(&mut self, delta: &[u8]);

    /// Serializes the full service state.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the service state from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a decode error description if the snapshot is malformed.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError>;

    /// A digest of the current state, for divergence detection and the
    /// `f+1`-matching rejoin rule.
    fn digest(&self) -> Digest;
}

/// A deterministic string key-value store.
///
/// Operation grammar (UTF-8, space-separated):
///
/// * `PUT <key> <value…>` → `OK`
/// * `GET <key>` → `VALUE <value>` or `NIL`
/// * `DEL <key>` → `OK` or `NIL`
/// * `LEN` → `<count>`
///
/// Unknown or malformed ops answer `ERR <reason>` and change nothing.
///
/// # Example
///
/// ```
/// use fortress_replication::service::{KvStore, Service};
///
/// let mut kv = KvStore::new();
/// let (resp, delta) = kv.execute(b"PUT color teal");
/// assert_eq!(resp, b"OK");
/// assert!(!delta.is_empty());
/// let (resp, delta) = kv.execute(b"GET color");
/// assert_eq!(resp, b"VALUE teal");
/// assert!(delta.is_empty(), "reads produce no delta");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<String, String>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read access (tests/telemetry).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn execute_parts(&mut self, op: &str) -> (String, Vec<u8>) {
        let mut parts = op.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("PUT"), Some(key), Some(value)) => {
                // A key already held keeps its `String`s: the value is
                // overwritten where it lies.
                match self.map.get_mut(key) {
                    Some(held) => {
                        held.clear();
                        held.push_str(value);
                    }
                    None => {
                        self.map.insert(key.to_owned(), value.to_owned());
                    }
                }
                ("OK".into(), op.as_bytes().to_vec())
            }
            (Some("GET"), Some(key), None) => match self.map.get(key) {
                Some(v) => (format!("VALUE {v}"), Vec::new()),
                None => ("NIL".into(), Vec::new()),
            },
            (Some("DEL"), Some(key), None) => {
                if self.map.remove(key).is_some() {
                    ("OK".into(), op.as_bytes().to_vec())
                } else {
                    ("NIL".into(), Vec::new())
                }
            }
            (Some("LEN"), None, None) => (self.map.len().to_string(), Vec::new()),
            _ => ("ERR unknown op".into(), Vec::new()),
        }
    }
}

impl Service for KvStore {
    fn execute(&mut self, op: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let Ok(text) = std::str::from_utf8(op) else {
            return (b"ERR not utf-8".to_vec(), Vec::new());
        };
        let (resp, delta) = self.execute_parts(text);
        (resp.into_bytes(), delta)
    }

    fn apply_delta(&mut self, delta: &[u8]) {
        if delta.is_empty() {
            return;
        }
        if let Ok(text) = std::str::from_utf8(delta) {
            let _ = self.execute_parts(text);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.map.len() as u32);
        for (k, v) in &self.map {
            w.put_str(k).put_str(v);
        }
        w.finish()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(snapshot);
        let n = r.u32("kv count")?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = r.str("kv key")?;
            let v = r.str("kv value")?;
            map.insert(k, v);
        }
        r.expect_end()?;
        self.map = map;
        Ok(())
    }

    fn digest(&self) -> Digest {
        Sha256::digest(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_basic_ops() {
        let mut kv = KvStore::new();
        assert_eq!(kv.execute(b"GET a").0, b"NIL");
        assert_eq!(kv.execute(b"PUT a 1").0, b"OK");
        assert_eq!(kv.execute(b"GET a").0, b"VALUE 1");
        assert_eq!(kv.execute(b"PUT a two words").0, b"OK");
        assert_eq!(kv.execute(b"GET a").0, b"VALUE two words");
        assert_eq!(kv.execute(b"LEN").0, b"1");
        assert_eq!(kv.execute(b"DEL a").0, b"OK");
        assert_eq!(kv.execute(b"DEL a").0, b"NIL");
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_malformed_ops_rejected_without_state_change() {
        let mut kv = KvStore::new();
        kv.execute(b"PUT a 1");
        let digest = kv.digest();
        assert!(kv.execute(b"FROB a").0.starts_with(b"ERR"));
        assert!(kv.execute(b"PUT onlykey").0.starts_with(b"ERR"));
        assert!(kv.execute(&[0xff, 0xfe]).0.starts_with(b"ERR"));
        assert_eq!(kv.digest(), digest);
    }

    #[test]
    fn deltas_replay_to_identical_state() {
        let mut primary = KvStore::new();
        let mut backup = KvStore::new();
        for op in [
            b"PUT a 1".as_slice(),
            b"PUT b 2",
            b"GET a",
            b"DEL a",
            b"PUT c 3",
        ] {
            let (_, delta) = primary.execute(op);
            backup.apply_delta(&delta);
        }
        assert_eq!(primary.digest(), backup.digest());
        assert_eq!(backup.get("b"), Some("2"));
        assert_eq!(backup.get("a"), None);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut kv = KvStore::new();
        kv.execute(b"PUT k1 v1");
        kv.execute(b"PUT k2 v2");
        let snap = kv.snapshot();
        let mut other = KvStore::new();
        other.restore(&snap).unwrap();
        assert_eq!(kv, other);
        assert_eq!(kv.digest(), other.digest());
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut kv = KvStore::new();
        kv.execute(b"PUT a 1");
        let mut snap = kv.snapshot();
        snap.truncate(snap.len() - 1);
        let mut other = KvStore::new();
        assert!(other.restore(&snap).is_err());
    }

    #[test]
    fn digest_changes_with_state() {
        let mut kv = KvStore::new();
        let d0 = kv.digest();
        kv.execute(b"PUT a 1");
        let d1 = kv.digest();
        assert_ne!(d0, d1);
        kv.execute(b"DEL a");
        assert_eq!(kv.digest(), d0);
    }
}
