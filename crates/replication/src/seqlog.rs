//! One client's at-most-once log: request seq → the body bytes kept
//! under it.
//!
//! Every table that remembers an answered `(client, seq)` for the
//! lifetime of a node is one [`SeqLog`] per client: a replica's reply
//! cache, a proxy's answered and logged sets, a client's accepted bodies.
//! None of them forgets, so what matters is what an entry costs.
//!
//! Entries sit in a dense `Vec` from the first seq the log sees. A seq at
//! or past the end of it is appended there, and the seqs it skips become
//! holes: requests the client gave up on, lost across a failover or
//! dropped by a lossy link. A hole is a slot that holds no entry, and a
//! late answer fills it in place. The dense part never holds more holes
//! than entries, so an entry there costs at most two slots. A seq that
//! would break that rule (a far gap), one below the start and `u64::MAX`
//! go to a `BTreeMap` side table instead, and move to the dense part once
//! it reaches them. So a lookup is exact for every `u64`, and no seq a
//! client picks stretches the dense part: an entry costs at most two
//! 16-byte slots in the dense part, or one side-table slot, plus its
//! body. Bodies are appended to one byte buffer per log and a slot holds
//! their `(start, len)`, so an answer costs no allocation of its own and
//! growth is amortized doubling, never a rehash.

use std::collections::BTreeMap;

/// The `start` of a dense slot that holds no entry.
const HOLE: usize = usize::MAX;

/// Where an entry's body lies in the log's byte buffer.
#[derive(Clone, Copy, Debug)]
struct Entry {
    start: usize,
    len: usize,
}

/// Request seq → body for one client; see the [module docs](self).
///
/// # Example
///
/// ```
/// use fortress_replication::seqlog::SeqLog;
///
/// let mut log = SeqLog::default();
/// assert!(log.insert(1, b"OK"));
/// assert!(log.insert(3, b"OK"), "seq 2 is a hole");
/// assert!(log.insert(u64::MAX, b""));
/// assert!(!log.insert(1, b"NO"), "seq 1 was there: overwritten");
/// assert_eq!(log.get(1), Some(&b"NO"[..]));
/// assert!(log.contains(u64::MAX) && !log.contains(2));
/// ```
#[derive(Debug, Default)]
pub struct SeqLog {
    /// The seq of `dense[0]`; meaningless while `dense` is empty.
    first: u64,
    /// The slots for `first..first + dense.len()`, entries and holes.
    dense: Vec<Entry>,
    /// How many slots of `dense` are holes; never more than are entries.
    holes: usize,
    /// Every other entry; no key of it is in the dense range.
    side: BTreeMap<u64, Entry>,
    /// The bodies, end to end.
    bytes: Vec<u8>,
}

impl SeqLog {
    /// Keeps `body` under `seq`, replacing what was there. Returns
    /// whether `seq` was absent, as `HashSet::insert` does.
    pub fn insert(&mut self, seq: u64, body: &[u8]) -> bool {
        let kept = match self.dense_index(seq) {
            Some(i) => Some(&mut self.dense[i]),
            None => self.side.get_mut(&seq),
        };
        if let Some(entry) = kept {
            let fresh = entry.start == HOLE;
            if !fresh && body.len() <= entry.len {
                // Overwritten in place: a same-size answer leaves no dead bytes.
                entry.len = body.len();
                self.bytes[entry.start..entry.start + body.len()].copy_from_slice(body);
            } else {
                (entry.start, entry.len) = append(&mut self.bytes, body);
            }
            self.holes -= usize::from(fresh);
            return fresh;
        }
        if self.dense.is_empty() && seq != u64::MAX {
            self.first = seq;
        }
        let (start, len) = append(&mut self.bytes, body);
        let Some(gap) = self.gap(seq) else {
            self.side.insert(seq, Entry { start, len });
            return true;
        };
        let next = self.next();
        self.dense.resize(self.dense.len() + gap, Entry { start: HOLE, len: 0 });
        self.holes += gap;
        self.dense.push(Entry { start, len });
        // Side entries the dense part now reaches move over: those in the
        // holes just made, then those contiguous past `seq`.
        while let Some(&reached) = self.side.range(next..seq).next().map(|(key, _)| key) {
            let i = (reached - self.first) as usize;
            self.dense[i] = self.side.remove(&reached).expect("a key just read");
            self.holes -= 1;
        }
        while !self.side.is_empty() && self.next() != u64::MAX {
            let Some(entry) = self.side.remove(&self.next()) else { break };
            self.dense.push(entry);
        }
        true
    }

    /// The holes appending `seq` to the dense part opens, if it may go
    /// there: it is at or past the next dense seq, it is not `u64::MAX`,
    /// and the holes would not outnumber the entries.
    fn gap(&self, seq: u64) -> Option<usize> {
        let next = self.next();
        if seq == u64::MAX || seq < next {
            return None;
        }
        // With `seq` appended there are `entries + 1` entries, so there
        // is room for that many holes, less the ones already open.
        let room = (self.dense.len() - self.holes) as u64 + 1 - self.holes as u64;
        (seq - next <= room).then(|| (seq - next) as usize)
    }

    /// The body kept under `seq`.
    pub fn get(&self, seq: u64) -> Option<&[u8]> {
        let entry = match self.dense_index(seq) {
            Some(i) => &self.dense[i],
            None => self.side.get(&seq)?,
        };
        (entry.start != HOLE).then(|| &self.bytes[entry.start..entry.start + entry.len])
    }

    /// Whether `seq` is kept.
    pub fn contains(&self, seq: u64) -> bool {
        match self.dense_index(seq) {
            Some(i) => self.dense[i].start != HOLE,
            None => self.side.contains_key(&seq),
        }
    }

    /// The seq the dense part would append next; `first` itself while
    /// it is empty. Never past `u64::MAX`: that seq is never dense.
    fn next(&self) -> u64 {
        self.first + self.dense.len() as u64
    }

    fn dense_index(&self, seq: u64) -> Option<usize> {
        (seq >= self.first && seq < self.next()).then(|| (seq - self.first) as usize)
    }
}

/// Appends `body` to `bytes` and returns its `(start, len)`.
fn append(bytes: &mut Vec<u8>, body: &[u8]) -> (usize, usize) {
    let start = bytes.len();
    bytes.extend_from_slice(body);
    (start, body.len())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::SeqLog;

    /// The reference: every body, owned.
    type Model = BTreeMap<u64, Vec<u8>>;

    fn agrees(log: &SeqLog, model: &Model, probes: &[u64]) {
        let entries = log.dense.len() - log.holes + log.side.len();
        assert_eq!(entries, model.len(), "entry count");
        for (seq, body) in model {
            assert_eq!(log.get(*seq), Some(&body[..]), "seq {seq}");
        }
        for &seq in probes {
            assert_eq!(log.contains(seq), model.contains_key(&seq), "contains {seq}");
            assert_eq!(log.get(seq), model.get(&seq).map(Vec::as_slice), "get {seq}");
        }
        // No more holes than entries, and every side seq outside the dense
        // range, as is the next one unless it is `u64::MAX`.
        assert!(log.holes <= log.dense.len() - log.holes, "holes outnumber entries");
        assert_eq!(log.holes, log.dense.iter().filter(|e| e.start == super::HOLE).count());
        assert!(log.side.keys().all(|seq| log.dense_index(*seq).is_none()));
        let next = log.next();
        assert!(log.dense.is_empty() || next == u64::MAX || !log.side.contains_key(&next));
    }

    /// A tiny xorshift, so each case is a pure function of its seed.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// The next seq an operation names: in order from a cursor, a step
    /// back, a duplicate of the last, a small gap (which a later step back
    /// fills), a far gap, or one of the edges.
    fn pick(rng: &mut Rng, cursor: &mut u64, last: u64) -> u64 {
        let seq = match rng.next() % 9 {
            0..=2 => cursor.wrapping_add(1),
            3 => cursor.wrapping_sub(rng.next() % 4),
            4 => last,
            5 => cursor.wrapping_add(2 + rng.next() % 3),
            6 => cursor.wrapping_add(2 + rng.next() % (1 << 40)),
            7 => [0, 1, u64::MAX, u64::MAX - 1, 1 << 40][(rng.next() % 5) as usize],
            _ => rng.next(),
        };
        if seq != u64::MAX {
            *cursor = seq;
        }
        seq
    }

    proptest::proptest! {
        /// After every insert the log answers `get` and `contains` exactly
        /// as an owned `BTreeMap` does, for the seqs it holds and for ones
        /// it does not, and `insert` reports absence as `HashSet::insert`
        /// would. Seqs come in order, out of order, duplicated, past small
        /// and far gaps and at `0` and `u64::MAX`; bodies shrink and grow
        /// on overwrite.
        #[test]
        fn a_seqlog_is_its_model(seed in proptest::prelude::any::<u64>(), ops in 1usize..300) {
            let mut rng = Rng(seed | 1);
            let (mut log, mut model) = (SeqLog::default(), Model::new());
            let (mut cursor, mut last) = (rng.next() % 4, 0);
            for op in 0..ops {
                let seq = pick(&mut rng, &mut cursor, last);
                last = seq;
                let body = vec![op as u8; (rng.next() % 6) as usize];
                let fresh = model.insert(seq, body.clone()).is_none();
                assert_eq!(log.insert(seq, &body), fresh, "insert {seq}");
                agrees(&log, &model, &[seq.wrapping_sub(1), seq, seq.wrapping_add(1), 0, u64::MAX]);
            }
        }
    }

    #[test]
    fn no_seq_stretches_the_dense_part() {
        let mut log = SeqLog::default();
        for seq in [5, 6, 1 << 40, u64::MAX, 0, 4, 3, 7, u64::MAX - 1] {
            log.insert(seq, b"");
        }
        // 5, 6 and 7 in order; every other seq is one side entry.
        assert_eq!((log.first, log.dense.len(), log.holes, log.side.len()), (5, 3, 0, 6));
        assert!(log.dense.capacity() <= 4);
    }

    #[test]
    fn answers_that_overtook_each_other_end_up_dense() {
        let mut log = SeqLog::default();
        for seq in [1, 3, 4, 2, 6, 5, 7] {
            log.insert(seq, b"");
        }
        assert_eq!((log.first, log.dense.len(), log.holes, log.side.len()), (1, 7, 0, 0));
    }

    #[test]
    fn a_lost_request_is_a_hole_and_a_late_answer_fills_it() {
        let mut log = SeqLog::default();
        for seq in (1..=10).filter(|seq| ![4, 7, 8].contains(seq)) {
            log.insert(seq, b"OK");
        }
        assert_eq!((log.dense.len(), log.holes, log.side.len()), (10, 3, 0));
        assert!(!log.contains(4) && log.get(8).is_none());
        assert!(log.insert(8, b"late"), "a hole is absent");
        assert_eq!((log.get(8), log.holes), (Some(&b"late"[..]), 2));
    }

    #[test]
    fn holes_never_outnumber_entries() {
        let mut log = SeqLog::default();
        // 2 is a hole; 3, 4 and 5 would make four holes to three entries.
        for seq in [1, 3, 7] {
            log.insert(seq, b"");
        }
        assert_eq!((log.dense.len(), log.holes, log.side.len()), (3, 1, 1));
        // Once there are entries enough, a gap that reaches the side entry
        // takes it into the dense part.
        for seq in [4, 5, 9] {
            log.insert(seq, b"");
        }
        assert_eq!((log.dense.len(), log.holes, log.side.len()), (9, 3, 0));
        assert!(log.contains(7) && !log.contains(8));
        // A far gap still goes to the side table.
        log.insert(40, b"");
        log.insert(10, b"");
        assert_eq!((log.dense.len(), log.holes, log.side.len()), (10, 3, 1));
    }

    #[test]
    fn a_log_that_starts_at_u64_max_stays_exact() {
        let mut log = SeqLog::default();
        assert!(log.insert(u64::MAX, b"max"));
        assert!(log.insert(0, b"zero"));
        assert!(log.insert(1, b""));
        assert_eq!(log.get(u64::MAX), Some(&b"max"[..]));
        assert_eq!(log.get(0), Some(&b"zero"[..]));
        assert_eq!((log.first, log.dense.len(), log.side.len()), (0, 2, 1));
    }

    #[test]
    fn an_overwrite_that_fits_reuses_its_bytes() {
        let mut log = SeqLog::default();
        log.insert(1, b"four");
        log.insert(1, b"two");
        log.insert(1, b"ab");
        assert_eq!(log.bytes.len(), 4, "shrinking overwrites wrote in place");
        log.insert(1, b"longer");
        assert_eq!((log.get(1), log.bytes.len()), (Some(&b"longer"[..]), 10));
    }
}
