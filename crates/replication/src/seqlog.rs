//! One client's at-most-once log: request seq → the body bytes kept
//! under it.
//!
//! Every table that remembers an answered `(client, seq)` for the
//! lifetime of a node is one [`SeqLog`] per client: a replica's reply
//! cache and a client's accepted bodies (a proxy keeps one step's state).
//! None of them forgets, so what matters is what an entry costs.
//!
//! The dense part is one byte stream from the first seq the log sees,
//! a record per seq in seq order: the LEB128 varint of the body's length
//! plus one, then the body. A seq at or past the end of it is appended
//! there, and the seqs it skips become holes, each the single byte `0`:
//! requests the client gave up on, lost across a failover or dropped by a
//! lossy link. The stream never holds more holes than entries. An index
//! keeps, per 64 seqs, where the first of their records starts and a mask
//! of the ones that hold an entry, so membership is one bit. The log
//! remembers where the record it wrote last starts (the newest, for seqs
//! in order), so reading that one takes no walk, and any other walks at
//! most 63 records from it or from the start of its group. An entry in
//! order costs its body, one byte of length below 127 body bytes and a
//! quarter byte of index; these are the log's two buffers, which grow by
//! amortized doubling, never a rehash, so an answer costs no allocation
//! of its own.
//!
//! A late answer to a hole, or an overwrite, is written into the stream
//! when its record is among the newest four groups of 64 (the records
//! behind it move) or is as wide as the one there. Everything else goes
//! to a `BTreeMap` side table that owns each body: a seq below the start,
//! one past a gap wider than the entries allow (a far gap), `u64::MAX`,
//! and a late answer or an overwrite of another width further back. A
//! side entry moves into the stream once the stream reaches it. So a
//! lookup is exact for every `u64`, and no seq a client picks stretches
//! the stream or makes one write move more than a bounded part of it.

use std::collections::BTreeMap;

/// Records per index group: one bit each in [`Group::mask`].
const GROUP: u64 = 64;

/// How many of the newest groups take a record of another width into the
/// stream, the records behind it moving: a late answer to a recent hole
/// (a request answered after later ones, as across a view change) or a
/// recent overwrite of another length. One write moves at most the 256
/// records and the three group offsets behind it.
const SPLICE: usize = 4;

/// Where the records of 64 consecutive dense seqs start, and which of
/// them hold an entry.
#[derive(Clone, Copy, Debug)]
struct Group {
    /// The stream offset of the group's first record.
    start: usize,
    /// Bit `i` is set while the group's `i`-th record holds its seq's
    /// entry; clear for a hole, or a record the side table overrides.
    mask: u64,
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
/// assert!(log.insert(u64::MAX, b""), "a side entry");
/// assert!(log.insert(2, b"late"), "a hole is absent");
/// assert!(!log.insert(1, b"NO"), "seq 1 was there: overwritten");
/// assert_eq!((log.get(1), log.get(2)), (Some(&b"NO"[..]), Some(&b"late"[..])));
/// assert!(log.contains(u64::MAX) && !log.contains(4));
/// ```
#[derive(Debug, Default)]
pub struct SeqLog {
    /// The seq of the first record; meaningless while there is none.
    first: u64,
    /// How many records the stream holds, entries and holes.
    len: u64,
    /// The records of `first..first + len`, end to end.
    stream: Vec<u8>,
    /// One per 64 records, in order.
    groups: Vec<Group>,
    /// The record written last, and where it starts.
    finger: (u64, usize),
    /// How many records are holes; never more than are entries.
    holes: u64,
    /// Every entry no record holds.
    side: BTreeMap<u64, Box<[u8]>>,
}

impl SeqLog {
    /// Keeps `body` under `seq`, replacing what was there. Returns
    /// whether `seq` was absent, as `HashSet::insert` does.
    pub fn insert(&mut self, seq: u64, body: &[u8]) -> bool {
        // The common case: the next seq, with no side entry that could
        // be it or follow it.
        if self.side.is_empty() && self.len > 0 && seq == self.next() && seq != u64::MAX {
            self.push(Some(body));
            return true;
        }
        if let Some(kept) = self.side.get_mut(&seq) {
            *kept = body.into();
            return false;
        }
        if let Some(i) = self.index(seq) {
            return self.rewrite(i, seq, body);
        }
        if self.len == 0 && seq != u64::MAX {
            self.first = seq;
        }
        if !self.reaches(seq) {
            self.side.insert(seq, body.into());
            return true;
        }
        // The seqs skipped are holes, but for side entries kept for them;
        // then `seq`, then the side entries contiguous past it.
        while self.next() < seq {
            let skipped = self.side.remove(&self.next());
            self.push(skipped.as_deref());
        }
        self.push(Some(body));
        while !self.side.is_empty() && self.next() != u64::MAX {
            let Some(kept) = self.side.remove(&self.next()) else { break };
            self.push(Some(&kept[..]));
        }
        true
    }

    /// Whether the stream may append `seq`: it is at or past the next
    /// dense seq, it is not `u64::MAX`, and the holes it skips would not
    /// outnumber the entries.
    fn reaches(&self, seq: u64) -> bool {
        let next = self.next();
        // With `seq` appended there are `entries + 1` entries, so there
        // is room for that many holes, less the ones already there.
        let room = self.len - 2 * self.holes + 1;
        seq != u64::MAX && seq >= next && seq - next <= room
    }

    /// Writes `body` over record `i`, which no side entry overrides: into
    /// the stream if the record is in the newest [`SPLICE`] groups or as
    /// wide as the one there, or else to the side table. Whether record
    /// `i` was a hole.
    fn rewrite(&mut self, i: u64, seq: u64, body: &[u8]) -> bool {
        let (group, bit) = ((i / GROUP) as usize, 1 << (i % GROUP));
        // With no side entry over it, a record its bit leaves out is a
        // hole: one byte, which only an empty body fits, so an older late
        // body goes to the side table without a walk.
        let fresh = self.groups[group].mask & bit == 0;
        let near = group + SPLICE >= self.groups.len();
        if near || !fresh || body.is_empty() {
            let at = self.start(i);
            let (header, width) = header(body);
            let (old, new) = (skip(&self.stream, at) - at, width + body.len());
            if new == old {
                self.stream[at..at + width].copy_from_slice(&header[..width]);
                self.stream[at + width..at + new].copy_from_slice(body);
            } else if near {
                self.stream.splice(at..at + old, header[..width].iter().chain(body).copied());
                for later in &mut self.groups[group + 1..] {
                    later.start = later.start - old + new;
                }
            }
            if new == old || near {
                self.groups[group].mask |= bit;
                self.holes -= u64::from(fresh);
                self.finger = (i, at);
                return fresh;
            }
        }
        self.groups[group].mask &= !bit;
        self.side.insert(seq, body.into());
        fresh
    }

    /// Appends the record of seq `next()`: `body`'s, or a hole.
    fn push(&mut self, body: Option<&[u8]>) {
        let i = self.len;
        if i.is_multiple_of(GROUP) {
            self.groups.push(Group { start: self.stream.len(), mask: 0 });
        }
        self.finger = (i, self.stream.len());
        self.len += 1;
        let Some(body) = body else {
            self.stream.push(0);
            self.holes += 1;
            return;
        };
        // Most headers are one byte, pushed as is: copying one out of
        // the array took as long as the rest of an append.
        if body.len() < 0x7f {
            self.stream.push(body.len() as u8 + 1);
        } else {
            let (header, width) = header(body);
            self.stream.extend_from_slice(&header[..width]);
        }
        self.stream.extend_from_slice(body);
        self.groups.last_mut().expect("a group per 64 records").mask |= 1 << (i % GROUP);
    }

    /// The body kept under `seq`.
    pub fn get(&self, seq: u64) -> Option<&[u8]> {
        match self.entry(seq) {
            Some(i) => Some(body(&self.stream, self.start(i))),
            None => self.side.get(&seq).map(|body| &body[..]),
        }
    }

    /// Whether `seq` is kept.
    pub fn contains(&self, seq: u64) -> bool {
        self.entry(seq).is_some() || self.side.contains_key(&seq)
    }

    /// The seq the stream would append next; `first` itself while it is
    /// empty. Never past `u64::MAX`: that seq is never dense.
    fn next(&self) -> u64 {
        self.first + self.len
    }

    /// The record of `seq`, if the stream has one.
    fn index(&self, seq: u64) -> Option<u64> {
        seq.checked_sub(self.first).filter(|&i| i < self.len)
    }

    /// The record of `seq`, if it holds `seq`'s entry: one mask bit.
    fn entry(&self, seq: u64) -> Option<u64> {
        let i = self.index(seq)?;
        (self.groups[(i / GROUP) as usize].mask >> (i % GROUP) & 1 == 1).then_some(i)
    }

    /// Where record `i` starts: a walk of at most 63 records, from the
    /// record written last if it is in the same group and not past `i`
    /// (none for it), or else from the start of the group.
    fn start(&self, i: u64) -> usize {
        let (from, at) = match self.finger {
            (last, at) if last <= i && last / GROUP == i / GROUP => (last, at),
            _ => (i - i % GROUP, self.groups[(i / GROUP) as usize].start),
        };
        (from..i).fold(at, |at, _| skip(&self.stream, at))
    }
}

/// The record header for `body`: the LEB128 varint of its length plus
/// one, and how many bytes of the array it takes.
fn header(body: &[u8]) -> ([u8; 10], usize) {
    let (mut bytes, mut width) = ([0; 10], 0);
    let mut value = body.len() as u64 + 1;
    while value >= 0x80 {
        bytes[width] = value as u8 | 0x80;
        value >>= 7;
        width += 1;
    }
    bytes[width] = value as u8;
    (bytes, width + 1)
}

/// The record at `at`: where its body starts, and its varint (`0` for a
/// hole, the body's length plus one for an entry).
fn read(stream: &[u8], mut at: usize) -> (usize, usize) {
    let (mut value, mut shift) = (0, 0);
    loop {
        let byte = stream[at];
        at += 1;
        value |= usize::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return (at, value);
        }
        shift += 7;
    }
}

/// Where the record after the one at `at` starts.
fn skip(stream: &[u8], at: usize) -> usize {
    let (start, value) = read(stream, at);
    start + value.saturating_sub(1)
}

/// The body of the entry whose record starts at `at`.
fn body(stream: &[u8], at: usize) -> &[u8] {
    let (start, value) = read(stream, at);
    &stream[start..start + value - 1]
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::{SeqLog, GROUP};

    /// The reference: every body, owned.
    type Model = BTreeMap<u64, Vec<u8>>;

    fn agrees(log: &SeqLog, model: &Model, probes: &[u64]) {
        let masked: u64 = log.groups.iter().map(|g| u64::from(g.mask.count_ones())).sum();
        assert_eq!(masked as usize + log.side.len(), model.len(), "entry count");
        for (seq, body) in model {
            assert_eq!(log.get(*seq), Some(&body[..]), "seq {seq}");
        }
        for &seq in probes {
            assert_eq!(log.contains(seq), model.contains_key(&seq), "contains {seq}");
            assert_eq!(log.get(seq), model.get(&seq).map(Vec::as_slice), "get {seq}");
        }
        laid_out(log);
    }

    /// Walks the whole stream and holds the index to it: a group per 64
    /// records at the right offsets, the record written last where the log
    /// says, the hole count, no more holes than entries, every record an
    /// entry, a hole or one a side entry overrides (and a masked one only
    /// an entry), and the next seq outside the side table unless it is
    /// `u64::MAX`.
    fn laid_out(log: &SeqLog) {
        let (mut at, mut holes) = (0, 0);
        for i in 0..log.len {
            let group = log.groups[(i / GROUP) as usize];
            if i % GROUP == 0 {
                assert_eq!(group.start, at, "group {}", i / GROUP);
            }
            if i == log.finger.0 {
                assert_eq!(log.finger.1, at, "the record written last");
            }
            let masked = group.mask >> (i % GROUP) & 1 == 1;
            let seq = log.first + i;
            assert!(!(masked && log.side.contains_key(&seq)), "seq {seq} is masked and a side entry");
            holes += u64::from(log.stream[at] == 0);
            assert!(!masked || log.stream[at] != 0, "seq {seq} is masked and a hole");
            assert!(masked || log.stream[at] == 0 || log.side.contains_key(&seq), "seq {seq} is lost");
            at = super::skip(&log.stream, at);
        }
        assert_eq!(at, log.stream.len(), "the stream ends with its last record");
        assert_eq!(log.groups.len() as u64, log.len.div_ceil(GROUP));
        assert_eq!(log.holes, holes);
        assert!(log.holes <= log.len - log.holes, "holes outnumber entries");
        let next = log.next();
        assert!(log.len == 0 || next == u64::MAX || !log.side.contains_key(&next));
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
        /// and far gaps and at `0` and `u64::MAX`; bodies shrink, grow and
        /// keep their length on overwrite.
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

    /// The layout's edges against the model: every position of a group and
    /// across group boundaries, each body length where the varint widens,
    /// overwrites of the same, a shorter and a longer length and late fills
    /// of holes, inside the newest [`SPLICE`](super::SPLICE) groups and
    /// before them, `u64::MAX` and seqs below the start.
    #[test]
    fn every_edge_of_the_layout_is_exact() {
        let (mut log, mut model) = (SeqLog::default(), Model::new());
        let probes: Vec<u64> = (0..=700).chain([u64::MAX, u64::MAX - 1]).collect();
        let mut put = |log: &mut SeqLog, seq: u64, body: Vec<u8>| {
            let fresh = model.insert(seq, body.clone()).is_none();
            assert_eq!(log.insert(seq, &body), fresh, "insert {seq}");
            agrees(log, &model, &probes);
        };
        // Ten groups and a part, every fourth seq a hole, at first = 10:
        // seqs 10..=650, where 73 (a hole) and 74 straddle the first
        // boundary.
        for seq in (10..=650).filter(|seq| seq % 4 != 1) {
            put(&mut log, seq, vec![seq as u8; (seq % 7) as usize]);
        }
        assert_eq!((log.first, log.len, log.groups.len(), log.side.len()), (10, 641, 11, 0));
        // Where the varint widens: 1 byte up to 126 body bytes, 2 up to
        // 16,382, 3 from 16,383.
        let widths = [(0, 1), (1, 1), (126, 1), (127, 2), (128, 2), (16_383, 3), (16_384, 3)];
        for (k, (len, width)) in widths.into_iter().enumerate() {
            let before = log.stream.len();
            put(&mut log, 651 + k as u64, vec![k as u8 + 1; len]);
            assert_eq!(log.stream.len() - before, width + len, "a {len}-byte body");
        }
        // Records from seq 458 on (group 7 of 0..=10) are in the newest
        // four groups.
        assert_eq!((log.len, log.groups.len()), (648, 11));
        // The same length stays in place: in the first group, at a
        // boundary, in the newest groups and the newest record.
        let stream = log.stream.len();
        for seq in [10, 72, 74, 600, 657] {
            let len = log.get(seq).expect("kept").len();
            put(&mut log, seq, vec![0xee; len]);
        }
        assert_eq!((log.stream.len(), log.side.len()), (stream, 0), "same length: in place");
        // Another length goes to the side table before the newest groups,
        // and a further overwrite stays there; in them, into the stream.
        put(&mut log, 12, vec![1]);
        put(&mut log, 137, vec![2; 9]);
        put(&mut log, 137, vec![3; 2]);
        assert_eq!((log.stream.len(), log.side.len()), (stream, 2), "older: to the side");
        put(&mut log, 600, vec![4; 9]);
        put(&mut log, 656, vec![5; 200]);
        put(&mut log, 657, Vec::new());
        assert_eq!(log.side.len(), 2, "newer: into the stream");
        assert_eq!(log.stream.len(), stream + 4 - 16_184 - 16_386);
        // A late empty answer fills its hole in place anywhere; a late body
        // goes to the side table before the newest groups (17, and 73 and
        // 457 at a boundary) and into the stream in them (461 at their
        // first record, then an ascending run as after a view change).
        let holes = log.holes;
        for seq in [13, 605] {
            put(&mut log, seq, Vec::new());
        }
        for seq in [17, 73, 457, 461, 601, 609, 613, 617, 645] {
            put(&mut log, seq, vec![6; 3]);
        }
        assert_eq!((log.holes, log.side.len()), (holes - 8, 5));
        // Seqs below the start and `u64::MAX` are side entries.
        for seq in [u64::MAX, 0, 9, u64::MAX - 1] {
            put(&mut log, seq, vec![7; 2]);
        }
        assert_eq!((log.first, log.len, log.side.len()), (10, 648, 9));
    }

    #[test]
    fn no_seq_stretches_the_dense_part() {
        let mut log = SeqLog::default();
        for seq in [5, 6, 1 << 40, u64::MAX, 0, 4, 3, 7, u64::MAX - 1] {
            log.insert(seq, b"");
        }
        // 5, 6 and 7 in order; every other seq is one side entry.
        assert_eq!((log.first, log.len, log.holes, log.side.len()), (5, 3, 0, 6));
        assert_eq!((log.stream.len(), log.groups.len()), (3, 1));
    }

    #[test]
    fn answers_that_overtook_each_other_end_up_dense() {
        let mut log = SeqLog::default();
        for seq in [1, 3, 4, 2, 6, 5, 7] {
            log.insert(seq, b"");
        }
        assert_eq!((log.first, log.len, log.holes, log.side.len()), (1, 7, 0, 0));
    }

    #[test]
    fn a_lost_request_is_a_hole_and_a_late_answer_fills_it() {
        let mut log = SeqLog::default();
        for seq in (1..=10).filter(|seq| ![4, 7, 8].contains(seq)) {
            log.insert(seq, b"OK");
        }
        assert_eq!((log.len, log.holes, log.side.len()), (10, 3, 0));
        assert!(!log.contains(4) && log.get(8).is_none());
        // A recent hole takes a late body into the stream, and an empty one
        // in place.
        assert!(log.insert(8, b"late"), "a hole is absent");
        assert!(log.insert(7, b""));
        assert_eq!((log.get(8), log.get(7), log.holes, log.side.len()), (Some(&b"late"[..]), Some(&b""[..]), 1, 0));
        assert_eq!(log.get(9), Some(&b"OK"[..]), "the records behind it moved");
    }

    #[test]
    fn holes_never_outnumber_entries() {
        let mut log = SeqLog::default();
        // 2 is a hole; 3, 4 and 5 would make four holes to three entries.
        for seq in [1, 3, 7] {
            log.insert(seq, b"");
        }
        assert_eq!((log.len, log.holes, log.side.len()), (3, 1, 1));
        // Once there are entries enough, a gap that reaches the side entry
        // takes it into the stream.
        for seq in [4, 5, 9] {
            log.insert(seq, b"");
        }
        assert_eq!((log.len, log.holes, log.side.len()), (9, 3, 0));
        assert!(log.contains(7) && !log.contains(8));
        // A far gap still goes to the side table.
        log.insert(40, b"");
        log.insert(10, b"");
        assert_eq!((log.len, log.holes, log.side.len()), (10, 3, 1));
    }

    #[test]
    fn a_log_that_starts_at_u64_max_stays_exact() {
        let mut log = SeqLog::default();
        assert!(log.insert(u64::MAX, b"max"));
        assert!(log.insert(0, b"zero"));
        assert!(log.insert(1, b""));
        assert_eq!(log.get(u64::MAX), Some(&b"max"[..]));
        assert_eq!(log.get(0), Some(&b"zero"[..]));
        assert_eq!((log.first, log.len, log.side.len()), (0, 2, 1));
    }

    #[test]
    fn an_overwrite_that_fits_reuses_its_bytes() {
        let mut log = SeqLog::default();
        log.insert(1, b"four");
        log.insert(1, b"FOUR");
        assert_eq!((log.get(1), log.stream.len()), (Some(&b"FOUR"[..]), 5), "the same length: in place");
        log.insert(1, b"ab");
        assert_eq!((log.get(1), log.stream.len()), (Some(&b"ab"[..]), 3), "a recent one: resized");
        log.insert(1, b"longer");
        assert_eq!((log.get(1), log.stream.len(), log.side.len()), (Some(&b"longer"[..]), 7, 0));
    }
}
