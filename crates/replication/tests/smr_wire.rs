//! ROADMAP B's decoder rows for `SmrMsg`: one frame of every variant under
//! every truncation and every single-byte change.
//!
//! Whatever the bytes, `SmrMsg::decode` either refuses them or returns a
//! message that re-encodes to exactly them; it never panics. It allocates
//! only for what the frame carries: a vote (`Prepare`, `Commit`) and every
//! other variant without a string, a byte field or a log decodes without
//! the heap, because a digest is read in place, and no single allocation
//! is larger than the frame could fill, because a view-change log is sized
//! by what the rest of the frame can hold and not by its count field.
//!
//! The allocation counter is per thread: the harness runs tests on
//! concurrent threads, and a test must count only what its own thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use fortress_crypto::sha256::Sha256;
use fortress_replication::message::{SmrLogEntry, SmrMsg};

thread_local! {
    // Const-initialised and without a destructor, so touching them inside
    // the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// Counts allocations and remembers the largest; frees are pass-through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// The fewest bytes a log entry takes on the wire: three `u64`s and two
/// length prefixes.
const MIN_WIRE_ENTRY: usize = 3 * 8 + 2 * 4;

fn entry(seq: u64, client: &str, op: &[u8]) -> SmrLogEntry {
    SmrLogEntry { seq, view: 2, request_seq: 40 + seq, client: client.into(), op: op.to_vec() }
}

/// One message of every variant, the log-bearing ones with two entries.
/// The flag says whether the variant carries a string, bytes or a log.
fn every_variant() -> Vec<(SmrMsg, bool)> {
    let digest = Sha256::digest(b"request");
    let log = vec![entry(7, "alice", b"PUT k v"), entry(8, "bob", b"GET k")];
    vec![
        (SmrMsg::PrePrepare { view: 1, seq: 2, request_seq: 5, client: "alice".into(), op: b"GET k".to_vec() }, true),
        (SmrMsg::Prepare { view: 1, seq: 2, digest }, false),
        (SmrMsg::Commit { view: 1, seq: 2, digest }, false),
        (SmrMsg::SnapshotRequest { last_exec: 3 }, false),
        (SmrMsg::SnapshotOffer { seq: 7, digest, snapshot: b"snapshot".to_vec() }, true),
        (SmrMsg::StartViewChange { new_view: 3 }, false),
        (SmrMsg::DoViewChange { new_view: 3, last_normal_view: 2, last_exec: 6, log: log.clone() }, true),
        (SmrMsg::StartView { view: 3, last_exec: 6, log }, true),
    ]
}

/// The sub-tags of the variants that carry nothing to allocate.
fn bare_subtags() -> Vec<u8> {
    every_variant().into_iter().filter(|(_, carries)| !carries).map(|(msg, _)| msg.encode()[1]).collect()
}

/// Decodes `bytes` and holds the result to "malformed, or re-encodes to
/// `bytes`", and the decode's allocations to the frame: none when its
/// sub-tag names a variant in `bare`, none larger than the frame could
/// fill otherwise. Returns whether the bytes were malformed.
fn malformed_or_faithful(bytes: &[u8], bare: &[u8], what: &str) -> bool {
    ALLOCS.with(|n| n.set(0));
    LARGEST.with(|l| l.set(0));
    let decoded = SmrMsg::decode(bytes);
    let (allocs, largest) = (ALLOCS.with(Cell::get), LARGEST.with(Cell::get));
    if bytes.get(1).is_some_and(|sub| bare.contains(sub)) {
        assert_eq!(allocs, 0, "{what}: decoding {bytes:?} allocated");
    }
    // A string or byte field is at most the frame; a log holds at most
    // one entry per `MIN_WIRE_ENTRY` bytes of it.
    let bound = bytes.len().max(bytes.len() / MIN_WIRE_ENTRY * size_of::<SmrLogEntry>());
    assert!(largest <= bound, "{what}: a {largest}-byte allocation for a {}-byte frame", bytes.len());
    match decoded {
        Ok(msg) => {
            assert_eq!(msg.encode(), bytes, "{what}: decoded to {msg:?}");
            false
        }
        Err(_) => true,
    }
}

#[test]
fn every_variant_roundtrips_without_allocating_what_it_does_not_carry() {
    let bare = bare_subtags();
    assert_eq!(bare.len(), 4);
    for (msg, _) in every_variant() {
        let frame = msg.encode();
        assert!(!malformed_or_faithful(&frame, &bare, &format!("{msg:?}")));
        assert_eq!(SmrMsg::decode(&frame).expect("decodes"), msg);
    }
}

#[test]
fn every_truncation_of_every_variant_is_malformed() {
    let bare = bare_subtags();
    for (msg, _) in every_variant() {
        let frame = msg.encode();
        for cut in 0..frame.len() {
            let what = format!("{msg:?} cut at {cut}");
            assert!(malformed_or_faithful(&frame[..cut], &bare, &what), "{what} decoded");
        }
    }
}

#[test]
fn every_changed_byte_of_every_variant_is_malformed_or_itself() {
    let bare = bare_subtags();
    for (msg, _) in every_variant() {
        let frame = msg.encode();
        let mut malformed = 0;
        for at in 0..frame.len() {
            for value in (0..=255u8).filter(|v| *v != frame[at]) {
                let mut changed = frame.clone();
                changed[at] = value;
                let what = format!("{msg:?} with byte {at} = {value}");
                malformed += malformed_or_faithful(&changed, &bare, &what) as usize;
            }
        }
        // The family tag refuses every other value, the sub-tag all but
        // the ten other variants'.
        assert!(malformed >= 255 + 245, "{msg:?}: only {malformed} changes were malformed");
    }
}

/// A count field claiming more entries than the frame holds costs no more
/// than the frame: the log is sized by the bytes that follow the count.
#[test]
fn a_lying_log_count_allocates_for_the_frame_only() {
    let msg = SmrMsg::StartView { view: 3, last_exec: 6, log: vec![entry(7, "c", b"op")] };
    let mut frame = msg.encode();
    // Family tag, sub-tag, view, last_exec: the count follows.
    let count_at = 2 + 8 + 8;
    frame[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(malformed_or_faithful(&frame, &[], "StartView with a count of u32::MAX"));
    assert!(LARGEST.with(Cell::get) <= size_of::<SmrLogEntry>(), "one entry's room at most");
}
