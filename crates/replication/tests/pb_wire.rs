//! ROADMAP B's decoder rows for `PbMsg`: one frame of every variant under
//! every truncation and every single-byte change.
//!
//! Whatever the bytes, `PbMsg::decode` either refuses them or returns a
//! message that re-encodes to exactly them; it never panics. It allocates
//! only for what the frame carries: `Heartbeat` and `NewView` are two
//! integers and decode without the heap, and no single allocation of a
//! `StateUpdate` decode is larger than the frame, because each of its
//! string and byte fields is a run of the frame.
//!
//! The allocation counter is per thread: the harness runs tests on
//! concurrent threads, and a test must count only what its own thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fortress_replication::message::PbMsg;

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

/// One message of every variant. The flag says whether the variant
/// carries a string or bytes.
fn every_variant() -> Vec<(PbMsg, bool)> {
    vec![
        (
            PbMsg::StateUpdate {
                view: 1,
                seq: 9,
                request_seq: 5,
                client: "alice".into(),
                response: b"OK".to_vec(),
                delta: b"PUT k v".to_vec(),
            },
            true,
        ),
        (PbMsg::Heartbeat { view: 1, seq: 9 }, false),
        (PbMsg::NewView { view: 2, seq: 9 }, false),
    ]
}

/// The sub-tags of the variants that carry nothing to allocate.
fn bare_subtags() -> Vec<u8> {
    every_variant().into_iter().filter(|(_, carries)| !carries).map(|(msg, _)| msg.encode()[1]).collect()
}

/// Decodes `bytes` and holds the result to "malformed, or re-encodes to
/// `bytes`", and the decode's allocations to the frame: none when its
/// sub-tag names a variant in `bare`, none larger than the frame
/// otherwise. Returns whether the bytes were malformed.
fn malformed_or_faithful(bytes: &[u8], bare: &[u8], what: &str) -> bool {
    ALLOCS.with(|n| n.set(0));
    LARGEST.with(|l| l.set(0));
    let decoded = PbMsg::decode(bytes);
    let (allocs, largest) = (ALLOCS.with(Cell::get), LARGEST.with(Cell::get));
    if bytes.get(1).is_some_and(|sub| bare.contains(sub)) {
        assert_eq!(allocs, 0, "{what}: decoding {bytes:?} allocated");
    }
    assert!(largest <= bytes.len(), "{what}: a {largest}-byte allocation for a {}-byte frame", bytes.len());
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
    assert_eq!(bare.len(), 2);
    for (msg, _) in every_variant() {
        let frame = msg.encode();
        assert!(!malformed_or_faithful(&frame, &bare, &format!("{msg:?}")));
        assert_eq!(PbMsg::decode(&frame).expect("decodes"), msg);
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
        // the two other variants' (and the retired sub-tag 0 with them).
        assert!(malformed >= 255 + 253, "{msg:?}: only {malformed} changes were malformed");
    }
}

/// A length field claiming more bytes than the frame holds is malformed
/// and costs no allocation of that length.
#[test]
fn a_lying_length_allocates_for_the_frame_only() {
    let (msg, _) = every_variant().swap_remove(0);
    let mut frame = msg.encode();
    // Family tag, sub-tag, view, seq, request_seq: the client's length follows.
    let len_at = 2 + 3 * 8;
    frame[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(malformed_or_faithful(&frame, &[], "StateUpdate with a client length of u32::MAX"));
}
