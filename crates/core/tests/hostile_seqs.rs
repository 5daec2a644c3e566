//! A client that picks its own request seqs cannot make a node keep more
//! than a constant per answer.
//!
//! Every answered request is remembered for the lifetime of the stack: by
//! each replica (the reply it signed) and by the client (the body it
//! accepted); a proxy keeps only the current step's forwards. A benign
//! client numbers its requests 1, 2, 3, …; this one sends `u64::MAX`, `0`,
//! `2^40`, a descending run and seqs a wide gap apart, through a full S2
//! `Stack`.
//! Every one is answered and kept, and the live heap bytes the stack and
//! the client gain stay under [`BOUND`] per answer.
//!
//! The live-byte tally is per thread: the harness runs tests on concurrent
//! threads, and a test must count only what its own thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fortress_core::client::ProbeClient;
use fortress_core::messages::ClientRequest;
use fortress_core::system::{Stack, StackConfig, SystemClass};

thread_local! {
    // Const-initialised and without a destructor, so touching it inside
    // the allocator never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn live_add(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// Adds what this thread allocates and subtracts what it frees.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        live_add(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live_add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Live heap bytes an answered request may leave behind, whatever its seq.
/// A seq below a log's start, past a gap wider than its entries allow,
/// or `u64::MAX` lands in the side `BTreeMap` of each `SeqLog`, whose
/// half-full nodes hold 24 bytes per entry, its key and a boxed body (a
/// non-empty body is a heap block of its own): 203.9 B an answer measured
/// here, against 17.00 B for seqs in order (350.8 B while each proxy kept
/// a lifetime log of the seqs it answered, 354 B while an entry was a
/// 16-byte `(start, len)` slot, 530 B while every reply cache kept a
/// 32-byte tag per answer; the `(client, seq)`-keyed hash tables before
/// the logs read 417 B). `--nocapture` prints the figure.
const BOUND: f64 = 256.0;

/// The edges, a descending run and wide gaps.
fn hostile_seqs() -> Vec<u64> {
    let edges = [u64::MAX, 0, 1 << 40];
    let descending = (1_001..=3_000).rev();
    let gaps = (1..=1_000u64).map(|k| (k << 32) + 7);
    edges.into_iter().chain(descending).chain(gaps).collect()
}

/// Submits `seq` from `lg0` and pumps until its response arrives; returns
/// how many responses to it arrived.
fn request(stack: &mut Stack, client: &mut ProbeClient, seq: u64, sent: &mut u64) -> usize {
    let req = ClientRequest { seq, client: "lg0".into(), op: b"PUT k v".to_vec() };
    stack.submit("lg0", &req);
    let mut settled = 0;
    for _ in 0..8 {
        stack.pump();
        for event in stack.drain_client("lg0") {
            settled += event.payload().is_some_and(|f| client.settles(f) == Some(seq)) as usize;
        }
    }
    *sent += 1;
    if sent.is_multiple_of(16) {
        stack.end_step();
    }
    settled
}

#[test]
fn hostile_seqs_cost_a_bounded_amount_per_answer() {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        seed: 7,
        ..StackConfig::default()
    })
    .expect("assembly");
    let mut client = ProbeClient::attach(&mut stack, "lg0");
    let seqs = hostile_seqs();
    let mut sent = 0;
    // Warm the scratch buffers, the keys and the interned names.
    let warm = 64;
    for &seq in &seqs[..warm] {
        assert_eq!(request(&mut stack, &mut client, seq, &mut sent), 3, "seq {seq}: three proxies answer");
    }
    let before = LIVE.with(Cell::get);
    for &seq in &seqs[warm..] {
        assert_eq!(request(&mut stack, &mut client, seq, &mut sent), 3, "seq {seq}: three proxies answer");
    }
    let per_answer = (LIVE.with(Cell::get) - before) as f64 / (seqs.len() - warm) as f64;
    println!("live heap bytes per hostile-seq answer: {per_answer:.1} (bound {BOUND})");
    assert!(per_answer <= BOUND, "a hostile-seq answer left {per_answer:.1} live heap bytes");

    // Every answer was kept: the client holds each body. (That a replica
    // replays any seq it answered is `fortress-replication`'s
    // `pb::tests::a_replay_holds_for_any_seq`.)
    let ProbeClient::Fortress(fortress) = &client else { panic!("S2 takes a FortressClient") };
    for &seq in &seqs {
        assert_eq!(fortress.accepted(seq), Some(&b"OK"[..]), "seq {seq}");
    }
}
