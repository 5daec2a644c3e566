//! The work ledger: what one warm steady request costs, in counts the
//! host's speed cannot move.
//!
//! One literal row per class, S0, S1 and S2: a stack under one closed-loop
//! client with one request in flight and a logical step every 16 requests,
//! measured from request 1,024 to request 16,384 (both a power of two, so
//! every doubling table stands at the same fill at both ends). Per
//! request:
//!
//! * **deliveries:** messages the transport put in an inbox, the step's
//!   heartbeats included;
//! * **pumps:** `Stack::pump` calls until the client settles the request;
//! * **MACs:** HMACs computed, signing and verifying, read from
//!   `fortress_crypto::hmac::macs_computed`;
//! * **allocs:** allocation events at the global allocator, a `realloc`
//!   included;
//! * **live B:** heap bytes the stack and its client keep: what every
//!   at-most-once table costs an answer.
//!
//! Every figure is a count of deterministic work on one thread, so it
//! reads the same on any machine and in debug and release builds. A
//! change that moves a row re-pins it and says why; a row that moves
//! unannounced fails. `cargo test -p fortress-sim --test ledger --
//! --nocapture` prints the table.
//!
//! The counters are per thread, as in `allocs.rs`: the harness runs
//! tests on concurrent threads and allocates on its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fortress_core::client::ProbeClient;
use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_crypto::hmac::macs_computed;
use fortress_net::event::NetEvent;

thread_local! {
    // Const-initialised and without a destructor, so touching them inside
    // the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn live_add(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// Counts allocation events and the bytes this thread holds live, as
// `allocs.rs` does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live_add(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live_add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// The window's first and last request.
const FROM: u64 = 1_024;
const TO: u64 = 16_384;

/// Every counter the ledger reads, at one instant.
struct Counts {
    deliveries: u64,
    pumps: u64,
    macs: u64,
    allocs: u64,
    live: i64,
}

/// A stack of `class` under one probe client, closed loop.
struct ClosedLoop {
    stack: Stack,
    client: ProbeClient,
    events: Vec<NetEvent>,
    issued: u64,
    pumps: u64,
}

impl ClosedLoop {
    fn new(class: SystemClass) -> ClosedLoop {
        let mut stack = Stack::new(StackConfig { class, seed: 7, ..StackConfig::default() }).expect("assembly");
        let client = ProbeClient::attach(&mut stack, "lg0");
        ClosedLoop { stack, client, events: Vec::new(), issued: 0, pumps: 0 }
    }

    /// Issues requests until `request` of them have settled.
    fn run_until(&mut self, request: u64) {
        let ClosedLoop { stack, client, events, issued, pumps } = self;
        while *issued < request {
            let req = client.request(b"PUT k v");
            stack.submit("lg0", &req);
            let settled = (0..8).any(|_| {
                stack.pump();
                *pumps += 1;
                events.clear();
                stack.drain_client_into("lg0", events);
                let mut frames = events.iter().filter_map(|ev| ev.payload());
                frames.any(|f| client.settles(f) == Some(req.seq))
            });
            assert!(settled, "request {} went unanswered", req.seq);
            *issued += 1;
            if issued.is_multiple_of(16) {
                stack.end_step();
            }
        }
    }

    fn counts(&self) -> Counts {
        Counts {
            deliveries: self.stack.net_stats().delivered,
            pumps: self.pumps,
            macs: macs_computed(),
            allocs: ALLOCS.with(Cell::get),
            live: LIVE.with(Cell::get),
        }
    }
}

/// One class's line of the table: each counter's growth per request,
/// to two decimals.
fn measure(class: SystemClass, name: &str) -> String {
    let mut run = ClosedLoop::new(class);
    run.run_until(FROM);
    let before = run.counts();
    run.run_until(TO);
    let after = run.counts();
    let per = |delta: i64| delta as f64 / (TO - FROM) as f64;
    let delta = |f: fn(&Counts) -> u64| per((f(&after) - f(&before)) as i64);
    format!(
        "{name:<6}{:>12.2}{:>8.2}{:>8.2}{:>9.2}{:>10.2}\n",
        delta(|c| c.deliveries),
        delta(|c| c.pumps),
        delta(|c| c.macs),
        delta(|c| c.allocs),
        per(after.live - before.live),
    )
}

/// The pinned ledger, per warm steady request.
const LEDGER: &str = "\
class   deliveries   pumps    MACs   allocs    live B
S0           32.00    1.00    6.00    48.00     21.25
S1            8.03    1.00    4.00    31.01     17.00
S2           32.02    1.00   17.00    45.01     17.00
";

#[test]
fn a_warm_steady_request_costs_the_pinned_ledger() {
    let mut table = format!("{:<6}{:>12}{:>8}{:>8}{:>9}{:>10}\n", "class", "deliveries", "pumps", "MACs", "allocs", "live B");
    for (class, name) in [(SystemClass::S0Smr, "S0"), (SystemClass::S1Pb, "S1"), (SystemClass::S2Fortress, "S2")] {
        table += &measure(class, name);
    }
    println!("per warm steady request, requests {FROM}..{TO}:\n{table}");
    assert_eq!(table, LEDGER, "a ledger row moved");
}
