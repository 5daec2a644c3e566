//! Allocation contracts on the Monte-Carlo hot path, counted at the
//! global allocator.
//!
//! Seven contracts the hot paths are built on:
//!
//! 1. **A quiescent pump is allocation-free.** Once a stack has settled
//!    (no in-flight traffic), `Stack::pump` must not touch the
//!    allocator at all — the scratch buffers, inboxes and the net's
//!    in-flight queue all reuse their capacity (an inbox and the pump's
//!    scratch buffer trade allocations when it is drained).
//! 2. **An arena-reused trial allocates a bounded amount.** With the
//!    trial arena warm, a campaign trial re-keys and rewinds an
//!    existing stack instead of rebuilding it; the per-trial allocation
//!    count must stay under a tight cap (a fresh build alone costs ~100
//!    allocations before the first step runs).
//! 3. **An S0 request costs the same however old the replicas are.** An
//!    SMR replica retains only its in-flight slots, so a late window of
//!    closed-loop requests allocates within 10 % of an early one.
//! 4. **A MAC stays off the heap.** Once a key has been used, verifying
//!    under it allocates nothing, whatever the verdict: a forged tag, a
//!    wrong key id and an unknown principal cost the verifier what an
//!    authentic signature costs. Signing allocates the signature's name
//!    string and nothing else (17 MACs per S2 request).
//! 5. **A benign S2 request allocates at most 70 times**, submit to
//!    acceptance (55.1 measured). A reply is verified, over-signed and
//!    accepted in the frame it arrived in, so what is left is the frames
//!    themselves, the signatures' name strings, the primary's execution
//!    and the one body the client keeps (193 while every hop copied the
//!    reply out of its frame and re-encoded it; 261 while all 29 MACs ran).
//! 6. **What changes nothing allocates nothing.** A reply the proxy drops
//!    (a further copy of an answered request that settles nothing, or a
//!    forgery) and a response to a request the client has accepted cost
//!    no allocation from the delivered frame to the verdict.
//! 7. **A benign S0 request allocates at most 64 times**, submit to
//!    acceptance, over the closed loop of contract 3 (53.0 measured). An
//!    SMR replica reads the request where it lies and copies its
//!    operation once, votes are bits in a map that keeps its node, the
//!    caches are looked up with the borrowed client name, a vote's digest
//!    is decoded in place and a `PUT` to a key the store holds reuses its
//!    strings (111 while a replica owned the request before looking at
//!    it, counted votes in a `HashSet` per slot, built a `(String, u64)`
//!    key per lookup, decoded every digest through a `Vec` and
//!    re-allocated key and value on every `PUT`).
//!
//! The counter is per thread: the harness runs `#[test]`s on concurrent
//! threads and allocates on its own while it reports and spawns them, and
//! a test must count only what its own thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fortress_attack::campaign::StrategyKind;
use fortress_core::client::ProbeClient;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_model::params::Policy;
use fortress_net::event::NetEvent;
use fortress_sim::protocol_mc::{run_trial, ProtocolExperiment};
use fortress_sim::runner::trial_seed;
use fortress_sim::{arena_stats, clear_arena};

thread_local! {
    // Const-initialised and without a destructor, so touching it inside
    // the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// Counts allocations only; frees are pass-through. `realloc` counts as
// an allocation event (capacity growth is exactly what the contracts
// forbid).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn quiescent_pump_is_allocation_free() {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        seed: 7,
        ..StackConfig::default()
    })
    .expect("assembly");
    // Settle: deliver boot-time traffic and let scratch buffers size
    // themselves.
    for _ in 0..16 {
        stack.pump();
    }
    let before = allocs();
    for _ in 0..1_000 {
        stack.pump();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "a quiescent pump step must not allocate ({} allocations over \
         1000 steps)",
        after - before
    );
}

#[test]
fn arena_reused_trials_stay_under_the_allocation_cap() {
    // χ = 2¹² at ω = 8: a few hundred steps per trial, so what a trial
    // allocates while the adversary registers is amortized and the
    // figure is what a *step* costs.
    let s2 = ProtocolExperiment {
        entropy_bits: 12,
        omega: 8.0,
        max_steps: 4_000,
        suspicion: SuspicionPolicy { window: 64, threshold: 9 },
        np: 3,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    };
    let s1 = ProtocolExperiment { class: SystemClass::S1Pb, ..s2 };
    let postures = StrategyKind::ALL
        .into_iter()
        .chain([StrategyKind::OutageStrike])
        .map(|strategy| ProtocolExperiment { strategy, ..s2 })
        .chain([s1]);
    for exp in postures {
        let label = exp.adversary().map_or("1-tier".to_string(), StrategyKind::display_label);
        clear_arena();
        // Warm the arena: the first trial builds the stack shell.
        let _ = run_trial(&exp, trial_seed(42, 0));
        let (hits0, misses) = arena_stats();
        assert!(misses >= 1, "{label}: the cold trial must miss the arena");

        let n = 12u64;
        let before = allocs();
        let mut steps = 0u64;
        for i in 1..=n {
            steps += run_trial(&exp, trial_seed(42, i)).lifetime;
        }
        let after = allocs();
        let (hits1, _) = arena_stats();
        assert_eq!(hits1 - hits0, n, "{label}: every warm trial must reuse the arena shell");
        assert!(steps >= 200 * n, "{label}: {steps} steps over {n} trials is too short to amortize");
        let per_trial = (after - before) as f64 / n as f64;
        let per_step = (after - before) as f64 / steps as f64;
        // Every dispatch path (probe frames, PB heartbeats, replies)
        // encodes into the stack's cycled scratch, sub-inline-cap
        // payloads never hit the heap, the proxy tier borrows forwarded
        // requests straight through under an interned client name, and
        // the adversary engine reuses its frame, request and
        // proxy-address buffers for the whole trial — one cap for every
        // posture (measured 0.25 – 0.80, the same whether or not inboxes
        // trade buffers with the pump's scratch). A fresh build alone
        // costs ~100 allocations, so the cap both bounds regressions and
        // proves the arena is actually reused.
        assert!(
            per_step <= 1.0,
            "{label}: arena-reused trials allocate too much: {per_step:.2} allocs/step \
             ({per_trial:.0} per trial over {n} trials, {steps} steps)"
        );
    }
}

/// An S0 stack under one direct client, closed loop: one request in
/// flight, a logical step every 16 requests.
struct S0ClosedLoop {
    stack: Stack,
    client: ProbeClient,
    events: Vec<NetEvent>,
    issued: u64,
}

impl S0ClosedLoop {
    fn new() -> S0ClosedLoop {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            seed: 7,
            ..StackConfig::default()
        })
        .expect("assembly");
        let client = ProbeClient::attach(&mut stack, "lg0");
        S0ClosedLoop { stack, client, events: Vec::new(), issued: 0 }
    }

    /// Issues requests until `request` of them have settled.
    fn run_until(&mut self, request: u64) {
        let S0ClosedLoop { stack, client, events, issued } = self;
        while *issued < request {
            let req = client.request(b"PUT k v");
            stack.submit("lg0", &req);
            let settled = (0..8).any(|_| {
                stack.pump();
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

    /// Allocations of the `n` requests ending at `request`.
    fn window_ending_at(&mut self, request: u64, n: u64) -> u64 {
        self.run_until(request - n);
        let before = allocs();
        self.run_until(request);
        allocs() - before
    }
}

#[test]
fn s0_request_allocations_do_not_grow_with_replica_age() {
    let mut s0 = S0ClosedLoop::new();
    let young = s0.window_ending_at(1_000, 512);
    let old = s0.window_ending_at(8_000, 512);
    // An SMR replica retains in-flight slots only, so the eight-thousandth
    // request touches the allocator as often as the thousandth (the reply
    // cache grows, by amortized doubling).
    assert!(
        old as f64 <= young as f64 * 1.1,
        "512 requests cost {young} allocations on a 1 k-request-old S0 stack \
         but {old} on an 8 k-request-old one"
    );
}

#[test]
fn a_benign_s0_request_allocates_at_most_64_times() {
    let mut s0 = S0ClosedLoop::new();
    // Warmed: scratch buffers, keys, interned names and every table's
    // first node; a window, so a table doubling is amortized as in a run.
    let n = 256;
    let per_request = s0.window_ending_at(64 + n, n) as f64 / n as f64;
    assert!(per_request <= 64.0, "a benign S0 request allocated {per_request:.1} times");
}

#[test]
fn a_warm_key_macs_without_the_heap() {
    use fortress_crypto::sha256::Digest;
    use fortress_crypto::{KeyAuthority, KeyId, Signature, Signer};
    let authority = KeyAuthority::with_seed(7);
    let signer = Signer::register("server-0", &authority);
    // The 25 bytes of a signed reply, and a message long enough for the
    // inner hash to pad into a second block.
    let messages: [&[u8]; 2] = [&[0x5a; 25], &[0x5a; 120]];
    // Warm both copies of the key: the signer's and the authority's.
    let sigs = messages.map(|m| signer.sign(m));
    assert!(authority.verify("server-0", messages[0], &sigs[0]));

    let before = allocs();
    for _ in 0..100 {
        for (m, sig) in messages.iter().zip(&sigs) {
            assert!(authority.verify("server-0", m, sig));
        }
    }
    assert_eq!(allocs() - before, 0, "verifying under a warm key allocated");

    // A refusal costs what an acceptance costs: nothing.
    let (name, tag) = (|| "server-0".to_owned(), *sigs[0].tag());
    let forged_tag = Signature::from_parts(name(), signer.key_id(), Digest([0; 32]));
    let wrong_key_id = Signature::from_parts(name(), KeyId(signer.key_id().0 ^ 1), tag);
    let before = allocs();
    for _ in 0..200 {
        assert!(!authority.verify("server-0", messages[0], &forged_tag));
        assert!(!authority.verify("server-0", messages[0], &wrong_key_id));
        assert!(!authority.verify("server-9", messages[0], &sigs[0]), "an unknown principal");
    }
    assert_eq!(allocs() - before, 0, "a failing verification allocated");

    let before = allocs();
    let again = messages.map(|m| signer.sign(m));
    let signing = allocs() - before;
    assert_eq!(again, sigs);
    assert_eq!(signing, 2, "a signature allocates its signer's name and nothing else");
}

#[test]
fn a_benign_s2_request_allocates_at_most_70_times() {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        seed: 7,
        ..StackConfig::default()
    })
    .expect("assembly");
    let mut client = ProbeClient::attach(&mut stack, "lg0");
    let mut events = Vec::new();
    let mut request = |stack: &mut Stack<_>| {
        let req = client.request(b"PUT k v");
        stack.submit("lg0", &req);
        stack.pump();
        events.clear();
        stack.drain_client_into("lg0", &mut events);
        let mut frames = events.iter().filter_map(|ev| ev.payload());
        assert!(frames.any(|f| client.settles(f) == Some(req.seq)), "{} unanswered", req.seq);
        // The duplicates from the other two proxies settle the same request.
        assert!(frames.all(|f| client.settles(f) == Some(req.seq)));
    };
    // Warm the scratch buffers, the keys and the interned names.
    for _ in 0..64 {
        request(&mut stack);
    }
    // A window, so that a table doubling is amortized as it is in a run.
    let n = 256;
    let before = allocs();
    for _ in 0..n {
        request(&mut stack);
    }
    let per_request = (allocs() - before) as f64 / n as f64;
    assert!(per_request <= 70.0, "a benign S2 request allocated {per_request:.1} times");
}

#[test]
fn what_changes_nothing_allocates_nothing() {
    use std::sync::Arc;

    use fortress_core::client::FortressClient;
    use fortress_core::messages::ProxyResponse;
    use fortress_core::nameserver::{NameServer, ReplicationType};
    use fortress_core::proxy::Proxy;
    use fortress_core::wire::WireMsg;
    use fortress_crypto::{KeyAuthority, Signature, Signer};
    use fortress_replication::message::{ReplyBody, SignedReply};

    let authority = Arc::new(KeyAuthority::with_seed(7));
    let ns = NameServer::builder().proxy("proxy-0").server("server-0").server("server-1");
    let ns = ns.replication(ReplicationType::PrimaryBackup).build().expect("topology");
    let signer = |name| Signer::register(name, &authority);
    let (server, proxy_signer) = (signer("server-0"), signer("proxy-0"));
    let policy = SuspicionPolicy::default();
    let mut proxy = Proxy::new("proxy-0", proxy_signer.clone(), Arc::clone(&authority), ns.clone(), policy);
    let body = |seq| ReplyBody { request_seq: seq, client: "lg0".into(), body: b"OK".to_vec(), server_index: 0 };
    let authentic = SignedReply::sign(body(1), &server);
    let mut forged = SignedReply::sign(body(2), &server);
    forged.signature = Signature::forged("server-0");
    let (answered, forged) = (authentic.encode(), forged.encode());
    // Requests 1 and 2 are forwarded; server 0's first reply to 1 settles
    // its entry and is over-signed (which warms both keys).
    assert!(proxy.should_forward("lg0", 1) && proxy.should_forward("lg0", 2));
    // Delivery to verdict at the proxy: one decode, one call of the rule.
    let mut deliver = |frame: &[u8]| match WireMsg::decode(frame) {
        WireMsg::SignedReply(reply) => proxy.on_server_reply(0, reply),
        other => panic!("a reply frame decoded as {other:?}"),
    };
    assert!(deliver(&answered).is_some(), "the first answer is over-signed");

    let before = allocs();
    for _ in 0..100 {
        // The primary's reply to the second and third forwarded copy:
        // answered, settles nothing, dropped unverified.
        assert!(deliver(&answered).is_none());
        // Names an outstanding entry, so it is verified, and refused.
        assert!(deliver(&forged).is_none());
    }
    assert_eq!(allocs() - before, 0, "a reply the proxy drops allocated");

    let mut client = ProbeClient::Fortress(FortressClient::new("lg0", Arc::clone(&authority), ns));
    assert_eq!(client.request(b"PUT k v").seq, 1);
    let response = ProxyResponse::over_sign(authentic, &proxy_signer).encode();
    assert_eq!(client.settles(&response), Some(1), "the first response is accepted");
    let before = allocs();
    for _ in 0..100 {
        assert_eq!(client.settles(&response), Some(1));
    }
    assert_eq!(allocs() - before, 0, "a response already accepted allocated");
}

/// Twelve trials of `exp` on a cold arena: one build, eleven rewinds.
fn twelve_trials_build_once(exp: ProtocolExperiment, what: &str) {
    clear_arena();
    for i in 0..12 {
        let _ = run_trial(&exp, trial_seed(43, i));
    }
    assert_eq!(arena_stats(), (11, 1), "{what}: every trial after the first must rewind the shell");
}

#[test]
fn fleet_arena_is_hit_by_sharded_trials() {
    use fortress_attack::shard::ShardPlacement;
    use fortress_sim::fleet_mc::ShardSpec;
    let exp = ProtocolExperiment {
        entropy_bits: 6,
        omega: 8.0,
        max_steps: 80,
        shard: ShardSpec::Sharded {
            shards: 2,
            zipf_s: 1.2,
            placement: ShardPlacement::Concentrate,
            rebalance_at: 0,
        },
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    };
    twelve_trials_build_once(exp, "sharded cell");
}

/// The fault axis lives on the reset contract like every other: a
/// degraded cell's trials rewind one shell instead of building a
/// faulted stack each.
#[test]
fn arena_is_hit_by_degraded_trials() {
    use fortress_core::client::RetryPolicy;
    use fortress_net::fault::FaultPlan;
    use fortress_sim::FaultSpec;
    let exp = ProtocolExperiment {
        entropy_bits: 6,
        omega: 8.0,
        max_steps: 80,
        fault: FaultSpec::Degraded {
            plan: FaultPlan::lossy(0.05),
            retry: RetryPolicy::retrying(8, 2, 2),
        },
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    };
    twelve_trials_build_once(exp, "degraded cell");
}
