//! Property-based invariants of the simulated network, and the one the
//! kernel-socket transport owes under any interleaving: its books close.

use bytes::Bytes;
use fortress_net::addr::Addr;
use fortress_net::conformance::settle;
use fortress_net::event::{NetEvent, NetStats};
use fortress_net::fault::{FaultPlan, PartitionWindow, SlowLink};
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::sock::SockNet;
use fortress_net::transport::Transport;
use proptest::prelude::*;

/// The simulated network under a fault plan.
fn degraded_net(plan: FaultPlan, stream: u64) -> SimNet {
    SimNet::new(SimConfig { faults: plan, fault_stream: stream })
}

/// Endpoints of a scripted run.
const EPS: usize = 4;

/// One scripted operation `(kind, endpoint, gap)`: kinds 0–4 send from
/// the endpoint to the one `gap` further on, 5 broadcasts to every
/// endpoint, 6 crashes the endpoint, 7 restarts it, 8–9 step the net.
type Op = (u8, usize, usize);

/// A degraded plan: loss, a delay window, duplication, and with and
/// without a partition window and a slow link over the four endpoints.
fn degraded_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0..0.5f64, 0u64..4, 0u64..6, 0.0..0.5f64),
        (any::<bool>(), 1u64..12, 1u64..8, 0u32..5, any::<bool>()),
        (any::<bool>(), 0u32..5, 1u64..6),
    )
        .prop_map(|(link, part, slow)| {
            let (loss, delay_min, jitter, dup) = link;
            let (cut, period, duration, split, oneway) = part;
            FaultPlan::Degraded {
                loss,
                delay_min,
                delay_max: delay_min + jitter,
                dup,
                partition: cut.then_some(PartitionWindow { period, duration, split, oneway }),
                slow: slow.0.then_some(SlowLink { addr: slow.1, extra: slow.2 }),
            }
        })
}

/// Runs `script` on `net` without settling it; every send carries its
/// own index as payload.
fn run_script(net: &mut SimNet, eps: &[Addr], script: &[Op]) {
    for (i, &(kind, a, gap)) in script.iter().enumerate() {
        let from = eps[a];
        let payload = Bytes::copy_from_slice(&(i as u32).to_le_bytes());
        match kind {
            0..=4 => net.send(from, eps[(a + gap) % EPS], payload),
            5 => net.broadcast(from, eps, payload),
            6 => net.crash(from),
            7 => net.restart(from),
            _ => {
                net.step();
            }
        }
    }
}

/// Runs `script`, settles the net and returns what it shows: every
/// endpoint's events in address order, the counters and the clock.
fn play(net: &mut SimNet, eps: &[Addr], script: &[Op]) -> (Vec<NetEvent>, NetStats, u64) {
    run_script(net, eps, script);
    while net.step() {}
    let mut seen = Vec::new();
    for &at in eps {
        net.drain_into(at, &mut seen);
    }
    (seen, net.stats(), net.now())
}

/// A `SimNet` under seeded loss and jitter (which reorders).
fn lossy_net(loss: f64, stream_seed: u64) -> SimNet {
    let plan = FaultPlan::Degraded {
        loss,
        delay_min: 0,
        delay_max: 4,
        dup: 0.0,
        partition: None,
        slow: None,
    };
    degraded_net(plan, stream_seed)
}

/// Every event pending at `at`.
fn drained(net: &mut SimNet, at: Addr) -> Vec<NetEvent> {
    let mut out = Vec::new();
    net.drain_into(at, &mut out);
    out
}

proptest! {
    /// Conservation: every sent message is delivered, dropped or
    /// dead-lettered — none vanish.
    #[test]
    fn message_conservation(
        seed in any::<u64>(),
        loss in 0.0f64..1.0,
        sends in 1usize..100,
    ) {
        let mut net = lossy_net(loss, seed);
        let a = net.register("a");
        let b = net.register("b");
        for i in 0..sends {
            net.send(a, b, Bytes::copy_from_slice(&[i as u8]));
        }
        while net.step() {}
        let s = net.stats();
        prop_assert_eq!(s.sent, sends as u64);
        prop_assert_eq!(s.delivered + s.dropped + s.dead_lettered, s.sent);
        prop_assert_eq!(drained(&mut net, b).len() as u64, s.delivered);
    }

    /// FIFO per sender-receiver pair under fixed latency.
    #[test]
    fn fifo_under_fixed_latency(sends in 1usize..60) {
        let mut net = SimNet::new(SimConfig::default());
        let a = net.register("a");
        let b = net.register("b");
        for i in 0..sends {
            net.send(a, b, Bytes::copy_from_slice(&(i as u32).to_le_bytes()));
        }
        while net.step() {}
        let mut expected = 0u32;
        for ev in drained(&mut net, b) {
            if let NetEvent::Message { payload, .. } = ev {
                let got = u32::from_le_bytes(payload.as_ref().try_into().unwrap());
                prop_assert_eq!(got, expected);
                expected += 1;
            }
        }
        prop_assert_eq!(expected as usize, sends);
    }

    /// Crash notification: after any traffic pattern, crashing an endpoint
    /// notifies exactly the peers it had open connections with.
    #[test]
    fn crash_notifies_each_connected_peer_once(
        talkers in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let mut net = SimNet::new(SimConfig::default());
        let server = net.register("server");
        let peers: Vec<_> = (0..talkers.len())
            .map(|i| net.register(&format!("c{i}")))
            .collect();
        for (i, talks) in talkers.iter().enumerate() {
            if *talks {
                net.send(peers[i], server, Bytes::from_static(b"hi"));
            }
        }
        while net.step() {}
        net.crash(server);
        for (i, talks) in talkers.iter().enumerate() {
            let closures = drained(&mut net, peers[i])
                .iter()
                .filter(|e| e.is_closure())
                .count();
            prop_assert_eq!(closures, usize::from(*talks), "peer {}", i);
        }
    }

    /// Determinism: identical seeds and send sequences give identical
    /// delivery outcomes even with loss and jitter.
    #[test]
    fn runs_are_reproducible(seed in any::<u64>(), sends in 1usize..50) {
        let run = |seed: u64| {
            let mut net = lossy_net(0.3, seed);
            let a = net.register("a");
            let b = net.register("b");
            for i in 0..sends {
                net.send(a, b, Bytes::copy_from_slice(&[i as u8]));
            }
            while net.step() {}
            drained(&mut net, b)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Under any degraded plan, and whatever order sends, broadcasts,
    /// crashes (of receivers with frames held for them included),
    /// restarts and steps come in, quiescence leaves the books closed and
    /// nothing held. A net dirtied mid-run under another plan and stream,
    /// then `trial_reset` and `rearm`ed, replays a fresh one: same
    /// events, counters and clock.
    #[test]
    fn a_degraded_simnet_conserves_and_replays_after_reset(
        plan in degraded_plan(),
        dirty_plan in degraded_plan(),
        streams in (any::<u64>(), any::<u64>()),
        script in proptest::collection::vec((0u8..10, 0usize..EPS, 1usize..EPS), 1..64),
    ) {
        let (stream, dirty_stream) = streams;
        let mut fresh = degraded_net(plan, stream);
        let eps: Vec<Addr> = (0..EPS).map(|i| fresh.register(&format!("e{i}"))).collect();
        let want = play(&mut fresh, &eps, &script);
        let s = want.1;
        prop_assert_eq!(s.delivered + s.dropped + s.dead_lettered, s.sent, "{:?} under {:?}", s, plan);
        prop_assert_eq!(fresh.held_count(), 0);

        let mut reused = degraded_net(dirty_plan, dirty_stream);
        for i in 0..EPS {
            reused.register(&format!("e{i}"));
        }
        run_script(&mut reused, &eps, &script);
        reused.trial_reset(EPS);
        reused.rearm(plan, stream);
        // Not `prop_assert_eq!`: it would print both runs' events.
        prop_assert!(
            play(&mut reused, &eps, &script) == want,
            "replay diverged: {:?} stream {}, dirtied by {:?}, script {:?}",
            plan, stream, dirty_plan, script
        );
    }

    /// Conservation through the kernel: whatever order sends, frames the
    /// receiver refuses, crashes, restarts and reactor passes come in,
    /// quiescence leaves nothing counted in flight. A frame is delivered,
    /// or dead-lettered with the connection or the endpoint it died with.
    #[test]
    fn socknet_books_close_under_any_interleaving(
        ops in proptest::collection::vec((0u8..10, 0u32..4, 1u32..4), 1..48),
    ) {
        // One byte over `SockNet`'s frame cap: the receiver kills the
        // connection at the length prefix.
        let oversized = Bytes::from(vec![0u8; 16 * 1024 * 1024 + 1]);
        let mut net = SockNet::uds();
        let eps: Vec<_> = (0..4).map(|i| net.register(&format!("e{i}"))).collect();
        let mut sends = 0u64;
        for &(op, a, gap) in &ops {
            let (from, to) = (eps[a as usize], eps[((a + gap) % 4) as usize]);
            match op {
                0..=4 => net.send(from, to, Bytes::from_static(b"frame")),
                5 => net.send(from, to, oversized.clone()),
                6 => net.crash(from),
                7 => net.restart(from),
                _ => { net.step(); }
            }
            sends += u64::from(op <= 5);
        }
        settle(&mut net);
        let s = net.stats();
        prop_assert_eq!(s.sent, sends);
        prop_assert_eq!(s.delivered + s.dropped + s.dead_lettered, s.sent, "{:?}: {:?}", ops, s);
        prop_assert_eq!(net.outstanding(), 0);
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Folds one drained event into `h`: its kind, peer, logical time and
/// payload, so any change to what is delivered, to whom, in which order
/// or at which instant moves the digest.
fn digest_event(h: u64, ev: &NetEvent) -> u64 {
    let (kind, at, payload): (u8, u64, &[u8]) = match ev {
        NetEvent::Message { payload, at, .. } => (0, *at, payload.as_ref()),
        NetEvent::ConnectionClosed { at, .. } => (1, *at, &[]),
    };
    let h = fnv(h, &[kind]);
    let h = fnv(h, &ev.peer().raw().to_le_bytes());
    let h = fnv(h, &at.to_le_bytes());
    let h = fnv(h, &(payload.len() as u32).to_le_bytes());
    fnv(h, payload)
}

/// One pinned run: `(plan, script seed, event digest, events drained,
/// sent, delivered, dropped, dead-lettered, closures, clock, crashes
/// struck while the plan held frames)`.
type Pinned = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

/// The plans of the pinned table: clean, frames held and reordered,
/// duplicated and lost, a partition window, and a slow endpoint whose
/// frames are held across the crashes the scripts strike.
fn pinned_plan(name: &str) -> FaultPlan {
    let degraded = |delay_min, delay_max, loss, dup, partition, slow| FaultPlan::Degraded {
        loss,
        delay_min,
        delay_max,
        dup,
        partition,
        slow,
    };
    match name {
        "clean" => FaultPlan::None,
        "hold" => degraded(1, 4, 0.0, 0.0, None, None),
        "dup" => degraded(0, 2, 0.1, 0.4, None, None),
        "partition" => {
            let window = PartitionWindow { period: 7, duration: 3, split: 2, oneway: false };
            degraded(0, 1, 0.0, 0.0, Some(window), None)
        }
        "crash-held" => degraded(2, 5, 0.05, 0.2, None, Some(SlowLink { addr: 1, extra: 3 })),
        other => panic!("no pinned plan {other}"),
    }
}

/// Plays a seeded 400-operation script over five endpoints: sends,
/// broadcasts, crashes, restarts, steps, and drains of one endpoint in
/// the middle of the run; then settles and drains every endpoint.
fn play_pinned(plan: &'static str, seed: u64) -> Pinned {
    const N: usize = 5;
    let mut net = degraded_net(pinned_plan(plan), seed ^ 0x5EED);
    let eps: Vec<Addr> = (0..N).map(|i| net.register(&format!("e{i}"))).collect();
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (mut h, mut events, mut crashes_while_held) = (0xCBF2_9CE4_8422_2325u64, 0u64, 0u64);
    let mut out = Vec::new();
    // Appends to what `out` holds (emptied on some mid-run drains), so
    // both an empty and a non-empty buffer are drained into.
    let mut drain = |net: &mut SimNet, at: Addr, out: &mut Vec<NetEvent>| {
        let start = out.len();
        net.drain_into(at, out);
        for ev in &out[start..] {
            h = digest_event(h, ev);
            events += 1;
        }
    };
    for i in 0..400u32 {
        let r = next();
        let from = eps[(r >> 8) as usize % N];
        let to = eps[(r >> 16) as usize % N];
        let payload = Bytes::copy_from_slice(&i.to_le_bytes()[..1 + (r >> 24) as usize % 4]);
        match r % 16 {
            0..=5 => net.send(from, to, payload),
            6 => net.broadcast(from, &eps, payload),
            7 => {
                crashes_while_held += u64::from(net.held_count() > 0);
                net.crash(from);
            }
            8 => net.restart(from),
            9..=12 => {
                net.step();
            }
            _ => {
                if r >> 63 == 1 {
                    out.clear();
                }
                drain(&mut net, from, &mut out);
            }
        }
    }
    while net.step() {}
    for &at in &eps {
        drain(&mut net, at, &mut out);
    }
    let s = net.stats();
    (
        plan,
        seed,
        h,
        events,
        s.sent,
        s.delivered,
        s.dropped,
        s.dead_lettered,
        s.closures,
        net.now(),
        crashes_while_held,
    )
}

/// The simulated network's delivery, pinned: fixed seeded scripts on the
/// clean plan and on degraded ones, drained mid-run and at the end, must
/// deliver exactly the events (logical times included), counters and
/// clock of this table. A rewrite of the delivery path that moves any
/// event, count or instant fails here by name.
#[test]
fn seeded_scripts_deliver_the_pinned_table() {
    #[rustfmt::skip]
    const PINNED: &[Pinned] = &[
        ("clean", 1, 11810302541803835448, 226, 262, 180, 0, 82, 119, 57, 0),
        ("clean", 2, 1223918652087681202, 155, 226, 88, 0, 138, 167, 39, 0),
        ("clean", 3, 13166259323436425289, 185, 263, 134, 0, 129, 171, 39, 0),
        ("hold", 1, 8641653503752387941, 217, 262, 181, 0, 81, 116, 75, 23),
        ("hold", 2, 2620798293928469283, 164, 226, 92, 0, 134, 170, 48, 28),
        ("hold", 3, 6341888411522165741, 197, 263, 140, 0, 123, 169, 51, 30),
        ("dup", 1, 1793214250763011012, 275, 356, 229, 28, 99, 136, 66, 12),
        ("dup", 2, 6699570747745557171, 186, 308, 115, 19, 174, 205, 43, 18),
        ("dup", 3, 17251390640814197456, 243, 369, 179, 30, 160, 200, 42, 29),
        ("partition", 1, 7346307711622475733, 192, 262, 156, 40, 66, 96, 50, 8),
        ("partition", 2, 11698605232789807790, 124, 226, 75, 47, 104, 128, 36, 12),
        ("partition", 3, 7232120817200062547, 152, 263, 106, 61, 96, 131, 31, 20),
        ("crash-held", 1, 8287151266864986015, 244, 323, 212, 8, 103, 134, 80, 24),
        ("crash-held", 2, 3822426570351060909, 175, 265, 102, 12, 151, 188, 56, 29),
        ("crash-held", 3, 12752127897986951241, 219, 328, 151, 20, 157, 198, 59, 33),
    ];
    let got: Vec<Pinned> = ["clean", "hold", "dup", "partition", "crash-held"]
        .into_iter()
        .flat_map(|plan| [1u64, 2, 3].map(|seed| play_pinned(plan, seed)))
        .collect();
    assert!(
        got.iter().filter(|r| r.0 == "crash-held").all(|r| r.10 > 0),
        "every crash-held script strikes a crash while frames are held"
    );
    if got != PINNED {
        for row in &got {
            eprintln!("        {row:?},");
        }
        panic!("the delivery moved: the rows above are what this build delivers");
    }
}
