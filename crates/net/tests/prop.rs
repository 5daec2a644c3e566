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
