//! Property-based invariants of the simulated network, and the one the
//! kernel-socket transport owes under any interleaving: its books close.

use bytes::Bytes;
use fortress_net::conformance::settle;
use fortress_net::event::NetEvent;
use fortress_net::fault::{FaultPlan, FaultyTransport};
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::sock::SockNet;
use fortress_net::transport::Transport;
use proptest::prelude::*;

/// A `SimNet` under seeded loss and jitter (which reorders): the
/// decorator is where every fault lives, the bare net has none.
fn lossy_net(loss: f64, stream_seed: u64) -> FaultyTransport<SimNet> {
    let plan = FaultPlan::Degraded {
        loss,
        delay_min: 0,
        delay_max: 4,
        dup: 0.0,
        partition: None,
        slow: None,
    };
    FaultyTransport::new(SimNet::new(SimConfig::default()), plan, stream_seed)
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
        prop_assert_eq!(net.inner().pending(b) as u64, s.delivered);
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
        net.run_until_quiet();
        let mut expected = 0u32;
        for ev in net.drain(b) {
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
        net.run_until_quiet();
        net.crash(server);
        for (i, talks) in talkers.iter().enumerate() {
            let closures = net
                .drain(peers[i])
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
            net.inner_mut().drain(b)
        };
        prop_assert_eq!(run(seed), run(seed));
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
