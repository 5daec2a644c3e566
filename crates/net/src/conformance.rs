//! The behavioural contract every [`Transport`] backend must satisfy,
//! as a reusable test suite.
//!
//! Two backends implement [`Transport`]; the guarantees drive loops
//! rely on — round-trip delivery, the crash/restart observable, the
//! [`NetStats`](crate::event::NetStats) conservation identity, draining
//! into a buffer that already holds events, and `drain_closure_count`
//! matching the drain-and-filter default bit for bit — are checked
//! here once, generically, instead of re-asserted ad hoc per backend.
//!
//! Each check takes a **factory** so it can build as many fresh
//! instances as it needs; `tests/conformance.rs` instantiates the suite
//! for `SimNet` and both `SockNet` families.
//!
//! The assertions are deliberately *semantic*, not byte-level: a
//! simulated network may surface one closure per send into an outage
//! while a kernel transport surfaces one EOF per dead session, so the
//! suite pins "at least one closure, and the books balance" rather
//! than an exact event count that would overfit one backend.

use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::event::NetEvent;
use crate::transport::Transport;

/// The kernel-socket backend's default settle timeout: a step that
/// blocks this long waited for frames the books still count in flight
/// although none can arrive.
const STALL: Duration = Duration::from_millis(10);

/// Settles a transport: steps until the backend reports no progress.
/// On the simulator this runs logical time to quiescence; on the
/// kernel-socket backend it waits out real delivery latency (bounded
/// by the backend's own settle timeout).
pub fn settle<T: Transport>(net: &mut T) {
    while net.step() {}
}

/// [`settle`], asserting that no step waits out the kernel-socket
/// backend's default settle timeout (10 ms): every frame still counted
/// in flight is one that can arrive.
///
/// # Panics
///
/// Panics, naming `label`, at the first step that took 10 ms or longer.
pub fn settle_promptly<T: Transport>(net: &mut T, label: &str) {
    loop {
        let start = Instant::now();
        let more = net.step();
        let took = start.elapsed();
        assert!(took < STALL, "[{label}] a step waited {took:?}");
        if !more {
            return;
        }
    }
}

/// Runs every conformance check against fresh instances from `mk`.
/// `label` names the backend in assertion messages.
pub fn check_all<T: Transport>(mut mk: impl FnMut() -> T, label: &str) {
    check_round_trip(&mut mk(), label);
    check_crash_restart(&mut mk(), label);
    check_conservation(&mut mk(), label);
    check_crashing_sender(&mut mk(), label);
    check_drain_appends(&mut mk(), label);
    check_drain_closure_count(&mut mk, label);
}

/// Broadcast delivery: every target except the sender receives the
/// payload byte-identically, and the stats agree.
fn check_round_trip<T: Transport>(net: &mut T, label: &str) {
    let a = net.register("a");
    let b = net.register("b");
    let c = net.register("c");
    net.broadcast(a, &[a, b, c], Bytes::from_static(b"ping"));
    settle(net);
    let mut out = Vec::new();
    net.drain_into(b, &mut out);
    net.drain_into(c, &mut out);
    assert_eq!(out.len(), 2, "[{label}] both targets hear a broadcast");
    assert!(
        out.iter()
            .all(|e| e.payload().map(|p| p.as_ref()) == Some(b"ping".as_ref())),
        "[{label}] payloads must arrive byte-identical"
    );
    out.clear();
    net.drain_into(a, &mut out);
    assert!(out.is_empty(), "[{label}] broadcast must skip the sender");
    let st = net.stats();
    assert_eq!(st.sent, 2, "[{label}] broadcast counts one send per target");
    assert_eq!(st.delivered, 2, "[{label}] both sends delivered");
}

/// The crash observable the paper's de-randomization attacks hinge on:
/// a peer that exchanged traffic with a crashed endpoint observes a
/// connection closure; sends into the outage dead-letter and bounce a
/// closure back; a restarted endpoint serves again with a clean table.
fn check_crash_restart<T: Transport>(net: &mut T, label: &str) {
    let attacker = net.register("attacker");
    let server = net.register("server");
    net.send(attacker, server, Bytes::from_static(b"probe"));
    settle(net);
    let mut out = Vec::new();
    net.drain_into(server, &mut out);
    assert_eq!(out.len(), 1, "[{label}] probe reaches the server");

    net.crash(server);
    settle(net);
    out.clear();
    net.drain_into(attacker, &mut out);
    let closures = out.iter().filter(|e| e.is_closure()).count();
    assert!(
        closures >= 1,
        "[{label}] a connected peer must observe the crash as a closure \
         (saw {closures})"
    );
    assert!(
        out.iter().filter(|e| e.is_closure()).all(|e| e.peer() == server),
        "[{label}] the closure names the crashed endpoint"
    );

    // A send into the outage is dead-lettered and bounces a closure.
    let before = net.stats();
    net.send(attacker, server, Bytes::from_static(b"into the void"));
    settle(net);
    let after = net.stats();
    assert_eq!(
        after.dead_lettered,
        before.dead_lettered + 1,
        "[{label}] sends to a crashed endpoint dead-letter"
    );
    out.clear();
    net.drain_into(attacker, &mut out);
    assert!(
        out.iter().any(|e| e.is_closure() && e.peer() == server),
        "[{label}] the dead-lettered sender is told the connection closed"
    );

    // After restart the endpoint serves again, with a clean table.
    net.restart(server);
    net.send(attacker, server, Bytes::from_static(b"after restart"));
    settle(net);
    out.clear();
    net.drain_into(server, &mut out);
    let delivered: Vec<_> = out.iter().filter_map(NetEvent::payload).collect();
    assert_eq!(delivered.len(), 1, "[{label}] a restarted endpoint receives");
    assert_eq!(delivered[0].as_ref(), b"after restart");

    let st = net.stats();
    assert_eq!(
        st.delivered + st.dropped + st.dead_lettered,
        st.sent,
        "[{label}] conservation must hold across crash/restart: {st:?}"
    );
}

/// The books balance at quiescence: every accepted send is delivered,
/// dropped, or dead-lettered — nothing vanishes, even across a crash.
fn check_conservation<T: Transport>(net: &mut T, label: &str) {
    let a = net.register("a");
    let b = net.register("b");
    let c = net.register("c");
    for i in 0..8u32 {
        let to = if i % 2 == 0 { b } else { c };
        net.send(a, to, Bytes::from_static(b"load"));
    }
    settle(net);
    net.crash(b);
    settle(net);
    net.send(a, b, Bytes::from_static(b"lost"));
    net.send(c, a, Bytes::from_static(b"still up"));
    settle(net);
    let st = net.stats();
    assert_eq!(st.sent, 10, "[{label}] every send is counted");
    assert_eq!(
        st.delivered + st.dropped + st.dead_lettered,
        st.sent,
        "[{label}] conservation identity violated at quiescence: {st:?}"
    );
}

/// A sender that crashes with frames still queued — several toward a
/// peer it already reached, and a first one toward another peer, over a
/// connection whose hello has not gone out — leaves books that close,
/// and no step waits on a frame that can no longer arrive.
fn check_crashing_sender<T: Transport>(net: &mut T, label: &str) {
    let sender = net.register("sender");
    let known = net.register("known");
    let fresh = net.register("fresh");
    net.send(sender, known, Bytes::from_static(b"established"));
    settle(net);
    let mut out = Vec::new();
    net.drain_into(known, &mut out);
    for _ in 0..4 {
        net.send(sender, known, Bytes::from_static(b"queued"));
    }
    net.send(sender, fresh, Bytes::from_static(b"first"));
    net.crash(sender);
    settle_promptly(net, label);
    let st = net.stats();
    assert_eq!(st.sent, 6, "[{label}] every send is counted");
    assert_eq!(
        st.delivered + st.dropped + st.dead_lettered,
        st.sent,
        "[{label}] a crashing sender's queued frames are all accounted for: {st:?}"
    );
}

/// `drain_into` keeps what the caller's buffer already holds and appends
/// the inbox after it, in arrival order, leaving the inbox empty; into an
/// empty buffer the inbox arrives whole. An inbox drained once fills and
/// drains again alike.
fn check_drain_appends<T: Transport>(net: &mut T, label: &str) {
    let a = net.register("a");
    let b = net.register("b");
    let c = net.register("c");
    let send = |net: &mut T, to, frames: &[&'static [u8]]| {
        for &frame in frames {
            net.send(a, to, Bytes::from_static(frame));
        }
    };
    let payloads = |out: &[NetEvent]| -> Vec<Vec<u8>> {
        out.iter().filter_map(NetEvent::payload).map(|p| p.to_vec()).collect()
    };
    send(net, b, &[b"b1", b"b2", b"b3"]);
    send(net, c, &[b"c1", b"c2"]);
    settle(net);
    let mut out = Vec::new();
    net.drain_into(b, &mut out);
    net.drain_into(c, &mut out);
    net.drain_into(b, &mut out);
    net.drain_into(c, &mut out);
    // The second pair of drains finds both inboxes empty.
    let want: [&[u8]; 5] = [b"b1", b"b2", b"b3", b"c1", b"c2"];
    assert_eq!(payloads(&out), want, "[{label}] drains append in arrival order");

    send(net, b, &[b"b4"]);
    settle(net);
    net.drain_into(b, &mut out);
    assert_eq!(payloads(&out[5..]), [b"b4"], "[{label}] a drained inbox fills again");
    let mut empty = Vec::new();
    net.drain_into(c, &mut empty);
    assert!(empty.is_empty(), "[{label}] and one drained twice stays empty");
}

/// `drain_closure_count` must agree exactly with the default
/// drain-and-filter path on identically prepared instances — backends
/// that answer without materializing events (O(1) counting) cannot
/// change the answer.
fn check_drain_closure_count<T: Transport>(mk: &mut impl FnMut() -> T, label: &str) {
    // Prepare the same observable state twice: a peer with one pending
    // message, one crash-induced closure, and one dead-letter closure.
    let prepare = |net: &mut T| {
        let a = net.register("a");
        let s = net.register("s");
        net.send(s, a, Bytes::from_static(b"payload"));
        net.send(a, s, Bytes::from_static(b"probe"));
        settle(net);
        let mut sink = Vec::new();
        net.drain_into(s, &mut sink);
        net.crash(s);
        settle(net);
        net.send(a, s, Bytes::from_static(b"bounce"));
        settle(net);
        a
    };

    let mut via_default = mk();
    let a1 = prepare(&mut via_default);
    // The trait's documented default, spelled out.
    let mut out = Vec::new();
    via_default.drain_into(a1, &mut out);
    let expect = out.iter().filter(|e| e.is_closure()).count() as u64;
    assert!(expect >= 1, "[{label}] the prepared state contains closures");

    let mut via_override = mk();
    let a2 = prepare(&mut via_override);
    let got = via_override.drain_closure_count(a2);
    assert_eq!(
        got, expect,
        "[{label}] drain_closure_count must be bit-identical to \
         drain-and-filter"
    );
    // And the inbox really is discarded: a second call answers zero.
    assert_eq!(
        via_override.drain_closure_count(a2),
        0,
        "[{label}] a drained inbox has no closures left"
    );
}
