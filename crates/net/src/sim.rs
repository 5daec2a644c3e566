//! Deterministic logical-time network simulation.
//!
//! A [`SimNet`] owns every endpoint's inbox and the frames on the wire.
//! Tests and trials drive it single-threadedly through [`Transport`]:
//! `send` now, `step` to deliver what the next instant holds, until
//! `step` reports nothing in flight. Every hop takes one tick, so the wire
//! only ever holds the next instant: a send builds its delivery event
//! there and then, and `step` moves the whole wire into the inboxes in
//! send order. The network is deterministic by construction: delivery
//! order is send order, and the only randomness is the seeded fault
//! stream of the [`FaultPlan`] its [`SimConfig`] carries — loss, jitter,
//! duplication, partitions and a slow endpoint (see [`crate::fault`]).
//! The default configuration is the clean network, which draws nothing.
//!
//! Crash semantics: [`Transport::crash`] discards the endpoint's inbox and
//! in-flight traffic to it, and emits [`NetEvent::ConnectionClosed`] to every
//! peer with an open connection (any peer that exchanged a message with the
//! endpoint since its last restart). [`Transport::restart`] models the forking
//! daemon bringing up a fresh child process: the endpoint is reachable again
//! with a clean connection table.

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::fault::{FaultPlan, Faults};
use crate::transport::Transport;

/// Configuration for a [`SimNet`]: the link faults it injects. The
/// default is the clean network.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SimConfig {
    /// The fault plan every send runs under.
    pub faults: FaultPlan,
    /// Seed of the plan's fault stream (trial drivers fold
    /// [`FAULT_STREAM`](crate::fault::FAULT_STREAM) into the trial seed).
    pub fault_stream: u64,
}

/// A set of peer addresses stored as a bitmask. `insert`/`remove` are
/// single word ops and iteration yields addresses in ascending order
/// without sorting or allocating — the deterministic closure-event order
/// [`SimNet::crash`] needs, on the hot path of every exploit probe.
#[derive(Debug, Default)]
struct ConnSet {
    words: Vec<u64>,
}

impl ConnSet {
    fn insert(&mut self, addr: Addr) {
        let i = addr.raw() as usize;
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    fn remove(&mut self, addr: Addr) {
        let i = addr.raw() as usize;
        if let Some(word) = self.words.get_mut(i / 64) {
            *word &= !(1 << (i % 64));
        }
    }

    /// Zeroes the set, keeping the backing allocation for reuse.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Set members in ascending address order.
    fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(Addr::from_raw((w * 64) as u32 + b))
            })
        })
    }
}

#[derive(Debug, Default)]
struct EndpointState {
    name: String,
    /// Events delivered and not yet drained, in arrival order.
    inbox: Vec<NetEvent>,
    /// Peers with an open connection since the last restart.
    connections: ConnSet,
    crashed: bool,
}

/// The deterministic simulated network. See the [module docs](self).
#[derive(Debug)]
pub struct SimNet {
    /// The hop clock: one tick per delivery instant.
    now: u64,
    /// Endpoint slots. Only the first `live` are registered; slots past
    /// the watermark are kept after [`SimNet::trial_reset`] so their
    /// buffers can be recycled by the next trial's registrations.
    endpoints: Vec<EndpointState>,
    live: usize,
    /// The wire: each frame sent since the last instant, as its receiver
    /// and the [`NetEvent::Message`] it is delivered as. A hop is one tick
    /// and only a delivery moves the clock, so every frame here is due at
    /// the next instant and delivery order is send order.
    in_flight: Vec<(Addr, NetEvent)>,
    stats: NetStats,
    /// The fault plan, its stream, its clock and the messages it holds.
    faults: Faults,
}

impl SimNet {
    /// Creates a network with the given configuration.
    pub fn new(config: SimConfig) -> SimNet {
        SimNet {
            now: 0,
            endpoints: Vec::new(),
            live: 0,
            in_flight: Vec::new(),
            stats: NetStats::default(),
            faults: Faults::new(config.faults, config.fault_stream),
        }
    }

    /// Puts the net under `faults`, its stream at the start of
    /// `fault_stream`. After [`SimNet::trial_reset`] the net is then a
    /// fresh one under that configuration, bit for bit.
    pub fn rearm(&mut self, faults: FaultPlan, fault_stream: u64) {
        self.faults.rearm(faults, fault_stream);
    }

    /// Messages the fault plan currently holds for delayed release.
    pub fn held_count(&self) -> usize {
        self.faults.held_count()
    }

    /// Rewinds the net for the next Monte-Carlo trial, keeping its
    /// buffers: it then behaves **bit-for-bit** like a fresh net under the
    /// plan and stream it holds, with its first `keep_endpoints`
    /// registrations replayed. Later registrations are forgotten; their
    /// slots are recycled by [`Transport::register`] at the same addresses.
    ///
    /// # Panics
    ///
    /// Panics if `keep_endpoints` exceeds the live registration count.
    pub fn trial_reset(&mut self, keep_endpoints: usize) {
        assert!(
            keep_endpoints <= self.live,
            "watermark beyond live endpoints"
        );
        self.now = 0;
        self.in_flight.clear();
        self.stats = NetStats::default();
        for ep in &mut self.endpoints[..self.live] {
            ep.inbox.clear();
            ep.connections.clear();
            ep.crashed = false;
        }
        self.live = keep_endpoints;
        self.faults.reset();
    }

    /// The name an endpoint registered under.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not issued by this network.
    #[cfg(test)]
    fn name(&self, addr: Addr) -> &str {
        &self.endpoints[addr.raw() as usize].name
    }

    /// Advances logical time one tick and delivers everything in flight.
    /// Returns `false` when nothing is.
    fn advance(&mut self) -> bool {
        if self.in_flight.is_empty() {
            return false;
        }
        self.now += 1;
        // Delivery sends nothing, so the wire stays empty while its
        // frames are handed over, and its buffer is put back for reuse.
        let mut wire = std::mem::take(&mut self.in_flight);
        for (to, msg) in wire.drain(..) {
            self.deliver(to, msg);
        }
        self.in_flight = wire;
        true
    }

    /// Puts a message on the wire, one tick from now, or dead-letters it
    /// at a crashed receiver (see [`Transport::send`]).
    #[inline]
    fn hop(&mut self, from: Addr, to: Addr, payload: Bytes) {
        assert!((from.raw() as usize) < self.live, "unknown sender");
        assert!((to.raw() as usize) < self.live, "unknown receiver");
        self.stats.sent += 1;

        if self.endpoints[to.raw() as usize].crashed {
            self.stats.dead_lettered += 1;
            self.push_event(from, NetEvent::ConnectionClosed { peer: to, at: self.now });
            return;
        }
        self.in_flight.push((to, NetEvent::Message { from, payload, at: self.now + 1 }));
    }

    /// A send under a degraded plan: dropped (counted as sent and
    /// dropped), or put on the wire or held, a duplicate first.
    fn send_degraded(&mut self, from: Addr, to: Addr, payload: Bytes) {
        let Some((delay, dup_delay)) = self.faults.admit(from, to) else {
            self.stats.sent += 1;
            self.stats.dropped += 1;
            return;
        };
        for delay in dup_delay.into_iter().chain([delay]) {
            match delay {
                0 => self.hop(from, to, payload.clone()),
                _ => self.faults.hold(from, to, payload.clone(), delay),
            }
        }
    }

    /// Puts `msg`, a [`NetEvent::Message`] built by [`SimNet::hop`], in
    /// `to`'s inbox.
    fn deliver(&mut self, to: Addr, msg: NetEvent) {
        let from = msg.peer();
        let to_state = &mut self.endpoints[to.raw() as usize];
        if to_state.crashed {
            // Crashed while the message was in flight.
            self.stats.dead_lettered += 1;
            self.push_event(from, NetEvent::ConnectionClosed { peer: to, at: self.now });
            return;
        }
        to_state.connections.insert(from);
        to_state.inbox.push(msg);
        self.stats.delivered += 1;
        // The sender also holds an open connection to the receiver now.
        self.endpoints[from.raw() as usize].connections.insert(to);
    }

    /// Pops the next pending event at `addr`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not issued by this network.
    #[cfg(test)]
    fn recv(&mut self, addr: Addr) -> Option<NetEvent> {
        let inbox = &mut self.endpoints[addr.raw() as usize].inbox;
        (!inbox.is_empty()).then(|| inbox.remove(0))
    }

    /// Whether `addr` is currently crashed.
    #[cfg(test)]
    fn is_crashed(&self, addr: Addr) -> bool {
        self.endpoints[addr.raw() as usize].crashed
    }

    fn push_event(&mut self, to: Addr, event: NetEvent) {
        if event.is_closure() {
            self.stats.closures += 1;
        }
        self.endpoints[to.raw() as usize].inbox.push(event);
    }
}

impl Transport for SimNet {
    fn register(&mut self, name: &str) -> Addr {
        let addr = Addr::from_raw(self.live as u32);
        if self.live < self.endpoints.len() {
            // Recycle a slot parked by `trial_reset`: same address, fresh
            // state, no new allocations when the name fits.
            let ep = &mut self.endpoints[self.live];
            ep.name.clear();
            ep.name.push_str(name);
            ep.inbox.clear();
            ep.connections.clear();
            ep.crashed = false;
        } else {
            self.endpoints.push(EndpointState {
                name: name.to_owned(),
                ..EndpointState::default()
            });
        }
        self.live += 1;
        addr
    }

    /// Under the clean plan the message goes on the wire; under a
    /// degraded one the plan drops, delays or duplicates it first. A
    /// message to a crashed endpoint is dead-lettered and the closed
    /// connection reported back to the sender — exactly what a TCP client
    /// of a crashed server would see.
    ///
    /// # Panics
    ///
    /// Panics if either address was not issued by this network.
    // `#[inline]` here and on `drain_into`, the per-frame pair of every
    // pump loop, so the crates that monomorphise `Stack<SimNet>` get the
    // bodies. Measured, not derived: `benchmark/`'s `sim_s0_steady`
    // reads 2-3 % lower without the pair, in 6 of 6 runs.
    #[inline]
    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        if self.faults.is_degraded() {
            return self.send_degraded(from, to, payload);
        }
        self.hop(from, to, payload);
    }

    /// Hands the inbox over: into an empty `out` by swapping buffers, so
    /// no event is moved and the inbox keeps `out`'s old allocation;
    /// after what `out` holds by appending.
    #[inline]
    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        let inbox = &mut self.endpoints[at.raw() as usize].inbox;
        if out.is_empty() {
            std::mem::swap(out, inbox);
        } else {
            out.append(inbox);
        }
    }

    /// In place: no event is moved out of the inbox, it is counted and
    /// cleared.
    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        let inbox = &mut self.endpoints[at.raw() as usize].inbox;
        let n = inbox.iter().filter(|e| e.is_closure()).count() as u64;
        inbox.clear();
        n
    }

    fn has_pending(&self, addr: Addr) -> bool {
        !self.endpoints[addr.raw() as usize].inbox.is_empty()
    }

    /// Delivers everything due at the next logical instant. Under a
    /// degraded plan the fault clock first ticks and every held message
    /// now due goes on the wire; the net reports progress while any is
    /// still held.
    fn step(&mut self) -> bool {
        if !self.faults.is_degraded() {
            return self.advance();
        }
        self.faults.tick();
        let mut released = false;
        while let Some(held) = self.faults.pop_due() {
            // A receiver that crashed while the message was held
            // dead-letters it, as an in-flight crash does.
            self.hop(held.from, held.to, held.payload);
            released = true;
        }
        self.advance() || released || self.faults.held_count() > 0
    }

    /// The inbox at `addr` is lost and every connected peer observes a
    /// [`NetEvent::ConnectionClosed`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not issued by this network.
    fn crash(&mut self, addr: Addr) {
        let idx = addr.raw() as usize;
        if self.endpoints[idx].crashed {
            return;
        }
        self.endpoints[idx].crashed = true;
        self.endpoints[idx].inbox.clear();
        // Steal the connection set so peers can be mutated while iterating.
        // Bit order is ascending — exactly the sorted order the old
        // Vec-collect-and-sort produced — with zero allocation per crash.
        let peers = std::mem::take(&mut self.endpoints[idx].connections);
        for peer in peers.iter() {
            self.push_event(peer, NetEvent::ConnectionClosed { peer: addr, at: self.now });
            // The peer's connection to the crashed node is gone too.
            self.endpoints[peer.raw() as usize].connections.remove(addr);
        }
        let mut peers = peers;
        peers.clear();
        self.endpoints[idx].connections = peers;
    }

    /// A clean connection table (the forking daemon brought up a fresh
    /// child).
    fn restart(&mut self, addr: Addr) {
        let state = &mut self.endpoints[addr.raw() as usize];
        state.crashed = false;
        state.inbox.clear();
        state.connections.clear();
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    fn run_quiet(net: &mut SimNet) {
        while net.step() {}
    }

    fn drained(net: &mut SimNet, at: Addr) -> Vec<NetEvent> {
        let mut out = Vec::new();
        net.drain_into(at, &mut out);
        out
    }

    fn two_nodes() -> (SimNet, Addr, Addr) {
        let mut net = SimNet::new(SimConfig::default());
        let a = net.register("a");
        let s = net.register("s");
        (net, a, s)
    }

    #[test]
    fn basic_delivery() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("hello"));
        assert!(!net.has_pending(s), "not delivered before a step");
        assert!(net.step());
        let ev = net.recv(s).unwrap();
        assert_eq!(ev.peer(), a);
        assert_eq!(ev.payload().unwrap().as_ref(), b"hello");
        assert!(net.recv(s).is_none());
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn fifo_between_pair_with_fixed_latency() {
        let (mut net, a, s) = two_nodes();
        for i in 0..10u8 {
            net.send(a, s, Bytes::copy_from_slice(&[i]));
        }
        run_quiet(&mut net);
        for i in 0..10u8 {
            let ev = net.recv(s).unwrap();
            assert_eq!(ev.payload().unwrap().as_ref(), &[i]);
        }
    }

    #[test]
    fn crash_notifies_connected_peers() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("probe"));
        run_quiet(&mut net);
        net.crash(s);
        let ev = net.recv(a).unwrap();
        assert_eq!(ev, NetEvent::ConnectionClosed { peer: s, at: net.now() });
        assert!(net.is_crashed(s));
        assert_eq!(net.stats().closures, 1);
    }

    #[test]
    fn crash_without_connection_is_silent() {
        let (mut net, a, s) = two_nodes();
        net.crash(s);
        assert!(net.recv(a).is_none(), "no connection, no closure event");
    }

    #[test]
    fn send_to_crashed_endpoint_reports_closure() {
        let (mut net, a, s) = two_nodes();
        net.crash(s);
        net.send(a, s, b("probe"));
        let ev = net.recv(a).unwrap();
        assert!(ev.is_closure());
        assert_eq!(net.stats().dead_lettered, 1);
    }

    #[test]
    fn in_flight_message_to_crashing_endpoint_is_dead_lettered() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("probe"));
        net.crash(s); // crashes before delivery
        run_quiet(&mut net);
        let ev = net.recv(a).unwrap();
        assert!(ev.is_closure());
    }

    #[test]
    fn restart_clears_connections() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("x"));
        run_quiet(&mut net);
        net.crash(s);
        drained(&mut net, a);
        net.restart(s);
        assert!(!net.is_crashed(s));
        // A second crash with no new traffic produces no closure events.
        net.crash(s);
        assert!(net.recv(a).is_none());
    }

    #[test]
    fn double_crash_is_idempotent() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("x"));
        run_quiet(&mut net);
        net.crash(s);
        net.crash(s);
        assert_eq!(drained(&mut net, a).len(), 1);
    }

    #[test]
    fn time_advances_monotonically() {
        let (mut net, a, s) = two_nodes();
        assert_eq!(net.now(), 0);
        net.send(a, s, b("x"));
        net.step();
        let t1 = net.now();
        assert!(t1 > 0);
        net.send(s, a, b("y"));
        net.step();
        assert!(net.now() > t1);
    }

    #[test]
    fn names_are_kept() {
        let (net, a, s) = two_nodes();
        assert_eq!(net.name(a), "a");
        assert_eq!(net.name(s), "s");
    }

    #[test]
    fn advance_on_idle_returns_false() {
        let (mut net, _, _) = two_nodes();
        assert!(!net.step());
    }

    /// Drives one full "trial" on a net: registers a late endpoint (as a
    /// per-trial client would), exchanges traffic, crashes and restarts
    /// with a message still in flight, and returns everything observable.
    fn one_trial(net: &mut SimNet, a: Addr, s: Addr) -> (Vec<NetEvent>, NetStats, u64) {
        let c = net.register("client-0");
        for i in 0..20u8 {
            net.send(a, s, Bytes::copy_from_slice(&[i]));
            net.send(c, s, Bytes::copy_from_slice(&[100 + i]));
        }
        run_quiet(net);
        net.crash(s);
        net.restart(s);
        net.send(a, s, b("again"));
        run_quiet(net);
        let mut seen = Vec::new();
        for at in [s, a, c] {
            net.drain_into(at, &mut seen);
        }
        (seen, net.stats(), net.now())
    }

    #[test]
    fn trial_reset_replays_a_fresh_network_bit_for_bit() {
        let mut fresh = SimNet::new(SimConfig::default());
        let fa = fresh.register("a");
        let fs = fresh.register("s");
        let want = one_trial(&mut fresh, fa, fs);

        // Reused: one network, reset between the trials. The first trial
        // leaves it dirty: a late endpoint, a message in flight to a
        // crashed receiver, an advanced clock and counters.
        let mut net = SimNet::new(SimConfig::default());
        let a = net.register("a");
        let s = net.register("s");
        assert_eq!(one_trial(&mut net, a, s), want);
        net.send(a, s, b("in flight"));
        net.crash(s);
        net.trial_reset(2);
        assert_eq!(net.live, 2);
        assert_eq!(net.name(a), "a");
        assert_eq!(
            one_trial(&mut net, a, s),
            want,
            "reset trial must replay a fresh network exactly"
        );
    }
}
