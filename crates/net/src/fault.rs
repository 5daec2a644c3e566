//! Deterministic link-fault injection over any [`Transport`].
//!
//! [`FaultyTransport`] is a decorator: it wraps any backend ([`SimNet`]
//! and [`SockNet`](crate::sock::SockNet) alike) and applies a
//! [`FaultPlan`] — per-link loss, delay, duplication and scheduled
//! partitions — to every `send` before the inner transport sees it.
//! Protocol drive loops written against `T: Transport` run unchanged;
//! only the plan decides whether the network is clean or degraded, and
//! every Monte-Carlo trial runs behind the decorator, a clean one under
//! [`FaultPlan::None`].
//!
//! # Determinism contract
//!
//! All fault randomness comes from one private SplitMix64 stream, seeded
//! per trial from a dedicated stream salt ([`FAULT_STREAM`]) — the same
//! stream-splitting convention `fortress_sim::outage::OutageDriver` uses
//! for its outage schedule, so fault draws can never perturb the trial's
//! protocol or adversary RNG streams. Every degraded `send` consumes
//! exactly four draws (loss, delay, duplication, duplicate delay)
//! regardless of which faults actually fire, so the stream position is a
//! pure function of the send count, never of prior fault outcomes.
//!
//! [`FaultPlan::None`] is a **guaranteed byte-identical passthrough**:
//! every trait method forwards straight to the inner transport, the
//! fault stream is never drawn, and no message is ever held — a stack
//! over `FaultyTransport<SimNet>` with `FaultPlan::None` produces
//! bit-for-bit the events, stats and timing of the bare `SimNet`, which
//! is what keeps every existing golden stable.
//!
//! Delayed (and thereby reordered) messages are held in a deterministic
//! [`BinaryHeap`] keyed by `(release_step, seq)`; each [`Transport::step`]
//! call advances the decorator's own clock one step and releases every
//! held message that has come due, in key order, into the inner
//! transport. `step` keeps returning `true` while messages are held, so
//! pump loops that run the transport to quiescence always drain the
//! hold queue.
//!
//! # Reset contract
//!
//! [`TrialReset::trial_reset`] rewinds decorator **and** inner transport:
//! held frames and the injected-drop count are dropped, the clock restarts
//! and the fault stream returns to the start of the seed the decorator holds.
//! [`FaultyTransport::rearm`] then sets the plan and stream of the next
//! trial. The pair replays a fresh decorator bit for bit whatever the
//! last trial ran under, which is what lets one arena shell serve clean
//! and degraded cells alike.
//!
//! [`SimNet`]: crate::sim::SimNet

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::transport::{Transport, TrialReset};

/// Dedicated per-trial stream salt for the fault plan's SplitMix64
/// stream — the fault-axis sibling of `fortress_sim::outage`'s
/// `OUTAGE_STREAM`. Trial drivers derive the stream seed by folding
/// this salt into the trial seed, so the fault schedule is decorrelated
/// from the trial's protocol and outage streams by construction.
pub const FAULT_STREAM: u64 = 0x0000_FA01_7E57;

/// Plain SplitMix64 — counter-based, four ops per draw, and the same
/// finalizer constants as the workspace's trial seeding, so fault draws
/// inherit the seeding contract's decorrelation properties.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(raw: u64) -> f64 {
        (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]` (inclusive) from one raw draw.
    fn in_range(raw: u64, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + raw % (hi - lo + 1)
    }
}

/// A scheduled partition: a recurring window during which the endpoint
/// set is cut in two along a fixed address boundary.
///
/// Endpoints with raw address `< split` form side A, the rest side B.
/// The cut is active during the first `duration` steps of every
/// `period`-step cycle of the decorator's clock. A symmetric cut drops
/// traffic both ways; a one-way (asymmetric) cut drops only A→B — the
/// degraded-uplink shape real WANs produce. Addresses and clock are the
/// decorated transport's own: in a trial, where every fortress group runs
/// on its own decorator, `split` cuts one group's endpoints (its proxies,
/// then its servers, then its clients, in registration order).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PartitionWindow {
    /// Cycle length in decorator steps (0 disables the schedule).
    pub period: u64,
    /// Steps the cut stays active at the start of each cycle
    /// (`duration >= period` keeps it permanently active).
    pub duration: u64,
    /// Address boundary: raw addresses below this are side A.
    pub split: u32,
    /// Drop only A→B traffic instead of both directions.
    pub oneway: bool,
}

impl PartitionWindow {
    /// Whether the cut is active at decorator step `clock`.
    fn active(&self, clock: u64) -> bool {
        self.period > 0 && self.duration > 0 && clock % self.period < self.duration
    }

    /// Whether a `from → to` message crosses the active cut.
    fn cuts(&self, from: Addr, to: Addr) -> bool {
        let from_a = from.raw() < self.split;
        let to_a = to.raw() < self.split;
        if self.oneway {
            from_a && !to_a
        } else {
            from_a != to_a
        }
    }
}

/// A deterministically slow endpoint: every message into or out of the
/// endpoint with raw address `addr` is held `extra` additional steps on
/// top of whatever jitter the plan draws. The penalty is fixed and keyed
/// purely by address, so it consumes **no RNG draws** — the four-draw
/// stream contract of a degraded `send` is untouched. This is the
/// slow-replica (partial-degradation) failure shape: the node is up and
/// correct, just late to every quorum. Like a [`PartitionWindow`]'s
/// split, `addr` names an endpoint of the one group the decorator serves.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SlowLink {
    /// Raw address of the slow endpoint.
    pub addr: u32,
    /// Extra hold steps applied to every message touching it.
    pub extra: u64,
}

impl SlowLink {
    /// Extra delay this link imposes on a `from → to` message.
    fn penalty(&self, from: Addr, to: Addr) -> u64 {
        if from.raw() == self.addr || to.raw() == self.addr {
            self.extra
        } else {
            0
        }
    }
}

/// The link-fault model a [`FaultyTransport`] applies: the network-tier
/// half of the sweepable fault axis (`fortress_sim` pairs it with a
/// client retry policy to form the full sweep coordinate). Each group of
/// a sharded trial runs the cell's plan on its own decorator, with its
/// own clock and its own fault stream, so no group's schedule depends on
/// a sibling's traffic.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultPlan {
    /// No faults: a guaranteed byte-identical passthrough to the inner
    /// transport (see the [module docs](self) for the contract).
    None,
    /// Independently degrade every message.
    Degraded {
        /// Per-message loss probability in `[0, 1]`.
        loss: f64,
        /// Minimum extra hold time in decorator steps.
        delay_min: u64,
        /// Maximum extra hold time in decorator steps; a jittered
        /// (`delay_max > delay_min`) delay is also the reordering
        /// window, since later sends can draw shorter holds.
        delay_max: u64,
        /// Per-message duplication probability in `[0, 1]` (the
        /// duplicate draws its own independent delay).
        dup: f64,
        /// Scheduled symmetric/asymmetric partition, if any.
        partition: Option<PartitionWindow>,
        /// One deterministically slow endpoint, if any (RNG-free).
        slow: Option<SlowLink>,
    },
}

impl FaultPlan {
    /// A pure-loss plan: every message dropped with probability `loss`,
    /// no delay, duplication or partitions.
    pub fn lossy(loss: f64) -> FaultPlan {
        FaultPlan::Degraded {
            loss,
            delay_min: 0,
            delay_max: 0,
            dup: 0.0,
            partition: None,
            slow: None,
        }
    }

    /// Whether this is the passthrough plan.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultPlan::None)
    }

    /// Stable, comma-free label for reports and golden files.
    pub fn label(&self) -> String {
        match *self {
            FaultPlan::None => "none".to_string(),
            FaultPlan::Degraded {
                loss,
                delay_min,
                delay_max,
                dup,
                partition,
                slow,
            } => {
                let mut parts = vec![format!("loss:{loss}")];
                if delay_max > 0 {
                    parts.push(format!("delay:{delay_min}-{delay_max}"));
                }
                if dup > 0.0 {
                    parts.push(format!("dup:{dup}"));
                }
                if let Some(w) = partition {
                    let arrow = if w.oneway { ">" } else { "|" };
                    parts.push(format!("part:{}/{}{}{}", w.period, w.duration, arrow, w.split));
                }
                if let Some(s) = slow {
                    parts.push(format!("slow:{}x{}", s.addr, s.extra));
                }
                parts.join("+")
            }
        }
    }
}

/// A held (delayed) message awaiting its release step. Ordered by
/// `(release, seq)` **inverted**, so the max-heap [`BinaryHeap`] pops the
/// earliest release first — the deterministic reordering structure.
#[derive(Debug)]
struct Held {
    release: u64,
    seq: u64,
    from: Addr,
    to: Addr,
    payload: Bytes,
}

impl PartialEq for Held {
    fn eq(&self, other: &Held) -> bool {
        (self.release, self.seq) == (other.release, other.seq)
    }
}

impl Eq for Held {}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Held) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Held {
    fn cmp(&self, other: &Held) -> Ordering {
        // Inverted: the heap's max is the earliest (release, seq).
        (other.release, other.seq).cmp(&(self.release, self.seq))
    }
}

/// The fault-injecting decorator. See the [module docs](self).
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// The stream seed the decorator was (re)built with, retained so
    /// [`TrialReset::trial_reset`] can rewind the fault stream too.
    stream_seed: u64,
    rng: SplitMix64,
    /// The decorator's own clock: one step per [`Transport::step`] call.
    clock: u64,
    /// Monotonic tie-break for the hold heap.
    seq: u64,
    held: BinaryHeap<Held>,
    /// Messages this decorator dropped (loss or partition) before the
    /// inner transport saw them — folded into [`NetStats`] by `stats()`.
    injected_drops: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`. `stream_seed` seeds the private fault
    /// stream; trial drivers derive it by folding [`FAULT_STREAM`] into
    /// the trial seed (it is never drawn when `plan` is
    /// [`FaultPlan::None`]).
    pub fn new(inner: T, plan: FaultPlan, stream_seed: u64) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            plan,
            stream_seed,
            rng: SplitMix64::new(stream_seed),
            clock: 0,
            seq: 0,
            held: BinaryHeap::new(),
            injected_drops: 0,
        }
    }

    /// Puts the decorator under `plan` with its fault stream at the start
    /// of `stream_seed`: what a trial arena calls after
    /// [`TrialReset::trial_reset`] when the next trial runs under a
    /// different plan or stream than the last. Together the two calls are
    /// equivalent bit-for-bit to `FaultyTransport::new(fresh_inner, plan,
    /// stream_seed)` with the kept registrations replayed.
    pub fn rearm(&mut self, plan: FaultPlan, stream_seed: u64) {
        self.plan = plan;
        self.stream_seed = stream_seed;
        self.rng = SplitMix64::new(stream_seed);
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Messages currently held for delayed release.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Messages this decorator dropped (loss or partition).
    #[cfg(test)]
    fn injected_drops(&self) -> u64 {
        self.injected_drops
    }

    /// Holds a message until `release`, or forwards it immediately when
    /// the delay already elapsed.
    fn hold_or_send(&mut self, from: Addr, to: Addr, payload: Bytes, delay: u64) {
        if delay == 0 {
            self.inner.send(from, to, payload);
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.held.push(Held {
            release: self.clock + delay,
            seq,
            from,
            to,
            payload,
        });
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn register(&mut self, name: &str) -> Addr {
        self.inner.register(name)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        let FaultPlan::Degraded {
            loss,
            delay_min,
            delay_max,
            dup,
            partition,
            slow,
        } = self.plan
        else {
            return self.inner.send(from, to, payload);
        };
        // Exactly four draws per send, in fixed order, whatever fires:
        // the stream position depends only on the send count. The slow
        // link's penalty is fixed and keyed by address, never drawn.
        let u_loss = SplitMix64::unit(self.rng.next_u64());
        let delay = SplitMix64::in_range(self.rng.next_u64(), delay_min, delay_max);
        let u_dup = SplitMix64::unit(self.rng.next_u64());
        let dup_delay = SplitMix64::in_range(self.rng.next_u64(), delay_min, delay_max);
        let penalty = slow.map_or(0, |s| s.penalty(from, to));

        if partition.is_some_and(|w| w.active(self.clock) && w.cuts(from, to)) {
            self.injected_drops += 1;
            return;
        }
        if u_loss < loss {
            self.injected_drops += 1;
            return;
        }
        if u_dup < dup {
            self.hold_or_send(from, to, payload.clone(), dup_delay + penalty);
        }
        self.hold_or_send(from, to, payload, delay + penalty);
    }

    fn broadcast(&mut self, from: Addr, targets: &[Addr], payload: Bytes) {
        if self.plan.is_none() {
            // Passthrough must preserve the inner backend's own
            // broadcast behavior bit-for-bit.
            return self.inner.broadcast(from, targets, payload);
        }
        for &to in targets {
            if to != from {
                self.send(from, to, payload.clone());
            }
        }
    }

    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        self.inner.drain_into(at, out);
    }

    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        // Held frames live outside the inner inboxes, so delegating is
        // exact: only delivered events can be drained.
        self.inner.drain_closure_count(at)
    }

    fn has_pending(&self, addr: Addr) -> bool {
        // Held (delayed/reordered) frames are not in any inbox until a
        // `step` releases them into the inner transport, so the inner
        // answer is exact.
        self.inner.has_pending(addr)
    }

    fn step(&mut self) -> bool {
        if self.plan.is_none() {
            return self.inner.step();
        }
        self.clock += 1;
        let mut released = false;
        while let Some(h) = self.held.peek() {
            if h.release > self.clock {
                break;
            }
            let h = self.held.pop().expect("peeked entry exists");
            // A receiver that crashed while the message was held is the
            // inner transport's problem (dead-letter / closure), exactly
            // as an in-flight crash is on the bare backend.
            self.inner.send(h.from, h.to, h.payload);
            released = true;
        }
        let inner_progress = self.inner.step();
        inner_progress || released || !self.held.is_empty()
    }

    fn crash(&mut self, addr: Addr) {
        self.inner.crash(addr);
    }

    fn restart(&mut self, addr: Addr) {
        self.inner.restart(addr);
    }

    fn note_malformed(&mut self) {
        self.inner.note_malformed();
    }

    /// Inner counters with the decorator's injected drops folded in:
    /// a decorator-dropped message counts as both `sent` and `dropped`,
    /// so the conservation identity `delivered + dropped + dead_lettered
    /// == sent` keeps holding at quiescence on any backend (duplicates
    /// reach the inner transport as ordinary sends and count there).
    fn stats(&self) -> NetStats {
        let mut stats = self.inner.stats();
        stats.sent += self.injected_drops;
        stats.dropped += self.injected_drops;
        stats
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}

impl<T: Transport + TrialReset> TrialReset for FaultyTransport<T> {
    /// Rewinds decorator *and* inner transport for the next trial: the
    /// inner backend is reset (keeping the first `keep_endpoints`
    /// registrations), held frames and the injected-drop count are dropped,
    /// the decorator's clock restarts and the fault stream returns to the
    /// start of the stream seed the decorator holds. A trial that runs
    /// under another plan or stream follows with
    /// [`FaultyTransport::rearm`].
    fn trial_reset(&mut self, keep_endpoints: usize) {
        self.inner.trial_reset(keep_endpoints);
        self.rng = SplitMix64::new(self.stream_seed);
        self.clock = 0;
        self.seq = 0;
        self.held.clear();
        self.injected_drops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, SimNet};
    use crate::sock::SockNet;

    fn payloads(n: u8) -> Vec<Bytes> {
        (0..n).map(|i| Bytes::copy_from_slice(&[i])).collect()
    }

    fn run_quiet<T: Transport>(net: &mut T) {
        while net.step() {}
    }

    /// The passthrough contract: with `FaultPlan::None` the decorator is
    /// byte-identical to the bare backend on a mixed script of sends,
    /// crashes and drains.
    #[test]
    fn none_plan_is_byte_identical_to_bare_simnet() {
        let script = |net: &mut dyn Transport| -> (Vec<NetEvent>, NetStats, u64) {
            let a = net.register("a");
            let b = net.register("b");
            let c = net.register("c");
            for p in payloads(5) {
                net.send(a, b, p);
            }
            net.broadcast(a, &[a, b, c], Bytes::from_static(b"all"));
            while net.step() {}
            net.crash(c);
            net.send(a, c, Bytes::from_static(b"late"));
            while net.step() {}
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            net.drain_into(a, &mut out);
            (out, net.stats(), net.now())
        };
        let mut bare = SimNet::new(SimConfig::default());
        let mut wrapped = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            FaultPlan::None,
            0xDEAD_BEEF, // stream seed is irrelevant: never drawn
        );
        assert_eq!(script(&mut bare), script(&mut wrapped));
    }

    /// Reordering without loss or duplication is a permutation: every
    /// payload sent arrives exactly once.
    #[test]
    fn jittered_delay_is_a_permutation() {
        let mut net = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            FaultPlan::Degraded {
                loss: 0.0,
                delay_min: 0,
                delay_max: 9,
                dup: 0.0,
                partition: None,
                slow: None,
            },
            0x5EED,
        );
        let a = net.register("a");
        let b = net.register("b");
        let sent = payloads(50);
        for p in &sent {
            net.send(a, b, p.clone());
        }
        run_quiet(&mut net);
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        let mut got: Vec<u8> = out
            .iter()
            .map(|e| e.payload().expect("all messages")[0])
            .collect();
        assert_eq!(got.len(), 50, "no loss when loss = 0");
        got.sort_unstable();
        let want: Vec<u8> = (0..50).collect();
        assert_eq!(got, want, "no duplication when dup = 0: a permutation");
        assert_eq!(net.stats().delivered, 50);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn certain_loss_drops_everything_and_counts_it() {
        let mut net = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            FaultPlan::lossy(1.0),
            7,
        );
        let a = net.register("a");
        let b = net.register("b");
        for p in payloads(20) {
            net.send(a, b, p);
        }
        run_quiet(&mut net);
        let stats = net.stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 20, "decorator drops fold into NetStats");
        assert_eq!(stats.sent, 20, "conservation: sent covers injected drops");
        assert_eq!(net.injected_drops(), 20);
    }

    #[test]
    fn certain_duplication_doubles_delivery() {
        let mut net = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            FaultPlan::Degraded {
                loss: 0.0,
                delay_min: 0,
                delay_max: 0,
                dup: 1.0,
                partition: None,
                slow: None,
            },
            11,
        );
        let a = net.register("a");
        let b = net.register("b");
        for p in payloads(10) {
            net.send(a, b, p);
        }
        run_quiet(&mut net);
        let stats = net.stats();
        assert_eq!(stats.delivered, 20, "every message delivered twice");
        // Conservation: duplicates count as inner sends.
        assert_eq!(stats.sent, stats.delivered + stats.dropped + stats.dead_lettered);
    }

    #[test]
    fn fixed_delay_holds_messages_for_the_configured_steps() {
        let mut net = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            FaultPlan::Degraded {
                loss: 0.0,
                delay_min: 3,
                delay_max: 3,
                dup: 0.0,
                partition: None,
                slow: None,
            },
            13,
        );
        let a = net.register("a");
        let b = net.register("b");
        net.send(a, b, Bytes::from_static(b"x"));
        assert_eq!(net.held_count(), 1);
        // Two steps: still held (release at clock 3, then one inner hop).
        assert!(net.step());
        assert!(net.step());
        assert_eq!(net.held_count(), 1);
        run_quiet(&mut net);
        assert_eq!(net.held_count(), 0);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn partition_window_cuts_by_direction() {
        // Addresses: a = 0 (side A), b = 1 (side B). Window active on
        // clock 0..10 of every 10-step period — i.e. always.
        let window = PartitionWindow {
            period: 10,
            duration: 10,
            split: 1,
            oneway: true,
        };
        let mut net = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            FaultPlan::Degraded {
                loss: 0.0,
                delay_min: 0,
                delay_max: 0,
                dup: 0.0,
                partition: Some(window),
                slow: None,
            },
            17,
        );
        let a = net.register("a");
        let b = net.register("b");
        net.send(a, b, Bytes::from_static(b"cut"));
        net.send(b, a, Bytes::from_static(b"back"));
        run_quiet(&mut net);
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert!(out.is_empty(), "A→B is cut one-way");
        out.clear();
        net.drain_into(a, &mut out);
        assert_eq!(out.len(), 1, "B→A flows through a one-way cut");
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn degraded_runs_are_reproducible_per_stream_seed() {
        let run = |stream_seed: u64| -> (u64, u64) {
            let mut net = FaultyTransport::new(
                SimNet::new(SimConfig::default()),
                FaultPlan::lossy(0.4),
                stream_seed,
            );
            let a = net.register("a");
            let b = net.register("b");
            for p in payloads(100) {
                net.send(a, b, p);
            }
            run_quiet(&mut net);
            (net.stats().delivered, net.stats().dropped)
        };
        assert_eq!(run(1), run(1), "same stream seed, same fault schedule");
        assert_ne!(run(1), run(2), "distinct streams diverge at 40% loss");
    }

    /// The decorator is backend-generic: the same plan degrades the
    /// kernel-socket backend, with drops visible in its stats.
    #[test]
    fn decorator_degrades_socknet_too() {
        let mut net = FaultyTransport::new(SockNet::tcp(), FaultPlan::lossy(1.0), 23);
        let a = net.register("a");
        let b = net.register("b");
        for p in payloads(8) {
            net.send(a, b, p);
        }
        run_quiet(&mut net);
        let stats = net.stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 8);
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert!(out.is_empty());
    }

    /// The decorator's arena contract: `trial_reset` followed by `rearm`
    /// replays a fresh decorator (fresh inner, the new plan, a fresh fault
    /// stream) bit-for-bit, whatever the shell last ran under — another
    /// plan and stream, frames still held, a clock mid-run.
    #[test]
    fn trial_reset_then_rearm_replays_fresh_decorator_bit_for_bit() {
        let plan = FaultPlan::Degraded {
            loss: 0.2,
            delay_min: 0,
            delay_max: 4,
            dup: 0.1,
            partition: None,
            slow: None,
        };
        let drive = |net: &mut FaultyTransport<SimNet>,
                     a: Addr,
                     b: Addr|
         -> (Vec<NetEvent>, NetStats, u64) {
            for p in payloads(30) {
                net.send(a, b, p);
            }
            run_quiet(net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            (out, net.stats(), net.now())
        };
        let mk = |plan: FaultPlan, stream: u64| {
            let mut net = FaultyTransport::new(SimNet::new(SimConfig::default()), plan, stream);
            let a = net.register("a");
            let b = net.register("b");
            (net, a, b)
        };
        let (mut fresh, fa, fb) = mk(plan, 77);
        let want = drive(&mut fresh, fa, fb);
        let (mut clean, ca, cb) = mk(FaultPlan::None, 0);
        let want_clean = drive(&mut clean, ca, cb);

        let slow = FaultPlan::Degraded {
            loss: 0.5,
            delay_min: 6,
            delay_max: 9,
            dup: 0.5,
            partition: None,
            slow: None,
        };
        let (mut reused, ra, rb) = mk(slow, 99);
        for p in payloads(30) {
            reused.send(ra, rb, p); // dirty stream, counters and heap
        }
        reused.step();
        assert!(reused.held_count() > 0, "the dirtying run must leave frames held");
        reused.trial_reset(2);
        reused.rearm(plan, 77);
        assert_eq!((reused.held_count(), reused.injected_drops()), (0, 0));
        assert_eq!(drive(&mut reused, ra, rb), want);

        // `trial_reset` alone rewinds to the plan and stream it holds.
        reused.trial_reset(2);
        assert_eq!(drive(&mut reused, ra, rb), want);

        // A degraded shell rearmed to the passthrough leaves no trace.
        reused.trial_reset(2);
        reused.rearm(FaultPlan::None, 0);
        assert_eq!(drive(&mut reused, ra, rb), want_clean);
    }

    #[test]
    fn labels_are_stable_and_comma_free() {
        assert_eq!(FaultPlan::None.label(), "none");
        assert_eq!(FaultPlan::lossy(0.1).label(), "loss:0.1");
        let full = FaultPlan::Degraded {
            loss: 0.05,
            delay_min: 1,
            delay_max: 4,
            dup: 0.02,
            partition: Some(PartitionWindow {
                period: 40,
                duration: 10,
                split: 3,
                oneway: false,
            }),
            slow: None,
        };
        assert_eq!(full.label(), "loss:0.05+delay:1-4+dup:0.02+part:40/10|3");
        assert!(!full.label().contains(','), "labels live inside CSV cells");
        let slowed = FaultPlan::Degraded {
            loss: 0.0,
            delay_min: 0,
            delay_max: 0,
            dup: 0.0,
            partition: None,
            slow: Some(SlowLink { addr: 2, extra: 6 }),
        };
        assert_eq!(slowed.label(), "loss:0+slow:2x6");
    }

    /// The slow link holds every message touching the slow endpoint for
    /// its fixed penalty — in both directions — while traffic between
    /// fast endpoints flows immediately, and no extra RNG is drawn (the
    /// delivery *schedule* of other links is unchanged vs. no slow link).
    #[test]
    fn slow_link_penalizes_only_its_endpoint_and_draws_no_rng() {
        let plan_with = |slow: Option<SlowLink>| FaultPlan::Degraded {
            loss: 0.0,
            delay_min: 0,
            delay_max: 0,
            dup: 0.0,
            partition: None,
            slow,
        };
        let mut net = FaultyTransport::new(
            SimNet::new(SimConfig::default()),
            plan_with(Some(SlowLink { addr: 2, extra: 5 })),
            31,
        );
        let a = net.register("a"); // raw 0
        let b = net.register("b"); // raw 1
        let c = net.register("c"); // raw 2: the slow replica
        net.send(a, b, Bytes::from_static(b"fast"));
        net.send(a, c, Bytes::from_static(b"to-slow"));
        net.send(c, b, Bytes::from_static(b"from-slow"));
        assert_eq!(net.held_count(), 2, "both slow-touching messages held");
        assert!(net.step());
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert_eq!(out.len(), 1, "fast link delivered in one step");
        run_quiet(&mut net);
        out.clear();
        net.drain_into(c, &mut out);
        assert_eq!(out.len(), 1, "slow inbound arrives after the penalty");
        out.clear();
        net.drain_into(b, &mut out);
        assert_eq!(out.len(), 1, "slow outbound arrives after the penalty");

        // RNG-neutrality: with loss active, the drop schedule on the
        // fast link is bit-identical with and without a slow endpoint.
        let run = |slow: Option<SlowLink>| -> u64 {
            let mut net = FaultyTransport::new(
                SimNet::new(SimConfig::default()),
                match plan_with(slow) {
                    FaultPlan::Degraded { partition, slow, .. } => FaultPlan::Degraded {
                        loss: 0.3,
                        delay_min: 0,
                        delay_max: 0,
                        dup: 0.0,
                        partition,
                        slow,
                    },
                    none => none,
                },
                41,
            );
            let a = net.register("a");
            let b = net.register("b");
            let _c = net.register("c");
            for p in payloads(60) {
                net.send(a, b, p);
            }
            run_quiet(&mut net);
            net.stats().dropped
        };
        assert_eq!(
            run(None),
            run(Some(SlowLink { addr: 2, extra: 9 })),
            "slow link must not consume fault-stream draws"
        );
    }
}
