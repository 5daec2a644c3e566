//! Deterministic link faults for the simulated network.
//!
//! A [`FaultPlan`] — per-link loss, delay, duplication, scheduled
//! partitions and one slow endpoint — is part of a
//! [`SimConfig`](crate::sim::SimConfig): the net applies it to every
//! `send`. Drive loops written against `T: Transport` run unchanged; only
//! the plan decides whether the network is clean or degraded. Every group
//! of every Monte-Carlo trial runs on its own `SimNet`, a clean one under
//! [`FaultPlan::None`], whose sends take the plain path: the fault stream
//! is never drawn, the fault clock never moves, nothing is held.
//!
//! # Determinism contract
//!
//! All fault randomness comes from one private SplitMix64 stream per net,
//! seeded per trial from a dedicated stream salt ([`FAULT_STREAM`]) — the
//! same stream-splitting convention `fortress_sim::outage::OutageDriver`
//! uses for its outage schedule, so fault draws can never perturb the
//! trial's protocol or adversary RNG streams. Every degraded `send`
//! consumes exactly four draws (loss, delay, duplication, duplicate
//! delay) regardless of which faults actually fire, so the stream
//! position is a pure function of the send count, never of prior fault
//! outcomes. Injected drops count in `NetStats` as `sent` and `dropped`.
//!
//! Delayed (and thereby reordered) messages are held in a deterministic
//! [`BinaryHeap`] keyed by `(release, seq)`. Each `step` of a degraded net
//! advances its fault clock — kept beside the hop clock `now` — one tick
//! and puts every held message that has come due on the wire, in key
//! order. `step` keeps returning `true` while messages are held, so pump
//! loops that run the net to quiescence always drain the hold queue.
//!
//! # Reset contract
//!
//! [`SimNet::trial_reset`](crate::sim::SimNet::trial_reset) rewinds the
//! fault state with the rest of the net: held messages are dropped, the
//! fault clock restarts and the stream returns to the start of the seed
//! the net holds. [`SimNet::rearm`](crate::sim::SimNet::rearm) then sets
//! the plan and stream of the next trial. The pair replays a fresh net
//! bit for bit whatever the last trial ran under, which is what lets one
//! arena shell serve clean and degraded cells alike.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;

use crate::addr::Addr;

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
/// `period`-step cycle of the net's fault clock. A symmetric cut drops
/// traffic both ways; a one-way (asymmetric) cut drops only A→B — the
/// degraded-uplink shape real WANs produce. Addresses and clock are the
/// net's own: in a trial, where every fortress group runs on its own net,
/// `split` cuts one group's endpoints (its proxies, then its servers,
/// then its clients, in registration order).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PartitionWindow {
    /// Cycle length in fault-clock steps (0 disables the schedule).
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
    /// Whether the cut is active at fault-clock step `clock`.
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
/// split, `addr` names an endpoint of the one group the net serves.
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

/// The link-fault model a `SimNet` applies: the network-tier half of the
/// sweepable fault axis (`fortress_sim` pairs it with a client retry
/// policy to form the full sweep coordinate). Each trial runs the cell's
/// plan on its own net, with its own clock and its own fault stream.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum FaultPlan {
    /// No faults: the clean network.
    #[default]
    None,
    /// Independently degrade every message.
    Degraded {
        /// Per-message loss probability in `[0, 1]`.
        loss: f64,
        /// Minimum extra hold time in fault-clock steps.
        delay_min: u64,
        /// Maximum extra hold time in fault-clock steps; a jittered
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
                if delay_min > 0 || delay_max > 0 {
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

/// A held (delayed) message awaiting its release step. The derived order
/// leads with `(release, seq)`, and `seq` is unique, so a heap of
/// [`Reverse`]d entries pops the earliest release first, ties in hold
/// order — the deterministic reordering structure.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Held {
    release: u64,
    seq: u64,
    pub(crate) from: Addr,
    pub(crate) to: Addr,
    pub(crate) payload: Bytes,
}

/// A net's fault state: the plan, its stream and clock, and the messages
/// held for delayed release. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Faults {
    plan: FaultPlan,
    /// Retained so [`Faults::reset`] can rewind the stream too.
    stream_seed: u64,
    rng: SplitMix64,
    /// The fault clock: one tick per step of a degraded net.
    clock: u64,
    /// Monotonic tie-break for the hold heap.
    seq: u64,
    held: BinaryHeap<Reverse<Held>>,
}

impl Faults {
    pub(crate) fn new(plan: FaultPlan, stream_seed: u64) -> Faults {
        Faults {
            plan,
            stream_seed,
            rng: SplitMix64::new(stream_seed),
            clock: 0,
            seq: 0,
            held: BinaryHeap::new(),
        }
    }

    /// Puts the state under `plan`, its stream at the start of
    /// `stream_seed`; clock and held messages are [`Faults::reset`]'s.
    pub(crate) fn rearm(&mut self, plan: FaultPlan, stream_seed: u64) {
        self.plan = plan;
        self.stream_seed = stream_seed;
        self.rng = SplitMix64::new(stream_seed);
    }

    /// Drops held messages, restarts the clock and rewinds the stream.
    pub(crate) fn reset(&mut self) {
        self.rng = SplitMix64::new(self.stream_seed);
        self.clock = 0;
        self.seq = 0;
        self.held.clear();
    }

    #[inline]
    pub(crate) fn is_degraded(&self) -> bool {
        matches!(self.plan, FaultPlan::Degraded { .. })
    }

    pub(crate) fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Decides a degraded `from → to` send: `None` when it is dropped,
    /// else its hold time and, when it is duplicated, the duplicate's.
    /// Exactly four draws, in fixed order, whatever fires: the stream
    /// position depends only on the send count. The slow link's penalty
    /// is fixed and keyed by address, never drawn.
    pub(crate) fn admit(&mut self, from: Addr, to: Addr) -> Option<(u64, Option<u64>)> {
        let FaultPlan::Degraded {
            loss,
            delay_min,
            delay_max,
            dup,
            partition,
            slow,
        } = self.plan
        else {
            return Some((0, None));
        };
        let u_loss = SplitMix64::unit(self.rng.next_u64());
        let delay = SplitMix64::in_range(self.rng.next_u64(), delay_min, delay_max);
        let u_dup = SplitMix64::unit(self.rng.next_u64());
        let dup_delay = SplitMix64::in_range(self.rng.next_u64(), delay_min, delay_max);
        let penalty = slow.map_or(0, |s| s.penalty(from, to));

        if partition.is_some_and(|w| w.active(self.clock) && w.cuts(from, to)) || u_loss < loss {
            return None;
        }
        Some((delay + penalty, (u_dup < dup).then_some(dup_delay + penalty)))
    }

    /// Holds a message for `delay` (≥ 1) fault-clock steps.
    pub(crate) fn hold(&mut self, from: Addr, to: Addr, payload: Bytes, delay: u64) {
        let (release, seq) = (self.clock + delay, self.seq);
        self.seq += 1;
        self.held.push(Reverse(Held { release, seq, from, to, payload }));
    }

    pub(crate) fn tick(&mut self) {
        self.clock += 1;
    }

    /// The next held message due at the current fault clock, if any.
    pub(crate) fn pop_due(&mut self) -> Option<Held> {
        if self.held.peek()?.0.release > self.clock {
            return None;
        }
        self.held.pop().map(|Reverse(held)| held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NetEvent, NetStats};
    use crate::sim::{SimConfig, SimNet};
    use crate::transport::Transport;

    impl SimNet {
        /// Messages the fault plan dropped: a `SimNet` drops nothing else.
        fn injected_drops(&self) -> u64 {
            self.stats().dropped
        }
    }

    /// A net under `plan`, its fault stream at `stream`.
    fn faulted(plan: FaultPlan, stream: u64) -> SimNet {
        SimNet::new(SimConfig { faults: plan, fault_stream: stream })
    }

    fn payloads(n: u8) -> Vec<Bytes> {
        (0..n).map(|i| Bytes::copy_from_slice(&[i])).collect()
    }

    fn run_quiet<T: Transport>(net: &mut T) {
        while net.step() {}
    }

    /// Reordering without loss or duplication is a permutation: every
    /// payload sent arrives exactly once.
    #[test]
    fn jittered_delay_is_a_permutation() {
        let mut net = faulted(
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
        let mut net = faulted(FaultPlan::lossy(1.0), 7);
        let a = net.register("a");
        let b = net.register("b");
        for p in payloads(20) {
            net.send(a, b, p);
        }
        run_quiet(&mut net);
        let stats = net.stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 20, "injected drops fold into NetStats");
        assert_eq!(stats.sent, 20, "conservation: sent covers injected drops");
        assert_eq!(net.injected_drops(), 20);
    }

    #[test]
    fn certain_duplication_doubles_delivery() {
        let mut net = faulted(
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
        // Conservation: duplicates count as sends.
        assert_eq!(stats.sent, stats.delivered + stats.dropped + stats.dead_lettered);
    }

    #[test]
    fn fixed_delay_holds_messages_for_the_configured_steps() {
        let mut net = faulted(
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
        // Two steps: still held (release at fault clock 3, then one hop).
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
        let mut net = faulted(
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
            let mut net = faulted(FaultPlan::lossy(0.4), stream_seed);
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

    /// The arena contract: `trial_reset` followed by `rearm` replays a
    /// fresh net (the new plan, a fresh fault stream) bit-for-bit,
    /// whatever the net last ran under — another plan and stream, frames
    /// still held, a clock mid-run.
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
        let drive = |net: &mut SimNet, a: Addr, b: Addr| -> (Vec<NetEvent>, NetStats, u64) {
            for p in payloads(30) {
                net.send(a, b, p);
            }
            run_quiet(net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            (out, net.stats(), net.now())
        };
        let mk = |plan: FaultPlan, stream: u64| {
            let mut net = faulted(plan, stream);
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

        // A degraded net rearmed to the clean plan leaves no trace.
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
        let mut net = faulted(plan_with(Some(SlowLink { addr: 2, extra: 5 })), 31);
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
            let mut net = faulted(
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
