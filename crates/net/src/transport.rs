//! The transport abstraction both network backends implement.
//!
//! [`Transport`] is the **explicit interface** between protocol drive
//! loops (e.g. `fortress_core::system::Stack`) and the two backends:
//! the deterministic logical-time [`SimNet`](crate::sim::SimNet) and the
//! kernel-socket [`SockNet`](crate::sock::SockNet). The trait is
//! object-safe and deliberately small — endpoints, framed byte delivery,
//! crash/restart with observable connection closure, and counters. A
//! drive loop written against `T: Transport` runs unchanged on the
//! simulator in tests and sweeps and over real sockets in the soak
//! harness and the examples.
//!
//! Hot-path contract:
//!
//! * [`Transport::drain_into`] **appends** into a caller-owned buffer, so
//!   a pump loop reuses its `Vec<NetEvent>` buffers across rounds instead
//!   of collecting a fresh vector per endpoint per round. A backend may
//!   hand its inbox over instead of moving events out of it: the buffer
//!   the caller gets back may be a different allocation (`SimNet` swaps
//!   its inbox into an empty buffer), so a caller keeps the `Vec`, not a
//!   pointer into it.
//! * [`Transport::broadcast`] takes one encoded [`Bytes`] payload and a
//!   pre-built target slice: the payload is encoded once and shared
//!   (cheap `Bytes` clones) across all targets, and the target list can
//!   be cached by the caller instead of re-collected per call.

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};

/// A message transport with crash-observable endpoints. See the
/// [module docs](self) for the contract.
pub trait Transport {
    /// Registers a named endpoint and returns its address.
    fn register(&mut self, name: &str) -> Addr;

    /// Sends one framed payload from `from` to `to`.
    fn send(&mut self, from: Addr, to: Addr, payload: Bytes);

    /// Sends one payload to every target except `from` itself, sharing
    /// the payload buffer across targets (no re-encode, no deep copies).
    fn broadcast(&mut self, from: Addr, targets: &[Addr], payload: Bytes) {
        for &to in targets {
            if to != from {
                self.send(from, to, payload.clone());
            }
        }
    }

    /// Appends every event pending at `at` to `out`, after what `out`
    /// already holds and in arrival order, leaving the inbox empty. The
    /// caller clears and reuses `out` across pump rounds; a backend may
    /// swap its inbox's buffer for an empty `out`, so `out` may come back
    /// as a different allocation.
    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>);

    /// Discards every event pending at `at`, returning how many of them
    /// were [`NetEvent::ConnectionClosed`]. Semantically identical to
    /// draining into a buffer, counting closures and dropping the rest —
    /// which is exactly what the default does — but backends can answer
    /// without materializing (moving) any events, which matters in probe
    /// loops that drain a flood of closure notifications every step.
    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        let mut out = Vec::new();
        self.drain_into(at, &mut out);
        out.iter().filter(|e| e.is_closure()).count() as u64
    }

    /// Whether any event is pending at `addr` right now. Backends that
    /// can answer in O(1) override this so pump loops skip empty
    /// inboxes; the conservative default says `true` (drain to find
    /// out), which is always correct.
    fn has_pending(&self, addr: Addr) -> bool {
        let _ = addr;
        true
    }

    /// Makes delivery progress: advances logical time on the simulator
    /// (returning `true` while traffic is in flight). `SockNet` runs one
    /// readiness pass — waiting, bounded, only for frames it knows are in
    /// the kernel — and returns whether anything arrived, so `true`
    /// means "drain again", never specifically "simulated time moved".
    fn step(&mut self) -> bool {
        false
    }

    /// Crashes the endpoint: its inbox is lost and every connected peer
    /// observes a [`NetEvent::ConnectionClosed`].
    fn crash(&mut self, addr: Addr);

    /// Restarts a crashed endpoint with a clean connection table.
    fn restart(&mut self, addr: Addr);

    /// Transport counters.
    fn stats(&self) -> NetStats;

    /// The transport's logical clock (0 where there is none).
    fn now(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, SimNet};
    use crate::sock::SockNet;

    // The behavioural contract itself (round-trip, crash/restart,
    // conservation, closure-count identity) lives in
    // `crate::conformance` and runs against every backend from
    // `tests/conformance.rs`. This module only pins object safety.

    #[test]
    fn trait_is_object_safe() {
        let mut nets: Vec<Box<dyn Transport>> = vec![
            Box::new(SimNet::new(SimConfig::default())),
            Box::new(SockNet::tcp()),
            Box::new(SockNet::uds()),
        ];
        for net in &mut nets {
            let a = net.register("a");
            let b = net.register("b");
            net.send(a, b, Bytes::from_static(b"x"));
            while net.step() {}
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1);
            assert_eq!(net.stats().delivered, 1);
        }
    }
}
