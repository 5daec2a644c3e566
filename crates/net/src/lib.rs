//! Network substrate for the FORTRESS protocol stack: two transports
//! behind one explicit interface, and the wire-tag registry every message
//! family encodes against.
//!
//! # The [`Transport`] interface
//!
//! Protocol drive loops are written against the object-safe
//! [`transport::Transport`] trait — endpoints ([`Transport::register`]),
//! framed delivery ([`Transport::send`] /
//! [`Transport::broadcast`]), batched inbox draining
//! ([`Transport::drain_into`], which appends into a caller-reused
//! buffer), crash semantics ([`Transport::crash`] / [`Transport::restart`])
//! and counters ([`Transport::stats`]). Two backends implement it:
//!
//! * [`sim::SimNet`] — a deterministic logical-time network: one tick
//!   per hop, FIFO delivery, crash/restart of endpoints with
//!   **`ConnectionClosed` events to every connected peer**, and the link
//!   faults of the [`fault::FaultPlan`] its configuration carries.
//! * [`sock::SockNet`] — the same semantics over real kernel sockets
//!   (TCP loopback or Unix-domain, non-blocking, one `poll(2)` per
//!   reactor pass; Unix only), used by the `fortress-loadgen`
//!   wall-clock soak harness, the benchmark's `sock_*` workloads and the
//!   runnable failover example. The shared behavioural contract both
//!   must satisfy lives in [`conformance`].
//!
//! The crash observable is the point: de-randomization attacks (paper
//! §2.1–2.2) hinge on "a process crash at the target machine results in
//! the closure of the TCP connection that the attacker has with the child
//! server process" (Shacham et al., Sovarel et al.). Both backends
//! reproduce exactly that side channel, so the same sans-I/O engine runs
//! deterministically under `SimNet` in tests and sweeps and through the
//! kernel under `SockNet` — `Transport` is what makes that a guarantee
//! instead of a convention. The one difference a drive loop can see is
//! *when* the closure surfaces: `SimNet` queues it synchronously inside
//! [`Transport::crash`], while on `SockNet` it is a real EOF that the
//! next [`Transport::step`] reads.
//!
//! The simulated network is where link faults live: a
//! [`fault::FaultPlan`] — per-link loss, delay with reordering,
//! duplication, scheduled partitions and a slow endpoint — drawn from a
//! dedicated per-trial SplitMix64 stream so fault schedules never perturb
//! protocol randomness ([`fault::FaultPlan::None`], the default, is the
//! clean network and draws nothing). A net serves one fortress group:
//! each group of a sharded trial runs on its own `SimNet`, so a plan's
//! addresses, clock, fault stream and counters are that group's alone.
//!
//! # The [`WireKind`] registry
//!
//! Every framed payload starts with one tag byte from [`wire::WireKind`].
//! Receivers classify a frame once ([`WireKind::classify`]) and run
//! exactly one family decoder; the consumer counts undecodable bytes per
//! endpoint (`Stack::malformed_at` in `fortress_core`) instead of letting
//! them vanish. The *typed*
//! envelope over the registry (`WireMsg`, with a variant per kind plus an
//! explicit `Malformed` outcome) lives in `fortress_core::wire`, where
//! the payload types are in scope.
//!
//! [`Transport::register`]: transport::Transport::register
//! [`Transport::send`]: transport::Transport::send
//! [`Transport::broadcast`]: transport::Transport::broadcast
//! [`Transport::drain_into`]: transport::Transport::drain_into
//! [`Transport::crash`]: transport::Transport::crash
//! [`Transport::restart`]: transport::Transport::restart
//! [`Transport::stats`]: transport::Transport::stats
//! [`Transport::step`]: transport::Transport::step
//! [`WireKind::classify`]: wire::WireKind::classify
//!
//! # Example
//!
//! One function, both transports:
//!
//! ```
//! use fortress_net::transport::Transport;
//! use fortress_net::sim::{SimConfig, SimNet};
//! use fortress_net::sock::SockNet;
//! use fortress_net::event::NetEvent;
//! use bytes::Bytes;
//!
//! fn probe_and_observe<T: Transport>(net: &mut T) -> Vec<NetEvent> {
//!     let attacker = net.register("attacker");
//!     let server = net.register("server");
//!     net.send(attacker, server, Bytes::from_static(b"probe"));
//!     while net.step() {}
//!     // The server process crashes; the attacker observes the closure —
//!     // already queued on `SimNet`, read as a kernel EOF by the next
//!     // `step()` on `SockNet`.
//!     net.crash(server);
//!     while net.step() {}
//!     let mut seen = Vec::new();
//!     net.drain_into(attacker, &mut seen);
//!     seen
//! }
//!
//! for events in [
//!     probe_and_observe(&mut SimNet::new(SimConfig::default())),
//!     probe_and_observe(&mut SockNet::tcp()),
//! ] {
//!     assert!(events.iter().any(NetEvent::is_closure));
//! }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod codec;
pub mod conformance;
pub mod event;
pub mod fault;
#[cfg(unix)]
mod poll;
pub mod sim;
#[cfg(unix)]
pub mod sock;
pub mod transport;
pub mod wire;

pub use addr::Addr;
pub use event::{NetEvent, NetStats};
pub use fault::{FaultPlan, PartitionWindow, SlowLink, FAULT_STREAM};
pub use sim::{SimConfig, SimNet};
#[cfg(unix)]
pub use sock::{SockKind, SockNet, SockTiming};
pub use transport::Transport;
pub use wire::WireKind;
