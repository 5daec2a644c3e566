//! The FORTRESS architecture (Clarke & Ezhilchelvan, DSN 2010; Ezhilchelvan
//! et al., OPODIS 2009).
//!
//! FORTRESS "prescribes fortifying a server system of `ns` servers using
//! `np` redundant proxies" (§3): proxies are the only parties that may talk
//! to servers, clients learn the topology from a trusted read-only name
//! server, every server signs its responses, and each proxy *over-signs*
//! one authentic server response so that clients accept exactly the
//! doubly-signed responses. Proxies do no processing — which is why they
//! are harder to compromise — but they **log** invalid requests, and that
//! log is what forces a de-randomizing attacker to slow down (the paper's
//! indirect-attack coefficient κ).
//!
//! * [`nameserver`] — the trusted, read-only directory (topology, principal
//!   names, replication type, tolerance degree).
//! * [`messages`] — client↔proxy wire formats, including the doubly-signed
//!   [`messages::ProxyResponse`] and the zero-copy
//!   [`messages::ClientRequestRef`] view.
//! * [`wire`] — the typed [`wire::WireMsg`] envelope over the
//!   `fortress-net` tag registry: every delivered payload is classified
//!   by one tag dispatch, and undecodable bytes are an explicit
//!   `Malformed` outcome, never a silent fall-through.
//! * [`probelog`] — per-source invalid-request accounting and the
//!   suspicion threshold that bounds safe probing rates (κ's mechanism).
//! * [`proxy`] — the sans-I/O proxy engine: forward, collect, over-sign,
//!   log, suspect.
//! * [`client`] — acceptance rules: doubly-signed for S2, `f+1` matching
//!   for S0, any authentic signature for S1.
//! * [`system`] — full-system assembly of S0/S1/S2 over any
//!   `fortress-net` `Transport`: [`system::Stack`] is generic over the
//!   transport (deterministic `SimNet` by default, kernel-socket
//!   `SockNet` in the soak harness and the failover example),
//!   integrating randomized processes (`fortress-obf`),
//!   replication engines (`fortress-replication`) and the proxy/client
//!   tiers; this is the stack the protocol-level Monte-Carlo drives.
//!   What differs between its PB and SMR server tiers sits behind the
//!   private `tier` seam. A stack is one fortress and owns its
//!   transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod messages;
pub mod nameserver;
pub mod probelog;
pub mod proxy;
pub mod system;
mod tier;
pub mod wire;

pub use client::{DirectClient, FortressClient};
pub use error::FortressError;
pub use messages::{ClientRequest, ClientRequestRef, ProxyResponse};
pub use nameserver::{NameServer, ReplicationType};
pub use probelog::{ProbeLog, SuspicionPolicy};
pub use proxy::{Proxy, ProxyInput, ProxyOutput};
pub use system::{Availability, CompromiseState, Stack, StackConfig, SystemClass};
pub use wire::WireMsg;
