//! Replication engines for the FORTRESS reproduction.
//!
//! The paper compares two replication disciplines (§1, §4):
//!
//! * **Primary-backup (PB)** — [`pb::PbReplica`]: "one replica, called the
//!   primary, does processing and provides state updates to other replicas
//!   that act as backups". Tolerates crashes; requires **no** determinism
//!   from the service — the primary resolves all non-determinism and ships
//!   the resolved state delta. This is the server tier of S1 and of the
//!   FORTRESS S2 system.
//! * **State machine replication (SMR)** — [`smr::SmrReplica`]: the 4-node,
//!   1-tolerant ordered-execution system of class S0. "The nodes execute an
//!   order protocol to decide on the order for processing requests; correct
//!   nodes generate identical responses for each request." The ordering
//!   protocol is a compact PBFT-family three-phase commit (pre-prepare /
//!   prepare / commit with `2f+1` quorums).
//!
//! Supporting modules:
//!
//! * [`service`] — the [`service::Service`] trait and the deterministic
//!   [`service::KvStore`] every tier replicates.
//! * [`message`] — wire formats (hand-coded, bounds-checked) and the
//!   canonical reply-signing convention shared with proxies and clients.
//! * [`seqlog`] — [`seqlog::SeqLog`], the per-client at-most-once log
//!   behind every table that remembers an answered request: the reply
//!   cache here, a proxy's answered set and a client's accepted bodies.
//! * [`state_transfer`] — the divergence-priced transfer a re-randomized
//!   replica pays when it re-enters the system (Roeder & Schneider's
//!   proactive-obfuscation cycle, §2.3).
//!
//! Engines are **sans-I/O**: they consume typed inputs and return typed
//! outputs, never touching a transport. The same engine therefore runs
//! under the deterministic `SimNet`, the kernel-socket `SockNet`, and
//! direct unit tests. Authenticating replica-to-replica traffic is the
//! transport harness's job (see `fortress-sim`); client-visible replies
//! are signed by the engines themselves because the signature is part of
//! the protocol (paper §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod message;
pub mod pb;
pub mod seqlog;
pub mod service;
pub mod smr;
pub mod state_transfer;

pub use error::ReplicationError;
pub use message::{PbMsg, ReplyBody, SignedReply, SignedReplyRef, SmrLogEntry, SmrMsg};
pub use pb::{PbConfig, PbInput, PbOutput, PbReplica};
pub use service::{KvStore, Service};
pub use smr::{SmrConfig, SmrInput, SmrOutput, SmrReplica, SmrStatus};
pub use state_transfer::TransferScheduler;
