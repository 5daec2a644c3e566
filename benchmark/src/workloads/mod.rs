//! The six workloads. Each runs alone in its process, drives the product
//! only through public functions, owns its load generator, and checks its
//! own outputs.

pub mod closed;
pub mod failover;
pub mod steady;
pub mod sweep;

use std::sync::Arc;
use std::time::Duration;

use fortress_core::client::{AcceptMode, DirectClient, FortressClient};
use fortress_core::messages::ClientRequest;
use fortress_core::system::{Stack, SystemClass};
use fortress_core::wire::WireMsg;
use fortress_net::Transport;

use crate::json::Value;
use crate::report::Report;

/// The benign operation every generated request carries. Load clients
/// send nothing else: a wrong-key probe from the load client gets it
/// blocked by the proxies (450 responses to 200 000 requests while
/// sizing), so adversarial traffic lives in the sweeps only.
pub const OP: &[u8] = b"PUT k v";

/// Timed repetitions per run of the closed-loop and sweep workloads; each
/// starts from a fresh set-up and replays the same work, and per slice of
/// work the fastest repetition is reported (`stats::best_of_aligned`).
pub const REPS: usize = 8;

/// Wall time per logical step on the socket workloads.
pub const TICK: Duration = Duration::from_millis(10);

/// A request unanswered this long is counted as failed.
pub const TIMEOUT: Duration = Duration::from_secs(1);

/// Settings of one run, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Seed of every stack, arrival stream and sweep.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// Worker threads and client connections never exceed this.
    pub threads: usize,
}

impl RunCfg {
    /// Length of one timed repetition when the run has `parts` of them.
    pub fn part(&self, parts: usize) -> Duration {
        Duration::from_secs_f64(self.seconds / parts as f64)
    }
}

/// Number of processors the harness may use.
pub fn machine_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Records the conditions every report states.
pub fn note_conditions(report: &mut Report, cfg: &RunCfg, transport: &str, discipline: &str) {
    report.note("seed", Value::Num(cfg.seed as f64));
    report.note("seconds", Value::Num(cfg.seconds));
    report.note("traced", Value::Bool(cfg.trace));
    report.note("machine_cores", Value::Num(machine_cores() as f64));
    report.note("threads", Value::Num(cfg.threads as f64));
    report.note("transport", Value::Str(transport.into()));
    report.note("discipline", Value::Str(discipline.into()));
}

/// The class-appropriate verifying client: double-signature checking
/// behind the proxy tier on S2, `f + 1` matching votes on S0.
pub enum LoadClient {
    /// S2.
    Fortress(FortressClient),
    /// S0.
    Direct(DirectClient),
}

/// What a delivered frame meant to the client that received it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accepted {
    /// First valid answer to request `seq`.
    Answer(u64),
    /// Valid but adds nothing: a duplicate answer, or a vote short of the
    /// quorum.
    Redundant,
    /// Failed verification or was not a response at all.
    Invalid,
}

impl LoadClient {
    /// Registers `name` on `stack` and builds its verifying client.
    pub fn attach<T: Transport>(stack: &mut Stack<T>, name: &str) -> LoadClient {
        stack.add_client(name);
        let authority = stack.authority();
        match stack.class() {
            SystemClass::S2Fortress => {
                LoadClient::Fortress(FortressClient::new(name, authority, stack.ns().clone()))
            }
            SystemClass::S0Smr => LoadClient::Direct(DirectClient::new(
                name,
                Arc::clone(&authority),
                stack.ns().servers().to_vec(),
                AcceptMode::MatchingVotes { f: 1 },
            )),
            SystemClass::S1Pb => LoadClient::Direct(DirectClient::new(
                name,
                authority,
                stack.ns().servers().to_vec(),
                AcceptMode::AnyAuthentic,
            )),
        }
    }

    /// Builds the next request.
    pub fn request(&mut self) -> ClientRequest {
        match self {
            LoadClient::Fortress(c) => c.request(OP),
            LoadClient::Direct(c) => c.request(OP),
        }
    }

    /// Decodes and verifies one delivered frame.
    pub fn accept(&mut self, frame: &[u8]) -> Accepted {
        match (WireMsg::decode(frame), self) {
            (WireMsg::ProxyResponse(resp), LoadClient::Fortress(c)) => match c.on_response(&resp) {
                Ok(Some((seq, _))) => Accepted::Answer(seq),
                Ok(None) => Accepted::Redundant,
                Err(_) => Accepted::Invalid,
            },
            (WireMsg::SignedReply(reply), LoadClient::Direct(c)) => {
                // `on_reply` does not tell a rejected vote from one short
                // of (or beyond) the quorum; the steady oracle — every
                // request answered — catches a replica whose votes fail.
                match c.on_reply(&reply.to_owned()) {
                    Some((seq, _)) => Accepted::Answer(seq),
                    None => Accepted::Redundant,
                }
            }
            _ => Accepted::Invalid,
        }
    }
}

/// `sent == delivered + dropped + dead_lettered` on a quiescent network.
pub fn conserved(stats: &fortress_net::NetStats) -> bool {
    stats.sent == stats.delivered + stats.dropped + stats.dead_lettered
}
