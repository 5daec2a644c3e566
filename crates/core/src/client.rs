//! Client-side acceptance rules.
//!
//! Each system class has its own rule for believing a response:
//!
//! * **S2 (FORTRESS)** — [`FortressClient`]: a response is valid iff it
//!   carries "two authentic signatures - one from the proxy that sent the
//!   response and the other from one of the servers" (§3).
//! * **S0 (SMR)** — [`DirectClient`] in `f+1` mode: accept a body once
//!   `f+1` distinct replicas vouch for it (at most `f` lie, so `f+1`
//!   matching votes contain a correct replica).
//! * **S1 (PB)** — [`DirectClient`] in any-authentic mode: accept the first
//!   authentically signed server response.
//!
//! [`ProbeClient`] picks the right one of those for a stack's class — the
//! benign measurement client every trial driver rides along.
//!
//! Each rule has one body and reads a reply in the frame it arrived in:
//! [`FortressClient::on_response`] takes a [`ProxyResponseRef`],
//! [`DirectClient::on_reply_ref`] a [`SignedReplyRef`], and what either
//! copies out is the body it accepts or the vote it counts.
//! [`DirectClient::on_reply`] encodes an owned reply and calls the latter.
//!
//! Orthogonal to acceptance, [`RetryTracker`] gives any client
//! robustness on degraded networks: per-request timeout, bounded
//! retransmission with deterministic jittered exponential backoff,
//! duplicate-reply suppression by request nonce, and RNG-free
//! [`Degradation`] counters (goodput fraction, retries, gave-ups).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fortress_crypto::KeyAuthority;
use fortress_net::Transport;
use fortress_replication::message::{SignedReply, SignedReplyRef};
use fortress_replication::seqlog::SeqLog;

use crate::error::FortressError;
use crate::messages::{ClientRequest, ProxyResponseRef};
use crate::nameserver::NameServer;
use crate::system::{Stack, SystemClass};
use crate::wire::WireMsg;

/// A client of a FORTRESS (S2) deployment.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use fortress_core::client::FortressClient;
/// use fortress_core::nameserver::{NameServer, ReplicationType};
/// use fortress_crypto::KeyAuthority;
///
/// let authority = Arc::new(KeyAuthority::with_seed(1));
/// let ns = NameServer::builder()
///     .proxy("proxy-0").server("server-0")
///     .replication(ReplicationType::PrimaryBackup).build()?;
/// let mut client = FortressClient::new("alice", authority, ns);
/// let req = client.request(b"PUT k v");
/// assert_eq!(req.seq, 1);
/// assert_eq!(req.client, "alice");
/// # Ok::<(), fortress_core::FortressError>(())
/// ```
#[derive(Debug)]
pub struct FortressClient {
    name: String,
    authority: Arc<KeyAuthority>,
    ns: NameServer,
    next_seq: u64,
    /// Every accepted body, by request seq: in order, the body and a
    /// one-byte length each in the log's record stream, and a quarter
    /// byte of its index.
    accepted: SeqLog,
}

impl FortressClient {
    /// Creates a client that learned `ns` from the trusted name server.
    pub fn new(name: &str, authority: Arc<KeyAuthority>, ns: NameServer) -> FortressClient {
        FortressClient {
            name: name.to_owned(),
            authority,
            ns,
            next_seq: 0,
            accepted: SeqLog::default(),
        }
    }

    /// This client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the next request (to be broadcast to every proxy).
    pub fn request(&mut self, op: &[u8]) -> ClientRequest {
        self.next_seq += 1;
        ClientRequest {
            seq: self.next_seq,
            client: self.name.clone(),
            op: op.to_vec(),
        }
    }

    /// Processes a proxy response. Returns `Ok(Some((seq, body)))` the
    /// first time a given request is answered validly, `Ok(None)` for
    /// anything that answers a request already accepted.
    ///
    /// A MAC is computed only when its verdict can change something: a
    /// first answer is never accepted without both signatures, and once a
    /// request is accepted no later response to it changes this client,
    /// authentic or not, so it is not verified. The visible consequence: a
    /// *forged* duplicate of an accepted answer is `Ok(None)` like any
    /// other duplicate, not `Err`.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError::Rejected`] when the response is addressed
    /// to someone else, or answers a request not yet accepted and either
    /// signature fails or the double-signature rule is otherwise violated.
    pub fn on_response(
        &mut self,
        response: &ProxyResponseRef<'_>,
    ) -> Result<Option<(u64, Vec<u8>)>, FortressError> {
        if response.reply.client != self.name {
            return Err(FortressError::Rejected {
                reason: "response addressed to a different client".into(),
            });
        }
        let seq = response.reply.request_seq;
        if self.accepted.contains(seq) {
            return Ok(None);
        }
        response.verify(
            &self.authority,
            self.ns.servers(),
            self.ns.proxies(),
        )?;
        self.accepted.insert(seq, response.reply.body);
        Ok(Some((seq, response.reply.body.to_vec())))
    }

    /// The accepted body for request `seq`, if any: read from the
    /// client's [`SeqLog`], which keeps every accepted body.
    pub fn accepted(&self, seq: u64) -> Option<&[u8]> {
        self.accepted.get(seq)
    }
}

/// Acceptance mode for 1-tier deployments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcceptMode {
    /// S0: a body needs `f+1` matching votes from distinct replicas.
    MatchingVotes {
        /// Tolerated faults `f`.
        f: usize,
    },
    /// S1: any single authentic server response is accepted.
    AnyAuthentic,
}

/// A client of a 1-tier (S0 or S1) deployment.
#[derive(Debug)]
pub struct DirectClient {
    name: String,
    authority: Arc<KeyAuthority>,
    servers: Vec<String>,
    mode: AcceptMode,
    next_seq: u64,
    /// Votes per request not yet accepted: `seq → (server_index, body)`
    /// pairs.
    votes: HashMap<u64, Vec<(u32, Vec<u8>)>>,
    /// Every accepted body, by request seq, as [`FortressClient`] keeps
    /// them: the body and about a byte and a quarter each, in order.
    accepted: SeqLog,
}

impl DirectClient {
    /// Creates a client of the servers listed in `servers` (principal
    /// names in index order).
    pub fn new(
        name: &str,
        authority: Arc<KeyAuthority>,
        servers: Vec<String>,
        mode: AcceptMode,
    ) -> DirectClient {
        DirectClient {
            name: name.to_owned(),
            authority,
            servers,
            mode,
            next_seq: 0,
            votes: HashMap::new(),
            accepted: SeqLog::default(),
        }
    }

    /// This client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the next request (to be broadcast to every server).
    pub fn request(&mut self, op: &[u8]) -> ClientRequest {
        self.next_seq += 1;
        ClientRequest {
            seq: self.next_seq,
            client: self.name.clone(),
            op: op.to_vec(),
        }
    }

    /// [`DirectClient::on_reply_ref`] for an owned reply.
    pub fn on_reply(&mut self, reply: &SignedReply) -> Option<(u64, Vec<u8>)> {
        self.on_reply_ref(SignedReplyRef::decode(&reply.encode()).ok()?)
    }

    /// Processes one signed server reply; returns the accepted body once
    /// the mode's rule is satisfied for that request.
    ///
    /// A vote is counted only after its signature verifies. A reply to a
    /// request already accepted, or from a replica that already voted on
    /// it, is `None` whatever its signature says, so it is not verified.
    pub fn on_reply_ref(&mut self, reply: SignedReplyRef<'_>) -> Option<(u64, Vec<u8>)> {
        if reply.client != self.name {
            return None;
        }
        let expected_name = self.servers.get(reply.server_index as usize)?;
        if reply.signature.signer != expected_name {
            return None;
        }
        let seq = reply.request_seq;
        if self.accepted.contains(seq) {
            return None;
        }
        let cast = self.votes.get(&seq).map_or(&[][..], Vec::as_slice);
        if cast.iter().any(|(ix, _)| *ix == reply.server_index) {
            return None; // one vote per replica
        }
        if !reply.verify(&self.authority) {
            return None;
        }
        let votes = self.votes.entry(seq).or_default();
        votes.push((reply.server_index, reply.body.to_vec()));

        let needed = match self.mode {
            AcceptMode::AnyAuthentic => 1,
            AcceptMode::MatchingVotes { f } => f + 1,
        };
        let matching = votes.iter().filter(|(_, b)| b == reply.body).count();
        if matching >= needed {
            self.votes.remove(&seq);
            self.accepted.insert(seq, reply.body);
            return Some((seq, reply.body.to_vec()));
        }
        None
    }

    /// The accepted body for request `seq`, if any: read from the
    /// client's [`SeqLog`], which keeps every accepted body.
    pub fn accepted(&self, seq: u64) -> Option<&[u8]> {
        self.accepted.get(seq)
    }
}

/// The benign measurement client a trial driver registers on a stack:
/// whichever acceptance rule the stack's class calls for, behind one
/// `request` / `settles` surface.
#[derive(Debug)]
pub enum ProbeClient {
    /// S2: double-signature verification behind the proxy tier.
    Fortress(FortressClient),
    /// S0/S1: direct server replies (`f + 1 = 2` matching votes on S0,
    /// any authentic reply on S1).
    Direct(DirectClient),
}

impl ProbeClient {
    /// Registers `name` as a client of `stack` and builds the client its
    /// class calls for.
    pub fn attach<T: Transport>(stack: &mut Stack<T>, name: &str) -> ProbeClient {
        stack.add_client(name);
        let direct = |mode| {
            let servers = stack.ns().servers().to_vec();
            ProbeClient::Direct(DirectClient::new(name, stack.authority(), servers, mode))
        };
        match stack.class() {
            SystemClass::S2Fortress => ProbeClient::Fortress(FortressClient::new(
                name,
                stack.authority(),
                stack.ns().clone(),
            )),
            SystemClass::S1Pb => direct(AcceptMode::AnyAuthentic),
            SystemClass::S0Smr => direct(AcceptMode::MatchingVotes { f: 1 }),
        }
    }

    /// Builds the next request.
    pub fn request(&mut self, op: &[u8]) -> ClientRequest {
        match self {
            ProbeClient::Fortress(client) => client.request(op),
            ProbeClient::Direct(client) => client.request(op),
        }
    }

    /// Judges one delivered frame and returns the request it settles: an
    /// accepted first answer and a valid duplicate of one both do (a
    /// [`RetryTracker`] tells them apart); anything else is `None`.
    pub fn settles(&mut self, frame: &[u8]) -> Option<u64> {
        match (WireMsg::decode(frame), self) {
            (WireMsg::ProxyResponse(resp), ProbeClient::Fortress(client)) => {
                let seq = resp.reply.request_seq;
                client.on_response(&resp).is_ok().then_some(seq)
            }
            (WireMsg::SignedReply(reply), ProbeClient::Direct(client)) => {
                // Once `seq` is accepted `on_reply_ref` changes nothing
                // and returns `None`: asked first (one bit of the log),
                // it is not called.
                let seq = reply.request_seq;
                let settled = client.accepted.contains(seq) || client.on_reply_ref(reply).is_some();
                settled.then_some(seq)
            }
            _ => None,
        }
    }
}

/// Per-request robustness policy for clients on degraded networks:
/// timeout, bounded retries, and deterministic jittered exponential
/// backoff — all in logical steps, all RNG-free.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Steps to wait for an accepted answer before the request is
    /// considered timed out.
    pub timeout: u64,
    /// Retransmissions allowed after the original send; `0` means the
    /// client gives up on first timeout.
    pub max_retries: u32,
    /// Base backoff in steps: retry `k` waits
    /// `timeout + backoff_base · 2^(k-1) + jitter` where the jitter is a
    /// hash of `(seq, k)` in `[0, backoff_base)` — deterministic, but
    /// decorrelated across requests so retry storms do not synchronize.
    pub backoff_base: u64,
}

impl RetryPolicy {
    /// A policy that never retransmits: one attempt, then give up after
    /// `timeout` steps.
    pub fn no_retry(timeout: u64) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_retries: 0,
            backoff_base: 0,
        }
    }

    /// A retrying policy with the given budget and base backoff.
    pub fn retrying(timeout: u64, max_retries: u32, backoff_base: u64) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_retries,
            backoff_base,
        }
    }
}

/// RNG-free degradation counters a [`RetryTracker`] accumulates over a
/// client's lifetime — the raw material for goodput reporting under
/// network faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Degradation {
    /// Distinct requests issued (retransmissions not counted).
    pub issued: u64,
    /// Requests that eventually got an accepted answer.
    pub accepted: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Redundant replies suppressed by request nonce after acceptance.
    pub duplicates_suppressed: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub gave_up: u64,
}

impl Degradation {
    /// Fraction of issued requests that were answered: the goodput the
    /// survivability literature asks for. `0.0` when nothing was issued.
    pub fn goodput_fraction(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.accepted as f64 / self.issued as f64
        }
    }

    /// Mean retransmissions per issued request (`0.0` when idle).
    pub fn retries_per_request(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.retries as f64 / self.issued as f64
        }
    }
}

/// Deterministic jitter for retry `attempt` of request `seq`: a
/// SplitMix64-style hash, so equal `(seq, attempt)` always backs off
/// identically while distinct requests desynchronize.
fn retry_jitter(seq: u64, attempt: u32) -> u64 {
    let mut z = seq
        .rotate_left(17)
        .wrapping_add(u64::from(attempt))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Debug)]
struct PendingRequest {
    req: ClientRequest,
    /// Retransmissions already sent for this request.
    attempt: u32,
    deadline: u64,
}

/// Tracks in-flight requests for any client, driving timeouts, bounded
/// retransmission with jittered exponential backoff, and the
/// [`Degradation`] counters. Composes with [`FortressClient`] and
/// [`DirectClient`] alike: the client decides *acceptance*, the tracker
/// decides *retransmission*.
///
/// Deterministic by construction: pending requests live in a `BTreeMap`
/// keyed by sequence number (iteration order is fixed), and backoff
/// jitter is hashed from `(seq, attempt)` — no RNG anywhere, so the
/// tracker never perturbs a trial's random streams.
#[derive(Clone, Debug)]
pub struct RetryTracker {
    policy: RetryPolicy,
    pending: BTreeMap<u64, PendingRequest>,
    degradation: Degradation,
}

impl RetryTracker {
    /// A tracker enforcing `policy`.
    pub fn new(policy: RetryPolicy) -> RetryTracker {
        RetryTracker {
            policy,
            pending: BTreeMap::new(),
            degradation: Degradation::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Records a freshly issued request at time `now`; the caller sends
    /// it on the wire.
    pub fn track(&mut self, req: &ClientRequest, now: u64) {
        self.degradation.issued += 1;
        self.pending.insert(
            req.seq,
            PendingRequest {
                req: req.clone(),
                attempt: 0,
                deadline: now + self.policy.timeout,
            },
        );
    }

    /// Marks request `seq` answered. Returns `false` (and counts a
    /// suppressed duplicate) when the request was already settled or
    /// never tracked — the nonce-based duplicate suppression.
    pub fn settle(&mut self, seq: u64) -> bool {
        if self.pending.remove(&seq).is_some() {
            self.degradation.accepted += 1;
            true
        } else {
            self.degradation.duplicates_suppressed += 1;
            false
        }
    }

    /// Requests whose deadline has passed at `now`, ready to retransmit
    /// (the caller sends each returned clone). Requests out of retry
    /// budget are abandoned and counted in [`Degradation::gave_up`].
    pub fn due_resends(&mut self, now: u64) -> Vec<ClientRequest> {
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&seq, _)| seq)
            .collect();
        let mut resend = Vec::new();
        for seq in due {
            let p = self.pending.get_mut(&seq).expect("still pending");
            if p.attempt >= self.policy.max_retries {
                self.pending.remove(&seq);
                self.degradation.gave_up += 1;
                continue;
            }
            p.attempt += 1;
            self.degradation.retries += 1;
            // Saturating: a budget past 64 retries doubles out of range.
            let doubling = 1u64.checked_shl(p.attempt - 1).unwrap_or(u64::MAX);
            let backoff = self.policy.backoff_base.saturating_mul(doubling);
            let jitter = if self.policy.backoff_base == 0 {
                0
            } else {
                retry_jitter(seq, p.attempt) % self.policy.backoff_base
            };
            p.deadline = now
                .saturating_add(self.policy.timeout)
                .saturating_add(backoff)
                .saturating_add(jitter);
            resend.push(p.req.clone());
        }
        resend
    }

    /// Requests still awaiting an answer.
    #[cfg(test)]
    fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The counters accumulated so far.
    pub fn degradation(&self) -> Degradation {
        self.degradation
    }

    /// Abandons every still-pending request (end of mission window),
    /// counting each as gave-up so goodput reflects unanswered tails.
    pub fn abandon_pending(&mut self) {
        self.degradation.gave_up += self.pending.len() as u64;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProxyResponse;
    use crate::nameserver::ReplicationType;
    use fortress_crypto::sig::{Signature, Signer};
    use fortress_replication::message::ReplyBody;

    fn authority_with(names: &[&str]) -> (Arc<KeyAuthority>, Vec<Signer>) {
        let authority = Arc::new(KeyAuthority::with_seed(17));
        let signers = names
            .iter()
            .map(|n| Signer::register(n, &authority))
            .collect();
        (authority, signers)
    }

    /// A response as the client meets it: a view of its frame.
    fn respond(
        client: &mut FortressClient,
        response: &ProxyResponse,
    ) -> Result<Option<(u64, Vec<u8>)>, FortressError> {
        client.on_response(&ProxyResponseRef::decode(&response.encode()).unwrap())
    }

    fn signed_reply(signer: &Signer, index: u32, seq: u64, client: &str, body: &[u8]) -> SignedReply {
        SignedReply::sign(
            ReplyBody {
                request_seq: seq,
                client: client.into(),
                body: body.to_vec(),
                server_index: index,
            },
            signer,
        )
    }

    #[test]
    fn fortress_client_accepts_doubly_signed_once() {
        let (authority, signers) = authority_with(&["server-0", "proxy-0", "proxy-1"]);
        let ns = NameServer::builder()
            .proxy("proxy-0")
            .proxy("proxy-1")
            .server("server-0")
            .replication(ReplicationType::PrimaryBackup)
            .build()
            .unwrap();
        let mut client = FortressClient::new("alice", Arc::clone(&authority), ns);
        let req = client.request(b"GET k");
        let reply = signed_reply(&signers[0], 0, req.seq, "alice", b"VALUE v");
        let resp0 = ProxyResponse::over_sign(reply.clone(), &signers[1]);
        let resp1 = ProxyResponse::over_sign(reply, &signers[2]);

        let got = respond(&mut client, &resp0).unwrap();
        assert_eq!(got, Some((1, b"VALUE v".to_vec())));
        // The second proxy's copy is a duplicate.
        assert_eq!(respond(&mut client, &resp1).unwrap(), None);
        assert_eq!(client.accepted(1), Some(b"VALUE v".as_slice()));
    }

    #[test]
    fn fortress_client_rejects_single_signature() {
        let (authority, signers) = authority_with(&["server-0", "proxy-0"]);
        let ns = NameServer::builder()
            .proxy("proxy-0")
            .server("server-0")
            .replication(ReplicationType::PrimaryBackup)
            .build()
            .unwrap();
        let mut client = FortressClient::new("alice", Arc::clone(&authority), ns);
        client.request(b"GET k");
        let reply = signed_reply(&signers[0], 0, 1, "alice", b"VALUE v");
        let resp = ProxyResponse {
            reply,
            proxy_sig: Signature::forged("proxy-0"),
        };
        assert!(respond(&mut client, &resp).is_err());
        assert_eq!(client.accepted(1), None);
    }

    #[test]
    fn fortress_client_rejects_foreign_responses() {
        let (authority, signers) = authority_with(&["server-0", "proxy-0"]);
        let ns = NameServer::builder()
            .proxy("proxy-0")
            .server("server-0")
            .replication(ReplicationType::PrimaryBackup)
            .build()
            .unwrap();
        let mut client = FortressClient::new("alice", Arc::clone(&authority), ns);
        let reply = signed_reply(&signers[0], 0, 1, "bob", b"VALUE v");
        let resp = ProxyResponse::over_sign(reply, &signers[1]);
        assert!(respond(&mut client, &resp).is_err());
    }

    /// A first answer is never accepted without both signatures, wherever
    /// the forgery falls among the three proxies' responses; after
    /// acceptance nothing can change, so a forgery is one more duplicate
    /// (at the parent of this rule it was `Err`: the one visible
    /// difference), and the retry tracker counts it as such.
    #[test]
    fn a_forged_response_is_never_accepted_wherever_it_arrives() {
        let (authority, signers) = authority_with(&["server-0", "proxy-0", "proxy-1"]);
        let ns = NameServer::builder()
            .proxy("proxy-0")
            .proxy("proxy-1")
            .server("server-0")
            .replication(ReplicationType::PrimaryBackup)
            .build()
            .unwrap();
        let reply = signed_reply(&signers[0], 0, 1, "alice", b"VALUE v");
        let authentic = [1, 2].map(|p| ProxyResponse::over_sign(reply.clone(), &signers[p]));
        let mut forged = authentic[0].clone();
        forged.reply.reply.body = b"EVIL".to_vec();
        for position in 0..3 {
            let client = FortressClient::new("alice", Arc::clone(&authority), ns.clone());
            let mut client = ProbeClient::Fortress(client);
            let mut tracker = RetryTracker::new(RetryPolicy::no_retry(10));
            tracker.track(&client.request(b"GET k"), 0);
            let mut arrivals: Vec<&ProxyResponse> = authentic.iter().collect();
            arrivals.insert(position, &forged);
            let settles: Vec<Option<u64>> =
                arrivals.iter().map(|r| client.settles(&r.encode())).collect();
            // Before acceptance the forgery is `Err` and settles nothing.
            let mut expected = vec![Some(1); 3];
            if position == 0 {
                expected[0] = None;
            }
            assert_eq!(settles, expected, "position {position}");
            let firsts = settles.iter().flatten().filter(|seq| tracker.settle(**seq)).count();
            let duplicates = tracker.degradation().duplicates_suppressed as usize;
            assert_eq!((firsts, firsts + duplicates), (1, settles.iter().flatten().count()));
            let ProbeClient::Fortress(client) = &mut client else { unreachable!() };
            assert_eq!(client.accepted(1), Some(b"VALUE v".as_slice()), "position {position}");
            assert_eq!(respond(client, &forged).unwrap(), None, "a forged duplicate");
        }
    }

    /// A forged vote is `None` and counts for nothing: before the quorum it
    /// neither votes nor uses up its replica's vote, after it nothing does.
    #[test]
    fn a_forged_vote_is_never_counted_wherever_it_arrives() {
        let names = ["smr-0", "smr-1", "smr-2", "smr-3"];
        let (authority, signers) = authority_with(&names);
        let vote = |i: u32| signed_reply(&signers[i as usize], i, 1, "alice", b"VALUE v");
        let votes = [vote(0), vote(1)];
        // Claims replica 1's vote for the honest body, under a forged tag.
        let mut forged = votes[1].clone();
        forged.signature = Signature::forged("smr-1");
        for position in 0..3 {
            let mut client = DirectClient::new(
                "alice",
                Arc::clone(&authority),
                names.iter().map(|s| s.to_string()).collect(),
                AcceptMode::MatchingVotes { f: 1 },
            );
            client.request(b"GET k");
            let mut arrivals: Vec<&SignedReply> = votes.iter().collect();
            arrivals.insert(position, &forged);
            let answers: Vec<_> = arrivals.into_iter().map(|r| client.on_reply(r)).collect();
            let mut expected = vec![None, Some((1, b"VALUE v".to_vec()))];
            expected.insert(position, None);
            assert_eq!(answers, expected, "position {position}");
            assert!(client.votes.is_empty(), "an accepted request keeps no votes");
        }
    }

    /// `settles` asks `accepted` before it judges, and judges in the
    /// frame: the answer is what materialising first and asking afterwards
    /// gave, over a first answer, a duplicate, a forged duplicate, a reply
    /// to somebody else, and the last two again for a request not accepted.
    #[test]
    fn probe_settles_asks_accepted_before_it_judges() {
        let names = ["pb-0", "pb-1", "pb-2"];
        let (authority, signers) = authority_with(&names);
        let direct = || {
            let servers = names.iter().map(|s| s.to_string()).collect();
            DirectClient::new("alice", Arc::clone(&authority), servers, AcceptMode::AnyAuthentic)
        };
        let (mut probe, mut reference) = (ProbeClient::Direct(direct()), direct());
        let forge = |mut reply: SignedReply| {
            reply.signature = Signature::forged(reply.signature.signer());
            reply
        };
        let arrivals = [
            signed_reply(&signers[0], 0, 1, "alice", b"V"),
            signed_reply(&signers[1], 1, 1, "alice", b"V"),
            forge(signed_reply(&signers[2], 2, 1, "alice", b"EVIL")),
            signed_reply(&signers[0], 0, 1, "bob", b"V"),
            forge(signed_reply(&signers[2], 2, 2, "alice", b"EVIL")),
            signed_reply(&signers[0], 0, 2, "bob", b"V"),
        ];
        let mut answers = Vec::new();
        for reply in &arrivals {
            let seq = reply.reply.request_seq;
            let already = reference.accepted(seq).is_some();
            let expected = (reference.on_reply(reply).is_some() || already).then_some(seq);
            assert_eq!(probe.settles(&reply.encode()), expected, "{reply:?}");
            let ProbeClient::Direct(client) = &probe else { unreachable!() };
            let accepted = |c: &DirectClient| [1, 2].map(|s| c.accepted(s).map(<[u8]>::to_vec));
            assert_eq!((accepted(client), &client.votes), (accepted(&reference), &reference.votes));
            answers.push(expected);
        }
        assert_eq!(answers, [Some(1), Some(1), Some(1), Some(1), None, None]);
    }

    #[test]
    fn smr_client_needs_f_plus_one_matching() {
        let names = ["smr-0", "smr-1", "smr-2", "smr-3"];
        let (authority, signers) = authority_with(&names);
        let mut client = DirectClient::new(
            "alice",
            Arc::clone(&authority),
            names.iter().map(|s| s.to_string()).collect(),
            AcceptMode::MatchingVotes { f: 1 },
        );
        client.request(b"GET k");
        // First vote: not enough.
        assert!(client
            .on_reply(&signed_reply(&signers[0], 0, 1, "alice", b"VALUE v"))
            .is_none());
        // A lying replica's different body does not help.
        assert!(client
            .on_reply(&signed_reply(&signers[1], 1, 1, "alice", b"EVIL"))
            .is_none());
        // Second matching vote: accepted.
        let got = client.on_reply(&signed_reply(&signers[2], 2, 1, "alice", b"VALUE v"));
        assert_eq!(got, Some((1, b"VALUE v".to_vec())));
        // Late votes are ignored.
        assert!(client
            .on_reply(&signed_reply(&signers[3], 3, 1, "alice", b"VALUE v"))
            .is_none());
    }

    #[test]
    fn smr_client_ignores_double_votes_from_one_replica() {
        let names = ["smr-0", "smr-1", "smr-2", "smr-3"];
        let (authority, signers) = authority_with(&names);
        let mut client = DirectClient::new(
            "alice",
            Arc::clone(&authority),
            names.iter().map(|s| s.to_string()).collect(),
            AcceptMode::MatchingVotes { f: 1 },
        );
        client.request(b"GET k");
        assert!(client
            .on_reply(&signed_reply(&signers[0], 0, 1, "alice", b"X"))
            .is_none());
        // Same replica voting twice must not reach the quorum.
        assert!(client
            .on_reply(&signed_reply(&signers[0], 0, 1, "alice", b"X"))
            .is_none());
        assert_eq!(client.accepted(1), None);
    }

    #[test]
    fn pb_client_accepts_any_authentic() {
        let names = ["pb-0", "pb-1", "pb-2"];
        let (authority, signers) = authority_with(&names);
        let mut client = DirectClient::new(
            "alice",
            Arc::clone(&authority),
            names.iter().map(|s| s.to_string()).collect(),
            AcceptMode::AnyAuthentic,
        );
        client.request(b"GET k");
        let got = client.on_reply(&signed_reply(&signers[2], 2, 1, "alice", b"VALUE v"));
        assert_eq!(got, Some((1, b"VALUE v".to_vec())));
    }

    fn req(seq: u64) -> ClientRequest {
        ClientRequest {
            seq,
            client: "alice".into(),
            op: b"GET k".to_vec(),
        }
    }

    #[test]
    fn retry_tracker_resends_with_exponential_backoff_then_gives_up() {
        let mut t = RetryTracker::new(RetryPolicy::retrying(10, 2, 4));
        t.track(&req(1), 0);
        assert!(t.due_resends(9).is_empty(), "not due before the timeout");
        // First timeout: one retransmission, deadline pushed out by
        // timeout + base + jitter.
        let r1 = t.due_resends(10);
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].seq, 1);
        // Second timeout: far in the future so it is surely due.
        let r2 = t.due_resends(1000);
        assert_eq!(r2.len(), 1);
        // Budget exhausted: the third timeout abandons the request.
        assert!(t.due_resends(10_000).is_empty());
        let d = t.degradation();
        assert_eq!((d.issued, d.retries, d.gave_up, d.accepted), (1, 2, 1, 0));
        assert_eq!(t.pending_count(), 0);
        assert_eq!(d.goodput_fraction(), 0.0);
    }

    /// A fault-axis policy may retry more than 64 times. Without backoff
    /// it retries every timeout, its whole budget, then gives up once;
    /// with one, the backoff saturates rather than losing its bits, so no
    /// deadline ever comes earlier than the one before it.
    #[test]
    fn a_retry_budget_past_sixty_four_saturates_its_backoff() {
        let mut t = RetryTracker::new(RetryPolicy::retrying(1, 80, 0));
        t.track(&req(1), 0);
        let resent: usize = (1..=200).map(|now| t.due_resends(now).len()).sum();
        let d = t.degradation();
        assert_eq!((resent, d.retries, d.gave_up), (80, 80, 1));
        assert!(!t.pending.contains_key(&1));

        let mut t = RetryTracker::new(RetryPolicy::retrying(1, 70, 1));
        t.track(&req(1), 0);
        let mut last = 0;
        for _ in 0..70 {
            let now = t.pending[&1].deadline;
            assert_eq!(t.due_resends(now).len(), 1);
            assert!(
                t.pending[&1].deadline >= last,
                "a later retry came due earlier"
            );
            last = t.pending[&1].deadline;
        }
        assert_eq!(last, u64::MAX);
        assert!(t.due_resends(u64::MAX).is_empty());
        assert_eq!(t.degradation().gave_up, 1);
    }

    #[test]
    fn retry_tracker_settles_and_suppresses_duplicates() {
        let mut t = RetryTracker::new(RetryPolicy::retrying(10, 3, 2));
        t.track(&req(1), 0);
        t.track(&req(2), 0);
        assert!(t.settle(1), "first answer settles");
        assert!(!t.settle(1), "second answer is a duplicate");
        assert!(t.settle(2));
        let d = t.degradation();
        assert_eq!(d.accepted, 2);
        assert_eq!(d.duplicates_suppressed, 1);
        assert_eq!(d.gave_up, 0);
        assert_eq!(d.goodput_fraction(), 1.0);
        assert!(t.due_resends(u64::MAX / 2).is_empty(), "nothing pending");
    }

    #[test]
    fn retry_tracker_is_deterministic_and_no_retry_gives_up_first_timeout() {
        // Identical histories give identical deadlines (hash jitter, no
        // RNG): run the same schedule twice.
        let run = || {
            let mut t = RetryTracker::new(RetryPolicy::retrying(5, 4, 8));
            for seq in 1..=5 {
                t.track(&req(seq), seq);
            }
            let mut trace = Vec::new();
            for now in (0..200).step_by(7) {
                trace.extend(t.due_resends(now).into_iter().map(|r| (now, r.seq)));
            }
            (trace, t.degradation())
        };
        assert_eq!(run(), run());

        let mut t = RetryTracker::new(RetryPolicy::no_retry(5));
        t.track(&req(1), 0);
        assert!(t.due_resends(5).is_empty(), "no retransmission allowed");
        assert_eq!(t.degradation().gave_up, 1);
    }

    #[test]
    fn abandon_pending_counts_the_unanswered_tail() {
        let mut t = RetryTracker::new(RetryPolicy::retrying(10, 3, 2));
        t.track(&req(1), 0);
        t.track(&req(2), 0);
        t.settle(1);
        t.abandon_pending();
        let d = t.degradation();
        assert_eq!(d.gave_up, 1);
        assert_eq!(d.goodput_fraction(), 0.5);
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn direct_client_rejects_bad_signatures_and_mismatched_index() {
        let names = ["pb-0", "pb-1"];
        let (authority, signers) = authority_with(&names);
        let mut client = DirectClient::new(
            "alice",
            Arc::clone(&authority),
            names.iter().map(|s| s.to_string()).collect(),
            AcceptMode::AnyAuthentic,
        );
        client.request(b"GET k");
        // pb-1's signature presented with index 0.
        let mislabeled = signed_reply(&signers[1], 0, 1, "alice", b"V");
        assert!(client.on_reply(&mislabeled).is_none());
        // Out-of-range index.
        let out_of_range = signed_reply(&signers[0], 9, 1, "alice", b"V");
        assert!(client.on_reply(&out_of_range).is_none());
        // Wrong client.
        let foreign = signed_reply(&signers[0], 0, 1, "bob", b"V");
        assert!(client.on_reply(&foreign).is_none());
    }
}
