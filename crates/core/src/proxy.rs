//! The sans-I/O proxy engine.
//!
//! Proxies "act as intermediaries between clients and the server system"
//! (§3): they forward client requests to every server, collect the signed
//! server responses, over-sign **one** authentic response per request, and
//! return it to the client. They do no processing — the forwarded bytes are
//! relayed verbatim — but they observe: a server-side process crash right
//! after a forwarded request marks that request's source as having
//! submitted an invalid request, feeding the [`crate::probelog`] that
//! eventually flags (and here, blocks) probing sources.
//!
//! # One step of state
//!
//! Every answer and every crash a request provokes arrives in the pump
//! that forwarded it, so a proxy keeps only this step's forwards, oldest
//! first; [`ProxyInput::Tick`] empties them. There is one forward per
//! `(client, seq)` a step, with a bit per server that has neither answered
//! nor closed on it: forwarding it again re-arms the bits, and a
//! retransmission in a later step is a new forward, answered again. A
//! closure is charged to the oldest forward pending at that server, each
//! forward at most once, so a lost reply or a request sent into a downed
//! machine leaves nothing behind for another source's crash.
//!
//! # When a reply is verified
//!
//! Every server answers every proxy, and the primary answers each of the
//! proxies' forwarded copies, so a proxy sees five replies a request and
//! needs three of them. The rule: **a MAC is computed only when one of its
//! two verdicts would change a field or an output.** After the checks that
//! cost nothing (index in range, the expected signer's name, the index in
//! the signed body), a reply can do two things: clear its server's bit on
//! its request's forward, and be the request's first answer this step.
//! When it does either, its signature is verified before both, so an
//! unverified reply never clears a suspicion and is never passed on. When
//! it does neither, an authentic reply and a forged one alike leave the
//! forwards, `names`, the log and the output as they were, and it is
//! dropped unverified; no caller can tell. A reply with no forward (its
//! client is cut off here, or it outlived its step) is a first answer.
//! The clients follow the same rule, with one visible consequence: see
//! [`FortressClient::on_response`](crate::client::FortressClient::on_response).
//!
//! The rule has one body, [`Proxy::on_server_reply`], and it runs on the
//! frame the transport delivered: the reply is checked and verified through
//! a [`SignedReplyRef`] view of it, the over-signature covers the view's
//! `frame`, and the stack sends that same frame on inside the response
//! ([`ProxyResponseRef::encode_reusing`](crate::messages::ProxyResponseRef::encode_reusing)).
//! Nothing is copied out, and a dropped reply allocates nothing.
//! [`ProxyInput::ServerReply`] encodes its owned reply and makes that call.

use std::collections::HashSet;
use std::sync::Arc;

use fortress_crypto::sig::{Signature, Signer};
use fortress_crypto::KeyAuthority;
use fortress_replication::message::{SignedReply, SignedReplyRef};

use crate::messages::ProxyResponse;
use crate::nameserver::NameServer;
use crate::probelog::{ProbeLog, SuspicionPolicy};

/// Inputs to the proxy engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProxyInput {
    /// A signed reply from server `server_index`.
    ServerReply {
        /// Index of the replying server (resolved by the transport).
        server_index: usize,
        /// The reply.
        reply: SignedReply,
    },
    /// The connection to server `server_index` closed — its serving process
    /// crashed (the de-randomization observable).
    ServerClosed {
        /// Index of the crashed server.
        server_index: usize,
    },
    /// Logical clock tick: a new step begins.
    Tick {
        /// Current time in unit time-steps.
        now: u64,
    },
}

/// Outputs of the proxy engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProxyOutput {
    /// Return a doubly-signed response to `client`.
    ToClient {
        /// Destination client name.
        client: String,
        /// The over-signed response.
        response: ProxyResponse,
    },
    /// A source crossed the suspicion threshold and is now blocked.
    Suspect {
        /// The flagged source.
        source: String,
    },
}

/// One FORTRESS proxy.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use fortress_core::nameserver::{NameServer, ReplicationType};
/// use fortress_core::probelog::SuspicionPolicy;
/// use fortress_core::proxy::Proxy;
/// use fortress_crypto::{KeyAuthority, Signer};
///
/// let authority = Arc::new(KeyAuthority::with_seed(1));
/// let ns = NameServer::builder()
///     .proxy("proxy-0").server("server-0")
///     .replication(ReplicationType::PrimaryBackup).build()?;
/// let signer = Signer::register("proxy-0", &authority);
/// let mut proxy = Proxy::new("proxy-0", signer, authority, ns, SuspicionPolicy::default());
/// // An unflagged client's request goes on to every server.
/// assert!(proxy.should_forward("alice", 1));
/// assert_eq!(proxy.forwarded(), 1);
/// # Ok::<(), fortress_core::FortressError>(())
/// ```
#[derive(Debug)]
pub struct Proxy {
    name: String,
    signer: Signer,
    authority: Arc<KeyAuthority>,
    ns: NameServer,
    log: ProbeLog,
    now: u64,
    /// This step's forwards, oldest first (see the [module docs](self)).
    forwards: Vec<Forward>,
    /// Every client name seen so far, shared by its forwards.
    names: HashSet<Arc<str>>,
    forwarded: u64,
}

/// A request forwarded or answered this step.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Forward {
    client: Arc<str>,
    seq: u64,
    /// Bit `i`: server `i` has neither answered nor closed on it.
    pending: u64,
    answered: bool,
    charged: bool,
}

impl Proxy {
    /// Creates the proxy named `name` (must appear in the name server).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered proxy — an assembly bug.
    pub fn new(
        name: &str,
        signer: Signer,
        authority: Arc<KeyAuthority>,
        ns: NameServer,
        policy: SuspicionPolicy,
    ) -> Proxy {
        assert!(
            ns.proxy_index(name).is_some(),
            "proxy `{name}` missing from the name server"
        );
        Proxy {
            name: name.to_owned(),
            signer,
            authority,
            ns,
            log: ProbeLog::new(policy),
            now: 0,
            forwards: Vec::new(),
            names: HashSet::new(),
            forwarded: 0,
        }
    }

    /// Proxy principal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rewinds to the just-constructed state with fresh credentials,
    /// keeping the name server and every allocated buffer — the
    /// trial-arena reset path. Behaves exactly like a proxy newly built
    /// by [`Proxy::new`] with the same name, policy and topology.
    pub fn reset(&mut self, signer: Signer) {
        self.signer = signer;
        self.log.reset();
        self.now = 0;
        self.forwards.clear();
        self.names.clear();
        self.forwarded = 0;
    }

    /// Requests forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Read access to the probe log (telemetry, tests).
    pub fn log(&self) -> &ProbeLog {
        &self.log
    }

    /// Feeds one input, returning the outputs it provokes.
    pub fn on_input(&mut self, input: ProxyInput) -> Vec<ProxyOutput> {
        match input {
            // `on_server_reply` for an owned reply: encode, view, call.
            ProxyInput::ServerReply {
                server_index,
                reply,
            } => {
                let frame = reply.encode();
                let view = SignedReplyRef::decode(&frame).ok();
                match view.and_then(|view| self.on_server_reply(server_index, view)) {
                    Some(proxy_sig) => vec![ProxyOutput::ToClient {
                        client: reply.reply.client.clone(),
                        response: ProxyResponse { reply, proxy_sig },
                    }],
                    None => Vec::new(),
                }
            }
            ProxyInput::ServerClosed { server_index } => self.on_server_closed(server_index),
            ProxyInput::Tick { now } => {
                self.now = now;
                self.forwards.clear();
                Vec::new()
            }
        }
    }

    /// A client request, judged from its *borrowed* identity fields: runs
    /// the suspicion gate and the forwarding bookkeeping, and returns
    /// whether the verbatim wire bytes should be re-broadcast to the
    /// server tier. The canonical codec makes the re-broadcast
    /// byte-identical to decode-then-re-encode, so the caller never
    /// materializes the request.
    pub fn should_forward(&mut self, client: &str, seq: u64) -> bool {
        if self.log.is_suspicious(client) {
            // Identified probing sources are cut off.
            return false;
        }
        self.forwarded += 1;
        // The name server holds 1..=64 servers, one bit each.
        self.entry(client, seq).pending = u64::MAX >> (64 - self.ns.ns());
        true
    }

    /// This step's forward of `(client, seq)`, looked up newest first: a
    /// reply almost always answers one of the last few.
    fn find(&self, client: &str, seq: u64) -> Option<usize> {
        self.forwards.iter().rposition(|f| f.seq == seq && *f.client == *client)
    }

    /// [`Proxy::find`], or a new forward with nothing pending.
    fn entry(&mut self, client: &str, seq: u64) -> &mut Forward {
        let at = self.find(client, seq).unwrap_or_else(|| {
            let name = self.names.get(client).cloned().unwrap_or_else(|| Arc::from(client));
            self.names.insert(Arc::clone(&name));
            let fresh = Forward { client: name, seq, pending: 0, answered: false, charged: false };
            self.forwards.push(fresh);
            self.forwards.len() - 1
        });
        &mut self.forwards[at]
    }

    /// The reply rule (see the [module docs](self)) on a reply from server
    /// `server_index`. Returns the over-signature of `reply.frame` when
    /// this is the one reply to pass on for its `(client, seq)`.
    pub fn on_server_reply(
        &mut self,
        server_index: usize,
        reply: SignedReplyRef<'_>,
    ) -> Option<Signature> {
        if server_index >= self.ns.ns() {
            return None;
        }
        // Authenticity, the cheap part: the server with that index, by
        // name and in the signed body.
        let expected_name = &self.ns.servers()[server_index];
        if reply.signature.signer != expected_name || reply.server_index as usize != server_index {
            return None;
        }
        let (client, seq, bit) = (reply.client, reply.request_seq, 1u64 << server_index);
        // What can this reply change? Its server's bit on its request's
        // forward, or the request's first answer this step. When it is
        // neither, authentic and forged alike leave every field and the
        // output as they are, so the MAC is not computed.
        let found = self.find(client, seq);
        if found.is_some_and(|i| self.forwards[i].answered && self.forwards[i].pending & bit == 0) {
            return None;
        }
        // Authenticity, the signature: only an authentic reply may clear
        // a bit or be over-signed.
        if !reply.verify(&self.authority) {
            return None;
        }
        let forward = self.entry(client, seq);
        forward.pending &= !bit;
        // Over-sign any ONE authentic response (§3); the rest are noise.
        (!std::mem::replace(&mut forward.answered, true)).then(|| self.signer.sign(reply.frame))
    }

    fn on_server_closed(&mut self, server_index: usize) -> Vec<ProxyOutput> {
        if server_index >= self.ns.ns() {
            return Vec::new();
        }
        // Attribute the crash to the oldest request still pending at that
        // server: that is the request whose processing killed the child.
        let bit = 1u64 << server_index;
        let Some(forward) = self.forwards.iter_mut().find(|f| f.pending & bit != 0) else {
            return Vec::new();
        };
        forward.pending &= !bit;
        if std::mem::replace(&mut forward.charged, true) {
            // The same broadcast probe already killed another server; one
            // request counts once.
            return Vec::new();
        }
        let client = &forward.client;
        let was_suspicious = self.log.is_suspicious(client);
        self.log.record_invalid(client, self.now);
        if !was_suspicious && self.log.is_suspicious(client) {
            return vec![ProxyOutput::Suspect {
                source: client.to_string(),
            }];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProxyResponseRef;
    use crate::nameserver::ReplicationType;
    use fortress_replication::message::ReplyBody;

    struct Fixture {
        authority: Arc<KeyAuthority>,
        proxy: Proxy,
        server_signers: Vec<Signer>,
    }

    fn fixture() -> Fixture {
        let authority = Arc::new(KeyAuthority::with_seed(5));
        let ns = NameServer::builder()
            .proxy("proxy-0")
            .proxy("proxy-1")
            .proxy("proxy-2")
            .server("server-0")
            .server("server-1")
            .server("server-2")
            .replication(ReplicationType::PrimaryBackup)
            .build()
            .unwrap();
        let proxy_signer = Signer::register("proxy-0", &authority);
        let server_signers = (0..3)
            .map(|i| Signer::register(&format!("server-{i}"), &authority))
            .collect();
        let proxy = Proxy::new(
            "proxy-0",
            proxy_signer,
            Arc::clone(&authority),
            ns,
            SuspicionPolicy {
                window: 10,
                threshold: 3,
            },
        );
        Fixture {
            authority,
            proxy,
            server_signers,
        }
    }

    fn reply(f: &Fixture, server_index: usize, seq: u64, client: &str) -> SignedReply {
        SignedReply::sign(
            ReplyBody {
                request_seq: seq,
                client: client.into(),
                body: b"VALUE v".to_vec(),
                server_index: server_index as u32,
            },
            &f.server_signers[server_index],
        )
    }

    #[test]
    fn forwards_requests_verbatim() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        assert_eq!(f.proxy.forwarded(), 1);
        // The request waits at every server for its answer or its crash.
        assert_eq!(f.proxy.forwards.len(), 1);
        assert_eq!(f.proxy.forwards[0].pending, 0b111);
    }

    /// A forward feeds the whole bookkeeping: forwards count up, crash
    /// attribution works (the step's forwards are fed), and a flagged
    /// source is cut off.
    #[test]
    fn should_forward_mirrors_on_client_request() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        assert_eq!(f.proxy.forwarded(), 1);
        // The forward was recorded: a crash right after the
        // borrowed-path forward is attributed to alice's request.
        let outs = f.proxy.on_input(ProxyInput::ServerClosed { server_index: 0 });
        assert!(outs.is_empty(), "one strike is below the threshold");
        assert_eq!(f.proxy.log().window_count("alice"), 1);
        // Cross the threshold through the borrowed path; the source is
        // then refused without materializing anything.
        for seq in 2..=3 {
            assert!(f.proxy.should_forward("alice", seq));
            f.proxy.on_input(ProxyInput::ServerClosed { server_index: 0 });
        }
        assert!(!f.proxy.should_forward("alice", 4), "flagged sources are cut off");
        assert_eq!(f.proxy.forwarded(), 3);
    }

    #[test]
    fn over_signs_first_authentic_reply_only() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        let r0 = reply(&f, 0, 1, "alice");
        let outs = f.proxy.on_input(ProxyInput::ServerReply {
            server_index: 0,
            reply: r0,
        });
        let [ProxyOutput::ToClient { client, response }] = &outs[..] else {
            panic!("expected one response, got {outs:?}");
        };
        assert_eq!(client, "alice");
        ProxyResponseRef::decode(&response.encode())
            .unwrap()
            .verify(
                &f.authority,
                &["server-0".into(), "server-1".into(), "server-2".into()],
                &["proxy-0".into()],
            )
            .unwrap();
        // Second and third replies are swallowed.
        for i in [1usize, 2] {
            let r = reply(&f, i, 1, "alice");
            let outs = f.proxy.on_input(ProxyInput::ServerReply {
                server_index: i,
                reply: r,
            });
            assert!(outs.is_empty(), "duplicate reply over-signed");
        }
    }

    /// [`ProxyInput::ServerReply`] is `on_server_reply` and nothing more:
    /// a proxy fed owned replies and one fed the same replies in their
    /// frames hold the same tables after every input of an interleaving
    /// of forwards, authentic and forged replies and closures.
    #[test]
    fn the_owned_arm_leaves_the_tables_the_borrowed_rule_leaves() {
        let (mut borrowed, mut owned) = (fixture(), fixture());
        let (mut answered, mut charged) = (false, false);
        // Every (kind, server, client, seq, forged) once, in an order that
        // scatters them: 233 is coprime to the 360 combinations.
        for step in (0..360usize).map(|i| i * 233 % 360) {
            let (what, server, client) = (step % 4, step / 4 % 3, ["alice", "bob"][step / 12 % 2]);
            let (seq, forged) = (1 + (step / 24 % 5) as u64, step / 120 % 3 == 0);
            let mut given = Vec::new();
            match what {
                0 => {
                    let forwards = borrowed.proxy.should_forward(client, seq);
                    assert_eq!(owned.proxy.should_forward(client, seq), forwards);
                }
                1 => {
                    let input = ProxyInput::ServerClosed { server_index: server };
                    given = borrowed.proxy.on_input(input.clone());
                    assert_eq!(owned.proxy.on_input(input), given);
                }
                _ => {
                    let mut r = reply(&owned, server, seq, client);
                    if forged {
                        r.reply.body = b"EVIL".to_vec();
                    }
                    let frame = r.encode();
                    let view = SignedReplyRef::decode(&frame).unwrap();
                    let proxy_sig = borrowed.proxy.on_server_reply(server, view);
                    let outs = owned.proxy.on_input(ProxyInput::ServerReply {
                        server_index: server,
                        reply: r.clone(),
                    });
                    let expected: Vec<ProxyOutput> = proxy_sig
                        .map(|proxy_sig| ProxyOutput::ToClient {
                            client: client.into(),
                            response: ProxyResponse { reply: r, proxy_sig },
                        })
                        .into_iter()
                        .collect();
                    assert_eq!(outs, expected, "step {step}");
                    assert!(!forged || outs.is_empty());
                }
            }
            let (a, b) = (&borrowed.proxy, &owned.proxy);
            assert_eq!(
                (&a.forwards, &a.names, a.forwarded),
                (&b.forwards, &b.names, b.forwarded),
                "step {step}, after {given:?}"
            );
            for client in ["alice", "bob"] {
                assert_eq!(a.log.window_count(client), b.log.window_count(client));
            }
            let forwards = &borrowed.proxy.forwards;
            answered |= forwards.iter().any(|f| f.answered);
            charged |= forwards.iter().any(|f| f.charged);
        }
        assert!(answered && charged);
    }

    #[test]
    fn rejects_forged_or_mislabeled_replies() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        // Signature by server-1 presented as from index 0.
        let wrong = reply(&f, 1, 1, "alice");
        let outs = f.proxy.on_input(ProxyInput::ServerReply {
            server_index: 0,
            reply: wrong,
        });
        assert!(outs.is_empty());
        // Tampered body.
        let mut bad = reply(&f, 0, 1, "alice");
        bad.reply.body = b"EVIL".to_vec();
        let outs = f.proxy.on_input(ProxyInput::ServerReply {
            server_index: 0,
            reply: bad,
        });
        assert!(outs.is_empty());
        // Out-of-range index.
        let r = reply(&f, 0, 1, "alice");
        assert!(f
            .proxy
            .on_input(ProxyInput::ServerReply {
                server_index: 7,
                reply: r
            })
            .is_empty());
    }

    #[test]
    fn crash_attribution_flags_prober_and_blocks_it() {
        let mut f = fixture();
        // Threshold 3: three crashing requests flag mallory.
        for seq in 1..=3u64 {
            assert!(f.proxy.should_forward("mallory", seq));
            let outs = f.proxy.on_input(ProxyInput::ServerClosed { server_index: 0 });
            if seq < 3 {
                assert!(outs.is_empty(), "seq {seq}: {outs:?}");
            } else {
                assert_eq!(
                    outs,
                    vec![ProxyOutput::Suspect {
                        source: "mallory".into()
                    }]
                );
            }
        }
        assert!(f.proxy.log().is_suspicious("mallory"));
        // Further requests from mallory are dropped.
        assert!(!f.proxy.should_forward("mallory", 4));
        // Honest clients are unaffected.
        assert!(f.proxy.should_forward("alice", 1));
    }

    #[test]
    fn crash_attribution_uses_fifo_order() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        assert!(f.proxy.should_forward("mallory", 1));
        // Server 0 answers alice's request first: it is settled.
        let r = reply(&f, 0, 1, "alice");
        f.proxy.on_input(ProxyInput::ServerReply {
            server_index: 0,
            reply: r,
        });
        // Now server 0 crashes: the oldest unanswered request is mallory's.
        f.proxy.on_input(ProxyInput::ServerClosed { server_index: 0 });
        assert_eq!(f.proxy.log().window_count("mallory"), 1);
        assert_eq!(f.proxy.log().window_count("alice"), 0);
    }

    /// A tick ends the step: what was forwarded before it is neither
    /// charged with a later crash nor spared a second answer.
    #[test]
    fn a_tick_forgets_the_step() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        f.proxy.on_input(ProxyInput::Tick { now: 1 });
        assert!(f.proxy.forwards.is_empty());
        assert!(f.proxy.on_input(ProxyInput::ServerClosed { server_index: 0 }).is_empty());
        assert_eq!(f.proxy.log().window_count("alice"), 0);
        // Answered in one step, retransmitted and answered in the next.
        for now in 2..=3 {
            assert!(f.proxy.should_forward("alice", 2));
            for i in 0..3 {
                let outs = f.proxy.on_input(ProxyInput::ServerReply {
                    server_index: i,
                    reply: reply(&f, i, 2, "alice"),
                });
                assert_eq!(outs.len(), usize::from(i == 0), "step {now}, server {i}");
            }
            f.proxy.on_input(ProxyInput::Tick { now });
        }
    }

    #[test]
    fn spurious_closure_without_outstanding_is_ignored() {
        let mut f = fixture();
        let outs = f.proxy.on_input(ProxyInput::ServerClosed { server_index: 1 });
        assert!(outs.is_empty());
        assert!(f
            .proxy
            .on_input(ProxyInput::ServerClosed { server_index: 99 })
            .is_empty());
    }

    #[test]
    fn tick_advances_window_clock() {
        let mut f = fixture();
        // Probes spread over time never hit 3-in-10-steps.
        for (i, t) in [(1u64, 0u64), (2, 20), (3, 40), (4, 60)] {
            f.proxy.on_input(ProxyInput::Tick { now: t });
            assert!(f.proxy.should_forward("slow", i));
            f.proxy.on_input(ProxyInput::ServerClosed { server_index: 0 });
        }
        assert!(!f.proxy.log().is_suspicious("slow"), "paced prober evades");
    }

    #[test]
    #[should_panic(expected = "missing from the name server")]
    fn unknown_proxy_name_panics() {
        let authority = Arc::new(KeyAuthority::with_seed(5));
        let ns = NameServer::builder()
            .proxy("proxy-0")
            .server("server-0")
            .build()
            .unwrap();
        let signer = Signer::register("ghost", &authority);
        let _ = Proxy::new("ghost", signer, authority, ns, SuspicionPolicy::default());
    }
}
