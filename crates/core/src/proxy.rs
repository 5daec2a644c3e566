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
//! # When a reply is verified
//!
//! Every server answers every proxy, and the primary answers each of the
//! proxies' forwarded copies, so a proxy sees five replies a request and
//! needs three of them. The rule: **a MAC is computed only when one of its
//! two verdicts would change a field or an output.** After the checks that
//! cost nothing (index in range, the expected signer's name, the index in
//! the signed body), a reply can do two things: settle an entry of
//! `outstanding[server_index]`, and be the first answer for its
//! `(client, seq)`. When it does either, its signature is verified before
//! the settle and before the over-signature, so an unverified reply never
//! clears a suspicion and is never passed on. When it does neither, an
//! authentic reply and a forged one alike leave `outstanding`, `responded`,
//! `names`, the log and the output as they were, and it is dropped
//! unverified. No caller of the proxy can tell. The clients follow the same
//! rule, and there it has its one visible consequence: see
//! [`FortressClient::on_response`](crate::client::FortressClient::on_response).
//!
//! The rule has one body, [`Proxy::on_server_reply`], and it runs on the
//! frame the transport delivered: the reply is checked and verified through
//! a [`SignedReplyRef`] view of it, the over-signature covers the view's
//! `frame`, and the stack sends that same frame on inside the response
//! ([`ProxyResponseRef::encode_reusing`](crate::messages::ProxyResponseRef::encode_reusing)).
//! Nothing is copied out, and a dropped reply allocates nothing.
//! [`ProxyInput::ServerReply`] encodes its owned reply and makes that call.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use fortress_crypto::sig::{Signature, Signer};
use fortress_crypto::KeyAuthority;
use fortress_replication::message::{SignedReply, SignedReplyRef};
use fortress_replication::seqlog::SeqLog;

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
    /// Logical clock tick.
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
    /// Requests already answered toward the client: per client, under
    /// the name shared with `names`, a [`SeqLog`] of the answered seqs.
    /// Every one is kept with no allocation of its own: a one-byte
    /// record and a bit of index in order, and a one-byte hole for each
    /// request in between never answered (never more holes than
    /// answers), which a late answer fills; a seq far out of order is a
    /// side-table entry. Membership is one mask bit.
    responded: HashMap<Arc<str>, SeqLog>,
    /// Per-server FIFO of forwarded-but-unanswered requests, used to
    /// attribute an observed crash to the request that caused it. The
    /// client name is shared across the per-server queues and, through
    /// `names`, across requests (one allocation per client, not one per
    /// forwarded request).
    outstanding: Vec<VecDeque<(Arc<str>, u64)>>,
    /// Every client name forwarded or answered for so far.
    names: HashSet<Arc<str>>,
    /// Requests already logged as invalid — one broadcast probe crashes
    /// every server, but it is still a single invalid request. Kept like
    /// `responded`.
    logged: HashMap<Arc<str>, SeqLog>,
    forwarded: u64,
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
        let servers = ns.ns();
        Proxy {
            name: name.to_owned(),
            signer,
            authority,
            ns,
            log: ProbeLog::new(policy),
            now: 0,
            responded: HashMap::new(),
            outstanding: vec![VecDeque::new(); servers],
            names: HashSet::new(),
            logged: HashMap::new(),
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
        self.responded.clear();
        for q in &mut self.outstanding {
            q.clear();
        }
        self.names.clear();
        self.logged.clear();
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
        let client = self.intern(client);
        for q in &mut self.outstanding {
            q.push_back((Arc::clone(&client), seq));
        }
        true
    }

    /// The one shared copy of `client`'s name.
    fn intern(&mut self, client: &str) -> Arc<str> {
        match self.names.get(client) {
            Some(known) => Arc::clone(known),
            None => {
                let fresh: Arc<str> = Arc::from(client);
                self.names.insert(Arc::clone(&fresh));
                fresh
            }
        }
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
        let (client, seq) = (reply.client, reply.request_seq);
        // What can this reply change? It settles an outstanding entry at
        // this server, or it is the first answer for its request. When it
        // is neither, authentic and forged alike leave every field and the
        // output as they are, so the MAC is not computed. (A name never
        // forwarded or answered for is in neither table.)
        let settles = |(c, s): &(Arc<str>, u64)| (&**c, *s) == (client, seq);
        let answered = self.responded.get(client).is_some_and(|log| log.contains(seq));
        if answered && !self.outstanding[server_index].iter().any(settles) {
            return None;
        }
        // Authenticity, the signature: before the settle and before the
        // over-signature, both of which only an authentic reply may cause.
        if !reply.verify(&self.authority) {
            return None;
        }
        // The server answered: its outstanding entry is settled.
        self.outstanding[server_index].retain(|entry| !settles(entry));
        if answered {
            // Over-sign any ONE authentic response (§3); the rest are noise.
            return None;
        }
        let name = self.intern(client);
        note(&mut self.responded, name, seq);
        Some(self.signer.sign(reply.frame))
    }

    fn on_server_closed(&mut self, server_index: usize) -> Vec<ProxyOutput> {
        if server_index >= self.outstanding.len() {
            return Vec::new();
        }
        // Attribute the crash to the oldest unanswered request at that
        // server: that is the request whose processing killed the child.
        let Some((client, seq)) = self.outstanding[server_index].pop_front() else {
            return Vec::new();
        };
        if !note(&mut self.logged, Arc::clone(&client), seq) {
            // The same broadcast probe already killed another server; one
            // request counts once.
            return Vec::new();
        }
        let was_suspicious = self.log.is_suspicious(&client);
        self.log.record_invalid(&client, self.now);
        if !was_suspicious && self.log.is_suspicious(&client) {
            return vec![ProxyOutput::Suspect {
                source: client.to_string(),
            }];
        }
        Vec::new()
    }
}

/// Adds `seq` to `client`'s log in `table`; whether it was new.
fn note(table: &mut HashMap<Arc<str>, SeqLog>, client: Arc<str>, seq: u64) -> bool {
    table.entry(client).or_default().insert(seq, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(f.proxy.outstanding.iter().all(|q| q.len() == 1));
    }

    /// A forward feeds the whole bookkeeping: forwards count up, crash
    /// attribution works (the outstanding queues are fed), and a flagged
    /// source is cut off.
    #[test]
    fn should_forward_mirrors_on_client_request() {
        let mut f = fixture();
        assert!(f.proxy.should_forward("alice", 1));
        assert_eq!(f.proxy.forwarded(), 1);
        // The outstanding entry was recorded: a crash right after the
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
        response
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
            // The `(client, seq)` pairs a table holds, of the ones driven.
            let kept = |table: &HashMap<Arc<str>, SeqLog>| {
                let pairs = ["alice", "bob"].into_iter().flat_map(|c| (1..=5).map(move |s| (c, s)));
                let held = |(c, s): &(&str, u64)| table.get(*c).is_some_and(|log| log.contains(*s));
                pairs.filter(held).collect::<Vec<_>>()
            };
            assert_eq!(
                (&a.outstanding, kept(&a.responded), &a.names, kept(&a.logged), a.forwarded),
                (&b.outstanding, kept(&b.responded), &b.names, kept(&b.logged), b.forwarded),
                "step {step}, after {given:?}"
            );
            for client in ["alice", "bob"] {
                assert_eq!(a.log.window_count(client), b.log.window_count(client));
            }
        }
        assert!(!borrowed.proxy.responded.is_empty() && !borrowed.proxy.logged.is_empty());
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
