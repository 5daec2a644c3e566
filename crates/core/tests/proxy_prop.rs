//! Properties of the proxy's reply handling, over random interleavings of
//! forwards, authentic replies, forged replies, server closures and ticks.
//!
//! The proxy computes a reply's MAC only when the verdict could change a
//! field or an output, so the properties are stated on what is observable
//! and checked against a model that holds nothing but the paper's rules
//! (§3), applied per step: a request forwarded this step is outstanding at
//! every server until that server answers it or closes on it, and
//! forwarding it again within the step makes it outstanding at every
//! server again; one authentic reply per request and step is over-signed;
//! a closure is charged to the oldest request outstanding at that server,
//! once per request and step. A tick starts a new step with nothing
//! outstanding, answered or charged.
//!
//! * A forged reply never yields an output and never changes which request
//!   the next closure at its server is charged to, whether or not it names
//!   an outstanding entry and whether or not its request is answered.
//! * An authentic reply settles exactly its own entry and is over-signed
//!   exactly once per `(client, seq)` and step.
//!
//! The rule has one body, `Proxy::on_server_reply` on a reply still in its
//! frame, which is what the stack calls; `ProxyInput::ServerReply` is the
//! same call on an owned reply. Every history is driven through both, on
//! two proxies, and after every input the two must have given the same
//! output (the response frame the stack would send, byte for byte) and
//! hold the same probe log.

use std::sync::Arc;

use fortress_core::messages::{ProxyResponse, ProxyResponseRef};
use fortress_core::nameserver::{NameServer, ReplicationType};
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::proxy::{Proxy, ProxyInput, ProxyOutput};
use fortress_crypto::sig::{Signature, Signer};
use fortress_crypto::KeyAuthority;
use fortress_replication::message::{ReplyBody, SignedReply, SignedReplyRef};
use proptest::prelude::*;

const SERVERS: usize = 3;
/// The random operations draw from the first three; `TARGET` is touched by
/// the staged operations only, `GHOST` is never forwarded for.
const CLIENTS: [&str; 5] = ["c0", "c1", "c2", "target", "ghost"];
const TARGET: usize = 3;
const GHOST: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Forgery {
    /// The right name and index over a tag that does not verify.
    BadTag,
    /// Another server's authentic signature under this server's index.
    WrongSigner,
    /// This server's name over a body that carries another index.
    IndexMismatch,
    /// A bad tag for a client the proxy never forwarded for.
    UnknownClient,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Forward { client: usize, seq: u64 },
    Authentic { server: usize, client: usize, seq: u64 },
    Forged { kind: Forgery, server: usize, client: usize, seq: u64 },
    Closed { server: usize },
    Tick,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..9, 0usize..SERVERS, 0usize..3, 1u64..5, 0usize..4).prop_map(
        |(what, server, client, seq, kind)| match what {
            0 | 1 => Op::Forward { client, seq },
            2 | 3 => Op::Authentic { server, client, seq },
            4 => Op::Forged { kind: forgery(kind), server, client, seq },
            5 | 6 => Op::Closed { server },
            _ => Op::Tick,
        },
    )
}

fn forgery(kind: usize) -> Forgery {
    [Forgery::BadTag, Forgery::WrongSigner, Forgery::IndexMismatch, Forgery::UnknownClient][kind]
}

/// A request of the current step in the model: which servers it is
/// outstanding at, whether it was over-signed and whether it was charged.
struct Request {
    client: usize,
    seq: u64,
    outstanding: [bool; SERVERS],
    answered: bool,
    charged: bool,
}

/// The proxy under test, twice (`proxy` takes replies in their frames as
/// the stack gives them, `owned` takes `ProxyInput::ServerReply`), beside
/// the model of §3's rules.
struct Harness {
    authority: Arc<KeyAuthority>,
    servers: Vec<Signer>,
    proxy: Proxy,
    owned: Proxy,
    /// This step's requests, in the order they were first forwarded or
    /// answered.
    step: Vec<Request>,
    now: u64,
    strikes: [usize; CLIENTS.len()],
}

impl Harness {
    fn new() -> Harness {
        let authority = Arc::new(KeyAuthority::with_seed(5));
        let mut ns = NameServer::builder().proxy("proxy-0");
        for i in 0..SERVERS {
            ns = ns.server(&format!("server-{i}"));
        }
        let ns = ns.replication(ReplicationType::PrimaryBackup).build().unwrap();
        let servers = (0..SERVERS)
            .map(|i| Signer::register(&format!("server-{i}"), &authority))
            .collect();
        // Nobody is ever flagged: every forward goes through and every
        // charge shows in `window_count`.
        let policy = SuspicionPolicy { window: u64::MAX, threshold: u32::MAX };
        let signer = Signer::register("proxy-0", &authority);
        let proxy = || Proxy::new("proxy-0", signer.clone(), Arc::clone(&authority), ns.clone(), policy);
        Harness {
            proxy: proxy(),
            owned: proxy(),
            authority,
            servers,
            step: Vec::new(),
            now: 0,
            strikes: [0; CLIENTS.len()],
        }
    }

    fn signed(&self, signer: usize, index: usize, client: usize, seq: u64) -> SignedReply {
        let reply = ReplyBody {
            request_seq: seq,
            client: CLIENTS[client].into(),
            body: b"VALUE v".to_vec(),
            server_index: index as u32,
        };
        SignedReply::sign(reply, &self.servers[signer])
    }

    fn forged(&self, kind: Forgery, server: usize, client: usize, seq: u64) -> SignedReply {
        let other = (server + 1) % SERVERS;
        let bad_tag = |mut reply: SignedReply| {
            reply.signature = Signature::forged(&format!("server-{server}"));
            reply
        };
        match kind {
            Forgery::BadTag => bad_tag(self.signed(server, server, client, seq)),
            Forgery::WrongSigner => self.signed(other, server, client, seq),
            Forgery::IndexMismatch => bad_tag(self.signed(server, other, client, seq)),
            Forgery::UnknownClient => bad_tag(self.signed(server, server, GHOST, seq)),
        }
    }

    /// Gives `reply` to both proxies, each through its entry, and returns
    /// the one output after checking that they agree: where the adapter
    /// says `ToClient`, the rule returned the over-signature under which
    /// the stack sends the reply's own frame, and that is the same frame.
    fn reply_to_both(&mut self, server: usize, reply: SignedReply) -> Vec<ProxyOutput> {
        let frame = reply.encode();
        let view = SignedReplyRef::decode(&frame).expect("an encoded reply decodes");
        let proxy_sig = self.proxy.on_server_reply(server, view);
        let outs = self.owned.on_input(ProxyInput::ServerReply { server_index: server, reply });
        match (&proxy_sig, &outs[..]) {
            (None, []) => {}
            (Some(proxy_sig), [ProxyOutput::ToClient { client, response }]) => {
                assert_eq!(client, view.client);
                let sent = ProxyResponseRef { reply: view, proxy_sig: proxy_sig.view() };
                assert_eq!(sent.encode_reusing(Vec::new()), response.encode());
            }
            _ => panic!("the rule returned {proxy_sig:?}, its owned arm {outs:?}"),
        }
        outs
    }

    /// The model's request `(client, seq)` of this step, entered if new.
    fn request(&mut self, client: usize, seq: u64) -> &mut Request {
        let at = self.step.iter().position(|r| (r.client, r.seq) == (client, seq));
        let at = at.unwrap_or_else(|| {
            let outstanding = [false; SERVERS];
            self.step.push(Request { client, seq, outstanding, answered: false, charged: false });
            self.step.len() - 1
        });
        &mut self.step[at]
    }

    /// Whether the model has a request outstanding at `server`.
    fn outstanding_at(&self, server: usize) -> bool {
        self.step.iter().any(|r| r.outstanding[server])
    }

    /// Applies `op` to the proxies and the model and compares what shows.
    fn apply(&mut self, op: Op) {
        match op {
            Op::Forward { client, seq } => {
                assert!(self.proxy.should_forward(CLIENTS[client], seq));
                assert!(self.owned.should_forward(CLIENTS[client], seq));
                self.request(client, seq).outstanding = [true; SERVERS];
            }
            Op::Authentic { server, client, seq } => {
                let reply = self.signed(server, server, client, seq);
                let outs = self.reply_to_both(server, reply);
                let request = self.request(client, seq);
                request.outstanding[server] = false;
                if std::mem::replace(&mut request.answered, true) {
                    assert!(outs.is_empty(), "{op:?} over-signed a second time: {outs:?}");
                    return;
                }
                let [ProxyOutput::ToClient { client: to, response }] = &outs[..] else {
                    panic!("{op:?} is a first answer and gave {outs:?}");
                };
                assert_eq!(to, CLIENTS[client]);
                assert_eq!(response.reply.reply.request_seq, seq);
                self.verify(response);
            }
            Op::Forged { kind, server, client, seq } => {
                let reply = self.forged(kind, server, client, seq);
                let outs = self.reply_to_both(server, reply);
                assert!(outs.is_empty(), "{op:?} yielded {outs:?}");
            }
            Op::Closed { server } => {
                let closed = ProxyInput::ServerClosed { server_index: server };
                assert!(self.proxy.on_input(closed.clone()).is_empty());
                assert!(self.owned.on_input(closed).is_empty());
                if let Some(oldest) = self.step.iter_mut().find(|r| r.outstanding[server]) {
                    oldest.outstanding[server] = false;
                    if !std::mem::replace(&mut oldest.charged, true) {
                        self.strikes[oldest.client] += 1;
                    }
                }
            }
            Op::Tick => {
                self.now += 1;
                let tick = ProxyInput::Tick { now: self.now };
                assert!(self.proxy.on_input(tick.clone()).is_empty());
                assert!(self.owned.on_input(tick).is_empty());
                self.step.clear();
            }
        }
        for (client, strikes) in CLIENTS.iter().zip(self.strikes) {
            for proxy in [&self.proxy, &self.owned] {
                assert_eq!(proxy.log().window_count(client), strikes, "{client} after {op:?}");
            }
        }
        assert_eq!(self.proxy.forwarded(), self.owned.forwarded());
    }

    fn verify(&self, response: &ProxyResponse) {
        let servers: Vec<String> = self.servers.iter().map(|s| s.name().to_owned()).collect();
        response
            .verify(&self.authority, &servers, &["proxy-0".to_owned()])
            .expect("an over-signed response carries two authentic signatures");
    }
}

proptest! {
    /// A random history, then a forgery staged in a chosen state of
    /// (names an outstanding entry × its request is answered), then more
    /// history that ends with every server's outstanding requests closed
    /// on: each closure along the way is charged as the model says, so the
    /// forgery moved nothing.
    #[test]
    fn a_forged_reply_changes_nothing_and_an_authentic_one_only_its_own(
        before in proptest::collection::vec(op(), 0..40),
        settles in any::<bool>(),
        answered in any::<bool>(),
        kind in 0usize..4,
        server in 0usize..SERVERS,
        after in proptest::collection::vec(op(), 0..40),
    ) {
        let mut h = Harness::new();
        for op in before {
            h.apply(op);
        }
        let elsewhere = (server + 1) % SERVERS;
        match (settles, answered) {
            (false, false) => {}
            (true, false) => h.apply(Op::Forward { client: TARGET, seq: 9 }),
            (true, true) => {
                h.apply(Op::Forward { client: TARGET, seq: 9 });
                h.apply(Op::Authentic { server: elsewhere, client: TARGET, seq: 9 });
            }
            (false, true) => {
                h.apply(Op::Forward { client: TARGET, seq: 9 });
                h.apply(Op::Authentic { server, client: TARGET, seq: 9 });
            }
        }
        h.apply(Op::Forged { kind: forgery(kind), server, client: TARGET, seq: 9 });
        for op in after {
            h.apply(op);
        }
        for server in 0..SERVERS {
            while h.outstanding_at(server) {
                h.apply(Op::Closed { server });
            }
        }
    }
}
