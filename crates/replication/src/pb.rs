//! The primary-backup replication engine.
//!
//! "Here, one replica, called the primary, does processing and provides
//! state updates to other replicas that act as backups … Should the primary
//! node crash, it is detected and one of the backup servers becomes the new
//! primary" (paper §1, Definition 2). Per the FORTRESS client–server
//! interaction (§3): the primary processes each *unique* request (at-most-
//! once semantics), sends the resolved update to all backups, and **every**
//! server signs the response together with its index and returns it to
//! every submitter. A further copy of the request (one per proxy, or a
//! retransmission) is answered with the bytes first sent: the
//! at-most-once table keeps every answer's body and each client's latest
//! tag, and an older answer is signed again, to the same tag, since
//! HMAC-SHA256 is deterministic and the key has not changed.
//!
//! The engine is sans-I/O: feed it [`PbInput`]s, collect [`PbOutput`]s.
//! Views rotate on failover: the primary of view `v` is replica `v % n`.
//! Failure detection is heartbeat-based; a backup that misses heartbeats
//! long enough — and is next in line — promotes itself and announces
//! `NewView`.

use std::collections::BTreeMap;

use fortress_crypto::sig::Signer;

use crate::message::{Answers, PbMsg, ReplyBody, SignedReply};
use crate::service::Service;

/// Static configuration of a PB group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PbConfig {
    /// Number of replicas (the paper's S1 uses 3).
    pub n: usize,
    /// Primary sends a heartbeat every this many ticks.
    pub heartbeat_interval: u64,
    /// A backup suspects the primary after this much heartbeat silence.
    pub failover_timeout: u64,
}

impl Default for PbConfig {
    fn default() -> Self {
        PbConfig {
            n: 3,
            heartbeat_interval: 5,
            failover_timeout: 20,
        }
    }
}

/// Inputs to the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbInput {
    /// A request from a client or proxy (broadcast to all replicas).
    Request {
        /// Client-chosen request sequence number.
        seq: u64,
        /// Requesting client.
        client: String,
        /// Service operation.
        op: Vec<u8>,
    },
    /// A protocol message from replica `from`, already authenticated by the
    /// transport harness.
    ReplicaMsg {
        /// Authenticated sender index.
        from: usize,
        /// The message.
        msg: PbMsg,
    },
    /// Logical clock tick.
    Tick {
        /// Current time.
        now: u64,
    },
}

/// Outputs of the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbOutput {
    /// Send `msg` to every other replica.
    Broadcast(PbMsg),
    /// Send a signed response toward the submitters (clients or proxies);
    /// the harness routes it.
    Reply(SignedReply),
}

/// One primary-backup replica.
///
/// # Example
///
/// ```
/// use fortress_crypto::{KeyAuthority, Signer};
/// use fortress_replication::pb::{PbConfig, PbInput, PbOutput, PbReplica};
/// use fortress_replication::service::KvStore;
///
/// let authority = KeyAuthority::with_seed(1);
/// let signer = Signer::register("server-0", &authority);
/// let mut primary = PbReplica::new(PbConfig::default(), 0, KvStore::new(), signer);
/// let outputs = primary.on_input(PbInput::Request {
///     seq: 1, client: "alice".into(), op: b"PUT k v".to_vec(),
/// });
/// // The primary replies AND broadcasts a state update to the backups.
/// assert!(outputs.iter().any(|o| matches!(o, PbOutput::Reply(_))));
/// assert!(outputs.iter().any(|o| matches!(o, PbOutput::Broadcast(_))));
/// ```
#[derive(Debug)]
pub struct PbReplica<S> {
    cfg: PbConfig,
    index: usize,
    service: S,
    signer: Signer,
    view: u64,
    /// Last applied state-update sequence number.
    seq: u64,
    now: u64,
    last_primary_sign_of_life: u64,
    last_heartbeat_sent: u64,
    /// `client → request seq →` the body this replica signed, and the
    /// client's latest tag, for at-most-once.
    executed: Answers,
    /// Out-of-order update buffer keyed by sequence number.
    pending_updates: BTreeMap<u64, PbMsg>,
    replies_sent: u64,
}

impl<S: Service> PbReplica<S> {
    /// Creates replica `index` of a group of `cfg.n`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= cfg.n` or `cfg.n == 0` — assembly-time bugs.
    pub fn new(cfg: PbConfig, index: usize, service: S, signer: Signer) -> PbReplica<S> {
        assert!(cfg.n > 0, "group must be non-empty");
        assert!(index < cfg.n, "index out of range");
        PbReplica {
            cfg,
            index,
            service,
            signer,
            view: 0,
            seq: 0,
            now: 0,
            last_primary_sign_of_life: 0,
            last_heartbeat_sent: 0,
            executed: Answers::default(),
            pending_updates: BTreeMap::new(),
            replies_sent: 0,
        }
    }

    /// Rewinds to the just-constructed state with a fresh service and
    /// credentials, keeping map capacity — the trial-arena reset path.
    /// Behaves exactly like `PbReplica::new(cfg, index, service, signer)`
    /// with this replica's `cfg` and `index`.
    pub fn reset(&mut self, service: S, signer: Signer) {
        self.service = service;
        self.signer = signer;
        self.view = 0;
        self.seq = 0;
        self.now = 0;
        self.last_primary_sign_of_life = 0;
        self.last_heartbeat_sent = 0;
        self.executed.clear();
        self.pending_updates.clear();
        self.replies_sent = 0;
    }

    /// This replica's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.view as usize % self.cfg.n == self.index
    }

    /// Last applied state-update sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Signed replies emitted so far.
    pub fn replies_sent(&self) -> u64 {
        self.replies_sent
    }

    /// Immutable access to the replicated service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Feeds one input, returning the outputs it provokes.
    pub fn on_input(&mut self, input: PbInput) -> Vec<PbOutput> {
        match input {
            PbInput::Request { seq, client, op } => self.on_request(seq, &client, &op),
            PbInput::ReplicaMsg { from, msg } => self.on_replica_msg(from, msg),
            PbInput::Tick { now } => self.on_tick(now),
        }
    }

    fn reply_body(&self, request_seq: u64, client: &str, body: Vec<u8>) -> ReplyBody {
        ReplyBody {
            request_seq,
            client: client.to_owned(),
            body,
            server_index: self.index as u32,
        }
    }

    /// Signs this replica's response to `(client, request_seq)` and keeps
    /// its body and, as the client's latest, its tag: a later copy of the
    /// request replays the same bytes.
    fn answer(&mut self, request_seq: u64, client: &str, body: Vec<u8>) -> PbOutput {
        self.replies_sent += 1;
        let reply = self.reply_body(request_seq, client, body);
        PbOutput::Reply(self.executed.sign(reply, &self.signer))
    }

    /// [`PbInput::Request`] for a request still lying in the frame it
    /// arrived in, and the one body of the request rule: a backup returns
    /// before it owns anything, a replay owns only the reply it sends, and
    /// the primary copies `client` and `op` where it executes.
    pub fn on_request(&mut self, seq: u64, client: &str, op: &[u8]) -> Vec<PbOutput> {
        if !self.is_primary() {
            // Backups ignore requests; they answer via state updates.
            return Vec::new();
        }
        // At-most-once: replay the response as first signed (by this
        // replica as primary, or when it applied the update as a backup).
        if let Some(reply) = self.executed.replay(seq, client, self.index as u32, &self.signer) {
            self.replies_sent += 1;
            return vec![PbOutput::Reply(reply)];
        }
        let (response, delta) = self.service.execute(op);
        self.seq += 1;
        let update = PbMsg::StateUpdate {
            view: self.view,
            seq: self.seq,
            request_seq: seq,
            client: client.to_owned(),
            response: response.clone(),
            delta,
        };
        // Update first, then reply: backups learn the state no later than
        // the client learns the response.
        vec![
            PbOutput::Broadcast(update),
            self.answer(seq, client, response),
        ]
    }

    fn on_replica_msg(&mut self, from: usize, msg: PbMsg) -> Vec<PbOutput> {
        match msg {
            PbMsg::StateUpdate { view, seq, .. } if view == self.view => {
                if from != self.view as usize % self.cfg.n {
                    return Vec::new(); // not from the primary of this view
                }
                self.last_primary_sign_of_life = self.now;
                self.pending_updates.insert(seq, msg);
                self.apply_ready_updates()
            }
            PbMsg::StateUpdate { view, seq, .. } if view > self.view => {
                // A primary of a later view exists; adopt its view.
                if from == view as usize % self.cfg.n {
                    self.view = view;
                    self.last_primary_sign_of_life = self.now;
                    self.pending_updates.insert(seq, msg);
                    return self.apply_ready_updates();
                }
                Vec::new()
            }
            PbMsg::StateUpdate { .. } => Vec::new(), // stale view
            PbMsg::Heartbeat { view, .. } => {
                if view >= self.view && from == view as usize % self.cfg.n {
                    self.view = view;
                    self.last_primary_sign_of_life = self.now;
                }
                Vec::new()
            }
            PbMsg::NewView { view, .. } => {
                if view > self.view && from == view as usize % self.cfg.n {
                    self.view = view;
                    self.last_primary_sign_of_life = self.now;
                }
                Vec::new()
            }
        }
    }

    /// Applies buffered updates in sequence order; each application answers
    /// the corresponding client with this backup's own signed response.
    fn apply_ready_updates(&mut self) -> Vec<PbOutput> {
        let mut outputs = Vec::new();
        while let Some(update) = self.pending_updates.remove(&(self.seq + 1)) {
            if let PbMsg::StateUpdate {
                seq,
                request_seq,
                client,
                response,
                delta,
                ..
            } = update
            {
                self.service.apply_delta(&delta);
                self.seq = seq;
                outputs.push(self.answer(request_seq, &client, response));
            }
        }
        outputs
    }

    fn on_tick(&mut self, now: u64) -> Vec<PbOutput> {
        self.now = now;
        if self.is_primary() {
            if now.saturating_sub(self.last_heartbeat_sent) >= self.cfg.heartbeat_interval {
                self.last_heartbeat_sent = now;
                return vec![PbOutput::Broadcast(PbMsg::Heartbeat {
                    view: self.view,
                    seq: self.seq,
                })];
            }
            return Vec::new();
        }
        // Backup: count how many failover timeouts have elapsed unheard;
        // each one deposes one more candidate, so a dead next-in-line does
        // not wedge the group.
        let silence = now.saturating_sub(self.last_primary_sign_of_life);
        let views_missed = silence / self.cfg.failover_timeout;
        if views_missed == 0 {
            return Vec::new();
        }
        let candidate = self.view + views_missed;
        if candidate as usize % self.cfg.n == self.index {
            self.view = candidate;
            self.last_primary_sign_of_life = now;
            self.last_heartbeat_sent = now;
            return vec![PbOutput::Broadcast(PbMsg::NewView {
                view: self.view,
                seq: self.seq,
            })];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SignedReplyRef;
    use crate::service::KvStore;
    use fortress_crypto::hmac::macs_computed;
    use fortress_crypto::KeyAuthority;

    fn group(n: usize) -> (KeyAuthority, Vec<PbReplica<KvStore>>) {
        let authority = KeyAuthority::with_seed(42);
        let cfg = PbConfig {
            n,
            heartbeat_interval: 5,
            failover_timeout: 20,
        };
        let replicas = (0..n)
            .map(|i| {
                let signer = Signer::register(&format!("pb-server-{i}"), &authority);
                PbReplica::new(cfg, i, KvStore::new(), signer)
            })
            .collect();
        (authority, replicas)
    }

    /// Routes a batch of outputs from `from` into the other replicas,
    /// returning all replies produced anywhere.
    fn route(
        replicas: &mut [PbReplica<KvStore>],
        from: usize,
        outputs: Vec<PbOutput>,
    ) -> Vec<SignedReply> {
        let mut replies = Vec::new();
        for out in outputs {
            match out {
                PbOutput::Reply(r) => replies.push(r),
                PbOutput::Broadcast(msg) => {
                    for i in 0..replicas.len() {
                        if i == from {
                            continue;
                        }
                        let sub = replicas[i].on_input(PbInput::ReplicaMsg {
                            from,
                            msg: msg.clone(),
                        });
                        replies.extend(route(replicas, i, sub));
                    }
                }
            }
        }
        replies
    }

    #[test]
    fn all_three_replicas_answer_each_request() {
        let (authority, mut replicas) = group(3);
        let outs = replicas[0].on_input(PbInput::Request {
            seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        });
        let replies = route(&mut replicas, 0, outs);
        assert_eq!(replies.len(), 3, "primary + 2 backups reply");
        let indices: Vec<u32> = replies.iter().map(|r| r.reply.server_index).collect();
        assert!(indices.contains(&0) && indices.contains(&1) && indices.contains(&2));
        for r in &replies {
            assert!(SignedReplyRef::decode(&r.encode()).unwrap().verify(&authority));
            assert_eq!(r.reply.body, b"OK");
        }
        // Backups converged on the primary's state.
        assert_eq!(replicas[0].service().digest(), replicas[1].service().digest());
        assert_eq!(replicas[1].service().digest(), replicas[2].service().digest());
    }

    #[test]
    fn backups_ignore_direct_requests() {
        let (_, mut replicas) = group(3);
        let outs = replicas[1].on_input(PbInput::Request {
            seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        });
        assert!(outs.is_empty());
    }

    /// The two ways a request reaches a replica: in the frame it arrived in
    /// (what the stack calls) and owned, as [`PbInput::Request`].
    type Entry = fn(&mut PbReplica<KvStore>, u64, &str, &[u8]) -> Vec<PbOutput>;
    const ENTRIES: [Entry; 2] = [
        |replica, seq, client, op| replica.on_request(seq, client, op),
        |replica, seq, client, op| {
            replica.on_input(PbInput::Request { seq, client: client.into(), op: op.to_vec() })
        },
    ];

    /// One request reaches the primary once per proxy, and again when a
    /// client retransmits: every copy after the first is answered with the
    /// bytes of the first answer, neither re-executed nor re-signed,
    /// through either entry.
    #[test]
    fn at_most_once_semantics() {
        for (first_entry, copy_entry) in [(0, 0), (1, 1), (0, 1), (1, 0)] {
            let (authority, mut replicas) = group(3);
            let first = ENTRIES[first_entry](&mut replicas[0], 7, "bob", b"PUT x 1");
            let [PbOutput::Broadcast(_), PbOutput::Reply(signed)] = &first[..] else {
                panic!("an update and a reply, got {first:?}");
            };
            let signed = signed.clone();
            assert!(SignedReplyRef::decode(&signed.encode()).unwrap().verify(&authority));
            route(&mut replicas, 0, first);
            let seq_after = replicas[0].seq();
            for _ in 0..2 {
                let copy = ENTRIES[copy_entry](&mut replicas[0], 7, "bob", b"PUT x 1");
                assert_eq!(replicas[0].seq(), seq_after, "no new state update");
                let [PbOutput::Reply(replayed)] = &copy[..] else {
                    panic!("reply only, no broadcast, got {copy:?}");
                };
                assert_eq!(replayed.encode(), signed.encode(), "a replay is byte-identical");
            }
            assert_eq!(replicas[0].replies_sent(), 3);
        }
    }

    /// A client picks its own seqs: the edges, a descending run, a gap a
    /// late request fills and a far gap are each answered once and then
    /// replayed byte for byte, however the reply cache stores them.
    #[test]
    fn a_replay_holds_for_any_seq() {
        let (_, mut replicas) = group(3);
        let seqs = [u64::MAX, 0, 1 << 40, 9, 8, 7, 12, 10, 1 << 50];
        let mut first = Vec::new();
        for seq in seqs {
            let outs = replicas[0].on_request(seq, "eve", b"PUT x 1");
            let [PbOutput::Broadcast(_), PbOutput::Reply(signed)] = &outs[..] else {
                panic!("seq {seq}: an update and a reply, got {outs:?}");
            };
            first.push(signed.encode());
            route(&mut replicas, 0, outs);
        }
        for (seq, signed) in seqs.into_iter().zip(first) {
            let outs = replicas[0].on_request(seq, "eve", b"PUT x 1");
            let [PbOutput::Reply(replayed)] = &outs[..] else {
                panic!("seq {seq}: a replay only, got {outs:?}");
            };
            assert_eq!(replayed.encode(), signed, "seq {seq}");
        }
    }

    /// Two clients' answers interleave in one table. A replay of a
    /// client's latest answer reads its kept tag and computes no MAC; a
    /// replay of an older one signs the kept body again, one MAC. Both
    /// are the bytes first sent, and an older replay leaves the latest
    /// tag where it was.
    #[test]
    fn a_replay_reads_the_latest_tag_and_re_signs_an_older_one() {
        let (_, mut replicas) = group(3);
        let mut first = BTreeMap::new();
        for seq in 1..=3 {
            for client in ["ann", "bob"] {
                let outs = replicas[0].on_request(seq, client, b"PUT x 1");
                let [PbOutput::Broadcast(_), PbOutput::Reply(signed)] = &outs[..] else {
                    panic!("{client} {seq}: an update and a reply, got {outs:?}");
                };
                first.insert((client, seq), signed.encode());
                route(&mut replicas, 0, outs);
            }
        }
        // (client, seq, MACs its replay computes), the two clients'
        // latest answers between their older ones.
        let replays = [
            ("ann", 3, 0),
            ("bob", 1, 1),
            ("bob", 3, 0),
            ("ann", 2, 1),
            ("ann", 3, 0),
            ("bob", 2, 1),
            ("bob", 3, 0),
        ];
        for (client, seq, macs) in replays {
            let before = macs_computed();
            let outs = replicas[0].on_request(seq, client, b"PUT x 1");
            let computed = macs_computed() - before;
            let [PbOutput::Reply(replayed)] = &outs[..] else {
                panic!("{client} {seq}: a replay only, got {outs:?}");
            };
            assert_eq!(replayed.encode(), first[&(client, seq)], "{client} {seq}");
            assert_eq!(computed, macs, "{client} {seq}: MACs computed");
        }
    }

    /// What a backup keeps is the reply *it* signed when it applied the
    /// update, so after promotion it replays under its own name and index,
    /// not the old primary's, through either entry.
    #[test]
    fn a_promoted_backup_replays_its_own_signature() {
        for entry in ENTRIES {
            let (authority, mut replicas) = group(3);
            let outs = entry(&mut replicas[0], 1, "c", b"PUT a 1");
            let first = route(&mut replicas, 0, outs);
            replicas[1].on_input(PbInput::Tick { now: 25 });
            assert!(replicas[1].is_primary());
            let seq_before = replicas[1].seq();
            let outs = entry(&mut replicas[1], 1, "c", b"PUT a 1");
            let [PbOutput::Reply(replayed)] = &outs[..] else {
                panic!("a replay is a reply and nothing else, got {outs:?}");
            };
            assert_eq!(replicas[1].seq(), seq_before, "not re-executed");
            assert_eq!(replayed.reply.server_index, 1);
            assert_eq!(replayed.signature.signer(), "pb-server-1");
            assert!(SignedReplyRef::decode(&replayed.encode()).unwrap().verify(&authority));
            assert!(first.contains(replayed), "the reply it signed as a backup");
        }
    }

    #[test]
    fn out_of_order_updates_apply_in_order() {
        let (_, mut replicas) = group(2);
        // Drive the primary through 3 requests, collecting its updates.
        let mut updates = Vec::new();
        for (i, op) in [b"PUT a 1".as_slice(), b"PUT b 2", b"DEL a"].iter().enumerate() {
            let outs = replicas[0].on_input(PbInput::Request {
                seq: i as u64 + 1,
                client: "c".into(),
                op: op.to_vec(),
            });
            for o in outs {
                if let PbOutput::Broadcast(m @ PbMsg::StateUpdate { .. }) = o {
                    updates.push(m);
                }
            }
        }
        // Deliver to the backup in reverse order.
        let mut replies = 0;
        for msg in updates.into_iter().rev() {
            let outs = replicas[1].on_input(PbInput::ReplicaMsg { from: 0, msg });
            replies += outs.len();
        }
        assert_eq!(replies, 3, "all applied once the gap filled");
        assert_eq!(replicas[0].service().digest(), replicas[1].service().digest());
    }

    #[test]
    fn heartbeats_emitted_by_primary_only() {
        let (_, mut replicas) = group(3);
        let outs = replicas[0].on_input(PbInput::Tick { now: 10 });
        assert!(matches!(&outs[..], [PbOutput::Broadcast(PbMsg::Heartbeat { .. })]));
        let outs = replicas[1].on_input(PbInput::Tick { now: 10 });
        assert!(outs.is_empty());
    }

    #[test]
    fn failover_promotes_next_in_line() {
        let (_, mut replicas) = group(3);
        // Backup 1 hears nothing for 25 ticks (> timeout 20).
        let outs = replicas[1].on_input(PbInput::Tick { now: 25 });
        assert!(
            matches!(&outs[..], [PbOutput::Broadcast(PbMsg::NewView { view: 1, .. })]),
            "{outs:?}"
        );
        assert!(replicas[1].is_primary());
        // Backup 2 is not next in line at view 1, so it stays quiet.
        let outs = replicas[2].on_input(PbInput::Tick { now: 25 });
        assert!(outs.is_empty());
        // Replica 2 accepts the announcement.
        let nv = PbMsg::NewView { view: 1, seq: 0 };
        replicas[2].on_input(PbInput::ReplicaMsg { from: 1, msg: nv });
        assert_eq!(replicas[2].view(), 1);
    }

    #[test]
    fn double_failure_skips_to_replica_two() {
        let (_, mut replicas) = group(3);
        // Silence long enough for two failover timeouts: views 1 and 2 are
        // due; replica 2 = 2 % 3 promotes itself directly.
        let outs = replicas[2].on_input(PbInput::Tick { now: 45 });
        assert!(
            matches!(&outs[..], [PbOutput::Broadcast(PbMsg::NewView { view: 2, .. })]),
            "{outs:?}"
        );
        assert!(replicas[2].is_primary());
    }

    #[test]
    fn new_primary_serves_requests_after_failover() {
        let (_, mut replicas) = group(3);
        // Process one request normally.
        let outs = replicas[0].on_input(PbInput::Request {
            seq: 1,
            client: "c".into(),
            op: b"PUT a 1".to_vec(),
        });
        route(&mut replicas, 0, outs);
        // Primary 0 dies; replica 1 takes over.
        replicas[1].on_input(PbInput::Tick { now: 25 });
        assert!(replicas[1].is_primary());
        // New primary executes on top of the replicated state.
        let outs = replicas[1].on_input(PbInput::Request {
            seq: 2,
            client: "c".into(),
            op: b"GET a".to_vec(),
        });
        let reply = outs
            .iter()
            .find_map(|o| match o {
                PbOutput::Reply(r) => Some(r.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(reply.reply.body, b"VALUE 1", "state survived failover");
    }

    #[test]
    fn stale_primary_updates_rejected_after_view_change() {
        let (_, mut replicas) = group(3);
        // Replica 2 has moved to view 1.
        replicas[2].on_input(PbInput::ReplicaMsg {
            from: 1,
            msg: PbMsg::NewView { view: 1, seq: 0 },
        });
        // Old primary (0) sends a view-0 update; replica 2 must ignore it.
        let outs = replicas[2].on_input(PbInput::ReplicaMsg {
            from: 0,
            msg: PbMsg::StateUpdate {
                view: 0,
                seq: 1,
                request_seq: 1,
                client: "c".into(),
                response: b"OK".to_vec(),
                delta: b"PUT a 1".to_vec(),
            },
        });
        assert!(outs.is_empty());
        assert_eq!(replicas[2].seq(), 0);
    }

    #[test]
    fn update_from_non_primary_rejected() {
        let (_, mut replicas) = group(3);
        let outs = replicas[2].on_input(PbInput::ReplicaMsg {
            from: 1, // not the primary of view 0
            msg: PbMsg::StateUpdate {
                view: 0,
                seq: 1,
                request_seq: 1,
                client: "c".into(),
                response: b"OK".to_vec(),
                delta: b"PUT a 1".to_vec(),
            },
        });
        assert!(outs.is_empty());
        assert_eq!(replicas[2].seq(), 0);
    }

    #[test]
    fn heartbeat_resets_failover_clock() {
        let (_, mut replicas) = group(3);
        replicas[1].on_input(PbInput::Tick { now: 15 });
        replicas[1].on_input(PbInput::ReplicaMsg {
            from: 0,
            msg: PbMsg::Heartbeat { view: 0, seq: 0 },
        });
        // 15 ticks of silence at t=30 < timeout from the heartbeat at 15.
        let outs = replicas[1].on_input(PbInput::Tick { now: 30 });
        assert!(outs.is_empty(), "{outs:?}");
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn bad_index_panics() {
        let authority = KeyAuthority::with_seed(1);
        let signer = Signer::register("x", &authority);
        let _ = PbReplica::new(PbConfig::default(), 3, KvStore::new(), signer);
    }
}
