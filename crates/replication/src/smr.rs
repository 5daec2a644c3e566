//! The state-machine-replication engine (system class S0).
//!
//! "S0 consists of 4 differently randomized nodes implementing a service
//! built as a DSM. Clients interact with these nodes directly. The nodes
//! execute an order protocol to decide on the order for processing
//! requests; correct nodes generate identical responses for each request"
//! (Definition 1). The order protocol here is a compact PBFT-family
//! three-phase commit:
//!
//! 1. the leader of view `v` (replica `v % n`) assigns a slot and
//!    broadcasts `PrePrepare`;
//! 2. replicas broadcast `Prepare`; a slot is *prepared* once `2f+1`
//!    replicas (leader included) vouch for the same digest;
//! 3. prepared replicas broadcast `Commit`; a slot *commits* at `2f+1`
//!    commits, and commits execute strictly in slot order.
//!
//! Every replica executes the operation itself — which is exactly why S0
//! demands a deterministic service — and signs its own response (clients
//! accept a response vouched for by `f+1` replicas; the client-side rule
//! lives in `fortress-core`).
//!
//! View changes follow the VSR (viewstamped replication) shape:
//!
//! 1. a replica whose oldest pending request outwaits the leader timeout
//!    broadcasts `StartViewChange{v+1}`; replicas that see a higher view
//!    proposed join by echoing their own;
//! 2. at `f+1` StartViewChange votes for a view, each replica sends
//!    `DoViewChange` — carrying its uncommitted log suffix — to that
//!    view's designated leader (`view % n`);
//! 3. the new leader collects `2f+1` DoViewChange messages, merges the
//!    carried suffixes per-slot (highest prepared view wins), installs
//!    the merged log and broadcasts `StartView`; replicas install the
//!    same suffix and re-vouch for every merged slot, so the ordinary
//!    prepare/commit quorum machinery finishes what the old view
//!    started. A stalled view change (its designated leader is down
//!    too) escalates to the next view after another timeout.
//!
//! This handles crash faults (the paper's S0 failure model for liveness)
//! while the quorum intersection argument carries the Byzantine safety
//! case: no committed slot can be lost in a view change, because every
//! commit quorum intersects every DoViewChange quorum in a correct
//! replica whose suffix carries the slot.
//!
//! # The tables and why they have their shape
//!
//! A request reaches a replica still lying in the frame it arrived in:
//! [`SmrReplica::on_request`] is the one body of the request rule, and the
//! owned [`SmrInput::Request`] borrows into it. Requests come from
//! clients only: no replica forwards one.
//!
//! * **Votes are bits.** `prepares`, `commits` and the `StartViewChange`
//!   tally map a key to a `u64` with bit `i` set once replica `i` voted, so
//!   a duplicate vote sets a bit already set and a quorum test is
//!   `count_ones() >= 2f + 1`. The width is the bound:
//!   [`SmrReplica::new`] refuses an [`SmrConfig`] with `n > 64`. A sender index at or past
//!   `n` is refused before any table sees it.
//! * **The caches are keyed by client.** The reply cache (`client →
//!   request seq →` the body signed, plus the client's latest tag, the
//!   table [`PbReplica`](crate::pb::PbReplica) keeps too) and `pending`
//!   (`client → request seq → op`) are looked up with the borrowed name; a
//!   client's name is copied once, when it is first seen. A retransmission
//!   of an executed request replays the first signature, byte for byte:
//!   the latest answer's tag is kept, and an older one's is computed
//!   again, to the same bytes, under the same key.
//! * **Whatever decides an output is walked in a defined order.**
//!   `pending` is ordered, so a new leader re-proposes in (client, request
//!   seq) order and every group built alike emits the same `PrePrepare`s;
//!   the `DoViewChange` records are ordered by sender, so ties in the
//!   suffix merge and the choice of snapshot source go by replica index,
//!   never by a hash seed.

use std::collections::BTreeMap;

use fortress_crypto::sha256::{Digest, Sha256};
use fortress_crypto::sig::Signer;
use fortress_net::codec::CodecError;

use crate::error::ReplicationError;
use crate::message::{Answers, ReplyBody, SignedReply, SmrLogEntry, SmrMsg};
use crate::service::Service;

/// Static configuration of an SMR group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmrConfig {
    /// Number of replicas; must satisfy `3f + 1 <= n <= 64`.
    pub n: usize,
    /// Tolerated faults (the paper's S0 uses `f = 1`, `n = 4`).
    pub f: usize,
    /// A replica votes to depose the leader after a pending request waits
    /// this many ticks.
    pub leader_timeout: u64,
}

impl Default for SmrConfig {
    fn default() -> Self {
        SmrConfig {
            n: 4,
            f: 1,
            leader_timeout: 30,
        }
    }
}

impl SmrConfig {
    /// Quorum size `2f + 1`.
    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Validates `3f + 1 <= n <= 64`: a vote table holds one bit per
    /// replica in a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadConfig`] when either bound is
    /// violated.
    fn validate(&self) -> Result<(), ReplicationError> {
        if self.n < 3 * self.f + 1 {
            return Err(ReplicationError::BadConfig {
                reason: format!("n = {} < 3f + 1 = {}", self.n, 3 * self.f + 1),
            });
        }
        if self.n > Votes::BITS as usize {
            return Err(ReplicationError::BadConfig {
                reason: format!("n = {} > {}, the width of a vote mask", self.n, Votes::BITS),
            });
        }
        Ok(())
    }
}

/// Inputs to the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmrInput {
    /// A client request (clients broadcast to all replicas).
    Request {
        /// Client-chosen request sequence number.
        seq: u64,
        /// Requesting client.
        client: String,
        /// Service operation.
        op: Vec<u8>,
    },
    /// An authenticated protocol message from replica `from`.
    ReplicaMsg {
        /// Authenticated sender index.
        from: usize,
        /// The message.
        msg: SmrMsg,
    },
    /// Logical clock tick.
    Tick {
        /// Current time.
        now: u64,
    },
}

/// Outputs of the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmrOutput {
    /// Send to every other replica.
    Broadcast(SmrMsg),
    /// Send to one replica.
    ToReplica(usize, SmrMsg),
    /// Signed response toward the client (the harness routes it).
    Reply(SignedReply),
}

#[derive(Clone, Debug)]
struct Proposal {
    view: u64,
    request_seq: u64,
    client: String,
    op: Vec<u8>,
    digest: Digest,
    committed: bool,
    commit_sent: bool,
}

fn request_digest(request_seq: u64, client: &str, op: &[u8]) -> Digest {
    Sha256::digest_parts(&[&request_seq.to_le_bytes(), client.as_bytes(), op])
}

/// The replicas that voted under one key of a vote table: bit `i` is
/// replica `i`. [`SmrReplica::new`] caps `n` at the width.
type Votes = u64;

/// Records `from`'s vote under `key`. A second vote from the same replica
/// sets a bit already set.
fn vote<K: Ord>(table: &mut BTreeMap<K, Votes>, key: K, from: usize) {
    *table.entry(key).or_default() |= 1 << from;
}

/// Distinct replicas that voted under `key`.
fn voters<K: Ord>(table: &BTreeMap<K, Votes>, key: &K) -> usize {
    table.get(key).map_or(0, |votes| votes.count_ones() as usize)
}

/// A request seen but not yet executed.
#[derive(Debug)]
struct Pending {
    op: Vec<u8>,
    /// Tick at which the request arrived, or the view last changed.
    since: u64,
}

/// Protocol status: `Normal` processes requests, `ViewChange` means this
/// replica has joined a view change and is waiting for the new leader's
/// `StartView`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmrStatus {
    /// Normal operation under the current view's leader.
    Normal,
    /// A view change is in flight; ordering is suspended until `StartView`.
    ViewChange,
}

/// One replica's `DoViewChange` contribution, held by the would-be leader.
#[derive(Clone, Debug)]
struct DvcRecord {
    last_normal_view: u64,
    last_exec: u64,
    log: Vec<SmrLogEntry>,
}

/// One SMR replica.
///
/// # Example
///
/// ```
/// use fortress_crypto::{KeyAuthority, Signer};
/// use fortress_replication::smr::{SmrConfig, SmrInput, SmrOutput, SmrReplica};
/// use fortress_replication::service::KvStore;
/// use fortress_replication::message::SmrMsg;
///
/// let authority = KeyAuthority::with_seed(1);
/// let signer = Signer::register("smr-0", &authority);
/// let mut leader = SmrReplica::new(SmrConfig::default(), 0, KvStore::new(), signer).unwrap();
/// let outs = leader.on_input(SmrInput::Request {
///     seq: 1, client: "alice".into(), op: b"PUT k v".to_vec(),
/// });
/// assert!(matches!(&outs[..], [SmrOutput::Broadcast(SmrMsg::PrePrepare { .. })]));
/// ```
#[derive(Debug)]
pub struct SmrReplica<S> {
    cfg: SmrConfig,
    index: usize,
    service: S,
    signer: Signer,
    view: u64,
    next_seq: u64,
    last_exec: u64,
    now: u64,
    /// Slots above `last_exec` only: executing a slot moves it out, so
    /// the log is the in-flight suffix a `DoViewChange` carries.
    log: BTreeMap<u64, Proposal>,
    /// Votes per `(view, slot)`, as [`Votes`] masks; an executed slot's
    /// entries leave with it and a vote at or below `last_exec` is never
    /// stored.
    prepares: BTreeMap<(u64, u64), Votes>,
    commits: BTreeMap<(u64, u64), Votes>,
    /// Reply cache, the at-most-once oracle: `client → request seq →` the
    /// body signed, and each client's latest tag. Never truncated,
    /// because a client may retransmit any request it ever sent.
    executed: Answers,
    /// Requests seen but not yet executed, `client → request seq`, in
    /// that order: a new leader re-proposes them in it.
    pending: BTreeMap<String, BTreeMap<u64, Pending>>,
    status: SmrStatus,
    /// Last view in which this replica held `Normal` status.
    last_normal_view: u64,
    /// `StartViewChange` votes seen, per proposed view.
    svc_votes: BTreeMap<u64, Votes>,
    /// `DoViewChange` records collected by this replica as the designated
    /// leader of the keyed view, by sender index: the merge breaks ties
    /// in that order.
    dvc: BTreeMap<u64, BTreeMap<usize, DvcRecord>>,
    /// Highest view this replica has voted for (sticky).
    voted_view: u64,
    /// Highest view this replica has sent a `DoViewChange` for.
    dvc_sent: u64,
    /// Tick at which this replica last joined/escalated a view change.
    vc_since: u64,
    /// Completed view changes observed (entered Normal in a higher view).
    view_changes: u64,
    replies_sent: u64,
}

impl<S: Service> SmrReplica<S> {
    /// Creates replica `index` of a validated group.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadConfig`] for `n < 3f+1` or `n > 64`, and
    /// [`ReplicationError::BadReplicaIndex`] for an out-of-range index.
    pub fn new(
        cfg: SmrConfig,
        index: usize,
        service: S,
        signer: Signer,
    ) -> Result<SmrReplica<S>, ReplicationError> {
        cfg.validate()?;
        if index >= cfg.n {
            return Err(ReplicationError::BadReplicaIndex { index, n: cfg.n });
        }
        Ok(SmrReplica {
            cfg,
            index,
            service,
            signer,
            view: 0,
            next_seq: 0,
            last_exec: 0,
            now: 0,
            log: BTreeMap::new(),
            prepares: BTreeMap::new(),
            commits: BTreeMap::new(),
            executed: Answers::default(),
            pending: BTreeMap::new(),
            status: SmrStatus::Normal,
            last_normal_view: 0,
            svc_votes: BTreeMap::new(),
            dvc: BTreeMap::new(),
            voted_view: 0,
            dvc_sent: 0,
            vc_since: 0,
            view_changes: 0,
            replies_sent: 0,
        })
    }

    /// Rewinds to the just-constructed state with a fresh service and
    /// credentials, keeping map capacity — the trial-arena reset path.
    /// Behaves exactly like `SmrReplica::new(cfg, index, service, signer)`
    /// with this replica's `cfg` and `index`.
    pub fn reset(&mut self, service: S, signer: Signer) {
        self.service = service;
        self.signer = signer;
        self.view = 0;
        self.next_seq = 0;
        self.last_exec = 0;
        self.now = 0;
        self.log.clear();
        self.prepares.clear();
        self.commits.clear();
        self.executed.clear();
        self.pending.clear();
        self.status = SmrStatus::Normal;
        self.last_normal_view = 0;
        self.svc_votes.clear();
        self.dvc.clear();
        self.voted_view = 0;
        self.dvc_sent = 0;
        self.vc_since = 0;
        self.view_changes = 0;
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

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.view as usize % self.cfg.n == self.index
    }

    /// Last executed slot.
    pub fn last_exec(&self) -> u64 {
        self.last_exec
    }

    /// Whether this replica is in normal operation (not mid view change).
    pub fn is_normal(&self) -> bool {
        self.status == SmrStatus::Normal
    }

    /// Completed view changes this replica has participated in.
    #[cfg(test)]
    fn view_changes(&self) -> u64 {
        self.view_changes
    }

    /// Signed replies emitted so far.
    pub fn replies_sent(&self) -> u64 {
        self.replies_sent
    }

    /// Immutable access to the replicated service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Log slots plus vote-table entries currently held: proportional to
    /// the slots in flight, not to how long the replica has lived. Read by
    /// this file's tests only and `pub` on purpose: it is the growth
    /// oracle of ROADMAP B's bounded-state property.
    pub fn retained_slots(&self) -> usize {
        self.log.len() + self.prepares.len() + self.commits.len()
    }

    /// Produces a snapshot offer for a rejoining replica. With
    /// [`SmrReplica::install_snapshot`], `pub` with no caller outside this
    /// file: ROADMAP D (recovery as replica protocol) gives the pair a
    /// caller or removes it.
    pub fn snapshot_offer(&self) -> SmrMsg {
        SmrMsg::SnapshotOffer {
            seq: self.last_exec,
            digest: self.service.digest(),
            snapshot: self.service.snapshot(),
        }
    }

    /// Installs a snapshot accepted by the rejoin rule (`f+1` matching
    /// digests, see [`crate::state_transfer`]).
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadSnapshot`] when the bytes do not
    /// decode or the restored digest mismatches.
    pub fn install_snapshot(
        &mut self,
        seq: u64,
        digest: Digest,
        snapshot: &[u8],
    ) -> Result<(), ReplicationError> {
        self.service
            .restore(snapshot)
            .map_err(|e: CodecError| ReplicationError::BadSnapshot {
                reason: e.to_string(),
            })?;
        if self.service.digest() != digest {
            return Err(ReplicationError::BadSnapshot {
                reason: "restored state digest mismatch".into(),
            });
        }
        self.last_exec = seq;
        self.next_seq = seq;
        self.log.retain(|s, _| *s > seq);
        self.prune_votes(0);
        Ok(())
    }

    /// Feeds one input, returning the outputs it provokes.
    pub fn on_input(&mut self, input: SmrInput) -> Vec<SmrOutput> {
        match input {
            SmrInput::Request { seq, client, op } => self.on_request(seq, &client, &op),
            SmrInput::ReplicaMsg { from, msg } => self.on_replica_msg(from, msg),
            SmrInput::Tick { now } => self.on_tick(now),
        }
    }

    /// Signs this replica's response to an executed request and keeps its
    /// body and, as the client's latest, its tag: a later copy of the
    /// request replays the same bytes.
    fn answer(&mut self, request_seq: u64, client: String, body: Vec<u8>) -> SmrOutput {
        self.replies_sent += 1;
        let reply = ReplyBody {
            request_seq,
            client,
            body,
            server_index: self.index as u32,
        };
        SmrOutput::Reply(self.executed.sign(reply, &self.signer))
    }

    /// [`SmrInput::Request`] for a request still lying in the frame it
    /// arrived in, and the one body of the request rule: an executed
    /// request is answered with the reply first signed, any other is
    /// remembered as pending and, at the leader, proposed. It copies `op`
    /// once, into `pending`, and `client` only for a client it has not
    /// seen.
    pub fn on_request(&mut self, seq: u64, client: &str, op: &[u8]) -> Vec<SmrOutput> {
        if let Some(reply) = self.executed.replay(seq, client, self.index as u32, &self.signer) {
            self.replies_sent += 1;
            return vec![SmrOutput::Reply(reply)];
        }
        if !self.pending.contains_key(client) {
            self.pending.insert(client.to_owned(), BTreeMap::new());
        }
        let by_seq = self.pending.get_mut(client).expect("inserted above");
        let since = self.now;
        by_seq.entry(seq).or_insert_with(|| Pending { op: op.to_vec(), since });
        if self.is_leader() {
            return self.propose(seq, client, op);
        }
        Vec::new()
    }

    /// Forgets `(client, request_seq)` as pending: it occupies a slot.
    fn unpend(&mut self, client: &str, request_seq: u64) {
        if let Some(by_seq) = self.pending.get_mut(client) {
            by_seq.remove(&request_seq);
        }
    }

    fn propose(&mut self, request_seq: u64, client: &str, op: &[u8]) -> Vec<SmrOutput> {
        // Skip if this request already occupies a slot in this view. Only
        // slots above the execution frontier can: an executed request is
        // answered from `executed` before it gets here.
        let already = self.log.range(self.last_exec + 1..).any(|(_, p)| {
            p.view == self.view && p.request_seq == request_seq && p.client == client
        });
        if already {
            return Vec::new();
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let digest = request_digest(request_seq, client, op);
        self.log.insert(
            seq,
            Proposal {
                view: self.view,
                request_seq,
                client: client.to_owned(),
                op: op.to_vec(),
                digest,
                committed: false,
                commit_sent: false,
            },
        );
        // The leader's pre-prepare doubles as its prepare vote.
        vote(&mut self.prepares, (self.view, seq), self.index);
        vec![SmrOutput::Broadcast(SmrMsg::PrePrepare {
            view: self.view,
            seq,
            request_seq,
            client: client.to_owned(),
            op: op.to_vec(),
        })]
    }

    fn on_replica_msg(&mut self, from: usize, msg: SmrMsg) -> Vec<SmrOutput> {
        if from >= self.cfg.n {
            return Vec::new();
        }
        match msg {
            SmrMsg::PrePrepare {
                view,
                seq,
                request_seq,
                client,
                op,
            } => self.on_pre_prepare(from, view, seq, request_seq, client, op),
            SmrMsg::Prepare { view, seq, digest } => self.on_prepare(from, view, seq, digest),
            SmrMsg::Commit { view, seq, digest } => self.on_commit(from, view, seq, digest),
            SmrMsg::StartViewChange { new_view } => self.on_start_view_change(from, new_view),
            SmrMsg::DoViewChange {
                new_view,
                last_normal_view,
                last_exec,
                log,
            } => self.on_do_view_change(from, new_view, last_normal_view, last_exec, log),
            SmrMsg::StartView {
                view,
                last_exec,
                log,
            } => self.on_start_view(from, view, last_exec, log),
            SmrMsg::SnapshotRequest { .. } => {
                vec![SmrOutput::ToReplica(from, self.snapshot_offer())]
            }
            // Dropped: no replica installs an offer yet, and a rejoiner's
            // catch-up is priced outside the replica by the tier's
            // `TransferScheduler`. The rejoin rule goes here: collect offers
            // from distinct senders until `f + 1` match on `(seq, digest)`,
            // then `install_snapshot` (ROADMAP.md item M).
            SmrMsg::SnapshotOffer { .. } => Vec::new(),
        }
    }

    fn on_pre_prepare(
        &mut self,
        from: usize,
        view: u64,
        seq: u64,
        request_seq: u64,
        client: String,
        op: Vec<u8>,
    ) -> Vec<SmrOutput> {
        if view < self.view || from != view as usize % self.cfg.n {
            return Vec::new();
        }
        if view > self.view {
            // A pre-prepare from the leader of a later view is evidence
            // that view is in normal operation (e.g. we missed StartView).
            self.adopt_view(view);
            self.status = SmrStatus::Normal;
            self.last_normal_view = view;
        }
        if seq <= self.last_exec {
            return Vec::new(); // already executed this slot
        }
        let digest = request_digest(request_seq, &client, &op);
        if let Some(existing) = self.log.get(&seq) {
            if existing.view >= view && existing.digest != digest {
                // Conflicting proposal for an occupied slot from a view we
                // already accepted: refuse (Byzantine-leader defense).
                return Vec::new();
            }
        }
        self.unpend(&client, request_seq);
        self.log.insert(
            seq,
            Proposal {
                view,
                request_seq,
                client,
                op,
                digest,
                committed: false,
                commit_sent: false,
            },
        );
        vote(&mut self.prepares, (view, seq), from); // the leader's implicit prepare
        vote(&mut self.prepares, (view, seq), self.index);
        let mut outs = vec![SmrOutput::Broadcast(SmrMsg::Prepare { view, seq, digest })];
        outs.extend(self.check_prepared(view, seq));
        outs
    }

    fn on_prepare(&mut self, from: usize, view: u64, seq: u64, digest: Digest) -> Vec<SmrOutput> {
        // Low-water mark: an executed slot needs no more votes.
        if view < self.view || seq <= self.last_exec {
            return Vec::new();
        }
        if let Some(p) = self.log.get(&seq) {
            if p.digest != digest {
                return Vec::new(); // vote for a different request
            }
        }
        vote(&mut self.prepares, (view, seq), from);
        self.check_prepared(view, seq)
    }

    fn check_prepared(&mut self, view: u64, seq: u64) -> Vec<SmrOutput> {
        let quorum = self.cfg.quorum();
        let have = voters(&self.prepares, &(view, seq));
        let Some(p) = self.log.get_mut(&seq) else {
            return Vec::new();
        };
        if p.commit_sent || p.view != view || have < quorum {
            return Vec::new();
        }
        p.commit_sent = true;
        let digest = p.digest;
        vote(&mut self.commits, (view, seq), self.index);
        let mut outs = vec![SmrOutput::Broadcast(SmrMsg::Commit { view, seq, digest })];
        outs.extend(self.check_committed(view, seq));
        outs
    }

    fn on_commit(&mut self, from: usize, view: u64, seq: u64, digest: Digest) -> Vec<SmrOutput> {
        if seq <= self.last_exec {
            return Vec::new();
        }
        if let Some(p) = self.log.get(&seq) {
            if p.digest != digest {
                return Vec::new();
            }
        }
        vote(&mut self.commits, (view, seq), from);
        self.check_committed(view, seq)
    }

    fn check_committed(&mut self, view: u64, seq: u64) -> Vec<SmrOutput> {
        let quorum = self.cfg.quorum();
        if voters(&self.commits, &(view, seq)) < quorum {
            return Vec::new();
        }
        if let Some(p) = self.log.get_mut(&seq) {
            p.committed = true;
        }
        self.execute_ready()
    }

    /// Executes committed slots strictly in order, moving each out of the
    /// log together with its votes: below the frontier the service and the
    /// reply cache hold everything the protocol still needs.
    fn execute_ready(&mut self) -> Vec<SmrOutput> {
        let mut outs = Vec::new();
        while let Some(slot) = self.log.first_entry() {
            if *slot.key() != self.last_exec + 1 || !slot.get().committed {
                break;
            }
            let (next, p) = slot.remove_entry();
            let (body, _delta) = self.service.execute(&p.op);
            self.last_exec = next;
            self.next_seq = self.next_seq.max(next);
            self.prepares.remove(&(p.view, next));
            self.commits.remove(&(p.view, next));
            self.unpend(&p.client, p.request_seq);
            outs.push(self.answer(p.request_seq, p.client, body));
        }
        outs
    }

    /// This replica's uncommitted log suffix — the whole retained log —
    /// the payload a `DoViewChange` carries to the new leader.
    fn log_suffix(&self) -> Vec<SmrLogEntry> {
        self.log
            .iter()
            .map(|(seq, p)| SmrLogEntry {
                seq: *seq,
                view: p.view,
                request_seq: p.request_seq,
                client: p.client.clone(),
                op: p.op.clone(),
            })
            .collect()
    }

    /// Joins (or escalates to) the view change targeting `target`:
    /// broadcast our own `StartViewChange` and re-check the vote count.
    fn start_view_change(&mut self, target: u64) -> Vec<SmrOutput> {
        self.voted_view = target;
        self.vc_since = self.now;
        self.status = SmrStatus::ViewChange;
        vote(&mut self.svc_votes, target, self.index);
        let mut outs = vec![SmrOutput::Broadcast(SmrMsg::StartViewChange {
            new_view: target,
        })];
        outs.extend(self.check_svc_quorum(target));
        outs
    }

    fn on_start_view_change(&mut self, from: usize, new_view: u64) -> Vec<SmrOutput> {
        if new_view <= self.view {
            return Vec::new();
        }
        vote(&mut self.svc_votes, new_view, from);
        if self.voted_view < new_view {
            // Join: one peer proposing a higher view is enough to echo,
            // which is what lets a view change spread without every
            // replica's timer having to fire.
            self.start_view_change(new_view)
        } else {
            self.check_svc_quorum(new_view)
        }
    }

    /// At `f+1` StartViewChange votes, send `DoViewChange` (once per view)
    /// to the designated leader of `target` — or record our own if we are
    /// that leader.
    fn check_svc_quorum(&mut self, target: u64) -> Vec<SmrOutput> {
        if target <= self.view || self.dvc_sent >= target {
            return Vec::new();
        }
        if voters(&self.svc_votes, &target) < self.cfg.f + 1 {
            return Vec::new();
        }
        self.dvc_sent = target;
        let record = DvcRecord {
            last_normal_view: self.last_normal_view,
            last_exec: self.last_exec,
            log: self.log_suffix(),
        };
        let leader = target as usize % self.cfg.n;
        if leader == self.index {
            self.dvc.entry(target).or_default().insert(self.index, record);
            self.try_start_view(target)
        } else {
            vec![SmrOutput::ToReplica(
                leader,
                SmrMsg::DoViewChange {
                    new_view: target,
                    last_normal_view: record.last_normal_view,
                    last_exec: record.last_exec,
                    log: record.log,
                },
            )]
        }
    }

    fn on_do_view_change(
        &mut self,
        from: usize,
        new_view: u64,
        last_normal_view: u64,
        last_exec: u64,
        log: Vec<SmrLogEntry>,
    ) -> Vec<SmrOutput> {
        if new_view <= self.view || new_view as usize % self.cfg.n != self.index {
            return Vec::new();
        }
        self.dvc.entry(new_view).or_default().insert(
            from,
            DvcRecord {
                last_normal_view,
                last_exec,
                log,
            },
        );
        self.try_start_view(new_view)
    }

    /// The designated leader of `new_view` takes over once `2f+1`
    /// `DoViewChange` records (its own included) are in: merge the carried
    /// suffixes per-slot (highest prepared view wins), install the merged
    /// log, broadcast `StartView`, and re-propose whatever is pending.
    fn try_start_view(&mut self, new_view: u64) -> Vec<SmrOutput> {
        if new_view <= self.view
            || self
                .dvc
                .get(&new_view)
                .map_or(0, |records| records.len())
                < self.cfg.quorum()
        {
            return Vec::new();
        }
        let records = self.dvc.remove(&new_view).unwrap_or_default();
        let max_exec = records
            .values()
            .map(|r| r.last_exec)
            .max()
            .unwrap_or(0)
            .max(self.last_exec);
        let mut merged: BTreeMap<u64, SmrLogEntry> = BTreeMap::new();
        for rec in records.values() {
            for entry in &rec.log {
                // Slots at or below the group's execution frontier are
                // committed history: state transfer covers them, not the
                // merged log.
                if entry.seq <= max_exec {
                    continue;
                }
                match merged.get(&entry.seq) {
                    Some(cur) if cur.view >= entry.view => {}
                    _ => {
                        merged.insert(entry.seq, entry.clone());
                    }
                }
            }
        }
        let mut outs = Vec::new();
        if max_exec > self.last_exec {
            // A quorum member executed past us: fetch its state before the
            // merged slots can execute (execution stalls at the gap until
            // the snapshot installs).
            let ahead = records
                .iter()
                .max_by_key(|(_, r)| (r.last_exec, r.last_normal_view))
                .map(|(i, _)| *i)
                .expect("quorum is non-empty");
            outs.push(SmrOutput::ToReplica(
                ahead,
                SmrMsg::SnapshotRequest {
                    last_exec: self.last_exec,
                },
            ));
        }
        self.enter_view(new_view);
        // Drop our own uncommitted slots, then install the merged suffix;
        // each installed slot gets our implicit prepare vote.
        self.log.retain(|_, p| p.committed);
        let mut start_log = Vec::with_capacity(merged.len());
        for entry in merged.into_values() {
            self.install_entry(&entry, new_view);
            self.next_seq = self.next_seq.max(entry.seq);
            start_log.push(entry);
        }
        self.next_seq = self.next_seq.max(max_exec);
        outs.push(SmrOutput::Broadcast(SmrMsg::StartView {
            view: new_view,
            last_exec: self.last_exec,
            log: start_log,
        }));
        // Re-propose pending requests the merged log does not carry, in
        // (client, request seq) order: every group built alike orders them
        // alike, and a client's requests keep their order. (`propose`
        // reads nothing of `pending`.)
        let pending = std::mem::take(&mut self.pending);
        for (client, by_seq) in &pending {
            for (seq, p) in by_seq {
                outs.extend(self.propose(*seq, client, &p.op));
            }
        }
        self.pending = pending;
        outs
    }

    fn on_start_view(
        &mut self,
        from: usize,
        view: u64,
        leader_exec: u64,
        log: Vec<SmrLogEntry>,
    ) -> Vec<SmrOutput> {
        if view < self.view || from != view as usize % self.cfg.n {
            return Vec::new();
        }
        if view == self.view && self.status == SmrStatus::Normal {
            return Vec::new(); // duplicate
        }
        self.enter_view(view);
        self.log.retain(|_, p| p.committed);
        let mut outs = Vec::new();
        if leader_exec > self.last_exec {
            // The new leader's execution frontier is past ours: state
            // transfer fills the committed gap.
            outs.push(SmrOutput::ToReplica(
                from,
                SmrMsg::SnapshotRequest {
                    last_exec: self.last_exec,
                },
            ));
        }
        for entry in log {
            if entry.seq <= self.last_exec
                || self.log.get(&entry.seq).is_some_and(|p| p.committed)
            {
                continue;
            }
            let seq = entry.seq;
            let digest = self.install_entry(&entry, view);
            // Count the leader's implicit prepare alongside our own, then
            // re-vouch so the ordinary quorum machinery finishes the slot.
            vote(&mut self.prepares, (view, seq), from);
            self.next_seq = self.next_seq.max(seq);
            outs.push(SmrOutput::Broadcast(SmrMsg::Prepare { view, seq, digest }));
            outs.extend(self.check_prepared(view, seq));
        }
        outs
    }

    /// Installs one merged-log entry under `view`, with our own prepare
    /// vote. The digest is recomputed locally — never trusted off the wire.
    fn install_entry(&mut self, entry: &SmrLogEntry, view: u64) -> Digest {
        let digest = request_digest(entry.request_seq, &entry.client, &entry.op);
        self.unpend(&entry.client, entry.request_seq);
        self.log.insert(
            entry.seq,
            Proposal {
                view,
                request_seq: entry.request_seq,
                client: entry.client.clone(),
                op: entry.op.clone(),
                digest,
                committed: false,
                commit_sent: false,
            },
        );
        vote(&mut self.prepares, (view, entry.seq), self.index);
        digest
    }

    /// Enters `view` in Normal status, counting the completed view change
    /// and pruning vote state that can no longer matter.
    fn enter_view(&mut self, view: u64) {
        self.adopt_view(view);
        self.status = SmrStatus::Normal;
        self.last_normal_view = view;
        self.view_changes += 1;
        self.svc_votes.retain(|v, _| *v > view);
        self.dvc.retain(|v, _| *v > view);
        // Votes cast in older views are for slots the caller is about to
        // drop or has already marked committed.
        self.prune_votes(view);
    }

    /// Drops votes cast before `min_view` or for slots at or below
    /// `last_exec`.
    fn prune_votes(&mut self, min_view: u64) {
        let keep = |(view, seq): &(u64, u64)| *view >= min_view && *seq > self.last_exec;
        self.prepares.retain(|key, _| keep(key));
        self.commits.retain(|key, _| keep(key));
    }

    fn adopt_view(&mut self, view: u64) {
        self.view = view;
        self.voted_view = self.voted_view.max(view);
        // Refresh pending timers so the new leader gets a full timeout.
        for p in self.pending.values_mut().flat_map(BTreeMap::values_mut) {
            p.since = self.now;
        }
    }

    fn on_tick(&mut self, now: u64) -> Vec<SmrOutput> {
        self.now = now;
        if self.is_leader() && self.status == SmrStatus::Normal {
            return Vec::new();
        }
        let overdue = self
            .pending
            .values()
            .flat_map(BTreeMap::values)
            .any(|p| now.saturating_sub(p.since) > self.cfg.leader_timeout);
        if !overdue {
            return Vec::new();
        }
        if self.voted_view <= self.view {
            self.start_view_change(self.view + 1)
        } else if now.saturating_sub(self.vc_since) > self.cfg.leader_timeout {
            // The view change we joined has itself stalled (its designated
            // leader is down too): escalate past it.
            self.start_view_change(self.voted_view + 1)
        } else {
            Vec::new() // sticky: wait out the in-flight view change
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::service::KvStore;
    use fortress_crypto::KeyAuthority;

    fn group(n: usize, f: usize) -> Vec<SmrReplica<KvStore>> {
        let authority = KeyAuthority::with_seed(7);
        let cfg = SmrConfig {
            n,
            f,
            leader_timeout: 30,
        };
        (0..n)
            .map(|i| {
                let signer = Signer::register(&format!("smr-{i}"), &authority);
                SmrReplica::new(cfg, i, KvStore::new(), signer).unwrap()
            })
            .collect()
    }

    /// Delivers outputs; `down` replicas drop everything. Returns replies.
    fn route(
        replicas: &mut [SmrReplica<KvStore>],
        from: usize,
        outputs: Vec<SmrOutput>,
        down: &[usize],
    ) -> Vec<SignedReply> {
        route_tapped(replicas, from, outputs, down, &mut |_, _| {})
    }

    /// [`route`], showing `tap` every protocol message a replica sends
    /// (once per broadcast) together with its sender.
    fn route_tapped(
        replicas: &mut [SmrReplica<KvStore>],
        from: usize,
        outputs: Vec<SmrOutput>,
        down: &[usize],
        tap: &mut dyn FnMut(usize, &SmrMsg),
    ) -> Vec<SignedReply> {
        let mut replies = Vec::new();
        for out in outputs {
            match out {
                SmrOutput::Reply(r) => replies.push(r),
                SmrOutput::Broadcast(msg) => {
                    tap(from, &msg);
                    for i in 0..replicas.len() {
                        if i == from || down.contains(&i) {
                            continue;
                        }
                        let outs = replicas[i].on_input(SmrInput::ReplicaMsg {
                            from,
                            msg: msg.clone(),
                        });
                        replies.extend(route_tapped(replicas, i, outs, down, tap));
                    }
                }
                SmrOutput::ToReplica(to, msg) => {
                    tap(from, &msg);
                    if down.contains(&to) {
                        continue;
                    }
                    let outs = replicas[to].on_input(SmrInput::ReplicaMsg {
                        from,
                        msg,
                    });
                    replies.extend(route_tapped(replicas, to, outs, down, tap));
                }
            }
        }
        replies
    }

    fn submit(
        replicas: &mut [SmrReplica<KvStore>],
        seq: u64,
        op: &[u8],
        down: &[usize],
    ) -> Vec<SignedReply> {
        submit_tapped(replicas, seq, op, down, &mut |_, _| {})
    }

    fn submit_tapped(
        replicas: &mut [SmrReplica<KvStore>],
        seq: u64,
        op: &[u8],
        down: &[usize],
        tap: &mut dyn FnMut(usize, &SmrMsg),
    ) -> Vec<SignedReply> {
        // The client's broadcast reaches every live replica before any
        // protocol message does (they are all sent at the same instant).
        let mut batches = Vec::new();
        for (i, replica) in replicas.iter_mut().enumerate() {
            if down.contains(&i) {
                continue;
            }
            let outs = replica.on_input(SmrInput::Request {
                seq,
                client: "alice".into(),
                op: op.to_vec(),
            });
            batches.push((i, outs));
        }
        let mut replies = Vec::new();
        for (i, outs) in batches {
            replies.extend(route_tapped(replicas, i, outs, down, tap));
        }
        replies
    }

    /// Ticks every live replica at `now`, routing what that provokes.
    fn tick_all(
        replicas: &mut [SmrReplica<KvStore>],
        now: u64,
        down: &[usize],
        tap: &mut dyn FnMut(usize, &SmrMsg),
    ) -> Vec<SignedReply> {
        let mut replies = Vec::new();
        for i in 0..replicas.len() {
            if down.contains(&i) {
                continue;
            }
            let outs = replicas[i].on_input(SmrInput::Tick { now });
            replies.extend(route_tapped(replicas, i, outs, down, tap));
        }
        replies
    }

    #[test]
    fn four_replicas_execute_and_agree() {
        let mut replicas = group(4, 1);
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[]);
        assert_eq!(replies.len(), 4, "all four reply");
        assert!(replies.iter().all(|r| r.reply.body == b"OK"));
        let digest = replicas[0].service().digest();
        for r in &replicas[1..] {
            assert_eq!(r.service().digest(), digest, "replica states agree");
        }
        assert!(replicas.iter().all(|r| r.last_exec() == 1));
    }

    #[test]
    fn sequence_of_requests_executes_in_order_everywhere() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        submit(&mut replicas, 2, b"PUT b 2", &[]);
        let replies = submit(&mut replicas, 3, b"GET a", &[]);
        assert!(replies.iter().all(|r| r.reply.body == b"VALUE 1"));
        assert!(replicas.iter().all(|r| r.last_exec() == 3));
    }

    #[test]
    fn duplicate_request_answered_from_cache() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        let first = submit(&mut replicas, 2, b"GET a", &[]);
        submit(&mut replicas, 3, b"PUT a 2", &[]);
        let exec_before: Vec<u64> = replicas.iter().map(|r| r.last_exec()).collect();
        // The slot has left every log; the reply cache alone answers, with
        // the body of the first execution rather than the current state.
        let replies = submit(&mut replicas, 2, b"GET a", &[]);
        assert_eq!(replies.len(), 4, "cached replies from each replica");
        assert!(replies.iter().all(|r| r.reply.body == b"VALUE 1"));
        for r in &replies {
            let original = first
                .iter()
                .find(|o| o.reply.server_index == r.reply.server_index)
                .expect("every replica answered the first time");
            assert_eq!(
                r.reply, original.reply,
                "retransmission answered identically"
            );
        }
        let exec_after: Vec<u64> = replicas.iter().map(|r| r.last_exec()).collect();
        assert_eq!(exec_before, exec_after, "no re-execution");
    }

    /// A replica's retained state follows its in-flight slots, not its
    /// lifetime: at quiescence after 10 000 requests — with and without a
    /// view change half way — no replica holds a slot or a vote.
    #[test]
    fn retained_state_is_bounded_by_in_flight_slots() {
        for view_change in [false, true] {
            let mut replicas = group(4, 1);
            let mut down: &[usize] = &[];
            for seq in 1..=10_000u64 {
                if view_change && seq == 5_001 {
                    // The leader dies with a request outstanding; the
                    // survivors elect replica 1 and carry on.
                    down = &[0];
                    submit(&mut replicas, seq, b"PUT k v", down);
                    let replies = tick_all(&mut replicas, 31, down, &mut |_, _| {});
                    assert_eq!(replies.len(), 3, "executed under the new view");
                    continue;
                }
                let replies = submit(&mut replicas, seq, b"PUT k v", down);
                assert_eq!(replies.len(), 4 - down.len());
            }
            for (i, r) in replicas.iter().enumerate() {
                let expect = if down.contains(&i) { 5_000 } else { 10_000 };
                assert_eq!(r.last_exec(), expect);
                assert_eq!(
                    r.retained_slots(),
                    0,
                    "replica {i} retains state at quiescence (view change: {view_change})"
                );
            }
        }
    }

    #[test]
    fn votes_at_or_below_the_frontier_are_discarded() {
        let mut replicas = group(4, 1);
        for seq in 1..=3 {
            submit(&mut replicas, seq, b"PUT a 1", &[]);
        }
        let digest = request_digest(2, "alice", b"PUT a 1");
        for seq in 1..=3 {
            for msg in [
                SmrMsg::Prepare {
                    view: 0,
                    seq,
                    digest,
                },
                SmrMsg::Commit {
                    view: 0,
                    seq,
                    digest,
                },
            ] {
                let outs = replicas[1].on_input(SmrInput::ReplicaMsg { from: 2, msg });
                assert!(outs.is_empty(), "a vote for executed slot {seq} is inert");
            }
        }
        assert_eq!(replicas[1].retained_slots(), 0);
        // Above the frontier a vote is still kept for the slot to come.
        let outs = replicas[1].on_input(SmrInput::ReplicaMsg {
            from: 2,
            msg: SmrMsg::Commit {
                view: 0,
                seq: 4,
                digest,
            },
        });
        assert!(outs.is_empty());
        assert_eq!(replicas[1].retained_slots(), 1);
    }

    #[test]
    fn do_view_change_carries_only_the_uncommitted_suffix() {
        let mut replicas = group(4, 1);
        for seq in 1..=1_000 {
            submit(&mut replicas, seq, b"PUT k v", &[]);
        }
        // Leader 0 pre-prepares slot 1001 and dies; only replica 2 hears it.
        let outs = replicas[0].on_input(SmrInput::Request {
            seq: 1_001,
            client: "alice".into(),
            op: b"PUT k v".to_vec(),
        });
        let [SmrOutput::Broadcast(pp)] = &outs[..] else {
            panic!()
        };
        replicas[2].on_input(SmrInput::ReplicaMsg {
            from: 0,
            msg: pp.clone(),
        });
        for i in [1usize, 3] {
            replicas[i].on_input(SmrInput::Request {
                seq: 1_001,
                client: "alice".into(),
                op: b"PUT k v".to_vec(),
            });
        }
        let mut carried = Vec::new();
        let replies = tick_all(&mut replicas, 31, &[0], &mut |from, msg| {
            if let SmrMsg::DoViewChange { last_exec, log, .. } = msg {
                carried.push((
                    from,
                    *last_exec,
                    log.iter().map(|e| e.seq).collect::<Vec<_>>(),
                ));
            }
        });
        assert_eq!(replies.len(), 3, "slot 1001 executes under the new view");
        carried.sort();
        // Replica 1 leads view 1 and records its own contribution locally.
        assert_eq!(carried, [(2, 1_000, vec![1_001]), (3, 1_000, vec![])]);
    }

    #[test]
    fn tolerates_one_crashed_backup() {
        let mut replicas = group(4, 1);
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[3]);
        // Three live replicas still reach the 2f+1 = 3 quorum.
        assert_eq!(replies.len(), 3);
        assert!(replicas[0].last_exec() == 1 && replicas[2].last_exec() == 1);
        assert_eq!(replicas[3].last_exec(), 0, "crashed replica missed it");
    }

    #[test]
    fn two_crashes_block_progress() {
        let mut replicas = group(4, 1);
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[2, 3]);
        assert!(replies.is_empty(), "quorum impossible with 2 of 4 down");
        assert!(replicas[0].last_exec() == 0 && replicas[1].last_exec() == 0);
    }

    #[test]
    fn leader_crash_triggers_view_change_and_reexecution() {
        let mut replicas = group(4, 1);
        // Leader (0) is down; clients still broadcast.
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[0]);
        assert!(replies.is_empty(), "no leader, no ordering yet");
        // Time passes; one backup's timer fires, its StartViewChange
        // spreads by echo, DoViewChange suffixes flow to replica 1
        // (= 1 % 4), which merges, broadcasts StartView and re-proposes.
        let mut all_replies = Vec::new();
        for i in 1..4 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 31 });
            all_replies.extend(route(&mut replicas, i, outs, &[0]));
        }
        assert_eq!(replicas[1].view(), 1);
        assert!(replicas[1].is_leader());
        assert!(replicas[1].is_normal());
        assert_eq!(all_replies.len(), 3, "request executed under new view");
        assert!(all_replies.iter().all(|r| r.reply.body == b"OK"));
        for r in &replicas[1..] {
            assert_eq!(r.view_changes(), 1, "one completed view change");
        }
    }

    #[test]
    fn view_change_merges_prepared_but_uncommitted_slot() {
        let mut replicas = group(4, 1);
        // Leader 0 pre-prepares slot 1, but only replica 1 hears it before
        // the leader dies: the slot is in replica 1's log, uncommitted.
        let outs = replicas[0].on_input(SmrInput::Request {
            seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        });
        let SmrOutput::Broadcast(pp) = &outs[0] else { panic!() };
        replicas[1].on_input(SmrInput::ReplicaMsg {
            from: 0,
            msg: pp.clone(),
        });
        // 2 and 3 know about the request (pending) but never saw the slot.
        for i in [2usize, 3] {
            replicas[i].on_input(SmrInput::Request {
                seq: 1,
                client: "alice".into(),
                op: b"PUT a 1".to_vec(),
            });
        }
        let mut all_replies = Vec::new();
        for i in 1..4 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 31 });
            all_replies.extend(route(&mut replicas, i, outs, &[0]));
        }
        // The prepared slot survives the view change via replica 1's
        // DoViewChange suffix and commits under the new leader.
        assert_eq!(all_replies.len(), 3);
        assert!(all_replies.iter().all(|r| r.reply.body == b"OK"));
        for r in &replicas[1..] {
            assert_eq!(r.last_exec(), 1);
        }
    }

    #[test]
    fn stalled_view_change_escalates_past_a_dead_successor() {
        // n = 7, f = 2: leader 0 AND successor 1 both die. The view change
        // to view 1 stalls (its designated leader is down), then escalates
        // to view 2 after another timeout and completes there.
        let mut replicas = group(7, 2);
        let down = [0usize, 1];
        let replies = submit(&mut replicas, 1, b"PUT a 1", &down);
        assert!(replies.is_empty());
        // Sync every live clock first (the harness ticks each step), so
        // joiners stamp a fresh `vc_since` when the change starts at 31.
        for r in &mut replicas[2..] {
            r.on_input(SmrInput::Tick { now: 30 });
        }
        let mut all_replies = Vec::new();
        for i in 2..7 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 31 });
            all_replies.extend(route(&mut replicas, i, outs, &down));
        }
        assert!(all_replies.is_empty(), "view 1's leader is down: stalled");
        assert!(replicas[2..].iter().all(|r| !r.is_normal()));
        for i in 2..7 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 62 });
            all_replies.extend(route(&mut replicas, i, outs, &down));
        }
        assert_eq!(replicas[2].view(), 2);
        assert!(replicas[2].is_leader() && replicas[2].is_normal());
        assert_eq!(all_replies.len(), 5, "executed under view 2");
    }

    /// A deterministic xorshift so the property drivers need no rand dep.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Property: view numbers are monotone at every replica, and any two
    /// replicas that executed the same slot agree on what it held, under
    /// randomized crash/recover/tick/request schedules.
    #[test]
    fn property_views_monotone_and_slots_agree_under_random_crashes() {
        for trial in 0..12u64 {
            let mut rng = XorShift(0x5EED_0001 + trial * 0x9E37);
            let mut replicas = group(4, 1);
            let mut down: Vec<usize> = Vec::new();
            let mut views = [0u64; 4];
            let mut now = 0u64;
            let mut next_req = 0u64;
            for _ in 0..40 {
                match rng.next() % 4 {
                    0 => {
                        // Crash one replica (keep a 2f+1 = 3 quorum live).
                        if down.is_empty() {
                            down.push((rng.next() % 4) as usize);
                        }
                    }
                    1 => {
                        down.clear();
                    }
                    2 => {
                        next_req += 1;
                        submit(&mut replicas, next_req, b"PUT k v", &down);
                    }
                    _ => {
                        now += 17;
                        for i in 0..4 {
                            if down.contains(&i) {
                                continue;
                            }
                            let outs = replicas[i].on_input(SmrInput::Tick { now });
                            let snapshot = down.clone();
                            route(&mut replicas, i, outs, &snapshot);
                        }
                    }
                }
                for (i, r) in replicas.iter().enumerate() {
                    assert!(r.view() >= views[i], "view went backwards at {i}");
                    views[i] = r.view();
                }
            }
            // Agreement: every pair of replicas with overlapping executed
            // prefixes has identical service digests at the shorter one...
            // cheaper: all replicas at the same last_exec agree exactly.
            for a in 0..4 {
                for b in (a + 1)..4 {
                    if replicas[a].last_exec() == replicas[b].last_exec() {
                        assert_eq!(
                            replicas[a].service().digest(),
                            replicas[b].service().digest(),
                            "diverged at the same execution frontier (trial {trial})"
                        );
                    }
                }
            }
        }
    }

    /// Property: at most one leader commits per view — the leader of a
    /// view is `view % n` by construction, so the check is that every
    /// executed slot gathered its commit quorum under exactly one view.
    /// Read off the `Commit` broadcasts on the wire: replicas keep no
    /// history below their execution frontier.
    #[test]
    fn property_at_most_one_leader_commits_per_view() {
        let mut replicas = group(4, 1);
        // slot → view → replicas that broadcast `Commit` for it.
        let mut commit_votes: BTreeMap<u64, BTreeMap<u64, BTreeSet<usize>>> = BTreeMap::new();
        let mut tap = |from: usize, msg: &SmrMsg| {
            if let SmrMsg::Commit { view, seq, .. } = msg {
                commit_votes
                    .entry(*seq)
                    .or_default()
                    .entry(*view)
                    .or_default()
                    .insert(from);
            }
        };
        submit_tapped(&mut replicas, 1, b"PUT a 1", &[0], &mut tap);
        let mut now = 0;
        for round in 0..3 {
            now += 31;
            tick_all(&mut replicas, now, &[0], &mut tap);
            submit_tapped(&mut replicas, 2 + round, b"PUT b 2", &[0], &mut tap);
        }
        let executed = replicas.iter().map(|r| r.last_exec()).max().unwrap();
        assert!(executed >= 4, "the schedule must execute its requests");
        let quorum = SmrConfig::default().quorum();
        for seq in 1..=executed {
            let views: Vec<u64> = commit_votes
                .get(&seq)
                .into_iter()
                .flatten()
                .filter(|(_, voters)| voters.len() >= quorum)
                .map(|(view, _)| *view)
                .collect();
            assert_eq!(
                views.len(),
                1,
                "slot {seq} must commit under exactly one view/leader, got {views:?}"
            );
        }
    }

    /// Property: a single crash converges to a new view within one leader
    /// timeout — the first tick past `leader_timeout` completes the view
    /// change (measured latency ≈ the view timer, not a detection window).
    #[test]
    fn property_single_crash_converges_within_the_timeout() {
        for timeout in [10u64, 30, 50] {
            let authority = KeyAuthority::with_seed(7);
            let cfg = SmrConfig {
                n: 4,
                f: 1,
                leader_timeout: timeout,
            };
            let mut replicas: Vec<SmrReplica<KvStore>> = (0..4)
                .map(|i| {
                    let signer = Signer::register(&format!("smr-{i}"), &authority);
                    SmrReplica::new(cfg, i, KvStore::new(), signer).unwrap()
                })
                .collect();
            submit(&mut replicas, 1, b"PUT a 1", &[0]);
            // Tick every step: no view change at exactly `timeout`, a
            // completed one at `timeout + 1`.
            let mut converged_at = None;
            for now in 1..=timeout + 1 {
                for i in 1..4 {
                    let outs = replicas[i].on_input(SmrInput::Tick { now });
                    route(&mut replicas, i, outs, &[0]);
                }
                if replicas[1..].iter().all(|r| r.view() == 1 && r.is_normal()) {
                    converged_at = Some(now);
                    break;
                }
            }
            assert_eq!(
                converged_at,
                Some(timeout + 1),
                "view change must land exactly one tick past the timer"
            );
        }
    }

    #[test]
    fn byzantine_equivocation_on_a_slot_is_refused() {
        let mut replicas = group(4, 1);
        // Replica 1 receives two conflicting pre-prepares for slot 1.
        let pp1 = SmrMsg::PrePrepare {
            view: 0,
            seq: 1,
            request_seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        };
        let pp2 = SmrMsg::PrePrepare {
            view: 0,
            seq: 1,
            request_seq: 2,
            client: "mallory".into(),
            op: b"PUT a 666".to_vec(),
        };
        let outs1 = replicas[1].on_input(SmrInput::ReplicaMsg { from: 0, msg: pp1 });
        assert!(!outs1.is_empty());
        let outs2 = replicas[1].on_input(SmrInput::ReplicaMsg { from: 0, msg: pp2 });
        assert!(outs2.is_empty(), "conflicting proposal refused");
    }

    #[test]
    fn prepare_with_wrong_digest_not_counted() {
        let mut replicas = group(4, 1);
        let outs = replicas[0].on_input(SmrInput::Request {
            seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        });
        // Feed the pre-prepare to replica 1 only.
        let SmrOutput::Broadcast(pp) = &outs[0] else {
            panic!()
        };
        replicas[1].on_input(SmrInput::ReplicaMsg {
            from: 0,
            msg: pp.clone(),
        });
        // Forge prepares with a bogus digest from replicas 2 and 3.
        let bogus = Sha256::digest(b"bogus");
        for from in [2usize, 3] {
            let outs = replicas[1].on_input(SmrInput::ReplicaMsg {
                from,
                msg: SmrMsg::Prepare {
                    view: 0,
                    seq: 1,
                    digest: bogus,
                },
            });
            assert!(outs.is_empty(), "bogus prepare must not advance the slot");
        }
        assert_eq!(replicas[1].last_exec(), 0);
    }

    #[test]
    fn snapshot_offer_and_install() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[3]);
        submit(&mut replicas, 2, b"PUT b 2", &[3]);
        // Replica 3 rejoins via snapshot from replica 0.
        let offer = replicas[0].snapshot_offer();
        let SmrMsg::SnapshotOffer { seq, digest, snapshot } = offer else {
            panic!()
        };
        replicas[3].install_snapshot(seq, digest, &snapshot).unwrap();
        assert_eq!(replicas[3].last_exec(), 2);
        assert_eq!(replicas[3].service().digest(), replicas[0].service().digest());
        // And it participates normally afterwards.
        let replies = submit(&mut replicas, 3, b"GET b", &[]);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| r.reply.body == b"VALUE 2"));
    }

    #[test]
    fn install_snapshot_rejects_corruption() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        let SmrMsg::SnapshotOffer { seq, digest, mut snapshot } = replicas[0].snapshot_offer()
        else {
            panic!()
        };
        snapshot[0] ^= 0xff;
        assert!(replicas[3].install_snapshot(seq, digest, &snapshot).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(SmrConfig { n: 3, f: 1, leader_timeout: 1 }.validate().is_err());
        assert!(SmrConfig { n: 4, f: 1, leader_timeout: 1 }.validate().is_ok());
        // A vote mask is 64 bits wide.
        assert!(SmrConfig { n: 64, f: 1, leader_timeout: 1 }.validate().is_ok());
        let Err(ReplicationError::BadConfig { reason }) =
            (SmrConfig { n: 65, f: 1, leader_timeout: 1 }).validate()
        else {
            panic!("n = 65 must be refused");
        };
        assert!(reason.contains("64"), "the reason names the bound: {reason}");
        assert_eq!(SmrConfig::default().quorum(), 3);
        let authority = KeyAuthority::with_seed(1);
        let signer = Signer::register("x", &authority);
        assert!(matches!(
            SmrReplica::new(SmrConfig::default(), 9, KvStore::new(), signer),
            Err(ReplicationError::BadReplicaIndex { .. })
        ));
    }

    #[test]
    fn snapshot_request_is_answered() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        let outs = replicas[0].on_input(SmrInput::ReplicaMsg {
            from: 3,
            msg: SmrMsg::SnapshotRequest { last_exec: 0 },
        });
        assert!(matches!(
            &outs[..],
            [SmrOutput::ToReplica(3, SmrMsg::SnapshotOffer { seq: 1, .. })]
        ));
    }

    /// Every group built alike orders alike. Six requests from two
    /// clients wait at the backups of eight independently built groups
    /// whose leader is down; one tick past the timeout each new leader
    /// re-proposes them in (client, request seq) order, whatever order
    /// they arrived in.
    #[test]
    fn a_new_leader_re_proposes_in_client_then_request_order() {
        let arrivals = [("bob", 3), ("alice", 2), ("bob", 1), ("alice", 3), ("bob", 2), ("alice", 1)];
        let expected: Vec<(String, u64)> = ["alice", "bob"]
            .into_iter()
            .flat_map(|c| (1..=3).map(move |seq| (c.to_owned(), seq)))
            .collect();
        for group_no in 0..8 {
            let mut replicas = group(4, 1);
            for (client, seq) in arrivals {
                for r in &mut replicas[1..] {
                    let op = format!("PUT {client} {seq}").into_bytes();
                    assert!(r.on_request(seq, client, &op).is_empty(), "a backup only remembers");
                }
            }
            let mut proposed = Vec::new();
            let replies = tick_all(&mut replicas, 31, &[0], &mut |_, msg| {
                if let SmrMsg::PrePrepare { client, request_seq, .. } = msg {
                    proposed.push((client.clone(), *request_seq));
                }
            });
            assert_eq!(proposed, expected, "group {group_no}");
            assert_eq!(replies.len(), 3 * 6, "group {group_no}: all six execute at three replicas");
        }
    }

    /// A retransmission of an executed request is answered with the
    /// reply first signed, byte for byte, and still counted as a reply.
    #[test]
    fn a_retransmission_replays_the_first_signature() {
        let mut replicas = group(4, 1);
        let first = submit(&mut replicas, 1, b"PUT a 1", &[]);
        submit(&mut replicas, 2, b"PUT a 2", &[]);
        let original = first.iter().find(|r| r.reply.server_index == 2).expect("replica 2 answered");
        let sent = replicas[2].replies_sent();
        for _ in 0..3 {
            let outs = replicas[2].on_input(SmrInput::Request {
                seq: 1,
                client: "alice".into(),
                op: b"PUT a 1".to_vec(),
            });
            let [SmrOutput::Reply(replayed)] = &outs[..] else {
                panic!("a reply and nothing else, got {outs:?}");
            };
            assert_eq!(replayed.encode(), original.encode());
        }
        assert_eq!(replicas[2].replies_sent(), sent + 3);
        assert_eq!(replicas[2].last_exec(), 2, "not re-executed");
    }

    /// A client picks its own seqs: the edges, a descending run, a gap a
    /// late request fills and a far gap are each executed once and then
    /// replayed byte for byte by every replica, as `pb`'s row of the same
    /// name holds for a primary.
    #[test]
    fn a_replay_holds_for_any_seq() {
        let mut replicas = group(4, 1);
        let seqs = [u64::MAX, 0, 1 << 40, 9, 8, 7, 12, 10, 1 << 50];
        let mut first = Vec::new();
        for seq in seqs {
            let replies = submit(&mut replicas, seq, b"PUT x 1", &[]);
            assert_eq!(replies.len(), 4, "seq {seq}: every replica answers");
            first.push(replies);
        }
        for (seq, replies) in seqs.into_iter().zip(first) {
            for original in replies {
                let i = original.reply.server_index as usize;
                let exec = replicas[i].last_exec();
                let outs = replicas[i].on_request(seq, "alice", b"PUT x 1");
                let [SmrOutput::Reply(replayed)] = &outs[..] else {
                    panic!("seq {seq} at replica {i}: a replay only, got {outs:?}");
                };
                assert_eq!(replayed.encode(), original.encode(), "seq {seq} at replica {i}");
                assert_eq!(replicas[i].last_exec(), exec, "not re-executed");
            }
        }
    }

    /// What one replica of [`votes_are_counted_once`] was sent and did.
    #[derive(Default)]
    struct Seen {
        /// `(view, slot, digest)` → the members whose `Commit` reached
        /// this replica, its own included.
        commits: BTreeMap<(u64, u64, [u8; 32]), BTreeSet<usize>>,
        /// The request executed in slot `i + 1`.
        executed: Vec<(String, u64)>,
        /// The first reply to each request.
        replies: BTreeMap<(String, u64), Vec<u8>>,
    }

    /// Delivers `input` to replica `to` and checks the oracles on what
    /// it did; returns its protocol messages as `(to, from, message)`.
    fn deliver_checked(
        replicas: &mut [SmrReplica<KvStore>],
        seen: &mut [Seen],
        ops: &BTreeMap<(String, u64), Vec<u8>>,
        to: usize,
        input: SmrInput,
    ) -> Vec<(usize, usize, SmrMsg)> {
        let n = replicas.len();
        let quorum = 2 * ((n - 1) / 3) + 1;
        let seen = &mut seen[to];
        let is_request = matches!(input, SmrInput::Request { .. });
        if let SmrInput::ReplicaMsg { from, msg: SmrMsg::Commit { view, seq, digest } } = &input {
            if *from < n {
                seen.commits.entry((*view, *seq, digest.0)).or_default().insert(*from);
            }
        }
        let outs = replicas[to].on_input(input);
        let mut sends = Vec::new();
        for out in outs {
            match out {
                SmrOutput::Reply(reply) => {
                    let key = (reply.reply.client.clone(), reply.reply.request_seq);
                    let bytes = reply.encode();
                    if is_request {
                        assert_eq!(Some(&bytes), seen.replies.get(&key), "a replay is the first answer");
                        continue;
                    }
                    assert!(!seen.executed.contains(&key), "{key:?} executed twice at {to}");
                    let slot = seen.executed.len() as u64 + 1;
                    let digest = request_digest(key.1, &key.0, &ops[&key]);
                    let voted = seen
                        .commits
                        .iter()
                        .filter(|((_, s, d), _)| *s == slot && *d == digest.0)
                        .map(|(_, voters)| voters.len())
                        .max();
                    assert!(
                        voted >= Some(quorum),
                        "replica {to} executed slot {slot} on {voted:?} distinct commits"
                    );
                    seen.executed.push(key.clone());
                    seen.replies.insert(key, bytes);
                }
                SmrOutput::Broadcast(msg) => {
                    if let SmrMsg::Commit { view, seq, digest } = &msg {
                        seen.commits.entry((*view, *seq, digest.0)).or_default().insert(to);
                    }
                    sends.extend((0..n).filter(|j| *j != to).map(|j| (j, to, msg.clone())));
                }
                SmrOutput::ToReplica(j, msg) => sends.push((j, to, msg)),
            }
        }
        assert_eq!(replicas[to].last_exec(), seen.executed.len() as u64, "one reply per executed slot");
        // Committed but not yet executed: the quorum is already there.
        for (slot, p) in replicas[to].log.iter().filter(|(_, p)| p.committed) {
            let voted = seen
                .commits
                .iter()
                .filter(|((_, s, d), _)| s == slot && *d == p.digest.0)
                .map(|(_, voters)| voters.len())
                .max();
            assert!(voted >= Some(quorum), "replica {to} committed slot {slot} on {voted:?}");
        }
        sends
    }

    proptest::proptest! {
        /// A vote is counted once, from a member, at a quorum of distinct
        /// members. Six requests from two clients reach a four-replica
        /// group in a random order, every message is delivered one to
        /// three times, half the votes also arrive under a sender index
        /// past the group, and the leader may crash at any point; ticks
        /// run once the network is quiet. Every replica executes each
        /// request once, in the same slot everywhere, and never before
        /// `2f + 1` distinct members' commits for it reached it.
        #[test]
        fn votes_are_counted_once(
            seed in proptest::prelude::any::<u64>(),
            leader_crash in proptest::prelude::any::<bool>(),
            crash_at in 0usize..200,
        ) {
            let mut rng = XorShift(seed | 1);
            let n = 4;
            let mut replicas = group(n, 1);
            let mut seen: Vec<Seen> = (0..n).map(|_| Seen::default()).collect();
            let mut ops = BTreeMap::new();
            // Undelivered inputs, by receiver.
            let mut queue: Vec<(usize, SmrInput)> = Vec::new();
            let copies = |rng: &mut XorShift| 1 + rng.next() % 3;
            for client in ["alice", "bob"] {
                for seq in 1..=3u64 {
                    let op = format!("PUT {client} {seq}").into_bytes();
                    ops.insert((client.to_owned(), seq), op.clone());
                    for to in 0..n {
                        for _ in 0..copies(&mut rng) {
                            let input = SmrInput::Request { seq, client: client.into(), op: op.clone() };
                            queue.push((to, input));
                        }
                    }
                }
            }
            let mut down = [false; 4];
            let (mut delivered, mut now, mut ticks) = (0usize, 0u64, 0);
            while ticks < 3 || !queue.is_empty() {
                if leader_crash && delivered == crash_at {
                    down[0] = true;
                }
                let mut inputs = Vec::new();
                if queue.is_empty() {
                    ticks += 1;
                    now += 31;
                    inputs.extend((0..n).map(|i| (i, SmrInput::Tick { now })));
                } else {
                    let k = (rng.next() % queue.len() as u64) as usize;
                    inputs.push(queue.swap_remove(k));
                    delivered += 1;
                }
                for (to, input) in inputs {
                    if down[to] {
                        continue;
                    }
                    for (to, from, msg) in deliver_checked(&mut replicas, &mut seen, &ops, to, input) {
                        let vote = matches!(msg, SmrMsg::Prepare { .. } | SmrMsg::Commit { .. });
                        if vote && rng.next().is_multiple_of(2) {
                            let phantom = n + (rng.next() % 8) as usize;
                            queue.push((to, SmrInput::ReplicaMsg { from: phantom, msg: msg.clone() }));
                        }
                        for _ in 0..copies(&mut rng) {
                            queue.push((to, SmrInput::ReplicaMsg { from, msg: msg.clone() }));
                        }
                    }
                }
            }
            let expected: BTreeSet<(String, u64)> = ops.keys().cloned().collect();
            let live: Vec<&Seen> = (0..n).filter(|i| !down[*i]).map(|i| &seen[i]).collect();
            for (i, s) in live.iter().enumerate() {
                assert_eq!(s.executed, live[0].executed, "live replica {i} ordered differently");
                let executed: BTreeSet<(String, u64)> = s.executed.iter().cloned().collect();
                assert_eq!(executed, expected, "every request executes once");
            }
        }
    }
}
