//! The server-tier seam: the one place primary-backup and SMR differ.
//!
//! What a tier must supply is listed in the [`system`](crate::system)
//! module docs. It all lives here: the per-replica [`Engine`], the
//! [`Route`]s its outputs leave by, and the tier-wide predicates and
//! counters of [`ServerTier`]. The SMR side owns the
//! [`TransferScheduler`], whose queue is the tier's only SMR-only state:
//! a rejoiner is catching up exactly while the queue holds it. Nothing
//! outside this module touches it.

use std::sync::Arc;

use bytes::Bytes;
use fortress_crypto::sig::Signer;
use fortress_crypto::KeyAuthority;
use fortress_net::addr::Addr;
use fortress_net::transport::Transport;
use fortress_obf::daemon::ForkingDaemon;
use fortress_obf::keys::RandomizationKey;
use fortress_replication::message::SignedReply;
use fortress_replication::pb::{PbConfig, PbInput, PbOutput, PbReplica};
use fortress_replication::service::KvStore;
use fortress_replication::smr::{SmrConfig, SmrInput, SmrOutput, SmrReplica};
use fortress_replication::state_transfer::TransferScheduler;

use crate::error::FortressError;
use crate::nameserver::ReplicationType;
use crate::system::{frame, Availability};
use crate::wire::WireMsg;

/// An SMR tier's transfer units per step until `set_transfer_bandwidth`.
const DEFAULT_TRANSFER_BANDWIDTH: u64 = 1;

/// One engine output, encoded and addressed.
pub(crate) enum Route {
    /// To every other replica of the tier.
    Peers(Bytes),
    /// To the replica at this tier index.
    Peer(usize, Bytes),
    /// Toward the named client (via the proxies, where deployed).
    Reply(String, Bytes),
}

/// What one engine input provoked: the engine's own output vector, moved.
pub(crate) enum Outputs {
    Pb(Vec<PbOutput>),
    Smr(Vec<SmrOutput>),
}

impl Outputs {
    /// Encodes each output through the scratch `buf` into a [`Route`].
    pub(crate) fn for_each(self, buf: &mut Vec<u8>, mut send: impl FnMut(Route)) {
        let reply = |buf: &mut Vec<u8>, r: SignedReply| {
            let frame = frame(buf, |b| r.encode_reusing(b));
            Route::Reply(r.reply.client, frame)
        };
        match self {
            Outputs::Pb(outs) => outs.into_iter().for_each(|out| match out {
                PbOutput::Broadcast(m) => send(Route::Peers(frame(buf, |b| m.encode_reusing(b)))),
                PbOutput::Reply(r) => send(reply(buf, r)),
            }),
            Outputs::Smr(outs) => outs.into_iter().for_each(|out| match out {
                SmrOutput::Broadcast(m) => send(Route::Peers(frame(buf, |b| m.encode_reusing(b)))),
                SmrOutput::ToReplica(to, m) => {
                    send(Route::Peer(to, frame(buf, |b| m.encode_reusing(b))))
                }
                SmrOutput::Reply(r) => send(reply(buf, r)),
            }),
        }
    }
}

/// One replica's ordering engine. Boxing the larger replica would save a
/// few hundred bytes per stack and cost a pointer chase on every dispatch.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Engine {
    Pb(PbReplica<KvStore>),
    Smr(SmrReplica<KvStore>),
}

impl Engine {
    fn reset(&mut self, signer: Signer) {
        match self {
            Engine::Pb(r) => r.reset(KvStore::new(), signer),
            Engine::Smr(r) => r.reset(KvStore::new(), signer),
        }
    }

    /// The view this replica is in.
    pub(crate) fn view(&self) -> u64 {
        match self {
            Engine::Pb(r) => r.view(),
            Engine::Smr(r) => r.view(),
        }
    }

    /// Whether this replica believes it is the one serving its view.
    fn leading(&self) -> bool {
        match self {
            Engine::Pb(r) => r.is_primary(),
            Engine::Smr(r) => r.is_leader() && r.is_normal(),
        }
    }

    /// How far this replica's state has advanced (prices a rejoin).
    fn executed(&self) -> u64 {
        match self {
            Engine::Pb(r) => r.seq(),
            Engine::Smr(r) => r.last_exec(),
        }
    }

    pub(crate) fn on_request(&mut self, seq: u64, client: &str, op: &[u8]) -> Outputs {
        match self {
            Engine::Pb(r) => Outputs::Pb(r.on_request(seq, client, op)),
            Engine::Smr(r) => Outputs::Smr(r.on_request(seq, client, op)),
        }
    }

    /// Feeds a replica-protocol frame from group member `from`; `None`
    /// (and the engine never sees it) when it is not this tier's kind.
    pub(crate) fn on_peer_frame(&mut self, from: usize, msg: WireMsg<'_>) -> Option<Outputs> {
        match (self, msg) {
            (Engine::Pb(r), WireMsg::Pb(msg)) => {
                Some(Outputs::Pb(r.on_input(PbInput::ReplicaMsg { from, msg })))
            }
            (Engine::Smr(r), WireMsg::Smr(msg)) => {
                Some(Outputs::Smr(r.on_input(SmrInput::ReplicaMsg { from, msg })))
            }
            _ => None,
        }
    }

    /// Advances the logical clock (heartbeat, failover and view timers).
    pub(crate) fn tick(&mut self, now: u64) -> Outputs {
        match self {
            Engine::Pb(r) => Outputs::Pb(r.on_input(PbInput::Tick { now })),
            Engine::Smr(r) => Outputs::Smr(r.on_input(SmrInput::Tick { now })),
        }
    }
}

/// One server machine: a daemon-supervised randomized replica process.
pub(crate) struct ServerNode {
    pub(crate) addr: Addr,
    pub(crate) daemon: ForkingDaemon,
    pub(crate) engine: Engine,
    /// Machine outage (`Stack::take_down_server`): neither ticks nor
    /// serves until brought back up. Not a child crash, which the forking
    /// daemon heals instantly.
    pub(crate) down: bool,
}

/// Tier-wide state the replicas do not carry themselves.
enum Side {
    Pb,
    /// What each rejoiner still owes before it is back in the quorum.
    Smr(TransferScheduler),
}

/// The deployed server tier.
pub(crate) struct ServerTier {
    pub(crate) nodes: Vec<ServerNode>,
    side: Side,
}

impl ServerTier {
    /// Registers, credentials and boots one replica per name, in order.
    pub(crate) fn assemble<T: Transport>(
        replication: ReplicationType,
        names: &[String],
        keys: &[RandomizationKey],
        net: &mut T,
        authority: &Arc<KeyAuthority>,
    ) -> Result<ServerTier, FortressError> {
        // Anything else (unreplicated included) is a PB group, maybe of one.
        let smr = matches!(replication, ReplicationType::StateMachine { .. });
        let mut nodes = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let addr = net.register(name);
            let signer = Signer::register(name, authority);
            let engine = if smr {
                Engine::Smr(SmrReplica::new(SmrConfig::default(), i, KvStore::new(), signer)?)
            } else {
                let cfg = PbConfig { n: names.len(), ..PbConfig::default() };
                Engine::Pb(PbReplica::new(cfg, i, KvStore::new(), signer))
            };
            let daemon = ForkingDaemon::boot(name, keys[i]);
            nodes.push(ServerNode { addr, daemon, engine, down: false });
        }
        let side = if smr {
            Side::Smr(TransferScheduler::new(DEFAULT_TRANSFER_BANDWIDTH))
        } else {
            Side::Pb
        };
        Ok(ServerTier { nodes, side })
    }

    /// Rewinds nodes and tier-wide state to what [`ServerTier::assemble`]
    /// produces under `keys`, re-registering principals in the same order.
    pub(crate) fn reset(&mut self, authority: &Arc<KeyAuthority>, keys: &[RandomizationKey]) {
        for (node, key) in self.nodes.iter_mut().zip(keys) {
            node.engine.reset(Signer::register(node.daemon.name(), authority));
            node.daemon.reset(*key);
            node.down = false;
        }
        if let Side::Smr(transfer) = &mut self.side {
            transfer.reset();
            transfer.set_bandwidth(DEFAULT_TRANSFER_BANDWIDTH);
        }
    }

    pub(crate) fn index_of(&self, addr: Addr) -> Option<usize> {
        self.nodes.iter().position(|n| n.addr == addr)
    }

    /// Intrusions tolerated, `f`: none for PB (one controlled replica
    /// answers for the group), `(n − 1) / 3` for SMR. `f + 1` are fatal.
    pub(crate) fn faults(&self) -> usize {
        match self.side {
            Side::Pb => 0,
            Side::Smr(_) => (self.nodes.len() - 1) / 3,
        }
    }

    /// Whether replica `i` is in the SMR transfer queue, still paying its
    /// rejoin (never on a PB tier).
    pub(crate) fn queued(&self, i: usize) -> bool {
        matches!(&self.side, Side::Smr(transfer) if transfer.is_queued(i))
    }

    /// Consuming traffic: machine `i` is up and any rejoin transfer paid.
    pub(crate) fn listening(&self, i: usize) -> bool {
        !self.nodes[i].down && !self.queued(i)
    }

    /// Listening and not attacker-controlled: counts toward the quorum
    /// and runs its timers.
    pub(crate) fn live(&self, i: usize) -> bool {
        self.listening(i) && !self.nodes[i].daemon.is_compromised()
    }

    /// The live replicas' nodes, in tier order.
    fn live_nodes(&self) -> impl Iterator<Item = &ServerNode> {
        self.nodes.iter().enumerate().filter(|&(i, _)| self.live(i)).map(|(_, n)| n)
    }

    /// The highest view among live replicas, `None` when none is live.
    fn live_view(&self) -> Option<u64> {
        self.live_nodes().map(|n| n.engine.view()).max()
    }

    /// The replica serving right now: a `2f + 1` quorum is live and this
    /// live replica leads the highest live view. (A repaired PB machine
    /// still in the stale view it crashed in believes it is that view's
    /// primary but serves nobody, and must not mask real downtime.)
    pub(crate) fn serving_index(&self) -> Option<usize> {
        let view = self.live_view()?;
        if self.live_nodes().count() < 2 * self.faults() + 1 {
            return None;
        }
        (0..self.nodes.len()).find(|&i| {
            let engine = &self.nodes[i].engine;
            self.live(i) && engine.view() == view && engine.leading()
        })
    }

    /// [`ServerTier::serving_index`] on a primary-backup tier.
    pub(crate) fn pb_primary_index(&self) -> Option<usize> {
        match self.side {
            Side::Pb => self.serving_index(),
            Side::Smr(_) => None,
        }
    }

    /// The highest live SMR view through the round-robin leader rule (0
    /// on a PB tier or a fully dead one).
    pub(crate) fn smr_leader_hint(&self) -> usize {
        match (&self.side, self.live_view()) {
            (Side::Smr(_), Some(view)) => (view % self.nodes.len() as u64) as usize,
            _ => 0,
        }
    }

    /// Marks machine `i` down; true if it was up.
    pub(crate) fn take_down(&mut self, i: usize) -> bool {
        !std::mem::replace(&mut self.nodes[i].down, true)
    }

    /// Marks machine `i` up. A PB replica rejoins at once; an SMR replica
    /// first owes its distance behind the furthest listening replica.
    pub(crate) fn bring_up(&mut self, i: usize) {
        self.nodes[i].down = false;
        let listening = (0..self.nodes.len()).filter(|&j| self.listening(j));
        let frontier = listening.map(|j| self.nodes[j].engine.executed()).max().unwrap_or(0);
        let divergence = frontier.saturating_sub(self.nodes[i].engine.executed());
        if let Side::Smr(transfer) = &mut self.side {
            transfer.enqueue(i, divergence);
        }
    }

    /// Spends this step's transfer bandwidth; replicas now fully paid
    /// leave the queue before the tick, so their first live step is this
    /// one.
    pub(crate) fn begin_step(&mut self) {
        if let Side::Smr(transfer) = &mut self.side {
            transfer.step();
        }
    }

    /// Sets the SMR transfer bandwidth, keeping whatever is queued.
    /// No-op on a PB tier.
    pub(crate) fn set_transfer_bandwidth(&mut self, bandwidth: u64) {
        if let Side::Smr(transfer) = &mut self.side {
            transfer.set_bandwidth(bandwidth);
        }
    }

    /// A view advance past `seen` is a `failover` on either tier; the
    /// tier picks whose views count (PB: max over every replica; SMR:
    /// max over live ones), and the SMR side also reports its transfers.
    pub(crate) fn account(&self, seen: &mut u64, avail: &mut Availability) {
        let view = match &self.side {
            Side::Pb => self.nodes.iter().map(|n| n.engine.view()).max(),
            Side::Smr(transfer) => {
                avail.transfer_units = transfer.units_paid();
                avail.peak_transfer_queue =
                    avail.peak_transfer_queue.max(transfer.peak_queue() as u64);
                self.live_view()
            }
        };
        if let Some(view) = view.filter(|v| *v > *seen) {
            avail.failovers += view - *seen;
            *seen = view;
        }
    }
}
