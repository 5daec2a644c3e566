//! Full-system assembly of S0, S1 and S2 over the deterministic network.
//!
//! A [`Stack`] is **clients + an optional proxy tier + exactly one server
//! tier**. The class under test (paper §4) only picks the parts:
//!
//! * **S0** — no proxies; a 4-replica SMR tier with **distinct**
//!   randomization keys; compromised when 2 replicas fall.
//! * **S1** — no proxies; a 3-replica PB tier with **one shared** key;
//!   compromised when any replica falls.
//! * **S2** — FORTRESS: 3 proxies (distinct keys) in front of the same PB
//!   tier; servers accept traffic **only from proxies**; compromised when
//!   a server falls or all proxies fall.
//!
//! The class is read once, at assembly. Past that point the drive loop
//! never asks which class it is running: whether there is a proxy tier is
//! structural (the proxy list is empty or not), and everything that
//! differs between primary-backup and SMR sits behind the server-tier
//! seam in the private `tier` module.
//!
//! # The server-tier seam
//!
//! The stack holds one list of server nodes (`addr`, `daemon`, `engine`,
//! `down`). A tier supplies:
//!
//! * an engine with `on_request` / `on_peer_frame` / `tick` / `view` /
//!   `reset`, whose outputs come back as peers | one peer | reply and
//!   leave through the stack's single encode-and-send path;
//! * the faults it tolerates (`f`: 0 for PB, 1 for the 4-replica SMR),
//!   which fixes both the serving quorum `2f + 1` and the fatal-compromise
//!   threshold `f + 1`;
//! * its *leading* predicate (PB: primary of its view; SMR: leader of its
//!   view and in normal status), which with the quorum is
//!   [`Stack::serving`] — the predicate availability is accounted against;
//! * which [`Availability`] counter a view advance feeds, and over which
//!   replicas the tier's view is taken;
//! * what a rejoin costs: nothing for PB; for SMR the repair gate, the
//!   transfer scheduler and the per-replica catching-up flag, all owned
//!   by the SMR side and rewound by its reset.
//!
//! Adding a server tier is one impl of that list, not twelve `match` arms
//! spread over assembly, reset, dispatch, ticking and accounting.
//!
//! Every node is a [`ForkingDaemon`]-supervised randomized process: a
//! malicious request whose embedded exploit misses the key **crashes** the
//! child (peers observe the closed connection; the daemon restarts it), and
//! a correct guess **compromises** it. `end_step` applies the obfuscation
//! policy: PO re-randomizes with fresh keys (shared for the server group,
//! distinct for proxies, per §3); SO's recovery leaves every node as it is.
//!
//! The stack exposes exactly the handles the attacker legitimately has —
//! client endpoints, proxy addresses, direct server addresses for 1-tier
//! classes, plus `submit_via_proxy` which *requires* the proxy to be
//! compromised (the launch-pad path of §3).
//!
//! # Transport genericity
//!
//! [`Stack`] is generic over the [`Transport`] it runs on, defaulting to
//! the deterministic [`SimNet`] (what every Monte-Carlo trial uses).
//! [`Stack::with_transport`] assembles the same system over any other
//! backend — the `failover` example and the soak harness drive the
//! same stack over [`SockNet`](fortress_net::sock::SockNet), through
//! real kernel sockets. The drive loop ([`Stack::pump`]) is written
//! purely against the trait: batched [`Transport::drain_into`] with one
//! reused scratch buffer, [`Transport::broadcast`] over address lists
//! cached at assembly, and [`Transport::step`] for delivery progress.
//!
//! # Payload routing
//!
//! Every delivered payload is classified **once** through the typed
//! [`WireMsg`] envelope and routed by a single `match` — there are no
//! ordered try-decode chains. Frames an endpoint does not accept —
//! undecodable, not part of its interface, or a replica-protocol frame
//! not from a group member or not of the tier's kind — are counted per
//! endpoint ([`Stack::malformed_at`], summed by
//! [`Stack::malformed_total`]) instead of being silently dropped:
//! corrupted or forged bytes are an *event*, not noise.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use fortress_crypto::sig::Signer;
use fortress_crypto::KeyAuthority;
use fortress_net::addr::Addr;
use fortress_net::event::{NetEvent, NetStats};
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::transport::Transport;
use fortress_obf::daemon::{ForkingDaemon, ProbeOutcome};
use fortress_obf::keys::{KeySpace, RandomizationKey, MAX_ENTROPY_BITS};
use fortress_obf::schedule::{KeyAssignment, Policy, Rerandomizer};
use fortress_replication::pb::PbConfig;

use crate::error::FortressError;
use crate::messages::{ClientRequest, ProxyResponseRef};
use crate::nameserver::{NameServer, ReplicationType};
use crate::probelog::SuspicionPolicy;
use crate::proxy::{Proxy, ProxyInput, ProxyOutput};
use crate::tier::{Outputs, Route, ServerTier};
use crate::wire::WireMsg;

/// Which system class to assemble.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemClass {
    /// 4-replica SMR, clients direct (Definition 1).
    S0Smr,
    /// 3-replica PB, clients direct (Definition 2).
    S1Pb,
    /// FORTRESS: 3 proxies + 3 PB servers (Definition 3).
    S2Fortress,
}

/// Number of PB servers on S1 and S2 (the paper's 3). S0 is fixed at
/// `n = 3f + 1 = 4` by the SMR quorum arithmetic.
const PB_SERVERS: usize = 3;

/// Assembly-time configuration.
///
/// Every node is randomized under the one scheme,
/// [`fortress_obf::scheme`]'s PaX-style ASLR, so the defense is the key
/// space's size and the obfuscation policy.
#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    /// System class.
    pub class: SystemClass,
    /// Randomization-key entropy in bits, at most
    /// [`MAX_ENTROPY_BITS`] (the paper's χ = 2^16; protocol simulations
    /// use smaller spaces for runtime).
    pub entropy_bits: u32,
    /// Obfuscation policy (SO or PO).
    pub policy: Policy,
    /// Proxy suspicion policy (S2 only).
    pub suspicion: SuspicionPolicy,
    /// Number of proxies `np` (S2 only; the paper uses 3).
    pub np: usize,
    /// Master seed: key draws, principal keys.
    pub seed: u64,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            class: SystemClass::S2Fortress,
            entropy_bits: 10,
            policy: Policy::Proactive,
            suspicion: SuspicionPolicy::default(),
            np: 3,
            seed: 0,
        }
    }
}

impl StackConfig {
    /// Whether `other` assembles an identically-*shaped* stack: every
    /// knob equal except the seed. Two same-shaped configurations build
    /// stacks with the same node counts, names, registration order and
    /// policies, differing only in key material and network timing — so
    /// a stack built from one can be rewound to the other with
    /// [`Stack::reset`] instead of reassembled. The trial arena keys
    /// reuse on this predicate.
    pub fn same_shape(&self, other: &StackConfig) -> bool {
        self.class == other.class
            && self.entropy_bits == other.entropy_bits
            && self.policy == other.policy
            && self.suspicion == other.suspicion
            && self.np == other.np
    }

    /// What the class deploys — the one place it is read.
    fn parts(&self) -> Parts {
        let pb = Parts {
            np: None,
            servers: PB_SERVERS,
            server_prefix: "pb",
            replication: ReplicationType::PrimaryBackup,
            server_keys: KeyAssignment::SharedAcrossGroup,
        };
        match self.class {
            SystemClass::S0Smr => Parts {
                np: None,
                servers: 4,
                server_prefix: "smr",
                replication: ReplicationType::StateMachine { f: 1 },
                server_keys: KeyAssignment::DistinctPerNode,
            },
            SystemClass::S1Pb => pb,
            SystemClass::S2Fortress => Parts {
                np: Some(self.np),
                ..pb
            },
        }
    }
}

/// The parts list of one [`SystemClass`].
struct Parts {
    /// Proxy-tier size; `None` for the 1-tier classes.
    np: Option<usize>,
    servers: usize,
    server_prefix: &'static str,
    replication: ReplicationType,
    /// Per the FORTRESS prescription (§3): one shared key for the PB
    /// group, distinct keys for SMR replicas (and, always, for proxies).
    server_keys: KeyAssignment,
}

/// Both tiers' re-randomizers and the boot keys drawn from them. Without
/// proxies the proxy re-randomizer draws and maintains nothing.
struct KeyMaterial {
    server_rr: Rerandomizer,
    server_keys: Vec<RandomizationKey>,
    proxy_rr: Rerandomizer,
    proxy_keys: Vec<RandomizationKey>,
}

impl KeyMaterial {
    /// Draws server keys first, then proxy keys — the RNG order assembly
    /// fixes and [`Stack::reset`] replays.
    fn draw(cfg: &StackConfig, rng: &mut rand::rngs::StdRng) -> KeyMaterial {
        let parts = cfg.parts();
        let space = KeySpace::from_entropy_bits(cfg.entropy_bits);
        let server_rr = Rerandomizer::new(space, cfg.policy, parts.server_keys);
        let server_keys = server_rr.initial_keys(parts.servers, rng);
        let proxy_rr = Rerandomizer::new(space, cfg.policy, KeyAssignment::DistinctPerNode);
        let proxy_keys = proxy_rr.initial_keys(parts.np.unwrap_or(0), rng);
        KeyMaterial { server_rr, server_keys, proxy_rr, proxy_keys }
    }
}

/// The failover timeout the assembled PB tiers run with
/// ([`PbConfig::default`]'s, which [`Stack`] never overrides) — the
/// closed-form availability predictions read it to bound how long a
/// primary outage keeps the tier down.
pub fn pb_failover_timeout() -> u64 {
    PbConfig::default().failover_timeout
}

/// Availability bookkeeping over the server tier, maintained by
/// [`Stack::end_step`] with **zero RNG consumption** (so enabling the
/// counters changed no existing trial's bits).
///
/// A step counts as *down* when the tier is not [`Stack::serving`]: no
/// quorum of live replicas (up, any rejoin transfer paid, uncompromised),
/// or none of them leading the highest live view. For PB that is exactly
/// the window the failover protocol exists to close; for S0 it is the
/// *view-change* window, from losing the serving leader to a live quorum
/// executing under a new one. Which tier-specific counters move is the
/// tier's business: a PB view advance is a `failover`, an SMR one a
/// `view_change`, and only the SMR side pays transfers. An S0 tier
/// accrues nothing but `steps` until its repair accounting is armed (the
/// first [`Stack::take_down_server`] against it, or
/// [`Stack::enable_smr_repair`]), so legacy S0 trials keep their
/// pre-repair bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Availability {
    /// Unit time-steps observed (one per [`Stack::end_step`]).
    pub steps: u64,
    /// Steps with no live serving primary.
    pub down_steps: u64,
    /// Machine outages injected via [`Stack::take_down_server`].
    pub outages: u64,
    /// PB failovers observed (view adoptions across the tier).
    pub failovers: u64,
    /// Total steps spent between losing the serving primary and a
    /// replica serving again, summed over completed failover windows.
    pub failover_latency_total: u64,
    /// Completed failover windows behind `failover_latency_total` (an
    /// outage that outlives the trial contributes to `down_steps` but
    /// completes no window).
    pub recoveries: u64,
    /// Deliveries dead-lettered while at least one server machine was
    /// down — client/proxy requests lost to the outage windows.
    pub lost_requests: u64,
    /// SMR view changes completed across the live tier (max installed
    /// view increments; S0 repair accounting only).
    pub view_changes: u64,
    /// State-transfer units paid by rejoining SMR replicas (S0 repair
    /// accounting only; see `TransferScheduler`).
    pub transfer_units: u64,
    /// Deepest state-transfer queue observed — the recovery-storm
    /// signature (S0 repair accounting only).
    pub peak_transfer_queue: u64,
}

impl Availability {
    /// Mean steps from losing the serving primary to serving again,
    /// over completed failover windows (`None` if none completed).
    pub fn mean_failover_latency(&self) -> Option<f64> {
        (self.recoveries > 0)
            .then(|| self.failover_latency_total as f64 / self.recoveries as f64)
    }
}

/// How (and whether) the system has been compromised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompromiseState {
    /// All compromise conditions unmet.
    Intact,
    /// A server replica is attacker-controlled (fatal for S1/S2; for S0,
    /// fatal once two are).
    ServerCompromised {
        /// How many server replicas are currently controlled.
        count: usize,
    },
    /// Every proxy is attacker-controlled (S2's second compromise path).
    AllProxiesCompromised,
}

struct ProxyNode {
    addr: Addr,
    daemon: ForkingDaemon,
    engine: Proxy,
}

/// A fully wired S0/S1/S2 deployment over a [`Transport`] (the
/// deterministic [`SimNet`] by default). See the [module docs](self).
pub struct Stack<T: Transport = SimNet> {
    cfg: StackConfig,
    net: T,
    authority: Arc<KeyAuthority>,
    ns: NameServer,
    rng: rand::rngs::StdRng,
    /// The proxy tier; empty for the 1-tier classes.
    proxies: Vec<ProxyNode>,
    /// The server tier and everything specific to its protocol.
    servers: ServerTier,
    clients: HashMap<String, Addr>,
    proxy_rr: Rerandomizer,
    server_rr: Rerandomizer,
    step: u64,
    suspects: Vec<String>,
    /// Proxy-tier addresses, cached at assembly for broadcast dispatch.
    proxy_targets: Vec<Addr>,
    /// Server-tier addresses, cached at assembly.
    server_targets: Vec<Addr>,
    /// Reused event buffer for the pump loop (no per-round allocation).
    scratch: Vec<NetEvent>,
    wire_buf: Vec<u8>,
    /// Malformed deliveries per endpoint address.
    malformed: HashMap<Addr, u64>,
    /// Availability counters over the server tier (see [`Availability`]).
    avail: Availability,
    /// Step at which the tier stopped serving, while the outage is still
    /// open (drives `failover_latency_total`).
    primary_lost_at: Option<u64>,
    /// Highest tier view accounted so far. Whose views make up the tier's
    /// view, and which counter an advance feeds, is the tier's to say.
    views_seen: u64,
    /// Transport dead-letter count already attributed (drives
    /// `lost_requests` deltas).
    dead_lettered_seen: u64,
}

/// Encodes one outgoing frame (any `encode_reusing`) through the cycled
/// scratch `buf` and copies it into a shareable payload. Short frames land
/// inline in the payload, so the heartbeat path stays off the allocator.
pub(crate) fn frame(buf: &mut Vec<u8>, encode: impl FnOnce(Vec<u8>) -> Vec<u8>) -> Bytes {
    *buf = encode(std::mem::take(buf));
    Bytes::copy_from_slice(buf)
}

impl Stack<SimNet> {
    /// Assembles a stack over a fresh deterministic [`SimNet`].
    ///
    /// # Errors
    ///
    /// Returns [`FortressError`] when any component rejects the
    /// configuration (e.g. an inconsistent name-server topology), and
    /// [`FortressError::BadAssembly`] for an `entropy_bits` outside
    /// `1..=`[`MAX_ENTROPY_BITS`] or a key space too small to give every
    /// node of a distinct-key tier its own key.
    pub fn new(cfg: StackConfig) -> Result<Stack<SimNet>, FortressError> {
        Stack::with_transport(cfg, SimNet::new(SimConfig::default()))
    }

    /// Rewinds an assembled stack to the state [`Stack::with_transport`]
    /// would produce for the same *shape* under master seed `seed` — the
    /// trial-arena reset path. Instead of reconstructing every node, the
    /// network is rewound in place ([`SimNet::trial_reset`], keeping the
    /// node endpoints and the fault plan and stream it holds), the
    /// authority re-derives its master from the same `seed ^ 0xca11` the
    /// constructor uses, and each daemon/engine is re-keyed and cleared.
    /// Key draws replay in assembly order (server keys, then proxy keys,
    /// from a fresh `StdRng(seed)`) and principals re-register in
    /// assembly order (proxies, then servers), so every key, address and
    /// RNG stream is **bit-for-bit identical** to a fresh
    /// [`Stack::with_transport`] build with the same configuration.
    /// Client endpoints are dropped; re-attached clients recycle the same
    /// addresses in attach order.
    pub fn reset(&mut self, seed: u64) {
        use rand::SeedableRng;
        self.net.trial_reset(self.proxies.len() + self.servers.nodes.len());
        self.cfg.seed = seed;
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.authority.reset_with_seed(seed ^ 0xca11);

        let keys = KeyMaterial::draw(&self.cfg, &mut self.rng);
        // Same authority counter order as assembly: proxies, then servers.
        for (p, key) in self.proxies.iter_mut().zip(&keys.proxy_keys) {
            let signer = Signer::register(p.daemon.name(), &self.authority);
            p.engine.reset(signer);
            p.daemon.reset(*key);
        }
        self.servers.reset(&self.authority, &keys.server_keys);
        self.server_rr = keys.server_rr;
        self.proxy_rr = keys.proxy_rr;

        self.clients.clear();
        self.step = 0;
        self.suspects.clear();
        self.scratch.clear();
        self.malformed.clear();
        self.avail = Availability::default();
        self.primary_lost_at = None;
        self.views_seen = 0;
        self.dead_lettered_seen = 0;
    }
}

impl<T: Transport> Stack<T> {
    /// Assembles a stack over an existing transport — the generic
    /// constructor the kernel-socket deployments use.
    ///
    /// # Errors
    ///
    /// As for [`Stack::new`].
    pub fn with_transport(cfg: StackConfig, mut net: T) -> Result<Stack<T>, FortressError> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let authority = Arc::new(KeyAuthority::with_seed(cfg.seed ^ 0xca11));

        let parts = cfg.parts();
        if parts.np == Some(0) {
            return Err(FortressError::BadAssembly {
                reason: "fleet sizes must be at least 1".into(),
            });
        }
        // `entropy_bits` arrives from outside (sweep axes): checked before
        // any key is drawn, because distinct keys are rejection-sampled
        // and a space smaller than the tier never yields them.
        let mut distinct = parts.np.unwrap_or(0);
        if parts.server_keys == KeyAssignment::DistinctPerNode {
            distinct = distinct.max(parts.servers);
        }
        if !(1..=MAX_ENTROPY_BITS).contains(&cfg.entropy_bits)
            || distinct as u64 > (1u64 << cfg.entropy_bits)
        {
            return Err(FortressError::BadAssembly {
                reason: format!(
                    "{} bits of key entropy cannot give {distinct} nodes distinct keys \
                     (entropy_bits must be in 1..={MAX_ENTROPY_BITS})",
                    cfg.entropy_bits
                ),
            });
        }
        let names = |prefix: &str, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("{prefix}-{i}")).collect()
        };
        let proxy_names = names("proxy", parts.np.unwrap_or(0));
        let server_names = names(parts.server_prefix, parts.servers);

        let mut ns_builder = NameServer::builder().replication(parts.replication);
        for p in &proxy_names {
            ns_builder = ns_builder.proxy(p);
        }
        for s in &server_names {
            ns_builder = ns_builder.server(s);
        }
        let ns = ns_builder.build()?;

        let keys = KeyMaterial::draw(&cfg, &mut rng);

        let mut proxies = Vec::new();
        for (name, key) in proxy_names.iter().zip(&keys.proxy_keys) {
            let addr = net.register(name);
            let signer = Signer::register(name, &authority);
            let engine = Proxy::new(name, signer, Arc::clone(&authority), ns.clone(), cfg.suspicion);
            let daemon = ForkingDaemon::boot(name, *key);
            proxies.push(ProxyNode { addr, daemon, engine });
        }
        let servers = ServerTier::assemble(
            parts.replication,
            &server_names,
            &keys.server_keys,
            &mut net,
            &authority,
        )?;

        // Address lists are fixed at assembly; cache them once so the
        // dispatch hot paths broadcast over slices instead of
        // re-collecting target vectors per call.
        let proxy_targets: Vec<Addr> = proxies.iter().map(|p| p.addr).collect();
        let server_targets: Vec<Addr> = servers.nodes.iter().map(|s| s.addr).collect();

        Ok(Stack {
            cfg,
            net,
            authority,
            ns,
            rng,
            proxies,
            servers,
            clients: HashMap::new(),
            proxy_rr: keys.proxy_rr,
            server_rr: keys.server_rr,
            step: 0,
            suspects: Vec::new(),
            proxy_targets,
            server_targets,
            scratch: Vec::new(),
            wire_buf: Vec::new(),
            malformed: HashMap::new(),
            avail: Availability::default(),
            primary_lost_at: None,
            views_seen: 0,
            dead_lettered_seen: 0,
        })
    }

    /// The assembled class.
    pub fn class(&self) -> SystemClass {
        self.cfg.class
    }

    /// The full assembly-time configuration, read back for harnesses and
    /// reports that label results by the knobs a stack was built with.
    pub fn config(&self) -> StackConfig {
        self.cfg
    }

    /// The transport the stack runs on, mutably: how the trial arena puts
    /// a shelved stack's network under the next trial's fault plan.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// Number of deployed proxies (0 for the 1-tier classes) — the bound
    /// the campaign strategies iterate when looking for a launch pad.
    pub fn proxy_count(&self) -> usize {
        self.proxies.len()
    }

    /// The trusted authority (clients share it, as they share the NS).
    pub fn authority(&self) -> Arc<KeyAuthority> {
        Arc::clone(&self.authority)
    }

    /// The trusted name server contents.
    pub fn ns(&self) -> &NameServer {
        &self.ns
    }

    /// Current unit time-step.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The network's logical clock (ticks; one tick per hop; 0 on
    /// transports without one). Useful for hop-count/latency
    /// measurements.
    pub fn network_now(&self) -> u64 {
        self.net.now()
    }

    /// Takes server `i` off the network entirely (machine outage, not a
    /// child-process crash): connected peers observe the closure, and
    /// the node neither ticks nor serves until
    /// [`Stack::bring_up_server`]. For the PB tier this is the
    /// availability fault the failover protocol exists for — see
    /// `examples/failover.rs`. For S0 it arms SMR repair accounting and
    /// the crash becomes a *protocol event*: the surviving replicas'
    /// view timers expire and a VSR view change elects a new leader.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn take_down_server(&mut self, i: usize) {
        if self.servers.take_down(i) {
            self.avail.outages += 1;
        }
        self.net.crash(self.servers.nodes[i].addr);
    }

    /// Brings a downed server back online with a clean connection table
    /// (state catch-up is the protocol's job, not the network's). A PB
    /// replica rejoins immediately. An SMR replica rejoins *catching
    /// up*: it owes the tier's `TransferScheduler` transfer units
    /// proportional to its log divergence from the live tier's furthest
    /// execution point, and stays out of the quorum until they are paid
    /// — the repair-economics half of the view-change refactor.
    pub fn bring_up_server(&mut self, i: usize) {
        self.net.restart(self.servers.nodes[i].addr);
        self.servers.bring_up(i);
    }

    /// Whether server `i` is currently taken down (a catching-up SMR
    /// rejoiner is *up* — see [`Stack::server_is_catching_up`]).
    pub fn server_is_down(&self, i: usize) -> bool {
        self.servers.nodes[i].down
    }

    /// Whether SMR server `i` is paying its rejoin state transfer (always
    /// false outside S0).
    pub fn server_is_catching_up(&self, i: usize) -> bool {
        self.servers.nodes.get(i).is_some_and(|s| s.engine.catching_up())
    }

    /// Whether any server machine is currently taken down or still
    /// paying its rejoin transfer — the outage signal an
    /// availability-aware adversary (or operator dashboard) can read
    /// without any key oracle: real outages are externally observable
    /// through error rates and health pages.
    pub fn any_server_down(&self) -> bool {
        self.servers.nodes.iter().any(|s| !s.listening())
    }

    /// Number of server machines in the deployed tier: the paper's 3 PB
    /// servers on S1 and S2, and `n = 3f + 1 = 4` on S0, fixed by the SMR
    /// quorum arithmetic.
    pub fn server_count(&self) -> usize {
        self.servers.nodes.len()
    }

    /// Arms S0 repair accounting and sets the state-transfer bandwidth
    /// (units per step shared by all concurrent rejoiners) from here on.
    /// Queued transfers keep their place and what they have paid; only
    /// the rate changes. The SMR tier owns gate and budget, and
    /// [`Stack::reset`] rewinds both (disarmed, bandwidth 1). A no-op
    /// outside S0; legacy paths never call it, so their availability
    /// bits are untouched.
    pub fn enable_smr_repair(&mut self, bandwidth: u64) {
        self.servers.enable_repair(bandwidth);
    }

    /// Whether S0 repair accounting is armed (the gate on the SMR fields
    /// of [`Availability`]).
    pub fn smr_repair_tracked(&self) -> bool {
        self.servers.repair_armed()
    }

    /// The index of the replica the live SMR tier currently expects to
    /// lead: the highest installed view among live (up, not catching up,
    /// uncompromised) replicas, mapped through the round-robin leader
    /// rule. 0 when the tier is absent or fully dead — callers use this
    /// as a crash-targeting hint, not an oracle.
    pub fn smr_leader_hint(&self) -> usize {
        self.servers.smr_leader_hint()
    }

    /// The index of the PB server currently *serving*: up,
    /// uncompromised, the primary of its view, **and** at the highest
    /// view any live replica has adopted — a repaired machine that
    /// rejoined with the stale view it crashed in still believes it is
    /// the primary of that old view, but serves nobody until it hears a
    /// heartbeat, so it must not count (it would mask real downtime in
    /// exactly the back-to-back-outage windows the availability axis
    /// measures). `None` when the tier is down or absent.
    pub fn pb_primary_index(&self) -> Option<usize> {
        self.servers.pb_primary_index()
    }

    /// Whether the server tier is serving right now, whatever its
    /// protocol: a quorum of replicas is live (one for PB, `2f + 1` for
    /// SMR) and one of them leads the highest live view (for SMR, in
    /// normal status) — the predicate [`Availability`] accounts against.
    pub fn serving(&self) -> bool {
        self.servers.serving_index().is_some()
    }

    /// Availability counters accumulated so far (see [`Availability`]).
    pub fn availability(&self) -> Availability {
        self.avail
    }

    /// Sources the proxy tier has flagged.
    pub fn suspects(&self) -> &[String] {
        &self.suspects
    }

    /// Transport counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Malformed deliveries recorded at `addr` — the per-endpoint view of
    /// what used to be silently swallowed by the decode chain.
    pub fn malformed_at(&self, addr: Addr) -> u64 {
        self.malformed.get(&addr).copied().unwrap_or(0)
    }

    /// Malformed deliveries across all endpoints.
    pub fn malformed_total(&self) -> u64 {
        self.malformed.values().sum()
    }

    fn record_malformed(&mut self, at: Addr) {
        *self.malformed.entry(at).or_insert(0) += 1;
    }

    /// The key space in use.
    pub fn key_space(&self) -> KeySpace {
        self.server_rr.space()
    }

    /// Registers a client endpoint.
    pub fn add_client(&mut self, name: &str) -> Addr {
        let addr = self.net.register(name);
        self.clients.insert(name.to_owned(), addr);
        addr
    }

    /// Addresses of the proxy tier (published by the NS).
    pub fn proxy_addrs(&self) -> Vec<Addr> {
        self.proxy_targets.clone()
    }

    /// Addresses of the server tier. Published only for 1-tier classes; in
    /// S2 clients know server *indices*, not addresses — but even a leaked
    /// address is useless because servers drop non-proxy traffic.
    pub fn server_addrs(&self) -> Vec<Addr> {
        self.server_targets.clone()
    }

    /// Oracle access for the evaluation harness: the server group's current
    /// randomization key(s).
    pub fn server_keys(&self) -> Vec<RandomizationKey> {
        self.servers.nodes.iter().map(|s| s.daemon.key()).collect()
    }

    /// Oracle access: proxy keys.
    #[cfg(test)]
    fn proxy_keys(&self) -> Vec<RandomizationKey> {
        self.proxies.iter().map(|p| p.daemon.key()).collect()
    }

    /// Whether proxy `i`'s process is attacker-controlled.
    pub fn proxy_is_compromised(&self, i: usize) -> bool {
        self.proxies[i].daemon.is_compromised()
    }

    /// Total restarts (≈ crashes) across the server tier.
    pub fn server_restarts(&self) -> u64 {
        self.servers.nodes.iter().map(|s| s.daemon.restarts()).sum()
    }

    /// Broadcasts a client request from `from` to the server tier.
    fn forward_to_servers(&mut self, from: Addr, req: &ClientRequest) {
        let payload = frame(&mut self.wire_buf, |buf| req.encode_reusing(buf));
        self.net.broadcast(from, &self.server_targets, payload);
    }

    /// Sends a client request from `client` toward the system's public
    /// tier: proxies for S2, servers for S0/S1.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered with [`Stack::add_client`].
    pub fn submit(&mut self, client: &str, req: &ClientRequest) {
        let from = *self.clients.get(client).expect("client not registered");
        let payload = frame(&mut self.wire_buf, |buf| req.encode_reusing(buf));
        let targets = if self.proxies.is_empty() {
            &self.server_targets
        } else {
            &self.proxy_targets
        };
        self.net.broadcast(from, targets, payload);
    }

    /// Sends the same raw bytes from `client` to every target — the
    /// broadcast-probe hot path (an attacker hammering the whole proxy
    /// tier with one guess). The frame is borrowed: short frames are
    /// copied inline into the shared payload with no heap allocation, so
    /// the probe hot loop can reuse one encode buffer.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn broadcast_frame(&mut self, client: &str, to: &[Addr], frame: &[u8]) {
        let from = *self.clients.get(client).expect("client not registered");
        self.net.broadcast(from, to, Bytes::copy_from_slice(frame));
    }

    /// Sends raw bytes from `client` to an arbitrary address (the attacker
    /// probing a proxy process, e.g. with
    /// [`ExploitPayload`](fortress_obf::scheme::ExploitPayload) bytes). The
    /// frame is borrowed, as in [`Stack::broadcast_frame`].
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn send_frame(&mut self, client: &str, to: Addr, frame: &[u8]) {
        let from = *self.clients.get(client).expect("client not registered");
        self.net.send(from, to, Bytes::copy_from_slice(frame));
    }

    /// Proxy `i`'s address, for the attacker who must be holding it.
    fn held_proxy(&self, i: usize, why: &str) -> Addr {
        assert!(self.proxies[i].daemon.is_compromised(), "{why}");
        self.proxies[i].addr
    }

    /// Launch-pad path: submit a request to the servers *from* proxy `i`.
    ///
    /// # Panics
    ///
    /// Panics unless proxy `i` is compromised — only an attacker holding
    /// the proxy can do this, and holding it is exactly what compromise
    /// means.
    pub fn submit_via_proxy(&mut self, proxy_index: usize, req: &ClientRequest) {
        let from = self.held_proxy(proxy_index, "launch-pad requires a compromised proxy");
        self.forward_to_servers(from, req);
    }

    /// Drains network events pending at a client endpoint.
    pub fn drain_client(&mut self, client: &str) -> Vec<NetEvent> {
        let mut out = Vec::new();
        self.drain_client_into(client, &mut out);
        out
    }

    /// [`Stack::drain_client`] appending into a caller-reused buffer —
    /// what a drive loop polling many clients every iteration uses to
    /// stay off the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn drain_client_into(&mut self, client: &str, out: &mut Vec<NetEvent>) {
        let addr = *self.clients.get(client).expect("client not registered");
        self.net.drain_into(addr, out);
    }

    /// Drains a client endpoint, returning only the count of closure
    /// events. This is the attacker's per-step observation: it drains
    /// through the stack's reused scratch buffer instead of returning a
    /// fresh `Vec` per call like [`Stack::drain_client`].
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn drain_client_closures(&mut self, client: &str) -> u64 {
        let addr = *self.clients.get(client).expect("client not registered");
        self.net.drain_closure_count(addr)
    }

    /// [`Stack::drain_client_closures`] at a compromised proxy (the
    /// attacker reads its inbox).
    ///
    /// # Panics
    ///
    /// Panics unless the proxy is compromised.
    pub fn drain_proxy_closures(&mut self, proxy_index: usize) -> u64 {
        let addr = self.held_proxy(proxy_index, "only a compromised proxy leaks its inbox");
        self.net.drain_closure_count(addr)
    }

    /// Delivers all in-flight traffic, running node logic until quiescence.
    pub fn pump(&mut self) {
        loop {
            let worked = self.process_all_inboxes();
            let advanced = self.net.step();
            if !worked && !advanced {
                break;
            }
        }
    }

    /// Batch-drains every node inbox through one reused scratch buffer
    /// and dispatches each event through the [`WireMsg`] envelope.
    fn process_all_inboxes(&mut self) -> bool {
        let mut worked = false;
        // Take the scratch buffer so handlers may borrow `self` freely;
        // a buffer is given back (and kept) at the end. Events are
        // dispatched where they lie.
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.proxies.len() {
            if self.take_pending(self.proxies[i].addr, true, &mut scratch) {
                worked = true;
                for ev in &scratch {
                    self.handle_proxy_event(i, ev);
                }
            }
        }
        for i in 0..self.servers.nodes.len() {
            let node = &self.servers.nodes[i];
            if self.take_pending(node.addr, node.listening(), &mut scratch) {
                worked = true;
                for ev in &scratch {
                    self.handle_server_event(i, ev);
                }
            }
        }
        scratch.clear();
        self.scratch = scratch;
        worked
    }

    /// Moves the events pending at `addr` into `scratch`; true if they are
    /// to be handled. A node not `listening` handles nothing it drains. A
    /// down node's traffic dead-letters at the transport, so its inbox is
    /// empty; but a catching-up S0 replica is up at the transport, so its
    /// frames are delivered (and counted in `delivered`) and dropped here,
    /// unhandled, until its state transfer is paid.
    fn take_pending(&mut self, addr: Addr, listening: bool, scratch: &mut Vec<NetEvent>) -> bool {
        if !self.net.has_pending(addr) {
            return false;
        }
        scratch.clear();
        self.net.drain_into(addr, scratch);
        listening && !scratch.is_empty()
    }

    /// An exploit reached node `addr`'s parser. On a miss peers see the
    /// closure; the daemon has already forked a fresh same-key child.
    fn on_probe(&mut self, addr: Addr, outcome: ProbeOutcome) {
        if outcome == ProbeOutcome::Crashed {
            self.net.crash(addr);
            self.net.restart(addr);
        }
    }

    /// Proxy endpoint dispatch — one [`WireMsg`] decode, one `match`.
    /// Proxies handle client requests, server replies and raw exploit
    /// probes; every other frame (well-formed but not proxy-facing, or
    /// undecodable) is recorded as malformed at this endpoint.
    fn handle_proxy_event(&mut self, i: usize, ev: &NetEvent) {
        match *ev {
            NetEvent::ConnectionClosed { peer, .. } => {
                // A downed machine's closures are bounced sends, refused
                // connections: no child died of a request.
                let up = |&i: &usize| !self.servers.nodes[i].down;
                if let Some(server_index) = self.servers.index_of(peer).filter(up) {
                    let outs = self.proxies[i]
                        .engine
                        .on_input(ProxyInput::ServerClosed { server_index });
                    self.dispatch_proxy_outputs(i, outs);
                }
            }
            NetEvent::Message { from, ref payload, .. } => {
                if self.proxies[i].daemon.is_compromised() {
                    // The attacker holds this proxy; it serves no one.
                    return;
                }
                let addr = self.proxies[i].addr;
                match WireMsg::decode(payload) {
                    WireMsg::Exploit(exploit) => {
                        let outcome = self.proxies[i].daemon.deliver_exploit(exploit);
                        self.on_probe(addr, outcome);
                    }
                    WireMsg::ClientRequest(req) => {
                        // Borrow-through: the suspicion gate and the
                        // forwarding bookkeeping run on the borrowed view,
                        // and the verbatim wire bytes are re-broadcast
                        // (the canonical codec makes that byte-identical
                        // to decode-then-re-encode). No owned request, no
                        // output vector, no second encode.
                        if self.proxies[i].engine.should_forward(req.client, req.seq) {
                            self.net
                                .broadcast(addr, &self.server_targets, payload.clone());
                        }
                    }
                    // A reply's server is the endpoint it came from, not
                    // the index it carries; from anyone but a server a
                    // signed reply is not part of the proxy's interface.
                    WireMsg::SignedReply(reply) => match self.servers.index_of(from) {
                        Some(server_index) => {
                            // Judged in the frame it arrived in; that
                            // frame goes on under the over-signature.
                            let proxy_sig =
                                self.proxies[i].engine.on_server_reply(server_index, reply);
                            let to = self.clients.get(reply.client);
                            if let (Some(proxy_sig), Some(&to)) = (proxy_sig, to) {
                                let response = ProxyResponseRef { reply, proxy_sig: proxy_sig.view() };
                                let payload =
                                    frame(&mut self.wire_buf, |buf| response.encode_reusing(buf));
                                self.net.send(addr, to, payload);
                            }
                        }
                        None => self.record_malformed(addr),
                    },
                    // Decodable but not part of the proxy's interface, or
                    // not decodable at all: observably rejected rather
                    // than silently eaten.
                    WireMsg::ProxyResponse(_)
                    | WireMsg::Pb(_)
                    | WireMsg::Smr(_)
                    | WireMsg::Malformed(_) => self.record_malformed(addr),
                }
            }
        }
    }

    fn dispatch_proxy_outputs(&mut self, i: usize, outs: Vec<ProxyOutput>) {
        let from = self.proxies[i].addr;
        for out in outs {
            match out {
                ProxyOutput::ToClient { client, response } => {
                    if let Some(&addr) = self.clients.get(&client) {
                        self.net.send(from, addr, Bytes::from(response.encode()));
                    }
                }
                ProxyOutput::Suspect { source } => {
                    if !self.suspects.contains(&source) {
                        self.suspects.push(source);
                    }
                }
            }
        }
    }

    /// Server endpoint dispatch, one shape for every tier. The
    /// exploit-probe hot path never copies the request: the borrowed
    /// [`WireMsg::ClientRequest`] view is sniffed in place and only benign
    /// requests are materialized for the engine.
    fn handle_server_event(&mut self, i: usize, ev: &NetEvent) {
        let &NetEvent::Message { from, ref payload, .. } = ev else {
            return;
        };
        // Access control (§3): behind a proxy tier, servers accept only
        // proxy and peer traffic.
        if !self.proxies.is_empty()
            && !self.proxy_targets.contains(&from)
            && !self.server_targets.contains(&from)
        {
            return;
        }
        if self.servers.nodes[i].daemon.is_compromised() {
            return;
        }
        let addr = self.servers.nodes[i].addr;
        let outs = match WireMsg::decode(payload) {
            WireMsg::ClientRequest(req) => {
                let node = &mut self.servers.nodes[i];
                if let Some(exploit) = req.exploit() {
                    let outcome = node.daemon.deliver_exploit(exploit);
                    self.on_probe(addr, outcome);
                    return;
                }
                Some(node.engine.on_request(req.seq, req.client, req.op))
            }
            // Replica traffic is accepted only from group members, and
            // only in the tier's own protocol.
            msg @ (WireMsg::Pb(_) | WireMsg::Smr(_)) => self
                .servers
                .index_of(from)
                .and_then(|sender| self.servers.nodes[i].engine.on_peer_frame(sender, msg)),
            // Not part of a server's interface (raw exploits must arrive
            // wrapped in a request op to reach the vulnerable parser).
            WireMsg::SignedReply(_)
            | WireMsg::ProxyResponse(_)
            | WireMsg::Exploit(_)
            | WireMsg::Malformed(_) => None,
        };
        match outs {
            Some(outs) => self.dispatch_server_outputs(i, outs),
            // Observably rejected; the engine never saw it.
            None => self.record_malformed(addr),
        }
    }

    /// Puts server `i`'s engine outputs on the wire.
    fn dispatch_server_outputs(&mut self, i: usize, outs: Outputs) {
        let from = self.servers.nodes[i].addr;
        let mut buf = std::mem::take(&mut self.wire_buf);
        outs.for_each(&mut buf, |route| match route {
            // `broadcast` skips `from` itself, so the cached full group
            // list is the right target slice.
            Route::Peers(frame) => self.net.broadcast(from, &self.server_targets, frame),
            Route::Peer(to, frame) => self.net.send(from, self.servers.nodes[to].addr, frame),
            // "returns the signed response to every proxy"
            Route::Reply(_, frame) if !self.proxies.is_empty() => {
                self.net.broadcast(from, &self.proxy_targets, frame)
            }
            Route::Reply(client, frame) => {
                if let Some(&addr) = self.clients.get(&client) {
                    self.net.send(from, addr, frame);
                }
            }
        });
        self.wire_buf = buf;
    }

    /// The compromise condition of the assembled class, evaluated *now*
    /// (call before [`Stack::end_step`], which may revoke footholds).
    pub fn compromise_state(&self) -> CompromiseState {
        let servers = self.servers.nodes.iter();
        let count = servers.filter(|s| s.daemon.is_compromised()).count();
        if count > self.servers.faults() {
            CompromiseState::ServerCompromised { count }
        } else if !self.proxies.is_empty()
            && self.proxies.iter().all(|p| p.daemon.is_compromised())
        {
            CompromiseState::AllProxiesCompromised
        } else {
            CompromiseState::Intact
        }
    }

    /// Whether the compromise condition currently holds.
    pub fn is_compromised(&self) -> bool {
        self.compromise_state() != CompromiseState::Intact
    }

    /// Per-step availability accounting (see [`Availability`]). Pure
    /// observation: consumes no randomness and sends no traffic, so the
    /// counters are free for trials that never read them and existing
    /// seeded results are bit-identical with them enabled.
    fn track_availability(&mut self) {
        self.avail.steps += 1;
        if !self.servers.tracked() {
            return;
        }
        if self.serving() {
            if let Some(lost) = self.primary_lost_at.take() {
                self.avail.failover_latency_total += self.step - lost;
                self.avail.recoveries += 1;
            }
        } else {
            self.avail.down_steps += 1;
            self.primary_lost_at.get_or_insert(self.step);
        }
        self.servers.account(&mut self.views_seen, &mut self.avail);
        let dead_lettered = self.net.stats().dead_lettered;
        if self.any_server_down() {
            self.avail.lost_requests += dead_lettered - self.dead_lettered_seen;
        }
        self.dead_lettered_seen = dead_lettered;
    }

    /// Advances every engine's logical clock to the next unit time-step
    /// and dispatches whatever the timers produce (heartbeats, failovers,
    /// view changes).
    fn tick_engines(&mut self) {
        let now = self.step + 1;
        for i in 0..self.proxies.len() {
            let outs = self.proxies[i].engine.on_input(ProxyInput::Tick { now });
            self.dispatch_proxy_outputs(i, outs);
        }
        for i in 0..self.servers.nodes.len() {
            if self.servers.nodes[i].live() {
                let outs = self.servers.nodes[i].engine.tick(now);
                self.dispatch_server_outputs(i, outs);
            }
        }
        self.pump();
    }

    /// Ends the current unit time-step: applies end-of-step maintenance
    /// (PO: fresh keys, clearing footholds; SO: recovery with same keys)
    /// and advances the step counter. Returns the compromise state as it
    /// stood **before** maintenance — the quantity the paper's EL counts.
    pub fn end_step(&mut self) -> CompromiseState {
        self.servers.begin_step();
        self.tick_engines();
        let state = self.compromise_state();
        self.track_availability();
        let servers = self.servers.nodes.iter_mut().map(|s| &mut s.daemon);
        self.server_rr.end_of_step(servers, &mut self.rng);
        let proxies = self.proxies.iter_mut().map(|p| &mut p.daemon);
        self.proxy_rr.end_of_step(proxies, &mut self.rng);
        self.step += 1;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{AcceptMode, DirectClient, FortressClient};
    use fortress_net::codec::Writer;
    use fortress_net::fault::{FaultPlan, PartitionWindow, SlowLink};
    use fortress_net::wire::WireKind;
    use fortress_obf::keys::RandomizationKey;
    use fortress_obf::scheme::ExploitPayload;
    use fortress_replication::message::{PbMsg, SignedReplyRef, SmrMsg};
    use proptest::prelude::*;

    fn exploit_request(seq: u64, client: &str, guess: RandomizationKey) -> ClientRequest {
        ClientRequest {
            seq,
            client: client.into(),
            op: ExploitPayload::aimed_at(guess).to_bytes(),
        }
    }

    /// Drives a stack through an adversarial workload — in- and
    /// out-of-space exploit guesses, crashes, restarts, re-randomization,
    /// suspicion flagging, and one machine outage long enough for a
    /// rejoiner to fall behind the benign writes — appending every
    /// observable (response bytes, compromise state, availability,
    /// catch-up status, suspects) to `tag`.
    fn drive_fingerprint(stack: &mut Stack<SimNet>, tag: &mut Vec<u8>) {
        stack.add_client("mallory");
        stack.add_client("alice");
        for step in 0..80u64 {
            match step {
                10 => stack.take_down_server(1),
                40 => stack.bring_up_server(1),
                _ => {}
            }
            let write = ClientRequest {
                seq: step + 1,
                client: "alice".into(),
                op: b"PUT k v".to_vec(),
            };
            stack.submit("alice", &write);
            let req =
                exploit_request(step + 1, "mallory", RandomizationKey(step % 96));
            stack.submit("mallory", &req);
            stack.pump();
            tag.push(stack.server_is_catching_up(1) as u8);
            for ev in stack.drain_client("mallory") {
                if let Some(p) = ev.payload() {
                    tag.extend_from_slice(p);
                }
                tag.push(0xEE);
            }
            let state = stack.end_step();
            tag.extend_from_slice(
                format!("{state:?}|{:?}|{:?}", stack.availability(), stack.suspects())
                    .as_bytes(),
            );
        }
    }

    #[test]
    fn reset_replays_fresh_build_bit_for_bit() {
        for class in [SystemClass::S2Fortress, SystemClass::S1Pb, SystemClass::S0Smr] {
            let cfg_a = StackConfig {
                class,
                seed: 41,
                entropy_bits: 6,
                ..StackConfig::default()
            };
            let cfg_b = StackConfig { seed: 1234, ..cfg_a };
            assert!(cfg_a.same_shape(&cfg_b));

            let mut fresh = Stack::new(cfg_b).unwrap();
            let mut fp_fresh = Vec::new();
            drive_fingerprint(&mut fresh, &mut fp_fresh);

            let mut reused = Stack::new(cfg_a).unwrap();
            // Dirty every component, the SMR tier's transfer budget included
            // (a no-op on the PB classes).
            reused.enable_smr_repair(8);
            let mut dirt = Vec::new();
            drive_fingerprint(&mut reused, &mut dirt);
            reused.reset(1234);
            let mut fp_reused = Vec::new();
            drive_fingerprint(&mut reused, &mut fp_reused);

            assert_eq!(
                fp_fresh, fp_reused,
                "reset diverged from a fresh build for {class:?}"
            );
        }
    }

    /// One take-down window: server `.0` (modulo the tier size) goes down
    /// at step `.1` and comes back `.2` steps later — never, when that is
    /// past the run, which leaves the tier dirty.
    type Outage = (usize, u64, u64);

    /// Drives a stack through 40 steps of exploit guesses under the
    /// `outages` schedule and returns one fingerprint of every observable:
    /// replies and closures, each step's end state, then the transport's
    /// books, the availability counters and the network clock.
    fn fingerprint_under<T: Transport>(stack: &mut Stack<T>, outages: &[Outage]) -> Vec<u8> {
        let mut tag = Vec::new();
        stack.add_client("mallory");
        for step in 0..40u64 {
            for &(server, at, len) in outages {
                let i = server % stack.server_count();
                if step == at && !stack.server_is_down(i) {
                    stack.take_down_server(i);
                } else if step == at + len && stack.server_is_down(i) {
                    stack.bring_up_server(i);
                }
            }
            let req = exploit_request(step + 1, "mallory", RandomizationKey(step % 64));
            stack.submit("mallory", &req);
            stack.pump();
            for ev in stack.drain_client("mallory") {
                if let Some(p) = ev.payload() {
                    tag.extend_from_slice(p);
                }
                tag.push(0xEE);
            }
            tag.extend_from_slice(format!("{:?}", stack.end_step()).as_bytes());
        }
        let books = (stack.net_stats(), stack.availability(), stack.network_now());
        tag.extend_from_slice(format!("{books:?}").as_bytes());
        tag
    }

    /// A stack on the assembly every Monte-Carlo trial runs on: a
    /// [`SimNet`] under `plan`.
    fn faulted(cfg: StackConfig, plan: FaultPlan, stream: u64) -> Stack<SimNet> {
        let net = SimNet::new(SimConfig { faults: plan, fault_stream: stream });
        Stack::with_transport(cfg, net).unwrap()
    }

    /// The reset contract under faults and crashes: a stack rewound from a
    /// run under another plan, stream and seed that left frames held in
    /// the network replays a fresh build, degraded or clean.
    #[test]
    fn reset_under_faults_replays_fresh_assembly_bit_for_bit() {
        let cfg = |seed| StackConfig { entropy_bits: 6, seed, ..StackConfig::default() };
        let degraded = |loss, delay_max, dup| FaultPlan::Degraded {
            loss,
            delay_min: 0,
            delay_max,
            dup,
            partition: None,
            slow: None,
        };
        let outages = [(1, 10, 15)];
        let mut reused = faulted(cfg(41), degraded(0.3, 9, 0.4), 0xBAD);
        fingerprint_under(&mut reused, &outages);
        let late = exploit_request(99, "mallory", RandomizationKey(1));
        reused.submit("mallory", &late);
        assert!(reused.transport_mut().held_count() > 0, "frames left held");
        let mut seen = Vec::new();
        for (plan, stream) in [(degraded(0.1, 3, 0.05), 0xFA), (FaultPlan::None, 0)] {
            reused.transport_mut().rearm(plan, stream);
            reused.reset(1234);
            seen.push(fingerprint_under(&mut reused, &outages));
            let fresh = fingerprint_under(&mut faulted(cfg(1234), plan, stream), &outages);
            assert_eq!(fresh, seen[seen.len() - 1], "reset diverged under {}", plan.label());
        }
        assert_ne!(seen[0], seen[1], "the plan must leave a mark for the reset to erase");
    }

    /// One generated run: master seed, fault stream, outage schedule and
    /// a degraded plan (loss, delay window, duplication, with and without
    /// a partition window and a slow link).
    type Run = (u64, u64, Vec<Outage>, FaultPlan);

    fn run() -> impl Strategy<Value = Run> {
        (
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec((0usize..4, 0u64..40, 1u64..50), 0..4),
            (0.0..0.4f64, 0u64..4, 0u64..8, 0.0..0.4f64),
            (any::<bool>(), 2u64..12, 1u64..6, 0u32..14, any::<bool>()),
            (any::<bool>(), 0u32..14, 1u64..5),
        )
            .prop_map(|((seed, stream), outages, link, part, slow)| {
                let (loss, delay_min, jitter, dup) = link;
                let (cut, period, duration, split, oneway) = part;
                let plan = FaultPlan::Degraded {
                    loss,
                    delay_min,
                    delay_max: delay_min + jitter,
                    dup,
                    partition: cut.then_some(PartitionWindow { period, duration, split, oneway }),
                    slow: slow.0.then_some(SlowLink { addr: slow.1, extra: slow.2 }),
                };
                (seed, stream, outages, plan)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// ROADMAP B's searched class of the fixed row above: whatever
        /// class, seed, degraded plan and take-down schedule dirtied a
        /// stack (S0 included, so transfers are left queued and replicas
        /// catching up), `rearm` + `Stack::reset` replays a fresh build of
        /// any other run. A failure prints the whole case.
        #[test]
        fn reset_replays_fresh_assembly_under_generated_faults_and_outages(
            class in prop_oneof![
                Just(SystemClass::S0Smr),
                Just(SystemClass::S1Pb),
                Just(SystemClass::S2Fortress),
            ],
            dirty in run(),
            replay in run(),
        ) {
            let cfg = StackConfig { class, entropy_bits: 6, ..StackConfig::default() };
            let build =
                |&(seed, stream, _, plan): &Run| faulted(StackConfig { seed, ..cfg }, plan, stream);
            let mut reused = build(&dirty);
            fingerprint_under(&mut reused, &dirty.2);
            let &(seed, stream, ref outages, plan) = &replay;
            reused.transport_mut().rearm(plan, stream);
            reused.reset(seed);
            // Not `prop_assert_eq!`: it would print both fingerprints.
            prop_assert!(
                fingerprint_under(&mut build(&replay), outages)
                    == fingerprint_under(&mut reused, outages),
                "{:?} reset diverged: dirtied by {:?}, replaying {:?}",
                class, dirty, replay
            );
        }
    }

    #[test]
    fn s2_round_trip_doubly_signed() {
        let mut stack = Stack::new(StackConfig::default()).unwrap();
        stack.add_client("alice");
        let mut client =
            FortressClient::new("alice", stack.authority(), stack.ns().clone());
        let req = client.request(b"PUT color teal");
        stack.submit("alice", &req);
        stack.pump();
        let events = stack.drain_client("alice");
        assert!(!events.is_empty(), "no responses reached the client");
        let mut accepted = None;
        for ev in events {
            if let Some(payload) = ev.payload() {
                let resp = ProxyResponseRef::decode(payload).unwrap();
                if let Some(got) = client.on_response(&resp).unwrap() {
                    accepted = Some(got);
                }
            }
        }
        let (seq, body) = accepted.expect("a doubly-signed response accepted");
        assert_eq!(seq, 1);
        assert_eq!(body, b"OK");
    }

    #[test]
    fn s1_round_trip_direct() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::AnyAuthentic,
        );
        let req = client.request(b"PUT k v");
        stack.submit("alice", &req);
        stack.pump();
        let mut accepted = None;
        for ev in stack.drain_client("alice") {
            if let Some(payload) = ev.payload() {
                let reply = SignedReplyRef::decode(payload).unwrap();
                if let Some(got) = client.on_reply_ref(reply) {
                    accepted = Some(got);
                }
            }
        }
        assert_eq!(accepted, Some((1, b"OK".to_vec())));
    }

    #[test]
    fn s0_round_trip_needs_two_votes() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::MatchingVotes { f: 1 },
        );
        let req = client.request(b"PUT k v");
        stack.submit("alice", &req);
        stack.pump();
        let mut accepted = None;
        let mut votes = 0;
        for ev in stack.drain_client("alice") {
            if let Some(payload) = ev.payload() {
                let reply = SignedReplyRef::decode(payload).unwrap();
                votes += 1;
                if let Some(got) = client.on_reply_ref(reply) {
                    accepted = Some(got);
                }
            }
        }
        assert!(votes >= 3, "expected a quorum of replies, got {votes}");
        assert_eq!(accepted, Some((1, b"OK".to_vec())));
    }

    #[test]
    fn wrong_key_probe_crashes_all_shared_key_servers_once() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            seed: 9,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        let wrong = RandomizationKey(true_key.0 ^ 1);
        let req = exploit_request(1, "mallory", wrong);
        stack.submit("mallory", &req);
        stack.pump();
        assert_eq!(stack.server_restarts(), 3, "all three crashed and restarted");
        assert!(!stack.is_compromised());
        // The attacker observed the closures (its connections died).
        let closures = stack
            .drain_client("mallory")
            .iter()
            .filter(|e| e.is_closure())
            .count();
        assert!(closures >= 1, "attacker must observe the crash");
    }

    #[test]
    fn right_key_probe_compromises_s1() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            seed: 9,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        let req = exploit_request(1, "mallory", true_key);
        stack.submit("mallory", &req);
        stack.pump();
        assert!(stack.is_compromised());
        assert!(matches!(
            stack.compromise_state(),
            CompromiseState::ServerCompromised { count: 3 }
        ));
    }

    #[test]
    fn s0_single_key_hit_is_not_fatal() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            seed: 3,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let keys = stack.server_keys();
        // Hit exactly replica 2's key: distinct keys mean only one falls.
        let req = exploit_request(1, "mallory", keys[2]);
        stack.submit("mallory", &req);
        stack.pump();
        assert!(!stack.is_compromised(), "1 of 4 is within tolerance");
        // A second distinct key falls: now it is fatal.
        let req = exploit_request(2, "mallory", keys[0]);
        stack.submit("mallory", &req);
        stack.pump();
        assert!(stack.is_compromised());
    }

    #[test]
    fn po_rerandomization_revokes_compromise_so_does_not() {
        for (policy, expect_clean) in [
            (Policy::Proactive, true),
            (Policy::StartupOnly, false),
        ] {
            let mut stack = Stack::new(StackConfig {
                class: SystemClass::S1Pb,
                policy,
                seed: 5,
                ..StackConfig::default()
            })
            .unwrap();
            stack.add_client("mallory");
            let key = stack.server_keys()[0];
            let req = exploit_request(1, "mallory", key);
            stack.submit("mallory", &req);
            stack.pump();
            let state = stack.end_step();
            assert!(matches!(state, CompromiseState::ServerCompromised { .. }));
            // After maintenance: PO drew fresh keys and evicted the
            // attacker; SO kept the keys, so control persists.
            let keys_changed = stack.server_keys()[0] != key;
            assert_eq!(keys_changed, expect_clean, "policy {policy:?}");
            assert_eq!(
                stack.is_compromised(),
                !expect_clean,
                "PO evicts, SO cannot (policy {policy:?})"
            );
        }
    }

    #[test]
    fn s2_servers_reject_direct_client_traffic() {
        let mut stack = Stack::new(StackConfig {
            seed: 11,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        // The attacker somehow knows a server address AND the right key —
        // but servers drop non-proxy traffic, so nothing happens.
        let server = stack.server_addrs()[0];
        let req = exploit_request(1, "mallory", true_key);
        stack.send_frame("mallory", server, &req.encode());
        stack.pump();
        assert!(!stack.is_compromised(), "direct server access must be blocked");
    }

    #[test]
    fn s2_proxy_probe_and_launch_pad() {
        let mut stack = Stack::new(StackConfig {
            seed: 13,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        // Compromise proxy 0 with its true key (oracle-assisted for the test).
        let pkey = stack.proxy_keys()[0];
        let proxy_addr = stack.proxy_addrs()[0];
        stack.send_frame("mallory", proxy_addr, &ExploitPayload::aimed_at(pkey).to_bytes());
        stack.pump();
        assert!(stack.proxy_is_compromised(0));
        assert!(!stack.is_compromised(), "one proxy is not system compromise");
        // Launch pad: full-rate probing of the servers from the proxy.
        let skey = stack.server_keys()[0];
        let req = exploit_request(1, "mallory", skey);
        stack.submit_via_proxy(0, &req);
        stack.pump();
        assert!(stack.is_compromised());
    }

    #[test]
    fn s2_all_proxies_compromised_is_fatal() {
        let mut stack = Stack::new(StackConfig {
            seed: 17,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        for i in 0..3 {
            let key = stack.proxy_keys()[i];
            let addr = stack.proxy_addrs()[i];
            stack.send_frame("mallory", addr, &ExploitPayload::aimed_at(key).to_bytes());
            stack.pump();
        }
        assert_eq!(
            stack.compromise_state(),
            CompromiseState::AllProxiesCompromised
        );
    }

    #[test]
    fn custom_fleet_sizes() {
        let mut stack = Stack::new(StackConfig {
            np: 5,
            seed: 23,
            ..StackConfig::default()
        })
        .unwrap();
        assert_eq!(stack.ns().np(), 5);
        stack.add_client("mallory");
        // All-proxies compromise now requires five proxies, not three.
        for i in 0..5 {
            let key = stack.proxy_keys()[i];
            let addr = stack.proxy_addrs()[i];
            stack.send_frame("mallory", addr, &ExploitPayload::aimed_at(key).to_bytes());
            stack.pump();
            let state = stack.compromise_state();
            if i < 4 {
                assert_eq!(state, CompromiseState::Intact, "proxy {i}");
            } else {
                assert_eq!(state, CompromiseState::AllProxiesCompromised);
            }
        }
    }

    #[test]
    fn zero_fleet_rejected() {
        assert!(Stack::new(StackConfig {
            np: 0,
            ..StackConfig::default()
        })
        .is_err());
    }

    /// Each row once failed. The first two hung in the rejection sampler
    /// (three or four distinct keys from a space of two), the next two
    /// panicked inside `KeySpace::from_entropy_bits`, and a 33-bit S1
    /// stack was built, which an exploit aimed at `key ^ 2^32` then
    /// compromised: keys 2^32 apart name one critical address.
    #[test]
    fn entropy_that_cannot_key_the_tiers_is_rejected_before_any_draw() {
        let build = |class, entropy_bits| {
            Stack::new(StackConfig { class, entropy_bits, ..StackConfig::default() })
        };
        for (class, bits) in [
            (SystemClass::S2Fortress, 1),
            (SystemClass::S0Smr, 1),
            (SystemClass::S2Fortress, 0),
            (SystemClass::S2Fortress, 64),
            (SystemClass::S1Pb, 33),
        ] {
            assert!(
                matches!(build(class, bits), Err(FortressError::BadAssembly { .. })),
                "{class:?} at {bits} bits"
            );
        }
        // Two keys are enough for one shared server key, four for either
        // distinct-key tier.
        assert!(build(SystemClass::S1Pb, 1).is_ok());
        // The widest space whose keys all name distinct addresses.
        assert!(build(SystemClass::S1Pb, 32).is_ok());
        assert!(build(SystemClass::S2Fortress, 2).is_ok());
        assert!(build(SystemClass::S0Smr, 2).is_ok());
    }

    #[test]
    fn garbage_probe_is_counted_not_swallowed() {
        let mut stack = Stack::new(StackConfig {
            seed: 29,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("fuzzer");
        let proxy = stack.proxy_addrs()[0];
        assert_eq!(stack.malformed_total(), 0);
        // Unregistered tag byte.
        stack.send_frame("fuzzer", proxy, &[0x7f, 1, 2, 3]);
        // Registered kind, truncated body.
        let mut truncated = ClientRequest {
            seq: 1,
            client: "fuzzer".into(),
            op: b"GET k".to_vec(),
        }
        .encode();
        truncated.truncate(truncated.len() - 3);
        stack.send_frame("fuzzer", proxy, &truncated);
        // A retired exploit form (the code-injection variant: tag 1 and an
        // 8-byte word) is no exploit any more: it is counted, and it crashes
        // no child.
        let mut retired = ExploitPayload::WIRE_PREFIX.to_vec();
        retired.push(1);
        retired.extend_from_slice(&0x90_90_90_90_cc_cc_cc_cc_u64.to_le_bytes());
        stack.send_frame("fuzzer", proxy, &retired);
        stack.pump();
        assert_eq!(stack.malformed_at(proxy), 3, "all three frames observed");
        assert_eq!(stack.malformed_total(), 3);
        // The garbage neither compromised nor crashed anything.
        assert!(!stack.is_compromised());
        assert_eq!(stack.server_restarts(), 0);
        assert!(stack.proxies.iter().all(|p| p.daemon.restarts() == 0), "no proxy restarted");
    }

    /// A reply's server is the endpoint it came from. A client that lifts
    /// server 0's authentic reply out of a response it received and plays
    /// it back at the proxies (which once took the index from the frame,
    /// and so let it settle a retransmission server 0 had not answered) is
    /// counted as malformed and settles nothing: a closure of server 0 is
    /// still charged to the unanswered request.
    #[test]
    fn a_replayed_server_reply_is_malformed_and_settles_nothing() {
        let mut stack = Stack::new(StackConfig {
            seed: 31,
            suspicion: SuspicionPolicy { window: 1000, threshold: 1 },
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let req = ClientRequest { seq: 1, client: "mallory".into(), op: b"GET k".to_vec() };
        stack.submit("mallory", &req);
        stack.pump();
        let events = stack.drain_client("mallory");
        let response = events.iter().find_map(|ev| ev.payload()).expect("answered");
        let lifted = ProxyResponseRef::decode(response).unwrap().reply.to_owned();
        assert_eq!(lifted.reply.server_index, 0, "the primary's reply");
        // A retransmission every proxy has forwarded and no server answered.
        for proxy in &mut stack.proxies {
            assert!(proxy.engine.should_forward("mallory", 1));
        }
        for proxy in stack.proxy_addrs() {
            stack.send_frame("mallory", proxy, &lifted.encode());
        }
        stack.pump();
        assert!(stack.drain_client("mallory").is_empty());
        for (i, proxy) in stack.proxy_addrs().into_iter().enumerate() {
            assert_eq!(stack.malformed_at(proxy), 1, "a signed reply from a non-server");
            let closed = ProxyInput::ServerClosed { server_index: 0 };
            let charged = stack.proxies[i].engine.on_input(closed);
            assert_eq!(charged, [ProxyOutput::Suspect { source: "mallory".into() }]);
        }
    }

    #[test]
    fn s2_round_trip_runs_generically_on_kernel_sockets() {
        // The same assembly and wire envelope, end-to-end through the
        // kernel: every proxy/server/nameserver hop below is a real
        // length-prefixed frame over a real socket.
        use fortress_net::sock::SockNet;
        for (kind, net) in [("tcp", SockNet::tcp()), ("uds", SockNet::uds())] {
            let mut stack = Stack::with_transport(StackConfig::default(), net).unwrap();
            stack.add_client("alice");
            let mut client =
                FortressClient::new("alice", stack.authority(), stack.ns().clone());
            let req = client.request(b"PUT color teal");
            stack.submit("alice", &req);
            stack.pump();
            let mut accepted = None;
            for ev in stack.drain_client("alice") {
                if let Some(payload) = ev.payload() {
                    let resp = ProxyResponseRef::decode(payload).unwrap();
                    if let Some(got) = client.on_response(&resp).unwrap() {
                        accepted = Some(got);
                    }
                }
            }
            assert_eq!(accepted, Some((1, b"OK".to_vec())), "{kind}");
            // The crash observable survives the kernel boundary too: a
            // wrong-key exploit crashes the shared-key servers and the
            // closures arrive as real EOFs.
            let wrong = RandomizationKey(stack.server_keys()[0].0 ^ 1);
            let probe = exploit_request(2, "alice", wrong);
            stack.submit("alice", &probe);
            stack.pump();
            assert_eq!(stack.server_restarts(), 9, "{kind}");
            assert!(!stack.is_compromised());
        }
    }

    #[test]
    fn pb_failover_survives_a_downed_primary() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            policy: Policy::StartupOnly,
            seed: 41,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let mut alice = DirectClient::new(
            "alice",
            stack.authority(),
            stack.ns().servers().to_vec(),
            AcceptMode::AnyAuthentic,
        );
        let accept = |stack: &mut Stack, alice: &mut DirectClient| {
            let mut got = None;
            for ev in stack.drain_client("alice") {
                if let Some(payload) = ev.payload() {
                    if let WireMsg::SignedReply(reply) = WireMsg::decode(payload) {
                        if let Some(ok) = alice.on_reply(&reply.to_owned()) {
                            got = Some(ok);
                        }
                    }
                }
            }
            got
        };
        let req = alice.request(b"PUT leader replica-0");
        stack.submit("alice", &req);
        stack.pump();
        assert!(accept(&mut stack, &mut alice).is_some());

        // The primary's machine goes down; heartbeat silence promotes a
        // backup within the failover timeout (default 20 steps).
        stack.take_down_server(0);
        assert!(stack.server_is_down(0));
        for _ in 0..25 {
            stack.end_step();
        }
        let req = alice.request(b"GET leader");
        stack.submit("alice", &req);
        stack.pump();
        let (_, body) = accept(&mut stack, &mut alice).expect("a backup must take over");
        assert_eq!(
            body, b"VALUE replica-0",
            "state written under the old primary survived"
        );
        assert!(!stack.is_compromised(), "an outage is not an intrusion");
    }

    /// The availability counters around a primary outage: downtime is
    /// exactly the window between losing the primary and the backup's
    /// promotion, the failover is counted with its latency, and
    /// requests sent into the downed machine are recorded as lost.
    #[test]
    fn availability_counters_track_a_failover_window() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            policy: Policy::StartupOnly,
            seed: 43,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let mut alice = DirectClient::new(
            "alice",
            stack.authority(),
            stack.ns().servers().to_vec(),
            AcceptMode::AnyAuthentic,
        );
        // Healthy steps accumulate no downtime.
        for _ in 0..5 {
            stack.end_step();
        }
        assert!(stack.serving());
        let avail = stack.availability();
        assert_eq!((avail.steps, avail.down_steps, avail.outages), (5, 0, 0));
        assert_eq!(avail.failovers, 0);

        // The primary's machine goes down; requests sent meanwhile are
        // lost; the backup promotes within the failover timeout.
        stack.take_down_server(0);
        let req = alice.request(b"PUT k v");
        stack.submit("alice", &req);
        for _ in 0..30 {
            stack.end_step();
        }
        let avail = stack.availability();
        assert_eq!(avail.outages, 1);
        assert!(avail.failovers >= 1, "heartbeat silence must promote");
        assert!(
            avail.down_steps > 0 && avail.down_steps <= pb_failover_timeout() + 2,
            "downtime is the pre-promotion window, got {}",
            avail.down_steps
        );
        assert_eq!(avail.recoveries, 1);
        assert_eq!(
            avail.failover_latency_total, avail.down_steps,
            "one outage: latency equals the down window"
        );
        assert!(avail.mean_failover_latency().unwrap() > 0.0);
        assert!(
            avail.lost_requests > 0,
            "the request into the downed primary dead-letters as lost"
        );
        assert!(stack.serving(), "a backup serves again");
        // Repair closes the loop; no further downtime accumulates.
        stack.bring_up_server(0);
        let before = stack.availability().down_steps;
        for _ in 0..5 {
            stack.end_step();
        }
        assert_eq!(stack.availability().down_steps, before);
    }

    /// Crashing the S0 leader is a *protocol event*: the backups' view-change
    /// timers (leader_timeout = 30 steps) expire, the VSR-style
    /// StartViewChange / DoViewChange / StartView exchange elects a successor,
    /// and the availability counters record one view change whose latency is
    /// the view timer — measurably longer than the PB failover timeout (20).
    #[test]
    fn smr_outage_routes_through_a_view_change() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            policy: Policy::StartupOnly,
            seed: 47,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::MatchingVotes { f: 1 },
        );
        // The VSR timers are request-driven: a benign probe per step keeps
        // every replica holding a pending request so silence is observable.
        let drive = |stack: &mut Stack, client: &mut DirectClient, steps: usize| {
            for _ in 0..steps {
                stack.drain_client("alice");
                let req = client.request(b"GET probe");
                stack.submit("alice", &req);
                stack.pump();
                stack.end_step();
            }
        };
        drive(&mut stack, &mut client, 5);
        let avail = stack.availability();
        assert_eq!((avail.down_steps, avail.view_changes), (0, 0));

        let leader = stack.smr_leader_hint();
        stack.take_down_server(leader);
        assert!(stack.smr_repair_tracked(), "an S0 crash arms repair tracking");
        drive(&mut stack, &mut client, 60);

        let avail = stack.availability();
        assert!(avail.view_changes >= 1, "the crash must force a view change");
        assert_eq!(avail.outages, 1);
        assert!(avail.recoveries >= 1, "a successor must resume service");
        let lat = avail.mean_failover_latency().expect("one completed window");
        assert!(
            lat > pb_failover_timeout() as f64,
            "view-change latency tracks the 30-step view timer, not the \
             20-step PB failover timeout; got {lat}"
        );
        assert!(
            (25.0..=45.0).contains(&lat),
            "latency should sit near leader_timeout = 30, got {lat}"
        );
        assert!(!stack.is_compromised(), "an outage is not an intrusion");
    }

    /// A rejoining S0 replica pays state transfer proportional to its log
    /// divergence: commits made while it was down become queued transfer
    /// units drained at the bounded bandwidth, and the replica only rejoins
    /// the quorum once the debt is paid.
    #[test]
    fn smr_rejoiner_pays_divergence_priced_transfer() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            policy: Policy::StartupOnly,
            seed: 48,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::MatchingVotes { f: 1 },
        );
        let drive = |stack: &mut Stack, client: &mut DirectClient, steps: usize| {
            for _ in 0..steps {
                stack.drain_client("alice");
                let req = client.request(b"PUT k v");
                stack.submit("alice", &req);
                stack.pump();
                stack.end_step();
            }
        };
        drive(&mut stack, &mut client, 3);
        // Crash a follower: the remaining three replicas are exactly a
        // 2f+1 quorum, so commits continue and divergence accumulates.
        stack.take_down_server(3);
        drive(&mut stack, &mut client, 20);
        assert_eq!(
            stack.availability().down_steps,
            0,
            "three live replicas are still a serving quorum"
        );

        stack.bring_up_server(3);
        assert!(
            stack.server_is_catching_up(3),
            "a divergent rejoiner must queue for state transfer"
        );
        // Re-budgeting mid-transfer changes the rate only: the queued job
        // and what it has paid survive, so the rejoiner still completes.
        drive(&mut stack, &mut client, 2);
        stack.enable_smr_repair(2);
        assert!(stack.server_is_catching_up(3), "the queued transfer was kept");
        drive(&mut stack, &mut client, 40);
        assert!(
            !stack.server_is_catching_up(3),
            "the transfer debt is finite and must eventually be paid"
        );
        let avail = stack.availability();
        assert!(
            avail.transfer_units >= 10,
            "20 serving steps of commits price a real transfer, got {}",
            avail.transfer_units
        );
        assert_eq!(avail.down_steps, 0, "repair never cost availability here");
    }

    /// A catching-up replica is up at the transport but deaf to the stack:
    /// a frame sent to it is delivered and drained, and nothing handles
    /// it. Once the transfer is paid, the same frame is handled (and
    /// counted malformed).
    #[test]
    fn a_catching_up_replica_drains_its_frames_unhandled() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            policy: Policy::StartupOnly,
            seed: 48,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            stack.ns().servers().to_vec(),
            AcceptMode::MatchingVotes { f: 1 },
        );
        let mut drive = |stack: &mut Stack, steps: usize| {
            for _ in 0..steps {
                stack.drain_client("alice");
                stack.submit("alice", &client.request(b"PUT k v"));
                stack.pump();
                stack.end_step();
            }
        };
        let rejoiner = stack.server_addrs()[3];
        let send_garbage = |stack: &mut Stack| {
            let delivered = stack.net_stats().delivered;
            stack.send_frame("alice", rejoiner, b"garbage");
            stack.pump();
            assert_eq!(stack.net_stats().delivered, delivered + 1, "the frame is delivered");
            assert!(!stack.transport_mut().has_pending(rejoiner), "and drained");
            stack.malformed_at(rejoiner)
        };
        drive(&mut stack, 3);
        stack.take_down_server(3);
        drive(&mut stack, 20);
        stack.bring_up_server(3);
        assert!(stack.server_is_catching_up(3));
        assert_eq!(send_garbage(&mut stack), 0, "a catching-up replica handles nothing");
        drive(&mut stack, 40);
        assert!(!stack.server_is_catching_up(3));
        assert_eq!(send_garbage(&mut stack), 1, "a serving replica handles the frame");
    }

    /// Replica-protocol frames are accepted only from group members and
    /// only in the tier's own protocol. Everything else — a client forging
    /// a view-advancing frame, or a frame of the other tier's kind from
    /// anyone — is counted at the server and never reaches an engine.
    #[test]
    fn forged_or_foreign_replica_frames_are_counted_not_applied() {
        // Each would advance replica 2's view if sender 1 were believed.
        let pb = PbMsg::Heartbeat { view: 7, seq: 0 }.encode();
        let smr = SmrMsg::StartView {
            view: 5,
            last_exec: 0,
            log: Vec::new(),
        }
        .encode();
        for (class, own, other) in [
            (SystemClass::S1Pb, &pb, &smr),
            (SystemClass::S0Smr, &smr, &pb),
        ] {
            let mut stack = Stack::new(StackConfig {
                class,
                seed: 53,
                ..StackConfig::default()
            })
            .unwrap();
            let mallory = stack.add_client("mallory");
            let (peer, target) = (stack.server_addrs()[1], stack.server_addrs()[2]);
            for (case, from, frame) in [
                ("own kind, forged by a client", mallory, own),
                ("other kind, from a client", mallory, other),
                ("other kind, from a group member", peer, other),
            ] {
                let before = stack.malformed_at(target);
                stack.net.send(from, target, Bytes::copy_from_slice(frame));
                stack.pump();
                assert_eq!(
                    stack.malformed_at(target),
                    before + 1,
                    "{class:?}: {case} must be counted exactly once"
                );
                assert!(
                    stack.servers.nodes.iter().all(|n| n.engine.view() == 0),
                    "{class:?}: {case} must not reach an engine"
                );
            }
            assert_eq!(stack.malformed_total(), 3, "{class:?}: nowhere else");
        }
    }

    /// Sub-tag 0 of the PB and SMR families once carried a
    /// replica-forwarded client request that no node sends. A frame under
    /// it, well formed in that old layout and sent by a group member, is
    /// malformed: believed, it became a pending request at an SMR backup,
    /// whose view timer then deposed a healthy leader over a request no
    /// client sent.
    #[test]
    fn a_sub_tag_zero_frame_from_a_group_member_is_malformed() {
        for (class, kind) in [
            (SystemClass::S1Pb, WireKind::Pb),
            (SystemClass::S0Smr, WireKind::Smr),
        ] {
            let mut stack = Stack::new(StackConfig {
                class,
                seed: 59,
                ..StackConfig::default()
            })
            .unwrap();
            let mut w = Writer::tagged(kind.tag());
            w.put_u8(0).put_u64(1).put_str("alice").put_bytes(b"PUT k v");
            let frame = w.finish();
            let (peer, target) = (stack.server_addrs()[1], stack.server_addrs()[2]);
            stack.net.send(peer, target, Bytes::copy_from_slice(&frame));
            stack.pump();
            assert_eq!(stack.malformed_at(target), 1, "{class:?}: counted at the receiver");
            assert_eq!(stack.malformed_total(), 1, "{class:?}: nowhere else");
            for _ in 0..40 {
                stack.pump();
                stack.end_step();
            }
            assert!(
                stack.servers.nodes.iter().all(|n| n.engine.view() == 0),
                "{class:?}: no view change over a request no client sent"
            );
        }
    }

    #[test]
    fn proxy_tier_flags_fast_prober() {
        let mut stack = Stack::new(StackConfig {
            seed: 19,
            suspicion: SuspicionPolicy {
                window: 1000,
                threshold: 3,
            },
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        for seq in 1..=5u64 {
            let wrong = RandomizationKey(true_key.0 ^ seq); // all wrong guesses
            let req = exploit_request(seq, "mallory", wrong);
            stack.submit("mallory", &req);
            stack.pump();
        }
        assert!(
            stack.suspects().contains(&"mallory".to_string()),
            "proxies must flag the prober; suspects = {:?}",
            stack.suspects()
        );
        // Once flagged, further probes are not forwarded: restarts stop.
        let restarts_before = stack.server_restarts();
        let req = exploit_request(9, "mallory", RandomizationKey(true_key.0 ^ 9));
        stack.submit("mallory", &req);
        stack.pump();
        assert_eq!(stack.server_restarts(), restarts_before);
    }
}
