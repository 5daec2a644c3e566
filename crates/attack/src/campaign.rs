//! Composable adversary campaign strategies.
//!
//! The paper evaluates FORTRESS against one attacker posture: probe every
//! tier simultaneously, with the indirect stream paced just below the
//! proxies' suspicion threshold. Survivability analysis methodology
//! (Ellison et al.) argues a resilience claim only stands once it is swept
//! across *adversary strategies* as well as defense configurations — so
//! this module turns the attacker's posture into a first-class,
//! enumerable axis.
//!
//! [`AdversaryStrategy`] is the per-step driver contract (object-safe, so
//! grids can hold heterogeneous strategies), and [`StrategyKind`] is the
//! serializable coordinate the campaign grids sweep:
//!
//! * [`StrategyKind::PacedBelowThreshold`] — the paper's baseline
//!   (§2.2/§4.2): broadcast proxy probes at the full rate ω, indirect
//!   server probes paced by [`Pacer::against`] so the attacker is never
//!   flagged, launch-pad probes at ω from any held proxy.
//! * [`StrategyKind::ScanThenStrike`] — a stealth two-phase attacker: it
//!   never sends a single request through the proxies (so the suspicion
//!   policy has nothing to log), focuses its whole probe budget on one
//!   proxy process until that proxy falls, then strikes the servers at
//!   the full rate from the captured launch pad.
//! * [`StrategyKind::Burst`] — duty-cycle evasion: instead of smoothing
//!   its indirect stream to the safe rate, it fires `threshold − 1`
//!   probes in a single step and then goes silent for a full window, so
//!   the sliding window never accumulates `threshold` events. Same
//!   long-run rate as pacing, maximally bursty short-run profile.
//! * [`StrategyKind::AdaptiveBackoff`] — a learning attacker that starts
//!   at the full indirect rate, and, each time the proxy tier flags its
//!   current identity, discards that identity (re-registering as a fresh
//!   source, as a botnet rotates exit addresses) and halves its rate,
//!   converging down toward the policy's safe rate from above.
//! * [`StrategyKind::SybilPaced`] — the Sybil gap in per-source
//!   suspicion: `k` coordinated identities split one probe budget ω, each
//!   paced below the per-source threshold, together sustaining up to
//!   `min(k · safe_rate, ω)` indirect probes per step without any single
//!   source ever being flagged. The identities share one key scanner
//!   (coordinated: no guess is wasted twice), which is exactly what makes
//!   a botnet stronger than `k` independent attackers.
//!
//! # Determinism contract
//!
//! A strategy instance is a pure function of `(stack, seed RNG stream)`:
//! all randomness flows through the `StdRng` handed to
//! [`StrategyKind::build`] and [`AdversaryStrategy::step`], so one trial
//! is reproducible from its trial seed alone, which is what lets the
//! campaign grids in `fortress-sim` promise bit-identical cells at any
//! thread count.

use fortress_core::messages::ClientRequest;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::Stack;
use fortress_obf::scheme::Scheme;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::attacker::{AttackReport, DirectAttacker, FortressAttacker};
use crate::pacing::Pacer;
use crate::scan::{KeyScanner, ScanStrategy};
use fortress_net::addr::Addr;
use fortress_net::sim::SimNet;
use fortress_net::Transport;

/// The adversary-strategy axis of a campaign grid: which attacker posture
/// a cell runs. `Copy + Eq` so grids can use it as a coordinate, and the
/// discriminant feeds the content-derived cell seeding.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum StrategyKind {
    /// The paper's baseline three-pronged attacker, §4.2.
    PacedBelowThreshold,
    /// Stealth proxy capture, then full-rate launch-pad strike.
    ScanThenStrike,
    /// Threshold-width bursts separated by window-length silences.
    Burst,
    /// Full rate, halved (with a fresh identity) after every detection.
    AdaptiveBackoff,
    /// `identities` coordinated sources splitting one probe budget, each
    /// paced below the per-source threshold.
    SybilPaced {
        /// Number of coordinated identities (0 is treated as 1).
        identities: u8,
    },
    /// Availability-aware opportunist: probes the proxy tier at full
    /// rate like the baseline, but sends indirect server probes **only
    /// while a server machine is down** — outages are externally
    /// observable (health pages, error rates), and a window where the
    /// tier is distracted by failover is exactly when a probe is
    /// cheapest to sneak. Per-window volume stays at `threshold − 1`,
    /// so, like burst, it is never flagged.
    OutageStrike,
}

impl StrategyKind {
    /// Every strategy, in the canonical grid order. `OutageStrike` is
    /// deliberately not here: without an outage schedule on the cell it
    /// degenerates to proxy-only probing, so it belongs on
    /// availability sweeps (which list it explicitly), not the default
    /// grid.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::PacedBelowThreshold,
        StrategyKind::ScanThenStrike,
        StrategyKind::Burst,
        StrategyKind::AdaptiveBackoff,
        StrategyKind::SybilPaced { identities: 4 },
    ];

    /// Stable human-readable family label (used in reports and golden
    /// files). Parameterized kinds share one family label — use
    /// [`StrategyKind::display_label`] where cells differing in the
    /// parameter must stay distinguishable.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::PacedBelowThreshold => "paced",
            StrategyKind::ScanThenStrike => "scan_strike",
            StrategyKind::Burst => "burst",
            StrategyKind::AdaptiveBackoff => "adaptive",
            StrategyKind::SybilPaced { .. } => "sybil",
            StrategyKind::OutageStrike => "outage_strike",
        }
    }

    /// Full display label, parameters included: two distinct kinds never
    /// share a display label (`SybilPaced { identities: 4 }` renders as
    /// `"sybil x4"`). The scenario sweep labels cells with this, so
    /// sweeping the identity-count axis stays readable in reports and
    /// unambiguous in golden comparators.
    pub fn display_label(self) -> String {
        match self {
            StrategyKind::SybilPaced { identities } => format!("sybil x{identities}"),
            other => other.label().to_string(),
        }
    }

    /// Stable numeric id — part of the campaign seeding contract (cell
    /// seeds mix this value, never a grid position, so reordering a
    /// grid's strategy list cannot change any cell's trials). Must be
    /// pairwise distinct across every constructible kind (asserted by the
    /// tests below): parameterized kinds fold their parameters into the
    /// high bits so `SybilPaced { identities: 2 }` and `{ identities: 3 }`
    /// are different cells with different seeds.
    pub fn id(self) -> u64 {
        match self {
            StrategyKind::PacedBelowThreshold => 1,
            StrategyKind::ScanThenStrike => 2,
            StrategyKind::Burst => 3,
            StrategyKind::AdaptiveBackoff => 4,
            StrategyKind::SybilPaced { identities } => 5 | (u64::from(identities) << 8),
            StrategyKind::OutageStrike => 6,
        }
    }

    /// The per-identity indirect rate a [`StrategyKind::SybilPaced`]
    /// attacker with `identities` sources runs at: the probe budget ω
    /// split evenly, capped at the policy's per-source safe rate. One
    /// definition, shared by the strategy and its property tests.
    pub fn sybil_rate_per_identity(
        suspicion: SuspicionPolicy,
        omega: f64,
        identities: u8,
    ) -> f64 {
        let k = f64::from(identities.max(1));
        suspicion.max_safe_rate().min(omega.max(0.0) / k)
    }

    /// The indirect-attack coefficient κ this strategy's long-run
    /// schedule realizes against `suspicion` at unconstrained rate
    /// `omega` — `None` for strategies whose indirect stream is not a
    /// steady rate (scan-then-strike sends nothing indirect; adaptive
    /// backoff only converges toward the safe rate). This is what the
    /// scenario layer's cross-check reads the abstract S2 model at.
    pub fn indirect_kappa(self, suspicion: SuspicionPolicy, omega: f64) -> Option<f64> {
        match self {
            // Pacing and bursting realize the same long-run rate: the
            // largest per-source rate that never fills a window.
            StrategyKind::PacedBelowThreshold | StrategyKind::Burst => {
                Some(suspicion.induced_kappa(omega))
            }
            StrategyKind::SybilPaced { identities } => {
                if omega <= 0.0 {
                    return Some(1.0);
                }
                let k = f64::from(identities.max(1));
                let per_identity =
                    StrategyKind::sybil_rate_per_identity(suspicion, omega, identities);
                Some(((per_identity * k) / omega).min(1.0))
            }
            // No steady indirect rate: scan-then-strike sends nothing
            // indirect, adaptive backoff only converges toward the safe
            // rate, and the outage striker's schedule is gated on the
            // defender's outage windows.
            StrategyKind::ScanThenStrike
            | StrategyKind::AdaptiveBackoff
            | StrategyKind::OutageStrike => None,
        }
    }

    /// Instantiates the strategy against `stack`, registering whatever
    /// client identities it needs. `suspicion` is the proxies' policy,
    /// which a competent attacker knows (Kerckhoffs) and shapes its
    /// schedule around; `omega` is its unconstrained probe rate.
    pub fn build<T: Transport>(
        self,
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        suspicion: SuspicionPolicy,
        rng: &mut StdRng,
    ) -> Box<dyn AdversaryStrategy<T>> {
        match self {
            StrategyKind::PacedBelowThreshold => Box::new(Paced {
                inner: FortressAttacker::new(stack, name, scheme, omega, suspicion, rng),
            }),
            StrategyKind::ScanThenStrike => {
                Box::new(ScanThenStrike::new(stack, name, scheme, omega, rng))
            }
            StrategyKind::Burst => Box::new(Burst::new(
                stack, name, scheme, omega, suspicion, rng,
            )),
            StrategyKind::AdaptiveBackoff => Box::new(AdaptiveBackoff::new(
                stack, name, scheme, omega, suspicion, rng,
            )),
            StrategyKind::SybilPaced { identities } => Box::new(SybilPaced::new(
                stack, name, scheme, omega, suspicion, identities, rng,
            )),
            StrategyKind::OutageStrike => Box::new(OutageStrike::new(
                stack, name, scheme, omega, suspicion, rng,
            )),
        }
    }
}

/// One adversary posture driving a [`Stack`] one unit time-step at a
/// time. Object-safe (the RNG is the concrete `StdRng` every protocol
/// trial already uses) so campaign cells can box heterogeneous
/// strategies behind one driver loop. Generic over the stack's
/// transport with [`SimNet`] as the default, so existing
/// `Box<dyn AdversaryStrategy>` call sites keep meaning the in-process
/// simulator while fault-decorated stacks
/// (`Stack<FaultyTransport<SimNet>>`) drive the very same strategy
/// code.
pub trait AdversaryStrategy<T: Transport = SimNet> {
    /// Launches one unit time-step of the campaign against `stack`.
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng);

    /// Invalidates key knowledge after the defender re-randomized (PO).
    fn on_rerandomized(&mut self, rng: &mut StdRng);

    /// Probe statistics so far.
    fn report(&self) -> AttackReport;
}

/// Shared probing mechanics: every strategy is some schedule over these
/// three moves plus the closure observations.
struct Arsenal {
    name: String,
    scheme: Scheme,
    next_seq: u64,
    report: AttackReport,
    // Reused encode buffers: same wire bytes, no per-probe allocations.
    frame: Vec<u8>,
    req: ClientRequest,
}

impl Arsenal {
    fn new<T: Transport>(stack: &mut Stack<T>, name: &str, scheme: Scheme) -> Arsenal {
        stack.add_client(name);
        Arsenal {
            name: name.to_owned(),
            scheme,
            next_seq: 0,
            report: AttackReport::default(),
            frame: Vec::new(),
            req: ClientRequest { seq: 0, client: String::new(), op: Vec::new() },
        }
    }

    /// Rebuilds the reused request in place: fresh seq, `identity` as
    /// the client, `guess`'s exploit as the op — no allocations once the
    /// buffers have warmed up.
    fn refill_req(&mut self, identity: &str, guess: fortress_obf::keys::RandomizationKey) {
        self.next_seq += 1;
        self.req.seq = self.next_seq;
        if self.req.client != identity {
            self.req.client.clear();
            self.req.client.push_str(identity);
        }
        self.req.op.clear();
        self.scheme.craft_exploit(guess).write_to(&mut self.req.op);
    }

    /// One guessed key broadcast raw at every proxy process. `addrs` is
    /// the proxy tier, fetched once per step by the caller (not once per
    /// probe — that is 10⁸ redundant allocations over a campaign grid).
    fn probe_all_proxies<T: Transport>(
        &mut self,
        stack: &mut Stack<T>,
        addrs: &[Addr],
        scanner: &mut KeyScanner,
        rng: &mut StdRng,
    ) {
        if let Some(guess) = scanner.next_guess(rng) {
            self.frame.clear();
            self.scheme.craft_exploit(guess).write_to(&mut self.frame);
            // One encode, one shared buffer across the whole tier.
            stack.broadcast_frame(&self.name, addrs, &self.frame);
            self.report.proxy_probes += 1;
            stack.pump();
        }
    }

    /// One guessed key thrown raw at a single proxy (focus fire). A
    /// no-op against classes without a proxy tier — S2-specific
    /// strategies degrade to doing nothing rather than panicking inside
    /// a runner trial.
    fn probe_one_proxy<T: Transport>(
        &mut self,
        stack: &mut Stack<T>,
        addrs: &[Addr],
        target: usize,
        scanner: &mut KeyScanner,
        rng: &mut StdRng,
    ) {
        if target >= addrs.len() {
            return;
        }
        if let Some(guess) = scanner.next_guess(rng) {
            self.frame.clear();
            self.scheme.craft_exploit(guess).write_to(&mut self.frame);
            stack.send_frame(&self.name, addrs[target], &self.frame);
            self.report.proxy_probes += 1;
            stack.pump();
        }
    }

    /// One guessed key submitted as a service request under `identity`
    /// (logged by the proxies if wrong — the suspicion-visible move).
    fn probe_servers_indirect<T: Transport>(
        &mut self,
        stack: &mut Stack<T>,
        identity: &str,
        scanner: &mut KeyScanner,
        rng: &mut StdRng,
    ) {
        if let Some(guess) = scanner.next_guess(rng) {
            self.refill_req(identity, guess);
            stack.submit(identity, &self.req);
            self.report.server_probes += 1;
            stack.pump();
        }
    }

    /// One guessed key launched at the servers from held proxy `pad`
    /// (nothing logs there).
    fn probe_servers_from_pad<T: Transport>(
        &mut self,
        stack: &mut Stack<T>,
        pad: usize,
        scanner: &mut KeyScanner,
        rng: &mut StdRng,
    ) {
        if let Some(guess) = scanner.next_guess(rng) {
            let name = std::mem::take(&mut self.name);
            self.refill_req(&name, guess);
            self.name = name;
            stack.submit_via_proxy(pad, &self.req);
            self.report.pad_probes += 1;
            stack.pump();
        }
    }

    /// The lowest-index proxy the attacker currently holds, if any.
    fn held_proxy<T: Transport>(stack: &Stack<T>) -> Option<usize> {
        (0..stack.proxy_count()).find(|i| stack.proxy_is_compromised(*i))
    }

    /// Collects crash observations from `identity`'s connections and, if
    /// a proxy is held, from its leaked inbox.
    fn observe<T: Transport>(&mut self, stack: &mut Stack<T>, identity: &str, pad: Option<usize>) {
        let mut closures = stack.drain_client_closures(identity);
        if let Some(pad) = pad {
            if stack.proxy_is_compromised(pad) {
                closures += stack.drain_proxy_closures(pad);
            }
        }
        self.report.closures_observed += closures;
    }
}

/// [`StrategyKind::PacedBelowThreshold`]: the paper's three-pronged
/// baseline. Deliberately a thin wrapper around the *same*
/// [`FortressAttacker`] `ProtocolExperiment::run_once` drives — one
/// implementation of §4.2, so the campaign's "paced" cells can never
/// drift from the PROTO experiments' baseline.
struct Paced {
    inner: FortressAttacker,
}

impl<T: Transport> AdversaryStrategy<T> for Paced {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        self.inner.step(stack, rng);
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        self.inner.on_rerandomized(rng);
    }

    fn report(&self) -> AttackReport {
        self.inner.report()
    }
}

/// The 1-tier baseline under the same driver contract: a
/// [`DirectAttacker`] has no proxy tier to schedule around, so S0 and S1
/// trials step it through the very loop the S2 strategies share.
impl<T: Transport> AdversaryStrategy<T> for DirectAttacker {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        DirectAttacker::step(self, stack, rng);
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        DirectAttacker::on_rerandomized(self, rng);
    }

    fn report(&self) -> AttackReport {
        DirectAttacker::report(self)
    }
}

/// [`StrategyKind::ScanThenStrike`]: capture one proxy in radio silence,
/// then strike the servers from it at full rate.
struct ScanThenStrike {
    arsenal: Arsenal,
    proxy_scanner: KeyScanner,
    server_scanner: KeyScanner,
    scan_pacer: Pacer,
    strike_pacer: Pacer,
}

impl ScanThenStrike {
    fn new<T: Transport>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        rng: &mut StdRng,
    ) -> ScanThenStrike {
        let arsenal = Arsenal::new(stack, name, scheme);
        ScanThenStrike {
            proxy_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            server_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            scan_pacer: Pacer::unconstrained(omega),
            strike_pacer: Pacer::unconstrained(omega),
            arsenal,
        }
    }
}

impl<T: Transport> AdversaryStrategy<T> for ScanThenStrike {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        // Phase decided at step start: scan until a pad exists, then
        // strike from it. Focus fire on proxy 0 — spreading guesses
        // across proxies buys nothing when one pad is all it needs, and
        // focusing keeps the scan's cost independent of the fleet size.
        let pad = Arsenal::held_proxy(stack);
        match pad {
            None => {
                let addrs = stack.proxy_addrs();
                for _ in 0..self.scan_pacer.probes_this_step() {
                    self.arsenal
                        .probe_one_proxy(stack, &addrs, 0, &mut self.proxy_scanner, rng);
                    if !addrs.is_empty() && stack.proxy_is_compromised(0) {
                        break; // pad acquired: strike next step
                    }
                }
            }
            Some(pad) => {
                for _ in 0..self.strike_pacer.probes_this_step() {
                    if !stack.proxy_is_compromised(pad) {
                        break; // evicted mid-step (PO maintenance races)
                    }
                    self.arsenal
                        .probe_servers_from_pad(stack, pad, &mut self.server_scanner, rng);
                }
            }
        }
        let name = self.arsenal.name.clone();
        self.arsenal.observe(stack, &name, pad);
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        self.proxy_scanner.reset(rng);
        self.server_scanner.reset(rng);
    }

    fn report(&self) -> AttackReport {
        self.arsenal.report
    }
}

/// [`StrategyKind::Burst`]: `threshold − 1` indirect probes in one step,
/// then a full window of silence — the sliding window can never hold
/// `threshold` events, so the attacker is never flagged, same as pacing
/// but with the opposite short-run profile.
struct Burst {
    arsenal: Arsenal,
    proxy_scanner: KeyScanner,
    server_scanner: KeyScanner,
    direct_pacer: Pacer,
    pad_pacer: Pacer,
    burst_size: u64,
    period: u64,
    clock: u64,
}

impl Burst {
    fn new<T: Transport>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        suspicion: SuspicionPolicy,
        rng: &mut StdRng,
    ) -> Burst {
        let arsenal = Arsenal::new(stack, name, scheme);
        Burst {
            proxy_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            server_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            direct_pacer: Pacer::unconstrained(omega),
            pad_pacer: Pacer::unconstrained(omega),
            // threshold − 1 events at one timestamp stay strictly below
            // the flagging count; an event aged exactly `window` steps is
            // outside the half-open window, so period = window is safe.
            burst_size: u64::from(suspicion.threshold.saturating_sub(1)),
            period: suspicion.window.max(1),
            clock: 0,
            arsenal,
        }
    }
}

impl<T: Transport> AdversaryStrategy<T> for Burst {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        let addrs = stack.proxy_addrs();
        for _ in 0..self.direct_pacer.probes_this_step() {
            self.arsenal
                .probe_all_proxies(stack, &addrs, &mut self.proxy_scanner, rng);
        }
        let name = self.arsenal.name.clone();
        if self.clock.is_multiple_of(self.period) {
            for _ in 0..self.burst_size {
                self.arsenal
                    .probe_servers_indirect(stack, &name, &mut self.server_scanner, rng);
            }
        }
        self.clock += 1;
        let pad = Arsenal::held_proxy(stack);
        if let Some(pad) = pad {
            for _ in 0..self.pad_pacer.probes_this_step() {
                self.arsenal
                    .probe_servers_from_pad(stack, pad, &mut self.server_scanner, rng);
            }
        }
        self.arsenal.observe(stack, &name, pad);
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        self.proxy_scanner.reset(rng);
        self.server_scanner.reset(rng);
    }

    fn report(&self) -> AttackReport {
        self.arsenal.report
    }
}

/// [`StrategyKind::AdaptiveBackoff`]: probe indirect at full rate; every
/// time the current identity is flagged, rotate to a fresh identity at
/// half the rate, never dropping below the policy's safe rate (where
/// detection can no longer happen).
struct AdaptiveBackoff {
    arsenal: Arsenal,
    proxy_scanner: KeyScanner,
    server_scanner: KeyScanner,
    direct_pacer: Pacer,
    indirect_pacer: Pacer,
    pad_pacer: Pacer,
    omega: f64,
    floor_rate: f64,
    identity: u64,
    current_name: String,
    /// Identities already flagged and abandoned. Their registrations (and
    /// network queues) outlive the rotation, so observations must keep
    /// draining them or closure counts silently undercount.
    burned: Vec<String>,
}

impl AdaptiveBackoff {
    fn new<T: Transport>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        suspicion: SuspicionPolicy,
        rng: &mut StdRng,
    ) -> AdaptiveBackoff {
        let arsenal = Arsenal::new(stack, name, scheme);
        AdaptiveBackoff {
            proxy_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            server_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            direct_pacer: Pacer::unconstrained(omega),
            indirect_pacer: Pacer::unconstrained(omega),
            pad_pacer: Pacer::unconstrained(omega),
            omega,
            floor_rate: suspicion.max_safe_rate(),
            identity: 0,
            current_name: arsenal.name.clone(),
            burned: Vec::new(),
            arsenal,
        }
    }

    /// A flagged identity is burned: rotate to a fresh one (modeling an
    /// attacker cycling source addresses) at half the previous rate.
    fn back_off<T: Transport>(&mut self, stack: &mut Stack<T>) {
        self.identity += 1;
        let fresh = format!("{}~{}", self.arsenal.name, self.identity);
        self.burned
            .push(std::mem::replace(&mut self.current_name, fresh));
        stack.add_client(&self.current_name);
        let halved = (self.indirect_pacer.rate() / 2.0).max(self.floor_rate);
        self.indirect_pacer = Pacer::with_rate(halved, self.omega);
    }
}

impl<T: Transport> AdversaryStrategy<T> for AdaptiveBackoff {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        let addrs = stack.proxy_addrs();
        for _ in 0..self.direct_pacer.probes_this_step() {
            self.arsenal
                .probe_all_proxies(stack, &addrs, &mut self.proxy_scanner, rng);
        }
        let identity = self.current_name.clone();
        for _ in 0..self.indirect_pacer.probes_this_step() {
            self.arsenal
                .probe_servers_indirect(stack, &identity, &mut self.server_scanner, rng);
        }
        let pad = Arsenal::held_proxy(stack);
        if let Some(pad) = pad {
            for _ in 0..self.pad_pacer.probes_this_step() {
                self.arsenal
                    .probe_servers_from_pad(stack, pad, &mut self.server_scanner, rng);
            }
        }
        self.arsenal.observe(stack, &identity, pad);
        // Burned identities still receive closure events for probes they
        // sent before rotation — keep draining them. (Take the list to
        // observe without cloning each name every step.)
        let burned = std::mem::take(&mut self.burned);
        for old in &burned {
            self.arsenal.observe(stack, old, None);
        }
        self.burned = burned;
        // Detection feedback: the proxy tier publishes nothing, but a
        // flagged source notices its service stops — modeled by reading
        // the suspects list the stack exposes to the harness.
        if stack.suspects().contains(&self.current_name) {
            self.back_off(stack);
        }
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        self.proxy_scanner.reset(rng);
        self.server_scanner.reset(rng);
    }

    fn report(&self) -> AttackReport {
        self.arsenal.report
    }
}

/// [`StrategyKind::SybilPaced`]: `k` coordinated identities, each paced
/// at `min(safe_rate, ω/k)`, sharing one server scanner so no guess is
/// spent twice. Per-source accounting sees `k` independent slow sources;
/// the servers see up to `min(k · safe_rate, ω)` probes per step.
struct SybilPaced {
    arsenal: Arsenal,
    proxy_scanner: KeyScanner,
    server_scanner: KeyScanner,
    direct_pacer: Pacer,
    pad_pacer: Pacer,
    /// One `(name, pacer)` per coordinated identity. Pacers are stateful
    /// (fractional credit), so each identity owns its own schedule.
    identity_pacers: Vec<(String, Pacer)>,
}

impl SybilPaced {
    #[allow(clippy::too_many_arguments)]
    fn new<T: Transport>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        suspicion: SuspicionPolicy,
        identities: u8,
        rng: &mut StdRng,
    ) -> SybilPaced {
        let arsenal = Arsenal::new(stack, name, scheme);
        let k = identities.max(1);
        let per_identity = StrategyKind::sybil_rate_per_identity(suspicion, omega, identities);
        let identity_pacers = (0..k)
            .map(|j| {
                let sybil = format!("{name}#{j}");
                stack.add_client(&sybil);
                (sybil, Pacer::with_rate(per_identity, omega))
            })
            .collect();
        SybilPaced {
            proxy_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            server_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            direct_pacer: Pacer::unconstrained(omega),
            pad_pacer: Pacer::unconstrained(omega),
            identity_pacers,
            arsenal,
        }
    }
}

impl<T: Transport> AdversaryStrategy<T> for SybilPaced {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        let addrs = stack.proxy_addrs();
        for _ in 0..self.direct_pacer.probes_this_step() {
            self.arsenal
                .probe_all_proxies(stack, &addrs, &mut self.proxy_scanner, rng);
        }
        // Take the identity list so each name can be borrowed across the
        // arsenal calls without cloning it every step.
        let mut identities = std::mem::take(&mut self.identity_pacers);
        for (name, pacer) in &mut identities {
            for _ in 0..pacer.probes_this_step() {
                self.arsenal
                    .probe_servers_indirect(stack, name, &mut self.server_scanner, rng);
            }
        }
        self.identity_pacers = identities;
        let pad = Arsenal::held_proxy(stack);
        if let Some(pad) = pad {
            for _ in 0..self.pad_pacer.probes_this_step() {
                self.arsenal
                    .probe_servers_from_pad(stack, pad, &mut self.server_scanner, rng);
            }
        }
        let name = self.arsenal.name.clone();
        self.arsenal.observe(stack, &name, pad);
        let identities = std::mem::take(&mut self.identity_pacers);
        for (identity, _) in &identities {
            self.arsenal.observe(stack, identity, None);
        }
        self.identity_pacers = identities;
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        self.proxy_scanner.reset(rng);
        self.server_scanner.reset(rng);
    }

    fn report(&self) -> AttackReport {
        self.arsenal.report
    }
}

/// [`StrategyKind::OutageStrike`]: full-rate proxy probing, with the
/// indirect stream gated on the defender's outage windows — while a
/// server machine is down (externally observable: health pages, error
/// rates, the same channel [`AdaptiveBackoff`] reads its suspects
/// signal from), it fires `threshold − 1` indirect probes and then
/// stays silent at least a full window, so no source window ever
/// accumulates `threshold` events. While the tier is healthy it sends
/// nothing indirect at all: this is the adversary that times its
/// probes against availability faults.
struct OutageStrike {
    arsenal: Arsenal,
    proxy_scanner: KeyScanner,
    server_scanner: KeyScanner,
    direct_pacer: Pacer,
    pad_pacer: Pacer,
    burst_size: u64,
    window: u64,
    clock: u64,
    /// Step of the last indirect burst (`None` before the first).
    last_burst: Option<u64>,
}

impl OutageStrike {
    fn new<T: Transport>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        suspicion: SuspicionPolicy,
        rng: &mut StdRng,
    ) -> OutageStrike {
        let arsenal = Arsenal::new(stack, name, scheme);
        OutageStrike {
            proxy_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            server_scanner: KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng),
            direct_pacer: Pacer::unconstrained(omega),
            pad_pacer: Pacer::unconstrained(omega),
            burst_size: u64::from(suspicion.threshold.saturating_sub(1)),
            window: suspicion.window.max(1),
            clock: 0,
            last_burst: None,
            arsenal,
        }
    }
}

impl<T: Transport> AdversaryStrategy<T> for OutageStrike {
    fn step(&mut self, stack: &mut Stack<T>, rng: &mut StdRng) {
        let addrs = stack.proxy_addrs();
        for _ in 0..self.direct_pacer.probes_this_step() {
            self.arsenal
                .probe_all_proxies(stack, &addrs, &mut self.proxy_scanner, rng);
        }
        let name = self.arsenal.name.clone();
        let window_clear = self
            .last_burst
            .is_none_or(|last| self.clock.saturating_sub(last) >= self.window);
        if stack.any_server_down() && window_clear {
            for _ in 0..self.burst_size {
                self.arsenal
                    .probe_servers_indirect(stack, &name, &mut self.server_scanner, rng);
            }
            self.last_burst = Some(self.clock);
        }
        self.clock += 1;
        let pad = Arsenal::held_proxy(stack);
        if let Some(pad) = pad {
            for _ in 0..self.pad_pacer.probes_this_step() {
                self.arsenal
                    .probe_servers_from_pad(stack, pad, &mut self.server_scanner, rng);
            }
        }
        self.arsenal.observe(stack, &name, pad);
    }

    fn on_rerandomized(&mut self, rng: &mut StdRng) {
        self.proxy_scanner.reset(rng);
        self.server_scanner.reset(rng);
    }

    fn report(&self) -> AttackReport {
        self.arsenal.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::{CompromiseState, StackConfig, SystemClass};
    use fortress_obf::schedule::ObfuscationPolicy;
    use rand::SeedableRng;

    fn s2_stack(bits: u32, suspicion: SuspicionPolicy, np: usize, seed: u64) -> Stack {
        Stack::new(StackConfig {
            class: SystemClass::S2Fortress,
            entropy_bits: bits,
            policy: ObfuscationPolicy::StartupOnly,
            suspicion,
            np,
            seed,
            ..StackConfig::default()
        })
        .unwrap()
    }

    fn drive(stack: &mut Stack, strategy: &mut dyn AdversaryStrategy, rng: &mut StdRng, cap: u64) -> Option<u64> {
        for step in 1..=cap {
            strategy.step(stack, rng);
            if stack.end_step() != CompromiseState::Intact {
                return Some(step);
            }
        }
        None
    }

    #[test]
    fn every_strategy_eventually_breaks_a_tiny_so_fortress() {
        for kind in StrategyKind::ALL {
            let suspicion = SuspicionPolicy {
                window: 8,
                threshold: 3,
            };
            let mut stack = s2_stack(5, suspicion, 3, 0xA0 + kind.id());
            let mut rng = StdRng::seed_from_u64(kind.id());
            let mut strategy =
                kind.build(&mut stack, "mallory", Scheme::Aslr, 8.0, suspicion, &mut rng);
            let fell = drive(&mut stack, strategy.as_mut(), &mut rng, 400);
            assert!(
                fell.is_some(),
                "{} never broke a 32-key SO FORTRESS in 400 steps",
                kind.label()
            );
            let report = strategy.report();
            assert!(
                report.proxy_probes + report.server_probes + report.pad_probes > 0,
                "{} launched nothing",
                kind.label()
            );
        }
    }

    #[test]
    fn paced_burst_and_sybil_are_never_flagged() {
        for kind in [
            StrategyKind::PacedBelowThreshold,
            StrategyKind::Burst,
            StrategyKind::SybilPaced { identities: 3 },
        ] {
            let suspicion = SuspicionPolicy {
                window: 16,
                threshold: 4,
            };
            let mut stack = s2_stack(8, suspicion, 3, 0xB0 + kind.id());
            let mut rng = StdRng::seed_from_u64(100 + kind.id());
            let mut strategy =
                kind.build(&mut stack, "mallory", Scheme::Aslr, 6.0, suspicion, &mut rng);
            for _ in 0..120 {
                strategy.step(&mut stack, &mut rng);
                if stack.end_step() != CompromiseState::Intact {
                    break;
                }
            }
            assert!(
                stack.suspects().is_empty(),
                "{} was flagged: {:?}",
                kind.label(),
                stack.suspects()
            );
        }
    }

    #[test]
    fn scan_then_strike_sends_nothing_through_proxies() {
        let suspicion = SuspicionPolicy {
            window: 4,
            threshold: 2, // hair-trigger policy: any indirect probing flags
        };
        let mut stack = s2_stack(6, suspicion, 3, 0xC1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut strategy = StrategyKind::ScanThenStrike.build(
            &mut stack,
            "mallory",
            Scheme::Aslr,
            8.0,
            suspicion,
            &mut rng,
        );
        let fell = drive(&mut stack, strategy.as_mut(), &mut rng, 400);
        assert!(fell.is_some(), "strike phase must land");
        assert!(
            stack.suspects().is_empty(),
            "radio-silent scanner got flagged"
        );
        let report = strategy.report();
        assert_eq!(report.server_probes, 0, "no probe may cross the proxies");
        assert!(report.pad_probes > 0, "the strike goes through the pad");
    }

    #[test]
    fn adaptive_backoff_rotates_identities_under_hair_trigger_policy() {
        let suspicion = SuspicionPolicy {
            window: 64,
            threshold: 2,
        };
        let mut stack = s2_stack(10, suspicion, 3, 0xD1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut strategy = StrategyKind::AdaptiveBackoff.build(
            &mut stack,
            "mallory",
            Scheme::Aslr,
            8.0,
            suspicion,
            &mut rng,
        );
        for _ in 0..40 {
            strategy.step(&mut stack, &mut rng);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        assert!(
            stack.suspects().len() > 1,
            "full-rate start against threshold 2 must burn identities, got {:?}",
            stack.suspects()
        );
    }

    #[test]
    fn outage_strike_gates_indirect_probes_on_outage_windows() {
        let suspicion = SuspicionPolicy {
            window: 8,
            threshold: 4,
        };
        let mut stack = s2_stack(12, suspicion, 3, 0xF2);
        let mut rng = StdRng::seed_from_u64(21);
        let mut strategy = StrategyKind::OutageStrike.build(
            &mut stack,
            "mallory",
            Scheme::Aslr,
            8.0,
            suspicion,
            &mut rng,
        );
        // Healthy tier: the indirect stream stays silent.
        for _ in 0..20 {
            strategy.step(&mut stack, &mut rng);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        assert_eq!(
            strategy.report().server_probes,
            0,
            "no indirect probe may fire while every server is up"
        );
        // A server machine goes down: the striker spends threshold − 1
        // probes per window, and is never flagged doing it.
        stack.take_down_server(0);
        for _ in 0..24 {
            strategy.step(&mut stack, &mut rng);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        let fired = strategy.report().server_probes;
        assert!(fired > 0, "outage windows must be exploited");
        assert!(
            fired <= 24 / 8 * 3 + 3,
            "at most threshold − 1 per window: {fired}"
        );
        assert!(
            stack.suspects().is_empty(),
            "outage striker was flagged: {:?}",
            stack.suspects()
        );
    }

    /// Content-derived cell seeds silently collide if two distinct
    /// strategies share an id, so ids must be pairwise distinct across
    /// every constructible kind — including the parameterized Sybil
    /// family, whose identity count is part of the cell coordinate.
    #[test]
    fn strategy_ids_and_labels_are_distinct() {
        let mut ids = std::collections::HashSet::new();
        let mut labels = std::collections::HashSet::new();
        let every = StrategyKind::ALL
            .into_iter()
            .chain([StrategyKind::OutageStrike]);
        for kind in every.clone() {
            assert!(ids.insert(kind.id()), "id collision at {kind:?}");
            assert!(labels.insert(kind.label()));
        }
        let mut display_labels: std::collections::HashSet<String> =
            every.map(|k| k.display_label()).collect();
        assert_eq!(display_labels.len(), StrategyKind::ALL.len() + 1);
        for identities in 0..=u8::MAX {
            let kind = StrategyKind::SybilPaced { identities };
            if kind == (StrategyKind::SybilPaced { identities: 4 }) {
                continue; // already inserted via ALL
            }
            assert!(ids.insert(kind.id()), "id collision at {kind:?}");
            assert!(
                display_labels.insert(kind.display_label()),
                "display label collision at {kind:?}"
            );
        }
    }

    #[test]
    fn sybil_split_respects_both_caps() {
        let policy = SuspicionPolicy { window: 10, threshold: 6 }; // safe 0.5
        // Budget-bound: omega/k below the safe rate.
        let r = StrategyKind::sybil_rate_per_identity(policy, 1.0, 4);
        assert!((r - 0.25).abs() < 1e-12);
        // Threshold-bound: omega/k above the safe rate.
        let r = StrategyKind::sybil_rate_per_identity(policy, 8.0, 4);
        assert!((r - 0.5).abs() < 1e-12);
        // identities = 0 treated as 1.
        let r = StrategyKind::sybil_rate_per_identity(policy, 0.3, 0);
        assert!((r - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sybil_kappa_scales_with_identity_count_until_budget_bound() {
        let policy = SuspicionPolicy { window: 64, threshold: 9 }; // safe 0.125
        let omega = 8.0;
        let k1 = StrategyKind::SybilPaced { identities: 1 }
            .indirect_kappa(policy, omega)
            .unwrap();
        let k4 = StrategyKind::SybilPaced { identities: 4 }
            .indirect_kappa(policy, omega)
            .unwrap();
        assert!((k1 - policy.induced_kappa(omega)).abs() < 1e-12);
        assert!((k4 - 4.0 * k1).abs() < 1e-12, "below budget, κ scales with k");
        // Enough identities to spend the whole budget: κ caps at 1.
        let k_many = StrategyKind::SybilPaced { identities: 255 }
            .indirect_kappa(policy, omega)
            .unwrap();
        assert!((k_many - 1.0).abs() < 1e-12);
        // Non-rate strategies have no κ to cross-check.
        assert!(StrategyKind::ScanThenStrike.indirect_kappa(policy, omega).is_none());
        assert!(StrategyKind::AdaptiveBackoff.indirect_kappa(policy, omega).is_none());
    }

    #[test]
    fn sybil_sustains_a_multiple_of_the_single_source_indirect_budget() {
        // The Sybil gap quantified: against the same tight policy, 6
        // coordinated identities push ~6× the indirect probes of one
        // paced source through the proxies — all of it unflagged.
        let suspicion = SuspicionPolicy { window: 32, threshold: 2 }; // safe 1/32
        let mut probes = [0u64; 2];
        for (slot, kind) in [
            StrategyKind::SybilPaced { identities: 6 },
            StrategyKind::PacedBelowThreshold,
        ]
        .into_iter()
        .enumerate()
        {
            let mut stack = s2_stack(12, suspicion, 3, 0xE1);
            let mut rng = StdRng::seed_from_u64(0x51B);
            let mut strategy =
                kind.build(&mut stack, "mallory", Scheme::Aslr, 8.0, suspicion, &mut rng);
            for _ in 0..160 {
                strategy.step(&mut stack, &mut rng);
                if stack.end_step() != CompromiseState::Intact {
                    break;
                }
            }
            assert!(stack.suspects().is_empty(), "{} was flagged", kind.label());
            probes[slot] = strategy.report().server_probes;
        }
        let [sybil, paced] = probes;
        assert!(
            sybil >= 4 * paced.max(1),
            "6 identities must multiply the indirect budget: sybil {sybil} vs paced {paced}"
        );
    }
}
