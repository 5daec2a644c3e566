//! The one adversary engine driving a full protocol stack.
//!
//! The paper's attacker (§4.2) has four moves: **broadcast** a guessed
//! key raw at every proxy process, **throw** it at one proxy, **submit**
//! it as a service request (through the proxies on S2, where a wrong
//! guess is logged against the sender; straight at the servers on S0 and
//! S1), or **launch** it at the servers from a proxy it holds (nothing
//! logs there). Wrong guesses crash serving children (observed as
//! connection closures), right guesses take the node. An attacker
//! *posture* is nothing but a schedule over those moves, so there is one
//! [`Adversary`] type and every posture is a row of this table:
//!
//! | [`StrategyKind`] | direct phase (rate ω) | identities and their pacers | indirect schedule |
//! |---|---|---|---|
//! | `None` — 1-tier baseline | — (one key scanner, not two) | `name` at ω | steady |
//! | [`PacedBelowThreshold`](StrategyKind::PacedBelowThreshold) — the paper's §2.2/§4.2 baseline | broadcast | `name` at [`Pacer::against`] the policy | steady: never flagged |
//! | [`ScanThenStrike`](StrategyKind::ScanThenStrike) | proxy 0 alone, until a pad is held | `name`, silent | steady: the suspicion policy has nothing to log |
//! | [`Burst`](StrategyKind::Burst) | broadcast | `name`, silent | `threshold − 1` probes in one step, then a window of silence: pacing's long-run rate, the opposite short-run profile |
//! | [`AdaptiveBackoff`](StrategyKind::AdaptiveBackoff) | broadcast | `name` at ω; each flagged identity is burned for a fresh `name~k` at half the rate, floored at the safe rate | steady plus that back-off |
//! | [`SybilPaced`](StrategyKind::SybilPaced) | broadcast | `name`, silent; `name#j` for `j < k`, each at `min(safe rate, ω/k)` | steady: `k` slow sources sharing one scanner, none ever flagged |
//! | [`OutageStrike`](StrategyKind::OutageStrike) | broadcast | `name`, silent | the burst, fired only while a server machine is down |
//!
//! Every step has the same shape: **direct** → **indirect** → **launch
//! pad** (ω probes from the lowest-index held proxy) → **observe** (the
//! closures on every identity's connections and in the held proxy's
//! inbox). The harness calls [`Adversary::step`] once per unit time-step
//! and [`Adversary::on_rerandomized`] whenever the defender's PO policy
//! invalidated everything the attacker knew.
//!
//! The engine is generic over the stack's transport (`Stack<T:
//! Transport>`): the same probing loop drives the deterministic simulator
//! in Monte-Carlo trials, clean or under a fault plan, and compiles unchanged
//! against the kernel-socket backend.
//!
//! # Determinism contract
//!
//! An adversary is a pure function of `(stack, seed RNG stream)`: all
//! randomness flows through the `StdRng` handed to [`Adversary::new`] and
//! [`Adversary::on_rerandomized`] (each draws the key scans' walks;
//! [`Adversary::step`] draws nothing), so one trial
//! is reproducible from its trial seed alone, which is what lets the
//! sweeps in `fortress-sim` promise bit-identical cells at any thread
//! count. `tests/transcript.rs` pins every row of the table above, step
//! by step.

use fortress_core::messages::ClientRequest;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::Stack;
use fortress_net::addr::Addr;
use fortress_net::transport::Transport;
use fortress_obf::scheme::ExploitPayload;
use rand::rngs::StdRng;

use crate::campaign::StrategyKind;
use crate::pacing::Pacer;
use crate::scan::KeyScanner;

/// Statistics of an attack run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackReport {
    /// Probes launched at the server tier (direct or indirect).
    pub server_probes: u64,
    /// Probes launched at the proxy tier.
    pub proxy_probes: u64,
    /// Probes launched from compromised proxies (launch pad).
    pub pad_probes: u64,
    /// Connection closures the attacker observed.
    pub closures_observed: u64,
}

/// How the direct phase spends ω on the proxy tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direct {
    /// Each guess broadcast to every proxy.
    Broadcast,
    /// Each guess thrown at [`FOCUS`] alone, and only until a launch pad
    /// is held: one pad is all a strike needs, and focusing keeps the
    /// scan's cost independent of the fleet size.
    Focus,
    /// No proxy tier to probe (the 1-tier baseline).
    None,
}

/// The proxy [`Direct::Focus`] fires at.
const FOCUS: usize = 0;

/// What the indirect phase does beyond letting every identity spend its
/// own pacer.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    /// Nothing.
    Steady,
    /// A flagged identity is burned: it falls silent and a fresh one
    /// takes over at half its rate, never below `floor_rate` (where
    /// detection can no longer happen).
    Backoff { floor_rate: f64 },
    /// `size` probes from the first identity in one step, then `window`
    /// steps before the next; with `on_outage`, fired only while a server
    /// machine is down (externally observable: health pages, error
    /// rates). `size` is `threshold − 1` and an event aged exactly
    /// `window` steps is outside the half-open suspicion window, so the
    /// sender is never flagged.
    Burst { size: u64, window: u64, on_outage: bool, cooldown: u64 },
}

impl Schedule {
    /// Probes the burst gate releases this step (0 for the other
    /// schedules); advances the gate's clock by one step.
    fn burst(&mut self, server_down: impl FnOnce() -> bool) -> u64 {
        let Schedule::Burst { size, window, on_outage, cooldown } = self else {
            return 0;
        };
        let fire = *cooldown == 0 && (!*on_outage || server_down());
        if fire {
            *cooldown = *window;
        }
        *cooldown = cooldown.saturating_sub(1);
        if fire { *size } else { 0 }
    }
}

/// One registered client identity and its indirect-probe allowance.
/// Pacers are stateful (fractional credit), so each identity owns its
/// own; an identity that never submits has a zero-rate pacer.
#[derive(Debug)]
struct Identity {
    name: String,
    pacer: Pacer,
}

/// The attacker: one posture (see the [module table](self)) driving one
/// [`Stack`] one unit time-step at a time.
#[derive(Debug)]
pub struct Adversary {
    direct: Direct,
    schedule: Schedule,
    /// `identities[0]` is the name the adversary was built under: the
    /// sender of every raw proxy probe and the client named in launch-pad
    /// requests. The last identity is the one [`Schedule::Backoff`]
    /// rotates. Burned identities stay listed: their registrations (and
    /// network queues) outlive the rotation, so observation must keep
    /// draining them or closure counts silently undercount.
    identities: Vec<Identity>,
    /// `None` exactly when `direct` is [`Direct::None`]: the 1-tier
    /// baseline draws (and on re-randomization redraws) one scanner.
    proxy_scanner: Option<KeyScanner>,
    server_scanner: KeyScanner,
    direct_pacer: Pacer,
    pad_pacer: Pacer,
    next_seq: u64,
    report: AttackReport,
    // Proxy addresses are fixed for the stack's lifetime (crash/restart
    // keeps the address): fetched once instead of cloned per step.
    proxy_addrs: Vec<Addr>,
    // Reused encode buffers: same wire bytes, no per-probe allocations.
    frame: Vec<u8>,
    req: ClientRequest,
}

impl Adversary {
    /// Registers the adversary (and whatever further identities its
    /// posture needs) as clients of `stack`. `kind` is the posture —
    /// `None` is the paper's 1-tier baseline, probing the servers
    /// themselves; `omega` its unconstrained probe rate; `suspicion` the
    /// proxies' policy, which a competent attacker knows (Kerckhoffs) and
    /// shapes its schedule around.
    pub fn new<T: Transport>(
        stack: &mut Stack<T>,
        name: &str,
        omega: f64,
        suspicion: SuspicionPolicy,
        kind: Option<StrategyKind>,
        rng: &mut StdRng,
    ) -> Adversary {
        use StrategyKind as K;
        let mut identities = Vec::new();
        let mut register = |name: String, pacer| {
            stack.add_client(&name);
            identities.push(Identity { name, pacer });
        };
        register(
            name.to_owned(),
            match kind {
                None | Some(K::AdaptiveBackoff) => Pacer::unconstrained(omega),
                Some(K::PacedBelowThreshold) => Pacer::against(suspicion, omega),
                Some(_) => Pacer::silent(),
            },
        );
        if let Some(K::SybilPaced { identities: k }) = kind {
            let rate = StrategyKind::sybil_rate_per_identity(suspicion, omega, k);
            for j in 0..k.max(1) {
                register(format!("{name}#{j}"), Pacer::with_rate(rate, omega));
            }
        }
        let burst = |on_outage| Schedule::Burst {
            size: u64::from(suspicion.threshold.saturating_sub(1)),
            window: suspicion.window.max(1),
            on_outage,
            cooldown: 0,
        };
        let direct = match kind {
            None => Direct::None,
            Some(K::ScanThenStrike) => Direct::Focus,
            Some(_) => Direct::Broadcast,
        };
        // RNG draw order: the proxy scanner (if any), then the server's.
        let mut scanner = || KeyScanner::new(stack.key_space(), rng);
        Adversary {
            direct,
            schedule: match kind {
                Some(K::AdaptiveBackoff) => Schedule::Backoff { floor_rate: suspicion.max_safe_rate() },
                Some(K::Burst) => burst(false),
                Some(K::OutageStrike) => burst(true),
                _ => Schedule::Steady,
            },
            proxy_scanner: (direct != Direct::None).then(&mut scanner),
            server_scanner: scanner(),
            direct_pacer: Pacer::unconstrained(omega),
            pad_pacer: Pacer::unconstrained(omega),
            next_seq: 0,
            report: AttackReport::default(),
            proxy_addrs: stack.proxy_addrs(),
            frame: Vec::new(),
            req: ClientRequest { seq: 0, client: name.to_owned(), op: Vec::new() },
            identities,
        }
    }

    /// Run statistics so far.
    pub fn report(&self) -> AttackReport {
        self.report
    }

    /// Discards stale key knowledge after the defender re-randomized.
    pub fn on_rerandomized(&mut self, rng: &mut StdRng) {
        if let Some(scanner) = &mut self.proxy_scanner {
            scanner.reset(rng);
        }
        self.server_scanner.reset(rng);
    }

    /// Launches one unit time-step of the attack.
    pub fn step<T: Transport>(&mut self, stack: &mut Stack<T>) {
        // 1. Direct: raw guesses at the proxy processes, at the full rate.
        let mut pad = self.held_proxy(stack);
        match self.direct {
            Direct::Broadcast => {
                for _ in 0..self.direct_pacer.probes_this_step() {
                    self.broadcast(stack);
                }
            }
            Direct::Focus if pad.is_none() => {
                for _ in 0..self.direct_pacer.probes_this_step() {
                    if !self.throw(stack, FOCUS) {
                        break; // pad acquired: strike next step
                    }
                }
            }
            Direct::Focus | Direct::None => {}
        }

        // 2. Indirect: guesses submitted as service requests, each
        // identity under its own pacer, then whatever the burst gate
        // releases.
        for identity in 0..self.identities.len() {
            for _ in 0..self.identities[identity].pacer.probes_this_step() {
                self.submit(stack, identity);
            }
        }
        for _ in 0..self.schedule.burst(|| stack.any_server_down()) {
            self.submit(stack, 0);
        }

        // 3. Launch pad: full-rate server probing from a held proxy. The
        // broadcasting postures strike the very step they capture one;
        // the focused scan chose its phase at step start.
        if self.direct != Direct::Focus {
            pad = self.held_proxy(stack);
        }
        if let Some(pad) = pad {
            for _ in 0..self.pad_pacer.probes_this_step() {
                self.launch(stack, pad);
            }
        }

        // 4. Observe: crashes show as closures on the attacker's own
        // connections and in the held proxy's leaked inbox.
        for identity in &self.identities {
            self.report.closures_observed += stack.drain_client_closures(&identity.name);
        }
        if let Some(pad) = pad {
            self.report.closures_observed += stack.drain_proxy_closures(pad);
        }
        // Detection feedback: the proxy tier publishes nothing, but a
        // flagged source notices its service stops — modeled by reading
        // the suspects list the stack exposes to the harness.
        if let Schedule::Backoff { floor_rate } = self.schedule {
            let current = self.identities.last_mut().expect("built with one identity");
            if stack.suspects().contains(&current.name) {
                let pacer = current.pacer.halved(floor_rate);
                current.pacer = Pacer::silent();
                let fresh = format!("{}~{}", self.identities[0].name, self.identities.len());
                stack.add_client(&fresh);
                self.identities.push(Identity { name: fresh, pacer });
            }
        }
    }

    /// The lowest-index proxy the attacker currently holds, if any.
    fn held_proxy<T: Transport>(&self, stack: &Stack<T>) -> Option<usize> {
        (0..self.proxy_addrs.len()).find(|i| stack.proxy_is_compromised(*i))
    }

    /// Encodes the proxy scanner's next guess into `frame`; `false` once
    /// the key space is exhausted.
    fn next_frame(&mut self) -> bool {
        let Some(guess) = self.proxy_scanner.as_mut().and_then(KeyScanner::next_guess) else {
            return false;
        };
        self.frame.clear();
        ExploitPayload::aimed_at(guess).write_to(&mut self.frame);
        self.report.proxy_probes += 1;
        true
    }

    /// Rebuilds the reused request in place around the server scanner's
    /// next guess, with `identity` as the client; `false` once the key
    /// space is exhausted.
    fn next_request(&mut self, identity: usize) -> bool {
        let Some(guess) = self.server_scanner.next_guess() else {
            return false;
        };
        self.next_seq += 1;
        self.req.seq = self.next_seq;
        self.req.client.clone_from(&self.identities[identity].name);
        self.req.op.clear();
        ExploitPayload::aimed_at(guess).write_to(&mut self.req.op);
        true
    }

    /// Move 1: one guessed key raw at every proxy process — one encode,
    /// one shared buffer across the whole tier.
    fn broadcast<T: Transport>(&mut self, stack: &mut Stack<T>) {
        if self.next_frame() {
            stack.broadcast_frame(&self.identities[0].name, &self.proxy_addrs, &self.frame);
            stack.pump();
        }
    }

    /// Move 2: one guessed key raw at proxy `target` alone. Returns
    /// whether that proxy is still worth probing — `false` once it is
    /// held, or against a stack without a proxy tier (where the posture
    /// degrades to doing nothing rather than panicking inside a trial).
    fn throw<T: Transport>(&mut self, stack: &mut Stack<T>, target: usize) -> bool {
        let Some(&addr) = self.proxy_addrs.get(target) else {
            return false;
        };
        if self.next_frame() {
            stack.send_frame(&self.identities[0].name, addr, &self.frame);
            stack.pump();
        }
        !stack.proxy_is_compromised(target)
    }

    /// Move 3: one guessed key submitted as a service request under
    /// `identity` — logged by the proxies if wrong, the suspicion-visible
    /// move.
    fn submit<T: Transport>(&mut self, stack: &mut Stack<T>, identity: usize) {
        if self.next_request(identity) {
            stack.submit(&self.identities[identity].name, &self.req);
            self.report.server_probes += 1;
            stack.pump();
        }
    }

    /// Move 4: one guessed key launched at the servers from held proxy
    /// `pad`.
    fn launch<T: Transport>(&mut self, stack: &mut Stack<T>, pad: usize) {
        if self.next_request(0) {
            stack.submit_via_proxy(pad, &self.req);
            self.report.pad_probes += 1;
            stack.pump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::{CompromiseState, StackConfig, SystemClass};
    use fortress_obf::schedule::Policy;
    use rand::SeedableRng;

    /// The 1-tier baseline: servers probed directly at ω.
    fn direct(stack: &mut Stack, omega: f64, rng: &mut StdRng) -> Adversary {
        Adversary::new(stack, "mallory", omega, SuspicionPolicy::default(), None, rng)
    }

    /// The paper's three-pronged S2 attacker.
    fn paced(stack: &mut Stack, omega: f64, suspicion: SuspicionPolicy, rng: &mut StdRng) -> Adversary {
        let kind = Some(StrategyKind::PacedBelowThreshold);
        Adversary::new(stack, "mallory", omega, suspicion, kind, rng)
    }

    fn so_config(class: SystemClass, bits: u32, seed: u64) -> StackConfig {
        StackConfig {
            class,
            entropy_bits: bits,
            policy: Policy::StartupOnly,
            seed,
            ..StackConfig::default()
        }
    }

    #[test]
    fn direct_attacker_breaks_small_s1_so_quickly() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut stack = Stack::new(so_config(SystemClass::S1Pb, 6, 1)).unwrap();
        let mut attacker = direct(&mut stack, 8.0, &mut rng);
        let mut steps = 0u64;
        let mut fell = false;
        while !fell && steps < 64 {
            attacker.step(&mut stack);
            fell = stack.end_step() != CompromiseState::Intact;
            steps += 1;
        }
        assert!(fell, "64-key space, 8 probes/step: must fall");
        // Without replacement: at most χ/ω = 8 steps.
        assert!(steps <= 8, "took {steps} steps");
        let report = attacker.report();
        assert!(report.closures_observed > 0, "crashes must be observable");
        assert!(report.server_probes >= steps);
    }

    #[test]
    fn direct_attacker_on_s0_needs_two_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut stack = Stack::new(so_config(SystemClass::S0Smr, 6, 2)).unwrap();
        let mut attacker = direct(&mut stack, 4.0, &mut rng);
        let mut steps = 0u64;
        let mut outcome = CompromiseState::Intact;
        while outcome == CompromiseState::Intact && steps < 64 {
            attacker.step(&mut stack);
            outcome = stack.end_step();
            steps += 1;
        }
        assert!(matches!(
            outcome,
            CompromiseState::ServerCompromised { count } if count >= 2
        ));
    }

    #[test]
    fn po_rerandomization_defeats_exhaustive_progress() {
        // Under PO with a 10-bit space and 4 probes/step, each step only
        // covers ~0.4% of the space; expect survival for many steps where
        // SO would be dead by step 256.
        let mut rng = StdRng::seed_from_u64(3);
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            entropy_bits: 10,
            policy: Policy::Proactive,
            seed: 3,
            ..StackConfig::default()
        })
        .unwrap();
        let mut attacker = direct(&mut stack, 4.0, &mut rng);
        let horizon = 40;
        let mut fell_at = None;
        for step in 0..horizon {
            attacker.step(&mut stack);
            let state = stack.end_step();
            if state != CompromiseState::Intact {
                fell_at = Some(step);
                break;
            }
            attacker.on_rerandomized(&mut rng);
        }
        // Expected lifetime is 1/(4/1024) = 256 steps; a fall within 40
        // steps has probability ~14%, and seed 3 survives.
        assert_eq!(fell_at, None, "PO target fell unexpectedly early");
    }

    #[test]
    fn fortress_attacker_is_paced_and_never_flagged() {
        let mut rng = StdRng::seed_from_u64(4);
        let suspicion = SuspicionPolicy {
            window: 16,
            threshold: 3,
        };
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S2Fortress,
            entropy_bits: 8,
            policy: Policy::StartupOnly,
            suspicion,
            seed: 4,
            ..StackConfig::default()
        })
        .unwrap();
        let mut attacker =
            paced(&mut stack, 4.0, suspicion, &mut rng);
        let kappa = StrategyKind::PacedBelowThreshold.indirect_kappa(suspicion, 4.0);
        assert!(kappa.unwrap() < 1.0, "pacing must bite");
        for _ in 0..60 {
            attacker.step(&mut stack);
            if stack.end_step() != CompromiseState::Intact {
                break;
            }
        }
        assert!(
            !stack.suspects().contains(&"mallory".to_string()),
            "a paced attacker must never be flagged"
        );
        let report = attacker.report();
        assert!(report.proxy_probes > 0);
    }

    #[test]
    fn fortress_attacker_eventually_breaks_so_system() {
        let mut rng = StdRng::seed_from_u64(5);
        let suspicion = SuspicionPolicy {
            window: 4,
            threshold: 3,
        };
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S2Fortress,
            entropy_bits: 6,
            policy: Policy::StartupOnly,
            suspicion,
            seed: 5,
            ..StackConfig::default()
        })
        .unwrap();
        let mut attacker =
            paced(&mut stack, 8.0, suspicion, &mut rng);
        let mut fell = false;
        for _ in 0..200 {
            attacker.step(&mut stack);
            let state = stack.end_step();
            if state != CompromiseState::Intact {
                fell = true;
                break;
            }
        }
        assert!(fell, "64-key SO FORTRESS must fall within 200 steps");
        let report = attacker.report();
        assert!(
            report.pad_probes > 0 || report.server_probes > 0,
            "server tier must have been attacked: {report:?}"
        );
    }
}
