//! Orchestrated attackers driving a full protocol stack.
//!
//! Both attackers embody the paper's attack model (§4.2): probes are
//! malicious requests broadcast to every reachable node of a tier, wrong
//! guesses crash serving children (observed via connection closures),
//! right guesses take the node. The harness calls `step` once per unit
//! time-step and [`DirectAttacker::on_rerandomized`] /
//! [`FortressAttacker::on_rerandomized`] whenever the defender's PO policy
//! invalidated everything the attacker knew.
//!
//! Attackers are generic over the stack's transport (`Stack<T: Transport>`):
//! the same probing loop drives the deterministic simulator in Monte-Carlo
//! trials and compiles unchanged against the kernel-socket backend.

use fortress_core::messages::ClientRequest;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::Stack;
use fortress_net::addr::Addr;
use fortress_net::transport::Transport;
use fortress_obf::scheme::Scheme;
use rand::Rng;

use crate::pacing::Pacer;
use crate::scan::{KeyScanner, ScanStrategy};

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

/// Attacker against the 1-tier classes (S0 / S1): probes servers directly.
#[derive(Debug)]
pub struct DirectAttacker {
    name: String,
    scheme: Scheme,
    scanner: KeyScanner,
    pacer: Pacer,
    next_seq: u64,
    report: AttackReport,
    // Reused across probes: same wire bytes, no per-probe allocations.
    req: ClientRequest,
}

impl DirectAttacker {
    /// Registers the attacker as a client of `stack` with unconstrained
    /// probe rate `omega`.
    pub fn new<T: Transport, R: Rng + ?Sized>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        rng: &mut R,
    ) -> DirectAttacker {
        stack.add_client(name);
        let scanner = KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng);
        DirectAttacker {
            name: name.to_owned(),
            scheme,
            scanner,
            pacer: Pacer::unconstrained(omega),
            next_seq: 0,
            report: AttackReport::default(),
            req: ClientRequest { seq: 0, client: name.to_owned(), op: Vec::new() },
        }
    }

    /// Run statistics so far.
    pub fn report(&self) -> AttackReport {
        self.report
    }

    /// Launches this step's probe budget: each probe is one guessed key
    /// broadcast (as a service request) to every server.
    pub fn step<T: Transport, R: Rng + ?Sized>(&mut self, stack: &mut Stack<T>, rng: &mut R) {
        let budget = self.pacer.probes_this_step();
        for _ in 0..budget {
            let Some(guess) = self.scanner.next_guess(rng) else {
                break; // space exhausted (SO target must be long dead)
            };
            self.next_seq += 1;
            self.req.seq = self.next_seq;
            self.req.op.clear();
            self.scheme.craft_exploit(guess).write_to(&mut self.req.op);
            stack.submit(&self.name, &self.req);
            self.report.server_probes += 1;
            stack.pump();
        }
        self.observe(stack);
    }

    /// Collects crash observations from the attacker's own connections.
    fn observe<T: Transport>(&mut self, stack: &mut Stack<T>) {
        self.report.closures_observed += stack.drain_client_closures(&self.name);
    }

    /// Discards stale knowledge after the target re-randomized.
    pub fn on_rerandomized<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.scanner.reset(rng);
    }
}

/// Attacker against the FORTRESS (S2) class.
///
/// Per step it launches, simultaneously (paper §4):
///
/// 1. **direct** probes at the proxy tier (one guessed value per probe,
///    broadcast to all proxies) at the unconstrained rate ω;
/// 2. **indirect** probes at the server tier through the proxies, paced
///    under the proxies' suspicion policy (rate κ·ω);
/// 3. **launch-pad** probes at the server tier from any compromised proxy
///    at the full rate ω (nothing logs there).
#[derive(Debug)]
pub struct FortressAttacker {
    name: String,
    scheme: Scheme,
    proxy_scanner: KeyScanner,
    server_scanner: KeyScanner,
    direct_pacer: Pacer,
    indirect_pacer: Pacer,
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

impl FortressAttacker {
    /// Registers the attacker; `suspicion` is the proxies' policy, which a
    /// competent attacker knows (Kerckhoffs) and paces against.
    pub fn new<T: Transport, R: Rng + ?Sized>(
        stack: &mut Stack<T>,
        name: &str,
        scheme: Scheme,
        omega: f64,
        suspicion: SuspicionPolicy,
        rng: &mut R,
    ) -> FortressAttacker {
        stack.add_client(name);
        let proxy_scanner = KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng);
        let server_scanner = KeyScanner::new(stack.key_space(), ScanStrategy::Permuted, rng);
        FortressAttacker {
            name: name.to_owned(),
            scheme,
            proxy_scanner,
            server_scanner,
            direct_pacer: Pacer::unconstrained(omega),
            indirect_pacer: Pacer::against(suspicion, omega),
            pad_pacer: Pacer::unconstrained(omega),
            next_seq: 0,
            report: AttackReport::default(),
            proxy_addrs: stack.proxy_addrs(),
            frame: Vec::new(),
            req: ClientRequest { seq: 0, client: name.to_owned(), op: Vec::new() },
        }
    }

    /// Run statistics so far.
    pub fn report(&self) -> AttackReport {
        self.report
    }

    /// The effective κ the proxy tier imposes on this attacker.
    pub fn effective_kappa(&self) -> f64 {
        self.indirect_pacer.kappa()
    }

    /// Launches one unit time-step of the three-pronged attack.
    pub fn step<T: Transport, R: Rng + ?Sized>(&mut self, stack: &mut Stack<T>, rng: &mut R) {
        // 1. Direct probes at proxies — one encode shared across the tier.
        for _ in 0..self.direct_pacer.probes_this_step() {
            if let Some(guess) = self.proxy_scanner.next_guess(rng) {
                self.frame.clear();
                self.scheme.craft_exploit(guess).write_to(&mut self.frame);
                stack.broadcast_frame(&self.name, &self.proxy_addrs, &self.frame);
                self.report.proxy_probes += 1;
                stack.pump();
            }
        }

        // 2. Indirect probes at servers, paced below the detection radar.
        for _ in 0..self.indirect_pacer.probes_this_step() {
            if let Some(guess) = self.server_scanner.next_guess(rng) {
                self.next_seq += 1;
                self.req.seq = self.next_seq;
                self.req.op.clear();
                self.scheme.craft_exploit(guess).write_to(&mut self.req.op);
                stack.submit(&self.name, &self.req);
                self.report.server_probes += 1;
                stack.pump();
            }
        }

        // 3. Launch pad: full-rate server probing from a held proxy.
        let pad = (0..self.proxy_addrs.len()).find(|i| stack.proxy_is_compromised(*i));
        if let Some(pad_index) = pad {
            for _ in 0..self.pad_pacer.probes_this_step() {
                if let Some(guess) = self.server_scanner.next_guess(rng) {
                    self.next_seq += 1;
                    self.req.seq = self.next_seq;
                    self.req.op.clear();
                    self.scheme.craft_exploit(guess).write_to(&mut self.req.op);
                    stack.submit_via_proxy(pad_index, &self.req);
                    self.report.pad_probes += 1;
                    stack.pump();
                }
            }
            // The attacker reads the held proxy's inbox for observations.
            self.report.closures_observed += stack.drain_proxy_closures(pad_index);
        }

        self.report.closures_observed += stack.drain_client_closures(&self.name);
    }

    /// Discards stale knowledge after the defender re-randomized.
    pub fn on_rerandomized<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.proxy_scanner.reset(rng);
        self.server_scanner.reset(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::{CompromiseState, StackConfig, SystemClass};
    use fortress_obf::schedule::ObfuscationPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn so_config(class: SystemClass, bits: u32, seed: u64) -> StackConfig {
        StackConfig {
            class,
            entropy_bits: bits,
            policy: ObfuscationPolicy::StartupOnly,
            seed,
            ..StackConfig::default()
        }
    }

    #[test]
    fn direct_attacker_breaks_small_s1_so_quickly() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut stack = Stack::new(so_config(SystemClass::S1Pb, 6, 1)).unwrap();
        let mut attacker = DirectAttacker::new(&mut stack, "mallory", Scheme::Aslr, 8.0, &mut rng);
        let mut steps = 0u64;
        let mut fell = false;
        while !fell && steps < 64 {
            attacker.step(&mut stack, &mut rng);
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
        let mut attacker = DirectAttacker::new(&mut stack, "mallory", Scheme::Aslr, 4.0, &mut rng);
        let mut steps = 0u64;
        let mut outcome = CompromiseState::Intact;
        while outcome == CompromiseState::Intact && steps < 64 {
            attacker.step(&mut stack, &mut rng);
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
            policy: ObfuscationPolicy::proactive_unit(),
            seed: 3,
            ..StackConfig::default()
        })
        .unwrap();
        let mut attacker = DirectAttacker::new(&mut stack, "mallory", Scheme::Aslr, 4.0, &mut rng);
        let horizon = 40;
        let mut fell_at = None;
        for step in 0..horizon {
            attacker.step(&mut stack, &mut rng);
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
            policy: ObfuscationPolicy::StartupOnly,
            suspicion,
            seed: 4,
            ..StackConfig::default()
        })
        .unwrap();
        let mut attacker =
            FortressAttacker::new(&mut stack, "mallory", Scheme::Aslr, 4.0, suspicion, &mut rng);
        assert!(attacker.effective_kappa() < 1.0, "pacing must bite");
        for _ in 0..60 {
            attacker.step(&mut stack, &mut rng);
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
            policy: ObfuscationPolicy::StartupOnly,
            suspicion,
            seed: 5,
            ..StackConfig::default()
        })
        .unwrap();
        let mut attacker =
            FortressAttacker::new(&mut stack, "mallory", Scheme::Aslr, 8.0, suspicion, &mut rng);
        let mut fell = false;
        for _ in 0..200 {
            attacker.step(&mut stack, &mut rng);
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
