//! The crash-schedule axis: declarative machine-crash schedules injected
//! into protocol-level trials.
//!
//! The survivability literature (Ellison et al., *Survivable Network
//! System Analysis*; Cusick, *Exploring System Resiliency*) treats
//! recovery-under-attack — not just intrusion resistance — as the
//! defining resilience metric, and the paper's PB tier exists precisely
//! to survive machine outages. [`OutageSpec`] makes crash injection a
//! first-class sweep axis: a `Copy` schedule of crash/restart events a
//! trial's drive loop applies through [`Stack::take_down_server`] /
//! [`Stack::bring_up_server`]. Whichever tier a crash hits, it is the
//! same event — a server goes down at a scheduled step and comes back at
//! a due step — so one axis carries both stories: the PB schedules
//! (periodic, Poisson, strike-then-crash) recover through failover on S1
//! and S2, and [`OutageSpec::Smr`] recovers through the VSR view change
//! and divergence-priced state transfer on S0. Every random choice is
//! drawn from a dedicated RNG stream derived from the trial seed, so
//! schedule-bearing cells keep the campaign determinism contract
//! (bit-identical at any thread count, invariant under sweep reordering).
//!
//! The availability *measurements* the injected crashes provoke
//! (downtime fraction, failover count and latency, requests lost, and
//! for S0 view changes and transfer units) are collected by
//! `fortress_core`'s [`Availability`](fortress_core::system::Availability)
//! counters and merged Welford-style through the runner — see
//! [`crate::stats::AvailStats`].

use fortress_core::client::ProbeClient;
use fortress_core::system::{Stack, SystemClass};
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::fold;

/// A declarative schedule of machine crashes for one scenario cell.
/// `Copy + PartialEq` so it can sit in a sweep coordinate; its
/// parameters fold into the cell's content-derived seed (two cells
/// differing in any schedule parameter draw decorrelated trial streams).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OutageSpec {
    /// No injected crashes — the pre-axis behavior, and the
    /// seed-compatible default (a `None` cell folds nothing extra into
    /// its content seed, so legacy cells keep their pinned bits).
    None,
    /// Deterministic periodic maintenance-style outages: every `period`
    /// steps the next server in round-robin order goes down for
    /// `downtime` steps.
    Periodic {
        /// Steps between consecutive crash injections (≥ 1).
        period: u64,
        /// Steps a downed machine stays down (≥ 1).
        downtime: u64,
    },
    /// Memoryless random outages, Poisson-seeded from the cell seed:
    /// each step, each server independently goes down with probability
    /// `rate`; repairs complete after `downtime` steps.
    Random {
        /// Per-server per-step crash probability in `[0, 1]`.
        rate: f64,
        /// Steps a downed machine stays down (≥ 1).
        downtime: u64,
    },
    /// Adversary-correlated "strike-then-crash": the first step the
    /// adversary holds a compromised proxy (its launch pad) while the
    /// whole server tier is up, the serving primary's machine goes down
    /// for `downtime` steps — outage pressure timed exactly against
    /// attack pressure, the worst case the survivability methodology
    /// asks for. Re-arms after each repair while a pad is still held.
    StrikeThenCrash {
        /// Steps the struck machine stays down (≥ 1).
        downtime: u64,
    },
    /// Staggered SMR-tier (S0) replica crashes whose recoveries are
    /// *priced*: every crash is a protocol event (view-change timers,
    /// the VSR StartViewChange / DoViewChange / StartView exchange, a
    /// log merge at the new leader) and every rejoin pays state-transfer
    /// units proportional to the log divergence accumulated while down,
    /// drained through a bounded per-step bandwidth budget.
    Smr {
        /// How many replicas crash over the trial (crash `k` is due at
        /// `crash_at + k * stagger`, aimed at the replica currently
        /// leading so every crash forces a view change).
        crashes: u32,
        /// 1-based step of the first crash.
        crash_at: u64,
        /// Steps between consecutive crashes (≥ 1 when `crashes` > 1).
        stagger: u64,
        /// Steps a crashed machine stays down before its bring-up is
        /// *scheduled* (the actual rejoin then queues for transfer).
        downtime: u64,
        /// State-transfer bandwidth: divergence units the whole tier
        /// can pay per step, shared FIFO across all rejoiners (≥ 1).
        bandwidth: u64,
        /// Recovery storm: when `true`, every bring-up is deferred to
        /// the *last* crash's repair time so all rejoiners arrive
        /// together and contend head-of-line for the bandwidth budget;
        /// when `false`, each machine rejoins `downtime` steps after
        /// its own crash.
        storm: bool,
    },
}

impl OutageSpec {
    /// Whether this is the no-crash schedule.
    pub fn is_none(&self) -> bool {
        matches!(self, OutageSpec::None)
    }

    /// Whether a sweep crosses `class` with this schedule: the SMR
    /// schedule reaches S0 only, the PB schedules S1 and S2 only, and
    /// `None` every class.
    pub(crate) fn applies_to(&self, class: SystemClass) -> bool {
        match self {
            OutageSpec::None => true,
            OutageSpec::Smr { .. } => class == SystemClass::S0Smr,
            _ => class != SystemClass::S0Smr,
        }
    }

    /// The key of this schedule's cell-label suffix: `repair` for the
    /// SMR schedule, `out` for the PB ones.
    pub(crate) fn key(&self) -> &'static str {
        match self {
            OutageSpec::Smr { .. } => "repair",
            _ => "out",
        }
    }

    /// Short label for cell names and reports.
    pub fn label(&self) -> String {
        match *self {
            OutageSpec::None => "none".to_string(),
            OutageSpec::Periodic { period, downtime } => {
                format!("periodic:{period}/{downtime}")
            }
            OutageSpec::Random { rate, downtime } => format!("poisson:{rate}/{downtime}"),
            OutageSpec::StrikeThenCrash { downtime } => format!("strike:{downtime}"),
            OutageSpec::Smr { crashes, crash_at, stagger, downtime, bandwidth, storm } => {
                let kind = if storm { "storm" } else { "stag" };
                format!("smr-{kind}:{crashes}@{crash_at}+{stagger}/{downtime}bw{bandwidth}")
            }
        }
    }

    /// Folds the schedule into a content seed. [`OutageSpec::None`]
    /// deliberately folds **nothing**, preserving every pre-axis cell
    /// seed bit-for-bit (the legacy campaign golden file pins them).
    pub(crate) fn fold_into(&self, seed: u64) -> u64 {
        match *self {
            OutageSpec::None => seed,
            OutageSpec::Periodic { period, downtime } => {
                fold(fold(fold(seed, 0x0A17_0001), period), downtime)
            }
            OutageSpec::Random { rate, downtime } => {
                fold(fold(fold(seed, 0x0A17_0002), rate.to_bits()), downtime)
            }
            OutageSpec::StrikeThenCrash { downtime } => {
                fold(fold(seed, 0x0A17_0003), downtime)
            }
            OutageSpec::Smr { crashes, crash_at, stagger, downtime, bandwidth, storm } => {
                let seed = fold(fold(seed, 0x4E9A_1201), storm as u64);
                let seed = fold(fold(seed, crashes as u64), crash_at);
                fold(fold(fold(seed, stagger), downtime), bandwidth)
            }
        }
    }

    /// Closed-form steady-state downtime fraction this schedule alone
    /// (no adversary) is expected to impose on a PB tier with the given
    /// failover timeout: an outage hitting the serving primary leaves
    /// the tier down for about `min(downtime, failover_timeout)` steps.
    ///
    /// * **Periodic** injections *chase the primary*: striking the
    ///   primary forces a failover that advances the primary to the
    ///   next index — exactly the round-robin's next target — so once
    ///   aligned, essentially every injection opens a failover window
    ///   (the classic rolling-restart-chases-the-leader ops
    ///   phenomenon). Hence `min(d, ft) / period`, an upper-end
    ///   estimate, with no 1/ns discount.
    /// * **Random** outages hit the primary at the per-server rate, so
    ///   the fraction is `rate × min(d, ft)` regardless of tier width.
    /// * `None` for schedules without a steady rate (strike-then-crash
    ///   is paced by the adversary, the SMR schedule is a finite burst
    ///   on a tier without a PB failover).
    ///
    /// This is what the scenario layer's cross-check reads the
    /// availability prediction from — a shape check (right order,
    /// right direction), not a calibration.
    pub fn expected_downtime_fraction(&self, failover_timeout: u64) -> Option<f64> {
        match *self {
            OutageSpec::None => Some(0.0),
            OutageSpec::Periodic { period, downtime } => {
                let window = downtime.min(failover_timeout) as f64;
                Some((window / period.max(1) as f64).min(1.0))
            }
            OutageSpec::Random { rate, downtime } => {
                let window = downtime.min(failover_timeout) as f64;
                Some((rate.clamp(0.0, 1.0) * window).min(1.0))
            }
            OutageSpec::StrikeThenCrash { .. } | OutageSpec::Smr { .. } => None,
        }
    }
}

/// Salt of the outage driver's RNG stream under the trial seed — a
/// distinct stream from the stack's and the adversary's, so adding the
/// crash-schedule axis perturbs neither.
const OUTAGE_STREAM: u64 = 0x007A6_E5EED;

/// Name of the workload client an [`OutageSpec::Smr`] schedule
/// registers on the stack.
const REPAIR_CLIENT: &str = "repair";

/// Applies an [`OutageSpec`] to a [`Stack`] one step at a time. One
/// driver per stack; all randomness comes from its own `StdRng` seeded
/// from the stack's seed, so a trial remains a pure function of its seed.
///
/// The [`OutageSpec::Smr`] arm is deliberately **RNG-free**: crash
/// targets come from [`Stack::smr_leader_hint`] (the view the live
/// replicas agree on names the leader), crash and bring-up times are
/// arithmetic on the spec, and the benign one-request-per-step workload
/// it submits is fixed. That workload is not optional garnish: the SMR
/// engines' view-change timers are *request-driven* (a replica only
/// suspects a silent leader while it holds an unexecuted request), so
/// without a trickle of traffic a crashed leader would never be
/// detected. It also advances the committed log, which is exactly what
/// prices the rejoiners' divergence.
#[derive(Debug)]
pub struct OutageDriver {
    spec: OutageSpec,
    /// RNG for [`OutageSpec::Random`]; `None` otherwise (deterministic
    /// schedules must not consume a stream).
    rng: Option<StdRng>,
    /// `(server index, step at which it comes back up)`.
    down_until: Vec<(usize, u64)>,
    /// Round-robin cursor for [`OutageSpec::Periodic`].
    next_target: usize,
    /// The [`OutageSpec::Smr`] workload client; registered on the first
    /// `before_step` against an S0 stack.
    probe: Option<ProbeClient>,
}

impl OutageDriver {
    /// A driver for `spec` under `trial_seed`.
    pub fn new(spec: OutageSpec, trial_seed: u64) -> OutageDriver {
        let rng = matches!(spec, OutageSpec::Random { .. })
            .then(|| StdRng::seed_from_u64(fold(trial_seed, OUTAGE_STREAM)));
        OutageDriver {
            spec,
            rng,
            down_until: Vec::new(),
            next_target: 0,
            probe: None,
        }
    }

    /// Applies the schedule at the start of 1-based `step`: first brings
    /// back machines whose repair is due, then injects whatever the
    /// schedule prescribes. The SMR schedule then runs its one-request
    /// workload, and is a no-op on a non-S0 stack.
    pub fn before_step<T: Transport>(&mut self, stack: &mut Stack<T>, step: u64) {
        if self.spec.is_none() {
            return;
        }
        // Repairs first: a machine downed for `d` steps at step `t` is
        // back before step `t + d` runs (an SMR rejoiner enters the
        // transfer queue this step and pays its divergence from there).
        bring_up_due(&mut self.down_until, stack, step);
        let ns = stack.server_count();
        match self.spec {
            OutageSpec::None => {}
            OutageSpec::Periodic { period, downtime } => {
                if step.is_multiple_of(period.max(1)) {
                    let target = self.next_target % ns;
                    self.next_target += 1;
                    self.take_down(stack, target, step + downtime.max(1));
                }
            }
            OutageSpec::Random { rate, downtime } => {
                // One draw per server per step regardless of its state,
                // so the stream position never depends on prior repairs.
                // (The RNG is taken out of `self` for the loop so
                // `take_down` can borrow the driver.)
                let mut rng = self.rng.take().expect("Random schedules carry an RNG");
                for server in 0..ns {
                    if rng.gen::<f64>() < rate {
                        self.take_down(stack, server, step + downtime.max(1));
                    }
                }
                self.rng = Some(rng);
            }
            OutageSpec::StrikeThenCrash { downtime } => {
                let pad_held =
                    (0..stack.proxy_count()).any(|i| stack.proxy_is_compromised(i));
                if pad_held && !stack.any_server_down() {
                    // Strike the machine currently serving — after each
                    // repair and failover that is the *new* primary, so
                    // a held pad keeps the outage pressure on whoever
                    // serves, not forever on server 0. Fallback to the
                    // lowest up machine when nobody serves (view still
                    // settling).
                    let target = stack
                        .pb_primary_index()
                        .or_else(|| (0..ns).find(|&i| !stack.server_is_down(i)))
                        .unwrap_or(0);
                    self.take_down(stack, target, step + downtime.max(1));
                }
            }
            OutageSpec::Smr { crashes, crash_at, stagger, downtime, bandwidth, storm } => {
                if stack.class() != SystemClass::S0Smr {
                    return;
                }
                if self.probe.is_none() {
                    // First call: arm the repair economics (bounded
                    // transfer bandwidth) and register the workload client.
                    stack.enable_smr_repair(bandwidth);
                    self.probe = Some(ProbeClient::attach(stack, REPAIR_CLIENT));
                }
                // Crash k is due at crash_at + k * stagger, aimed at
                // whoever currently leads so each crash forces a view
                // change. A due crash with no eligible replica (every one
                // down or catching up) is skipped on its own; the later
                // ones still fire on their steps.
                let stagger = stagger.max(1);
                let due = step
                    .checked_sub(crash_at)
                    .is_some_and(|t| t % stagger == 0 && t / stagger < u64::from(crashes));
                if due {
                    let eligible =
                        |i| !stack.server_is_down(i) && !stack.server_is_catching_up(i);
                    let hint = stack.smr_leader_hint();
                    let target = if eligible(hint) {
                        Some(hint)
                    } else {
                        (0..ns).find(|&i| eligible(i))
                    };
                    if let Some(target) = target {
                        let up_at = if storm {
                            // Correlated bring-ups: everyone rejoins when
                            // the *last* crash's repair lands, so the whole
                            // cohort contends for the bandwidth budget at
                            // once.
                            crash_at + u64::from(crashes.saturating_sub(1)) * stagger + downtime
                        } else {
                            step + downtime.max(1)
                        };
                        self.take_down(stack, target, up_at);
                    }
                }
                // The benign workload: drain yesterday's replies, submit
                // one request, pump. Keeps the view-change timers armed
                // and the committed log moving.
                let probe = self.probe.as_mut().expect("armed above");
                for ev in stack.drain_client(REPAIR_CLIENT) {
                    if let Some(payload) = ev.payload() {
                        probe.settles(payload);
                    }
                }
                let req = probe.request(b"GET repair-probe");
                stack.submit(REPAIR_CLIENT, &req);
                stack.pump();
            }
        }
    }

    /// Takes `server` down until `up_at`, unless it is already down.
    fn take_down<T: Transport>(&mut self, stack: &mut Stack<T>, server: usize, up_at: u64) {
        if stack.server_is_down(server) {
            return;
        }
        stack.take_down_server(server);
        self.down_until.push((server, up_at));
    }
}

/// Brings back up every `(server, due step)` entry of `down` that is due
/// at `step`, removing it from the list.
fn bring_up_due<T: Transport>(down: &mut Vec<(usize, u64)>, stack: &mut Stack<T>, step: u64) {
    let mut i = 0;
    while i < down.len() {
        if step >= down[i].1 {
            let (server, _) = down.swap_remove(i);
            stack.bring_up_server(server);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::StackConfig;
    use fortress_obf::schedule::Policy;

    fn s1_stack(seed: u64) -> Stack {
        Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            policy: Policy::StartupOnly,
            seed,
            ..StackConfig::default()
        })
        .unwrap()
    }

    fn s0_stack(seed: u64) -> Stack {
        Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            policy: Policy::StartupOnly,
            seed,
            ..StackConfig::default()
        })
        .unwrap()
    }

    /// An SMR schedule with the repair slice's timing.
    fn smr(crashes: u32, bandwidth: u64, storm: bool) -> OutageSpec {
        OutageSpec::Smr { crashes, crash_at: 40, stagger: 60, downtime: 30, bandwidth, storm }
    }

    #[test]
    fn periodic_schedule_cycles_targets_and_repairs() {
        let mut stack = s1_stack(3);
        let mut driver = OutageDriver::new(
            OutageSpec::Periodic {
                period: 10,
                downtime: 4,
            },
            7,
        );
        let mut downed_steps = 0u64;
        for step in 1..=40 {
            driver.before_step(&mut stack, step);
            if stack.any_server_down() {
                downed_steps += 1;
            }
            stack.end_step();
        }
        let avail = stack.availability();
        assert_eq!(avail.outages, 4, "steps 10, 20, 30, 40 inject");
        assert_eq!(downed_steps, 3 * 4 + 1, "4 downtime steps per outage");
        // Round-robin across the 3 servers: the first three outages hit
        // distinct machines.
        assert!(avail.steps == 40);
    }

    #[test]
    fn random_schedule_is_a_pure_function_of_the_seed() {
        let run = |seed: u64| {
            let mut stack = s1_stack(11);
            let mut driver = OutageDriver::new(
                OutageSpec::Random {
                    rate: 0.08,
                    downtime: 3,
                },
                seed,
            );
            let mut pattern = Vec::new();
            for step in 1..=60 {
                driver.before_step(&mut stack, step);
                pattern.push(stack.any_server_down());
                stack.end_step();
            }
            (pattern, stack.availability())
        };
        let (a, avail_a) = run(5);
        let (b, avail_b) = run(5);
        assert_eq!(a, b, "same trial seed, same outage pattern");
        assert_eq!(avail_a, avail_b);
        let (c, _) = run(6);
        assert_ne!(a, c, "different trial seeds decorrelate the schedule");
    }

    #[test]
    fn none_schedule_touches_nothing() {
        let mut stack = s1_stack(1);
        let mut driver = OutageDriver::new(OutageSpec::None, 9);
        for step in 1..=20 {
            driver.before_step(&mut stack, step);
            stack.end_step();
        }
        let avail = stack.availability();
        assert_eq!(avail.outages, 0);
        assert_eq!(avail.down_steps, 0);
        assert_eq!(avail.lost_requests, 0);
    }

    #[test]
    fn expected_downtime_closed_forms() {
        let periodic = OutageSpec::Periodic {
            period: 50,
            downtime: 10,
        };
        // Injections chase the primary (round-robin co-rotates with the
        // view rotation), so every period opens min(10, 20) down steps.
        let f = periodic.expected_downtime_fraction(20).unwrap();
        assert!((f - 10.0 / 50.0).abs() < 1e-12);
        let random = OutageSpec::Random {
            rate: 0.01,
            downtime: 40,
        };
        // rate * min(40, 20)
        let f = random.expected_downtime_fraction(20).unwrap();
        assert!((f - 0.2).abs() < 1e-12);
        assert_eq!(OutageSpec::None.expected_downtime_fraction(20), Some(0.0));
        assert!(OutageSpec::StrikeThenCrash { downtime: 5 }
            .expected_downtime_fraction(20)
            .is_none());
    }

    #[test]
    fn labels_and_seeds_distinguish_schedules() {
        let specs = [
            OutageSpec::None,
            OutageSpec::Periodic { period: 20, downtime: 5 },
            OutageSpec::Periodic { period: 20, downtime: 6 },
            OutageSpec::Random { rate: 0.01, downtime: 5 },
            OutageSpec::StrikeThenCrash { downtime: 5 },
            smr(2, 1, false),
            smr(2, 1, true),
            smr(1, 1, false),
            smr(2, 4, true),
        ];
        // One set over every variant: no PB schedule's label or fold
        // collides with an SMR one's either.
        let mut labels = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for spec in specs {
            assert!(labels.insert(spec.label()), "label collision at {spec:?}");
            assert!(
                seeds.insert(spec.fold_into(0xFEED)),
                "seed collision at {spec:?}"
            );
        }
        // None folds nothing: legacy seeds are preserved.
        assert_eq!(OutageSpec::None.fold_into(0xFEED), 0xFEED);
    }

    /// The SMR repair schedules keep their own `repair=` cell key, and the
    /// storm flag, crash count and bandwidth each move label and seed.
    #[test]
    fn repair_labels_and_seeds_distinguish_schedules() {
        let specs = [smr(2, 1, false), smr(2, 1, true), smr(1, 1, false), smr(2, 4, true)];
        let mut labels = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for spec in specs {
            assert_eq!(spec.key(), "repair", "SMR cells keep the repair= key");
            assert!(spec.label().starts_with("smr-"), "label of {spec:?}");
            assert!(labels.insert(spec.label()), "label collision at {spec:?}");
            let seed = spec.fold_into(0xFEED);
            assert_ne!(seed, 0xFEED, "{spec:?} must fold into the seed");
            assert!(seeds.insert(seed), "seed collision at {spec:?}");
        }
        assert_eq!(OutageSpec::None.key(), "out");
    }

    #[test]
    fn repair_driver_routes_a_crash_through_a_view_change() {
        let mut stack = s0_stack(21);
        let mut driver = OutageDriver::new(
            OutageSpec::Smr {
                crashes: 1,
                crash_at: 5,
                stagger: 1,
                downtime: 80,
                bandwidth: 1,
                storm: false,
            },
            21,
        );
        for step in 1..=60 {
            driver.before_step(&mut stack, step);
            stack.end_step();
        }
        let avail = stack.availability();
        assert_eq!(avail.outages, 1, "one scheduled crash");
        assert!(
            avail.view_changes >= 1,
            "the leader crash must force a view change, got {avail:?}"
        );
        assert!(
            avail.down_steps > 0,
            "the view-change window is real downtime"
        );
        assert!(stack.smr_repair_tracked());
    }

    #[test]
    fn repair_driver_is_deterministic_and_none_is_inert() {
        let run = |spec: OutageSpec| {
            let mut stack = s0_stack(33);
            let mut driver = OutageDriver::new(spec, 33);
            for step in 1..=120 {
                driver.before_step(&mut stack, step);
                stack.end_step();
            }
            format!("{:?}", stack.availability())
        };
        let spec = OutageSpec::Smr {
            crashes: 2,
            crash_at: 10,
            stagger: 40,
            downtime: 20,
            bandwidth: 1,
            storm: false,
        };
        assert_eq!(run(spec), run(spec), "repair trials are seed-pure");
        let quiet = run(OutageSpec::None);
        let baseline = {
            let mut stack = s0_stack(33);
            for _ in 1..=120 {
                stack.end_step();
            }
            format!("{:?}", stack.availability())
        };
        assert_eq!(quiet, baseline, "OutageSpec::None must drive nothing");
    }

    /// A due SMR crash that finds no eligible replica is skipped on its
    /// own: every later crash still fires on its step. Seven crashes one
    /// step apart on four replicas run out of targets at step 9 (all
    /// down or catching up), and the crashes due at steps 10 and 11 must
    /// still find the replicas that are eligible by then.
    #[test]
    fn a_skipped_smr_crash_does_not_cancel_the_later_ones() {
        let (crashes, crash_at) = (7, 5);
        let mut stack = s0_stack(21);
        let mut driver = OutageDriver::new(
            OutageSpec::Smr { crashes, crash_at, stagger: 1, downtime: 4, bandwidth: 1, storm: false },
            21,
        );
        let mut targeted = Vec::new();
        for step in 1..=40 {
            // Bring-ups only add catching-up replicas, so who is eligible
            // before the driver runs is who is eligible when it crashes.
            let due = (crash_at..crash_at + u64::from(crashes)).contains(&step);
            if due
                && (0..stack.server_count())
                    .any(|i| !stack.server_is_down(i) && !stack.server_is_catching_up(i))
            {
                targeted.push(step);
            }
            driver.before_step(&mut stack, step);
            stack.end_step();
        }
        assert!(
            !targeted.contains(&9) && targeted.contains(&10) && targeted.contains(&11),
            "step 9 has no eligible replica, steps 10 and 11 do: {targeted:?}"
        );
        assert_eq!(
            stack.availability().outages,
            targeted.len() as u64,
            "one crash per scheduled step with an eligible replica: {targeted:?}"
        );
    }
}
