//! The availability axis: declarative outage schedules injected into
//! protocol-level trials.
//!
//! The survivability literature (Ellison et al., *Survivable Network
//! System Analysis*; Cusick, *Exploring System Resiliency*) treats
//! recovery-under-attack — not just intrusion resistance — as the
//! defining resilience metric, and the paper's PB tier exists precisely
//! to survive machine outages. [`OutageSpec`] makes outage injection a
//! first-class sweep axis: a `Copy` schedule of crash/restart events a
//! trial's drive loop applies to the PB tier via
//! [`Stack::take_down_server`] / [`Stack::bring_up_server`], with every
//! random choice drawn from a dedicated RNG stream derived from the
//! trial seed — so outage-bearing cells keep the campaign determinism
//! contract (bit-identical at any thread count, invariant under sweep
//! reordering).
//!
//! The availability *measurements* the injected outages provoke
//! (downtime fraction, failover count and latency, requests lost) are
//! collected by `fortress_core`'s [`Availability`](fortress_core::system::Availability)
//! counters and merged Welford-style through the runner — see
//! [`crate::stats::AvailStats`].

use fortress_core::client::ProbeClient;
use fortress_core::system::{Stack, SystemClass};
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::fold;

/// A declarative schedule of PB-tier machine outages for one scenario
/// cell. `Copy + PartialEq` so it can sit in a sweep coordinate; its
/// parameters fold into the cell's content-derived seed (two cells
/// differing in any outage parameter draw decorrelated trial streams).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OutageSpec {
    /// No injected outages — the pre-availability-axis behavior, and the
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
}

impl OutageSpec {
    /// Whether this is the no-outage schedule.
    pub fn is_none(&self) -> bool {
        matches!(self, OutageSpec::None)
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
    ///   is paced by the adversary, not a clock).
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
            OutageSpec::StrikeThenCrash { .. } => None,
        }
    }
}

/// Salt of the outage driver's RNG stream under the trial seed — a
/// distinct stream from the stack's and the adversary's, so adding the
/// availability axis perturbs neither.
const OUTAGE_STREAM: u64 = 0x007A6_E5EED;

/// Applies an [`OutageSpec`] to a [`Stack`] one step at a time. One
/// driver per trial; all randomness comes from its own `StdRng` seeded
/// from the trial seed, so a trial remains a pure function of its seed.
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
        }
    }

    /// Applies the schedule at the start of 1-based `step`: first brings
    /// back machines whose repair is due, then injects whatever the
    /// schedule prescribes. On S0 the same crash/repair calls route
    /// through the SMR tier's view-change path (see [`RepairDriver`] for
    /// the repair-economics axis built on top of it).
    pub fn before_step<T: Transport>(&mut self, stack: &mut Stack<T>, step: u64) {
        if self.spec.is_none() {
            return;
        }
        // Repairs first: a machine downed for `d` steps at step `t` is
        // back before step `t + d` runs.
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

/// The repair-economics coordinate of a sweep cell: a deterministic
/// schedule of SMR-tier (S0) crashes whose recoveries are *priced* —
/// every crash is a protocol event (view-change timers, the VSR
/// StartViewChange / DoViewChange / StartView exchange, a log merge at
/// the new leader) and every rejoin pays state-transfer units
/// proportional to the log divergence accumulated while down, drained
/// through a bounded per-step bandwidth budget.
///
/// `Copy + PartialEq` so it can sit beside the other sweep axes;
/// parameters fold into the cell's content-derived seed.
/// [`RepairSpec::None`] folds **nothing** and adds no label suffix, so
/// every legacy cell seed and golden file stays byte-stable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepairSpec {
    /// No repair schedule — the pre-axis behavior and seed-compatible
    /// default.
    None,
    /// Staggered SMR replica crashes with divergence-priced recovery.
    Smr {
        /// How many replicas crash over the trial (each crash `k`
        /// lands at `crash_at + k * stagger`, aimed at the replica
        /// currently leading so every crash forces a view change).
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

impl RepairSpec {
    /// Whether this is the no-repair schedule.
    pub fn is_none(&self) -> bool {
        matches!(self, RepairSpec::None)
    }

    /// Short label for cell names and reports.
    pub fn label(&self) -> String {
        match *self {
            RepairSpec::None => "none".to_string(),
            RepairSpec::Smr {
                crashes,
                crash_at,
                stagger,
                downtime,
                bandwidth,
                storm,
            } => {
                let kind = if storm { "storm" } else { "stag" };
                format!("smr-{kind}:{crashes}@{crash_at}+{stagger}/{downtime}bw{bandwidth}")
            }
        }
    }

    /// Folds the schedule into a content seed. [`RepairSpec::None`]
    /// deliberately folds **nothing**, preserving every pre-axis cell
    /// seed bit-for-bit.
    pub(crate) fn fold_into(&self, seed: u64) -> u64 {
        match *self {
            RepairSpec::None => seed,
            RepairSpec::Smr {
                crashes,
                crash_at,
                stagger,
                downtime,
                bandwidth,
                storm,
            } => {
                let seed = fold(fold(seed, 0x4E9A_1201), storm as u64);
                let seed = fold(fold(seed, crashes as u64), crash_at);
                fold(fold(fold(seed, stagger), downtime), bandwidth)
            }
        }
    }
}

/// Applies a [`RepairSpec`] to an S0 [`Stack`] one step at a time.
///
/// The driver is deliberately **RNG-free**: crash targets come from
/// [`Stack::smr_leader_hint`] (the view the live replicas agree on
/// names the leader), crash and bring-up times are arithmetic on the
/// spec, and the benign one-request-per-step workload the driver
/// submits is fixed. A repair-bearing trial therefore stays a pure
/// function of its seed, and `RepairSpec::None` drives nothing at all.
///
/// The per-step workload is not optional garnish: the SMR engines'
/// view-change timers are *request-driven* (a replica only suspects a
/// silent leader while it holds an unexecuted request), so without a
/// trickle of traffic a crashed leader would never be detected. The
/// workload also advances the committed log, which is exactly what
/// prices the rejoiners' divergence.
pub struct RepairDriver {
    spec: RepairSpec,
    /// The benign workload client; registered on first `before_step`.
    probe: Option<ProbeClient>,
    name: String,
    /// Crashes injected so far.
    crashed: u32,
    /// `(server index, step at which its bring-up is scheduled)`.
    up_times: Vec<(usize, u64)>,
}

impl RepairDriver {
    /// A driver for `spec`. `name` keys the driver's workload client on
    /// the stack (must be unique among the trial's clients).
    pub fn new(spec: RepairSpec, name: &str) -> RepairDriver {
        RepairDriver {
            spec,
            probe: None,
            name: name.to_owned(),
            crashed: 0,
            up_times: Vec::new(),
        }
    }

    /// Applies the schedule at the start of 1-based `step`, then runs
    /// the one-request workload. A no-op for `RepairSpec::None` and for
    /// non-S0 stacks (the repair axis is an SMR-tier economics model).
    pub fn before_step<T: Transport>(&mut self, stack: &mut Stack<T>, step: u64) {
        let RepairSpec::Smr {
            crashes,
            crash_at,
            stagger,
            downtime,
            bandwidth,
            storm,
        } = self.spec
        else {
            return;
        };
        if stack.class() != SystemClass::S0Smr {
            return;
        }
        if self.probe.is_none() {
            // First call: arm the repair economics (bounded transfer
            // bandwidth) and register the workload client.
            stack.enable_smr_repair(bandwidth);
            self.probe = Some(ProbeClient::attach(stack, &self.name));
        }
        // Scheduled bring-ups first: the rejoiner enters the transfer
        // queue this step and pays its divergence from there.
        bring_up_due(&mut self.up_times, stack, step);
        // Crash injection k lands at crash_at + k * stagger, aimed at
        // whoever currently leads so each crash forces a view change.
        if self.crashed < crashes && step == crash_at + self.crashed as u64 * stagger.max(1) {
            let hint = stack.smr_leader_hint();
            let target = if stack.server_is_down(hint) || stack.server_is_catching_up(hint) {
                (0..stack.server_count())
                    .find(|&i| !stack.server_is_down(i) && !stack.server_is_catching_up(i))
            } else {
                Some(hint)
            };
            if let Some(target) = target {
                stack.take_down_server(target);
                let up_at = if storm {
                    // Correlated bring-ups: everyone rejoins when the
                    // *last* crash's repair lands, so the whole cohort
                    // contends for the bandwidth budget at once.
                    crash_at + (crashes.saturating_sub(1)) as u64 * stagger.max(1) + downtime
                } else {
                    step + downtime.max(1)
                };
                self.up_times.push((target, up_at));
                self.crashed += 1;
            }
        }
        // The benign workload: drain yesterday's replies, submit one
        // request, pump. Keeps the view-change timers armed and the
        // committed log moving.
        let probe = self.probe.as_mut().expect("armed above");
        for ev in stack.drain_client(&self.name) {
            if let Some(payload) = ev.payload() {
                probe.settles(payload);
            }
        }
        let req = probe.request(b"GET repair-probe");
        stack.submit(&self.name, &req);
        stack.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::{StackConfig, SystemClass};
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
        ];
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

    #[test]
    fn repair_labels_and_seeds_distinguish_schedules() {
        let base = RepairSpec::Smr {
            crashes: 2,
            crash_at: 40,
            stagger: 60,
            downtime: 30,
            bandwidth: 1,
            storm: false,
        };
        let storm = RepairSpec::Smr {
            crashes: 2,
            crash_at: 40,
            stagger: 60,
            downtime: 30,
            bandwidth: 1,
            storm: true,
        };
        let specs = [
            RepairSpec::None,
            base,
            storm,
            RepairSpec::Smr {
                crashes: 1,
                crash_at: 40,
                stagger: 60,
                downtime: 30,
                bandwidth: 1,
                storm: false,
            },
            RepairSpec::Smr {
                crashes: 2,
                crash_at: 40,
                stagger: 60,
                downtime: 30,
                bandwidth: 4,
                storm: true,
            },
        ];
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
        assert_eq!(RepairSpec::None.fold_into(0xFEED), 0xFEED);
    }

    #[test]
    fn repair_driver_routes_a_crash_through_a_view_change() {
        let mut stack = s0_stack(21);
        let mut driver = RepairDriver::new(
            RepairSpec::Smr {
                crashes: 1,
                crash_at: 5,
                stagger: 1,
                downtime: 80,
                bandwidth: 1,
                storm: false,
            },
            "repair",
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
        let run = |spec: RepairSpec| {
            let mut stack = s0_stack(33);
            let mut driver = RepairDriver::new(spec, "repair");
            for step in 1..=120 {
                driver.before_step(&mut stack, step);
                stack.end_step();
            }
            format!("{:?}", stack.availability())
        };
        let spec = RepairSpec::Smr {
            crashes: 2,
            crash_at: 10,
            stagger: 40,
            downtime: 20,
            bandwidth: 1,
            storm: false,
        };
        assert_eq!(run(spec), run(spec), "repair trials are seed-pure");
        let quiet = run(RepairSpec::None);
        let baseline = {
            let mut stack = s0_stack(33);
            for _ in 1..=120 {
                stack.end_step();
            }
            format!("{:?}", stack.availability())
        };
        assert_eq!(quiet, baseline, "RepairSpec::None must drive nothing");
    }
}
