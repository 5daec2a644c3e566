//! The network-fault axis: deterministic degraded-network schedules,
//! measured by what a probe client still gets through.
//!
//! The crash-schedule axis ([`crate::outage`]) injects *machine* faults;
//! this module injects *network* faults — per-link loss, delay jitter,
//! duplication, scheduled partitions and a slow endpoint, applied by the
//! [`SimNet`](fortress_net::sim::SimNet) a trial runs on.
//! [`FaultSpec`] is the sweep coordinate: [`FaultSpec::None`] folds
//! nothing into content seeds, consumes no RNG, and runs the same
//! assembly as a degraded cell with the net under [`FaultPlan::None`]
//! (the sweep goldens pin that those cells kept their pre-axis bits), while
//! [`FaultSpec::Degraded`] pairs a [`FaultPlan`] with the
//! [`RetryPolicy`] a measurement client answers it with.
//!
//! # The per-trial RNG stream-splitting convention
//!
//! Every randomized subsystem of a trial draws from its **own** stream,
//! derived by folding a distinct salt into the trial seed: the crash
//! schedule's Poisson draws from `fold(trial_seed, OUTAGE_STREAM)`, and
//! the network its faults from
//! `fold(trial_seed, `[`FAULT_STREAM`](fortress_net::fault::FAULT_STREAM)`)`
//! (a clean network draws nothing).
//! Adding or removing one axis therefore never perturbs another axis's
//! draws — which is what lets `FaultSpec::None` cells reproduce the
//! pre-axis goldens bit-for-bit while degraded cells stay pure functions
//! of their trial seed.
//!
//! The *measurements* the injected faults provoke are collected by the
//! trial's [`WorkloadProbe`]: a first-class client (the class-matched
//! [`ProbeClient`]) that issues a request every [`FAULT_REQUEST_PERIOD`]
//! steps through a [`RetryTracker`], and hands what happened back as a
//! [`Degradation`] — the degrade columns (goodput fraction, retries per
//! request, duplicates suppressed, gave-up count) merged Welford-style
//! through [`crate::stats::AvailStats`].

use fortress_core::client::{Degradation, ProbeClient, RetryPolicy, RetryTracker};
use fortress_core::system::Stack;
use fortress_net::fault::FaultPlan;
use fortress_net::Transport;

use crate::runner::fold;

/// Steps between consecutive goodput-probe requests. Coarse enough that
/// the probe's traffic is a trickle next to the adversary's, fine
/// enough that a 300-step trial still issues ~75 requests.
pub const FAULT_REQUEST_PERIOD: u64 = 4;

/// The network-fault coordinate of a sweep cell. `Copy + PartialEq` so
/// it can sit beside the other axes; its parameters fold into the
/// cell's content-derived seed (two cells differing in any fault or
/// retry parameter draw decorrelated trial streams).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// The clean network, no goodput probe — the pre-fault-axis results
    /// and the seed-compatible default (a `None` cell folds nothing extra
    /// into its content seed, so legacy cells keep their pinned bits).
    None,
    /// Run the trial's networks under `plan`, and measure goodput with a
    /// probe client answering it with `retry`.
    Degraded {
        /// The per-link loss / delay / duplication / partition schedule.
        plan: FaultPlan,
        /// The probe client's timeout / retry / backoff policy.
        retry: RetryPolicy,
    },
}

impl FaultSpec {
    /// Whether this is the no-fault coordinate.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// Short label for cell names and reports. Comma-free (labels are
    /// CSV cells) — segments join with `+`.
    pub fn label(&self) -> String {
        match *self {
            FaultSpec::None => "none".to_string(),
            FaultSpec::Degraded { plan, retry } => format!(
                "{}+retry:{}x{}",
                plan.label(),
                retry.max_retries,
                retry.timeout
            ),
        }
    }

    /// Folds the fault coordinate into a content seed. [`FaultSpec::None`]
    /// deliberately folds **nothing**, preserving every pre-axis cell
    /// seed bit-for-bit (the campaign golden file pins them).
    pub(crate) fn fold_into(&self, seed: u64) -> u64 {
        match *self {
            FaultSpec::None => seed,
            FaultSpec::Degraded { plan, retry } => {
                let mut s = fold(seed, 0x0FA7_0001);
                s = match plan {
                    FaultPlan::None => fold(s, 0),
                    FaultPlan::Degraded {
                        loss,
                        delay_min,
                        delay_max,
                        dup,
                        partition,
                        slow,
                    } => {
                        let mut s = fold(s, loss.to_bits());
                        s = fold(s, delay_min);
                        s = fold(s, delay_max);
                        s = fold(s, dup.to_bits());
                        if let Some(w) = partition {
                            s = fold(s, 0x0FA7_0002);
                            s = fold(s, w.period);
                            s = fold(s, w.duration);
                            s = fold(s, u64::from(w.split));
                            s = fold(s, u64::from(w.oneway));
                        }
                        // `slow: None` folds nothing: every pre-slow-link
                        // cell seed stays bit-for-bit stable.
                        if let Some(sl) = slow {
                            s = fold(s, 0x0FA7_0003);
                            s = fold(s, u64::from(sl.addr));
                            s = fold(s, sl.extra);
                        }
                        s
                    }
                };
                s = fold(s, retry.timeout);
                s = fold(s, u64::from(retry.max_retries));
                fold(s, retry.backoff_base)
            }
        }
    }
}

/// The goodput probe of a degraded cell: a benign measurement client on
/// the trial's stack that issues a fixed request every
/// [`FAULT_REQUEST_PERIOD`] steps, tracks each through the retry
/// machinery and reads what happened out as a [`Degradation`] at trial
/// end. It draws no randomness, so a probed trial stays a pure function
/// of its seed.
pub struct WorkloadProbe {
    name: String,
    client: ProbeClient,
    tracker: RetryTracker,
}

impl WorkloadProbe {
    /// Registers a probe client named `name` on `stack`. The client kind
    /// follows the stack's class: S2 gets the proxy-tier
    /// [`FortressClient`], S1 a [`DirectClient`] accepting any authentic
    /// reply, S0 a [`DirectClient`] demanding `f + 1` matching votes.
    ///
    /// [`FortressClient`]: fortress_core::client::FortressClient
    /// [`DirectClient`]: fortress_core::client::DirectClient
    pub fn new<T: Transport>(stack: &mut Stack<T>, name: &str, retry: RetryPolicy) -> WorkloadProbe {
        WorkloadProbe {
            name: name.to_owned(),
            client: ProbeClient::attach(stack, name),
            tracker: RetryTracker::new(retry),
        }
    }

    /// One probe step at 1-based `step`: drain and judge the replies,
    /// resend whatever timed out, then issue the next request if the
    /// cadence says so.
    pub fn step<T: Transport>(&mut self, stack: &mut Stack<T>, step: u64) {
        for ev in stack.drain_client(&self.name) {
            if let Some(seq) = ev.payload().and_then(|p| self.client.settles(p)) {
                self.tracker.settle(seq);
            }
        }
        for req in self.tracker.due_resends(step) {
            stack.submit(&self.name, &req);
            stack.pump();
        }
        if (step - 1).is_multiple_of(FAULT_REQUEST_PERIOD) {
            let req = self.client.request(b"GET probe");
            self.tracker.track(&req, step);
            stack.submit(&self.name, &req);
            stack.pump();
        }
    }

    /// Abandons whatever is still pending and returns the trial's
    /// counters.
    pub fn finish(mut self) -> Degradation {
        self.tracker.abandon_pending();
        self.tracker.degradation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::{StackConfig, SystemClass};
    use fortress_net::fault::PartitionWindow;
    use fortress_net::sim::{SimConfig, SimNet};
    use fortress_obf::schedule::Policy;

    /// Sixty steps of the fixed probe against one stack; the counters.
    fn probe_alone<T: Transport>(mut stack: Stack<T>, retry: RetryPolicy) -> Degradation {
        let mut probe = WorkloadProbe::new(&mut stack, "probe", retry);
        for step in 1..=60 {
            probe.step(&mut stack, step);
            stack.end_step();
        }
        probe.finish()
    }

    fn degraded(loss: f64, retries: u32) -> FaultSpec {
        FaultSpec::Degraded {
            plan: FaultPlan::Degraded {
                loss,
                delay_min: 0,
                delay_max: 2,
                dup: 0.0,
                partition: None,
                slow: None,
            },
            retry: RetryPolicy::retrying(8, retries, 2),
        }
    }

    #[test]
    fn labels_are_distinct_and_comma_free() {
        let specs = [
            FaultSpec::None,
            degraded(0.05, 2),
            degraded(0.10, 2),
            degraded(0.05, 0),
            FaultSpec::Degraded {
                plan: FaultPlan::Degraded {
                    loss: 0.05,
                    delay_min: 0,
                    delay_max: 2,
                    dup: 0.0,
                    partition: Some(PartitionWindow {
                        period: 40,
                        duration: 10,
                        split: 3,
                        oneway: false,
                    }),
                    slow: None,
                },
                retry: RetryPolicy::retrying(8, 2, 2),
            },
            // A fixed delay (`delay_max` ≤ `delay_min`) holds every
            // message `delay_min` steps: it is not the undelayed plan.
            FaultSpec::Degraded {
                plan: FaultPlan::lossy(0.05),
                retry: RetryPolicy::retrying(8, 2, 2),
            },
            FaultSpec::Degraded {
                plan: FaultPlan::Degraded {
                    loss: 0.05,
                    delay_min: 3,
                    delay_max: 0,
                    dup: 0.0,
                    partition: None,
                    slow: None,
                },
                retry: RetryPolicy::retrying(8, 2, 2),
            },
        ];
        let mut labels = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for spec in specs {
            let label = spec.label();
            assert!(!label.contains(','), "CSV-hostile label: {label}");
            assert!(labels.insert(label), "label collision at {spec:?}");
            assert!(
                seeds.insert(spec.fold_into(0xFEED)),
                "seed collision at {spec:?}"
            );
        }
        // None folds nothing: legacy seeds are preserved.
        assert_eq!(FaultSpec::None.fold_into(0xFEED), 0xFEED);
    }

    #[test]
    fn probe_on_a_clean_network_reaches_full_goodput() {
        for class in [SystemClass::S0Smr, SystemClass::S1Pb, SystemClass::S2Fortress] {
            let stack = Stack::new(StackConfig {
                class,
                policy: Policy::StartupOnly,
                seed: 5,
                ..StackConfig::default()
            })
            .unwrap();
            let point = probe_alone(stack, RetryPolicy::no_retry(8));
            assert!(
                (point.goodput_fraction() - 1.0).abs() < 1e-12,
                "{class:?}: lossless network must serve every request, got {point:?}"
            );
            assert_eq!(point.retries, 0);
            assert_eq!(point.gave_up, 0);
        }
    }

    #[test]
    fn probe_under_certain_loss_gives_up_on_everything() {
        let cfg = StackConfig {
            class: SystemClass::S1Pb,
            policy: Policy::StartupOnly,
            seed: 7,
            ..StackConfig::default()
        };
        let net = SimNet::new(SimConfig { faults: FaultPlan::lossy(1.0), fault_stream: 0xFA });
        let stack = Stack::with_transport(cfg, net).unwrap();
        let point = probe_alone(stack, RetryPolicy::retrying(4, 1, 2));
        assert_eq!(point.goodput_fraction(), 0.0, "{point:?}");
        assert!(point.retries > 0, "retries must be spent");
        assert!(point.gave_up > 0, "unanswered requests must be abandoned");
    }
}
