//! Protocol-level Monte-Carlo: the real stacks under real attackers.
//!
//! One trial assembles a full [`Stack`](fortress_core::system::Stack)
//! (randomized processes, replication engines, proxies, deterministic
//! network) and a matching attacker, then walks unit time-steps until the
//! class's compromise condition holds. Key spaces are scaled down (default
//! 2^10) so trials finish in milliseconds; the *shape* of the results — who
//! outlives whom — is what corroborates the abstract models (the `proto`
//! table of the `figures` binary).

use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{StackConfig, SystemClass};
use fortress_model::params::Policy;
use fortress_obf::scheme::Scheme;

use crate::faults::FaultSpec;
use crate::outage::OutageSpec;
use crate::runner::{Runner, TrialBudget};
use crate::scenario::TrialMeasure;
use crate::stats::Estimate;

/// Configuration of one protocol-level experiment.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolExperiment {
    /// System class under attack.
    pub class: SystemClass,
    /// Obfuscation policy.
    pub policy: Policy,
    /// Key entropy in bits (scaled down from the paper's 16 for runtime).
    pub entropy_bits: u32,
    /// Attacker's unconstrained probe rate ω per unit time-step.
    pub omega: f64,
    /// Proxy suspicion policy (S2 only; determines the effective κ).
    pub suspicion: SuspicionPolicy,
    /// Proxy fleet size `np` (S2 only; the paper deploys 3). The campaign
    /// grids sweep this axis.
    pub np: usize,
    /// Randomization scheme under attack.
    pub scheme: Scheme,
    /// Cap on steps per trial (trials hitting the cap are censored at it).
    pub max_steps: u64,
    /// Machine-crash schedule injected during the drive loop (the
    /// crash-schedule axis): a PB schedule on S1 and S2, recovered by
    /// failover, or [`OutageSpec::Smr`] on S0, recovered by view change
    /// and priced state transfer. [`OutageSpec::None`] preserves the
    /// pre-axis behavior and seeds bit-for-bit — no driver work, no
    /// workload client, no repair accounting.
    pub outage: OutageSpec,
    /// Network-fault schedule the trial's transport runs under (the
    /// fault axis; [`FaultSpec::None`] preserves the pre-axis results
    /// and seeds bit-for-bit — the network is clean and draws nothing,
    /// and there is no goodput probe).
    pub fault: FaultSpec,
    /// Shard coordinate: run the cell as a multi-group fleet behind the
    /// key-hash directory (the shard axis;
    /// [`ShardSpec::None`](crate::fleet_mc::ShardSpec) preserves the
    /// pre-axis behavior and seeds bit-for-bit — one group, no workload).
    /// S2 campaign cells only; the 1-tier paths ignore it.
    pub shard: crate::fleet_mc::ShardSpec,
}

impl ProtocolExperiment {
    /// A default experiment against the given class and policy.
    pub fn new(class: SystemClass, policy: Policy) -> ProtocolExperiment {
        ProtocolExperiment {
            class,
            policy,
            entropy_bits: 10,
            omega: 8.0,
            suspicion: SuspicionPolicy {
                window: 64,
                threshold: 9,
            },
            np: 3,
            scheme: Scheme::Aslr,
            max_steps: 50_000,
            outage: OutageSpec::None,
            fault: FaultSpec::None,
            shard: crate::fleet_mc::ShardSpec::None,
        }
    }

    /// The shape every group of one trial of this experiment is
    /// assembled under, which is what the trial arena keys reuse on. The
    /// seed is not part of it:
    /// [`run_trial`](crate::campaign_mc::run_trial) sets it per group.
    pub(crate) fn stack_config(&self) -> StackConfig {
        StackConfig {
            class: self.class,
            entropy_bits: self.entropy_bits,
            scheme: self.scheme,
            policy: self.policy,
            suspicion: self.suspicion,
            np: self.np,
            ..StackConfig::default()
        }
    }

    /// Runs one trial; returns the 1-based step at which the system fell
    /// (or `max_steps` if censored).
    ///
    /// The S2 trial *is* a campaign cell under the paper's baseline
    /// posture — one drive loop, shared with every other strategy, so
    /// PROTO estimates and campaign `paced` cells cannot drift apart.
    pub fn run_once(&self, seed: u64) -> u64 {
        self.run_measured(seed).lifetime
    }

    /// [`ProtocolExperiment::run_once`] with the availability
    /// measurements attached: the same drive loop (identical RNG
    /// consumption, so lifetimes are bit-identical with or without the
    /// measurement), with the experiment's [`OutageSpec`] applied at the
    /// top of each step and the stack's availability counters read out
    /// at the end.
    pub fn run_measured(&self, seed: u64) -> TrialMeasure {
        let baseline = (self.class == SystemClass::S2Fortress)
            .then_some(fortress_attack::campaign::StrategyKind::PacedBelowThreshold);
        crate::campaign_mc::run_trial(self, baseline, seed)
    }

    /// Runs `trials` independent trials through the parallel runner and
    /// returns the lifetime estimate. Each trial's stack and attacker are
    /// seeded from the runner's per-trial counter seed, so the estimate
    /// is identical at any thread count.
    pub fn estimate(&self, trials: u64, base_seed: u64) -> Estimate {
        self.estimate_with(&Runner::new(), TrialBudget::Fixed(trials), base_seed)
    }

    /// [`ProtocolExperiment::estimate`] with explicit runner and budget —
    /// the hook for callers that pin thread counts (determinism tests) or
    /// want adaptive stopping. One delegation to the unified scenario
    /// surface ([`crate::scenario::run_scenario`]): `run_once` builds its
    /// own stack + attacker RNGs from the per-trial counter seed, so
    /// PROTO estimates and scenario sweeps of the same experiment are
    /// bit-identical.
    pub fn estimate_with(&self, runner: &Runner, budget: TrialBudget, base_seed: u64) -> Estimate {
        crate::scenario::run_scenario(
            crate::scenario::ScenarioSpec::Protocol(*self),
            runner,
            budget,
            base_seed,
        )
        .estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_model::params::{AttackParams, ProbeModel};
    use fortress_model::{expected_lifetime, SystemKind};

    /// Protocol S1SO lifetimes agree with the analytic model at scaled χ.
    #[test]
    fn s1_so_protocol_matches_model() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let est = exp.estimate(60, 1000);
        let params = AttackParams::new(256.0, 8.0).unwrap();
        let analytic = expected_lifetime(
            SystemKind::S1Pb,
            Policy::StartupOnly,
            ProbeModel::Broadcast,
            &params,
        )
        .unwrap();
        let rel = (est.mean - analytic).abs() / analytic;
        assert!(rel < 0.25, "protocol {est:?} vs analytic {analytic}");
    }

    /// Protocol S1PO lifetimes agree with 1/α at scaled χ.
    #[test]
    fn s1_po_protocol_matches_model() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 16.0,
            max_steps: 1000,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive)
        };
        let est = exp.estimate(60, 2000);
        let analytic = 256.0 / 16.0; // 1/alpha = chi/omega
        let rel = (est.mean - analytic).abs() / analytic;
        assert!(rel < 0.3, "protocol {est:?} vs analytic {analytic}");
    }

    /// The protocol stacks reproduce S1SO → S0SO (trend 1).
    #[test]
    fn trend1_holds_at_protocol_level() {
        let s1 = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let s0 = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S0Smr, Policy::StartupOnly)
        };
        let e1 = s1.estimate(60, 3000);
        let e0 = s0.estimate(60, 4000);
        assert!(
            e1.mean > e0.mean,
            "S1SO ({:?}) must outlive S0SO ({:?})",
            e1,
            e0
        );
    }

    /// PO outlives SO at protocol level (trend 2, S1 slice).
    #[test]
    fn trend2_holds_at_protocol_level() {
        let po = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            max_steps: 2000,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive)
        };
        let so = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let e_po = po.estimate(50, 5000);
        let e_so = so.estimate(50, 6000);
        assert!(
            e_po.mean > e_so.mean,
            "S1PO ({:?}) must outlive S1SO ({:?})",
            e_po,
            e_so
        );
    }

    /// FORTRESS under SO with a detection-constrained attacker outlives the
    /// bare PB system under SO against the same attacker.
    #[test]
    fn proxies_add_resilience_at_protocol_level() {
        let s2 = ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            suspicion: SuspicionPolicy {
                window: 32,
                threshold: 3,
            },
            max_steps: 4000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        };
        let s1 = ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let e2 = s2.estimate(40, 7000);
        let e1 = s1.estimate(40, 8000);
        assert!(
            e2.mean > e1.mean,
            "S2SO ({:?}) must outlive S1SO ({:?}) when proxies pace the attacker",
            e2,
            e1
        );
    }
}
