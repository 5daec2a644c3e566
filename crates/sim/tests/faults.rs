//! The network-fault axis, asserted end-to-end:
//!
//! 1. **Golden pin** — the fault-bearing sweep (clean / light-loss /
//!    heavy-loss coordinates on fortified S2 and bare-PB S1) reproduces
//!    a committed golden CSV bit-for-bit through the cell-parallel
//!    scheduler, at 1 and 8 runner threads. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p fortress-sim --test faults`.
//! 2. **Passthrough** — the campaign golden cells all carry
//!    `FaultSpec::None`, and re-running them through the scheduler
//!    reproduces the pre-axis golden byte-for-byte: adding the axis
//!    changed no legacy bits. An explicit `.faults(vec![None])` sweep
//!    compiles to the same cells as an unset axis (vacuous collapse).
//! 3. **Directionality** — goodput is monotone non-increasing in the
//!    loss rate; at 10% per-link loss a retrying client achieves
//!    strictly higher goodput than a retry-free client on paired seeds
//!    (the acceptance directional test); and the fortified stack's
//!    multipath proxy fleet keeps goodput at or above bare PB's under
//!    identical fault schedules and paired seeds.

mod common;

use common::{
    assert_golden, small_sweep, GOLDEN_PATH as CAMPAIGN_GOLDEN, GOLDEN_SEED as CAMPAIGN_SEED,
};
use fortress_core::client::RetryPolicy;
use fortress_core::system::SystemClass;
use fortress_net::fault::FaultPlan;
use fortress_sim::faults::FaultSpec;
use fortress_sim::protocol_mc::{run_trial, ProtocolExperiment};
use fortress_sim::runner::{trial_seed, Runner, TrialBudget};
use fortress_sim::scenario::{fault_base, fault_sweep, SweepCell, SweepScheduler, SweepSpec};
use fortress_sim::stats::Column;

/// Seed of the pinned fault sweep.
const GOLDEN_SEED: u64 = 0x000F_A017;

/// A loss-only fault coordinate with the given retry policy.
fn lossy(loss: f64, retry: RetryPolicy) -> FaultSpec {
    FaultSpec::Degraded {
        plan: FaultPlan::lossy(loss),
        retry,
    }
}

/// Contract 1: the fault-bearing sweep is bit-identical serial vs
/// cell-parallel and pinned by a committed golden file — the fault
/// axis's analogue of the availability golden.
#[test]
fn fault_sweep_matches_golden_file_at_any_thread_count() {
    let cells = fault_sweep(GOLDEN_SEED);
    assert!(
        cells.iter().any(|c| c.label.contains("fault=loss:0.05"))
            && cells.iter().any(|c| c.label.contains("fault=loss:0.1")),
        "the sweep must carry at least two fault plans: {:?}",
        cells.iter().map(|c| c.label.clone()).collect::<Vec<_>>()
    );
    let budget = TrialBudget::Fixed(16);
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "fault sweep diverged between 1 and 8 threads"
    );
    // Degraded cells measured goodput, so the degradation columns are
    // in; the None cells show `-` there (no probe ran).
    let csv = serial.to_table().to_csv();
    let header = csv.lines().next().unwrap();
    assert!(
        header.contains("goodput") && header.contains("retries_per_req"),
        "degradation columns must surface in a fault-bearing sweep: {header}"
    );
    assert_golden("fault_small", &csv);
}

/// Contract 2a: every campaign-golden cell carries `FaultSpec::None`,
/// and running them through today's scheduler — fault axis compiled in —
/// reproduces the pre-axis golden byte-for-byte.
#[test]
fn none_fault_cells_reproduce_the_campaign_golden() {
    let sweep = small_sweep();
    assert!(
        sweep.base.fault.is_none(),
        "the pinned sweep must run on the no-fault coordinate"
    );
    let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(16))
        .run(&sweep.compile(CAMPAIGN_SEED));
    let golden = std::fs::read_to_string(CAMPAIGN_GOLDEN)
        .expect("campaign golden missing — regenerate via the campaign suite");
    assert_eq!(
        report.to_table().to_csv(),
        golden,
        "FaultSpec::None cells must reproduce the pre-axis campaign golden"
    );
}

/// Contract 2b: an explicit `.faults(vec![None])` axis is vacuous — the
/// compiled cells carry the same labels and content seeds as a sweep
/// that never mentions the axis.
#[test]
fn explicit_none_fault_axis_is_vacuous() {
    let base = fault_base(SystemClass::S1Pb);
    let implicit = SweepSpec::new(base).compile(0xFACE);
    let explicit = SweepSpec::new(base)
        .faults(vec![FaultSpec::None])
        .compile(0xFACE);
    assert_eq!(implicit.len(), explicit.len());
    for (a, b) in implicit.iter().zip(&explicit) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seed, b.seed);
        assert!(!a.label.contains("fault="), "None must not label cells");
    }
}

/// Contract 3a: goodput is monotone non-increasing in the loss rate at
/// a fixed retry policy (small tolerance for Monte-Carlo noise; the
/// axis spans a clean-to-half-lost spread so the signal dwarfs it).
#[test]
fn goodput_is_monotone_non_increasing_in_loss() {
    let retry = RetryPolicy::retrying(8, 2, 2);
    let cells = SweepSpec::new(fault_base(SystemClass::S1Pb))
        .faults(vec![
            lossy(0.0, retry),
            lossy(0.10, retry),
            lossy(0.50, retry),
        ])
        .compile(0xD0_72);
    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(32)).run(&cells);
    let goodputs: Vec<f64> = report
        .cells
        .iter()
        .map(|o| {
            assert!(o.avail[Column::Goodput].n() > 0, "degraded cells must probe");
            o.avail[Column::Goodput].mean()
        })
        .collect();
    // Not exactly 1.0: trials the attacker ends leave the last request
    // in flight, and an abandoned request counts against goodput.
    assert!(
        goodputs[0] > 0.95,
        "a lossless plan must serve nearly every request: {goodputs:?}"
    );
    for pair in goodputs.windows(2) {
        assert!(
            pair[1] <= pair[0] + 0.02,
            "goodput grew as loss grew: {goodputs:?}"
        );
    }
    assert!(
        goodputs[2] < goodputs[0] - 0.1,
        "half the links lost must cost real goodput: {goodputs:?}"
    );
}

/// Contract 3b (the acceptance directional test): under a 10% per-link
/// loss plan, a client with retries achieves strictly higher goodput
/// than a retry-free client on paired seeds. Paired explicitly — the
/// two coordinates differ in retry policy, so their *content* seeds
/// would decorrelate; pinning the trial seeds isolates the policy's
/// effect on the same fault draws.
#[test]
fn retrying_client_beats_retry_free_at_ten_percent_loss() {
    let plan = FaultPlan::lossy(0.10);
    let base = fault_base(SystemClass::S1Pb);
    let retrying = ProtocolExperiment {
        fault: FaultSpec::Degraded {
            plan,
            retry: RetryPolicy::retrying(8, 3, 2),
        },
        ..base
    };
    let bare = ProtocolExperiment {
        fault: FaultSpec::Degraded {
            plan,
            retry: RetryPolicy::no_retry(8),
        },
        ..base
    };
    let (mut with_retry, mut without, mut retries_spent) = (0.0, 0.0, 0.0);
    let trials = 32;
    for i in 0..trials {
        let seed = 0xBEEF_0000 + i;
        let r = run_trial(&retrying, seed).avail;
        let n = run_trial(&bare, seed).avail;
        with_retry += r[Column::Goodput].unwrap();
        without += n[Column::Goodput].unwrap();
        retries_spent += r[Column::Retries].unwrap();
    }
    let (with_retry, without) = (with_retry / trials as f64, without / trials as f64);
    assert!(
        retries_spent > 0.0,
        "the retrying client must actually spend retries at 10% loss"
    );
    assert!(
        with_retry > without,
        "retries must buy goodput at 10% loss: {with_retry:.4} vs {without:.4}"
    );
    assert!(
        without < 0.95,
        "a retry-free client at 10% per-link loss must visibly degrade: {without:.4}"
    );
}

/// Contract 3c: under an identical fault schedule, the fortified stack's
/// goodput does not fall below bare PB's — the proxy fleet is a
/// multipath hedge (a request survives if any proxy path does), which is
/// the fault axis's version of the paper's fortified-vs-bare comparison.
/// Two inputs hold it: probe-only stacks on paired seeds at 10% loss
/// (the network claim alone), and the attacked case — every degraded
/// coordinate of `fault_sweep(7)`, its S2 cell with the adversary
/// crashing proxies against its S1 pair, trials 0..8 of each. The
/// proxies charge a crash only to a forward pending at the crashed
/// server, so loss does not shift the attacker's crashes onto the
/// benign probe and the attacked S2 cells keep their goodput.
#[test]
fn fortified_goodput_not_below_bare_pb_on_paired_fault_schedules() {
    use fortress_core::system::{Stack, StackConfig};
    use fortress_net::sim::{SimConfig, SimNet};
    use fortress_obf::schedule::Policy;
    use fortress_sim::faults::WorkloadProbe;

    let run = |class: SystemClass, seed: u64| {
        let cfg = StackConfig {
            class,
            policy: Policy::StartupOnly,
            seed,
            ..StackConfig::default()
        };
        let net = SimNet::new(SimConfig {
            faults: FaultPlan::lossy(0.10),
            fault_stream: seed ^ 0x00FA_0175,
        });
        let mut stack = Stack::with_transport(cfg, net).expect("valid stack");
        let mut probe = WorkloadProbe::new(&mut stack, "probe", RetryPolicy::no_retry(8));
        for step in 1..=200 {
            probe.step(&mut stack, step);
            stack.end_step();
        }
        probe.finish().goodput_fraction()
    };
    let (mut fortified, mut bare) = (0.0, 0.0);
    let trials = 32;
    for i in 1..=trials {
        fortified += run(SystemClass::S2Fortress, i);
        bare += run(SystemClass::S1Pb, i);
    }
    let (fortified, bare) = (fortified / trials as f64, bare / trials as f64);
    assert!(
        fortified >= bare - 0.02,
        "fortified goodput ({fortified:.4}) must not fall below bare PB's \
         ({bare:.4}) under the paired fault schedule"
    );
    assert!(
        bare < 0.95,
        "10% per-link loss must visibly degrade the retry-free baseline: {bare:.4}"
    );

    let cells = fault_sweep(7);
    let mean_goodput = |cell: &SweepCell| {
        let trials = 8;
        let goodput = |i| run_trial(&cell.spec, trial_seed(cell.seed, i)).avail[Column::Goodput];
        (0..trials).map(|i| goodput(i).expect("a degraded cell runs the probe")).sum::<f64>()
            / trials as f64
    };
    let attacked = cells
        .iter()
        .filter(|c| c.spec.class == SystemClass::S2Fortress && !c.spec.fault.is_none());
    let mut pairs = 0;
    for s2 in attacked {
        let s1 = cells
            .iter()
            .find(|c| c.spec.class == SystemClass::S1Pb && c.spec.fault == s2.spec.fault)
            .expect("every S2 coordinate has its S1 pair");
        let (fortified, bare) = (mean_goodput(s2), mean_goodput(s1));
        assert!(
            fortified >= bare - 0.02,
            "{}: attacked fortified goodput ({fortified:.4}) fell below bare PB's \
             ({bare:.4}, {})",
            s2.label,
            s1.label
        );
        pairs += 1;
    }
    assert_eq!(pairs, 2, "both degraded coordinates are paired");
}
