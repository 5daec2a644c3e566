//! The campaign sweep's contracts, asserted end-to-end:
//!
//! 1. **Golden pin** — one small sweep's per-cell means are bit-exact
//!    against a committed golden CSV (counter-based seeding makes the
//!    whole sweep a pure function of its parameters), and identical at 1
//!    vs 4 runner threads. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p fortress-sim --test campaign`.
//!    Under an adaptive budget the trials spent per cell are pinned too.
//! 2. **Ordering invariance** — reordering or subsetting the sweep's
//!    axes changes no cell's result (cell seeds derive from cell
//!    content, not sweep position).
//! 3. **Fleet direction** — under the scan-then-strike adversary, wider
//!    proxy fleets never reduce the mean lifetime: one proxy *is* the
//!    all-proxies compromise condition, while any second proxy forces
//!    the attacker through the launch-pad strike phase.
//! 4. **Cell identity** — every class × policy × posture compiles to a
//!    pinned `(label, seed)` table, and a cell is its experiment: the
//!    posture counts on S2 only, and a hand-built cell equals the
//!    compiled one.

mod common;

use common::{assert_golden, small_sweep, GOLDEN_SEED};
use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_model::params::Policy;
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{ScenarioSpec, SweepCell, SweepReport, SweepScheduler, SweepSpec};

fn run(spec: &SweepSpec, runner: &Runner, budget: TrialBudget, seed: u64) -> SweepReport {
    SweepScheduler::new(runner, budget).run(&spec.compile(seed))
}

/// Contract 1: the committed golden file reproduces bit-for-bit, at more
/// than one thread count.
#[test]
fn small_grid_matches_golden_file() {
    let sweep = small_sweep();
    let budget = TrialBudget::Fixed(16);
    let serial = run(&sweep, &Runner::with_threads(1), budget, GOLDEN_SEED);
    let pooled = run(&sweep, &Runner::with_threads(4), budget, GOLDEN_SEED);
    let csv = serial.to_table().to_csv();
    assert_eq!(
        pooled.to_table().to_csv(),
        csv,
        "campaign sweep diverged across thread counts"
    );
    assert_golden("campaign_small", &csv);
}

/// Contract 1, adaptive budgets: the RSE stopping rule is part of the
/// pure function too. The golden above spends a fixed 16 trials per
/// cell, so this is the one pin on how many trials `TargetRse` buys each
/// cell, at more than one thread count.
#[test]
fn adaptive_budget_spends_the_pinned_trials_per_cell() {
    let sweep = small_sweep();
    let budget = TrialBudget::TargetRse {
        target: 0.05,
        min_trials: 16,
        max_trials: 128,
        batch: 16,
    };
    for threads in [1, 4] {
        let report = run(&sweep, &Runner::with_threads(threads), budget, GOLDEN_SEED);
        let spent: Vec<u64> = report.cells.iter().map(|o| o.estimate.n).collect();
        assert_eq!(
            spent,
            [96, 96, 64, 48, 96, 80, 64, 48],
            "adaptive stopping schedule moved at {threads} thread(s)"
        );
    }
}

/// Contract 2: per-cell results are independent of the sweep layout.
#[test]
fn strategy_ordering_does_not_change_cell_results() {
    let forward = small_sweep();
    let mut reversed = small_sweep();
    reversed.strategies.reverse();
    reversed.fleets.reverse();
    reversed.suspicions.reverse();
    let budget = TrialBudget::Fixed(12);
    let runner = Runner::with_threads(2);
    let a = run(&forward, &runner, budget, 5);
    let b = run(&reversed, &runner, budget, 5);
    assert_eq!(a.cells.len(), b.cells.len());
    let find = |report: &SweepReport, label: &str| {
        report
            .cells
            .iter()
            .find(|o| o.cell.label == label)
            .map(|o| o.stats)
    };
    for outcome in &a.cells {
        let mirrored = find(&b, &outcome.cell.label).expect("reversed sweep covers the same cells");
        assert_eq!(
            outcome.stats, mirrored,
            "cell {} changed when the sweep was reordered",
            outcome.cell.label
        );
    }

    // Subsetting must not change results either: a single-strategy sweep
    // reproduces the full sweep's cells for that strategy.
    let subset = small_sweep().strategies(vec![StrategyKind::ScanThenStrike]);
    let c = run(&subset, &runner, budget, 5);
    assert_eq!(c.cells.len(), 4);
    for outcome in &c.cells {
        let full = find(&a, &outcome.cell.label).expect("full sweep has the cell");
        assert_eq!(outcome.stats, full);
    }
}

/// Contract 3: under scan-then-strike, growing the proxy fleet never
/// reduces the mean lifetime. The jump from 1 proxy (where capturing the
/// pad *is* the all-proxies condition) to 2+ is strict; beyond that the
/// lifetime is flat in theory, so adjacent cells are allowed Monte-Carlo
/// noise but no real regression.
#[test]
fn wider_fleets_never_reduce_lifetime_under_scan_then_strike() {
    let sweep = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 7,
        omega: 8.0,
        max_steps: 2_000,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .suspicions(vec![SuspicionPolicy { window: 16, threshold: 3 }])
    .fleets(vec![1, 2, 4, 6])
    .strategies(vec![StrategyKind::ScanThenStrike]);
    let budget = TrialBudget::TargetRse {
        target: 0.02,
        min_trials: 256,
        max_trials: 4_096,
        batch: 256,
    };
    let report = run(&sweep, &Runner::new(), budget, 0xF1EE7);
    let means: Vec<f64> = report.cells.iter().map(|o| o.estimate.mean).collect();
    for pair in means.windows(2) {
        assert!(
            pair[1] >= pair[0] * 0.95,
            "mean lifetime dropped with a wider fleet: {means:?}"
        );
    }
    assert!(
        means[1] > means[0] * 1.5,
        "the 1→2 proxy jump must be structural, not noise: {means:?}"
    );
}

/// The suspicion axis bites: a hair-trigger policy (low threshold, long
/// window) squeezes the paced attacker's κ and must not *shorten* the
/// defender's life compared to a lax policy, everything else equal.
#[test]
fn tighter_suspicion_never_helps_the_paced_attacker() {
    let sweep = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 7,
        omega: 8.0,
        max_steps: 2_000,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .suspicions(vec![
        SuspicionPolicy { window: 8, threshold: 7 }, // lax: κ = 0.09
        SuspicionPolicy::hair_trigger(),             // tight: κ ≈ 0.002
    ]);
    let budget = TrialBudget::TargetRse {
        target: 0.03,
        min_trials: 200,
        max_trials: 2_048,
        batch: 200,
    };
    let report = run(&sweep, &Runner::new(), budget, 0xBEE);
    let lax = report.cells[0].estimate.mean;
    let tight = report.cells[1].estimate.mean;
    assert!(
        tight >= lax * 0.95,
        "tight suspicion ({tight}) must not underperform lax ({lax})"
    );
    assert!(report.cells[1].kappa.unwrap() < report.cells[0].kappa.unwrap());
}

/// Every class × SO/PO × every adversary posture compiles to the
/// protocol cells this table names, label and seed. `compile` crosses
/// the strategy axis on S2 only, so S0 and S1 contribute one cell per
/// policy; the table holds through any refactor of how a protocol cell
/// carries its posture.
#[test]
fn compiled_protocol_cells_keep_their_labels_and_seeds() {
    let mut strategies = StrategyKind::ALL.to_vec();
    strategies.push(StrategyKind::OutageStrike);
    let cells = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 5,
        omega: 8.0,
        max_steps: 400,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .classes(vec![SystemClass::S0Smr, SystemClass::S1Pb, SystemClass::S2Fortress])
    .policies(Policy::ALL.to_vec())
    .strategies(strategies)
    .compile(GOLDEN_SEED);
    let got: Vec<(&str, u64)> = cells.iter().map(|c| (c.label.as_str(), c.seed)).collect();
    let want = [
        ("protocol S0 SO chi=2^5", 0xc372_6b49_9417_1b99),
        ("protocol S0 PO chi=2^5", 0x254b_ce9b_9e82_2f6a),
        ("protocol S1 SO chi=2^5", 0x4e39_0340_5267_d7aa),
        ("protocol S1 PO chi=2^5", 0x92e4_9958_bdee_bc59),
        ("S2 SO chi=2^5 w=64/t=9 np=3 paced", 0x791f_fe62_1ed8_d25b),
        ("S2 SO chi=2^5 w=64/t=9 np=3 scan_strike", 0xea8e_d884_88bd_45f6),
        ("S2 SO chi=2^5 w=64/t=9 np=3 burst", 0xddc5_87f5_44a3_2028),
        ("S2 SO chi=2^5 w=64/t=9 np=3 adaptive", 0x5854_c430_327a_965b),
        ("S2 SO chi=2^5 w=64/t=9 np=3 sybil x4", 0xd01b_ce79_f362_3365),
        ("S2 SO chi=2^5 w=64/t=9 np=3 outage_strike", 0x48ae_b68a_ac32_23bf),
        ("S2 PO chi=2^5 w=64/t=9 np=3 paced", 0xa79a_6a3c_d8e1_e2ab),
        ("S2 PO chi=2^5 w=64/t=9 np=3 scan_strike", 0x3b09_ad1a_f4b2_22fa),
        ("S2 PO chi=2^5 w=64/t=9 np=3 burst", 0x4de6_d985_9a64_c8c4),
        ("S2 PO chi=2^5 w=64/t=9 np=3 adaptive", 0xbee7_3e62_1d1f_a683),
        ("S2 PO chi=2^5 w=64/t=9 np=3 sybil x4", 0xae9e_fbf4_8af7_6701),
        ("S2 PO chi=2^5 w=64/t=9 np=3 outage_strike", 0xc4c7_ccf5_b858_7a8a),
    ];
    assert_eq!(got, want);
}

/// The posture is the experiment's own field and counts on S2 only: on
/// S0 and S1 two experiments that differ only in `strategy` are the same
/// cell, and on S2 a hand-built `ScenarioSpec::Protocol` is exactly the
/// cell `compile` makes at that coordinate.
#[test]
fn the_posture_counts_on_the_fortified_class_only() {
    for class in [SystemClass::S0Smr, SystemClass::S1Pb] {
        let paced = ProtocolExperiment::new(class, Policy::StartupOnly);
        let burst = ProtocolExperiment { strategy: StrategyKind::Burst, ..paced };
        assert_eq!(burst.adversary(), None);
        let a = SweepCell::of(ScenarioSpec::Protocol(paced), 7);
        let b = SweepCell::of(ScenarioSpec::Protocol(burst), 7);
        assert_eq!((&a.label, a.seed), (&b.label, b.seed), "{class:?}");
        assert_eq!(b.spec.kappa(), None);
    }
    let sweep = small_sweep();
    let cells = sweep.compile(GOLDEN_SEED);
    assert_eq!(cells.len(), 8);
    for cell in cells {
        let ScenarioSpec::Protocol(e) = cell.spec else {
            panic!("{} is not a protocol cell", cell.label);
        };
        assert_eq!(e.adversary(), Some(e.strategy));
        let hand = SweepCell::of(
            ScenarioSpec::Protocol(ProtocolExperiment {
                suspicion: e.suspicion,
                np: e.np,
                strategy: e.strategy,
                ..sweep.base
            }),
            GOLDEN_SEED,
        );
        assert_eq!((&hand.label, hand.seed), (&cell.label, cell.seed));
        assert_eq!(hand.spec.kappa(), cell.spec.kappa());
    }
}
