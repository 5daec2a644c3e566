//! The sweep scheduler's contracts, asserted end-to-end:
//!
//! 1. **Golden equivalence** — the cell-parallel `SweepScheduler`
//!    reproduces the committed campaign golden CSV bit-for-bit, at 1
//!    and 8 runner threads — i.e. running cells side by side through
//!    one loop changed no physics and no floating-point reduction order.
//! 2. **Reference equivalence** — scheduler output equals the
//!    cell-at-a-time `run_scenario_measured` reference path exactly,
//!    under fixed *and* adaptive budgets.
//! 3. **Axis growth** — a sweep spanning SO/PO and the `SybilPaced`
//!    strategy is thread-count invariant, and its `CrossCheck` reads
//!    the abstract model at each rate-disciplined cell.

mod common;

use common::{panic_text, small_sweep, GOLDEN_PATH, GOLDEN_SEED};
use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_model::params::Policy;
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{
    run_scenario_measured, CrossCheck, SweepCell, SweepOutcome, SweepScheduler,
    SweepSpec, CELL_CHUNK,
};

/// Contract 1: the scheduler reproduces the committed golden file at
/// more than one thread count.
#[test]
fn scheduler_reproduces_the_campaign_golden_file() {
    let cells = small_sweep().compile(GOLDEN_SEED);
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — regenerate via the campaign suite");
    for threads in [1, 8] {
        let report = SweepScheduler::new(&Runner::with_threads(threads), TrialBudget::Fixed(16))
            .run(&cells);
        assert_eq!(
            report.to_table().to_csv(),
            golden,
            "scheduler at {threads} threads diverged from the golden pin"
        );
    }
}

/// Contract 2: scheduler output is bit-identical to the serial
/// cell-at-a-time reference path, fixed and adaptive budgets alike.
#[test]
fn scheduler_matches_the_cell_at_a_time_reference() {
    let cells = small_sweep().compile(7);
    let runner = Runner::with_threads(4);
    // One thread, every trial on the caller's: a multi-threaded
    // `run_scenario_measured` is a one-cell schedule, the one loop
    // compared with itself.
    let reference_runner = Runner::with_threads(1).with_chunk(CELL_CHUNK);
    for budget in [
        TrialBudget::Fixed(12),
        TrialBudget::TargetRse {
            target: 0.08,
            min_trials: 8,
            max_trials: 64,
            batch: 8,
        },
    ] {
        let scheduled = SweepScheduler::new(&runner, budget).run(&cells);
        for (cell, outcome) in cells.iter().zip(&scheduled.cells) {
            let (stats, avail) =
                run_scenario_measured(cell.spec, &reference_runner, budget, cell.seed);
            let reference = SweepOutcome::measured(cell, stats, avail);
            assert_eq!(
                outcome.stats, reference.stats,
                "cell {} diverged from the reference path under {budget:?}",
                cell.label
            );
            assert_eq!(outcome.avail, reference.avail);
            assert_eq!(outcome.censored, reference.censored);
        }
    }
}

/// A panicking trial inside a *cell batch* fails the whole sweep with
/// the trial's own message, at any thread count — never a hang, never a
/// report that silently drops the poisoned cell, and never a message
/// about the runner instead of the cause.
#[test]
fn poisoned_cell_batch_fails_the_sweep_fast() {
    // np = 0 makes the assembly panic inside every trial of that cell:
    // a realistic poisoned cell (bad axis value), not a bespoke hook.
    let poisoned = ProtocolExperiment {
        entropy_bits: 5,
        np: 0,
        max_steps: 100,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    };
    let healthy = ProtocolExperiment {
        entropy_bits: 5,
        max_steps: 100,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    };
    let cells = vec![
        SweepCell::of(healthy, 3),
        SweepCell::of(poisoned, 3),
    ];
    for threads in [1, 2, 8] {
        let outcome = std::panic::catch_unwind(|| {
            SweepScheduler::new(&Runner::with_threads(threads), TrialBudget::Fixed(8)).run(&cells)
        });
        let message = match outcome {
            Err(cause) => panic_text(cause),
            Ok(report) => panic!(
                "a poisoned cell batch must fail the sweep, got a report of {} cells",
                report.cells.len()
            ),
        };
        assert!(
            message.contains("fleet sizes must be at least 1"),
            "the trial's own cause must reach the caller at {threads} threads, got: {message}"
        );
    }
}

/// Contract 3: the grown axis space — PO policy cells and the Sybil
/// adversary — is thread-count invariant through the scheduler, and the
/// cross-check reads the abstract model at every rate-disciplined cell.
#[test]
fn grown_axes_are_thread_invariant_and_cross_checked() {
    let cells = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 5,
        omega: 8.0,
        max_steps: 400,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .policies(Policy::ALL.to_vec())
    .suspicions(vec![SuspicionPolicy { window: 8, threshold: 3 }])
    .strategies(vec![
        StrategyKind::PacedBelowThreshold,
        StrategyKind::SybilPaced { identities: 4 },
        StrategyKind::ScanThenStrike,
    ])
    .compile(0xA7E5);
    assert_eq!(cells.len(), 6, "2 policies × 3 strategies");

    let budget = TrialBudget::TargetRse {
        target: 0.1,
        min_trials: 8,
        max_trials: 40,
        batch: 8,
    };
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let parallel = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "sweep diverged between 1 and 8 threads"
    );

    let check = CrossCheck::of(&parallel);
    // paced + sybil per policy have a κ; scan-then-strike does not.
    assert_eq!(check.rows.len(), 4);
    for row in &check.rows {
        assert!(row.predicted.is_finite() && row.predicted > 0.0, "{row:?}");
        assert!(row.ratio.is_finite() && row.ratio > 0.0, "{row:?}");
    }
    // The Sybil fleet's κ is a strict multiple of the paced κ at the
    // same coordinate, so its predicted lifetime must be shorter.
    let paced_so = &check.rows[0];
    let sybil_so = &check.rows[1];
    assert!(sybil_so.kappa > paced_so.kappa);
    assert!(sybil_so.predicted < paced_so.predicted);
}
