//! Steal-split determinism, pinned against the committed goldens.
//!
//! The worker pool's steal board lets an idle worker split a straggler
//! batch's remaining trial range at a chunk boundary; forced-steal mode
//! ([`Runner::with_forced_steal`]) routes *every* chunk through that
//! path, making it the most adversarial schedule the pool can produce.
//! These tests assert the invariant the feature is built on: stealing
//! changes who executes a chunk, never its bits — the forced-steal
//! reports reproduce the committed `fault_small.csv` and
//! `campaign_small.csv` goldens byte-for-byte, and the steal counter
//! proves the path actually ran.

mod common;

use common::{small_sweep, GOLDEN_PATH as CAMPAIGN_GOLDEN, GOLDEN_SEED as CAMPAIGN_SEED};
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{fault_sweep, SweepScheduler};

/// Seed of the pinned fault sweep (`tests/faults.rs`).
const FAULT_SEED: u64 = 0x000F_A017;

/// Path of the committed fault-sweep golden CSV.
const FAULT_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fault_small.csv");

#[test]
fn forced_steals_reproduce_the_fault_golden_byte_for_byte() {
    let runner = Runner::with_threads(8).with_forced_steal(true);
    let report =
        SweepScheduler::new(&runner, TrialBudget::Fixed(16)).run(&fault_sweep(FAULT_SEED));
    let golden = std::fs::read_to_string(FAULT_GOLDEN)
        .expect("fault golden missing — regenerate via tests/faults.rs with UPDATE_GOLDEN=1");
    assert_eq!(
        report.to_table().to_csv(),
        golden,
        "a forced-steal schedule drifted from the fault golden"
    );
    assert!(
        runner.steals() > 0,
        "forced-steal mode must execute chunks via the steal path"
    );
}

#[test]
fn forced_steals_reproduce_the_campaign_golden_byte_for_byte() {
    let runner = Runner::with_threads(8).with_forced_steal(true);
    let report = SweepScheduler::new(&runner, TrialBudget::Fixed(16))
        .run(&small_sweep().compile(CAMPAIGN_SEED));
    let golden = std::fs::read_to_string(CAMPAIGN_GOLDEN)
        .expect("campaign golden missing — regenerate via the campaign suite");
    assert_eq!(
        report.to_table().to_csv(),
        golden,
        "a forced-steal schedule drifted from the campaign golden"
    );
    assert!(
        runner.steals() > 0,
        "forced-steal mode must execute chunks via the steal path"
    );
}

#[test]
fn forced_steals_match_normal_pooled_execution_under_an_adaptive_budget() {
    // Adaptive budgets make the trial schedule depend on merged stats;
    // stealing must not perturb those either. Three-way: serial vs
    // pooled vs forced-steal.
    let budget = TrialBudget::TargetRse {
        target: 0.05,
        min_trials: 16,
        max_trials: 128,
        batch: 16,
    };
    let cells = fault_sweep(FAULT_SEED);
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    let forced = SweepScheduler::new(&Runner::with_threads(8).with_forced_steal(true), budget)
        .run(&cells);
    assert_eq!(serial.to_json(), pooled.to_json(), "pooled diverged from serial");
    assert_eq!(serial.to_json(), forced.to_json(), "forced-steal diverged from serial");
}
