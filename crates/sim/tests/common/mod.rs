//! Shared fixtures for the campaign/scheduler integration suites — one
//! definition of the small pinned sweep, so the golden-file tests and the
//! scheduler bit-identity tests can never drift onto different cells, and
//! one golden-file comparison for the four sweep-golden suites, and one
//! reading of a caught panic for the suites that assert a trial's panic
//! reaches the caller.

// Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_model::params::Policy;
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::scenario::SweepSpec;

/// Seed of the pinned golden sweep.
pub const GOLDEN_SEED: u64 = 0x90_1D;

/// Path of the committed golden CSV.
pub const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_small.csv"
);

/// The text of a panic payload caught by `catch_unwind`, whichever way
/// the panic was raised.
pub fn panic_text(cause: Box<dyn std::any::Any + Send>) -> String {
    cause
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Compares `actual` with the committed `tests/golden/<name>.csv`,
/// rewriting the file first when `UPDATE_GOLDEN` is set.
pub fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        actual, golden,
        "{name} drifted from the golden pin; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The small sweep pinned by the golden file: 2 suspicion policies × 2
/// fleet sizes × 2 strategies at 2⁵ keys, 400-step cap.
pub fn small_sweep() -> SweepSpec {
    SweepSpec::new(ProtocolExperiment {
        entropy_bits: 5,
        omega: 8.0,
        max_steps: 400,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .suspicions(vec![
        SuspicionPolicy { window: 8, threshold: 3 },
        SuspicionPolicy { window: 32, threshold: 2 },
    ])
    .fleets(vec![1, 3])
    .strategies(vec![StrategyKind::PacedBelowThreshold, StrategyKind::ScanThenStrike])
}
