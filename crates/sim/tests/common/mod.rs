//! Shared fixtures for the campaign/scheduler integration suites — one
//! definition of the small pinned sweep, so the golden-file tests and the
//! scheduler bit-identity tests can never drift onto different cells.

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
