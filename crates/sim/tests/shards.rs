//! The multi-tenant shard axis, asserted end-to-end:
//!
//! 1. **Golden pin** — the shard slice (a vacuous coordinate, both
//!    cross-shard placements on a 3-group fleet, and a concentrated
//!    fleet with a mid-trial rebalance) reproduces a committed golden
//!    CSV bit-for-bit through the cell-parallel scheduler, at 1 and 8
//!    runner threads. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p fortress-sim --test shards`.
//! 2. **Passthrough** — an explicit `.shards(vec![None])` axis compiles
//!    to the same labels and content seeds as a sweep that never
//!    mentions the axis, and the campaign golden (whose cells all carry
//!    `ShardSpec::None`) reproduces byte-for-byte through today's
//!    scheduler: adding the axis changed no legacy bits.
//! 3. **Directionality** — concentrating the probe budget on the
//!    hottest shard ends that shard's lifetime strictly sooner than
//!    spreading the same budget thin, on paired trial seeds (the
//!    acceptance directional test), and the sweep-level
//!    [`SweepReport::hot_shard_lifetime_ratio`] lands below 1.
//! 4. **A proactive fleet can fall** — a sharded PO cell records its
//!    falls like the unsharded PO cell does (each group's fall is read
//!    off `Stack::end_step`'s return value, before the end-of-step
//!    re-randomization clears the foothold), at 1 and 8 threads alike.
//!
//! [`SweepReport::hot_shard_lifetime_ratio`]:
//! fortress_sim::scenario::SweepReport::hot_shard_lifetime_ratio

mod common;

use common::{
    assert_golden, small_sweep, GOLDEN_PATH as CAMPAIGN_GOLDEN, GOLDEN_SEED as CAMPAIGN_SEED,
};
use fortress_attack::shard::ShardPlacement;
use fortress_model::params::Policy;
use fortress_sim::fleet_mc::ShardSpec;
use fortress_sim::protocol_mc::{run_trial, ProtocolExperiment};
use fortress_sim::runner::{trial_seed, Runner, TrialBudget};
use fortress_sim::scenario::{shard_base, shard_sweep, SweepScheduler, SweepSpec};
use fortress_sim::stats::Column;

/// Seed of the pinned shard sweep.
const GOLDEN_SEED: u64 = 0x0005_AA2D;

/// Contract 1: the shard slice is bit-identical serial vs cell-parallel
/// and pinned by a committed golden file.
#[test]
fn shard_sweep_matches_golden_file_at_any_thread_count() {
    let cells = shard_sweep(GOLDEN_SEED);
    assert!(
        cells.iter().any(|c| c.label.contains("shard=g3") && c.label.contains("concentrate"))
            && cells.iter().any(|c| c.label.contains("spread"))
            && cells.iter().any(|c| c.label.contains("reb@6")),
        "the slice must carry both placements and a rebalance: {:?}",
        cells.iter().map(|c| c.label.clone()).collect::<Vec<_>>()
    );
    assert!(
        cells.iter().any(|c| !c.label.contains("shard=")),
        "the slice must keep a vacuous coordinate as its passthrough control"
    );
    let budget = TrialBudget::Fixed(16);
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "shard sweep diverged between 1 and 8 threads"
    );
    // Sharded cells measured fleet observables, so the shard columns are
    // in; the vacuous cell shows `-` there.
    let csv = serial.to_table().to_csv();
    let header = csv.lines().next().unwrap();
    assert!(
        header.contains("hot_lifetime") && header.contains("moved_requests"),
        "shard columns must surface in a shard-bearing sweep: {header}"
    );
    assert_golden("shard_small", &csv);
}

/// Contract 2a: an explicit `.shards(vec![None])` axis is vacuous — the
/// compiled cells carry the same labels and content seeds as a sweep
/// that never mentions the axis.
#[test]
fn explicit_none_shard_axis_is_vacuous() {
    let base = shard_base();
    let implicit = SweepSpec::new(base).compile(0xFACE);
    let explicit = SweepSpec::new(base)
        .shards(vec![ShardSpec::None])
        .compile(0xFACE);
    assert_eq!(implicit.len(), explicit.len());
    for (a, b) in implicit.iter().zip(&explicit) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seed, b.seed);
        assert!(!a.label.contains("shard="), "None must not label cells");
    }
}

/// Contract 2b: the campaign golden's cells all sit on the vacuous
/// shard coordinate, and re-running them through today's scheduler —
/// shard axis compiled in — reproduces the pre-axis golden
/// byte-for-byte.
#[test]
fn none_shard_cells_reproduce_the_campaign_golden() {
    let sweep = small_sweep();
    assert!(
        sweep.base.shard.is_none(),
        "the pinned sweep must run on the no-shard coordinate"
    );
    let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(16))
        .run(&sweep.compile(CAMPAIGN_SEED));
    let golden = std::fs::read_to_string(CAMPAIGN_GOLDEN)
        .expect("campaign golden missing — regenerate via the campaign suite");
    assert_eq!(
        report.to_table().to_csv(),
        golden,
        "ShardSpec::None cells must reproduce the pre-axis campaign golden"
    );
}

/// Contract 3 (the acceptance directional test): at matched trial
/// seeds, concentrating the probe budget on the hottest shard ends that
/// shard strictly sooner on average than spreading it across the
/// fleet — the per-group rate is `Nω` versus `ω`, and the hottest-shard
/// lifetime tracks it.
#[test]
fn concentrating_on_the_hottest_shard_shortens_its_lifetime() {
    let spec = |placement| ShardSpec::Sharded {
        shards: 3,
        zipf_s: 1.2,
        placement,
        rebalance_at: 0,
    };
    let base = shard_base();
    let conc = ProtocolExperiment { shard: spec(ShardPlacement::Concentrate), ..base };
    let spread = ProtocolExperiment { shard: spec(ShardPlacement::Spread), ..base };
    let trials = 32;
    let (mut hot_conc, mut hot_spread) = (0.0, 0.0);
    for i in 0..trials {
        let seed = trial_seed(0x5AAD_D172, i);
        let c = run_trial(&conc, seed);
        let s = run_trial(&spread, seed);
        hot_conc += c.avail.unwrap()[Column::HotLifetime].unwrap();
        hot_spread += s.avail.unwrap()[Column::HotLifetime].unwrap();
    }
    let (hot_conc, hot_spread) = (hot_conc / trials as f64, hot_spread / trials as f64);
    assert!(
        hot_conc < hot_spread,
        "a concentrated probe budget must end the hottest shard sooner: \
         concentrate {hot_conc:.1} vs spread {hot_spread:.1}"
    );
}

/// Contract 3 at the report level: the pinned slice's
/// concentrate/spread ratio of hottest-shard lifetimes lands below 1.
#[test]
fn report_hot_shard_lifetime_ratio_favors_spreading() {
    let cells = shard_sweep(GOLDEN_SEED);
    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(16)).run(&cells);
    let ratio = report
        .hot_shard_lifetime_ratio()
        .expect("the slice carries both placements");
    assert!(
        ratio < 1.0,
        "concentrate/spread hottest-shard lifetime ratio must sit below 1: {ratio:.3}"
    );
}

/// Contract 4: under PO the end-of-step re-randomization clears every
/// foothold, so a fall exists only in `Stack::end_step`'s return value.
/// A loop that polls the groups afterwards reads every sharded PO trial
/// as censored at the cap with no group fallen — resistance claimed
/// vacuously. On paired trial seeds the concentrated fleet (the whole ω
/// on one group) must instead live about as long as the unsharded cell,
/// no sharded trial may censor, and every trial must count a fallen
/// group.
#[test]
fn a_proactive_fleet_falls_like_a_proactive_stack() {
    let base = ProtocolExperiment { policy: Policy::Proactive, entropy_bits: 6, ..shard_base() };
    let sharded = |placement| ShardSpec::Sharded {
        shards: 3,
        zipf_s: 1.2,
        placement,
        rebalance_at: 0,
    };
    let trials = 32;
    let mean_lifetime = |shard: ShardSpec| {
        let exp = ProtocolExperiment { shard, ..base };
        let mut total = 0.0;
        for i in 0..trials {
            let m = run_trial(&exp, trial_seed(0x5AAD, i));
            if !shard.is_none() {
                let label = shard.label();
                assert!(m.lifetime < base.max_steps, "{label}: trial {i} censored at the cap");
                let fallen = m.avail.unwrap()[Column::GroupsFallen].unwrap();
                assert!(fallen >= 1.0, "{label}: trial {i} ended with no group fallen");
            }
            total += m.lifetime as f64;
        }
        total / trials as f64
    };
    let unsharded = mean_lifetime(ShardSpec::None);
    let conc = mean_lifetime(sharded(ShardPlacement::Concentrate));
    // Run for the per-trial assertions inside; its mean is not compared.
    mean_lifetime(sharded(ShardPlacement::Spread));
    assert!(
        unsharded < base.max_steps as f64 / 2.0,
        "the unsharded PO cell must fall well inside the window: {unsharded:.1}"
    );
    assert!(
        conc < 2.0 * unsharded && unsharded < 2.0 * conc,
        "one group under the whole budget is the unsharded cell: \
         concentrate {conc:.1} vs unsharded {unsharded:.1}"
    );

    let cells = SweepSpec::new(base)
        .policies(Policy::ALL.to_vec())
        .shards(ShardPlacement::ALL.map(sharded).to_vec())
        .compile(0x5AAD);
    assert_eq!(cells.len(), 4, "2 policies × 2 placements");
    let budget = TrialBudget::Fixed(16);
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "PO × shard sweep diverged between 1 and 8 threads"
    );
}
