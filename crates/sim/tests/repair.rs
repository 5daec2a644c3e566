//! SMR repair economics — the `OutageSpec::Smr` crash schedule on S0 —
//! asserted end-to-end:
//!
//! 1. **Golden pin** — the repair slice (a vacuous coordinate, a single
//!    leader crash, and a two-crash schedule under both the staggered
//!    and the storm recovery disciplines) reproduces a committed golden
//!    CSV bit-for-bit through the cell-parallel scheduler, at 1 and 8
//!    runner threads. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p fortress-sim --test repair`.
//! 2. **Passthrough** — an explicit `.outages(vec![None])` axis on the S0
//!    template compiles to the same labels and content seeds as a sweep
//!    that never mentions the axis; every crash schedule, PB or SMR,
//!    reaches exactly the classes it applies to under a pinned label and
//!    seed; and the campaign golden (whose cells all carry
//!    `OutageSpec::None`) reproduces byte-for-byte through today's
//!    scheduler: adding the axis changed no legacy bits.
//! 3. **Directionality** — a crashed S0 leader recovers through the
//!    VSR view-change protocol, so the measured view-change latency
//!    sits at the SMR view timer (30 steps), not the PB failover
//!    timeout (20); and correlated bring-ups (a recovery storm) cost
//!    strictly more downtime than staggered recoveries of the *same*
//!    crash schedule on paired trial seeds — divergence-priced state
//!    transfer is what makes the difference.

mod common;

use common::{
    assert_golden, small_sweep, GOLDEN_PATH as CAMPAIGN_GOLDEN, GOLDEN_SEED as CAMPAIGN_SEED,
};
use fortress_core::system::SystemClass;
use fortress_sim::outage::OutageSpec;
use fortress_sim::protocol_mc::{run_trial, ProtocolExperiment};
use fortress_sim::runner::{trial_seed, Runner, TrialBudget};
use fortress_sim::scenario::{repair_base, repair_sweep, SweepScheduler, SweepSpec};
use fortress_sim::stats::Column;

/// Seed of the pinned repair sweep.
const GOLDEN_SEED: u64 = 0x0005_AA2E;

/// Contract 1: the repair slice is bit-identical serial vs cell-parallel
/// and pinned by a committed golden file.
#[test]
fn repair_sweep_matches_golden_file_at_any_thread_count() {
    let cells = repair_sweep(GOLDEN_SEED);
    assert!(
        cells.iter().any(|c| c.label.contains("repair=smr-stag:1"))
            && cells.iter().any(|c| c.label.contains("repair=smr-stag:2"))
            && cells.iter().any(|c| c.label.contains("repair=smr-storm:2")),
        "the slice must carry one-crash, staggered and storm schedules: {:?}",
        cells.iter().map(|c| c.label.clone()).collect::<Vec<_>>()
    );
    assert!(
        cells.iter().any(|c| !c.label.contains("repair=")),
        "the slice must keep a vacuous coordinate as its passthrough control"
    );
    let budget = TrialBudget::Fixed(16);
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "repair sweep diverged between 1 and 8 threads"
    );
    // Repair-bearing cells armed the SMR accounting, so the repair
    // columns are in; the vacuous cell shows `-` there.
    let csv = serial.to_table().to_csv();
    let header = csv.lines().next().unwrap();
    assert!(
        header.contains("view_changes") && header.contains("storm_queue_depth"),
        "repair columns must surface in a repair-bearing sweep: {header}"
    );
    assert_golden("repair_small", &csv);
}

/// Contract 2a: an explicit `.outages(vec![None])` axis on the S0
/// template is vacuous — the compiled cells carry the same labels and
/// content seeds as a sweep that never mentions the axis.
#[test]
fn explicit_none_repair_axis_is_vacuous() {
    let base = repair_base();
    let implicit = SweepSpec::new(base).compile(0xFACE);
    let explicit = SweepSpec::new(base)
        .outages(vec![OutageSpec::None])
        .compile(0xFACE);
    assert_eq!(implicit.len(), explicit.len());
    for (a, b) in implicit.iter().zip(&explicit) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seed, b.seed);
        assert!(!a.label.contains("repair="), "None must not label cells");
    }
}

/// Contract 2c: every crash schedule, PB outage or SMR repair, over all
/// three classes compiles to the pinned `(label, seed)` list — which
/// schedule reaches which class, in what order, under which label and
/// content seed.
#[test]
fn crash_schedules_compile_to_the_pinned_cells() {
    let smr = |crashes, storm| OutageSpec::Smr {
        crashes,
        crash_at: 40,
        stagger: 60,
        downtime: 30,
        bandwidth: 1,
        storm,
    };
    let cells = SweepSpec::new(repair_base())
        .classes(vec![SystemClass::S0Smr, SystemClass::S1Pb, SystemClass::S2Fortress])
        .outages(vec![
            OutageSpec::None,
            OutageSpec::Periodic { period: 40, downtime: 25 },
            OutageSpec::Random { rate: 0.01, downtime: 25 },
            OutageSpec::StrikeThenCrash { downtime: 25 },
            smr(1, false),
            smr(2, true),
        ])
        .compile(0x0C2A_5400);
    let got: Vec<(&str, u64)> = cells.iter().map(|c| (c.label.as_str(), c.seed)).collect();
    assert_eq!(got, PINNED_CRASH_CELLS);
}

/// The cells [`crash_schedules_compile_to_the_pinned_cells`] compiles.
const PINNED_CRASH_CELLS: &[(&str, u64)] = &[
    ("protocol S0 SO chi=2^12", 0x612aea79621665ca),
    ("protocol S0 SO chi=2^12 repair=smr-stag:1@40+60/30bw1", 0xfebead642d3a23dd),
    ("protocol S0 SO chi=2^12 repair=smr-storm:2@40+60/30bw1", 0x158df8b526005a64),
    ("protocol S1 SO chi=2^12", 0x52289f6dfa2984b5),
    ("protocol S1 SO chi=2^12 out=periodic:40/25", 0x6b90183d912ddc96),
    ("protocol S1 SO chi=2^12 out=poisson:0.01/25", 0xc8c3a3bc79fea1cf),
    ("protocol S1 SO chi=2^12 out=strike:25", 0x1bb366f11fd86ccf),
    ("S2 SO chi=2^12 w=64/t=9 np=3 paced", 0xe148f64a29280f20),
    ("S2 SO chi=2^12 w=64/t=9 np=3 paced out=periodic:40/25", 0x2fb4173975899f41),
    ("S2 SO chi=2^12 w=64/t=9 np=3 paced out=poisson:0.01/25", 0x404e05db3480440f),
    ("S2 SO chi=2^12 w=64/t=9 np=3 paced out=strike:25", 0xbec3cdbee3f5b910),
];

/// Contract 2b: the campaign golden's cells all sit on the vacuous
/// crash-schedule coordinate, and re-running them through today's
/// scheduler — SMR schedules compiled in — reproduces the pre-axis
/// golden byte-for-byte.
#[test]
fn none_repair_cells_reproduce_the_campaign_golden() {
    let sweep = small_sweep();
    assert!(
        sweep.base.outage.is_none() && sweep.outages.iter().all(OutageSpec::is_none),
        "the pinned sweep must run on the no-crash coordinate"
    );
    let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(16))
        .run(&sweep.compile(CAMPAIGN_SEED));
    let golden = std::fs::read_to_string(CAMPAIGN_GOLDEN)
        .expect("campaign golden missing — regenerate via the campaign suite");
    assert_eq!(
        report.to_table().to_csv(),
        golden,
        "OutageSpec::None cells must reproduce the pre-axis campaign golden"
    );
}

/// Contract 3a (the acceptance directional test on latency): an S0
/// leader crash recovers through the view-change protocol, whose
/// detection window is the SMR `leader_timeout` (30 steps) — measurably
/// distinct from the PB failover timeout (20 steps). If crash handling
/// ever regressed to the PB path, this latency would land near 20.
#[test]
fn view_change_latency_tracks_the_view_timer_not_the_pb_timeout() {
    let exp = ProtocolExperiment {
        outage: OutageSpec::Smr {
            crashes: 1,
            crash_at: 40,
            stagger: 60,
            downtime: 30,
            bandwidth: 1,
            storm: false,
        },
        ..repair_base()
    };
    let trials = 16;
    let (mut latency_sum, mut latency_n) = (0.0, 0u32);
    for i in 0..trials {
        let point = run_trial(&exp, trial_seed(0x4E9A_0001, i)).avail;
        assert!(point[Column::ViewChanges].is_some(), "repair cells measure the repair group");
        if let Some(latency) = point[Column::ViewChangeLatency] {
            latency_sum += latency;
            latency_n += 1;
        }
    }
    assert!(latency_n >= trials as u32 / 2, "most trials complete a view change");
    let mean = latency_sum / f64::from(latency_n);
    assert!(
        mean > 25.0,
        "view-change latency must track leader_timeout = 30, not the \
         20-step PB failover timeout: got {mean:.1}"
    );
    assert!(
        mean < 45.0,
        "view-change latency should sit near leader_timeout = 30: got {mean:.1}"
    );
}

/// Contract 3b (the acceptance directional test on storm economics): the
/// same two-crash schedule costs strictly more downtime when every
/// bring-up lands together (recovery storm) than when each machine
/// rejoins on its own clock — the aligned rejoiners hold the quorum
/// hostage while their accumulated divergence drains through the shared
/// bandwidth budget head-of-line.
#[test]
fn recovery_storm_downtime_strictly_exceeds_staggered_recovery() {
    let schedule = |storm| OutageSpec::Smr {
        crashes: 2,
        crash_at: 40,
        stagger: 60,
        downtime: 30,
        bandwidth: 1,
        storm,
    };
    let base = repair_base();
    let staggered = ProtocolExperiment { outage: schedule(false), ..base };
    let storm = ProtocolExperiment { outage: schedule(true), ..base };
    let trials = 16;
    let (mut down_stag, mut down_storm) = (0.0, 0.0);
    let (mut queue_stag, mut queue_storm) = (0.0f64, 0.0f64);
    for i in 0..trials {
        let seed = trial_seed(0x4E9A_0002, i);
        let s = run_trial(&staggered, seed).avail;
        let w = run_trial(&storm, seed).avail;
        down_stag += s[Column::Downtime].unwrap();
        down_storm += w[Column::Downtime].unwrap();
        queue_stag = queue_stag.max(s[Column::StormQueueDepth].unwrap());
        queue_storm = queue_storm.max(w[Column::StormQueueDepth].unwrap());
    }
    let (down_stag, down_storm) = (down_stag / trials as f64, down_storm / trials as f64);
    assert!(
        down_storm > down_stag,
        "correlated bring-ups must cost strictly more downtime than \
         staggered recovery: storm {down_storm:.3} vs staggered {down_stag:.3}"
    );
    assert!(
        queue_storm > queue_stag,
        "only the storm contends for transfer bandwidth: storm peak queue \
         {queue_storm} vs staggered {queue_stag}"
    );
}
