//! STEAL SMOKE — the work-stealing determinism gate for CI.
//!
//! Runs the network-fault sweep and the default campaign sweep
//! (`scenario::paper_default_sweep`) three ways each:
//!
//! 1. a 1-thread scheduler — the bit-exact serial reference;
//! 2. an 8-worker pool under the normal queue schedule;
//! 3. an 8-worker pool in **forced-steal** mode
//!    ([`Runner::with_forced_steal`]): no chunk reaches a worker via
//!    the queue, every one is claimed off the steal board — the most
//!    adversarial schedule the pool can produce.
//!
//! All three reports must be bit-identical (stealing splits a
//! straggler's remaining trial range at a chunk boundary, so it changes
//! who executes a chunk, never its seeds, range or merge slot), and the
//! forced runs must report a nonzero steal count — proving the steal
//! path actually executed the work. The binary exits non-zero on any
//! divergence; CI greps the emitted JSON for the identity flags.
//!
//! ```text
//! cargo run --release -p fortress-bench --bin steal_smoke [out_path]
//! ```

use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{fault_sweep, paper_default_sweep, SweepCell, SweepScheduler};
use std::time::Instant;

/// Adaptive per-cell budget, matching the campaign binary: adaptive
/// stopping makes the trial schedule itself depend on merged stats, so
/// a steal that perturbed any merge would also perturb the budget —
/// strictly harder to pass than a fixed count.
const BUDGET: TrialBudget = TrialBudget::TargetRse {
    target: 0.05,
    min_trials: 64,
    max_trials: 512,
    batch: 64,
};

/// Runs `cells` under the serial, pooled and forced-steal schedules,
/// requires the three reports to be bit-identical and the forced run to
/// have stolen, and returns `(steals, forced-run wall seconds)`.
fn three_way(name: &str, cells: &[SweepCell]) -> (u64, f64) {
    let serial = SweepScheduler::new(&Runner::with_threads(1), BUDGET).run(cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), BUDGET).run(cells);
    let forced_runner = Runner::with_threads(8).with_forced_steal(true);
    let start = Instant::now();
    let forced = SweepScheduler::new(&forced_runner, BUDGET).run(cells);
    let wall = start.elapsed().as_secs_f64();
    assert!(
        serial.to_json() == pooled.to_json() && serial.to_json() == forced.to_json(),
        "{name} diverged between serial, pooled and forced-steal schedules"
    );
    let steals = forced_runner.steals();
    assert!(
        steals > 0,
        "forced-steal mode must route {name} chunks through the steal board"
    );
    (steals, wall)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_steal.json".to_string());
    let base_seed = 0xF0_47;
    let fault_cells = fault_sweep(base_seed);
    let (fault_steals, forced_wall) = three_way("fault sweep", &fault_cells);
    let campaign_cells = paper_default_sweep(base_seed);
    let (campaign_steals, g_forced_wall) = three_way("default campaign sweep", &campaign_cells);

    // `three_way` panics on any divergence, so reaching here means both
    // identities held.
    let json = format!(
        "{{\n  \"workload\": \"serial vs 8-thread vs forced-steal, fault sweep + default campaign sweep, adaptive rse<=0.05\",\n  \
           \"fault_cells\": {},\n  \
           \"fault_forced_wall_s\": {forced_wall:.4},\n  \
           \"fault_steals\": {fault_steals},\n  \
           \"fault_three_way_identical\": true,\n  \
           \"campaign_cells\": {},\n  \
           \"campaign_forced_wall_s\": {g_forced_wall:.4},\n  \
           \"campaign_steals\": {campaign_steals},\n  \
           \"campaign_three_way_identical\": true\n}}\n",
        fault_cells.len(),
        campaign_cells.len(),
    );
    print!("{json}");
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("[written {out_path}]"),
        Err(e) => {
            eprintln!("[could not write {out_path}: {e}]");
            std::process::exit(1);
        }
    }
}
