//! CAMPAIGN — the protocol-level adversary scenario sweep, plus the CI
//! smoke artifact `BENCH_campaign.json`.
//!
//! Runs the default sweep (`scenario::paper_default_sweep`: the SO
//! suspicion × fleet × strategy grid, Sybil included, plus a PO-policy
//! slice) three ways over the persistent-pool runner:
//!
//! 1. a 1-thread `SweepScheduler` pass — the serial reference;
//! 2. a cell-at-a-time pass on an 8-worker runner (trial-level
//!    parallelism only — the pre-scenario execution model), timed as
//!    `cells_per_sec`;
//! 3. a cell-parallel `SweepScheduler` pass on the same 8-worker runner
//!    (cells and trials share one pool via the two-level work queue),
//!    timed as `cells_per_sec_parallel`.
//!
//! All three reports must be bit-identical — the binary exits non-zero
//! (failing the CI job) if the parallel and serial reports differ. It
//! also prints the `CrossCheck` of every rate-disciplined cell against
//! the abstract S2 model, measures the worker pool's speedup over
//! scoped spawns, and times `Stack::pump` on a fixed S2 workload.
//!
//! Four axis slices then run through one `timed_slice` helper each —
//! the cell-at-a-time reference, the 1-thread scheduler and the timed
//! cell-parallel scheduler, three-way bit-identity required:
//!
//! * the **availability slice** (`scenario::availability_sweep`: outage
//!   schedules × paced/outage-strike on fortified S2 plus the bare-PB S1
//!   baseline) contributes `availability_cells_per_sec`, the mean
//!   downtime fraction and the mean failover latency;
//! * the **fault slice** (`scenario::fault_sweep`: clean / light-loss /
//!   heavy-loss network-fault coordinates on fortified S2 plus the
//!   bare-PB S1 baseline) contributes `fault_cells_per_sec`,
//!   `mean_goodput_fraction` and `mean_retries_per_request`;
//! * the **shard slice** (`scenario::shard_sweep`: a vacuous coordinate,
//!   both cross-shard placements on a 3-group fleet, and a concentrated
//!   fleet with a mid-trial rebalance) contributes `shard_cells_per_sec`
//!   and `hot_shard_lifetime_ratio` (concentrate/spread mean
//!   hottest-shard lifetime — below 1 when concentrating the probe
//!   budget pays);
//! * the **repair slice** (`scenario::repair_sweep`: a vacuous
//!   coordinate plus one-crash, two-crash-staggered and two-crash-storm
//!   recovery schedules on the VSR-backed S0 tier) contributes
//!   `repair_cells_per_sec` and `mean_view_change_latency` — the
//!   measured view-change detection window, which must sit at the SMR
//!   view timer, not the PB failover timeout.
//!
//! A warm-vs-cold **arena microbenchmark** on the default sweep's first
//! cell contributes `arena_reuse_speedup` — the per-trial stack-assembly
//! cost the trial arena saves.
//!
//! ```text
//! cargo run --release -p fortress-bench --bin campaign [out_path]
//! ```

use fortress_sim::clear_arena;
use fortress_sim::runner::{trial_seed, Runner, TrialBudget};
use fortress_sim::scenario::{
    availability_sweep, fault_sweep, paper_default_sweep, repair_sweep, run_scenario_measured,
    shard_sweep, CrossCheck, SweepCell, SweepOutcome, SweepReport, SweepScheduler, CELL_CHUNK,
};
use fortress_sim::stats::Column;
use std::time::Instant;

/// Adaptive per-cell budget: protocol trials are ms-scale, so spend them
/// where the lifetime variance demands (burst cells are far noisier than
/// paced cells) and cap the sweep's total cost.
const BUDGET: TrialBudget = TrialBudget::TargetRse {
    target: 0.05,
    min_trials: 64,
    max_trials: 512,
    batch: 64,
};

/// The pool-vs-spawn microbenchmark regime: many tiny batches, the shape
/// of an adaptive campaign cell's stopping checks.
const MICRO_CALLS: u64 = 400;
const MICRO_TRIALS_PER_CALL: u64 = 64;

/// Fixed S2 pump workload: benign requests plus wrong-key probes, the
/// traffic mix a campaign trial pushes through `Stack::pump`.
const PUMP_REQUESTS: u64 = 1_500;

/// Trials of the arena-reuse microbenchmark, run twice: once with the
/// trial arena warm (every trial re-keys a pooled stack shell) and once
/// with the arena cleared before every trial (every trial pays the
/// fresh assembly).
const ARENA_TRIALS: u64 = 200;

/// Drives the fixed S2 pump workload and returns
/// `(deliveries, wall_s)` — deliveries as counted by the transport, so
/// the metric tracks real per-hop dispatch work (proxy fan-out, server
/// replies, exploit sniffing), not request count.
fn pump_throughput() -> (u64, f64) {
    use fortress_core::client::FortressClient;
    use fortress_core::system::{Stack, StackConfig, SystemClass};
    use fortress_obf::keys::RandomizationKey;
    use fortress_obf::scheme::Scheme;

    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        seed: 0x9049,
        ..StackConfig::default()
    })
    .expect("assembly");
    stack.add_client("bench");
    let mut client = FortressClient::new("bench", stack.authority(), stack.ns().clone());
    let true_key = stack.server_keys()[0];
    let start = Instant::now();
    for i in 0..PUMP_REQUESTS {
        // 3 benign requests to 1 wrong-key probe, round-robin.
        let req = if i % 4 == 3 {
            let wrong = RandomizationKey(true_key.0 ^ (i | 1));
            let mut probe = client.request(b"");
            probe.op = Scheme::Aslr.craft_exploit(wrong).to_bytes();
            probe
        } else {
            client.request(b"PUT k v")
        };
        stack.submit("bench", &req);
        stack.pump();
        stack.drain_client("bench");
    }
    let wall = start.elapsed().as_secs_f64();
    (stack.net_stats().delivered, wall)
}

fn micro_workload(runner: &Runner, scoped: bool) -> f64 {
    use rand::Rng;
    let start = Instant::now();
    let mut acc = 0.0;
    for call in 0..MICRO_CALLS {
        let stats = if scoped {
            runner.run_scoped(call, TrialBudget::Fixed(MICRO_TRIALS_PER_CALL), |i, rng| {
                rng.gen::<f64>() + (i % 5) as f64
            })
        } else {
            runner.run(call, TrialBudget::Fixed(MICRO_TRIALS_PER_CALL), |i, rng| {
                rng.gen::<f64>() + (i % 5) as f64
            })
        };
        acc += stats.mean();
    }
    assert!(acc.is_finite());
    start.elapsed().as_secs_f64()
}

/// The pre-scenario execution model, kept as the timing baseline: cells
/// strictly one at a time, each fanning its trials over `runner`'s pool.
fn run_cells_serially(cells: &[SweepCell], runner: &Runner) -> SweepReport {
    let runner = runner.clone().with_chunk(CELL_CHUNK);
    SweepReport {
        cells: cells
            .iter()
            .map(|cell| {
                let (stats, avail) =
                    run_scenario_measured(cell.spec, &runner, BUDGET, cell.seed);
                SweepOutcome::measured(cell, stats, avail)
            })
            .collect(),
    }
}

/// One axis slice's timed outcome.
struct Slice {
    /// The cell-parallel report (bit-identical to both references).
    report: SweepReport,
    cells: usize,
    wall: f64,
}

impl Slice {
    fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.wall
    }
}

/// Runs one axis slice three ways — the cell-at-a-time reference path
/// (an independent comparator: a scheduler-internal bug that is
/// thread-count-invariant would slip past a scheduler-vs-scheduler
/// diff), the 1-thread scheduler, and the timed cell-parallel scheduler
/// on `runner8` — and requires three-way bit-identity.
fn timed_slice(name: &str, cells: &[SweepCell], runner8: &Runner) -> Slice {
    let reference = run_cells_serially(cells, &Runner::with_threads(1));
    let serial = SweepScheduler::new(&Runner::with_threads(1), BUDGET).run(cells);
    let start = Instant::now();
    let report = SweepScheduler::new(runner8, BUDGET).run(cells);
    let wall = start.elapsed().as_secs_f64();
    assert!(
        serial.to_json() == report.to_json() && reference.to_json() == serial.to_json(),
        "{name} reports diverged between the cell-at-a-time reference, the \
         serial scheduler and the cell-parallel scheduler — determinism \
         contract broken"
    );
    println!("== {name} ==");
    println!("{}", report.to_table().to_aligned());
    Slice {
        report,
        cells: cells.len(),
        wall,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_campaign.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let base_seed = 0xF0_47;
    let cells = paper_default_sweep(base_seed);
    let n_cells = cells.len();
    let runner8 = Runner::with_threads(8);

    // Pass 1: the 1-thread scheduler — the bit-exact serial reference.
    let serial = SweepScheduler::new(&Runner::with_threads(1), BUDGET).run(&cells);
    // Pass 2 (timed): cell-at-a-time on 8 workers — trial parallelism
    // only, the pre-scenario model and the denominator of the speedup.
    let start = Instant::now();
    let cell_serial = run_cells_serially(&cells, &runner8);
    let wall = start.elapsed().as_secs_f64();
    // Pass 3 (timed): the cell-parallel scheduler on the same 8 workers.
    let start = Instant::now();
    let parallel = SweepScheduler::new(&runner8, BUDGET).run(&cells);
    let parallel_wall = start.elapsed().as_secs_f64();

    let deterministic = parallel.to_json() == serial.to_json()
        && cell_serial.to_json() == serial.to_json();
    assert!(
        deterministic,
        "sweep reports diverged between the serial reference, the cell-serial \
         pass and the cell-parallel scheduler — determinism contract broken"
    );
    let trials_total: u64 = parallel.cells.iter().map(|o| o.estimate.n).sum();
    let cells_per_sec = n_cells as f64 / wall;
    let cells_per_sec_parallel = n_cells as f64 / parallel_wall;
    let parallel_speedup = cells_per_sec_parallel / cells_per_sec;

    println!("{}", parallel.to_table().to_aligned());
    println!("== cross-check: protocol cells vs abstract S2 kappa predictions ==");
    println!("{}", CrossCheck::of(&parallel).to_table().to_aligned());

    let avail = timed_slice("availability slice (outage axis)", &availability_sweep(base_seed), &runner8);
    let mean_downtime = avail
        .report
        .mean_of(Column::Downtime)
        .expect("every availability cell measures downtime");
    let mean_failover_latency = avail
        .report
        .mean_of(Column::FailoverLatency)
        .map_or_else(|| "null".to_string(), |latency| latency.to_string());

    let fault = timed_slice("fault slice (network-fault axis)", &fault_sweep(base_seed), &runner8);
    let mean_goodput = fault
        .report
        .mean_of(Column::Goodput)
        .expect("degraded fault cells measure goodput");
    let mean_retries = fault
        .report
        .mean_of(Column::Retries)
        .expect("degraded fault cells count retries");

    let shard = timed_slice("shard slice (multi-tenant fleet axis)", &shard_sweep(base_seed), &runner8);
    let hot_shard_lifetime_ratio = shard
        .report
        .hot_shard_lifetime_ratio()
        .expect("the shard slice carries both placements");

    let repair = timed_slice(
        "repair slice (VSR view-change + recovery axis)",
        &repair_sweep(base_seed),
        &runner8,
    );
    let mean_view_change_latency = repair
        .report
        .mean_of(Column::ViewChangeLatency)
        .expect("repair-bearing cells complete view changes");

    // Arena-reuse microbenchmark: the exact same trial stream, warm vs
    // cleared-before-every-trial, on the default sweep's first cell. The
    // ratio is the per-trial cost of stack assembly the arena saves.
    let arena_spec = cells[0].spec;
    let arena_seed = 0x000A_7E4A;
    clear_arena();
    let _ = arena_spec.run_measured(trial_seed(arena_seed, 0));
    let start = Instant::now();
    for i in 1..=ARENA_TRIALS {
        let _ = arena_spec.run_measured(trial_seed(arena_seed, i));
    }
    let arena_warm_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for i in 1..=ARENA_TRIALS {
        clear_arena();
        let _ = arena_spec.run_measured(trial_seed(arena_seed, i));
    }
    let arena_cold_wall = start.elapsed().as_secs_f64();
    let arena_reuse_speedup = arena_cold_wall / arena_warm_wall;

    // Pool vs per-call scoped spawning, µs-scale batch regime. Pin four
    // workers (even on smaller machines): the comparison is the cost of
    // four scoped spawns per call vs four persistent workers, which is
    // about OS overhead, not core count. Warm both paths first.
    let micro_runner = Runner::with_threads(4).with_chunk(16);
    let _ = micro_workload(&micro_runner, false);
    let _ = micro_workload(&micro_runner, true);
    let pooled_wall = micro_workload(&micro_runner, false);
    let scoped_wall = micro_workload(&micro_runner, true);
    let pool_speedup = scoped_wall / pooled_wall;

    // Stack::pump hot-path throughput on the fixed S2 workload (warm
    // once, then measure).
    let _ = pump_throughput();
    let (pump_deliveries, pump_wall) = pump_throughput();
    let deliveries_per_sec = pump_deliveries as f64 / pump_wall;

    let json = format!(
        "{{\n  \"workload\": \"paper default sweep (SO suspicion x fleet x strategy grid \
         incl sybil + PO slice), adaptive rse<=0.05, 64..512 trials/cell\",\n  \
         \"timed_pass_workers\": 8,\n  \
         \"machine_cores\": {cores},\n  \
         \"cells\": {n_cells},\n  \
         \"trials_total\": {trials_total},\n  \
         \"wall_s\": {wall:.4},\n  \
         \"cells_per_sec\": {cells_per_sec:.2},\n  \
         \"parallel_wall_s\": {parallel_wall:.4},\n  \
         \"cells_per_sec_parallel\": {cells_per_sec_parallel:.2},\n  \
         \"cell_parallel_speedup\": {parallel_speedup:.3},\n  \
         \"deterministic_serial_vs_parallel\": {deterministic},\n  \
         \"availability\": {{\n    \
           \"workload\": \"outage slice: none/periodic/poisson x paced+outage_strike on S2 + bare-PB S1 baseline\",\n    \
           \"cells\": {},\n    \
           \"wall_s\": {:.4},\n    \
           \"availability_cells_per_sec\": {:.2},\n    \
           \"mean_downtime_fraction\": {mean_downtime:.6},\n    \
           \"mean_failover_latency\": {mean_failover_latency},\n    \
           \"deterministic_serial_vs_parallel\": true\n  }},\n  \
         \"faults\": {{\n    \
           \"workload\": \"fault slice: none/light-loss/heavy-loss x retry policy on S2 + bare-PB S1 baseline\",\n    \
           \"cells\": {},\n    \
           \"wall_s\": {:.4},\n    \
           \"fault_cells_per_sec\": {:.2},\n    \
           \"mean_goodput_fraction\": {mean_goodput:.6},\n    \
           \"mean_retries_per_request\": {mean_retries:.6},\n    \
           \"deterministic_serial_vs_parallel\": true\n  }},\n  \
         \"shards\": {{\n    \
           \"workload\": \"shard slice: vacuous + 3-group zipf1.2 concentrate/spread + concentrate reb@6 on S2\",\n    \
           \"cells\": {},\n    \
           \"wall_s\": {:.4},\n    \
           \"shard_cells_per_sec\": {:.2},\n    \
           \"hot_shard_lifetime_ratio\": {hot_shard_lifetime_ratio:.4},\n    \
           \"deterministic_serial_vs_parallel\": true\n  }},\n  \
         \"repairs\": {{\n    \
           \"workload\": \"repair slice: vacuous + 1-crash + 2-crash staggered/storm VSR recovery on S0\",\n    \
           \"cells\": {},\n    \
           \"wall_s\": {:.4},\n    \
           \"repair_cells_per_sec\": {:.2},\n    \
           \"mean_view_change_latency\": {mean_view_change_latency:.4},\n    \
           \"deterministic_serial_vs_parallel\": true\n  }},\n  \
         \"arena\": {{\n    \
           \"workload\": \"default sweep's first cell, warm arena vs cleared before every trial\",\n    \
           \"arena_trials\": {ARENA_TRIALS},\n    \
           \"arena_cold_wall_s\": {arena_cold_wall:.4},\n    \
           \"arena_warm_wall_s\": {arena_warm_wall:.4},\n    \
           \"arena_reuse_speedup\": {arena_reuse_speedup:.3}\n  }},\n  \
         \"pool_microbench\": {{\n    \
           \"calls\": {MICRO_CALLS},\n    \
           \"trials_per_call\": {MICRO_TRIALS_PER_CALL},\n    \
           \"scoped_spawn_wall_s\": {scoped_wall:.4},\n    \
           \"pooled_wall_s\": {pooled_wall:.4},\n    \
           \"pool_speedup\": {pool_speedup:.3}\n  }},\n  \
         \"pump\": {{\n    \
           \"workload\": \"S2 default, {PUMP_REQUESTS} requests (3 benign : 1 wrong-key probe)\",\n    \
           \"deliveries\": {pump_deliveries},\n    \
           \"wall_s\": {pump_wall:.4},\n    \
           \"deliveries_per_sec\": {deliveries_per_sec:.0}\n  }}\n}}\n",
        avail.cells, avail.wall, avail.cells_per_sec(),
        fault.cells, fault.wall, fault.cells_per_sec(),
        shard.cells, shard.wall, shard.cells_per_sec(),
        repair.cells, repair.wall, repair.cells_per_sec(),
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
