//! Regenerates every figure/table of the paper (and the ablations) as
//! aligned terminal tables and CSV files.
//!
//! ```text
//! cargo run --release -p fortress-sim --bin figures -- all
//! cargo run --release -p fortress-sim --bin figures -- fig1 fig2 ordering
//! cargo run --release -p fortress-sim --bin figures -- campaign availability faults repair
//! ```
//!
//! The last line is the protocol-level adversary sweep
//! (`scenario::paper_default_sweep`) with its cross-check against the
//! abstract S2 model, then the three axis slices, each followed by its
//! headline values. Every trial is seeded from the cell's content, so
//! the tables and headlines are the same on every machine and run.
//!
//! CSV output lands in `results/` (created if missing).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tables;

use std::fs;
use std::path::Path;

use fortress_sim::report::CsvTable;
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{
    availability_sweep, fault_sweep, paper_default_sweep, repair_sweep, CrossCheck, SweepCell,
    SweepReport, SweepScheduler,
};
use fortress_sim::stats::Column;

/// Base seed of the protocol-level sweeps.
const SWEEP_SEED: u64 = 0xF0_47;

/// Adaptive per-cell budget of the protocol-level sweeps: protocol
/// trials are ms-scale, so spend them where the lifetime variance
/// demands (burst cells are far noisier than paced cells) and cap the
/// sweep's total cost.
const SWEEP_BUDGET: TrialBudget = TrialBudget::TargetRse {
    target: 0.05,
    min_trials: 64,
    max_trials: 512,
    batch: 64,
};

fn emit(name: &str, title: &str, table: &CsvTable) {
    println!("== {title} ==");
    println!("{}", table.to_aligned());
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        match fs::write(&path, table.to_csv()) {
            Ok(()) => println!("[written {}]\n", path.display()),
            Err(e) => println!("[could not write {}: {e}]\n", path.display()),
        }
    }
}

/// Runs one protocol-level sweep cell-parallel on every core and emits
/// its report table.
fn emit_sweep(name: &str, title: &str, cells: &[SweepCell]) -> SweepReport {
    let report = SweepScheduler::new(&Runner::new(), SWEEP_BUDGET).run(cells);
    emit(name, title, &report.to_table());
    report
}

/// Prints one sweep-level headline value at its pinned precision.
fn headline(name: &str, value: Option<f64>, decimals: usize) {
    let value = value.unwrap_or_else(|| panic!("no cell of the sweep measured {name}"));
    println!("{name} = {value:.decimals$}\n");
}

/// Every figure this binary generates, in the order `all` runs them.
const FIGURES: [&str; 14] = [
    "fig1", "fig2", "ordering", "trends", "ablation-probe", "ablation-period",
    "ablation-fleet", "ablation-entropy", "proto", "overhead", "campaign",
    "availability", "faults", "repair",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        FIGURES.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // A mistyped name must not pass as an empty run: CI's headline step
    // drives this binary.
    if let Some(unknown) = wanted.iter().find(|what| !FIGURES.contains(what)) {
        eprintln!("unknown figure `{unknown}` (try: all, {})", FIGURES.join(", "));
        std::process::exit(2);
    }

    for what in wanted {
        match what {
            // RSE-adaptive Monte-Carlo budget: the high-variance small-α
            // corner buys the trials it needs for a 2% relative standard
            // error, while the cheap large-α corner stops at the floor —
            // no more flat 20k-trials-everywhere spending.
            "fig1" => emit(
                "figure1_lifetimes",
                "Figure 1 — Expected Lifetime Comparison (chi = 2^16, S2PO at kappa = 0.5, MC at rse<=2%)",
                &tables::figure1_adaptive(4, 0.5, 0.02),
            ),
            "fig2" => emit(
                "figure2_kappa",
                "Figure 2 — Expected Lifetimes of the S2PO systems as kappa varies",
                &tables::figure2(4),
            ),
            "ordering" => emit(
                "ordering_summary",
                "Section 6 summary ordering: S0PO ->(k>0) S2PO ->(k<=0.9) S1PO -> S1SO -> S0SO",
                &tables::ordering_summary(),
            ),
            "trends" => emit(
                "trends",
                "The four Section 6 trends at alpha = 1e-3",
                &tables::trends(1e-3),
            ),
            "ablation-probe" => emit(
                "ablation_probe_model",
                "ABL-PROBE — broadcast vs independent probes (trend 1 flips)",
                &tables::ablation_probe_model(2),
            ),
            "ablation-period" => emit(
                "ablation_period",
                "ABL-P — generalized re-randomization period (alpha = 1e-2)",
                &tables::ablation_period(1e-2, &[1, 2, 4, 8, 16, 32]),
            ),
            "ablation-fleet" => emit(
                "ablation_fleet",
                "ABL-NP — proxy count sweep for S2PO (alpha = 1e-3, kappa = 0.1)",
                &tables::ablation_fleet(1e-3, 0.1, &[1, 2, 3, 4, 5, 6]),
            ),
            "ablation-entropy" => emit(
                "ablation_entropy",
                "ABL-ENT — key entropy sweep at fixed omega = 64 probes/step",
                &tables::ablation_entropy(64.0, &[12, 14, 16, 20, 24]),
            ),
            "proto" => emit(
                "protocol_comparison",
                "PROTO — protocol-level stacks vs analytic model (chi = 2^8, omega = 8)",
                &tables::protocol_comparison(40),
            ),
            "overhead" => emit(
                "proxy_overhead",
                "OVH — network hops per answered request, 1-tier vs FORTRESS",
                &tables::proxy_overhead(50),
            ),
            "campaign" => {
                let report = emit_sweep(
                    "campaign_sweep",
                    "CAMPAIGN — default sweep: SO suspicion x fleet x strategy grid (Sybil included) + PO slice, rse<=5%, 64..512 trials/cell",
                    &paper_default_sweep(SWEEP_SEED),
                );
                emit(
                    "campaign_cross_check",
                    "CAMPAIGN cross-check — protocol cells vs abstract S2 kappa predictions",
                    &CrossCheck::of(&report).to_table(),
                );
                let trials_total: u64 = report.cells.iter().map(|o| o.estimate.n).sum();
                println!("trials_total = {trials_total}\n");
            }
            "availability" => {
                let report = emit_sweep(
                    "campaign_availability",
                    "CAMPAIGN availability slice — none/periodic/poisson outages x paced+outage_strike on S2 + bare-PB S1 baseline",
                    &availability_sweep(SWEEP_SEED),
                );
                headline("mean_downtime_fraction", report.mean_of(Column::Downtime), 6);
            }
            "faults" => {
                let report = emit_sweep(
                    "campaign_faults",
                    "CAMPAIGN fault slice — none/light-loss/heavy-loss x retry policy on S2 + bare-PB S1 baseline",
                    &fault_sweep(SWEEP_SEED),
                );
                headline("mean_goodput_fraction", report.mean_of(Column::Goodput), 6);
                headline("mean_retries_per_request", report.mean_of(Column::Retries), 6);
            }
            "repair" => {
                let report = emit_sweep(
                    "campaign_repair",
                    "CAMPAIGN repair slice — vacuous + 1-crash + 2-crash staggered/storm VSR recovery on S0",
                    &repair_sweep(SWEEP_SEED),
                );
                headline("mean_view_change_latency", report.mean_of(Column::FailoverLatency), 4);
            }
            other => unreachable!("`{other}` is in FIGURES but has no generator"),
        }
    }
}
