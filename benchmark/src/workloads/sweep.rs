//! `sweep_paper` and `sweep_repair`: protocol-level Monte-Carlo sweeps
//! through `SweepScheduler` on every core, under the `campaign` binary's
//! adaptive budget.

use std::time::{Duration, Instant};

use fortress_sim::arena::{arena_stats, clear_arena};
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{
    paper_default_sweep, repair_sweep, run_scenario_measured, SweepCell, SweepOutcome, SweepReport,
    SweepScheduler, CELL_CHUNK,
};

use super::{note_conditions, RunCfg, REPS};
use crate::json::Value;
use crate::probes;
use crate::report::Report;
use crate::stats::{best_of_aligned, median, quantile_sorted, spread_frac};
use crate::trace::{Trace, Tracer};

/// The `campaign` binary's per-cell budget: stop at 5 % relative standard
/// error, between 64 and 512 trials, checked every 64.
const BUDGET: TrialBudget = TrialBudget::TargetRse {
    target: 0.05,
    min_trials: 64,
    max_trials: 512,
    batch: 64,
};

/// Trials per cell of the warm-up pass that ends set-up.
const WARMUP: TrialBudget = TrialBudget::Fixed(16);

/// Which sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `sweep_paper`: 50 S2/S1 cells, five adversary strategies.
    Paper,
    /// `sweep_repair`: 4 S0 cells with view changes and state transfer.
    Repair,
}

impl Sweep {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Paper => "sweep_paper",
            Sweep::Repair => "sweep_repair",
        }
    }

    /// Seconds one sweep takes on the reference box (2 cores); the number of
    /// sweeps per repetition is sized by it, so a run given `--seconds`
    /// takes about that long there.
    fn nominal_sweep_secs(self) -> f64 {
        match self {
            Sweep::Paper => 0.5,
            Sweep::Repair => 1.0,
        }
    }

    /// Sweeps in one repetition that is given `part` of the run's time.
    fn sweeps_in(self, part: Duration) -> u64 {
        ((part.as_secs_f64() / self.nominal_sweep_secs()).round() as u64).max(1)
    }

    /// The cells of sweep number `index` of a run seeded `seed`.
    fn cells(self, seed: u64, index: u64) -> Vec<SweepCell> {
        let base = seed.wrapping_add(index);
        match self {
            Sweep::Paper => paper_default_sweep(base),
            Sweep::Repair => repair_sweep(base),
        }
    }
}

/// One cell's report, rendered alone so repetitions compare cell by cell.
fn cell_json(outcome: &SweepOutcome) -> String {
    SweepReport {
        cells: vec![outcome.clone()],
    }
    .to_json()
}

/// One repetition: a fresh runner, then `sweeps` sweeps back to back.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    elapsed: Duration,
    /// Seconds and trials of each sweep, in order.
    sweep_secs: Vec<f64>,
    sweep_trials: Vec<u64>,
    /// One JSON document per cell, in sweep then cell order.
    cells: Vec<String>,
    steals: u64,
}

/// How many sweeps a repetition runs.
#[derive(Clone, Copy)]
enum Count {
    /// This many, fewer if the guard time passes first (the first
    /// repetition, on a box too slow for the sized work).
    UpTo(u64, Duration),
    /// Exactly this many (later repetitions repeat the first).
    Exactly(u64),
}

fn rep(kind: Sweep, cfg: &RunCfg, count: Count) -> (Rep, u64) {
    let t0 = Instant::now();
    let runner = Runner::with_threads(cfg.threads);
    let scheduler = SweepScheduler::new(&runner, BUDGET);
    SweepScheduler::new(&runner, WARMUP).run(&kind.cells(cfg.seed, 0));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut out = Rep {
        setup_s,
        ..Rep::default()
    };
    let mut reports = Vec::new();
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        let more = match count {
            Count::UpTo(n, guard) => done == 0 || (done < n && start.elapsed() < guard),
            Count::Exactly(n) => done < n,
        };
        if !more {
            break;
        }
        let t = Instant::now();
        reports.push(scheduler.run(&kind.cells(cfg.seed, done)));
        out.sweep_secs.push(t.elapsed().as_secs_f64());
        done += 1;
    }
    out.elapsed = start.elapsed();
    out.steals = runner.steals();
    for report in &reports {
        out.sweep_trials
            .push(report.cells.iter().map(|o| o.stats.n()).sum());
        out.cells.extend(report.cells.iter().map(cell_json));
    }
    (out, done)
}

/// The same sweeps cell by cell on one thread, a span around each cell.
struct SerialPass {
    elapsed: Duration,
    cells: Vec<String>,
    arena_hits: u64,
    arena_misses: u64,
}

fn serial_pass(kind: Sweep, cfg: &RunCfg, sweeps: u64, tracer: &mut Tracer) -> SerialPass {
    // One thread and the scheduler's chunk size: the reference the
    // scheduler's per-cell results are bit-identical to.
    let runner = Runner::with_threads(1).with_chunk(CELL_CHUNK);
    clear_arena();
    let mut cells_json = Vec::new();
    let start = Instant::now();
    let mut id = 0u64;
    for index in 0..sweeps {
        for cell in kind.cells(cfg.seed, index) {
            id += 1;
            tracer.set_request(id);
            let s = tracer.begin("sim.scenario.run_scenario_measured");
            let (stats, avail) = run_scenario_measured(cell.spec, &runner, BUDGET, cell.seed);
            tracer.end(s);
            cells_json.push(cell_json(&SweepOutcome::measured(&cell, stats, avail)));
        }
    }
    let elapsed = start.elapsed();
    let (arena_hits, arena_misses) = arena_stats();
    SerialPass {
        elapsed,
        cells: cells_json,
        arena_hits,
        arena_misses,
    }
}

/// Cells whose report differs from the reference's.
fn differing(reference: &[String], other: &[String]) -> u64 {
    let unequal = reference.iter().zip(other).filter(|(a, b)| a != b).count();
    (unequal + reference.len().abs_diff(other.len())) as u64
}

impl Rep {
    fn trials(&self) -> u64 {
        self.sweep_trials.iter().sum()
    }

    fn rate(&self) -> f64 {
        self.trials() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `kind` under `cfg`.
pub fn run(kind: Sweep, cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    note_conditions(
        &mut report,
        cfg,
        "simnet",
        "batch: whole sweeps back to back, cells scheduled in parallel",
    );
    report.note(
        "budget",
        Value::Str("target_rse 0.05, 64..512 trials per cell, batch 64".into()),
    );
    report.note(
        "message_delay",
        Value::Str(
            "none injected (SimNet latencies are logical steps): processor time only".into(),
        ),
    );

    // Traced: one parallel repetition, then the serial traced pass (which
    // takes about `threads` times as long), then probes.
    let parts = if cfg.trace { 2 + cfg.threads } else { REPS };
    let part = cfg.part(parts);
    let (first, sweeps) = rep(
        kind,
        cfg,
        Count::UpTo(kind.sweeps_in(part), part.mul_f64(1.5)),
    );
    report.note("sweeps_per_repetition", Value::Num(sweeps as f64));
    report.note("cells_per_repetition", Value::Num(first.cells.len() as f64));
    let mut reps = vec![first];
    if !cfg.trace {
        for _ in 1..REPS {
            reps.push(rep(kind, cfg, Count::Exactly(sweeps)).0);
        }
    }

    let cells = reps[0].cells.len() as u64;
    let mut failed = 0;
    for (i, r) in reps.iter().enumerate().skip(1) {
        let d = differing(&reps[0].cells, &r.cells);
        report.check(d == 0, || {
            format!("repetition {i}: {d} of {cells} cell reports differ from repetition 0")
        });
        failed = failed.max(d);
    }

    // Per sweep the fastest of the repetitions, summed: the repetitions
    // replay identical sweeps, and host interference only adds time.
    let per_sweep: Vec<&[f64]> = reps.iter().map(|r| &r.sweep_secs[..]).collect();
    let (n_sweeps, best_secs) = best_of_aligned(&per_sweep);
    let best_trials: u64 = reps[0].sweep_trials[..n_sweeps].iter().sum();
    let best_rate = best_trials as f64 / best_secs.max(1e-9);
    let rates: Vec<f64> = reps.iter().map(Rep::rate).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    if cfg.trace {
        let mut tracer = Tracer::new();
        let serial = serial_pass(kind, cfg, sweeps, &mut tracer);
        let spans = tracer.into_spans();
        crate::write_trace(kind.name(), &spans, &mut report);
        let d = differing(&reps[0].cells, &serial.cells);
        report.check(d == 0, || {
            format!(
                "{d} of {cells} cell reports differ between the scheduler and the 1-thread pass"
            )
        });
        failed = failed.max(d);

        let mut cell_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        cell_ns.sort_unstable();
        let speedup = serial.elapsed.as_secs_f64() / reps[0].elapsed.as_secs_f64().max(1e-9);
        let arena_total = (serial.arena_hits + serial.arena_misses).max(1);
        report.put_def("sim.runner.parallel_speedup", speedup);
        report.put_def("sim.runner.steals", reps[0].steals as f64);
        report.put_def(
            "sim.scheduler.trials_per_cell",
            reps[0].trials() as f64 / cells.max(1) as f64,
        );
        report.put_def(
            "sim.scheduler.cell_us_p50",
            quantile_sorted(&cell_ns, 0.5) as f64 / 1e3,
        );
        report.put_def(
            "sim.scheduler.cell_us_max",
            quantile_sorted(&cell_ns, 1.0) as f64 / 1e3,
        );
        report.put_def(
            "sim.arena.hit_ratio",
            serial.arena_hits as f64 / arena_total as f64,
        );
        report.put_def("e2e.failed_frac", failed as f64 / cells.max(1) as f64);
        // One span per cell: the traced pass pays a clock read per
        // hundreds of trials, so what separates it from the untraced
        // repetition is the thread count, reported as the speed-up.
        report.put_def("trace_overhead_frac", 0.0);
        probes::run_all(cfg.seed, &mut report);
    } else {
        report.put("trials_per_s", best_rate, "1/s");
        report.put("trials_per_s.median_of_reps", median(&rates), "1/s");
        report.put("trials_per_s.spread_frac", spread_frac(&rates), "frac");
        report.put("trials", reps[0].trials() as f64, "count");
        report.put("failed_frac", failed as f64 / cells.max(1) as f64, "frac");
        report.put("setup_s.spread_frac", spread_frac(&setups), "frac");
    }

    report.attempted = cells;
    report.failed = failed;
    report.put_def("ops_per_s", best_rate);
    report.put_def("served_frac", 1.0 - failed as f64 / cells.max(1) as f64);
    report.put_def("setup_s", median(&setups));
    report.put_def("peak_rss_mb", crate::rss::peak_rss_mb().unwrap_or(0.0));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_counts_unequal_and_missing_cells() {
        let a: Vec<String> = ["x", "y", "z"].map(String::from).to_vec();
        let mut b = a.clone();
        assert_eq!(differing(&a, &b), 0);
        b[1] = "q".into();
        assert_eq!(differing(&a, &b), 1);
        b.pop();
        assert_eq!(differing(&a, &b), 2);
    }

    #[test]
    fn sweep_seeds_follow_the_run_seed() {
        let label = |cells: &[SweepCell]| cells.iter().map(|c| c.seed).collect::<Vec<_>>();
        let a = Sweep::Repair.cells(7, 0);
        assert_eq!(a.len(), 4);
        assert_eq!(label(&a), label(&Sweep::Repair.cells(7, 0)));
        assert_ne!(label(&a), label(&Sweep::Repair.cells(7, 1)));
        assert_eq!(
            label(&Sweep::Repair.cells(7, 1)),
            label(&Sweep::Repair.cells(8, 0))
        );
        assert_eq!(Sweep::Paper.cells(7, 0).len(), 50);
    }
}
