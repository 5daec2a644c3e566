//! Parallel, deterministic Monte-Carlo trial runner.
//!
//! Every Monte-Carlo consumer in the workspace (the Figure 1 sweep, the
//! protocol-level experiments, the campaign grids, the validation helpers
//! in the engine test suites) funnels trials through [`Runner::run`]. The
//! design goals, in order:
//!
//! 1. **Bit-identical results at any thread count.** Each trial `i` gets
//!    its own RNG, seeded by [`trial_seed`]`(base_seed, i)` — a SplitMix64
//!    mix of the run's base seed and the trial counter. No RNG state is
//!    shared between trials, so which thread executes a trial cannot
//!    change its outcome. Per-chunk statistics are then merged **in chunk
//!    index order** (see [`RunningStats::merge`]), so the floating-point
//!    reduction order is fixed too: `run(seed, …)` with 1 thread and with
//!    64 threads return identical bits.
//! 2. **Threads scoped to the call.** A [`Runner`] is a thread count and
//!    a chunk size; it owns no threads. A run works on the caller's
//!    thread beside `threads − 1` helpers spawned in a
//!    [`std::thread::scope`] that ends with the call. So nothing outlives
//!    a run, a trial may itself call a runner (this one included), and a
//!    trial's panic reaches the caller with its own message. A 1-thread
//!    runner spawns no helper and runs the same loop alone.
//! 3. **One lock, never held by a trial.** Threads claim chunks and file
//!    their per-chunk [`RunningStats`] under one `Mutex`; the trials
//!    themselves run outside it.
//! 4. **Cheap per-trial RNG.** Trials use [`SmallRng`] (xoshiro256++ in
//!    the workspace's rand shim): seeding is four SplitMix64 steps, so
//!    even microsecond-scale trials amortize it.
//!
//! Trial counts come from a [`TrialBudget`]: either a fixed count or a
//! target relative standard error, which spends trials where the variance
//! actually demands them (the `α = 10⁻⁵` corner of Figure 1 needs far
//! more trials than the `10⁻²` corner for the same relative CI width).
//! Adaptive runs stay deterministic because trials are consumed in
//! fixed-size batches of fixed index ranges, and the stopping rule only
//! looks at the (deterministic) merged statistics after each batch.
//!
//! # One loop: claim a chunk, run it, file it
//!
//! Every run is a sweep of *cells* — `(base seed, trial closure)` pairs —
//! through `Runner::run_cells`; [`Runner::run`] is the one-cell sweep,
//! [`SweepScheduler`](crate::scenario::SweepScheduler) the many-cell
//! one. A cell's trial budget unrolls into *batches* (one per adaptive
//! stopping check; a single batch for fixed budgets), and each batch
//! splits into fixed-size *chunks*. Each cell keeps one batch in flight,
//! and its chunks wait on one FIFO of unclaimed `(cell, chunk)` pairs.
//! Every thread of the run, the caller's included, loops: claim the
//! oldest pair, run the chunk outside the lock, file its statistics in
//! the cell's slot. Whoever files a batch's last chunk merges the batch
//! **in chunk-index order** into the cell's accumulator and queues the
//! cell's next batch. Which thread runs a chunk, and when, is free; what
//! is merged, and in which order, is not — so per-cell results are
//! bit-identical at any thread count (asserted against the campaign
//! golden file by `tests/scheduler.rs`), while a thread that runs out of
//! one cell's chunks finds another cell's next on the queue, which is
//! where the cell-level speedup comes from.

use crate::stats::{AvailStats, RunningStats, TrialPoint};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, PoisonError};

/// SplitMix64 finalizer — the single definition of the bit mixer behind
/// both [`trial_seed`] and the content-derived cell seeding of the
/// scenario sweeps (`scenario`).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one content parameter into a seed: a rotate-add step finished
/// by the same SplitMix64 mixer [`trial_seed`] uses. The single
/// definition behind every content-derived cell seed (`scenario`'s
/// sweeps).
pub(crate) fn fold(acc: u64, value: u64) -> u64 {
    mix(acc
        .rotate_left(25)
        .wrapping_add(value)
        .wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The seed of trial `index` under `base_seed`: a SplitMix64 mix of the
/// two, so per-trial streams are decorrelated even for adjacent trial
/// indices and adjacent base seeds. Exposed so tests and external tools
/// can reproduce any single trial in isolation.
pub fn trial_seed(base_seed: u64, index: u64) -> u64 {
    mix(base_seed
        .rotate_left(32)
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        ^ mix(index.wrapping_add(0x2545_F491_4F6C_DD1D)))
}

/// How many trials a run may spend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrialBudget {
    /// Exactly this many trials.
    Fixed(u64),
    /// Run batches of `batch` trials until the merged estimate's
    /// [`RunningStats::relative_std_error`] drops to `target` (or
    /// `max_trials` is hit), but always at least `min_trials`.
    ///
    /// `batch` bounds per-batch parallelism: each batch splits into
    /// `batch / chunk` work units, so choose `batch` ≥ thread
    /// count × chunk size to keep every core busy. `batch` must **not**
    /// be derived from the machine's core count — it is part of the
    /// deterministic stopping rule, and a machine-dependent batch would
    /// break bit-identity across thread counts.
    TargetRse {
        /// Stop once `std_error / |mean|` is at or below this.
        target: f64,
        /// Never stop before this many trials.
        min_trials: u64,
        /// Never exceed this many trials.
        max_trials: u64,
        /// Trials added between stopping-rule checks.
        batch: u64,
    },
}

/// Absolute-scale floor of the [`TrialBudget::TargetRse`] stop rule:
/// the rule stops once `std_error ≤ target × max(|mean|, RSE_ABS_FLOOR)`.
/// Without the floor, zero-variance or near-zero-mean cells — exactly
/// what all-down outage cells produce (every trial censors at the same
/// step, or a metric sits at 0) — make the *relative* standard error
/// blow up (division by ~0) and the budget loop burn trials all the way
/// to `max_trials` on a cell that converged at `min_trials`. The floor
/// is far below every measured scale in this workspace (lifetimes ≥ 1
/// step, fractions in [0, 1]), so cells with a resolvable mean see the
/// identical stopping schedule as before.
pub const RSE_ABS_FLOOR: f64 = 1e-9;

impl TrialBudget {
    /// A reasonable adaptive budget: stop at `target_rse` relative
    /// standard error, between 16k and 1M trials, checked every 16k.
    /// The 16k batch splits into 16 default-size chunks, so runs scale
    /// to 16 threads while the stopping schedule stays machine-independent.
    pub fn adaptive(target_rse: f64) -> TrialBudget {
        TrialBudget::TargetRse {
            target: target_rse,
            min_trials: 16_384,
            max_trials: 1 << 20,
            batch: 16_384,
        }
    }

    /// The next trial range this budget prescribes, given the progress
    /// so far: `started` (at least one range completed), `done` (trials
    /// consumed) and the merged statistics the stopping rule reads. The
    /// single definition of the budget unrolling, read by the one loop
    /// for every cell.
    fn next_range(
        &self,
        started: bool,
        done: u64,
        acc: &RunningStats,
    ) -> Option<(u64, u64)> {
        match *self {
            TrialBudget::Fixed(n) => (!started).then_some((0, n)),
            TrialBudget::TargetRse {
                target,
                min_trials,
                max_trials,
                batch,
            } => {
                let batch = batch.max(1);
                let max_trials = max_trials.max(min_trials).max(1);
                if done >= max_trials {
                    return None;
                }
                // The RSE stop rule with an absolute-scale floor (see
                // [`RSE_ABS_FLOOR`]): n ≥ 2 so the variance is real,
                // then stop once the standard error is small relative
                // to max(|mean|, floor) — never dividing by ~0.
                let scale = acc.mean().abs().max(RSE_ABS_FLOOR);
                if started
                    && done >= min_trials
                    && acc.n() >= 2
                    && acc.std_error() <= target * scale
                {
                    return None;
                }
                Some((done, (done + batch).min(max_trials)))
            }
        }
    }
}

/// One trial's outputs: the primary value the budget's stopping rule
/// reads (a lifetime, for every scenario trial) plus the optional
/// availability measurements outage-bearing protocol trials produce.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    /// The primary measured value.
    pub(crate) value: f64,
    /// Availability measurements, where the trial produced them.
    pub(crate) avail: Option<TrialPoint>,
}

/// The merged statistics of one chunk (or one whole run): the primary
/// value's Welford accumulator plus the availability accumulators,
/// merged together in the same fixed chunk-index order — one reduction
/// tree, so both are bit-identical at any thread count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SampleStats {
    /// Primary value statistics (what [`Runner::run`] returns).
    pub(crate) value: RunningStats,
    /// Availability statistics (empty when no trial produced a point).
    pub(crate) avail: AvailStats,
}

impl SampleStats {
    pub(crate) fn new() -> SampleStats {
        SampleStats {
            value: RunningStats::new(),
            avail: AvailStats::new(),
        }
    }

    fn push(&mut self, sample: Sample) {
        self.value.push(sample.value);
        if let Some(point) = sample.avail {
            self.avail.push(&point);
        }
    }

    pub(crate) fn merge(&mut self, other: &SampleStats) {
        self.value.merge(&other.value);
        self.avail.merge(&other.avail);
    }
}

/// Runs one chunk of trials: the single definition of the per-chunk
/// arithmetic, whichever thread claimed the chunk.
fn run_chunk<F>(
    trial: &F,
    base_seed: u64,
    start: u64,
    end: u64,
    chunk: u64,
    index: usize,
) -> SampleStats
where
    F: Fn(u64, &mut SmallRng) -> Sample,
{
    let lo = start + index as u64 * chunk;
    let hi = (lo + chunk).min(end);
    let mut stats = SampleStats::new();
    for t in lo..hi {
        let mut rng = SmallRng::seed_from_u64(trial_seed(base_seed, t));
        stats.push(trial(t, &mut rng));
    }
    stats
}

/// One cell's progress through its budget, plus the batch it has in
/// flight — at most one, so a chunk is named by its cell and index.
struct CellState {
    acc: SampleStats,
    done: u64,
    started: bool,
    /// The in-flight batch's trial range.
    start: u64,
    end: u64,
    /// The in-flight batch's per-chunk results awaiting in-order merge.
    chunks: Vec<Option<SampleStats>>,
    filed: usize,
}

impl CellState {
    /// Folds the in-flight batch into the cell: its chunks merged in
    /// chunk-index order, then the batch into the accumulator — the
    /// fixed reduction tree that makes every thread count bit-identical.
    fn complete(&mut self) {
        let mut batch = SampleStats::new();
        for stats in self.chunks.drain(..) {
            batch.merge(&stats.expect("a batch completes once every chunk is filed"));
        }
        self.acc.merge(&batch);
        self.done = self.end;
        self.started = true;
    }
}

/// What the threads of one run share, under one lock.
struct Board {
    budget: TrialBudget,
    chunk: u64,
    cells: Vec<CellState>,
    /// Unclaimed `(cell, chunk index)` pairs, oldest batch first.
    queue: VecDeque<(usize, usize)>,
    /// Cells whose budget is not spent yet.
    running: usize,
    /// A trial panicked: no thread claims another chunk.
    poisoned: bool,
}

impl Board {
    /// Queues the chunks of cell `cell`'s next batch, or retires the
    /// cell once its budget is spent. An empty batch (`Fixed(0)`)
    /// completes in place.
    fn advance(&mut self, cell: usize) {
        let state = &mut self.cells[cell];
        while let Some((start, end)) =
            self.budget
                .next_range(state.started, state.done, &state.acc.value)
        {
            let n_chunks = usize::try_from((end - start).div_ceil(self.chunk))
                .expect("chunk count fits in usize");
            (state.start, state.end) = (start, end);
            if n_chunks > 0 {
                state.chunks.resize(n_chunks, None);
                state.filed = 0;
                self.queue.extend((0..n_chunks).map(|index| (cell, index)));
                return;
            }
            state.complete();
        }
        self.running -= 1;
    }

    /// Files chunk `index` of cell `cell`. Returns `true` when it was the
    /// batch's last: the batch is merged and the cell's next batch queued
    /// (or the cell retired), which a waiting thread must hear.
    fn file(&mut self, cell: usize, index: usize, stats: SampleStats) -> bool {
        let state = &mut self.cells[cell];
        state.chunks[index] = Some(stats);
        state.filed += 1;
        if state.filed < state.chunks.len() {
            return false;
        }
        state.complete();
        self.advance(cell);
        true
    }
}

/// One run's board, and what a thread waits on while every unclaimed
/// chunk is gone but some batch is still running.
struct Shared {
    board: Mutex<Board>,
    wake: Condvar,
}

/// Trials run outside the board's lock, so no trial panic poisons it.
const UNPOISONED: &str = "no thread panics while it holds the board";

/// Armed around a chunk: if a trial unwinds, poisons the board and wakes
/// every waiter, so no thread waits for a chunk that will never be filed.
struct PoisonOnUnwind<'a>(&'a Shared);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        let mut board = self.0.board.lock().unwrap_or_else(PoisonError::into_inner);
        board.poisoned = true;
        self.0.wake.notify_all();
    }
}

/// The claim-and-file loop every thread of a run executes, the caller's
/// included. Returns once every cell's budget is spent or a trial has
/// panicked.
fn work<F>(cells: &[(u64, F)], shared: &Shared)
where
    F: Fn(u64, &mut SmallRng) -> Sample,
{
    let mut board = shared.board.lock().expect(UNPOISONED);
    while !board.poisoned && board.running > 0 {
        let Some((cell, index)) = board.queue.pop_front() else {
            board = shared.wake.wait(board).expect(UNPOISONED);
            continue;
        };
        let CellState { start, end, .. } = board.cells[cell];
        let chunk = board.chunk;
        drop(board);
        let (base_seed, trial) = &cells[cell];
        let poison = PoisonOnUnwind(shared);
        let stats = run_chunk(trial, *base_seed, start, end, chunk, index);
        std::mem::forget(poison);
        board = shared.board.lock().expect(UNPOISONED);
        if board.file(cell, index, stats) {
            shared.wake.notify_all();
        }
    }
}

/// Parallel deterministic trial runner: a thread count and a chunk
/// size. It owns no threads; see the module docs for how a run uses them
/// and for the seeding and merge guarantees.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
    chunk: u64,
}

impl Default for Runner {
    /// One thread per available core, 1024-trial chunks.
    fn default() -> Runner {
        Runner::new()
    }
}

impl Runner {
    /// Runner with one thread per available core.
    pub fn new() -> Runner {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Runner::with_threads(threads)
    }

    /// Runner with an explicit thread count (1 = every trial on the
    /// caller's thread, still chunk-merged so results match any other
    /// thread count bit-for-bit). No thread is spawned here: each
    /// [`Runner::run`] spawns its helpers and joins them before it returns.
    pub fn with_threads(threads: usize) -> Runner {
        Runner {
            threads: threads.max(1),
            chunk: 1024,
        }
    }

    /// Always 0: every thread claims chunks off one queue, and nothing is
    /// ever stolen. The accessor survives only because the stand-alone
    /// `benchmark/` harness reads it for its `sim.runner.steals` row, and
    /// goes when that row does.
    pub fn steals(&self) -> u64 {
        0
    }

    /// Overrides the chunk size (trials per work unit). Smaller chunks
    /// load-balance better when per-trial cost varies wildly; larger
    /// chunks shave scheduling overhead. **Changing the chunk size
    /// changes the merge tree and hence the floating-point rounding** —
    /// results are bit-identical across thread counts at a fixed chunk
    /// size, not across chunk sizes.
    pub fn with_chunk(mut self, chunk: u64) -> Runner {
        self.chunk = chunk.max(1);
        self
    }

    /// Thread count, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trial(index, rng)` over the budgeted trial indices and
    /// returns the merged statistics of its returned values, on the
    /// caller's thread and `threads − 1` helpers that live for this call.
    ///
    /// `trial` must be a pure function of its arguments (plus captured
    /// immutable state) — that is what makes the run schedule-independent.
    /// It may borrow from the caller, and it may itself call a runner,
    /// this one included.
    ///
    /// # Panics
    ///
    /// When a trial panics: the run stops claiming chunks and re-raises
    /// that trial's own panic.
    pub fn run<F>(&self, base_seed: u64, budget: TrialBudget, trial: F) -> RunningStats
    where
        F: Fn(u64, &mut SmallRng) -> f64 + Sync,
    {
        let trial = |index, rng: &mut SmallRng| Sample {
            value: trial(index, rng),
            avail: None,
        };
        self.run_cells(budget, &[(base_seed, trial)])[0].value
    }

    /// The one loop's entry (see the [module docs](self)): runs every
    /// `(base seed, trial)` cell under `budget` and returns their merged
    /// statistics in input order. Fixed budgets are one batch per cell;
    /// adaptive budgets consume fixed-size batches of fixed index ranges
    /// and apply the stopping rule to the (deterministic) merged
    /// statistics, so the trial schedule is machine- and
    /// thread-count-independent.
    ///
    /// # Panics
    ///
    /// Re-raises a trial's own panic once every thread of the call has
    /// stopped.
    pub(crate) fn run_cells<F>(&self, budget: TrialBudget, cells: &[(u64, F)]) -> Vec<SampleStats>
    where
        F: Fn(u64, &mut SmallRng) -> Sample + Sync,
    {
        let mut board = Board {
            budget,
            chunk: self.chunk,
            cells: cells
                .iter()
                .map(|_| CellState {
                    acc: SampleStats::new(),
                    done: 0,
                    started: false,
                    start: 0,
                    end: 0,
                    chunks: Vec::new(),
                    filed: 0,
                })
                .collect(),
            queue: VecDeque::new(),
            running: cells.len(),
            poisoned: false,
        };
        for cell in 0..cells.len() {
            board.advance(cell);
        }
        let shared = Shared {
            board: Mutex::new(board),
            wake: Condvar::new(),
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.threads)
                .map(|_| scope.spawn(|| work(cells, &shared)))
                .collect();
            work(cells, &shared);
            // A helper's trial panic leaves the board poisoned and the
            // loop above returned early: hand the caller that panic.
            for helper in helpers {
                if let Err(cause) = helper.join() {
                    std::panic::resume_unwind(cause);
                }
            }
        });
        let board = shared.board.into_inner().expect(UNPOISONED);
        board.cells.into_iter().map(|state| state.acc).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_mc::sample_lifetime;
    use fortress_model::LaunchPad;
    use fortress_model::params::{AttackParams, Policy};
    use fortress_model::SystemKind;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn trial_seeds_are_decorrelated() {
        // Adjacent trial indices and adjacent base seeds must not give
        // adjacent or equal seeds.
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for idx in 0..1024u64 {
                assert!(seen.insert(trial_seed(base, idx)), "collision at {base}/{idx}");
            }
        }
    }

    #[test]
    fn fixed_budget_runs_exactly_n_trials() {
        let stats = Runner::with_threads(2).run(7, TrialBudget::Fixed(1000), |_, rng| {
            rng.gen::<f64>()
        });
        assert_eq!(stats.n(), 1000);
        assert!((stats.mean() - 0.5).abs() < 0.05);
    }

    #[test]
    fn zero_trials_is_empty() {
        let stats = Runner::new().run(7, TrialBudget::Fixed(0), |_, _| unreachable!());
        assert_eq!(stats.n(), 0);
    }

    #[test]
    fn identical_across_thread_counts() {
        let run = |threads: usize, trials: u64| {
            Runner::with_threads(threads).run(0xF0F0, TrialBudget::Fixed(trials), |i, rng| {
                // A trial whose value depends on both the index and the
                // per-trial stream, to catch any seeding mix-up.
                rng.gen::<f64>() + (i % 7) as f64
            })
        };
        let reference = run(1, 10_000);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads, 10_000), reference, "{threads} threads diverged");
        }
        // Fewer chunks than threads: five of the eight claim nothing,
        // and the bits still match.
        assert_eq!(run(8, 3 * 1024), run(1, 3 * 1024), "3 chunks on 8 threads diverged");
    }

    #[test]
    fn pool_survives_many_small_runs() {
        // Every call spawns and joins its own helpers: rapid-fire
        // µs-scale batches must neither leak threads nor change results.
        // Chunk 16 so a 64-trial run really fans out over four chunks.
        let runner = Runner::with_threads(4).with_chunk(16);
        let reference = Runner::with_threads(1).with_chunk(16);
        for call in 0..200u64 {
            let parallel = runner.run(call, TrialBudget::Fixed(64), |_, rng| rng.gen::<f64>());
            let serial = reference.run(call, TrialBudget::Fixed(64), |_, rng| rng.gen::<f64>());
            assert_eq!(parallel, serial, "call {call} diverged");
        }
    }

    #[test]
    fn chunk_size_moves_the_rounding_not_the_estimate() {
        let runner = Runner::with_threads(3);
        let rechunked = runner.with_chunk(128);
        let a = runner.run(9, TrialBudget::Fixed(1_000), |_, rng| rng.gen::<f64>());
        // Different chunk size changes the merge tree, not correctness.
        let b = rechunked.run(9, TrialBudget::Fixed(1_000), |_, rng| rng.gen::<f64>());
        assert_eq!(a.n(), b.n());
        assert!((a.mean() - b.mean()).abs() < 1e-9);
    }

    #[test]
    fn adaptive_budget_respects_bounds_and_target() {
        let budget = TrialBudget::TargetRse {
            target: 0.05,
            min_trials: 200,
            max_trials: 100_000,
            batch: 100,
        };
        // Low-variance trials: should stop at min_trials.
        let quick = Runner::with_threads(2).run(1, budget, |_, rng| 100.0 + rng.gen::<f64>());
        assert_eq!(quick.n(), 200);
        assert!(quick.relative_std_error() <= 0.05);

        // Zero-mean trials never reach a finite RSE: must stop at max.
        let capped = Runner::with_threads(2).run(
            2,
            TrialBudget::TargetRse {
                target: 0.01,
                min_trials: 100,
                max_trials: 500,
                batch: 100,
            },
            |_, rng| rng.gen::<f64>() - 0.5,
        );
        assert_eq!(capped.n(), 500);
    }

    /// The absolute-scale floor of the RSE stop rule: a constant-outcome
    /// trial (zero variance — the all-down outage cell shape) must stop
    /// at `min_trials`, never loop to the cap, even when the constant is
    /// zero and the *relative* standard error is undefined.
    #[test]
    fn target_rse_stops_on_constant_outcomes_instead_of_looping_to_cap() {
        let budget = TrialBudget::TargetRse {
            target: 0.05,
            min_trials: 50,
            max_trials: 100_000,
            batch: 50,
        };
        // Constant non-zero: RSE is exactly 0, stops at min.
        let constant = Runner::with_threads(2).run(1, budget, |_, _| 400.0);
        assert_eq!(constant.n(), 50, "zero-variance cell must stop at min_trials");
        // Constant zero: the old rule divided by |mean| = 0 → RSE = ∞ →
        // burned the whole cap. The floor stops it at min_trials.
        let zero = Runner::with_threads(2).run(2, budget, |_, _| 0.0);
        assert_eq!(zero.n(), 50, "constant-zero cell must stop at min_trials");
        // Near-zero-mean with near-zero variance: stopped by the floor.
        let tiny = Runner::with_threads(2).run(3, budget, |i, _| {
            if i % 2 == 0 { 1e-13 } else { -1e-13 }
        });
        assert_eq!(tiny.n(), 50, "sub-floor noise must not burn the cap");
        // Genuinely unresolved noise around zero still runs to the cap —
        // the floor only excuses cells whose absolute error is resolved.
        let noisy = Runner::with_threads(2).run(
            4,
            TrialBudget::TargetRse {
                target: 0.01,
                min_trials: 100,
                max_trials: 500,
                batch: 100,
            },
            |_, rng| rng.gen::<f64>() - 0.5,
        );
        assert_eq!(noisy.n(), 500);
    }

    #[test]
    fn adaptive_budget_is_thread_count_invariant() {
        let budget = TrialBudget::TargetRse {
            target: 0.02,
            min_trials: 500,
            max_trials: 20_000,
            batch: 500,
        };
        let run = |threads: usize| {
            Runner::with_threads(threads).run(3, budget, |_, rng| (rng.gen::<f64>() * 9.0).floor())
        };
        let reference = run(1);
        assert_eq!(run(4), reference);
        assert!(reference.n() < 20_000, "heavy-tailless trials must converge early");
    }

    /// A fixed count, or an adaptive budget with random bounds and batch.
    fn budget_from(
        (adaptive, extra, min_trials, batch, target): (bool, u64, u64, u64, f64),
    ) -> TrialBudget {
        if adaptive {
            TrialBudget::TargetRse {
                target,
                min_trials,
                max_trials: min_trials + extra,
                batch,
            }
        } else {
            TrialBudget::Fixed(extra)
        }
    }

    /// An event-driven cell on base seed `seed`: class (κ for S2),
    /// policy, α and χ = 2^bits.
    fn event_cell(
        ((class, kappa, proactive, alpha, bits), seed): ((u8, f64, bool, f64, u32), u64),
    ) -> (u64, impl Fn(u64, &mut SmallRng) -> Sample + Sync) {
        let kind = match class {
            0 => SystemKind::S0Smr,
            1 => SystemKind::S1Pb,
            _ => SystemKind::S2Fortress { kappa },
        };
        let policy = Policy::ALL[usize::from(proactive)];
        let params = AttackParams::from_entropy_bits(bits, alpha).unwrap();
        (seed, move |_, rng: &mut SmallRng| Sample {
            value: sample_lifetime(kind, policy, &params, LaunchPad::NextStep, rng) as f64,
            avail: None,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No thread schedule changes a sweep: 1–6 event-driven cells
        /// with random parameters, run through one call of the loop at
        /// the sweep chunk size, merge to the same bits at 1 thread and
        /// at N, fixed budget or adaptive.
        #[test]
        fn no_thread_schedule_changes_a_sweep(
            threads in prop_oneof![Just(2usize), Just(3), Just(8)],
            cells in proptest::collection::vec(
                ((0u8..3, 0.0f64..1.0, any::<bool>(), 0.005f64..0.2, 6u32..=16), any::<u64>()),
                1..7,
            ),
            budget in (any::<bool>(), 0u64..=200, 0u64..=100, 1u64..=48, 0.01f64..0.3)
                .prop_map(budget_from),
        ) {
            let cells: Vec<_> = cells.into_iter().map(event_cell).collect();
            let sweep = |threads| {
                Runner::with_threads(threads)
                    .with_chunk(crate::scenario::CELL_CHUNK)
                    .run_cells(budget, &cells)
                    .into_iter()
                    .map(|stats| stats.value)
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(sweep(threads), sweep(1), "{} threads, {:?}", threads, budget);
        }
    }
}
