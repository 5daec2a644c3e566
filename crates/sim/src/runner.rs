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
//! 2. **No per-call thread spawns.** A [`Runner`] owns a persistent pool
//!    of worker threads created once in [`Runner::with_threads`]; each
//!    `run()` call posts job descriptors to the pool and collects
//!    per-chunk results over a channel. Microsecond-scale batches (the
//!    protocol-level campaign cells, adaptive-budget stopping checks) no
//!    longer pay an OS thread spawn per call. A 1-thread runner has no
//!    pool and runs every trial on the caller's thread: it is the
//!    bit-identity reference the determinism suite compares against.
//! 3. **No shared-state contention.** Workers pull chunk indices off one
//!    atomic counter and accumulate into per-chunk [`RunningStats`];
//!    the only synchronization is the counter, the job channel and the
//!    result channel.
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
//! # One collector: the two-level work queue
//!
//! Every run is a sweep of *cells* — `(base seed, trial closure)` pairs —
//! through `Runner::run_cells`; [`Runner::run`] is the one-cell sweep,
//! [`SweepScheduler`](crate::scenario::SweepScheduler) the many-cell
//! one. A cell's trial budget unrolls into *batches* (one per adaptive
//! stopping check; a single batch for fixed budgets), and each batch
//! splits into fixed-size *chunks*. The collector keeps one batch per
//! cell in flight: every chunk of every in-flight batch is a first-class
//! job on the shared worker pool, results come back on one channel
//! tagged with their cell, and each cell's chunks are merged **in
//! chunk-index order** into that cell's accumulator. A pool-less runner
//! executes the same batches serially on the caller's thread with the
//! same chunk-then-merge arithmetic, so per-cell results are
//! bit-identical at any thread count — asserted against the campaign
//! golden file by `tests/scheduler.rs` — while a worker that runs out of
//! one cell's chunks finds another cell's batch next on the queue, which
//! is where the cell-level speedup comes from. On a pooled runner every
//! non-empty batch crosses the pool, a one-chunk batch included.

use crate::stats::{AvailStats, RunningStats, TrialPoint};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Distinguishes worker pools so nested-run detection can tell "running
/// on *this* pool's worker" (deadlock-prone) from "running on some other
/// pool's worker" (fine). Monotonic process-local ids; 0 is reserved for
/// "not a pool worker".
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The id of the pool the current thread works for (0 outside pools).
    static WORKER_OF_POOL: Cell<u64> = const { Cell::new(0) };
}

/// Why a run could not be executed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// [`Runner::run`] was called from inside one of this runner's own
    /// pool workers (e.g. a campaign cell calling back into the pool).
    /// Posting the nested job would have every worker waiting on workers
    /// that no longer exist — a deadlock, not a slowdown. Restructure the
    /// trial, or give the nested work its own `Runner` (a 1-thread runner
    /// executes serially and is always safe to nest).
    NestedPoolRun,
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::NestedPoolRun => write!(
                f,
                "Runner::run called from inside one of its own pool workers; \
                 nested jobs on the same pool deadlock — use a separate Runner \
                 (1-thread runners nest safely) or restructure the trial"
            ),
        }
    }
}

impl std::error::Error for RunnerError {}

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
    /// `batch / chunk` work units, so choose `batch` ≥ worker
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
    /// to 16 workers while the stopping schedule stays machine-independent.
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
    /// single definition of the budget unrolling, called by the one
    /// collector for every cell.
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

impl Sample {
    /// A value-only sample (trials without an availability dimension).
    pub(crate) fn point(value: f64) -> Sample {
        Sample { value, avail: None }
    }
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

/// The trial closure, type-erased so the persistent workers (which are
/// `'static` threads) can hold it across the duration of one job.
pub(crate) type TrialFn = Arc<dyn Fn(u64, &mut SmallRng) -> Sample + Send + Sync>;

/// One chunk's merged statistics, tagged with the cell whose in-flight
/// batch it belongs to — the unit of the two-level work queue.
struct ChunkResult {
    cell: usize,
    index: usize,
    stats: SampleStats,
    /// Set when the trial closure panicked inside this chunk (the
    /// `stats` are then meaningless). Sent *before* the worker dies of
    /// the re-raised panic, so the collector — which keeps a sender of
    /// its own to submit later batches — fails fast with the documented
    /// message instead of blocking forever on a channel that will never
    /// close.
    panicked: bool,
}

/// The message the collector raises when a poisoned chunk arrives.
const POOLED_PANIC_MSG: &str =
    "a trial closure panicked on a pooled worker; this Runner's pool is now \
     degraded — fix the trial; a 1-thread Runner runs it on the caller's thread \
     and shows the original panic";

/// Everything one batch submission hands the pool: the closure, the trial
/// index range, and the rendezvous state (chunk counter in, per-chunk
/// statistics out). Each worker receives its own copy.
#[derive(Clone)]
struct Job {
    cell: usize,
    trial: TrialFn,
    base_seed: u64,
    start: u64,
    end: u64,
    chunk: u64,
    next_chunk: Arc<AtomicUsize>,
    n_chunks: usize,
    results: Sender<ChunkResult>,
}

impl Job {
    /// Claims chunk indices until the counter runs out, sending each
    /// chunk's statistics (tagged with its cell and index) back to the
    /// caller. A panicking trial closure reports a poisoned chunk first
    /// and then re-raises, so the collector fails fast while the worker
    /// still dies loudly.
    fn work(self) {
        loop {
            let index = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if index >= self.n_chunks {
                break;
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_chunk(
                    &*self.trial,
                    self.base_seed,
                    self.start,
                    self.end,
                    self.chunk,
                    index,
                )
            }));
            match outcome {
                Ok(stats) => {
                    let sent = self.results.send(ChunkResult {
                        cell: self.cell,
                        index,
                        stats,
                        panicked: false,
                    });
                    if sent.is_err() {
                        break; // caller gone; nothing left to report to
                    }
                }
                Err(cause) => {
                    let _ = self.results.send(ChunkResult {
                        cell: self.cell,
                        index,
                        stats: SampleStats::new(),
                        panicked: true,
                    });
                    std::panic::resume_unwind(cause);
                }
            }
        }
    }
}

/// Runs one chunk of trials. This is the single definition of the
/// per-chunk arithmetic — pooled and serial execution both call it,
/// which is what makes their results bit-identical.
fn run_chunk(
    trial: &(dyn Fn(u64, &mut SmallRng) -> Sample + Sync),
    base_seed: u64,
    start: u64,
    end: u64,
    chunk: u64,
    index: usize,
) -> SampleStats {
    let lo = start + index as u64 * chunk;
    let hi = (lo + chunk).min(end);
    let mut stats = SampleStats::new();
    for t in lo..hi {
        let mut rng = SmallRng::seed_from_u64(trial_seed(base_seed, t));
        stats.push(trial(t, &mut rng));
    }
    stats
}

/// A fixed set of long-lived worker threads blocking on one job queue.
///
/// The queue is the only route to work, and it is enough: the collector
/// queues `min(threads, n_chunks)` copies of a batch and every copy
/// drains the batch's shared chunk counter, so the
/// queue can be empty while a batch still has unclaimed chunks only when
/// that many workers are already inside it — an idle worker has nothing
/// left to take. Dropping the pool closes the queue, which shuts every
/// worker down cleanly. The pool is deliberately dumb — all scheduling
/// intelligence (chunking, ordering, merging) lives in [`Runner`], so
/// pooled and serial execution share it.
struct WorkerPool {
    id: u64,
    sender: Option<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize) -> WorkerPool {
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || {
                    WORKER_OF_POOL.with(|w| w.set(id));
                    loop {
                        // Hold the lock only for the dequeue, never for
                        // the work.
                        let job = {
                            let guard: std::sync::MutexGuard<'_, Receiver<Job>> =
                                receiver.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job.work(),
                            Err(_) => break, // queue closed: pool dropped
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            id,
            sender: Some(sender),
            handles,
        }
    }

    fn submit(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .send(job)
            .expect(
                "no live pool worker to accept the job — every worker died, \
                 which only happens after trial-closure panics killed them all; \
                 fix the trial (a 1-thread Runner runs it on the caller's thread \
                 and shows the original panic)",
            );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel is the shutdown signal.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One cell's progress through its budget, plus the batch it has in
/// flight on the pool — at most one, so a chunk is tagged by its cell.
struct CellState {
    acc: SampleStats,
    done: u64,
    started: bool,
    /// Where the in-flight batch's trial range ends.
    end: u64,
    /// The in-flight batch's per-chunk results awaiting in-order merge.
    chunks: Vec<Option<SampleStats>>,
    received: usize,
}

impl CellState {
    /// Folds a finished batch into the cell: its chunks merged in
    /// chunk-index order, then the batch into the accumulator — the
    /// fixed reduction tree that makes pooled and serial execution
    /// bit-identical.
    fn complete(&mut self, chunks: impl Iterator<Item = SampleStats>) {
        let mut batch = SampleStats::new();
        for stats in chunks {
            batch.merge(&stats);
        }
        self.acc.merge(&batch);
        self.done = self.end;
        self.started = true;
    }
}

/// Parallel deterministic trial runner. See the module docs for the
/// seeding and merge guarantees.
#[derive(Clone)]
pub struct Runner {
    threads: usize,
    chunk: u64,
    /// Persistent workers; `None` for 1-thread runners, which execute on
    /// the caller's thread. Clones share the pool.
    pool: Option<Arc<WorkerPool>>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("threads", &self.threads)
            .field("chunk", &self.chunk)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Default for Runner {
    /// One worker per available core, 1024-trial chunks.
    fn default() -> Runner {
        Runner::new()
    }
}

impl Runner {
    /// Runner with one worker per available core.
    pub fn new() -> Runner {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Runner::with_threads(threads)
    }

    /// Runner with an explicit worker count (1 = serial execution on the
    /// caller's thread, still chunk-merged so results match any other
    /// thread count bit-for-bit). Worker threads are spawned here, once,
    /// and reused by every subsequent [`Runner::run`] call.
    pub fn with_threads(threads: usize) -> Runner {
        let threads = threads.max(1);
        Runner {
            threads,
            chunk: 1024,
            pool: (threads > 1).then(|| Arc::new(WorkerPool::new(threads))),
        }
    }

    /// Always 0. The pool has one route to a chunk — the job queue — and
    /// nothing is ever stolen; the accessor survives only because the
    /// stand-alone `benchmark/` harness reads it for its
    /// `sim.runner.steals` row, and goes when that row does.
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

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trial(index, rng)` over the budgeted trial indices and
    /// returns the merged statistics of its returned values, executing on
    /// the persistent worker pool.
    ///
    /// `trial` must be a pure function of its arguments (plus captured
    /// immutable state) — that is what makes the run schedule-independent.
    /// It must be `'static` because the pool's workers outlive the call;
    /// capture parameter structs by value (they are all `Copy` in this
    /// workspace) rather than by reference.
    ///
    /// # Panics
    ///
    /// Panics (with [`RunnerError::NestedPoolRun`]'s message) when called
    /// from inside one of this runner's own pool workers — the nested job
    /// would deadlock the pool.
    pub fn run<F>(&self, base_seed: u64, budget: TrialBudget, trial: F) -> RunningStats
    where
        F: Fn(u64, &mut SmallRng) -> f64 + Send + Sync + 'static,
    {
        match self.try_run(base_seed, budget, trial) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Runner::run`] that surfaces pool-reentrancy as an error instead
    /// of a panic.
    ///
    /// # Errors
    ///
    /// [`RunnerError::NestedPoolRun`] when called from inside one of this
    /// runner's own pool workers (same pool — a *different* runner's pool,
    /// or a 1-thread runner, nests fine).
    fn try_run<F>(
        &self,
        base_seed: u64,
        budget: TrialBudget,
        trial: F,
    ) -> Result<RunningStats, RunnerError>
    where
        F: Fn(u64, &mut SmallRng) -> f64 + Send + Sync + 'static,
    {
        let trial: TrialFn = Arc::new(move |i, rng| Sample::point(trial(i, rng)));
        Ok(self.try_run_samples(base_seed, budget, trial)?.value)
    }

    /// The sample-typed one-cell run: identical chunking, scheduling and
    /// merge order as the historical f64 path (the primary value
    /// statistics are bit-for-bit what [`Runner::run`] always returned),
    /// with availability accumulators carried alongside through the same
    /// reduction tree. The scenario layer's measured runs call this
    /// directly.
    pub(crate) fn try_run_samples(
        &self,
        base_seed: u64,
        budget: TrialBudget,
        trial: TrialFn,
    ) -> Result<SampleStats, RunnerError> {
        let mut stats = self.run_cells(budget, &[(base_seed, trial)])?;
        Ok(stats.pop().expect("one cell in, one accumulator out"))
    }

    /// The one collector (see the [module docs](self)): runs every
    /// `(base seed, trial closure)` cell under `budget` and returns their
    /// merged statistics in input order. Fixed budgets are one batch per
    /// cell; adaptive budgets consume fixed-size batches of fixed index
    /// ranges and apply the stopping rule to the (deterministic) merged
    /// statistics, so the trial schedule is machine- and
    /// thread-count-independent.
    ///
    /// # Errors
    ///
    /// [`RunnerError::NestedPoolRun`] when called from inside one of this
    /// runner's own pool workers.
    ///
    /// # Panics
    ///
    /// Panics when a trial closure panics on a pool worker (which
    /// degrades the pool).
    pub(crate) fn run_cells(
        &self,
        budget: TrialBudget,
        cells: &[(u64, TrialFn)],
    ) -> Result<Vec<SampleStats>, RunnerError> {
        if let Some(pool) = &self.pool {
            if WORKER_OF_POOL.with(Cell::get) == pool.id {
                return Err(RunnerError::NestedPoolRun);
            }
        }
        let mut states: Vec<CellState> = cells
            .iter()
            .map(|_| CellState {
                acc: SampleStats::new(),
                done: 0,
                started: false,
                end: 0,
                chunks: Vec::new(),
                received: 0,
            })
            .collect();
        let (results, collected) = channel();
        let mut in_flight = 0usize;
        for (index, cell) in cells.iter().enumerate() {
            let posted = self.advance(budget, index, cell, &mut states[index], &results);
            in_flight += usize::from(posted);
        }
        while in_flight > 0 {
            let result = collected
                .recv()
                .expect("the collector holds a sender of its own");
            // A panicking trial reports a poisoned chunk before killing
            // its worker; fail fast here — the collector's own sender
            // keeps the channel open, so waiting for closure would hang.
            assert!(!result.panicked, "{POOLED_PANIC_MSG}");
            let state = &mut states[result.cell];
            state.chunks[result.index] = Some(result.stats);
            state.received += 1;
            if state.received < state.chunks.len() {
                continue;
            }
            let chunks = std::mem::take(&mut state.chunks).into_iter();
            state.complete(chunks.map(|stats| stats.expect("all chunks accounted for")));
            if !self.advance(budget, result.cell, &cells[result.cell], state, &results) {
                in_flight -= 1;
            }
        }
        Ok(states.into_iter().map(|state| state.acc).collect())
    }

    /// Drives cell number `cell` forward: posts its next batch to the
    /// pool (returns `true`), or — on pool-less runners and empty
    /// ranges — executes batches on the calling thread until the cell's
    /// budget is spent (returns `false`). Pooled and serial chunks are
    /// both [`run_chunk`], merged by [`CellState::complete`].
    fn advance(
        &self,
        budget: TrialBudget,
        cell: usize,
        (base_seed, trial): &(u64, TrialFn),
        state: &mut CellState,
        results: &Sender<ChunkResult>,
    ) -> bool {
        while let Some((start, end)) =
            budget.next_range(state.started, state.done, &state.acc.value)
        {
            let n_chunks = usize::try_from((end - start).div_ceil(self.chunk))
                .expect("chunk count fits in usize");
            state.end = end;
            match &self.pool {
                Some(pool) if n_chunks > 0 => {
                    // One copy per participating worker; each claims
                    // chunks off the shared counter until it runs out.
                    let job = Job {
                        cell,
                        trial: Arc::clone(trial),
                        base_seed: *base_seed,
                        start,
                        end,
                        chunk: self.chunk,
                        next_chunk: Arc::new(AtomicUsize::new(0)),
                        n_chunks,
                        results: results.clone(),
                    };
                    for _ in 0..self.threads.min(n_chunks) {
                        pool.submit(job.clone());
                    }
                    state.chunks = vec![None; n_chunks];
                    state.received = 0;
                    return true;
                }
                _ => {
                    let run = |index| run_chunk(&**trial, *base_seed, start, end, self.chunk, index);
                    state.complete((0..n_chunks).map(run));
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Fewer chunks than workers: three job copies are queued, five
        // workers never see the batch, and the bits still match.
        assert_eq!(run(8, 3 * 1024), run(1, 3 * 1024), "3 chunks on 8 workers diverged");
    }

    #[test]
    fn pool_survives_many_small_runs() {
        // The pool is reused across calls: rapid-fire µs-scale batches
        // must neither leak threads nor change results. Chunk 16 so a
        // 64-trial run really fans out over four chunks.
        let runner = Runner::with_threads(4).with_chunk(16);
        let reference = Runner::with_threads(1).with_chunk(16);
        for call in 0..200u64 {
            let pooled = runner.run(call, TrialBudget::Fixed(64), |_, rng| rng.gen::<f64>());
            let serial = reference.run(call, TrialBudget::Fixed(64), |_, rng| rng.gen::<f64>());
            assert_eq!(pooled, serial, "call {call} diverged");
        }
    }

    #[test]
    fn clones_share_the_pool() {
        let runner = Runner::with_threads(3);
        let clone = runner.clone().with_chunk(128);
        let a = runner.run(9, TrialBudget::Fixed(1_000), |_, rng| rng.gen::<f64>());
        // Different chunk size changes the merge tree, not correctness.
        let b = clone.run(9, TrialBudget::Fixed(1_000), |_, rng| rng.gen::<f64>());
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
    fn nested_run_on_same_pool_is_a_clear_error() {
        // Chunk 1 forces every trial onto the pool's workers, so the
        // nested call below really executes inside a worker thread.
        let runner = Runner::with_threads(2).with_chunk(1);
        let inner = runner.clone();
        let stats = runner.run(1, TrialBudget::Fixed(8), move |_, _| {
            match inner.try_run(2, TrialBudget::Fixed(2), |_, rng| rng.gen::<f64>()) {
                Err(RunnerError::NestedPoolRun) => 1.0,
                Ok(_) => 0.0,
            }
        });
        assert_eq!(stats.n(), 8);
        assert_eq!(
            stats.mean(),
            1.0,
            "every nested same-pool run must be detected"
        );
    }

    #[test]
    #[should_panic(expected = "panicked on a pooled worker")]
    fn pooled_trial_panic_is_reported_not_hung() {
        // Chunk 1 forces trials onto pool workers; the poisoned chunk
        // must surface as the documented panic, never a hang.
        let runner = Runner::with_threads(2).with_chunk(1);
        let _ = runner.run(1, TrialBudget::Fixed(4), |i, _| {
            assert!(i != 2, "boom");
            0.0
        });
    }

    #[test]
    fn nested_run_on_a_separate_runner_is_fine() {
        // A distinct pool (or a pool-less 1-thread runner) has idle
        // workers to serve the nested job: nesting is safe and allowed.
        let runner = Runner::with_threads(2).with_chunk(1);
        let serial = Runner::with_threads(1);
        let stats = runner.run(3, TrialBudget::Fixed(4), move |_, _| {
            serial
                .try_run(4, TrialBudget::Fixed(16), |_, rng| rng.gen::<f64>())
                .expect("serial runners nest safely")
                .mean()
        });
        assert_eq!(stats.n(), 4);
        assert!(stats.mean() > 0.0 && stats.mean() < 1.0);
    }

    #[test]
    fn try_run_outside_a_pool_matches_run() {
        let runner = Runner::with_threads(2);
        let a = runner
            .try_run(9, TrialBudget::Fixed(1000), |_, rng| rng.gen::<f64>())
            .unwrap();
        let b = runner.run(9, TrialBudget::Fixed(1000), |_, rng| rng.gen::<f64>());
        assert_eq!(a, b);
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
}
