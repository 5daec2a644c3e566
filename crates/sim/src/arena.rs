//! Per-worker trial arena: reuse a trial's assembled stack across trials.
//!
//! Building a protocol stack is two orders of magnitude more allocation
//! than running one of its steps — names, engines, registries, key
//! draws. A Monte-Carlo cell runs hundreds of trials against assemblies
//! that differ **only in their seeds and fault plan**, so the arena keeps
//! each worker thread's assembled shells around and rewinds them instead
//! of reassembling.
//!
//! There is one kind of shell, because there is one trial assembly: a
//! [`Stack`] on its own [`SimNet`] under the cell's [`FaultPlan`], its
//! faults drawn from `fold(seed, FAULT_STREAM)`. A clean cell runs the
//! net under [`FaultPlan::None`].
//!
//! # Contract
//!
//! [`SimNet::rearm`] followed by [`Stack::reset`] is bit-for-bit: a
//! rewound shell replays the exact RNG streams, addresses, key draws and
//! fault schedule a freshly built one with the same configuration, seed,
//! plan and stream would (asserted by `fortress-core`'s
//! `reset_under_faults_replays_fresh_assembly_bit_for_bit` and its
//! 128-case property, `fortress-net`'s
//! `trial_reset_then_rearm_replays_fresh_decorator_bit_for_bit` and
//! `a_degraded_simnet_conserves_and_replays_after_reset`, and this
//! module's [tests](self#tests)). Reuse is keyed on
//! [`StackConfig::same_shape`] — every knob but the seed — so a cached
//! shell is only ever rewound within its own topology. The fault plan is
//! **not** part of the key: whatever a shell last ran under (held frames,
//! injected counters, the fault clock) is rewound with the rest.
//! The arena is `thread_local`, giving each thread of a run its own cache
//! with no synchronization on the trial hot path. A runner's helpers live
//! for one call, so theirs is rebuilt once per call; the caller's
//! persists.

use std::cell::{Cell, RefCell};

use fortress_core::system::{Stack, StackConfig};
use fortress_net::fault::{FaultPlan, FAULT_STREAM};
use fortress_net::sim::{SimConfig, SimNet};

use crate::runner::fold;

/// Cached shells per worker thread. The paper-default campaign grid has
/// 9 shapes (3 suspicion policies × 3 fleet sizes); the cap bounds
/// memory if a sweep enumerates many more, and the least-recently-used
/// shell makes way for the newest.
const ARENA_CAP: usize = 16;

/// One thread's cache of assembled shells, least recently used first,
/// with its reuse counters.
struct Shelf {
    shells: RefCell<Vec<Stack<SimNet>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

thread_local! {
    static SHELF: Shelf = const {
        Shelf { shells: RefCell::new(Vec::new()), hits: Cell::new(0), misses: Cell::new(0) }
    };
}

/// Runs `f` against a stack assembled under `cfg` on master seed `seed`,
/// its net under `plan` with the fault stream `fold(seed, FAULT_STREAM)`.
/// The stack is the cached same-shaped shell of this thread's arena,
/// rewound, or a fresh build when there is none; results are
/// bit-identical either way — callers cannot observe whether they got a
/// reused shell. It is shelved again afterwards as the most recently
/// used, evicting the least recently used shell once [`ARENA_CAP`] are
/// held, and is off the shelf while `f` runs, so `f` may itself come back
/// to the arena.
///
/// # Panics
///
/// Panics when `cfg` does not assemble.
pub(crate) fn with_arena<R>(
    cfg: StackConfig,
    seed: u64,
    plan: FaultPlan,
    f: impl FnOnce(&mut Stack<SimNet>) -> R,
) -> R {
    let cached = SHELF.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        // Most recently used first: a cell's consecutive trials find
        // their shell at the back, where taking it shifts nothing.
        let found = shells.iter().rposition(|shell| shell.config().same_shape(&cfg));
        let count = if found.is_some() { &shelf.hits } else { &shelf.misses };
        count.set(count.get() + 1);
        found.map(|i| shells.remove(i))
    });
    let stream = fold(seed, FAULT_STREAM);
    let mut shell = match cached {
        Some(mut shell) => {
            shell.transport_mut().rearm(plan, stream);
            shell.reset(seed);
            shell
        }
        None => {
            let net = SimNet::new(SimConfig { faults: plan, fault_stream: stream });
            // Sweep axes reach here unvalidated (a fleet size of 0, an
            // entropy outside 1..=MAX_ENTROPY_BITS): every trial of such
            // a cell panics.
            Stack::with_transport(StackConfig { seed, ..cfg }, net)
                .unwrap_or_else(|e| panic!("this cell's stack configuration does not assemble: {e}"))
        }
    };
    let out = f(&mut shell);
    SHELF.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        if shells.len() >= ARENA_CAP {
            shells.remove(0);
        }
        shells.push(shell);
    });
    out
}

/// This thread's arena counters: `(reuse hits, fresh builds)`. Purely
/// diagnostic — the benchmark reports the reuse rate with them.
pub fn arena_stats() -> (u64, u64) {
    SHELF.with(|shelf| (shelf.hits.get(), shelf.misses.get()))
}

/// Drops this thread's cached shells and zeroes the counters — for
/// callers that compare cold (fresh-build) against warm (reuse) paths.
pub fn clear_arena() {
    SHELF.with(|shelf| {
        shelf.shells.borrow_mut().clear();
        shelf.hits.set(0);
        shelf.misses.set(0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::client::RetryPolicy;
    use fortress_core::system::SystemClass;
    use fortress_model::params::Policy;

    use crate::faults::FaultSpec;
    use crate::protocol_mc::{run_trial, ProtocolExperiment};

    fn exp(class: SystemClass) -> ProtocolExperiment {
        ProtocolExperiment {
            entropy_bits: 6,
            omega: 8.0,
            max_steps: 600,
            ..ProtocolExperiment::new(class, Policy::StartupOnly)
        }
    }

    fn degraded(loss: f64, delay_max: u64, dup: f64) -> FaultSpec {
        FaultSpec::Degraded {
            plan: FaultPlan::Degraded {
                loss,
                delay_min: 0,
                delay_max,
                dup,
                partition: None,
                slow: None,
            },
            retry: RetryPolicy::retrying(8, 2, 2),
        }
    }

    /// The arena is invisible in the results: trials run against reused
    /// shells produce the exact outcomes of fresh-built ones, in every
    /// interleaving of seeds, shapes and fault plans. The S2 cells below
    /// share **one** stack shape, hence one shelf entry: the plan is not
    /// part of the key, so what a shell last ran under — the plan itself,
    /// its stream position, injected counters, the fault clock and hold
    /// sequence — must be unobservable to the next trial, clean or
    /// degraded. (A trial cannot shelve a shell with frames still held:
    /// every step ends in a pump, which drains the hold heap. That rewind
    /// is pinned where it can happen, in `fortress-net` and
    /// `fortress-core`.)
    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_builds() {
        let clean = ProtocolExperiment { max_steps: 60, ..exp(SystemClass::S2Fortress) };
        let cells = [
            ProtocolExperiment { fault: degraded(0.1, 6, 0.1), ..clean },
            clean,
            ProtocolExperiment { fault: degraded(0.3, 0, 0.0), ..clean },
            exp(SystemClass::S1Pb),
        ];
        let seeds = [3u64, 911, 3, 77, 1_000_003];
        // Reference pass: cold arena for every trial.
        let mut want = Vec::new();
        for &s in &seeds {
            for e in &cells {
                clear_arena();
                want.push(run_trial(e, s));
            }
        }
        // Warm pass: one arena across all trials, cells interleaved.
        clear_arena();
        let mut got = Vec::new();
        for &s in &seeds {
            for e in &cells {
                got.push(run_trial(e, s));
            }
        }
        // Two shapes: S2 (three cells) and S1.
        assert_eq!(arena_stats(), (18, 2), "the three plans must share one shell");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "arena reuse changed a trial");
        }
    }

    /// A full arena makes room for the newest shape by retiring the
    /// least recently used one — it must not turn every later trial of
    /// a 17th shape into a fresh build.
    #[test]
    fn a_full_arena_evicts_the_least_recently_used_shell() {
        clear_arena();
        let visit = |entropy_bits: u32| {
            let stack =
                StackConfig { class: SystemClass::S1Pb, entropy_bits, ..StackConfig::default() };
            with_arena(stack, 1, FaultPlan::None, |_| ());
        };
        let first = 4;
        let newcomer = first + ARENA_CAP as u32;
        for bits in first..newcomer {
            visit(bits);
        }
        visit(newcomer);
        assert_eq!(arena_stats(), (0, ARENA_CAP as u64 + 1), "17 shapes, 17 builds");
        visit(newcomer);
        assert_eq!(arena_stats().0, 1, "the 17th shape was shelved, not dropped");
        // Its room came from the oldest shape; the second-oldest stayed.
        visit(first + 1);
        assert_eq!(arena_stats().0, 2, "a recently used shape survives eviction");
        visit(first);
        assert_eq!(arena_stats().0, 2, "the least recently used shape was retired");
    }

    /// A shell is rewound only into its own shape; the seed is not part
    /// of the key.
    #[test]
    fn reuse_keys_on_shape() {
        clear_arena();
        let a = StackConfig { entropy_bits: 6, ..StackConfig::default() };
        let visit = |cfg| with_arena(cfg, 2, FaultPlan::None, |_| ());
        visit(a);
        visit(StackConfig { seed: 99, ..a });
        assert_eq!(arena_stats(), (1, 1), "another seed reuses the shell");
        visit(StackConfig { np: 5, ..a });
        assert_eq!(arena_stats(), (1, 2), "another shape builds");
    }

    #[test]
    fn arena_caps_and_counts() {
        clear_arena();
        let e = exp(SystemClass::S2Fortress);
        run_trial(&e, 1);
        run_trial(&e, 2);
        let (hits, misses) = arena_stats();
        assert_eq!((hits, misses), (1, 1), "second same-shape trial reuses");
    }
}
