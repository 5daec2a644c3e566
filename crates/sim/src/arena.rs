//! Per-worker trial arenas: reuse assembled [`Stack`]s across trials.
//!
//! Building a protocol stack is two orders of magnitude more allocation
//! than running one of its steps — names, engines, registries, key
//! draws. A Monte-Carlo cell runs hundreds of trials against stacks
//! that differ **only in their seed**, so the arena keeps each worker
//! thread's assembled stacks around and rewinds them with
//! [`Stack::reset`] instead of reassembling.
//!
//! # Contract
//!
//! [`Stack::reset`] is bit-for-bit: a reset stack replays the exact RNG
//! streams, addresses and key draws a freshly built stack with the same
//! configuration would (asserted by `fortress-core`'s
//! `reset_replays_fresh_build_bit_for_bit` and this module's
//! [tests](self#tests)). Reuse is keyed on
//! [`StackConfig::same_shape`] — every knob but the seed — so a cached
//! stack is only ever rewound within its own topology. The arena is
//! `thread_local`, giving each pool worker its own cache with no
//! synchronization on the trial hot path.

use std::cell::{Cell, RefCell};
use std::thread::LocalKey;

use fortress_core::fleet::{Fleet, FleetConfig};
use fortress_core::system::{Stack, StackConfig};
use fortress_net::sim::SimNet;

/// Cached shells of one kind per worker thread. The paper-default
/// campaign grid has 9 shapes (3 suspicion policies × 3 fleet sizes);
/// the cap bounds memory if a sweep enumerates many more, and the
/// least-recently-used shell makes way for the newest.
const ARENA_CAP: usize = 16;

/// One thread's cache of assembled shells of one kind, least recently
/// used first, with its reuse counters.
struct Shelf<S> {
    shells: RefCell<Vec<S>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<S> Shelf<S> {
    const fn new() -> Shelf<S> {
        Shelf {
            shells: RefCell::new(Vec::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    fn clear(&self) {
        self.shells.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }
}

thread_local! {
    static STACKS: Shelf<Stack<SimNet>> = const { Shelf::new() };
    static FLEETS: Shelf<Fleet<SimNet>> = const { Shelf::new() };
}

/// Runs `f` against a shell taken off `shelf` — the cached one
/// `same_shape` accepts, after `rewind`, or a fresh `build` — and
/// shelves it again as the most recently used, evicting the least
/// recently used shell once [`ARENA_CAP`] are held. The shell is off the
/// shelf while `f` runs, so `f` may itself come back to the arena.
fn with_shell<S, R>(
    shelf: &'static LocalKey<Shelf<S>>,
    same_shape: impl Fn(&S) -> bool,
    rewind: impl FnOnce(&mut S),
    build: impl FnOnce() -> S,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    let cached = shelf.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        // Most recently used first: a cell's consecutive trials find
        // their shell at the back, where taking it shifts nothing.
        let found = shells.iter().rposition(&same_shape);
        let count = if found.is_some() { &shelf.hits } else { &shelf.misses };
        count.set(count.get() + 1);
        found.map(|i| shells.remove(i))
    });
    let mut shell = match cached {
        Some(mut shell) => {
            rewind(&mut shell);
            shell
        }
        None => build(),
    };
    let out = f(&mut shell);
    shelf.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        if shells.len() >= ARENA_CAP {
            shells.remove(0);
        }
        shells.push(shell);
    });
    out
}

/// Runs `f` against a stack assembled under `cfg`, drawing it from this
/// thread's arena when a same-shaped stack is cached (rewound to
/// `cfg.seed` via [`Stack::reset`]) and building it fresh otherwise.
/// The stack returns to the arena afterwards. Results are bit-identical
/// either way — callers cannot observe whether they got a reused shell.
pub fn with_arena_stack<R>(cfg: StackConfig, f: impl FnOnce(&mut Stack<SimNet>) -> R) -> R {
    with_shell(
        &STACKS,
        |stack| stack.config().same_shape(&cfg),
        |stack| stack.reset(cfg.seed),
        || Stack::new(cfg).expect("stack assembly is validated by construction"),
        f,
    )
}

/// The fleet analogue of [`with_arena_stack`]: runs `f` against a
/// [`Fleet`] assembled under `cfg`, rewinding a cached same-shaped
/// fleet (keyed on [`FleetConfig::same_shape`] — group count plus
/// per-group shape) via [`Fleet::reset`] when one is available. Sharded
/// cells' fault-free trials all come through here, so a cell's trials
/// rewind one assembled fleet instead of rebuilding N stacks each.
pub fn with_arena_fleet<R>(cfg: FleetConfig, f: impl FnOnce(&mut Fleet<SimNet>) -> R) -> R {
    with_shell(
        &FLEETS,
        |fleet| fleet.config().same_shape(&cfg),
        |fleet| fleet.reset(cfg.stack.seed),
        || Fleet::new(cfg).expect("fleet assembly is validated by construction"),
        f,
    )
}

/// This thread's arena counters: `(reuse hits, fresh builds)`. Purely
/// diagnostic — the bench binaries report the reuse rate with them.
pub fn arena_stats() -> (u64, u64) {
    STACKS.with(Shelf::stats)
}

/// This thread's **fleet**-arena counters: `(reuse hits, fresh builds)`.
pub fn fleet_arena_stats() -> (u64, u64) {
    FLEETS.with(Shelf::stats)
}

/// Drops this thread's cached stacks and fleets and zeroes the
/// counters — for benches that compare cold (fresh-build) against warm
/// (reuse) paths.
pub fn clear_arena() {
    STACKS.with(Shelf::clear);
    FLEETS.with(Shelf::clear);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_attack::campaign::StrategyKind;
    use fortress_core::system::SystemClass;
    use fortress_model::params::Policy;

    use crate::campaign_mc::run_trial;
    use crate::protocol_mc::ProtocolExperiment;

    fn exp(class: SystemClass) -> ProtocolExperiment {
        ProtocolExperiment {
            entropy_bits: 6,
            omega: 8.0,
            max_steps: 600,
            ..ProtocolExperiment::new(class, Policy::StartupOnly)
        }
    }

    /// The arena is invisible in the results: trials run against reused
    /// shells produce the exact outcomes of fresh-built ones, in every
    /// interleaving of seeds and shapes.
    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_builds() {
        let e2 = exp(SystemClass::S2Fortress);
        let e1 = exp(SystemClass::S1Pb);
        let seeds = [3u64, 911, 3, 77, 1_000_003];
        // Reference pass: cold arena for every trial.
        let mut want = Vec::new();
        for &s in &seeds {
            clear_arena();
            want.push(run_trial(&e2, Some(StrategyKind::PacedBelowThreshold), s));
            want.push(e1.run_measured(s));
        }
        // Warm pass: one arena across all trials, shapes interleaved.
        clear_arena();
        let mut got = Vec::new();
        for &s in &seeds {
            got.push(run_trial(&e2, Some(StrategyKind::PacedBelowThreshold), s));
            got.push(e1.run_measured(s));
        }
        let (hits, misses) = arena_stats();
        assert!(hits >= 8, "warm pass must reuse: {hits} hits / {misses} misses");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "arena reuse changed a trial");
        }
    }

    /// Fleet reuse is equally invisible: sharded trials against rewound
    /// fleets reproduce fresh-built fleets bit-for-bit.
    #[test]
    fn fleet_arena_reuse_is_bit_identical_to_fresh_builds() {
        use fortress_attack::shard::ShardPlacement;
        use crate::fleet_mc::ShardSpec;
        let mut e = exp(SystemClass::S2Fortress);
        e.max_steps = 60;
        e.shard = ShardSpec::Sharded {
            shards: 2,
            zipf_s: 1.2,
            placement: ShardPlacement::Concentrate,
            rebalance_at: 20,
        };
        let seeds = [5u64, 1009, 5, 33];
        let mut want = Vec::new();
        for &s in &seeds {
            clear_arena();
            want.push(run_trial(&e, Some(StrategyKind::PacedBelowThreshold), s));
        }
        clear_arena();
        let mut got = Vec::new();
        for &s in &seeds {
            got.push(run_trial(&e, Some(StrategyKind::PacedBelowThreshold), s));
        }
        let (hits, misses) = fleet_arena_stats();
        assert_eq!((hits, misses), (3, 1), "warm pass must reuse the fleet shell");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "fleet reuse changed a trial");
        }
    }

    /// A full arena makes room for the newest shape by retiring the
    /// least recently used one — it must not turn every later trial of
    /// a 17th shape into a fresh build.
    #[test]
    fn a_full_arena_evicts_the_least_recently_used_shell() {
        clear_arena();
        let shape = |entropy_bits: u32| StackConfig {
            class: SystemClass::S1Pb,
            entropy_bits,
            ..StackConfig::default()
        };
        let first = 4;
        let newcomer = first + ARENA_CAP as u32;
        for bits in first..newcomer {
            with_arena_stack(shape(bits), |_| ());
        }
        with_arena_stack(shape(newcomer), |_| ());
        assert_eq!(arena_stats(), (0, ARENA_CAP as u64 + 1), "17 shapes, 17 builds");
        with_arena_stack(shape(newcomer), |_| ());
        assert_eq!(arena_stats().0, 1, "the 17th shape was shelved, not dropped");
        // Its room came from the oldest shape; the second-oldest stayed.
        with_arena_stack(shape(first + 1), |_| ());
        assert_eq!(arena_stats().0, 2, "a recently used shape survives eviction");
        with_arena_stack(shape(first), |_| ());
        assert_eq!(arena_stats().0, 2, "the least recently used shape was retired");
    }

    #[test]
    fn arena_caps_and_counts() {
        clear_arena();
        let e = exp(SystemClass::S2Fortress);
        run_trial(&e, Some(StrategyKind::PacedBelowThreshold), 1);
        run_trial(&e, Some(StrategyKind::PacedBelowThreshold), 2);
        let (hits, misses) = arena_stats();
        assert_eq!((hits, misses), (1, 1), "second same-shape trial reuses");
    }
}
