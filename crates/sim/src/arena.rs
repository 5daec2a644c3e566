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

use fortress_core::fleet::{Fleet, FleetConfig};
use fortress_core::system::{Stack, StackConfig};
use fortress_net::sim::SimNet;

/// Cached stacks per worker thread. The paper-default campaign grid has
/// 9 shapes (3 suspicion policies × 3 fleet sizes); the cap bounds
/// memory if a sweep enumerates many more.
const ARENA_CAP: usize = 16;

thread_local! {
    static ARENA: RefCell<Vec<Stack<SimNet>>> = const { RefCell::new(Vec::new()) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
    static FLEET_ARENA: RefCell<Vec<Fleet<SimNet>>> = const { RefCell::new(Vec::new()) };
    static FLEET_HITS: Cell<u64> = const { Cell::new(0) };
    static FLEET_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` against a stack assembled under `cfg`, drawing it from this
/// thread's arena when a same-shaped stack is cached (rewound to
/// `cfg.seed` via [`Stack::reset`]) and building it fresh otherwise.
/// The stack returns to the arena afterwards. Results are bit-identical
/// either way — callers cannot observe whether they got a reused shell.
pub fn with_arena_stack<R>(cfg: StackConfig, f: impl FnOnce(&mut Stack<SimNet>) -> R) -> R {
    let cached = ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.iter()
            .position(|s| s.config().same_shape(&cfg))
            .map(|i| a.swap_remove(i))
    });
    let mut stack = match cached {
        Some(mut s) => {
            HITS.with(|c| c.set(c.get() + 1));
            s.reset(cfg.seed);
            s
        }
        None => {
            MISSES.with(|c| c.set(c.get() + 1));
            Stack::new(cfg).expect("stack assembly is validated by construction")
        }
    };
    let out = f(&mut stack);
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if a.len() < ARENA_CAP {
            a.push(stack);
        }
    });
    out
}

/// The fleet analogue of [`with_arena_stack`]: runs `f` against a
/// [`Fleet`] assembled under `cfg`, rewinding a cached same-shaped
/// fleet (keyed on [`FleetConfig::same_shape`] — group count plus
/// per-group shape) via [`Fleet::reset`] when one is available. Sharded
/// cells' fault-free trials all come through here, so a cell's trials
/// rewind one assembled fleet instead of rebuilding N stacks each.
pub fn with_arena_fleet<R>(cfg: FleetConfig, f: impl FnOnce(&mut Fleet<SimNet>) -> R) -> R {
    let cached = FLEET_ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.iter()
            .position(|fl| fl.config().same_shape(&cfg))
            .map(|i| a.swap_remove(i))
    });
    let mut fleet = match cached {
        Some(mut fl) => {
            FLEET_HITS.with(|c| c.set(c.get() + 1));
            fl.reset(cfg.stack.seed);
            fl
        }
        None => {
            FLEET_MISSES.with(|c| c.set(c.get() + 1));
            Fleet::new(cfg).expect("fleet assembly is validated by construction")
        }
    };
    let out = f(&mut fleet);
    FLEET_ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if a.len() < ARENA_CAP {
            a.push(fleet);
        }
    });
    out
}

/// This thread's arena counters: `(reuse hits, fresh builds)`. Purely
/// diagnostic — the bench binaries report the reuse rate with them.
pub fn arena_stats() -> (u64, u64) {
    (HITS.with(Cell::get), MISSES.with(Cell::get))
}

/// This thread's **fleet**-arena counters: `(reuse hits, fresh builds)`.
pub fn fleet_arena_stats() -> (u64, u64) {
    (FLEET_HITS.with(Cell::get), FLEET_MISSES.with(Cell::get))
}

/// Drops this thread's cached stacks and fleets and zeroes the
/// counters — for benches that compare cold (fresh-build) against warm
/// (reuse) paths.
pub fn clear_arena() {
    ARENA.with(|a| a.borrow_mut().clear());
    HITS.with(|c| c.set(0));
    MISSES.with(|c| c.set(0));
    FLEET_ARENA.with(|a| a.borrow_mut().clear());
    FLEET_HITS.with(|c| c.set(0));
    FLEET_MISSES.with(|c| c.set(0));
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
        use crate::fleet_mc::{run_fleet_measured, ShardSpec};
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
            want.push(run_fleet_measured(&e, StrategyKind::PacedBelowThreshold, s));
        }
        clear_arena();
        let mut got = Vec::new();
        for &s in &seeds {
            got.push(run_fleet_measured(&e, StrategyKind::PacedBelowThreshold, s));
        }
        let (hits, misses) = fleet_arena_stats();
        assert_eq!((hits, misses), (3, 1), "warm pass must reuse the fleet shell");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "fleet reuse changed a trial");
        }
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
