//! Per-worker trial arena: reuse assembled fleets across trials.
//!
//! Building a protocol stack is two orders of magnitude more allocation
//! than running one of its steps — names, engines, registries, key
//! draws. A Monte-Carlo cell runs hundreds of trials against assemblies
//! that differ **only in their seeds and fault plan**, so the arena keeps
//! each worker thread's assembled shells around and rewinds them instead
//! of reassembling.
//!
//! There is one kind of shell, because there is one trial assembly: a
//! [`Fleet`] of groups over one shared [`SimNet`] behind the
//! [`FaultyTransport`] decorator. An unsharded cell is a fleet of one, a
//! clean cell runs the decorator under [`FaultPlan::None`] (a
//! byte-identical passthrough).
//!
//! # Contract
//!
//! [`Fleet::reset`] followed by [`FaultyTransport::rearm`] is
//! bit-for-bit: a rewound shell replays the exact RNG streams, addresses,
//! key draws and fault schedule a freshly built one with the same
//! configuration, seeds, plan and stream would (asserted by
//! `fortress-core`'s `fleet_reset_replays_fresh_assembly_bit_for_bit`,
//! `fortress-net`'s `trial_reset_then_rearm_replays_fresh_decorator_bit_for_bit`
//! and this module's [tests](self#tests)). Reuse is keyed on
//! [`FleetConfig::same_shape`] — group count and every per-group knob
//! but the seed — so a cached shell is only ever rewound within its own
//! topology. The fault plan is **not** part of the key: whatever a shell
//! last ran under (held frames, injected counters, the decorator's clock)
//! is rewound with the rest. The arena is `thread_local`, giving each
//! thread of a run its own cache with no synchronization on the trial
//! hot path. A runner's helpers live for one call, so theirs is rebuilt
//! once per call; the caller's persists.

use std::cell::{Cell, RefCell};

use fortress_core::fleet::{Fleet, FleetConfig};
use fortress_net::fault::{FaultPlan, FaultyTransport};
use fortress_net::sim::{SimConfig, SimNet};

/// Cached shells per worker thread. The paper-default campaign grid has
/// 9 shapes (3 suspicion policies × 3 fleet sizes); the cap bounds
/// memory if a sweep enumerates many more, and the least-recently-used
/// shell makes way for the newest.
const ARENA_CAP: usize = 16;

/// The one assembly every protocol trial runs on.
type Shell = Fleet<FaultyTransport<SimNet>>;

/// One thread's cache of assembled shells, least recently used first,
/// with its reuse counters.
struct Shelf {
    shells: RefCell<Vec<Shell>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

thread_local! {
    static SHELF: Shelf = const {
        Shelf { shells: RefCell::new(Vec::new()), hits: Cell::new(0), misses: Cell::new(0) }
    };
}

/// Runs `f` against a fleet assembled under `cfg` with group `g` on
/// master seed `seed_of(g)` and the shared net under `plan`, its fault
/// stream seeded `stream_seed`. The fleet is the cached same-shaped shell
/// of this thread's arena, rewound, or a fresh build when there is none;
/// results are bit-identical either way — callers cannot observe whether
/// they got a reused shell. It is shelved again afterwards as the most
/// recently used, evicting the least recently used shell once
/// [`ARENA_CAP`] are held, and is off the shelf while `f` runs, so `f`
/// may itself come back to the arena.
pub(crate) fn with_arena_fleet<R>(
    cfg: FleetConfig,
    seed_of: impl Fn(usize) -> u64,
    plan: FaultPlan,
    stream_seed: u64,
    f: impl FnOnce(&mut Shell) -> R,
) -> R {
    let cached = SHELF.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        // Most recently used first: a cell's consecutive trials find
        // their shell at the back, where taking it shifts nothing.
        let found = shells.iter().rposition(|fleet| fleet.config().same_shape(&cfg));
        let count = if found.is_some() { &shelf.hits } else { &shelf.misses };
        count.set(count.get() + 1);
        found.map(|i| shells.remove(i))
    });
    let mut fleet = match cached {
        Some(mut fleet) => {
            fleet.reset(seed_of);
            fleet.shared_net().with_inner(|net| net.rearm(plan, stream_seed));
            fleet
        }
        None => {
            let net = FaultyTransport::new(SimNet::new(SimConfig::default()), plan, stream_seed);
            // Sweep axes reach here unvalidated (a fleet size of 0, an
            // entropy outside 1..=63): every trial of such a cell panics.
            Fleet::new(cfg, net, seed_of).unwrap_or_else(|e| {
                panic!("this cell's stack configuration does not assemble: {e}")
            })
        }
    };
    let out = f(&mut fleet);
    SHELF.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        if shells.len() >= ARENA_CAP {
            shells.remove(0);
        }
        shells.push(fleet);
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
    use fortress_attack::campaign::StrategyKind;
    use fortress_attack::shard::ShardPlacement;
    use fortress_core::client::RetryPolicy;
    use fortress_core::system::{StackConfig, SystemClass};
    use fortress_model::params::Policy;

    use crate::campaign_mc::run_trial;
    use crate::faults::FaultSpec;
    use crate::fleet_mc::ShardSpec;
    use crate::protocol_mc::ProtocolExperiment;

    fn exp(class: SystemClass) -> ProtocolExperiment {
        ProtocolExperiment {
            entropy_bits: 6,
            omega: 8.0,
            max_steps: 600,
            ..ProtocolExperiment::new(class, Policy::StartupOnly)
        }
    }

    fn two_shards() -> ShardSpec {
        ShardSpec::Sharded {
            shards: 2,
            zipf_s: 1.2,
            placement: ShardPlacement::Concentrate,
            rebalance_at: 20,
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
    /// share **one** stack shape, hence one shelf entry per group count:
    /// the plan is not part of the key, so what a shell last ran under —
    /// the plan itself, its stream position, injected counters, the
    /// decorator's clock and hold sequence — must be unobservable to the
    /// next trial, clean or degraded. (A trial cannot shelve a shell with
    /// frames still held: every step ends in a pump, which drains the hold
    /// heap. That rewind is pinned where it can happen, in `fortress-net`
    /// and `fortress-core`.)
    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_builds() {
        let clean = ProtocolExperiment { max_steps: 60, ..exp(SystemClass::S2Fortress) };
        let cells = [
            ProtocolExperiment { fault: degraded(0.1, 6, 0.1), ..clean },
            clean,
            ProtocolExperiment { fault: degraded(0.3, 0, 0.0), ..clean },
            ProtocolExperiment { shard: two_shards(), ..clean },
            exp(SystemClass::S1Pb),
        ];
        let paced = Some(StrategyKind::PacedBelowThreshold);
        let trial = |e: &ProtocolExperiment, s| match e.class {
            SystemClass::S2Fortress => run_trial(e, paced, s),
            _ => e.run_measured(s),
        };
        let seeds = [3u64, 911, 3, 77, 1_000_003];
        // Reference pass: cold arena for every trial.
        let mut want = Vec::new();
        for &s in &seeds {
            for e in &cells {
                clear_arena();
                want.push(trial(e, s));
            }
        }
        // Warm pass: one arena across all trials, cells interleaved.
        clear_arena();
        let mut got = Vec::new();
        for &s in &seeds {
            for e in &cells {
                got.push(trial(e, s));
            }
        }
        // Three shapes: the S2 group alone (three cells), two of it, S1.
        assert_eq!(arena_stats(), (22, 3), "the three plans must share one shell");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "arena reuse changed a trial");
        }
    }

    /// Fleet reuse is equally invisible: sharded trials against rewound
    /// fleets reproduce fresh-built fleets bit-for-bit.
    #[test]
    fn fleet_arena_reuse_is_bit_identical_to_fresh_builds() {
        let mut e = exp(SystemClass::S2Fortress);
        e.max_steps = 60;
        e.shard = two_shards();
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
        assert_eq!(arena_stats(), (3, 1), "warm pass must reuse the fleet shell");
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
        let visit = |entropy_bits: u32| {
            let stack =
                StackConfig { class: SystemClass::S1Pb, entropy_bits, ..StackConfig::default() };
            with_arena_fleet(FleetConfig { stack, groups: 1 }, |_| 1, FaultPlan::None, 0, |_| ());
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
