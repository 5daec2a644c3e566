//! Per-worker trial arena: reuse a trial's assembled groups across trials.
//!
//! Building a protocol stack is two orders of magnitude more allocation
//! than running one of its steps — names, engines, registries, key
//! draws. A Monte-Carlo cell runs hundreds of trials against assemblies
//! that differ **only in their seeds and fault plan**, so the arena keeps
//! each worker thread's assembled shells around and rewinds them instead
//! of reassembling.
//!
//! There is one kind of shell, because there is one trial assembly: the
//! trial's groups, each a [`Stack`] on its own [`SimNet`] under the
//! cell's [`FaultPlan`]. An unsharded cell is one group, a clean cell
//! runs the nets under [`FaultPlan::None`]. Groups share nothing: group
//! `g`'s net draws its faults from `fold(seed_of(g), FAULT_STREAM)`, and
//! its addresses, clocks and counters are its own.
//!
//! # Contract
//!
//! [`SimNet::rearm`] followed by [`Stack::reset`] is bit-for-bit: a
//! rewound group replays the exact RNG streams, addresses, key draws and
//! fault schedule a freshly built one with the same configuration, seed,
//! plan and stream would (asserted by `fortress-core`'s
//! `reset_under_faults_replays_fresh_assembly_bit_for_bit` and its
//! 128-case property, `fortress-net`'s
//! `trial_reset_then_rearm_replays_fresh_decorator_bit_for_bit` and
//! `a_degraded_simnet_conserves_and_replays_after_reset`, and this
//! module's [tests](self#tests)). Reuse is keyed on the group count and
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

/// One thread's cache of assembled shells (a trial's groups), least
/// recently used first, with its reuse counters.
struct Shelf {
    shells: RefCell<Vec<Vec<Stack<SimNet>>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

thread_local! {
    static SHELF: Shelf = const {
        Shelf { shells: RefCell::new(Vec::new()), hits: Cell::new(0), misses: Cell::new(0) }
    };
}

/// Builds one group: `cfg` under master seed `seed`, on a fresh
/// [`SimNet`] under `plan`, its fault stream `fold(seed, FAULT_STREAM)`.
fn build_group(cfg: StackConfig, seed: u64, plan: FaultPlan) -> Stack<SimNet> {
    let net = SimNet::new(SimConfig { faults: plan, fault_stream: fold(seed, FAULT_STREAM) });
    // Sweep axes reach here unvalidated (a fleet size of 0, an entropy
    // outside 1..=63): every trial of such a cell panics.
    Stack::with_transport(StackConfig { seed, ..cfg }, net)
        .unwrap_or_else(|e| panic!("this cell's stack configuration does not assemble: {e}"))
}

/// Runs `f` against `groups` groups assembled under `cfg`, group `g` on
/// master seed `seed_of(g)` with its net under `plan`. The groups
/// are the cached same-shaped shell of this thread's arena, rewound, or a
/// fresh build when there is none; results are bit-identical either way —
/// callers cannot observe whether they got a reused shell. It is shelved
/// again afterwards as the most recently used, evicting the least
/// recently used shell once [`ARENA_CAP`] are held, and is off the shelf
/// while `f` runs, so `f` may itself come back to the arena.
///
/// # Panics
///
/// Panics for zero groups, and when `cfg` does not assemble.
pub(crate) fn with_arena_groups<R>(
    cfg: StackConfig,
    groups: usize,
    seed_of: impl Fn(usize) -> u64,
    plan: FaultPlan,
    f: impl FnOnce(&mut [Stack<SimNet>]) -> R,
) -> R {
    assert!(groups > 0, "a trial needs at least one group");
    let cached = SHELF.with(|shelf| {
        let mut shells = shelf.shells.borrow_mut();
        // Most recently used first: a cell's consecutive trials find
        // their shell at the back, where taking it shifts nothing.
        let found = shells
            .iter()
            .rposition(|shell| shell.len() == groups && shell[0].config().same_shape(&cfg));
        let count = if found.is_some() { &shelf.hits } else { &shelf.misses };
        count.set(count.get() + 1);
        found.map(|i| shells.remove(i))
    });
    let mut shell = match cached {
        Some(mut shell) => {
            for (g, stack) in shell.iter_mut().enumerate() {
                let seed = seed_of(g);
                stack.transport_mut().rearm(plan, fold(seed, FAULT_STREAM));
                stack.reset(seed);
            }
            shell
        }
        None => (0..groups).map(|g| build_group(cfg, seed_of(g), plan)).collect(),
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
    use fortress_attack::shard::ShardPlacement;
    use fortress_core::client::RetryPolicy;
    use fortress_core::messages::ClientRequest;
    use fortress_core::system::{CompromiseState, SystemClass};
    use fortress_model::params::Policy;

    use crate::faults::FaultSpec;
    use crate::fleet_mc::ShardSpec;
    use crate::protocol_mc::{group_seed, run_trial, ProtocolExperiment};

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
    /// fault clock and hold sequence — must be unobservable to the next
    /// trial, clean or degraded. (A trial cannot shelve a shell with
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
        // Three shapes: the S2 group alone (three cells), two of it, S1.
        assert_eq!(arena_stats(), (22, 3), "the three plans must share one shell");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "arena reuse changed a trial");
        }
    }

    /// Reuse is equally invisible for a sharded trial: its rewound groups
    /// reproduce fresh-built ones bit-for-bit.
    #[test]
    fn fleet_arena_reuse_is_bit_identical_to_fresh_builds() {
        let mut e = exp(SystemClass::S2Fortress);
        e.max_steps = 60;
        e.shard = two_shards();
        let seeds = [5u64, 1009, 5, 33];
        let mut want = Vec::new();
        for &s in &seeds {
            clear_arena();
            want.push(run_trial(&e, s));
        }
        clear_arena();
        let mut got = Vec::new();
        for &s in &seeds {
            got.push(run_trial(&e, s));
        }
        assert_eq!(arena_stats(), (3, 1), "warm pass must reuse the two-group shell");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(format!("{w:?}"), format!("{g:?}"), "group reuse changed a trial");
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
            with_arena_groups(stack, 1, |_| 1, FaultPlan::None, |_| ());
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

    /// A shell is rewound only into its own group count and shape; the
    /// seed is not part of the key.
    #[test]
    fn reuse_keys_on_group_count_and_shape() {
        clear_arena();
        let a = StackConfig { entropy_bits: 6, ..StackConfig::default() };
        let visit =
            |cfg, groups| with_arena_groups(cfg, groups, |g| g as u64, FaultPlan::None, |_| ());
        visit(a, 2);
        visit(StackConfig { seed: 99, ..a }, 2);
        assert_eq!(arena_stats(), (1, 1), "another seed reuses the shell");
        visit(a, 3);
        visit(StackConfig { np: 5, ..a }, 2);
        assert_eq!(arena_stats(), (1, 3), "another group count or shape builds");
    }

    /// Sibling groups are tenants of nothing shared: decorrelated keys
    /// from their own seeds, and a network each, so group 1's proxies sit
    /// at the very addresses group 0's do.
    #[test]
    fn groups_are_isolated_tenants() {
        let cfg = StackConfig { entropy_bits: 6, ..StackConfig::default() };
        with_arena_groups(cfg, 3, |g| group_seed(7, g), FaultPlan::None, |groups| {
            assert_ne!(groups[0].server_keys(), groups[1].server_keys());
            assert_eq!(groups[0].proxy_addrs(), groups[1].proxy_addrs());
            assert_eq!(groups[0].config().seed, group_seed(7, 0));
        });
    }

    #[test]
    fn s0_groups_assemble_too() {
        let cfg =
            StackConfig { class: SystemClass::S0Smr, entropy_bits: 6, ..StackConfig::default() };
        with_arena_groups(cfg, 2, |g| group_seed(5, g), FaultPlan::None, |groups| {
            for stack in groups.iter() {
                assert_eq!((stack.server_count(), stack.proxy_count()), (4, 0));
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn a_trial_of_no_groups_is_refused() {
        with_arena_groups(StackConfig::default(), 0, |_| 1, FaultPlan::None, |_| ());
    }

    /// A group's availability counts only its own dead letters. Two S1
    /// groups each lose server 1 and only group 1's client sends; group 0
    /// sent nothing, so it lost nothing and its books are empty. On a
    /// network shared by both, group 0 reads group 1's two dead letters
    /// as its own `lost_requests`, and a sharded cell with outages sums
    /// every loss once per group.
    #[test]
    fn a_siblings_dead_letters_are_not_this_groups_losses() {
        let cfg =
            StackConfig { class: SystemClass::S1Pb, entropy_bits: 6, ..StackConfig::default() };
        with_arena_groups(cfg, 2, |g| group_seed(3, g), FaultPlan::None, |groups| {
            for stack in groups.iter_mut() {
                stack.add_client("alice");
                stack.take_down_server(1);
            }
            let req = ClientRequest { seq: 1, client: "alice".into(), op: b"PUT k v".to_vec() };
            groups[1].submit("alice", &req);
            groups[1].pump();
            for stack in groups.iter_mut() {
                stack.end_step();
            }
            assert_eq!(groups[1].availability().lost_requests, 2, "{:?}", groups[1].net_stats());
            assert_eq!(groups[0].availability().lost_requests, 0);
            let own = groups[0].net_stats();
            assert_eq!((own.sent, own.delivered, own.dead_lettered), (0, 0, 0), "{own:?}");
        });
    }

    /// A group's run does not depend on its sibling's traffic, even on a
    /// degraded network: group 0's replies, step states and availability
    /// are the same whether group 1 idles or submits every step. On one
    /// shared network group 1's sends consume group 0's fault draws and
    /// advance its clock.
    #[test]
    fn a_group_does_not_see_its_siblings_traffic() {
        let plan = FaultPlan::Degraded {
            loss: 0.2,
            delay_min: 0,
            delay_max: 3,
            dup: 0.1,
            partition: None,
            slow: None,
        };
        let cfg = StackConfig { entropy_bits: 6, ..StackConfig::default() };
        let run = |sibling_busy: bool| {
            with_arena_groups(cfg, 2, |g| group_seed(5, g), plan, |groups| {
                for stack in groups.iter_mut() {
                    stack.add_client("alice");
                }
                let busy = if sibling_busy { 2 } else { 1 };
                let (mut replies, mut states) = (Vec::new(), Vec::new());
                for seq in 1..=30 {
                    let req = ClientRequest { seq, client: "alice".into(), op: b"GET k".to_vec() };
                    for stack in &mut groups[..busy] {
                        stack.submit("alice", &req);
                        stack.pump();
                    }
                    replies.extend(groups[0].drain_client("alice"));
                    for stack in groups.iter_mut() {
                        states.push(stack.end_step());
                    }
                }
                let own: Vec<CompromiseState> = states.into_iter().step_by(2).collect();
                assert!(replies.iter().any(|ev| ev.payload().is_some()), "group 0 is served");
                (replies, own, groups[0].availability())
            })
        };
        assert_eq!(run(false), run(true), "group 1's traffic reached group 0");
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
