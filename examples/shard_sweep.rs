//! Shard-axis quickstart: split the deployment into a fleet of
//! independent fortress groups behind a key-hash router, skew the
//! client workload, place the adversary's probe budget across the
//! shards, and read the fleet observables — hottest-shard lifetime,
//! hot-shard load fraction, migrated requests, groups fallen — off one
//! declarative sweep.
//!
//! # The shard axis in three moves
//!
//! 1. **Declare the shard coordinate.** A [`ShardSpec::Sharded`] cell
//!    names the group count, the Zipf skew `s` of the key workload
//!    (drawn from its own SplitMix64 stream, so sharding never perturbs
//!    the attack or fault streams), the cross-shard
//!    [`ShardPlacement`] — concentrate the probe budget on the hottest
//!    shard, or spread it thin — and an optional rebalance step at
//!    which half the hottest group's key ranges migrate to its
//!    neighbour, with in-flight requests re-routed through the client's
//!    retry machinery.
//! 2. **Cross it with the grid.** `SweepSpec::shards` multiplies the
//!    coordinates into every other axis; cells label themselves
//!    (`… shard=g3+z1.2+concentrate+reb@6`) and seed themselves from
//!    their content, so adding the axis changes no existing cell — a
//!    `ShardSpec::None` coordinate runs as a fleet of one group on the
//!    trial seed, bit for bit what it measured before the axis.
//! 3. **Read the metrics.** Each sharded cell's report row carries
//!    `hot_lifetime` (steps until the hottest shard fell),
//!    `hot_load` (fraction of requests routed to it),
//!    `moved_requests` (in-flight requests handed to a new owner by a
//!    rebalance) and `groups_fallen` — alongside the usual lifetime
//!    and availability columns.
//!
//! ```text
//! cargo run --example shard_sweep
//! ```
//!
//! [`ShardSpec::Sharded`]: fortress::sim::fleet_mc::ShardSpec
//! [`ShardPlacement`]: fortress::attack::shard::ShardPlacement

use fortress::attack::shard::ShardPlacement;
use fortress::sim::fleet_mc::ShardSpec;
use fortress::sim::runner::{Runner, TrialBudget};
use fortress::sim::scenario::{shard_base, SweepScheduler, SweepSpec};

fn main() {
    // Group count × skew × placement on the fortified S2 (shared shard
    // template: fall-biased so the hottest-shard signal lands inside
    // the mission window). The vacuous coordinate is the control: one
    // group on the trial seed, the pre-axis results bit for bit.
    let mut shards = vec![ShardSpec::None];
    for groups in [2, 3] {
        for zipf_s in [0.8, 1.4] {
            for placement in ShardPlacement::ALL {
                shards.push(ShardSpec::Sharded {
                    shards: groups,
                    zipf_s,
                    placement,
                    rebalance_at: 0,
                });
            }
        }
    }
    // One rebalancing coordinate: mid-window, half the hottest group's
    // slots migrate to its neighbour.
    shards.push(ShardSpec::Sharded {
        shards: 3,
        zipf_s: 1.4,
        placement: ShardPlacement::Concentrate,
        rebalance_at: 6,
    });

    let cells = SweepSpec::new(shard_base()).shards(shards).compile(11);
    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(32)).run(&cells);
    println!("{}", report.to_table().to_aligned());

    let ratio = report
        .hot_shard_lifetime_ratio()
        .expect("the sweep carries both placements");
    println!(
        "hottest-shard lifetime, concentrate vs spread: {ratio:.3}x \
         (below 1: concentrating the probe budget ends the hot shard sooner; \
         spreading buys the hot tenant time at the cold tenants' expense)"
    );
}
