//! The shard axis: sharded multi-tenant fleets under cross-shard attack,
//! and the one workload probe every protocol trial measures service with.
//!
//! A sharded cell runs N independent fortress groups — N [`Stack`]s,
//! each on its own network — fronted by the key-hash shard directory
//! ([`ShardMap`]). A deterministic Zipf
//! workload skews keys across the directory, the cell's adversary
//! places its probe budget across groups per its [`ShardPlacement`]
//! (concentrate on the hottest shard vs. spread thin), and an optional
//! mid-trial **rebalance** bumps the directory epoch, migrates the
//! hottest group's key ranges to a sibling and re-routes in-flight
//! requests to the new owner through the client retry machinery.
//!
//! [`ShardSpec`] is the sweep coordinate: [`ShardSpec::None`] folds
//! nothing into content seeds and consumes no RNG, so every legacy
//! golden keeps its pinned bits, and runs as one group on the trial
//! seed; [`ShardSpec::Sharded`] makes the trial
//! ([`run_trial`](crate::protocol_mc::run_trial)) run `shards` groups,
//! each on its own seed, in the same loop.
//!
//! [`WorkloadProbe`] is the drain → settle → resend → issue cycle of a
//! benign client, over any slice of groups: with a [`ZipfWorkload`] it
//! routes one key through the directory every [`SHARD_REQUEST_PERIOD`]
//! steps (sharded cells), without one it sends a fixed request to group
//! 0 every [`FAULT_REQUEST_PERIOD`] steps (the goodput measurement of a
//! degraded unsharded cell).
//!
//! # Streams
//!
//! A sharded trial extends the per-trial stream-splitting convention:
//! group `g`'s stack, fault stream, adversary and outage driver all
//! derive from [`group_seed`](crate::protocol_mc::group_seed)`(trial_seed, g)`,
//! and the Zipf workload draws from
//! `fold(trial_seed, `[`SHARD_WORKLOAD_STREAM`]`)`. No stream depends on
//! thread placement, so sharded cells keep the campaign determinism
//! contract (bit-identical at any thread count).

use std::collections::BTreeMap;

use fortress_attack::shard::ShardPlacement;
use fortress_core::client::{Degradation, ProbeClient, RetryPolicy, RetryTracker};
use fortress_core::nameserver::ShardMap;
use fortress_core::system::Stack;
use fortress_net::Transport;
use rand::{Rng, SeedableRng};

use crate::faults::FAULT_REQUEST_PERIOD;
use crate::runner::fold;

/// Stream salt for the Zipf workload's RNG: the key sequence is drawn
/// from `fold(trial_seed, SHARD_WORKLOAD_STREAM)`, its own stream per
/// the trial stream-splitting convention (see [`crate::faults`]).
pub const SHARD_WORKLOAD_STREAM: u64 = 0x0005_AA2D_F00D;

/// Number of distinct workload keys. Small enough that the per-key Zipf
/// weights are cheap to tabulate, large enough that every shard-map
/// slot pattern sees traffic.
pub const SHARD_KEY_SPACE: u64 = 128;

/// Steps between consecutive routed workload requests (per fleet, not per
/// group — the workload is one key stream routed by the directory).
pub const SHARD_REQUEST_PERIOD: u64 = 2;

/// The shard coordinate of a sweep cell. `Copy + PartialEq` so it can
/// sit beside the other axes; its parameters fold into the cell's
/// content-derived seed (two cells differing in any shard parameter
/// draw decorrelated trial streams).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShardSpec {
    /// One group, no shard directory, no workload — the pre-shard-axis
    /// behavior and the seed-compatible default (a `None` cell folds
    /// nothing extra into its content seed, so legacy cells keep their
    /// pinned bits).
    None,
    /// Run the cell as a fleet of `shards` fortress groups behind the
    /// key-hash directory.
    Sharded {
        /// Number of fortress groups (≥ 1).
        shards: usize,
        /// Zipf skew exponent `s` of the key workload (0 = uniform;
        /// larger = hotter hot shard).
        zipf_s: f64,
        /// How the adversary splits its probe budget across groups.
        placement: ShardPlacement,
        /// 1-based step at which the hottest group sheds half its key
        /// ranges to a sibling (epoch bump + in-flight re-route); 0
        /// disables rebalancing.
        rebalance_at: u64,
    },
}

impl ShardSpec {
    /// Whether this is the unsharded coordinate.
    pub fn is_none(&self) -> bool {
        matches!(self, ShardSpec::None)
    }

    /// Short label for cell names and reports. Comma-free (labels are
    /// CSV cells) — segments join with `+`.
    pub fn label(&self) -> String {
        match *self {
            ShardSpec::None => "none".to_string(),
            ShardSpec::Sharded {
                shards,
                zipf_s,
                placement,
                rebalance_at,
            } => {
                let mut label = format!("g{shards}+z{zipf_s}+{}", placement.label());
                if rebalance_at > 0 {
                    label.push_str(&format!("+reb@{rebalance_at}"));
                }
                label
            }
        }
    }

    /// Folds the shard coordinate into a content seed. [`ShardSpec::None`]
    /// deliberately folds **nothing**, preserving every pre-axis cell
    /// seed bit-for-bit (the legacy golden files pin them).
    pub(crate) fn fold_into(&self, seed: u64) -> u64 {
        match *self {
            ShardSpec::None => seed,
            ShardSpec::Sharded {
                shards,
                zipf_s,
                placement,
                rebalance_at,
            } => {
                let mut s = fold(seed, 0x05AA_2D01);
                s = fold(s, shards as u64);
                s = fold(s, zipf_s.to_bits());
                s = fold(s, placement.id());
                fold(s, rebalance_at)
            }
        }
    }
}

/// A deterministic Zipf(`s`) sampler over [`SHARD_KEY_SPACE`] keys:
/// key `k` is drawn with probability ∝ `1 / (k + 1)^s`, by inversion of
/// the tabulated cumulative weights. Seeded from its own stream (see
/// [`SHARD_WORKLOAD_STREAM`]), so the key sequence is a pure function of
/// the trial seed — identical on any thread.
pub struct ZipfWorkload {
    cum: Vec<f64>,
    rng: rand::rngs::SmallRng,
}

impl ZipfWorkload {
    /// A sampler with skew `s`, drawing from the stream seeded `seed`.
    pub fn new(zipf_s: f64, seed: u64) -> ZipfWorkload {
        let mut cum = Vec::with_capacity(SHARD_KEY_SPACE as usize);
        let mut total = 0.0;
        for k in 0..SHARD_KEY_SPACE {
            total += 1.0 / ((k + 1) as f64).powf(zipf_s);
            cum.push(total);
        }
        ZipfWorkload {
            cum,
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws the next key.
    pub fn draw(&mut self) -> u64 {
        let total = *self.cum.last().expect("key space is non-empty");
        let u = self.rng.gen::<f64>() * total;
        (self.cum.partition_point(|&c| c <= u) as u64).min(SHARD_KEY_SPACE - 1)
    }
}

/// The Zipf(`s`) probability mass routed to each group by `map` —
/// unnormalized per-group weight sums over the key universe.
fn group_masses(zipf_s: f64, map: &ShardMap) -> Vec<f64> {
    let mut mass = vec![0.0; map.groups()];
    for k in 0..SHARD_KEY_SPACE {
        mass[map.owner_of(k)] += 1.0 / ((k + 1) as f64).powf(zipf_s);
    }
    mass
}

/// The group serving the most workload mass under `map` (lowest index
/// wins ties) — the "hottest shard" the placement axis aims at.
pub fn hottest_group(zipf_s: f64, map: &ShardMap) -> usize {
    let masses = group_masses(zipf_s, map);
    let mut best = 0;
    for (g, &m) in masses.iter().enumerate() {
        if m > masses[best] {
            best = g;
        }
    }
    best
}

/// The one workload probe: a benign measurement client on every group
/// of a trial, every request tracked through the retry machinery and
/// every observable counted in a [`Degradation`] read out at trial end.
/// With a [`ZipfWorkload`] it is a sharded front-end — one key stream
/// routed through the shard directory, in-flight requests re-routed when
/// a rebalance moves their key; without one it trickles a fixed request
/// at group 0. RNG-free except for the dedicated workload stream, so
/// probed trials stay pure functions of their seed.
pub struct WorkloadProbe {
    name: String,
    /// Per group: its class-matched client plus its own retry tracker
    /// (per-group sequence numbers collide across groups, so trackers
    /// cannot be shared).
    groups: Vec<(ProbeClient, RetryTracker)>,
    /// Key behind every in-flight routed request, by `(group, seq)` —
    /// what a rebalance consults to find requests whose owner moved.
    routes: BTreeMap<(usize, u64), u64>,
    workload: Option<ZipfWorkload>,
    hottest: usize,
    issued: u64,
    hot_issued: u64,
    moved: u64,
}

impl WorkloadProbe {
    /// Registers a probe client named `name` on every stack of `groups`.
    /// The client kind follows the stack's class: S2 gets the proxy-tier
    /// [`FortressClient`], S1 a [`DirectClient`] accepting any authentic
    /// reply, S0 a [`DirectClient`] demanding `f + 1` matching votes.
    /// `hottest` is the group whose share of the routed workload
    /// [`WorkloadProbe::finish`] reports.
    ///
    /// [`FortressClient`]: fortress_core::client::FortressClient
    /// [`DirectClient`]: fortress_core::client::DirectClient
    pub fn new<T: Transport>(
        groups: &mut [Stack<T>],
        name: &str,
        retry: RetryPolicy,
        workload: Option<ZipfWorkload>,
        hottest: usize,
    ) -> WorkloadProbe {
        WorkloadProbe {
            name: name.to_owned(),
            groups: groups
                .iter_mut()
                .map(|stack| (ProbeClient::attach(stack, name), RetryTracker::new(retry)))
                .collect(),
            routes: BTreeMap::new(),
            workload,
            hottest,
            issued: 0,
            hot_issued: 0,
            moved: 0,
        }
    }

    /// Issues a request against group `g` and tracks it: for `key` when
    /// routed, the fixed probe operation otherwise.
    fn issue<T: Transport>(
        &mut self,
        groups: &mut [Stack<T>],
        g: usize,
        key: Option<u64>,
        step: u64,
    ) {
        let (client, tracker) = &mut self.groups[g];
        let req = match key {
            Some(key) => {
                let req = client.request(format!("GET k{key}").as_bytes());
                self.routes.insert((g, req.seq), key);
                req
            }
            None => client.request(b"GET probe"),
        };
        tracker.track(&req, step);
        groups[g].submit(&self.name, &req);
        groups[g].pump();
    }

    /// One probe step at 1-based `step`: drain and judge every group's
    /// replies, resend whatever timed out, then issue the next request
    /// if the cadence says so — the next workload key routed through
    /// `map`, or the fixed probe at group 0.
    pub fn step<T: Transport>(&mut self, groups: &mut [Stack<T>], map: &ShardMap, step: u64) {
        for (g, stack) in groups.iter_mut().enumerate() {
            let (client, tracker) = &mut self.groups[g];
            for ev in stack.drain_client(&self.name) {
                if let Some(seq) = ev.payload().and_then(|p| client.settles(p)) {
                    if tracker.settle(seq) {
                        self.routes.remove(&(g, seq));
                    }
                }
            }
            for req in tracker.due_resends(step) {
                stack.submit(&self.name, &req);
                stack.pump();
            }
        }
        match self.workload.as_mut() {
            Some(workload) if (step - 1).is_multiple_of(SHARD_REQUEST_PERIOD) => {
                let key = workload.draw();
                let g = map.owner_of(key);
                self.issued += 1;
                self.hot_issued += u64::from(g == self.hottest);
                self.issue(groups, g, Some(key), step);
            }
            None if (step - 1).is_multiple_of(FAULT_REQUEST_PERIOD) => {
                self.issue(groups, 0, None, step);
            }
            _ => {}
        }
    }

    /// Re-routes in-flight requests after `map`'s epoch moved their key
    /// to a new owner: the old owner's tracker **forgets** the request
    /// (no accepted / gave-up accounting — it was neither), and a fresh
    /// request for the same key is issued and tracked against the new
    /// owner. Returns how many requests moved.
    pub fn rebalance<T: Transport>(
        &mut self,
        groups: &mut [Stack<T>],
        map: &ShardMap,
        step: u64,
    ) -> u64 {
        let snapshot: Vec<((usize, u64), u64)> =
            self.routes.iter().map(|(&k, &v)| (k, v)).collect();
        let mut moved = 0;
        for ((g, seq), key) in snapshot {
            if !self.groups[g].1.is_pending(seq) {
                // Gave up since we last looked; drop the stale route.
                self.routes.remove(&(g, seq));
                continue;
            }
            let owner = map.owner_of(key);
            if owner == g {
                continue;
            }
            self.groups[g].1.forget(seq);
            self.routes.remove(&(g, seq));
            self.issue(groups, owner, Some(key), step);
            moved += 1;
        }
        self.moved += moved;
        moved
    }

    /// Abandons whatever is still pending and sums every group's
    /// counters into the trial's [`Degradation`], plus the shard
    /// observables: the fraction of the routed workload the hottest
    /// group served and the rebalance-moved request count.
    pub fn finish(&mut self) -> (Degradation, f64, f64) {
        let mut total = Degradation::default();
        for (_, tracker) in &mut self.groups {
            tracker.abandon_pending();
            let d = tracker.degradation();
            total.issued += d.issued;
            total.accepted += d.accepted;
            total.retries += d.retries;
            total.duplicates_suppressed += d.duplicates_suppressed;
            total.gave_up += d.gave_up;
        }
        let hot_load = self.hot_issued as f64 / self.issued.max(1) as f64;
        (total, hot_load, self.moved as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_mc::{group_seed, run_trial, ProtocolExperiment};
    use crate::stats::Column;
    use fortress_core::system::{StackConfig, SystemClass};
    use fortress_obf::schedule::Policy;

    /// `groups` startup-only groups, each on its own bare `SimNet`, group
    /// `g` on `group_seed(seed, g)`.
    fn clean_groups(groups: usize, seed: u64) -> Vec<Stack> {
        let cfg = StackConfig {
            entropy_bits: 8,
            policy: Policy::StartupOnly,
            ..StackConfig::default()
        };
        (0..groups)
            .map(|g| Stack::new(StackConfig { seed: group_seed(seed, g), ..cfg }).unwrap())
            .collect()
    }

    fn sharded(shards: usize, placement: ShardPlacement, rebalance_at: u64) -> ShardSpec {
        ShardSpec::Sharded {
            shards,
            zipf_s: 1.2,
            placement,
            rebalance_at,
        }
    }

    #[test]
    fn labels_are_distinct_and_comma_free_and_none_folds_nothing() {
        let specs = [
            ShardSpec::None,
            sharded(2, ShardPlacement::Concentrate, 0),
            sharded(4, ShardPlacement::Concentrate, 0),
            sharded(2, ShardPlacement::Spread, 0),
            sharded(2, ShardPlacement::Concentrate, 50),
        ];
        let mut labels = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for spec in specs {
            let label = spec.label();
            assert!(!label.contains(','), "CSV-hostile label: {label}");
            assert!(labels.insert(label), "label collision at {spec:?}");
            assert!(
                seeds.insert(spec.fold_into(0xFEED)),
                "seed collision at {spec:?}"
            );
        }
        assert_eq!(ShardSpec::None.fold_into(0xFEED), 0xFEED);
    }

    /// Satellite property: the Zipf key stream is a pure function of its
    /// seed — bit-identical no matter which (or how many) threads draw
    /// it. This is what keeps sharded cells deterministic at any runner
    /// thread count.
    #[test]
    fn zipf_stream_is_deterministic_across_threads() {
        let reference: Vec<u64> = {
            let mut w = ZipfWorkload::new(1.1, 0xBEEF);
            (0..256).map(|_| w.draw()).collect()
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let want = reference.clone();
                std::thread::spawn(move || {
                    let mut w = ZipfWorkload::new(1.1, 0xBEEF);
                    let got: Vec<u64> = (0..256).map(|_| w.draw()).collect();
                    assert_eq!(got, want, "Zipf stream diverged on a thread");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_low_keys() {
        let mut w = ZipfWorkload::new(1.5, 7);
        let mut counts = vec![0u64; SHARD_KEY_SPACE as usize];
        for _ in 0..4000 {
            counts[w.draw() as usize] += 1;
        }
        let head: u64 = counts[..4].iter().sum();
        assert!(
            head > 4000 / 3,
            "keys 0..4 must dominate a Zipf(1.5) stream, got {head}/4000"
        );
        assert!(counts[0] > counts[SHARD_KEY_SPACE as usize - 1]);
    }

    #[test]
    fn hottest_group_is_the_argmax_of_routed_mass() {
        let map = ShardMap::uniform(3);
        let hot = hottest_group(1.2, &map);
        let masses = group_masses(1.2, &map);
        for (g, &m) in masses.iter().enumerate() {
            assert!(masses[hot] >= m, "group {g} outweighs the hottest");
        }
        // Purity: same map + skew, same answer.
        assert_eq!(hot, hottest_group(1.2, &ShardMap::uniform(3)));
    }

    #[test]
    fn probe_on_a_clean_fleet_reaches_full_goodput() {
        let groups = &mut clean_groups(3, 5)[..];
        let map = ShardMap::uniform(3);
        let hottest = hottest_group(1.2, &map);
        let workload = Some(ZipfWorkload::new(1.2, 0xFEED));
        let mut probe =
            WorkloadProbe::new(groups, "probe", RetryPolicy::no_retry(8), workload, hottest);
        for step in 1..=60 {
            probe.step(groups, &map, step);
            for stack in groups.iter_mut() {
                stack.end_step();
            }
        }
        let (degrade, hot_load, moved) = probe.finish();
        assert!(
            (degrade.goodput_fraction() - 1.0).abs() < 1e-12,
            "clean fleet must serve every request, got {degrade:?}"
        );
        assert!(hot_load > 1.0 / 3.0, "skew must overload the hottest shard");
        assert_eq!(moved, 0.0);
    }

    #[test]
    fn rebalance_moves_in_flight_requests_to_the_new_owner() {
        let groups = &mut clean_groups(2, 9)[..];
        let mut map = ShardMap::uniform(2);
        let hottest = hottest_group(1.2, &map);
        let workload = Some(ZipfWorkload::new(1.2, 0xFEED));
        let mut probe =
            WorkloadProbe::new(groups, "probe", RetryPolicy::retrying(64, 4, 2), workload, hottest);
        // Put every key in flight (replies are never drained, so all
        // stay pending), guaranteeing the migration hits some of them.
        for key in 0..SHARD_KEY_SPACE {
            let owner = map.owner_of(key);
            probe.issue(groups, owner, Some(key), 1);
        }
        assert!(probe.routes.iter().next().is_some(), "requests must be in flight");
        let donor = hottest_group(1.2, &map);
        let half = map.slots_owned_by(donor).len() / 2;
        assert!(map.migrate_from(donor, (donor + 1) % 2, half) > 0);
        let moved = probe.rebalance(groups, &map, 2);
        assert!(moved > 0, "a half-directory migration must move some request");
        // Every surviving route points at the current owner.
        for (&(g, _), &key) in &probe.routes {
            assert_eq!(g, map.owner_of(key), "stale route after rebalance");
        }
    }

    #[test]
    fn sharded_trial_produces_shard_point_and_respects_cap() {
        use fortress_model::params::Policy;
        let exp = ProtocolExperiment {
            entropy_bits: 6,
            omega: 8.0,
            max_steps: 40,
            shard: sharded(2, ShardPlacement::Spread, 8),
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        };
        let m = run_trial(&exp, 77);
        assert!(m.lifetime >= 1 && m.lifetime <= 40);
        let avail = m.avail;
        let shard = |column| avail[column].expect("sharded trials measure the shard group");
        assert!(shard(Column::HotLifetime) >= m.lifetime as f64);
        assert!((0.0..=1.0).contains(&shard(Column::HotLoad)));
        assert!(shard(Column::GroupsFallen) <= 2.0);
        // Purity: the trial is a function of its seed.
        let again = run_trial(&exp, 77);
        assert_eq!(format!("{m:?}"), format!("{again:?}"));
    }
}
