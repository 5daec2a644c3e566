//! The shard axis: sharded multi-tenant fleets under cross-shard attack.
//!
//! A sharded cell runs a [`Fleet`] — N independent fortress groups over
//! one shared transport (see `fortress_core::fleet`) — fronted by the
//! key-hash shard directory ([`ShardMap`]). A deterministic Zipf
//! workload skews keys across the directory, the cell's adversary
//! places its probe budget across groups per its [`ShardPlacement`]
//! (concentrate on the hottest shard vs. spread thin), and an optional
//! mid-trial **rebalance** bumps the directory epoch, migrates the
//! hottest group's key ranges to a sibling and re-routes in-flight
//! requests to the new owner through the client retry machinery.
//!
//! [`ShardSpec`] is the sweep coordinate: [`ShardSpec::None`] folds
//! nothing into content seeds, consumes no RNG and never reaches this
//! module (the campaign dispatcher runs the exact pre-axis single-stack
//! path), so every legacy golden keeps its pinned bits;
//! [`ShardSpec::Sharded`] routes the cell here.
//!
//! # Streams
//!
//! The fleet path extends the per-trial stream-splitting convention:
//! group `g`'s stack, adversary and outage driver all derive from
//! [`group_seed`]`(trial_seed, g)`, and the Zipf workload draws from
//! `fold(trial_seed, `[`SHARD_WORKLOAD_STREAM`]`)`. No stream depends on
//! thread placement, so sharded cells keep the campaign determinism
//! contract (bit-identical at any thread count).

use std::collections::BTreeMap;

use fortress_attack::attacker::Adversary;
use fortress_attack::campaign::StrategyKind;
use fortress_attack::shard::ShardPlacement;
use fortress_core::client::{Degradation, ProbeClient, RetryPolicy, RetryTracker};
use fortress_core::fleet::{group_seed, Fleet, FleetConfig};
use fortress_core::nameserver::ShardMap;
use fortress_core::system::CompromiseState;
use fortress_model::params::Policy;
use fortress_net::fault::FAULT_STREAM;
use fortress_net::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::FaultSpec;
use crate::outage::OutageDriver;
use crate::protocol_mc::ProtocolExperiment;
use crate::runner::fold;
use crate::scenario::TrialMeasure;
use crate::stats::{Column, TrialPoint};

/// Stream salt for the Zipf workload's RNG: the key sequence is drawn
/// from `fold(trial_seed, SHARD_WORKLOAD_STREAM)`, its own stream per
/// the trial stream-splitting convention (see [`crate::faults`]).
pub const SHARD_WORKLOAD_STREAM: u64 = 0x0005_AA2D_F00D;

/// Number of distinct workload keys. Small enough that the per-key Zipf
/// weights are cheap to tabulate, large enough that every shard-map
/// slot pattern sees traffic.
pub const SHARD_KEY_SPACE: u64 = 128;

/// Steps between consecutive shard-probe requests (per fleet, not per
/// group — the workload is one key stream routed by the directory).
pub const SHARD_REQUEST_PERIOD: u64 = 2;

/// The shard coordinate of a sweep cell. `Copy + PartialEq` so it can
/// sit beside the other axes; its parameters fold into the cell's
/// content-derived seed (two cells differing in any shard parameter
/// draw decorrelated trial streams).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShardSpec {
    /// No fleet, no shard directory, no workload — the pre-shard-axis
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
pub fn group_masses(zipf_s: f64, map: &ShardMap) -> Vec<f64> {
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

/// One group's slice of the shard probe: its class-matched client plus
/// its own retry tracker (per-group sequence numbers collide across
/// groups, so trackers cannot be shared).
struct GroupProbe {
    client: ProbeClient,
    tracker: RetryTracker,
}

/// The sharded workload probe: one Zipf key stream routed through the
/// shard directory to per-group clients, every request tracked through
/// the retry machinery, and in-flight requests re-routed when a
/// rebalance moves their key. RNG-free except for the dedicated
/// workload stream, so sharded trials stay pure functions of their
/// seed.
pub struct ShardProbe {
    name: String,
    groups: Vec<GroupProbe>,
    /// Key behind every in-flight request, by `(group, seq)` — what a
    /// rebalance consults to find requests whose owner moved.
    routes: BTreeMap<(usize, u64), u64>,
    workload: ZipfWorkload,
    hottest: usize,
    issued: u64,
    hot_issued: u64,
    moved: u64,
}

impl ShardProbe {
    /// Registers a probe client on every group of `fleet`. Client kinds
    /// follow the groups' class exactly as
    /// [`GoodputProbe`](crate::faults::GoodputProbe) does.
    pub fn new<T: Transport>(
        fleet: &mut Fleet<T>,
        name: &str,
        retry: RetryPolicy,
        zipf_s: f64,
        workload_seed: u64,
        hottest: usize,
    ) -> ShardProbe {
        let groups = (0..fleet.len())
            .map(|g| GroupProbe {
                client: ProbeClient::attach(fleet.group_mut(g), name),
                tracker: RetryTracker::new(retry),
            })
            .collect();
        ShardProbe {
            name: name.to_owned(),
            groups,
            routes: BTreeMap::new(),
            workload: ZipfWorkload::new(zipf_s, workload_seed),
            hottest,
            issued: 0,
            hot_issued: 0,
            moved: 0,
        }
    }

    /// Issues a request for `key` against group `g` and tracks it.
    fn issue<T: Transport>(&mut self, fleet: &mut Fleet<T>, g: usize, key: u64, step: u64) {
        let op = format!("GET k{key}");
        let gp = &mut self.groups[g];
        let req = gp.client.request(op.as_bytes());
        gp.tracker.track(&req, step);
        self.routes.insert((g, req.seq), key);
        let stack = fleet.group_mut(g);
        stack.submit(&self.name, &req);
        stack.pump();
    }

    /// One probe step at 1-based `step`: drain and judge every group's
    /// replies, resend whatever timed out, then draw the next workload
    /// key and route it through `map` if the cadence says so.
    pub fn step<T: Transport>(&mut self, fleet: &mut Fleet<T>, map: &ShardMap, step: u64) {
        for g in 0..self.groups.len() {
            for ev in fleet.group_mut(g).drain_client(&self.name) {
                let gp = &mut self.groups[g];
                if let Some(seq) = ev.payload().and_then(|p| gp.client.settles(p)) {
                    if gp.tracker.settle(seq) {
                        self.routes.remove(&(g, seq));
                    }
                }
            }
            for req in self.groups[g].tracker.due_resends(step) {
                let stack = fleet.group_mut(g);
                stack.submit(&self.name, &req);
                stack.pump();
            }
        }
        if (step - 1).is_multiple_of(SHARD_REQUEST_PERIOD) {
            let key = self.workload.draw();
            let g = map.owner_of(key);
            self.issued += 1;
            if g == self.hottest {
                self.hot_issued += 1;
            }
            self.issue(fleet, g, key, step);
        }
    }

    /// Re-routes in-flight requests after `map`'s epoch moved their key
    /// to a new owner: the old owner's tracker **forgets** the request
    /// (no accepted / gave-up accounting — it was neither), and a fresh
    /// request for the same key is issued and tracked against the new
    /// owner. Returns how many requests moved.
    pub fn rebalance<T: Transport>(
        &mut self,
        fleet: &mut Fleet<T>,
        map: &ShardMap,
        step: u64,
    ) -> u64 {
        let snapshot: Vec<((usize, u64), u64)> =
            self.routes.iter().map(|(&k, &v)| (k, v)).collect();
        let mut moved = 0;
        for ((g, seq), key) in snapshot {
            if !self.groups[g].tracker.is_pending(seq) {
                // Gave up since we last looked; drop the stale route.
                self.routes.remove(&(g, seq));
                continue;
            }
            let owner = map.owner_of(key);
            if owner == g {
                continue;
            }
            self.groups[g].tracker.forget(seq);
            self.routes.remove(&(g, seq));
            self.issue(fleet, owner, key, step);
            moved += 1;
        }
        self.moved += moved;
        moved
    }

    /// Abandons whatever is still pending and sums every group's
    /// counters into the trial's fleet-wide [`Degradation`], plus the
    /// shard observables: the fraction of the workload the hottest
    /// group served and the rebalance-moved request count.
    pub fn finish(&mut self) -> (Degradation, f64, f64) {
        let mut total = Degradation::default();
        for gp in &mut self.groups {
            gp.tracker.abandon_pending();
            let d = gp.tracker.degradation();
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

/// The probe retry policy sharded fault-free cells run under (degraded
/// cells use their [`FaultSpec`]'s policy instead).
fn default_probe_retry() -> RetryPolicy {
    RetryPolicy::retrying(8, 2, 2)
}

/// One trial of one **sharded** cell: assemble the fleet (from the
/// worker's fleet arena when fault-free), lay the shard directory over
/// it, and walk unit time-steps until the hottest group falls or the
/// cap. The fleet analogue of
/// [`run_trial`](crate::campaign_mc::run_trial), which dispatches here
/// whenever `exp.shard` is non-vacuous.
///
/// # Panics
///
/// Panics if `exp.shard` is [`ShardSpec::None`] — unsharded cells
/// belong on the single-stack path.
pub fn run_fleet_measured(
    exp: &ProtocolExperiment,
    strategy: StrategyKind,
    seed: u64,
) -> TrialMeasure {
    let ShardSpec::Sharded { shards, .. } = exp.shard else {
        panic!("run_fleet_measured requires a sharded experiment");
    };
    let cfg = FleetConfig {
        stack: exp.stack_config(seed),
        groups: shards,
    };
    match exp.fault {
        FaultSpec::None => crate::arena::with_arena_fleet(cfg, |fleet| {
            run_fleet_on(exp, strategy, seed, fleet, None)
        }),
        FaultSpec::Degraded { plan, retry } => {
            let mut fleet = Fleet::new_faulty(cfg, plan, fold(seed, FAULT_STREAM))
                .expect("fleet assembly is validated by construction");
            run_fleet_on(exp, strategy, seed, &mut fleet, Some(retry))
        }
    }
}

/// The one sharded drive loop, generic over the transport: per-group
/// adversaries placed by the cell's [`ShardPlacement`] (groups with a
/// zero budget get no adversary at all), per-group outage schedules on
/// per-group streams, the shard workload probe, and the scheduled
/// rebalance applied at the top of its step.
fn run_fleet_on<T: Transport>(
    exp: &ProtocolExperiment,
    strategy: StrategyKind,
    seed: u64,
    fleet: &mut Fleet<T>,
    retry: Option<RetryPolicy>,
) -> TrialMeasure {
    let ShardSpec::Sharded {
        zipf_s,
        placement,
        rebalance_at,
        ..
    } = exp.shard
    else {
        panic!("run_fleet_on requires a sharded experiment");
    };
    let groups = fleet.len();
    let mut map = ShardMap::uniform(groups);
    let hottest = hottest_group(zipf_s, &map);

    // Per-group adversaries, each on its own derived stream. Placement
    // decides the budget; zero-budget groups are simply unattacked.
    let mut advs: Vec<(usize, Adversary, StdRng)> = Vec::new();
    for g in 0..groups {
        let omega = placement.omega_for_group(exp.omega, g, hottest, groups);
        if omega <= 0.0 {
            continue;
        }
        let mut rng =
            StdRng::seed_from_u64(group_seed(seed, g).wrapping_mul(0x9e3779b97f4a7c15));
        let adv = Adversary::new(
            fleet.group_mut(g),
            "attacker",
            exp.scheme,
            omega,
            exp.suspicion,
            Some(strategy),
            &mut rng,
        );
        advs.push((g, adv, rng));
    }
    let mut outages: Vec<OutageDriver> = (0..groups)
        .map(|g| OutageDriver::new(exp.outage, group_seed(seed, g)))
        .collect();
    let mut probe = ShardProbe::new(
        fleet,
        "probe",
        retry.unwrap_or_else(default_probe_retry),
        zipf_s,
        fold(seed, SHARD_WORKLOAD_STREAM),
        hottest,
    );

    let cap = exp.max_steps.max(1);
    let mut fall_step: Vec<Option<u64>> = vec![None; groups];
    let mut first_fall: Option<u64> = None;
    for step in 1..=cap {
        if rebalance_at > 0 && step == rebalance_at && groups > 1 {
            let donor = hottest_group(zipf_s, &map);
            let receiver = (donor + 1) % groups;
            let half = map.slots_owned_by(donor).len() / 2;
            if map.migrate_from(donor, receiver, half) > 0 {
                probe.rebalance(fleet, &map, step);
            }
        }
        for (g, outage) in outages.iter_mut().enumerate() {
            outage.before_step(fleet.group_mut(g), step);
        }
        for (g, adv, rng) in advs.iter_mut() {
            adv.step(fleet.group_mut(*g), rng);
        }
        probe.step(fleet, &map, step);
        fleet.end_step();
        for (g, fall) in fall_step.iter_mut().enumerate() {
            if fall.is_none() && fleet.group(g).compromise_state() != CompromiseState::Intact {
                *fall = Some(step);
                if first_fall.is_none() {
                    first_fall = Some(step);
                }
            }
        }
        // The mission ends when the hottest shard falls — the placement
        // question's observable. Sibling falls are recorded but the
        // fleet keeps serving the remaining shards.
        if fall_step[hottest].is_some() {
            break;
        }
        if exp.policy == Policy::Proactive {
            for (_, adv, rng) in advs.iter_mut() {
                adv.on_rerandomized(rng);
            }
        }
    }

    // Fleet-wide availability: downtime averages over groups (each over
    // the full mission window, fallen groups down for their tail),
    // failovers and losses sum, latency averages the groups that
    // completed a failover.
    let mut downtime = 0.0;
    let mut failovers = 0.0;
    let mut lost = 0.0;
    let mut latency_sum = 0.0;
    let mut latency_n = 0u32;
    for (g, fall) in fall_step.iter().enumerate() {
        let avail = fleet.group(g).availability();
        let post = fall.map_or(0, |fell| cap - fell);
        downtime += (avail.down_steps + post) as f64 / cap as f64;
        failovers += avail.failovers as f64;
        lost += avail.lost_requests as f64;
        if let Some(latency) = avail.mean_failover_latency() {
            latency_sum += latency;
            latency_n += 1;
        }
    }
    let (degrade, hot_load, moved) = probe.finish();
    let mut point = TrialPoint::default();
    point[Column::Downtime] = Some(downtime / groups as f64);
    point[Column::Failovers] = Some(failovers);
    point[Column::FailoverLatency] = (latency_n > 0).then(|| latency_sum / f64::from(latency_n));
    point[Column::LostRequests] = Some(lost);
    point[Column::HotLifetime] = Some(fall_step[hottest].unwrap_or(cap) as f64);
    point[Column::HotLoad] = Some(hot_load);
    point[Column::MovedRequests] = Some(moved);
    point[Column::GroupsFallen] = Some(fall_step.iter().flatten().count() as f64);
    TrialMeasure {
        lifetime: first_fall.unwrap_or(cap),
        avail: Some(point),
    }
    .with_degrade(retry.is_some().then_some(degrade))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_core::system::{StackConfig, SystemClass};
    use fortress_obf::schedule::ObfuscationPolicy;

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
        let mut fleet = Fleet::new(FleetConfig {
            stack: StackConfig {
                entropy_bits: 8,
                policy: ObfuscationPolicy::StartupOnly,
                seed: 5,
                ..StackConfig::default()
            },
            groups: 3,
        })
        .unwrap();
        let map = ShardMap::uniform(3);
        let hottest = hottest_group(1.2, &map);
        let mut probe = ShardProbe::new(
            &mut fleet,
            "probe",
            RetryPolicy::no_retry(8),
            1.2,
            0xFEED,
            hottest,
        );
        for step in 1..=60 {
            probe.step(&mut fleet, &map, step);
            fleet.end_step();
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
        let mut fleet = Fleet::new(FleetConfig {
            stack: StackConfig {
                entropy_bits: 8,
                policy: ObfuscationPolicy::StartupOnly,
                seed: 9,
                ..StackConfig::default()
            },
            groups: 2,
        })
        .unwrap();
        let mut map = ShardMap::uniform(2);
        let hottest = hottest_group(1.2, &map);
        let mut probe = ShardProbe::new(
            &mut fleet,
            "probe",
            RetryPolicy::retrying(64, 4, 2),
            1.2,
            0xFEED,
            hottest,
        );
        // Put every key in flight (replies are never drained, so all
        // stay pending), guaranteeing the migration hits some of them.
        for key in 0..SHARD_KEY_SPACE {
            let owner = map.owner_of(key);
            probe.issue(&mut fleet, owner, key, 1);
        }
        assert!(probe.routes.iter().next().is_some(), "requests must be in flight");
        let donor = hottest_group(1.2, &map);
        let half = map.slots_owned_by(donor).len() / 2;
        assert!(map.migrate_from(donor, (donor + 1) % 2, half) > 0);
        let moved = probe.rebalance(&mut fleet, &map, 2);
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
        let m = run_fleet_measured(&exp, StrategyKind::PacedBelowThreshold, 77);
        assert!(m.lifetime >= 1 && m.lifetime <= 40);
        let avail = m.avail.expect("fleet trials carry availability");
        let shard = |column| avail[column].expect("sharded trials measure the shard group");
        assert!(shard(Column::HotLifetime) >= m.lifetime as f64);
        assert!((0.0..=1.0).contains(&shard(Column::HotLoad)));
        assert!(shard(Column::GroupsFallen) <= 2.0);
        // Purity: the trial is a function of its seed.
        let again = run_fleet_measured(&exp, StrategyKind::PacedBelowThreshold, 77);
        assert_eq!(format!("{m:?}"), format!("{again:?}"));
    }
}
