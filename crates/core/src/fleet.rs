//! Sharded multi-tenant assembly: N independent fortress groups over
//! **one** shared transport.
//!
//! A [`Fleet`] scales the single-group [`Stack`] out horizontally: each
//! group is a complete S0/S1/S2 deployment — its own PB/SMR tier, proxy
//! fleet, key authority, suspicion state and RNG streams — assembled via
//! [`Stack::with_transport`] over clones of one [`SharedNet`] handle.
//! Groups are *independent tenants*: the S2 access-control rule (servers
//! accept only their own proxies' addresses) isolates groups on the
//! shared wire exactly as it isolates servers from clients within one
//! group, and the caller gives each group its own master seed.
//!
//! The fleet derives no seed: [`Fleet::new`] and [`Fleet::reset`] take
//! the group → seed rule from the caller and each group keeps the seed
//! it was given in its [`Stack::config`]. The Monte-Carlo trial puts a
//! lone group on the trial seed itself and the groups of a sharded cell
//! on [`group_seed`]`(trial_seed, g)`, which decorrelates sibling groups'
//! key material.
//!
//! Which group serves which key is the shard router's business — the
//! [`ShardMap`](crate::nameserver::ShardMap) directory in `nameserver` —
//! not the fleet's: the fleet is pure assembly, so the Monte-Carlo layer
//! can rebalance the directory mid-trial without touching any stack.
//! Stepping is not the fleet's business either: it hands the trial loop
//! its groups as a slice ([`Fleet::groups_mut`]), and each group ends its
//! own step and reports its own fall through [`Stack::end_step`] — a
//! fleet-level summary would have to pick one of two falls in a step.
//!
//! # Reset contract
//!
//! [`Fleet::reset`] mirrors [`Stack::reset`]'s bit-for-bit guarantee at
//! fleet scale: the shared transport is rewound **once** with the
//! fleet-wide endpoint watermark, then every group's nodes are reset in
//! registration order via [`Stack::reset_nodes`] — replaying exactly the
//! registration/key/RNG sequence a fresh [`Fleet::new`] performs under
//! the same seed rule. Every protocol trial runs on a fleet shell the
//! trial arena reuses on this contract, keyed by
//! [`FleetConfig::same_shape`]; a one-group fleet is how an unsharded
//! cell runs.

use fortress_net::shared::SharedNet;
use fortress_net::sim::SimNet;
use fortress_net::transport::{Transport, TrialReset};

use crate::error::FortressError;
use crate::system::{Stack, StackConfig};

/// Stream salt folded into per-group seed derivation (see [`group_seed`]),
/// following the repo's stream-splitting convention: every independent
/// randomness consumer gets its own documented SplitMix64 stream.
pub const GROUP_STREAM: u64 = 0x0061_2F5E_ED00;

/// Derives fortress group `group`'s master seed from a fleet-wide seed
/// — a SplitMix64 fold, so sibling groups draw from decorrelated
/// streams and group `g` of seed `s` is a pure function of `(s, g)`.
/// The rule callers pass [`Fleet::new`] for a multi-group fleet.
pub fn group_seed(fleet_seed: u64, group: usize) -> u64 {
    let mut z = fleet_seed
        .rotate_left(25)
        .wrapping_add(GROUP_STREAM)
        .wrapping_add((group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Assembly-time configuration of a fleet.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Per-group shape template. `stack.seed` and `stack.group` are
    /// overridden per group: the seed by the rule given to
    /// [`Fleet::new`], the group by its index.
    pub stack: StackConfig,
    /// Number of fortress groups (shards).
    pub groups: usize,
}

impl FleetConfig {
    /// Whether `other` assembles an identically-shaped fleet — the
    /// fleet-level [`StackConfig::same_shape`]: same group count, same
    /// per-group shape, any seed. The fleet arena keys reuse on this.
    pub fn same_shape(&self, other: &FleetConfig) -> bool {
        self.groups == other.groups && self.stack.same_shape(&other.stack)
    }
}

/// N fortress groups over one shared transport. See the [module
/// docs](self).
pub struct Fleet<T: Transport = SimNet> {
    cfg: FleetConfig,
    net: SharedNet<T>,
    groups: Vec<Stack<SharedNet<T>>>,
    /// Fleet-wide node-endpoint watermark, captured at assembly for
    /// [`Fleet::reset`]'s single shared-net rewind.
    node_endpoints: usize,
}

impl<T: Transport> Fleet<T> {
    /// Assembles a fleet over `net`, group `g` under master seed
    /// `seed_of(g)`, registering group 0's nodes first, then group 1's,
    /// and so on — the registration order [`Fleet::reset`] replays.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError`] when any group rejects the
    /// configuration, or `BadAssembly` for an empty fleet.
    pub fn new(
        cfg: FleetConfig,
        net: T,
        seed_of: impl Fn(usize) -> u64,
    ) -> Result<Fleet<T>, FortressError> {
        if cfg.groups == 0 {
            return Err(FortressError::BadAssembly {
                reason: "a fleet needs at least one group".into(),
            });
        }
        let net = SharedNet::new(net);
        let mut groups = Vec::with_capacity(cfg.groups);
        for g in 0..cfg.groups {
            let gcfg = StackConfig {
                group: g,
                seed: seed_of(g),
                ..cfg.stack
            };
            groups.push(Stack::with_transport(gcfg, net.clone())?);
        }
        let node_endpoints = groups.iter().map(Stack::node_endpoint_count).sum();
        Ok(Fleet { cfg, net, groups, node_endpoints })
    }

    /// The assembly-time configuration.
    pub fn config(&self) -> FleetConfig {
        self.cfg
    }

    /// Group `g`'s stack.
    pub fn group(&self, g: usize) -> &Stack<SharedNet<T>> {
        &self.groups[g]
    }

    /// A fresh clone of the shared transport handle.
    pub fn shared_net(&self) -> SharedNet<T> {
        self.net.clone()
    }

    /// Every group's stack, in group order — the slice the one protocol
    /// drive loop (`fortress_sim::campaign_mc`) steps. Each group ends
    /// its own step and reports its own fall through
    /// [`Stack::end_step`]'s return value.
    pub fn groups_mut(&mut self) -> &mut [Stack<SharedNet<T>>] {
        &mut self.groups
    }

    /// Rewinds the fleet to the state a fresh assembly with group `g`
    /// under `seed_of(g)` would produce — shared net once, then every
    /// group's nodes in registration order (see the [module docs](self)).
    pub fn reset(&mut self, seed_of: impl Fn(usize) -> u64)
    where
        T: TrialReset,
    {
        self.net.trial_reset(self.node_endpoints);
        for (g, stack) in self.groups.iter_mut().enumerate() {
            stack.reset_nodes(seed_of(g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemClass;
    use fortress_net::fault::{FaultPlan, FaultyTransport, PartitionWindow, SlowLink};
    use fortress_net::sim::SimConfig;
    use proptest::prelude::*;

    fn cfg(groups: usize) -> FleetConfig {
        FleetConfig {
            stack: StackConfig { entropy_bits: 6, ..StackConfig::default() },
            groups,
        }
    }

    fn sim() -> SimNet {
        SimNet::new(SimConfig::default())
    }

    /// A fleet over a bare [`SimNet`], group `g` on `group_seed(seed, g)`.
    fn fleet(cfg: FleetConfig, seed: u64) -> Result<Fleet<SimNet>, FortressError> {
        Fleet::new(cfg, sim(), |g| group_seed(seed, g))
    }

    /// One take-down window: server `.0` (modulo the tier size) of every
    /// group goes down at step `.1` and comes back `.2` steps later —
    /// never, when that is past the run, which leaves the tier dirty.
    type Outage = (usize, u64, u64);

    /// [`fingerprint_under`] the fixed schedule: server 1 down from step
    /// 10 to step 25.
    fn fingerprint<T: Transport>(fleet: &mut Fleet<T>) -> Vec<u8> {
        fingerprint_under(fleet, &[(1, 10, 15)])
    }

    /// Drives every group through an adversarial workload under the
    /// `outages` schedule and returns one fingerprint of every observable
    /// (see `system::tests`' analogue).
    fn fingerprint_under<T: Transport>(fleet: &mut Fleet<T>, outages: &[Outage]) -> Vec<u8> {
        use fortress_obf::keys::RandomizationKey;
        let mut tag = Vec::new();
        for stack in fleet.groups_mut() {
            stack.add_client("mallory");
        }
        let scheme = fleet.group(0).config().scheme;
        for step in 0..40u64 {
            for stack in fleet.groups_mut() {
                for &(server, at, len) in outages {
                    let i = server % stack.server_count();
                    if step == at && !stack.server_is_down(i) {
                        stack.take_down_server(i);
                    } else if step == at + len && stack.server_is_down(i) {
                        stack.bring_up_server(i);
                    }
                }
                let op = scheme.craft_exploit(RandomizationKey(step % 64)).to_bytes();
                stack.submit("mallory", &request(step + 1, op));
                stack.pump();
                for ev in stack.drain_client("mallory") {
                    if let Some(p) = ev.payload() {
                        tag.extend_from_slice(p);
                    }
                    tag.push(0xEE);
                }
            }
            for stack in fleet.groups_mut() {
                tag.extend_from_slice(format!("{:?}", stack.end_step()).as_bytes());
            }
        }
        for stack in fleet.groups_mut() {
            let books = (stack.net_stats(), stack.availability(), stack.network_now());
            tag.extend_from_slice(format!("{books:?}").as_bytes());
        }
        tag
    }

    fn request(seq: u64, op: Vec<u8>) -> crate::messages::ClientRequest {
        crate::messages::ClientRequest { seq, client: "mallory".into(), op }
    }

    #[test]
    fn groups_are_isolated_tenants() {
        let fleet = fleet(cfg(3), 7).unwrap();
        // Distinct per-group seeds give distinct key material.
        let k0 = fleet.group(0).server_keys();
        let k1 = fleet.group(1).server_keys();
        assert_ne!(k0, k1, "sibling groups must draw decorrelated keys");
        // Groups have their own addresses on the one shared net.
        let a0 = fleet.group(0).proxy_addrs();
        let a1 = fleet.group(1).proxy_addrs();
        assert!(a0.iter().all(|a| !a1.contains(a)));
        assert_eq!(fleet.shared_net().endpoint_count(), 3 * 6);
    }

    #[test]
    fn fleet_reset_replays_fresh_assembly_bit_for_bit() {
        let mut reused = fleet(cfg(2), 41).unwrap();
        fingerprint(&mut reused); // dirty every component
        reused.reset(|g| group_seed(1234, g));
        let fresh = fingerprint(&mut fleet(cfg(2), 1234).unwrap());
        assert_eq!(fresh, fingerprint(&mut reused), "fleet reset diverged from fresh assembly");

        // The same contract under faults and crashes: the fleet every
        // Monte-Carlo trial runs on, rewound from a run under another
        // plan, stream and seed that left frames held in the decorator.
        let degraded = |loss, delay_max, dup| FaultPlan::Degraded {
            loss,
            delay_min: 0,
            delay_max,
            dup,
            partition: None,
            slow: None,
        };
        let build = |plan, stream, seed: u64| {
            let net = FaultyTransport::new(sim(), plan, stream);
            Fleet::new(cfg(2), net, move |g| group_seed(seed, g)).unwrap()
        };
        let mut reused = build(degraded(0.3, 9, 0.4), 0xBAD, 41);
        fingerprint(&mut reused);
        reused.groups_mut()[0].submit("mallory", &request(99, b"GET k".to_vec()));
        assert!(reused.shared_net().with_inner(|net| net.held_count()) > 0, "frames left held");
        let mut seen = Vec::new();
        for (plan, stream) in [(degraded(0.1, 3, 0.05), 0xFA), (FaultPlan::None, 0)] {
            reused.reset(|g| group_seed(1234, g));
            reused.shared_net().with_inner(|net| net.rearm(plan, stream));
            seen.push(fingerprint(&mut reused));
            let fresh = fingerprint(&mut build(plan, stream, 1234));
            assert_eq!(fresh, seen[seen.len() - 1], "reset diverged under {}", plan.label());
        }
        assert_ne!(seen[0], seen[1], "the plan must leave a mark for the reset to erase");
    }

    /// One generated run: master seed, fault stream, outage schedule and
    /// a degraded plan (loss, delay window, duplication, with and without
    /// a partition window and a slow link).
    type Run = (u64, u64, Vec<Outage>, FaultPlan);

    fn run() -> impl Strategy<Value = Run> {
        (
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec((0usize..4, 0u64..40, 1u64..50), 0..4),
            (0.0..0.4f64, 0u64..4, 0u64..8, 0.0..0.4f64),
            (any::<bool>(), 2u64..12, 1u64..6, 0u32..14, any::<bool>()),
            (any::<bool>(), 0u32..14, 1u64..5),
        )
            .prop_map(|((seed, stream), outages, link, part, slow)| {
                let (loss, delay_min, jitter, dup) = link;
                let (cut, period, duration, split, oneway) = part;
                let plan = FaultPlan::Degraded {
                    loss,
                    delay_min,
                    delay_max: delay_min + jitter,
                    dup,
                    partition: cut.then_some(PartitionWindow { period, duration, split, oneway }),
                    slow: slow.0.then_some(SlowLink { addr: slow.1, extra: slow.2 }),
                };
                (seed, stream, outages, plan)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// ROADMAP B's searched class of the fixed row above: whatever
        /// class, group count, seed, degraded plan and take-down schedule
        /// dirtied a fleet (S0 included, so transfers are left queued and
        /// replicas catching up), `Fleet::reset` + `rearm` replays a fresh
        /// build of any other run. A failure prints the whole case.
        #[test]
        fn fleet_reset_replays_fresh_assembly_under_generated_faults_and_outages(
            class in prop_oneof![
                Just(SystemClass::S0Smr),
                Just(SystemClass::S1Pb),
                Just(SystemClass::S2Fortress),
            ],
            groups in 1usize..3,
            dirty in run(),
            replay in run(),
        ) {
            let mut cfg = cfg(groups);
            cfg.stack.class = class;
            let build = |&(seed, stream, _, plan): &Run| {
                let net = FaultyTransport::new(sim(), plan, stream);
                Fleet::new(cfg, net, move |g| group_seed(seed, g)).unwrap()
            };
            let mut reused = build(&dirty);
            fingerprint_under(&mut reused, &dirty.2);
            let &(seed, stream, ref outages, plan) = &replay;
            reused.reset(|g| group_seed(seed, g));
            reused.shared_net().with_inner(|net| net.rearm(plan, stream));
            // Not `prop_assert_eq!`: it would print both fingerprints.
            prop_assert!(
                fingerprint_under(&mut build(&replay), outages)
                    == fingerprint_under(&mut reused, outages),
                "{:?} x {} reset diverged: dirtied by {:?}, replaying {:?}",
                class, groups, dirty, replay
            );
        }
    }

    #[test]
    fn same_shape_keys_on_group_count_and_template() {
        let a = cfg(2);
        let b = FleetConfig { stack: StackConfig { seed: 99, ..a.stack }, ..a };
        let c = cfg(3);
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&c));
        let mut d = a;
        d.stack.np = 5;
        assert!(!a.same_shape(&d));
    }

    #[test]
    fn rejects_empty_fleet() {
        assert!(fleet(cfg(0), 1).is_err());
    }

    #[test]
    fn group_seeds_are_pure_and_distinct() {
        for g in 0..8 {
            assert_eq!(group_seed(42, g), group_seed(42, g));
            assert_ne!(group_seed(42, g), group_seed(43, g));
            for h in 0..g {
                assert_ne!(group_seed(42, g), group_seed(42, h));
            }
        }
    }

    #[test]
    fn s0_fleet_assembles_too() {
        let mut c = cfg(2);
        c.stack.class = SystemClass::S0Smr;
        let fleet = fleet(c, 5).unwrap();
        assert_eq!(fleet.shared_net().endpoint_count(), 2 * 4);
    }
}
