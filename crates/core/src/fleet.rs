//! Sharded multi-tenant assembly: N independent fortress groups over
//! **one** shared transport.
//!
//! A [`Fleet`] scales the single-group [`Stack`] out horizontally: each
//! group is a complete S0/S1/S2 deployment — its own PB/SMR tier, proxy
//! fleet, key authority, suspicion state and RNG streams — assembled via
//! [`Stack::with_transport`] over clones of one [`SharedNet`] handle.
//! Groups are *independent tenants*: distinct per-group master seeds
//! (derived by [`group_seed`]) give them uncorrelated key material, and
//! the S2 access-control rule (servers accept only their own proxies'
//! addresses) isolates groups on the shared wire exactly as it isolates
//! servers from clients within one group.
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
//! registration/key/RNG sequence a fresh [`Fleet::new`] performs. The
//! trial arena reuses fleet shells on this contract, keyed by
//! [`FleetConfig::same_shape`].

use fortress_net::fault::{FaultPlan, FaultyTransport};
use fortress_net::shared::SharedNet;
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::transport::{Transport, TrialReset};

use crate::error::FortressError;
use crate::system::{Stack, StackConfig};

/// Stream salt folded into per-group seed derivation (see [`group_seed`]),
/// following the repo's stream-splitting convention: every independent
/// randomness consumer gets its own documented SplitMix64 stream.
pub const GROUP_STREAM: u64 = 0x0061_2F5E_ED00;

/// Derives fortress group `group`'s master seed from the fleet master
/// seed — a SplitMix64 fold, so sibling groups draw from decorrelated
/// streams and group `g` of seed `s` is a pure function of `(s, g)`.
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
    /// Per-group shape template. `stack.seed` is the **fleet** master
    /// seed (each group runs under [`group_seed`]`(stack.seed, g)`);
    /// `stack.group` is overridden per group.
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

impl Fleet<SimNet> {
    /// Assembles a fleet over a fresh deterministic [`SimNet`].
    ///
    /// # Errors
    ///
    /// Returns [`FortressError`] when any group rejects the
    /// configuration, or `BadAssembly` for an empty fleet.
    pub fn new(cfg: FleetConfig) -> Result<Fleet<SimNet>, FortressError> {
        Fleet::with_shared(cfg, SharedNet::new(SimNet::new(SimConfig::default())))
    }
}

impl Fleet<FaultyTransport<SimNet>> {
    /// Assembles a fleet over the same deterministic net [`Fleet::new`]
    /// would build, wrapped in a [`FaultyTransport`] applying `plan` —
    /// the fleet analogue of [`Stack::new_faulty`], sharing one fault
    /// decorator (and one fault stream) across all groups.
    ///
    /// # Errors
    ///
    /// As for [`Fleet::new`].
    pub fn new_faulty(
        cfg: FleetConfig,
        plan: FaultPlan,
        fault_stream_seed: u64,
    ) -> Result<Fleet<FaultyTransport<SimNet>>, FortressError> {
        let inner = SimNet::new(SimConfig::default());
        let net = SharedNet::new(FaultyTransport::new(inner, plan, fault_stream_seed));
        Fleet::with_shared(cfg, net)
    }
}

impl<T: Transport> Fleet<T> {
    /// Assembles a fleet over an existing shared handle, registering
    /// group 0's nodes first, then group 1's, and so on — the
    /// registration order [`Fleet::reset`] replays.
    ///
    /// # Errors
    ///
    /// As for [`Fleet::new`].
    pub fn with_shared(cfg: FleetConfig, net: SharedNet<T>) -> Result<Fleet<T>, FortressError> {
        if cfg.groups == 0 {
            return Err(FortressError::BadAssembly {
                reason: "a fleet needs at least one group".into(),
            });
        }
        let mut groups = Vec::with_capacity(cfg.groups);
        for g in 0..cfg.groups {
            let gcfg = StackConfig {
                group: g,
                seed: group_seed(cfg.stack.seed, g),
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

    /// Number of fortress groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the fleet has no groups (never true for a built fleet —
    /// assembly rejects the empty configuration).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
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

    /// Rewinds the fleet to the state a fresh assembly under fleet master
    /// seed `seed` would produce — shared net once, then every group's
    /// nodes in registration order (see the [module docs](self)).
    pub fn reset(&mut self, seed: u64)
    where
        T: TrialReset,
    {
        self.cfg.stack.seed = seed;
        self.net.trial_reset(self.node_endpoints);
        for (g, stack) in self.groups.iter_mut().enumerate() {
            stack.reset_nodes(group_seed(seed, g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemClass;

    fn cfg(groups: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            stack: StackConfig { entropy_bits: 6, seed, ..StackConfig::default() },
            groups,
        }
    }

    /// Drives every group through an adversarial workload and collects
    /// one fingerprint per observable (see `system::tests`' analogue).
    fn drive_fingerprint(fleet: &mut Fleet<SimNet>, tag: &mut Vec<u8>) {
        use crate::messages::ClientRequest;
        use fortress_obf::keys::RandomizationKey;
        for stack in fleet.groups_mut() {
            stack.add_client("mallory");
        }
        let scheme = fleet.group(0).config().scheme;
        for step in 0..40u64 {
            for stack in fleet.groups_mut() {
                let req = ClientRequest {
                    seq: step + 1,
                    client: "mallory".into(),
                    op: scheme.craft_exploit(RandomizationKey(step % 64)).to_bytes(),
                };
                stack.submit("mallory", &req);
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
    }

    #[test]
    fn groups_are_isolated_tenants() {
        let fleet = Fleet::new(cfg(3, 7)).unwrap();
        assert_eq!(fleet.len(), 3);
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
        let mut fresh = Fleet::new(cfg(2, 1234)).unwrap();
        let mut fp_fresh = Vec::new();
        drive_fingerprint(&mut fresh, &mut fp_fresh);

        let mut reused = Fleet::new(cfg(2, 41)).unwrap();
        let mut dirt = Vec::new();
        drive_fingerprint(&mut reused, &mut dirt); // dirty every component
        reused.reset(1234);
        let mut fp_reused = Vec::new();
        drive_fingerprint(&mut reused, &mut fp_reused);

        assert_eq!(fp_fresh, fp_reused, "fleet reset diverged from fresh assembly");
    }

    #[test]
    fn same_shape_keys_on_group_count_and_template() {
        let a = cfg(2, 1);
        let b = cfg(2, 99);
        let c = cfg(3, 1);
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&c));
        let mut d = a;
        d.stack.np = 5;
        assert!(!a.same_shape(&d));
    }

    #[test]
    fn rejects_empty_fleet() {
        assert!(Fleet::new(cfg(0, 1)).is_err());
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
        let mut c = cfg(2, 5);
        c.stack.class = SystemClass::S0Smr;
        let fleet = Fleet::new(c).unwrap();
        assert_eq!(fleet.shared_net().endpoint_count(), 2 * 4);
    }
}
