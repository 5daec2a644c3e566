//! The trusted, read-only name server.
//!
//! "Client can know proxies' addresses and public keys, servers' indices
//! (not addresses) and public-keys, the type of replication, and the degree
//! of fault-tolerance if replication is by SMR. This is facilitated through
//! a trusted name-server (NS) that is read-only for clients. … Servers
//! accept messages only from proxies and NS" (paper §3).
//!
//! Note the information asymmetry the NS enforces: clients learn server
//! *principal names/indices* (to verify signatures) but **not** server
//! addresses — only proxies know how to reach servers, which is what makes
//! the proxy tier an actual barrier.

use crate::error::FortressError;

/// How the fortified server tier is replicated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicationType {
    /// No replication (a single fortified server).
    None,
    /// Primary-backup replication (the paper's focus).
    PrimaryBackup,
    /// State machine replication with tolerance `f`.
    StateMachine {
        /// Tolerated faults.
        f: usize,
    },
}

/// The trusted directory of a FORTRESS deployment.
///
/// # Example
///
/// ```
/// use fortress_core::nameserver::{NameServer, ReplicationType};
///
/// let ns = NameServer::builder()
///     .proxy("proxy-0")
///     .proxy("proxy-1")
///     .server("server-0")
///     .server("server-1")
///     .replication(ReplicationType::PrimaryBackup)
///     .build()?;
/// assert_eq!(ns.proxies().len(), 2);
/// assert_eq!(ns.proxy_index("proxy-1"), Some(1));
/// assert_eq!(ns.proxy_index("mallory"), None);
/// # Ok::<(), fortress_core::FortressError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameServer {
    proxies: Vec<String>,
    servers: Vec<String>,
    replication: ReplicationType,
}

impl NameServer {
    /// Starts building a directory.
    pub fn builder() -> NameServerBuilder {
        NameServerBuilder::default()
    }

    /// Proxy principal names, in index order.
    pub fn proxies(&self) -> &[String] {
        &self.proxies
    }

    /// Server principal names, in index order (clients know indices, not
    /// addresses).
    pub fn servers(&self) -> &[String] {
        &self.servers
    }

    /// The server tier's replication discipline.
    pub fn replication(&self) -> ReplicationType {
        self.replication
    }

    /// Number of proxies `np`.
    pub fn np(&self) -> usize {
        self.proxies.len()
    }

    /// Number of servers `ns`.
    pub fn ns(&self) -> usize {
        self.servers.len()
    }

    /// Index of the proxy named `name`.
    pub fn proxy_index(&self, name: &str) -> Option<usize> {
        self.proxies.iter().position(|p| p == name)
    }

    /// Index of the server named `name`.
    pub fn server_index(&self, name: &str) -> Option<usize> {
        self.servers.iter().position(|s| s == name)
    }
}

/// Number of hash slots in a [`ShardMap`]. Keys hash onto slots and
/// slots map onto groups, so a rebalance moves whole slots (key ranges)
/// rather than individual keys — the classic consistent-directory layout.
/// 64 slots keeps the directory tiny while still letting a rebalance move
/// key mass in ~1.6% increments.
pub const SHARD_SLOTS: usize = 64;

/// SplitMix64 finalizer — the stable key hash of the shard directory.
/// Pinned here (not delegated to `std`'s hasher) so a key's slot is a
/// documented pure function that can never drift across std versions.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard directory a fleet front-end routes by: a fixed table of
/// [`SHARD_SLOTS`] hash slots, each owned by one fortress group, plus an
/// epoch counter that advances exactly when ownership changes.
///
/// Routing is **total** (every `u64` key hashes to some slot, every slot
/// has an owner) and **stable within an epoch** (the hash is a pure
/// function and the table only changes through [`ShardMap::migrate_from`],
/// which bumps the epoch). Clients cache the epoch; a request retried
/// after a rebalance re-resolves its key against the new table — the
/// migration protocol the fleet simulation exercises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    slots: Vec<usize>,
    groups: usize,
}

impl ShardMap {
    /// A fresh epoch-0 directory spreading the slots round-robin over
    /// `groups` fortress groups.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is zero — a directory must route somewhere.
    pub fn uniform(groups: usize) -> ShardMap {
        assert!(groups > 0, "a shard map needs at least one group");
        ShardMap {
            epoch: 0,
            slots: (0..SHARD_SLOTS).map(|s| s % groups).collect(),
            groups,
        }
    }

    /// Number of fortress groups the directory routes across.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The current map epoch; advances by one per effective rebalance.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The slot `key` hashes to — a pure function of the key alone, so
    /// it cannot change across epochs (only slot *ownership* moves).
    fn slot_of(key: u64) -> usize {
        (mix64(key) % SHARD_SLOTS as u64) as usize
    }

    /// The group currently owning `key`.
    pub fn owner_of(&self, key: u64) -> usize {
        self.slots[Self::slot_of(key)]
    }

    /// The group currently owning slot `slot`.
    #[cfg(test)]
    fn owner_of_slot(&self, slot: usize) -> usize {
        self.slots[slot]
    }

    /// The slots `group` currently owns, in slot order.
    pub fn slots_owned_by(&self, group: usize) -> Vec<usize> {
        (0..self.slots.len()).filter(|&s| self.slots[s] == group).collect()
    }

    /// Rebalance: reassigns the given slots to `to`, bumping the epoch
    /// once if any ownership actually changed. Returns how many slots
    /// moved. Slots not listed keep their owner — the "moves only the
    /// intended key ranges" contract the router property tests pin.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range group or slot index.
    fn migrate_slots(&mut self, slots: &[usize], to: usize) -> usize {
        assert!(to < self.groups, "target group out of range");
        let mut moved = 0;
        for &s in slots {
            assert!(s < self.slots.len(), "slot index out of range");
            if self.slots[s] != to {
                self.slots[s] = to;
                moved += 1;
            }
        }
        if moved > 0 {
            self.epoch += 1;
        }
        moved
    }

    /// Rebalance helper for the simulated migration event: moves up to
    /// `count` of `from`'s slots (lowest slot indices first) to `to`.
    /// Returns how many moved (0 when `from` owns nothing, which also
    /// leaves the epoch untouched).
    pub fn migrate_from(&mut self, from: usize, to: usize, count: usize) -> usize {
        let owned = self.slots_owned_by(from);
        let take: Vec<usize> = owned.into_iter().take(count).collect();
        self.migrate_slots(&take, to)
    }
}

/// Builder for [`NameServer`].
#[derive(Default, Debug, Clone)]
pub struct NameServerBuilder {
    proxies: Vec<String>,
    servers: Vec<String>,
    replication: Option<ReplicationType>,
}

impl NameServerBuilder {
    /// Registers a proxy principal.
    pub fn proxy(mut self, name: &str) -> Self {
        self.proxies.push(name.to_owned());
        self
    }

    /// Registers a server principal.
    pub fn server(mut self, name: &str) -> Self {
        self.servers.push(name.to_owned());
        self
    }

    /// Sets the replication type.
    pub fn replication(mut self, r: ReplicationType) -> Self {
        self.replication = Some(r);
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError::BadAssembly`] when no servers are declared,
    /// when names repeat, or when SMR is declared with too few servers for
    /// its `f`.
    pub fn build(self) -> Result<NameServer, FortressError> {
        if self.servers.is_empty() {
            return Err(FortressError::BadAssembly {
                reason: "no servers declared".into(),
            });
        }
        let mut all: Vec<&String> = self.proxies.iter().chain(self.servers.iter()).collect();
        all.sort();
        let before = all.len();
        all.dedup();
        if all.len() != before {
            return Err(FortressError::BadAssembly {
                reason: "duplicate principal names".into(),
            });
        }
        let replication = self.replication.unwrap_or(ReplicationType::None);
        if let ReplicationType::StateMachine { f } = replication {
            if self.servers.len() < 3 * f + 1 {
                return Err(FortressError::BadAssembly {
                    reason: format!(
                        "SMR with f = {f} needs at least {} servers, got {}",
                        3 * f + 1,
                        self.servers.len()
                    ),
                });
            }
        }
        Ok(NameServer {
            proxies: self.proxies,
            servers: self.servers,
            replication,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_fortress_topology() {
        let ns = NameServer::builder()
            .proxy("p0")
            .proxy("p1")
            .proxy("p2")
            .server("s0")
            .server("s1")
            .server("s2")
            .replication(ReplicationType::PrimaryBackup)
            .build()
            .unwrap();
        assert_eq!(ns.np(), 3);
        assert_eq!(ns.ns(), 3);
        assert_eq!(ns.replication(), ReplicationType::PrimaryBackup);
        assert_eq!(ns.proxy_index("p2"), Some(2));
        assert_eq!(ns.server_index("s1"), Some(1));
        assert_eq!(ns.server_index("nope"), None);
    }

    #[test]
    fn rejects_empty_server_tier() {
        assert!(NameServer::builder().proxy("p0").build().is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        assert!(NameServer::builder()
            .proxy("x")
            .server("x")
            .build()
            .is_err());
    }

    #[test]
    fn rejects_undersized_smr() {
        let r = NameServer::builder()
            .server("s0")
            .server("s1")
            .server("s2")
            .replication(ReplicationType::StateMachine { f: 1 })
            .build();
        assert!(r.is_err());
        let ok = NameServer::builder()
            .server("s0")
            .server("s1")
            .server("s2")
            .server("s3")
            .replication(ReplicationType::StateMachine { f: 1 })
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn shard_map_routing_is_total_and_stable_within_an_epoch() {
        let map = ShardMap::uniform(3);
        assert_eq!(map.epoch(), 0);
        for key in 0..10_000u64 {
            let owner = map.owner_of(key);
            assert!(owner < 3, "routing must be total");
            assert_eq!(owner, map.owner_of(key), "routing must be pure");
            assert_eq!(owner, map.owner_of_slot(ShardMap::slot_of(key)));
        }
        // Round-robin layout: every group owns a near-equal slot share.
        for g in 0..3 {
            let owned = map.slots_owned_by(g).len();
            assert!((21..=22).contains(&owned), "group {g} owns {owned}");
        }
    }

    #[test]
    fn shard_map_rebalance_moves_only_the_intended_slots() {
        let mut map = ShardMap::uniform(4);
        let before: Vec<usize> = (0..SHARD_SLOTS).map(|s| map.owner_of_slot(s)).collect();
        let victims: Vec<usize> = map.slots_owned_by(2).into_iter().take(5).collect();
        let moved = map.migrate_slots(&victims, 0);
        assert_eq!(moved, 5);
        assert_eq!(map.epoch(), 1);
        for (s, &owner_before) in before.iter().enumerate() {
            if victims.contains(&s) {
                assert_eq!(map.owner_of_slot(s), 0, "slot {s} must have moved");
            } else {
                assert_eq!(map.owner_of_slot(s), owner_before, "slot {s} must not move");
            }
        }
        // A vacuous migration (slots already owned by the target) does
        // not burn an epoch.
        let again = map.migrate_slots(&victims, 0);
        assert_eq!(again, 0);
        assert_eq!(map.epoch(), 1);
        // migrate_from drains ownership in slot order.
        let owned_before = map.slots_owned_by(3).len();
        let moved = map.migrate_from(3, 1, 2);
        assert_eq!(moved, 2);
        assert_eq!(map.slots_owned_by(3).len(), owned_before - 2);
        assert_eq!(map.epoch(), 2);
    }
}
