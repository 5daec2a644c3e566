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
    #[cfg(test)]
    fn server_index(&self, name: &str) -> Option<usize> {
        self.servers.iter().position(|s| s == name)
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
    /// Returns [`FortressError::BadAssembly`] when no servers or more than
    /// 64 are declared (a proxy holds one bit per server in a `u64`), when
    /// names repeat, or when SMR is declared with too few servers for its
    /// `f`.
    pub fn build(self) -> Result<NameServer, FortressError> {
        let n = self.servers.len();
        if !(1..=64).contains(&n) {
            return Err(FortressError::BadAssembly {
                reason: format!("{n} servers declared, not 1 to 64 (a proxy's pending mask)"),
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
    fn rejects_more_servers_than_a_mask_holds() {
        let tier = |n: usize| (0..n).fold(NameServer::builder(), |b, i| b.server(&format!("s{i}")));
        assert_eq!(tier(64).build().unwrap().ns(), 64);
        let err = tier(65).build().unwrap_err();
        assert!(err.to_string().contains("65 servers declared, not 1 to 64"), "{err}");
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
}
