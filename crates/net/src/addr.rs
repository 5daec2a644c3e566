//! Network addresses.

use std::fmt;

/// An opaque endpoint address assigned at registration time.
///
/// Addresses are small integers under the hood; the registering transport
/// keeps the name ↔ address mapping for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(u32);

impl Addr {
    /// Constructs an address from its raw index. Exposed for transports in
    /// this workspace; applications should treat addresses as opaque.
    pub fn from_raw(raw: u32) -> Addr {
        Addr(raw)
    }

    /// The raw index.
    pub fn raw(&self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_format() {
        let a = Addr::from_raw(7);
        assert_eq!(a.raw(), 7);
        assert_eq!(format!("{a}"), "@7");
        assert_eq!(format!("{a:?}"), "Addr(7)");
    }

    #[test]
    fn ordering_and_hash_usable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Addr::from_raw(1));
        set.insert(Addr::from_raw(1));
        set.insert(Addr::from_raw(2));
        assert_eq!(set.len(), 2);
        assert!(Addr::from_raw(1) < Addr::from_raw(2));
    }
}
