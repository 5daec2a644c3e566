//! The event vocabulary shared by all transports.

use bytes::Bytes;

use crate::addr::Addr;

/// An event observed by an endpoint.
///
/// `ConnectionClosed` is the de-randomization side channel: when a process
/// crashes, every peer it had an open connection with observes the closure
/// (paper §2.1: the attacker "requires … a way of observing a process crash
/// in the remote target machine").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetEvent {
    /// A message was delivered.
    Message {
        /// Sender address.
        from: Addr,
        /// Opaque payload.
        payload: Bytes,
        /// Logical delivery time (0 on `SockNet`, which has no logical clock).
        at: u64,
    },
    /// A peer's process crashed, closing the connection.
    ConnectionClosed {
        /// The crashed peer.
        peer: Addr,
        /// Logical time of the closure (0 on `SockNet`).
        at: u64,
    },
}

impl NetEvent {
    /// The peer this event concerns (sender or crashed endpoint).
    pub fn peer(&self) -> Addr {
        match self {
            NetEvent::Message { from, .. } => *from,
            NetEvent::ConnectionClosed { peer, .. } => *peer,
        }
    }

    /// Returns the payload if this is a message event.
    pub fn payload(&self) -> Option<&Bytes> {
        match self {
            NetEvent::Message { payload, .. } => Some(payload),
            NetEvent::ConnectionClosed { .. } => None,
        }
    }

    /// Returns `true` for `ConnectionClosed`.
    pub fn is_closure(&self) -> bool {
        matches!(self, NetEvent::ConnectionClosed { .. })
    }
}

/// Counters a transport maintains; used by tests and the overhead bench.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    /// Messages accepted by `send`.
    pub sent: u64,
    /// Messages delivered to an inbox.
    pub delivered: u64,
    /// Messages dropped by loss or partition under a
    /// [`SimNet`](crate::sim::SimNet)'s
    /// [`FaultPlan`](crate::fault::FaultPlan); each counts here *and* in
    /// `sent`, preserving `delivered + dropped + dead_lettered == sent` at
    /// quiescence.
    pub dropped: u64,
    /// Messages discarded because the destination crashed first.
    pub dead_lettered: u64,
    /// `ConnectionClosed` events emitted.
    pub closures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let m = NetEvent::Message {
            from: Addr::from_raw(1),
            payload: Bytes::from_static(b"x"),
            at: 5,
        };
        assert_eq!(m.peer(), Addr::from_raw(1));
        assert_eq!(m.payload().unwrap().as_ref(), b"x");
        assert!(!m.is_closure());

        let c = NetEvent::ConnectionClosed {
            peer: Addr::from_raw(2),
            at: 9,
        };
        assert_eq!(c.peer(), Addr::from_raw(2));
        assert!(c.payload().is_none());
        assert!(c.is_closure());
    }

    #[test]
    fn stats_default_zero() {
        let s = NetStats::default();
        assert_eq!(
            s.sent + s.delivered + s.dropped + s.dead_lettered + s.closures,
            0
        );
    }
}
