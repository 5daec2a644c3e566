//! A clonable handle sharing one [`Transport`] between several owners.
//!
//! The fleet assembly in `fortress-core` wires N independent fortress
//! groups over **one** network: every group's `Stack` owns its transport
//! by value, so the shared backend is wrapped in [`SharedNet`] — an
//! `Rc<RefCell<T>>` handle that implements [`Transport`] (and
//! [`TrialReset`]) by delegation. Cloning the handle clones the *handle*,
//! not the network; all clones deliver through the same queues, observe
//! the same logical clock, and draw from the same latency stream.
//!
//! `Rc` (not `Arc`) is deliberate: [`Transport`] has no `Send` bound —
//! every Monte-Carlo trial assembles and drives its fleet on a single
//! worker thread, and the trial arena is `thread_local`. A `SharedNet`
//! therefore cannot leak across threads by construction.
//!
//! Borrow discipline: each trait method borrows the inner cell for the
//! duration of one call only, and the inner transport never calls back
//! out, so the `RefCell` cannot double-borrow.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::transport::{Transport, TrialReset};

/// A clonable, single-threaded sharing handle over a transport. See the
/// [module docs](self).
pub struct SharedNet<T> {
    inner: Rc<RefCell<T>>,
}

impl<T> SharedNet<T> {
    /// Wraps `net` in a shared handle.
    pub fn new(net: T) -> SharedNet<T> {
        SharedNet { inner: Rc::new(RefCell::new(net)) }
    }

    /// Runs `f` with a direct borrow of the inner transport — for
    /// operations outside the [`Transport`] surface (e.g. reading
    /// backend-specific counters).
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

impl<T> Clone for SharedNet<T> {
    fn clone(&self) -> SharedNet<T> {
        SharedNet { inner: Rc::clone(&self.inner) }
    }
}

impl<T: Transport> Transport for SharedNet<T> {
    fn register(&mut self, name: &str) -> Addr {
        self.inner.borrow_mut().register(name)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        self.inner.borrow_mut().send(from, to, payload);
    }

    fn broadcast(&mut self, from: Addr, targets: &[Addr], payload: Bytes) {
        self.inner.borrow_mut().broadcast(from, targets, payload);
    }

    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        self.inner.borrow_mut().drain_into(at, out);
    }

    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        self.inner.borrow_mut().drain_closure_count(at)
    }

    fn has_pending(&self, addr: Addr) -> bool {
        self.inner.borrow().has_pending(addr)
    }

    fn step(&mut self) -> bool {
        self.inner.borrow_mut().step()
    }

    fn crash(&mut self, addr: Addr) {
        self.inner.borrow_mut().crash(addr);
    }

    fn restart(&mut self, addr: Addr) {
        self.inner.borrow_mut().restart(addr);
    }

    fn note_malformed(&mut self) {
        self.inner.borrow_mut().note_malformed();
    }

    fn stats(&self) -> NetStats {
        self.inner.borrow().stats()
    }

    fn now(&self) -> u64 {
        self.inner.borrow().now()
    }
}

impl<T: TrialReset> TrialReset for SharedNet<T> {
    fn trial_reset(&mut self, keep_endpoints: usize) {
        self.inner.borrow_mut().trial_reset(keep_endpoints);
    }

    fn endpoint_count(&self) -> usize {
        self.inner.borrow().endpoint_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, SimNet};

    #[test]
    fn clones_share_one_network() {
        let mut a = SharedNet::new(SimNet::new(SimConfig::default()));
        let mut b = a.clone();
        let alice = a.register("alice");
        let bob = b.register("bob");
        // A send through one handle arrives at an endpoint registered
        // through the other: there is only one network.
        a.send(alice, bob, Bytes::from_static(b"hi"));
        while a.step() {}
        let mut out = Vec::new();
        b.drain_into(bob, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload().unwrap().as_ref(), b"hi");
        assert_eq!(a.stats().delivered, b.stats().delivered);
    }

    #[test]
    fn shared_handle_is_bit_identical_to_direct_use() {
        // The handle adds no behavior: the same script through a bare
        // SimNet and through a SharedNet wrapper produces the same
        // events and counters.
        fn script<T: Transport>(net: &mut T) -> (Vec<NetEvent>, NetStats) {
            let a = net.register("a");
            let b = net.register("b");
            let c = net.register("c");
            net.broadcast(a, &[b, c], Bytes::from_static(b"x"));
            while net.step() {}
            net.crash(b);
            let mut out = Vec::new();
            net.drain_into(c, &mut out);
            net.drain_into(a, &mut out);
            (out, net.stats())
        }
        let cfg = SimConfig::default();
        let (ev_direct, st_direct) = script(&mut SimNet::new(cfg));
        let (ev_shared, st_shared) = script(&mut SharedNet::new(SimNet::new(cfg)));
        assert_eq!(format!("{ev_direct:?}"), format!("{ev_shared:?}"));
        assert_eq!(st_direct, st_shared);
    }

    #[test]
    fn trial_reset_delegates_through_the_handle() {
        let mut net = SharedNet::new(SimNet::new(SimConfig::default()));
        let a = net.register("a");
        let b = net.register("b");
        let _extra = net.register("extra");
        assert_eq!(net.endpoint_count(), 3);
        net.trial_reset(2);
        assert_eq!(net.endpoint_count(), 2);
        // Recycled slot: the next registration reuses the freed address,
        // and the kept endpoints still deliver.
        let again = net.register("extra2");
        net.send(a, b, Bytes::from_static(b"post-reset"));
        while net.step() {}
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert_eq!(out.len(), 1);
        assert_ne!(again, a);
        assert_ne!(again, b);
    }
}
