//! Every `Transport` backend against the shared behavioural contract.
//!
//! One suite (`fortress_net::conformance`), three backends: the
//! deterministic simulator and both kernel-socket families. A backend
//! added later gets its conformance run by adding one factory here.

use fortress_net::conformance;
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::sock::SockNet;

#[test]
fn simnet_conforms() {
    conformance::check_all(|| SimNet::new(SimConfig::default()), "SimNet");
}

#[test]
fn socknet_tcp_conforms() {
    conformance::check_all(SockNet::tcp, "SockNet/tcp");
}

#[test]
fn socknet_uds_conforms() {
    conformance::check_all(SockNet::uds, "SockNet/uds");
}
