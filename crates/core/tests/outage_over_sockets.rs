//! Sixty-four clients through a primary-backup outage give the same answers
//! over Unix-domain sockets as over the simulated network.
//!
//! The drive is fixed by step, not by wall time: client `i` submits in
//! every step where `(step + i) % 4 == 0`, each step pumps to quiescence,
//! drains every client and ends, and the serving primary's machine is down
//! from step [`DOWN_AT`] to step [`UP_AT`]. Both transports deliver in
//! order and settle before `pump` returns, so which requests are answered,
//! the availability counters and the transport's books must come out the
//! same on both, every run.

use std::collections::BTreeSet;

use fortress_core::client::FortressClient;
use fortress_core::messages::ProxyResponseRef;
use fortress_core::system::{Availability, Stack, StackConfig, SystemClass};
use fortress_net::event::NetStats;
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::sock::SockNet;
use fortress_net::transport::Transport;

const CLIENTS: u64 = 64;
const STEPS: u64 = 200;
const DOWN_AT: u64 = 60;
const UP_AT: u64 = 120;

/// What one run of the drive leaves behind.
struct Outcome {
    /// Per client, the seqs it accepted an answer for.
    answered: Vec<BTreeSet<u64>>,
    /// Per client, the seqs it issued in a step that began and ended with
    /// the tier serving.
    issued_while_serving: Vec<BTreeSet<u64>>,
    availability: Availability,
    net: NetStats,
}

fn drive<T: Transport>(net: T) -> Outcome {
    let cfg = StackConfig {
        class: SystemClass::S2Fortress,
        seed: 42,
        ..StackConfig::default()
    };
    let mut stack = Stack::with_transport(cfg, net).expect("an S2 stack");
    let mut clients: Vec<FortressClient> = (0..CLIENTS)
        .map(|i| {
            let name = format!("c{i}");
            stack.add_client(&name);
            FortressClient::new(&name, stack.authority(), stack.ns().clone())
        })
        .collect();
    let mut answered = vec![BTreeSet::new(); CLIENTS as usize];
    let mut issued_while_serving = vec![BTreeSet::new(); CLIENTS as usize];
    let mut primary = None;
    let mut events = Vec::new();
    for step in 0..STEPS {
        if step == DOWN_AT {
            let index = stack.pb_primary_index().expect("a serving primary");
            stack.take_down_server(index);
            primary = Some(index);
        }
        if step == UP_AT {
            stack.bring_up_server(primary.expect("taken down"));
        }
        let began_serving = stack.serving();
        let mut issued = Vec::new();
        for (i, client) in clients.iter_mut().enumerate() {
            if (step + i as u64).is_multiple_of(4) {
                let req = client.request(b"PUT k v");
                stack.submit(client.name(), &req);
                issued.push((i, req.seq));
            }
        }
        stack.pump();
        for (i, client) in clients.iter_mut().enumerate() {
            events.clear();
            stack.drain_client_into(client.name(), &mut events);
            for ev in &events {
                let Some(response) = ev.payload().and_then(|p| ProxyResponseRef::decode(p).ok())
                else {
                    continue;
                };
                if let Ok(Some((seq, _))) = client.on_response(&response) {
                    answered[i].insert(seq);
                }
            }
        }
        stack.end_step();
        if began_serving && stack.serving() {
            for (i, seq) in issued {
                issued_while_serving[i].insert(seq);
            }
        }
    }
    Outcome {
        answered,
        issued_while_serving,
        availability: stack.availability(),
        net: stack.net_stats(),
    }
}

#[test]
fn sixty_four_clients_over_uds_match_simnet_through_a_pb_outage() {
    let sim = drive(SimNet::new(SimConfig::default()));
    let uds = drive(SockNet::uds());

    let issued: usize = sim.issued_while_serving.iter().map(BTreeSet::len).sum();
    let answered: usize = sim.answered.iter().map(BTreeSet::len).sum();
    let a = sim.availability;
    println!(
        "issued {} ({issued} in serving steps), answered {answered}, down steps {}, \
         failovers {}, recoveries {}",
        CLIENTS * STEPS / 4,
        a.down_steps,
        a.failovers,
        a.recoveries
    );
    for (name, run) in [("SimNet", &sim), ("UDS", &uds)] {
        for (i, (issued, answered)) in
            run.issued_while_serving.iter().zip(&run.answered).enumerate()
        {
            let lost: Vec<_> = issued.difference(answered).collect();
            assert!(lost.is_empty(), "{name}: client {i} lost {lost:?} in serving steps");
        }
        let a = run.availability;
        assert_eq!((a.outages, a.failovers, a.recoveries), (1, 1, 1), "{name}: {a:?}");
        assert!(a.down_steps > 0, "{name}: the outage never showed: {a:?}");
        let n = run.net;
        assert_eq!(n.sent, n.delivered + n.dropped + n.dead_lettered, "{name}: {n:?}");
    }
    assert!(issued > 0 && answered >= issued);
    assert_eq!(sim.answered, uds.answered, "answered seqs differ by transport");
    assert_eq!(sim.issued_while_serving, uds.issued_while_serving);
    assert_eq!(sim.availability, uds.availability);
    assert_eq!(sim.net, uds.net);
}
