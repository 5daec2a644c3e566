//! Primary-backup failover, the crash-tolerance PB was built for (§1) —
//! driven through the **generic** `Stack<T: Transport>` over real kernel
//! sockets. The very same assembly and pump loop that every deterministic
//! Monte-Carlo trial runs on `SimNet` here runs unchanged on `SockNet`:
//! the `Transport` trait is what makes the two deployments the same
//! program.
//!
//! Sequence: a client writes through the primary, the primary's machine
//! goes down, heartbeat silence promotes a backup, and the value written
//! under the old primary is served by the new one.
//!
//! ```text
//! cargo run --example failover
//! ```

use fortress::core::client::{AcceptMode, DirectClient};
use fortress::core::system::{Stack, StackConfig, SystemClass};
use fortress::net::sock::SockNet;
use fortress::net::transport::Transport;
use fortress::obf::schedule::Policy;
use fortress::replication::message::SignedReplyRef;

/// Pump the stack and feed every signed reply to the client, returning
/// the first accepted body.
fn collect<T: Transport>(stack: &mut Stack<T>, client: &mut DirectClient) -> Option<String> {
    stack.pump();
    for ev in stack.drain_client("alice") {
        if let Some(payload) = ev.payload() {
            if let Ok(reply) = SignedReplyRef::decode(payload) {
                if let Some((_, body)) = client.on_reply_ref(reply) {
                    return Some(String::from_utf8_lossy(&body).into_owned());
                }
            }
        }
    }
    None
}

fn main() {
    // The same StackConfig the simulator runs — handed a SockNet.
    let mut stack = Stack::with_transport(
        StackConfig {
            class: SystemClass::S1Pb,
            policy: Policy::StartupOnly,
            seed: 7,
            ..StackConfig::default()
        },
        SockNet::tcp(),
    )
    .expect("assembly");
    stack.add_client("alice");
    let mut alice = DirectClient::new(
        "alice",
        stack.authority(),
        stack.ns().servers().to_vec(),
        AcceptMode::AnyAuthentic,
    );

    println!("== normal operation: primary is replica 0 ==");
    let req = alice.request(b"PUT leader replica-0");
    stack.submit("alice", &req);
    let body = collect(&mut stack, &mut alice).expect("primary must answer");
    println!("  write acknowledged: {body}");

    println!("\n== replica 0's machine goes down; heartbeats stop ==");
    stack.take_down_server(0);
    // Unit time-steps pass; the backups' failover timers expire.
    for _ in 0..25 {
        stack.end_step();
    }

    println!("\n== the promoted backup serves from replicated state ==");
    let req = alice.request(b"GET leader");
    stack.submit("alice", &req);
    let body = collect(&mut stack, &mut alice).expect("a backup must take over");
    println!("  read answered: {body}");
    assert_eq!(body, "VALUE replica-0");

    println!(
        "\nstate written under the old primary survived the failover — that is\n\
         the availability PB provides, and the same generic drive loop that\n\
         proved it here over kernel sockets proves resilience claims on the simulator."
    );
}
