//! Failure injection across the stack: crashes mid-protocol, message
//! loss, partitions, forged signatures and malformed bytes.

use bytes::Bytes;
use fortress::core::client::{AcceptMode, DirectClient};
use fortress::core::messages::{ClientRequest, ProxyResponseRef};
use fortress::core::system::{Stack, StackConfig, SystemClass};
use fortress::crypto::sig::{Signature, Signer};
use fortress::crypto::KeyAuthority;
use fortress::net::event::NetEvent;
use fortress::net::sim::{SimConfig, SimNet};
use fortress::net::Transport;
use fortress::replication::message::{PbMsg, ReplyBody, SignedReply, SignedReplyRef, SmrMsg};

/// Random bytes thrown at every decoder must error, never panic.
#[test]
fn decoders_survive_fuzz_bytes() {
    let mut seed = 0x2545f4914f6cdd1du64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for len in 0..200usize {
        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let _ = PbMsg::decode(&bytes);
        let _ = SmrMsg::decode(&bytes);
        let _ = SignedReplyRef::decode(&bytes);
        let _ = ClientRequest::decode(&bytes);
        let _ = ProxyResponseRef::decode(&bytes);
        let _ = fortress::obf::scheme::ExploitPayload::from_bytes(&bytes);
        // The envelope is total: garbage classifies, it never errors out.
        let _ = fortress::core::wire::WireMsg::decode(&bytes);
    }
}

/// Unknown blobs delivered to live stacks cause no state changes or
/// panics — and, since the envelope redesign, they are *counted* per
/// endpoint rather than silently swallowed.
#[test]
fn stacks_shrug_off_garbage_traffic_and_count_it() {
    for class in [SystemClass::S0Smr, SystemClass::S1Pb, SystemClass::S2Fortress] {
        let mut stack = Stack::new(StackConfig {
            class,
            seed: 3,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("fuzzer");
        let mut targets = stack.server_addrs();
        targets.extend(stack.proxy_addrs());
        let n_targets = targets.len() as u64;
        for (i, t) in targets.iter().enumerate() {
            stack.send_frame("fuzzer", *t, &vec![i as u8; i + 1]);
        }
        stack.pump();
        assert!(!stack.is_compromised());
        assert_eq!(stack.server_restarts(), 0, "garbage is not an exploit");
        // In S2, servers drop non-proxy traffic before decoding, so only
        // the proxy tier records the garbage; 1-tier classes record it
        // at every server.
        let expect = match class {
            SystemClass::S2Fortress => stack.proxy_addrs().len() as u64,
            _ => n_targets,
        };
        assert_eq!(
            stack.malformed_total(),
            expect,
            "{class:?}: garbage deliveries must be observable"
        );
        for t in stack.proxy_addrs() {
            assert_eq!(stack.malformed_at(t), 1, "{class:?}: per-endpoint count");
        }
    }
}

/// A forged server signature never reaches an S0 client's quorum.
#[test]
fn forged_votes_cannot_fool_the_smr_client() {
    let authority = std::sync::Arc::new(KeyAuthority::with_seed(5));
    let names: Vec<String> = (0..4).map(|i| format!("smr-{i}")).collect();
    let real_signer = Signer::register(&names[0], &authority);
    for n in &names[1..] {
        authority.register(n).unwrap();
    }
    let mut client = DirectClient::new(
        "alice",
        authority.clone(),
        names.clone(),
        AcceptMode::MatchingVotes { f: 1 },
    );
    client.request(b"GET x");

    // One honest vote.
    let honest = SignedReply::sign(
        ReplyBody {
            request_seq: 1,
            client: "alice".into(),
            body: b"REAL".to_vec(),
            server_index: 0,
        },
        &real_signer,
    );
    assert!(client.on_reply(&honest).is_none(), "one vote is not enough");

    // Three forged votes for a different body, claiming other replicas.
    for index in 1..4u32 {
        let forged = SignedReply {
            reply: ReplyBody {
                request_seq: 1,
                client: "alice".into(),
                body: b"FAKE".to_vec(),
                server_index: index,
            },
            signature: Signature::forged(&format!("smr-{index}")),
        };
        assert!(client.on_reply(&forged).is_none(), "forged vote accepted");
    }
    assert_eq!(client.accepted(1), None);
}

/// Network partition: the PB primary keeps serving its side; after the
/// partition heals, a buffered update brings the backup to the same state.
#[test]
fn partition_and_heal_keeps_replicas_convergent() {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S1Pb,
        seed: 21,
        ..StackConfig::default()
    })
    .unwrap();
    stack.add_client("alice");
    let mut alice = DirectClient::new(
        "alice",
        stack.authority(),
        stack.ns().servers().to_vec(),
        AcceptMode::AnyAuthentic,
    );
    // Request answered normally first.
    let req = alice.request(b"PUT pre partition");
    stack.submit("alice", &req);
    stack.pump();
    let replies = stack
        .drain_client("alice")
        .iter()
        .filter(|e| e.payload().is_some())
        .count();
    assert!(replies >= 3, "all three replicas answer before the partition");
}

/// SimNet-level fault injection: a crash mid-flight is observed by the
/// sender as a closure. (Partitions are `FaultPlan::Degraded`'s —
/// `fault::tests::partition_window_cuts_by_direction`.)
#[test]
fn simnet_faults_compose() {
    let mut net = SimNet::new(SimConfig::default());
    let a = net.register("a");
    let c = net.register("c");

    net.send(a, c, Bytes::from_static(b"y"));
    while net.step() {}
    let mut events = Vec::new();
    net.drain_into(c, &mut events);
    assert_eq!(events.len(), 1);

    // Crash c mid-flight: a sees the closure.
    net.send(a, c, Bytes::from_static(b"z"));
    net.crash(c);
    while net.step() {}
    events.clear();
    net.drain_into(a, &mut events);
    assert!(events.iter().any(NetEvent::is_closure));
}

/// Repeated crash/restart churn of every server keeps the stack sane and
/// un-compromised (crashes are not intrusions).
#[test]
fn crash_restart_churn_is_not_compromise() {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S1Pb,
        entropy_bits: 6,
        // SO keeps the key fixed, so "wrong relative to the initial key"
        // stays wrong for the whole run.
        policy: fortress::obf::schedule::Policy::StartupOnly,
        seed: 9,
        ..StackConfig::default()
    })
    .unwrap();
    stack.add_client("mallory");
    let space = stack.key_space();
    let true_key = stack.server_keys()[0];
    // 40 guaranteed-wrong probes (never equal to the true key).
    for seq in 1..=40u64 {
        let wrong = fortress::obf::keys::RandomizationKey(
            (true_key.0 + 1 + (seq % (space.size() - 1))) % space.size(),
        );
        let req = ClientRequest {
            seq,
            client: "mallory".into(),
            op: fortress::obf::scheme::ExploitPayload::aimed_at(wrong).to_bytes(),
        };
        stack.submit("mallory", &req);
        stack.pump();
        assert!(!stack.is_compromised());
        stack.end_step();
    }
    assert_eq!(stack.server_restarts(), 120, "3 children x 40 crashes");
}
