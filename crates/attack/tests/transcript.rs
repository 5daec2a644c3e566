//! Transcript pin of every attacker posture.
//!
//! For every [`StrategyKind`] (`ALL` plus `OutageStrike`) on S2, the
//! 1-tier baseline on S1 and S0, and every posture pointed at a stack
//! without a proxy tier (where it must degrade, not panic), under SO and
//! PO and three seeds on a tiny stack, one CSV row records the step of
//! the fall, the full [`AttackReport`], the transport counters, the
//! suspects list and a rolling hash of all of those taken after every
//! step. A server is taken down twice mid-run so the outage-gated
//! posture fires its indirect bursts.
//!
//! The golden was recorded on the eight pre-engine attacker structs; any
//! change to RNG draw order, registration order, pacer consumption, pad
//! selection or a single delivery moves at least the trace column.
//! Regenerate (only for an intended behaviour change) with
//! `UPDATE_GOLDEN=1 cargo test -p fortress-attack --test transcript`.

use std::fmt::Write as _;

use fortress_attack::attacker::Adversary;
use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{CompromiseState, Stack, StackConfig, SystemClass};
use fortress_obf::schedule::Policy;
use fortress_obf::scheme::Scheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/transcript.csv");
const SUSPICION: SuspicionPolicy = SuspicionPolicy { window: 8, threshold: 3 };
/// Fractional, so pacer credit carries across steps.
const OMEGA: f64 = 2.5;
const CAP: u64 = 160;
const SEEDS: [u64; 3] = [0x7A01, 0x7A02, 0x7A03];
/// `(take-down step, bring-up step)` of server 0, applied to every run.
const OUTAGES: [(u64, u64); 2] = [(4, 13), (30, 41)];

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn row(class: SystemClass, po: bool, adversary: Option<StrategyKind>, seed: u64) -> String {
    let mut stack = Stack::new(StackConfig {
        class,
        entropy_bits: 7,
        policy: if po { Policy::Proactive } else { Policy::StartupOnly },
        suspicion: SUSPICION,
        np: 3,
        seed,
        ..StackConfig::default()
    })
    .expect("assembly");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA7_7AC4);
    let mut attacker =
        Adversary::new(&mut stack, "mallory", Scheme::Aslr, OMEGA, SUSPICION, adversary, &mut rng);
    let mut trace = 0xcbf2_9ce4_8422_2325u64;
    let mut fell = 0u64;
    for step in 1..=CAP {
        for (down, up) in OUTAGES {
            if step == down {
                stack.take_down_server(0);
            }
            if step == up {
                stack.bring_up_server(0);
            }
        }
        attacker.step(&mut stack);
        let state = stack.end_step();
        let (r, n) = (attacker.report(), stack.net_stats());
        for value in [
            step,
            r.server_probes,
            r.proxy_probes,
            r.pad_probes,
            r.closures_observed,
            n.sent,
            n.delivered,
            n.dropped,
            n.dead_lettered,
            n.closures,
            stack.malformed_total(),
            stack.suspects().len() as u64,
        ] {
            fnv(&mut trace, value);
        }
        if state != CompromiseState::Intact {
            fell = step;
            break;
        }
        if po {
            attacker.on_rerandomized(&mut rng);
        }
    }
    let (r, n) = (attacker.report(), stack.net_stats());
    format!(
        "{class:?},{},{},{seed:#x},{fell},{},{},{},{},{},{},{},{},{},{},{},{trace:016x}",
        if po { "PO" } else { "SO" },
        adversary.map_or("direct".to_string(), StrategyKind::display_label),
        r.server_probes,
        r.proxy_probes,
        r.pad_probes,
        r.closures_observed,
        n.sent,
        n.delivered,
        n.dropped,
        n.dead_lettered,
        n.closures,
        stack.malformed_total(),
        stack.suspects().join("|"),
    )
}

#[test]
fn every_posture_reproduces_its_recorded_transcript() {
    let kinds = || StrategyKind::ALL.into_iter().chain([StrategyKind::OutageStrike]).map(Some);
    let cells = (kinds().map(|k| (SystemClass::S2Fortress, k)))
        .chain([(SystemClass::S1Pb, None), (SystemClass::S0Smr, None)])
        // A proxy-tier posture on a stack without proxies degrades.
        .chain(kinds().map(|k| (SystemClass::S1Pb, k)));
    let mut csv = String::from(
        "class,policy,adversary,seed,fell,server_probes,proxy_probes,pad_probes,\
         closures_observed,sent,delivered,dropped,dead_lettered,closures,malformed,\
         suspects,trace\n",
    );
    for (class, adversary) in cells {
        for po in [false, true] {
            for seed in SEEDS {
                writeln!(csv, "{}", row(class, po, adversary, seed)).unwrap();
            }
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &csv).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        csv, golden,
        "an attacker posture drifted from its recorded transcript; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
