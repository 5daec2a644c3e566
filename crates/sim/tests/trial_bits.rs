//! Every trial's bits, cell by cell: a literal table with one row per cell
//! of the four presets (`paper_default_sweep`, `availability_sweep`,
//! `fault_sweep`, `repair_sweep`) at base seed 7.
//!
//! A row's digest is FNV-1a over trials 0..8 of the cell, trial `i` run at
//! `trial_seed(cell.seed, i)`: the lifetime, then the JSON name and
//! `f64::to_bits` of each column the trial measured. An unmeasured column
//! folds nothing, so the table reads only what a trial produced, not the
//! width of the column set. The goldens hold cell means; this table holds
//! each trial, so a refactor of the trial path that moves one trial and
//! leaves a mean in place still fails here.

use fortress_sim::protocol_mc::run_trial;
use fortress_sim::runner::trial_seed;
use fortress_sim::scenario::{
    availability_sweep, fault_sweep, paper_default_sweep, repair_sweep, SweepCell,
};
use fortress_sim::stats::COLUMNS;

const BASE_SEED: u64 = 7;
const TRIALS: u64 = 8;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(cell: &SweepCell) -> u64 {
    let mut h = Fnv::new();
    for i in 0..TRIALS {
        let m = run_trial(&cell.spec, trial_seed(cell.seed, i));
        h.bytes(&m.lifetime.to_le_bytes());
        for def in COLUMNS {
            if let Some(value) = m.avail[def.column] {
                h.bytes(def.json.as_bytes());
                h.bytes(&value.to_bits().to_le_bytes());
            }
        }
    }
    h.0
}

#[rustfmt::skip]
const PINNED: &[(&str, u64)] = &[
    ("S2 SO chi=2^8 w=64/t=2 np=1 paced", 0x715a8162cfbce0c7),
    ("S2 SO chi=2^8 w=64/t=2 np=1 scan_strike", 0x0f18023591cf0c76),
    ("S2 SO chi=2^8 w=64/t=2 np=1 burst", 0xe20386d444bebeac),
    ("S2 SO chi=2^8 w=64/t=2 np=1 adaptive", 0xf93975bb9c31cc00),
    ("S2 SO chi=2^8 w=64/t=2 np=1 sybil x4", 0x7de7452d58df99a4),
    ("S2 SO chi=2^8 w=64/t=2 np=3 paced", 0xed3e8c532056da73),
    ("S2 SO chi=2^8 w=64/t=2 np=3 scan_strike", 0xef4977c23652ba3c),
    ("S2 SO chi=2^8 w=64/t=2 np=3 burst", 0x45acbe5212eefa66),
    ("S2 SO chi=2^8 w=64/t=2 np=3 adaptive", 0x8272a528e5b948c2),
    ("S2 SO chi=2^8 w=64/t=2 np=3 sybil x4", 0x90e97032bc5c6535),
    ("S2 SO chi=2^8 w=64/t=2 np=5 paced", 0xa0e08f177330460e),
    ("S2 SO chi=2^8 w=64/t=2 np=5 scan_strike", 0x2c58c5599803260e),
    ("S2 SO chi=2^8 w=64/t=2 np=5 burst", 0x1012d69e15f65ab4),
    ("S2 SO chi=2^8 w=64/t=2 np=5 adaptive", 0x7c6b907e9d8f9ec4),
    ("S2 SO chi=2^8 w=64/t=2 np=5 sybil x4", 0xb2a7f508af0b0459),
    ("S2 SO chi=2^8 w=32/t=5 np=1 paced", 0x10d5e76576f63335),
    ("S2 SO chi=2^8 w=32/t=5 np=1 scan_strike", 0x50f249e8305dbcbd),
    ("S2 SO chi=2^8 w=32/t=5 np=1 burst", 0x9c159e7a18b2076f),
    ("S2 SO chi=2^8 w=32/t=5 np=1 adaptive", 0x991aeed69b4fc1ff),
    ("S2 SO chi=2^8 w=32/t=5 np=1 sybil x4", 0x51a5b242faa61415),
    ("S2 SO chi=2^8 w=32/t=5 np=3 paced", 0x40926ab68c2cfb4d),
    ("S2 SO chi=2^8 w=32/t=5 np=3 scan_strike", 0x8680064637e83ccb),
    ("S2 SO chi=2^8 w=32/t=5 np=3 burst", 0x29e52bb43ae5a3a4),
    ("S2 SO chi=2^8 w=32/t=5 np=3 adaptive", 0x8641aef37e1bf287),
    ("S2 SO chi=2^8 w=32/t=5 np=3 sybil x4", 0x8d5a98859eb88f59),
    ("S2 SO chi=2^8 w=32/t=5 np=5 paced", 0xcbc24ecd7cc387fa),
    ("S2 SO chi=2^8 w=32/t=5 np=5 scan_strike", 0xfd7d09a7e82840ae),
    ("S2 SO chi=2^8 w=32/t=5 np=5 burst", 0xb737854b349d655c),
    ("S2 SO chi=2^8 w=32/t=5 np=5 adaptive", 0x11b4bedf128754d2),
    ("S2 SO chi=2^8 w=32/t=5 np=5 sybil x4", 0x724034a709937cf1),
    ("S2 SO chi=2^8 w=16/t=9 np=1 paced", 0xfed473aac42af348),
    ("S2 SO chi=2^8 w=16/t=9 np=1 scan_strike", 0x37ffb496f1d8560c),
    ("S2 SO chi=2^8 w=16/t=9 np=1 burst", 0x22708d874c05772a),
    ("S2 SO chi=2^8 w=16/t=9 np=1 adaptive", 0x2f10fea6ad730a30),
    ("S2 SO chi=2^8 w=16/t=9 np=1 sybil x4", 0xdd2f48781e396c4f),
    ("S2 SO chi=2^8 w=16/t=9 np=3 paced", 0xc21accc842dc8c12),
    ("S2 SO chi=2^8 w=16/t=9 np=3 scan_strike", 0x9557c10d00a9b39a),
    ("S2 SO chi=2^8 w=16/t=9 np=3 burst", 0x16811077c9850321),
    ("S2 SO chi=2^8 w=16/t=9 np=3 adaptive", 0x9339210d413e0756),
    ("S2 SO chi=2^8 w=16/t=9 np=3 sybil x4", 0xa7c77ae9cc162645),
    ("S2 SO chi=2^8 w=16/t=9 np=5 paced", 0x307c43008708498e),
    ("S2 SO chi=2^8 w=16/t=9 np=5 scan_strike", 0xc2440de34cd7c708),
    ("S2 SO chi=2^8 w=16/t=9 np=5 burst", 0x5157d0c3c3e8a899),
    ("S2 SO chi=2^8 w=16/t=9 np=5 adaptive", 0x41f5aedbc9fce680),
    ("S2 SO chi=2^8 w=16/t=9 np=5 sybil x4", 0x22b30a5966143c43),
    ("S2 PO chi=2^6 w=16/t=9 np=3 paced", 0xcb898a41df1ea185),
    ("S2 PO chi=2^6 w=16/t=9 np=3 scan_strike", 0x3624adf1ec8f8aa5),
    ("S2 PO chi=2^6 w=16/t=9 np=3 burst", 0xa5ff727399ee83d4),
    ("S2 PO chi=2^6 w=16/t=9 np=3 adaptive", 0x81018365e9f76cdf),
    ("S2 PO chi=2^6 w=16/t=9 np=3 sybil x4", 0xa659603b92c57de1),
    ("S2 SO chi=2^10 w=64/t=2 np=3 paced", 0xfc9d9c5858201624),
    ("S2 SO chi=2^10 w=64/t=2 np=3 paced out=periodic:40/25", 0xe33dbf711f53dc4f),
    ("S2 SO chi=2^10 w=64/t=2 np=3 paced out=poisson:0.01/25", 0xf1691e8bf1f542ba),
    ("S2 SO chi=2^10 w=64/t=2 np=3 outage_strike", 0x4d2fd3d7f5a15103),
    ("S2 SO chi=2^10 w=64/t=2 np=3 outage_strike out=periodic:40/25", 0x4ff27d527c37567f),
    ("S2 SO chi=2^10 w=64/t=2 np=3 outage_strike out=poisson:0.01/25", 0x34a37d6232e364ea),
    ("protocol S1 SO chi=2^10", 0x86a9d4dd74794fd9),
    ("protocol S1 SO chi=2^10 out=periodic:40/25", 0x10eaafc897e3d437),
    ("protocol S1 SO chi=2^10 out=poisson:0.01/25", 0x677bbe7a70432549),
    ("S2 SO chi=2^10 w=64/t=2 np=3 paced", 0xe9651ffb0ce2286b),
    ("S2 SO chi=2^10 w=64/t=2 np=3 paced fault=loss:0.05+delay:0-2+retry:2x8", 0xfc0dbb85df31c4c8),
    ("S2 SO chi=2^10 w=64/t=2 np=3 paced fault=loss:0.1+delay:0-3+dup:0.02+retry:3x8", 0x927d96d0a956c61b),
    ("protocol S1 SO chi=2^10", 0x5093bc0015032285),
    ("protocol S1 SO chi=2^10 fault=loss:0.05+delay:0-2+retry:2x8", 0x3f88d47bc3f20eca),
    ("protocol S1 SO chi=2^10 fault=loss:0.1+delay:0-3+dup:0.02+retry:3x8", 0xecf8b8eb9d2f8abb),
    ("protocol S0 SO chi=2^12", 0x2bdc95b30e54673a),
    ("protocol S0 SO chi=2^12 repair=smr-stag:1@40+60/30bw1", 0xde79efc91fcd1a02),
    ("protocol S0 SO chi=2^12 repair=smr-stag:2@40+60/30bw1", 0xeec31da14d0df1c8),
    ("protocol S0 SO chi=2^12 repair=smr-storm:2@40+60/30bw1", 0xc175a08ffb144764),
];

#[test]
fn every_trial_of_the_four_presets_keeps_its_bits() {
    let cells: Vec<SweepCell> = [
        paper_default_sweep(BASE_SEED),
        availability_sweep(BASE_SEED),
        fault_sweep(BASE_SEED),
        repair_sweep(BASE_SEED),
    ]
    .concat();
    let got: Vec<(String, u64)> = cells.iter().map(|c| (c.label.clone(), digest(c))).collect();
    let table: String =
        got.iter().map(|(label, d)| format!("    ({label:?}, 0x{d:016x}),\n")).collect();
    assert_eq!(got.len(), PINNED.len(), "the presets' cell count moved; now:\n{table}");
    for ((label, d), &(want_label, want)) in got.iter().zip(PINNED) {
        assert_eq!(label, want_label, "a cell's label moved; now:\n{table}");
        assert_eq!(*d, want, "{label}: a trial's bits moved; now:\n{table}");
    }
}
