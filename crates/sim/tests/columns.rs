//! The column table's contract: `stats::COLUMNS` is the one list both
//! report renderers read, so a CSV header and a JSON key can only come
//! from a row of it, in its order — a column hand-added to one renderer
//! fails here.

use fortress_core::system::SystemClass;
use fortress_model::params::Policy;
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::scenario::{SweepCell, SweepOutcome, SweepReport};
use fortress_sim::stats::{AvailStats, ColumnGroup, RunningStats, TrialPoint, COLUMNS};

/// The cell-identity prefix each renderer writes before the table's
/// columns.
const CSV_PREFIX: [&str; 7] =
    ["cell", "kappa", "mean_lifetime", "ci_low", "ci_high", "trials", "censored"];
const JSON_PREFIX: [&str; 5] = ["cell", "kappa", "mean", "n", "censored"];

/// A one-cell report whose trial measured the core group plus `groups`.
fn report_measuring(groups: &[ColumnGroup]) -> SweepReport {
    let mut point = TrialPoint::default();
    for def in COLUMNS {
        if def.group == ColumnGroup::Core || groups.contains(&def.group) {
            point[def.column] = Some(1.0);
        }
    }
    let mut avail = AvailStats::new();
    avail.push(&point);
    let mut stats = RunningStats::new();
    stats.push(3.0);
    let spec = ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly);
    SweepReport {
        cells: vec![SweepOutcome::measured(&SweepCell::of(spec, 1), stats, avail)],
    }
}

fn csv_headers(report: &SweepReport) -> Vec<String> {
    let csv = report.to_table().to_csv();
    csv.lines().next().unwrap().split(',').map(str::to_owned).collect()
}

/// Every `"key":` of the report's JSON, in order.
fn json_keys(report: &SweepReport) -> Vec<String> {
    let json = report.to_json();
    let mut keys = Vec::new();
    for (end, _) in json.match_indices("\":") {
        let start = json[..end].rfind('"').unwrap() + 1;
        keys.push(json[start..end].to_owned());
    }
    keys
}

#[test]
fn csv_headers_and_json_keys_come_from_the_one_column_table() {
    use ColumnGroup::{Degrade, Repair};
    let legacy = [
        "cell", "kappa", "mean_lifetime", "ci_low", "ci_high", "trials", "censored",
        "downtime", "failovers", "failover_latency", "lost_requests",
    ];
    for groups in [&[][..], &[Degrade], &[Repair], &[Degrade, Repair]] {
        let report = report_measuring(groups);
        let shown = |group| group == ColumnGroup::Core || groups.contains(&group);
        let want_csv: Vec<&str> = CSV_PREFIX
            .into_iter()
            .chain(COLUMNS.iter().filter(|def| shown(def.group)).map(|def| def.csv))
            .collect();
        assert_eq!(csv_headers(&report), want_csv, "CSV headers with {groups:?} measured");
        // A group switches on as a whole: the legacy columns, then every
        // column of each measured group and nothing else.
        let optional = COLUMNS.iter().filter(|def| groups.contains(&def.group)).count();
        assert_eq!(want_csv.len(), legacy.len() + optional);
        assert_eq!(want_csv[..legacy.len()], legacy, "the legacy columns always lead");
        // JSON carries every column (null where unmeasured), same order.
        let want_json: Vec<&str> = JSON_PREFIX
            .into_iter()
            .chain(COLUMNS.iter().map(|def| def.json))
            .collect();
        assert_eq!(json_keys(&report), want_json, "JSON keys with {groups:?} measured");
    }
    assert_eq!(csv_headers(&report_measuring(&[])), legacy, "no optional group: the 11 legacy headers");
    for (index, def) in COLUMNS.iter().enumerate() {
        assert_eq!(def.column as usize, index, "{} sits at its own index", def.csv);
    }
}
