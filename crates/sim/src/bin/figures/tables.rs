//! The table builders of the paper's figures and the ablations.
//!
//! The paper's evaluation consists of Figure 1 (expected-lifetime
//! comparison across S0SO, S1SO, S1PO, S2PO, S0PO), Figure 2 (S2PO
//! lifetimes as κ varies) and the §6 summary ordering. Every artifact has
//! a generator here returning a [`CsvTable`]; `main` prints them, next to
//! the protocol-level sweeps `fortress_sim::scenario` compiles. Ablations
//! beyond the paper (probe model, re-randomization period, fleet sizes,
//! key entropy, protocol-level corroboration, proxy overhead) are the
//! `ablation-*`, `proto` and `overhead` names of the binary.

use fortress_model::{LaunchPad, PeriodChainSpec};
use fortress_model::lifetime::{expected_lifetime, figure1_systems};
use fortress_model::ordering::verify_paper_ordering;
use fortress_model::params::{
    paper_alpha_grid, paper_alpha_params, paper_kappa_grid, AttackParams, Policy, ProbeModel,
};
use fortress_model::survival::either;
use fortress_model::SystemKind;
use fortress_sim::event_mc::sample_lifetime;
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::report::{fmt_num, CsvTable};
use fortress_sim::runner::{Runner, TrialBudget};

/// The paper's key-space size: 16 bits of entropy (PaX ASLR).
const PAPER_CHI: f64 = 65536.0;

/// Monte-Carlo mean lifetime via the event-driven sampler, fanned out
/// over `runner`. Deterministic in `(seed, budget)` at any thread count.
fn mc_mean(
    runner: &Runner,
    kind: SystemKind,
    policy: Policy,
    params: &AttackParams,
    budget: TrialBudget,
    seed: u64,
) -> f64 {
    let params = *params;
    runner
        .run(seed, budget, move |_, rng| {
            sample_lifetime(kind, policy, &params, LaunchPad::NextStep, rng) as f64
        })
        .mean()
}

/// **FIG1** — Figure 1: expected lifetime of the five systems across the
/// α grid (S2PO at the given κ). Columns: analytic EL and event-driven
/// Monte-Carlo EL per system. The trial budget is adaptive: each grid
/// cell runs until its Monte-Carlo mean reaches `target_rse` relative
/// standard error (or the budget's cap), so the high-variance small-α
/// corner gets the trials it needs without over-sampling the cheap corner.
pub fn figure1_adaptive(points_per_decade: usize, kappa: f64, target_rse: f64) -> CsvTable {
    figure1_with(
        &Runner::new(),
        points_per_decade,
        kappa,
        TrialBudget::adaptive(target_rse),
    )
}

/// [`figure1_adaptive`] with explicit runner and per-cell trial budget.
fn figure1_with(
    runner: &Runner,
    points_per_decade: usize,
    kappa: f64,
    budget: TrialBudget,
) -> CsvTable {
    let systems = figure1_systems(kappa);
    let mut headers: Vec<String> = vec!["alpha".into()];
    for s in &systems {
        headers.push(format!("{}_analytic", s.label()));
        headers.push(format!("{}_mc", s.label()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = CsvTable::new(&header_refs);
    for (i, (alpha, params)) in paper_alpha_params(points_per_decade, PAPER_CHI)
        .expect("grid is valid")
        .into_iter()
        .enumerate()
    {
        let mut row = vec![fmt_num(alpha)];
        for s in &systems {
            let analytic = s.expected_lifetime(&params).expect("valid spec");
            let mc = mc_mean(runner, s.kind, s.policy, &params, budget, 0x51 + i as u64);
            row.push(fmt_num(analytic));
            row.push(fmt_num(mc));
        }
        table.push_row(row);
    }
    table
}

/// **FIG2** — Figure 2: S2PO expected lifetime as κ varies (log scale in
/// the paper; the series speak for themselves as numbers). Analytic only:
/// Monte-Carlo coverage lives in FIG1.
pub fn figure2(points_per_decade: usize) -> CsvTable {
    let kappas = paper_kappa_grid();
    let mut headers: Vec<String> = vec!["alpha".into()];
    for k in &kappas {
        headers.push(format!("kappa_{k:.1}"));
    }
    headers.push("S0PO_reference".into());
    headers.push("S1PO_reference".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = CsvTable::new(&header_refs);
    for alpha in paper_alpha_grid(points_per_decade) {
        let params = AttackParams::from_alpha(PAPER_CHI, alpha).expect("grid is valid");
        let mut row = vec![fmt_num(alpha)];
        for &kappa in &kappas {
            let el = expected_lifetime(
                SystemKind::S2Fortress { kappa },
                Policy::Proactive,
                ProbeModel::Broadcast,
                &params,
            )
            .expect("valid spec");
            row.push(fmt_num(el));
        }
        let s0 = expected_lifetime(
            SystemKind::S0Smr,
            Policy::Proactive,
            ProbeModel::Broadcast,
            &params,
        )
        .expect("valid spec");
        let s1 = expected_lifetime(
            SystemKind::S1Pb,
            Policy::Proactive,
            ProbeModel::Broadcast,
            &params,
        )
        .expect("valid spec");
        row.push(fmt_num(s0));
        row.push(fmt_num(s1));
        table.push_row(row);
    }
    table
}

/// **ORD** — the §6 summary ordering, arrow by arrow.
pub fn ordering_summary() -> CsvTable {
    let reports = verify_paper_ordering(&paper_alpha_grid(5), &paper_kappa_grid(), PAPER_CHI)
        .expect("paper grids are valid");
    let mut table = CsvTable::new(&["arrow", "grid_points", "held", "holds"]);
    for r in reports {
        table.push_row(vec![
            r.arrow.clone(),
            r.checked.to_string(),
            r.held.to_string(),
            r.holds().to_string(),
        ]);
    }
    table
}

/// **TREND1..4** — the four bold §6 trends at a representative α.
pub fn trends(alpha: f64) -> CsvTable {
    let params = AttackParams::from_alpha(PAPER_CHI, alpha).expect("alpha valid");
    let el = |kind, policy| {
        expected_lifetime(kind, policy, ProbeModel::Broadcast, &params).expect("valid")
    };
    let s0so = el(SystemKind::S0Smr, Policy::StartupOnly);
    let s1so = el(SystemKind::S1Pb, Policy::StartupOnly);
    let s1po = el(SystemKind::S1Pb, Policy::Proactive);
    let s2po_05 = el(SystemKind::S2Fortress { kappa: 0.5 }, Policy::Proactive);
    let s2po_09 = el(SystemKind::S2Fortress { kappa: 0.9 }, Policy::Proactive);
    let s2po_0 = el(SystemKind::S2Fortress { kappa: 0.0 }, Policy::Proactive);
    let s0po = el(SystemKind::S0Smr, Policy::Proactive);

    let mut table = CsvTable::new(&["trend", "comparison", "holds"]);
    table.push_row(vec![
        "1: S1SO outlives S0SO".into(),
        format!("{} > {}", fmt_num(s1so), fmt_num(s0so)),
        (s1so > s0so).to_string(),
    ]);
    table.push_row(vec![
        "2: S2PO,S1PO outlive all SO".into(),
        format!(
            "min({}, {}) > max({}, {})",
            fmt_num(s2po_05),
            fmt_num(s1po),
            fmt_num(s1so),
            fmt_num(s0so)
        ),
        (s2po_05.min(s1po) > s1so.max(s0so)).to_string(),
    ]);
    table.push_row(vec![
        "3: S2PO outlives S1PO for kappa<=0.9".into(),
        format!("{} > {}", fmt_num(s2po_09), fmt_num(s1po)),
        (s2po_09 > s1po).to_string(),
    ]);
    table.push_row(vec![
        "4: S0PO outlives S2PO except kappa=0".into(),
        format!(
            "{} > {} and {} > {}",
            fmt_num(s0po),
            fmt_num(s2po_05),
            fmt_num(s2po_0),
            fmt_num(s0po)
        ),
        (s0po > s2po_05 && s2po_0 > s0po).to_string(),
    ]);
    table
}

/// **ABL-PROBE** — broadcast vs independent-per-node probes: trend 1
/// holds under broadcast and flips under independent probing.
pub fn ablation_probe_model(points_per_decade: usize) -> CsvTable {
    let mut table = CsvTable::new(&[
        "alpha",
        "S1SO_broadcast",
        "S0SO_broadcast",
        "S1SO_independent",
        "S0SO_independent",
        "trend1_broadcast",
        "trend1_independent",
    ]);
    for alpha in paper_alpha_grid(points_per_decade) {
        let params = AttackParams::from_alpha(PAPER_CHI, alpha).expect("valid");
        let el = |kind, probe| {
            expected_lifetime(kind, Policy::StartupOnly, probe, &params).expect("valid")
        };
        let s1b = el(SystemKind::S1Pb, ProbeModel::Broadcast);
        let s0b = el(SystemKind::S0Smr, ProbeModel::Broadcast);
        let s1i = el(SystemKind::S1Pb, ProbeModel::IndependentPerNode);
        let s0i = el(SystemKind::S0Smr, ProbeModel::IndependentPerNode);
        table.push_row(vec![
            fmt_num(alpha),
            fmt_num(s1b),
            fmt_num(s0b),
            fmt_num(s1i),
            fmt_num(s0i),
            (s1b > s0b).to_string(),
            (s1i > s0i).to_string(),
        ]);
    }
    table
}

/// **ABL-P** — generalized re-randomization period: the period chain's EL
/// ([`PeriodChainSpec`], solved as a renewal over one period) as P grows
/// from the paper's 1 toward SO-like behavior.
pub fn ablation_period(alpha: f64, periods: &[usize]) -> CsvTable {
    let mut table = CsvTable::new(&["period", "S0PO_chain", "S1PO_chain", "S2PO_chain_k0.5"]);
    for &p in periods {
        let el = |kind| {
            PeriodChainSpec {
                kind,
                alpha,
                period: p,
                launch_pad: LaunchPad::NextStep,
            }
            .expected_lifetime()
            .expect("valid chain")
        };
        table.push_row(vec![
            p.to_string(),
            fmt_num(el(SystemKind::S0Smr)),
            fmt_num(el(SystemKind::S1Pb)),
            fmt_num(el(SystemKind::S2Fortress { kappa: 0.5 })),
        ]);
    }
    table
}

/// **ABL-NP** — proxy-count sweep for S2PO: the all-proxies path weakens
/// as `np` grows (`p = either(κα, α^np)`), while κ is independent of `np`
/// (Definition 5).
pub fn ablation_fleet(alpha: f64, kappa: f64, np_range: &[usize]) -> CsvTable {
    let mut table = CsvTable::new(&["np", "S2PO_el", "proxies_path_share"]);
    for &np in np_range {
        let server = kappa * alpha;
        let proxies = alpha.powi(np as i32);
        let p = either(server, proxies);
        let share = proxies * (1.0 - server) / p;
        table.push_row(vec![
            np.to_string(),
            fmt_num(1.0 / p),
            fmt_num(share),
        ]);
    }
    table
}

/// **ABL-ENT** — key-entropy sweep at fixed attacker strength ω: more
/// entropy stretches every lifetime (the paper: realistic entropies are
/// 16 or 32 bits).
pub fn ablation_entropy(omega: f64, bits_range: &[u32]) -> CsvTable {
    let mut table = CsvTable::new(&["entropy_bits", "alpha", "S1SO", "S1PO", "S0PO"]);
    for &bits in bits_range {
        let chi = (2.0f64).powi(bits as i32);
        let params = AttackParams::new(chi, omega).expect("valid");
        let el = |kind, policy| {
            expected_lifetime(kind, policy, ProbeModel::Broadcast, &params).expect("valid")
        };
        table.push_row(vec![
            bits.to_string(),
            fmt_num(params.alpha()),
            fmt_num(el(SystemKind::S1Pb, Policy::StartupOnly)),
            fmt_num(el(SystemKind::S1Pb, Policy::Proactive)),
            fmt_num(el(SystemKind::S0Smr, Policy::Proactive)),
        ]);
    }
    table
}

/// **PROTO** — protocol-level corroboration: expected lifetimes measured
/// by running the real stacks under real attackers at scaled χ, next to
/// the analytic model at the same parameters.
pub fn protocol_comparison(trials: u64) -> CsvTable {
    use fortress_core::system::SystemClass;
    let mut table = CsvTable::new(&["system", "protocol_el", "analytic_el", "rel_err"]);
    let cases = [
        ("S1SO", SystemClass::S1Pb, Policy::StartupOnly),
        ("S0SO", SystemClass::S0Smr, Policy::StartupOnly),
        ("S1PO", SystemClass::S1Pb, Policy::Proactive),
    ];
    for (i, (label, class, policy)) in cases.into_iter().enumerate() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            max_steps: 2000,
            ..ProtocolExperiment::new(class, policy)
        };
        let est = exp.estimate(trials, 0xbeef + i as u64 * 1000);
        let params = AttackParams::new(256.0, 8.0).expect("valid");
        let kind = match class {
            SystemClass::S0Smr => SystemKind::S0Smr,
            _ => SystemKind::S1Pb,
        };
        let analytic =
            expected_lifetime(kind, policy, ProbeModel::Broadcast, &params).expect("valid");
        let rel = (est.mean - analytic).abs() / analytic;
        table.push_row(vec![
            label.into(),
            fmt_num(est.mean),
            fmt_num(analytic),
            fmt_num(rel),
        ]);
    }
    table
}

/// **OVH** — proxy overhead without intrusions: network hops per answered
/// request in the 1-tier PB system vs the 2-tier FORTRESS system (echoes
/// the Saidane et al. observation that proxy overhead is modest, §2.2).
pub fn proxy_overhead(requests: u64) -> CsvTable {
    use fortress_core::client::ProbeClient;
    use fortress_core::system::{Stack, StackConfig, SystemClass};

    let mut table = CsvTable::new(&["system", "requests", "ticks_per_request"]);
    let systems = [
        (SystemClass::S1Pb, "S1 (direct PB)"),
        (SystemClass::S2Fortress, "S2 (FORTRESS)"),
    ];
    for (class, label) in systems {
        let mut stack = Stack::new(StackConfig { class, seed: 1, ..StackConfig::default() })
            .expect("assembly");
        let mut client = ProbeClient::attach(&mut stack, "bench");
        let mut answered = 0u64;
        let mut total_ticks = 0u64;
        for _ in 0..requests {
            let before = stack.network_now();
            let req = client.request(b"PUT k v");
            stack.submit("bench", &req);
            stack.pump();
            // All three proxies answer an S2 request and `settles` also
            // accepts a valid duplicate: a request counts once.
            let events = stack.drain_client("bench");
            let frames = events.iter().filter_map(|ev| ev.payload());
            let copies = frames.filter(|frame| client.settles(frame) == Some(req.seq)).count();
            answered += u64::from(copies > 0);
            total_ticks += stack.network_now() - before;
        }
        table.push_row(vec![
            label.into(),
            answered.to_string(),
            fmt_num(total_ticks as f64 / answered.max(1) as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_all_series_and_ordering() {
        let t = figure1_with(&Runner::new(), 2, 0.5, TrialBudget::Fixed(300));
        assert!(t.len() >= 6);
        let csv = t.to_csv();
        for label in ["S0PO", "S2PO", "S1PO", "S1SO", "S0SO"] {
            assert!(csv.contains(label), "missing {label} in {csv}");
        }
    }

    #[test]
    fn figure2_covers_kappa_grid() {
        let t = figure2(1);
        let csv = t.to_csv();
        assert!(csv.contains("kappa_0.0"));
        assert!(csv.contains("kappa_1.0"));
        assert!(csv.contains("S0PO_reference"));
    }

    #[test]
    fn ordering_summary_all_hold() {
        let t = ordering_summary();
        let csv = t.to_csv();
        assert_eq!(csv.matches("true").count(), 4, "{csv}");
        assert!(!csv.contains("false"));
    }

    #[test]
    fn trends_all_hold() {
        let t = trends(1e-3);
        let csv = t.to_csv();
        assert_eq!(csv.matches("true").count(), 4, "{csv}");
    }

    #[test]
    fn probe_ablation_shows_the_flip() {
        let t = ablation_probe_model(1);
        let csv = t.to_csv();
        // Broadcast column true, independent column false on every row.
        for line in csv.lines().skip(1) {
            assert!(line.ends_with("true,false"), "{line}");
        }
    }

    /// Column `col` of every data row, parsed.
    fn column(t: &CsvTable, col: usize) -> Vec<f64> {
        t.to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(col).unwrap().parse::<f64>().unwrap())
            .collect()
    }

    #[test]
    fn period_ablation_is_monotone_for_s0() {
        let t = ablation_period(1e-2, &[1, 2, 4, 8]);
        assert_eq!(t.len(), 4);
        // Footholds held across a longer period shorten S0's and S2's
        // lives; S1 holds nothing, so its lifetime is flat in P.
        for col in [1, 3] {
            let els = column(&t, col);
            assert!(els.windows(2).all(|w| w[1] < w[0]), "column {col}: {els:?}");
        }
        let s1 = column(&t, 2);
        assert!(
            s1.iter().all(|&el| (el - s1[0]).abs() <= 1e-9 * s1[0]),
            "{s1:?}"
        );
    }

    #[test]
    fn fleet_ablation_monotone_in_np() {
        let t = ablation_fleet(1e-2, 0.0, &[1, 2, 3, 4]);
        // With kappa = 0 the EL is 1/alpha^np: strictly increasing rows.
        let els = column(&t, 1);
        assert!(els.windows(2).all(|w| w[1] > w[0]), "{els:?}");
    }

    #[test]
    fn entropy_ablation_monotone() {
        let t = ablation_entropy(64.0, &[12, 16, 20]);
        assert_eq!(t.len(), 3);
        // Every lifetime column (S1SO, S1PO, S0PO) rises with entropy.
        for col in 2..5 {
            let els = column(&t, col);
            assert!(els.windows(2).all(|w| w[1] > w[0]), "column {col}: {els:?}");
        }
    }

    #[test]
    fn overhead_table_renders() {
        let t = proxy_overhead(5);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert!(csv.contains("FORTRESS"));
    }
}
