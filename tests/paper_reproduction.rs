//! The paper's evaluation, reproduced: every §6 trend, the summary
//! ordering, and agreement between the three evaluation methods (closed
//! forms, absorbing Markov chains, Monte-Carlo) that §5 prescribes.

use fortress::model::lifetime::figure1_systems;
use fortress::model::ordering::verify_paper_ordering;
use fortress::model::params::{
    paper_alpha_grid, paper_kappa_grid, AttackParams, Policy, ProbeModel,
};
use fortress::model::{expected_lifetime, LaunchPad, PeriodChainSpec, SystemKind};
use fortress::sim::event_mc::sample_lifetime;
use fortress::sim::runner::{Runner, TrialBudget};

const CHI: f64 = 65536.0;

#[test]
fn summary_ordering_holds_over_full_grid() {
    let reports =
        verify_paper_ordering(&paper_alpha_grid(5), &paper_kappa_grid(), CHI).unwrap();
    assert_eq!(reports.len(), 4);
    for r in &reports {
        assert!(r.holds(), "{} failed at {:?}", r.arrow, r.failures);
    }
}

#[test]
fn figure1_series_are_strictly_ordered_at_every_alpha() {
    for alpha in paper_alpha_grid(5) {
        let params = AttackParams::from_alpha(CHI, alpha).unwrap();
        let els: Vec<f64> = figure1_systems(0.5)
            .iter()
            .map(|s| s.expected_lifetime(&params).unwrap())
            .collect();
        // figure1_systems returns S0PO, S2PO, S1PO, S1SO, S0SO — the §6
        // ordering, so the vector must be strictly decreasing.
        for w in els.windows(2) {
            assert!(w[0] > w[1], "alpha = {alpha}: {els:?}");
        }
    }
}

#[test]
fn figure2_crossover_sits_between_09_and_10() {
    for alpha in [1e-4, 1e-3, 1e-2] {
        let params = AttackParams::from_alpha(CHI, alpha).unwrap();
        let s1po = expected_lifetime(
            SystemKind::S1Pb,
            Policy::Proactive,
            ProbeModel::Broadcast,
            &params,
        )
        .unwrap();
        let el = |kappa| {
            expected_lifetime(
                SystemKind::S2Fortress { kappa },
                Policy::Proactive,
                ProbeModel::Broadcast,
                &params,
            )
            .unwrap()
        };
        assert!(el(0.9) > s1po, "alpha {alpha}: S2PO(0.9) must beat S1PO");
        assert!(el(1.0) < s1po, "alpha {alpha}: S2PO(1.0) must lose to S1PO");
        // And Figure 2's monotonicity: EL decreases in kappa.
        let mut prev = f64::INFINITY;
        for kappa in paper_kappa_grid() {
            let e = el(kappa);
            assert!(e < prev, "alpha {alpha} kappa {kappa}");
            prev = e;
        }
    }
}

/// §5: "we use either Absorbing Markov Chain methods … or Monte-Carlo
/// simulations". All three of our methods agree on the PO systems.
#[test]
fn three_evaluation_methods_agree_on_po_systems() {
    let alpha = 1e-3;
    let params = AttackParams::from_alpha(CHI, alpha).unwrap();
    let cases = [
        SystemKind::S0Smr,
        SystemKind::S1Pb,
        SystemKind::S2Fortress { kappa: 0.5 },
    ];
    for kind in cases {
        let analytic =
            expected_lifetime(kind, Policy::Proactive, ProbeModel::Broadcast, &params).unwrap();
        let chain = PeriodChainSpec::paper(kind, alpha)
            .expected_lifetime()
            .unwrap();
        // The Monte-Carlo leg: the event-driven sampler on counter-seeded
        // trials, thread-count invariant.
        let mc = Runner::with_threads(2)
            .run(7, TrialBudget::Fixed(30_000), |_, rng| {
                sample_lifetime(kind, Policy::Proactive, &params, LaunchPad::NextStep, rng) as f64
            })
            .mean();
        let chain_rel = (analytic - chain).abs() / analytic;
        let mc_rel = (analytic - mc).abs() / analytic;
        assert!(chain_rel < 1e-9, "{kind:?}: chain {chain} vs analytic {analytic}");
        assert!(mc_rel < 0.05, "{kind:?}: MC {mc} vs analytic {analytic}");
    }
}

/// The S2PO advantage is exactly the κ tax: EL(S2PO)/EL(S1PO) ≈ 1/κ for
/// small α — the quantitative heart of Figure 2.
#[test]
fn s2po_advantage_scales_inversely_with_kappa() {
    let params = AttackParams::from_alpha(CHI, 1e-4).unwrap();
    let s1po = expected_lifetime(
        SystemKind::S1Pb,
        Policy::Proactive,
        ProbeModel::Broadcast,
        &params,
    )
    .unwrap();
    for kappa in [0.1, 0.2, 0.5] {
        let s2po = expected_lifetime(
            SystemKind::S2Fortress { kappa },
            Policy::Proactive,
            ProbeModel::Broadcast,
            &params,
        )
        .unwrap();
        let ratio = s2po / s1po;
        let expected = 1.0 / kappa;
        assert!(
            (ratio - expected).abs() / expected < 0.01,
            "kappa {kappa}: ratio {ratio} vs {expected}"
        );
    }
}

/// Paper conclusion (§7): "a fortified PB system can have the same degree
/// of resilience as an initially randomized, periodically recovered,
/// 1-tolerant SMR system" — here strengthened: S2 even under SO with a
/// detection-constrained attacker (small effective κ) outlives S0SO.
#[test]
fn fortified_pb_matches_recovered_smr() {
    let params = AttackParams::from_alpha(CHI, 1e-3).unwrap();
    let s0so = expected_lifetime(
        SystemKind::S0Smr,
        Policy::StartupOnly,
        ProbeModel::Broadcast,
        &params,
    )
    .unwrap();
    let s2so_small_kappa =
        fortress::model::lifetime::expected_lifetime_s2_so(&params, 0.1, LaunchPad::NextStep);
    assert!(
        s2so_small_kappa > s0so,
        "S2SO(kappa=0.1) = {s2so_small_kappa} vs S0SO = {s0so}"
    );
}
