//! The period chain's expected lifetimes, pinned: a literal table over
//! every class, three α, four periods and both launch-pad modes, and the
//! small-α rows where the closed forms are exact and a solver that
//! subtracts nearly equal numbers loses its digits.

use fortress::model::{LaunchPad, PeriodChainSpec, SystemKind};

const S0: SystemKind = SystemKind::S0Smr;
const S1: SystemKind = SystemKind::S1Pb;
const K01: SystemKind = SystemKind::S2Fortress { kappa: 0.1 };
const K05: SystemKind = SystemKind::S2Fortress { kappa: 0.5 };
const K1: SystemKind = SystemKind::S2Fortress { kappa: 1.0 };

fn el(kind: SystemKind, alpha: f64, period: usize, launch_pad: LaunchPad) -> f64 {
    PeriodChainSpec {
        kind,
        alpha,
        period,
        launch_pad,
    }
    .expected_lifetime()
    .unwrap()
}

fn assert_close(got: f64, want: f64, tol: f64, what: &str) {
    let rel = (got - want).abs() / want;
    assert!(rel < tol, "{what}: {got:e} vs {want:e} (relative {rel:e})");
}

/// `(kind, α, P, EL with launch pads, EL without)`, taken from the dense
/// absorbing-chain solver to 12 significant digits.
const PINS: [(SystemKind, f64, usize, f64, f64); 60] = [
    (S0, 1e-3, 1, 1.668891020248e5, 1.668891020248e5),
    (S0, 1e-3, 2, 8.363923863144e4, 8.363923863144e4),
    (S0, 1e-3, 8, 2.120215767984e4, 2.120215767984e4),
    (S0, 1e-3, 32, 5.594251678016e3, 5.594251678016e3),
    (S0, 1e-2, 1, 1.689103592723e3, 1.689103592723e3),
    (S0, 1e-2, 2, 8.642404781200e2, 8.642404781200e2),
    (S0, 1e-2, 8, 2.459151212691e2, 2.459151212691e2),
    (S0, 1e-2, 32, 9.277345699876e1, 9.277345699876e1),
    (S0, 0.1, 1, 1.912045889101e1, 1.912045889101e1),
    (S0, 0.1, 2, 1.175880142695e1, 1.175880142695e1),
    (S0, 0.1, 8, 6.580633775110e0, 6.580633775110e0),
    (S0, 0.1, 32, 6.037048491407e0, 6.037048491407e0),
    (S1, 1e-3, 1, 1.000000000000e3, 1.000000000000e3),
    (S1, 1e-3, 2, 1.000000000000e3, 1.000000000000e3),
    (S1, 1e-3, 8, 1.000000000000e3, 1.000000000000e3),
    (S1, 1e-3, 32, 1.000000000000e3, 1.000000000000e3),
    (S1, 1e-2, 1, 1.000000000000e2, 1.000000000000e2),
    (S1, 1e-2, 2, 1.000000000000e2, 1.000000000000e2),
    (S1, 1e-2, 8, 1.000000000000e2, 1.000000000000e2),
    (S1, 1e-2, 32, 1.000000000000e2, 1.000000000000e2),
    (S1, 0.1, 1, 1.000000000000e1, 1.000000000000e1),
    (S1, 0.1, 2, 1.000000000000e1, 1.000000000000e1),
    (S1, 0.1, 8, 1.000000000000e1, 1.000000000000e1),
    (S1, 0.1, 32, 1.000000000000e1, 1.000000000000e1),
    (K01, 1e-3, 1, 9.999900010996e3, 9.999900010996e3),
    (K01, 1e-3, 2, 9.851996831973e3, 9.999600670553e3),
    (K01, 1e-3, 8, 9.052511511714e3, 9.993672714252e3),
    (K01, 1e-3, 32, 6.868789118601e3, 9.903273507928e3),
    (K01, 1e-2, 1, 9.990019970048e2, 9.990019970048e2),
    (K01, 1e-2, 2, 8.679178746971e2, 9.960805309337e2),
    (K01, 1e-2, 8, 4.964345800456e2, 9.456505564458e2),
    (K01, 1e-2, 32, 2.093841414403e2, 6.067273283563e2),
    (K01, 0.1, 1, 9.099181073704e1, 9.099181073704e1),
    (K01, 0.1, 2, 3.782652461152e1, 7.471159955683e1),
    (K01, 0.1, 8, 1.300098235475e1, 2.973070949108e1),
    (K01, 0.1, 32, 9.721920212920e0, 1.648980659888e1),
    (K05, 1e-3, 1, 1.999996002008e3, 1.999996002008e3),
    (K05, 1e-3, 2, 1.994012520842e3, 1.999984035097e3),
    (K05, 1e-3, 8, 1.959032219581e3, 1.999747080581e3),
    (K05, 1e-3, 32, 1.833286473418e3, 1.996114646724e3),
    (K05, 1e-2, 1, 1.999602079186e2, 1.999602079186e2),
    (K05, 1e-2, 2, 1.941268403118e2, 1.998435917084e2),
    (K05, 1e-2, 8, 1.665461956976e2, 1.977534647262e2),
    (K05, 1e-2, 32, 1.151490652746e2, 1.777216890766e2),
    (K05, 0.1, 1, 1.962708537782e1, 1.962708537782e1),
    (K05, 0.1, 2, 1.527531321524e1, 1.879684972302e1),
    (K05, 0.1, 8, 9.019832562683e0, 1.404007957106e1),
    (K05, 0.1, 32, 7.691620688565e0, 1.100449682310e1),
    (K1, 1e-3, 1, 9.999990010010e2, 9.999990010010e2),
    (K1, 1e-3, 2, 9.985020091957e2, 9.999960115032e2),
    (K1, 1e-3, 8, 9.896648673436e2, 9.999368599248e2),
    (K1, 1e-3, 32, 9.566434206654e2, 9.990320575982e2),
    (K1, 1e-2, 1, 9.999010098000e1, 9.999010098000e1),
    (K1, 1e-2, 2, 9.852087200364e1, 9.996115238906e1),
    (K1, 1e-2, 8, 9.097654735883e1, 9.944345914603e1),
    (K1, 1e-2, 32, 7.368900369542e1, 9.433676375074e1),
    (K1, 0.1, 1, 9.910802775025e0, 9.910802775025e0),
    (K1, 0.1, 2, 8.751199136852e0, 9.711295175663e0),
    (K1, 0.1, 8, 6.511629268001e0, 8.450022714929e0),
    (K1, 0.1, 32, 6.013176304281e0, 7.635102160628e0),
];

#[test]
fn expected_lifetime_matches_the_pinned_table() {
    for (kind, alpha, period, with_pad, without_pad) in PINS {
        let row = format!("{kind:?} alpha={alpha:e} P={period}");
        let got = el(kind, alpha, period, LaunchPad::NextStep);
        assert_close(got, with_pad, 1e-9, &format!("{row} pads"));
        let got = el(kind, alpha, period, LaunchPad::Disabled);
        assert_close(got, without_pad, 1e-9, &format!("{row} no pads"));
    }
}

/// κ = 0 leaves only the proxy path, and at P = 1 a pad is revoked before
/// it can be used: all three proxies must fall in one phase.
#[test]
fn s2_at_kappa_zero_lives_one_over_alpha_cubed_at_small_alpha() {
    let alpha: f64 = 1e-5;
    let got = el(
        SystemKind::S2Fortress { kappa: 0.0 },
        alpha,
        1,
        LaunchPad::NextStep,
    );
    assert_close(got, 1.0 / alpha.powi(3), 1e-9, "S2 kappa=0 P=1");
}

/// Without pads and with κ = 0, a two-phase period is lost iff each proxy
/// falls in one of its two phases (`(2α − α²)³`), and it visits a second
/// phase unless all three fell in the first (`2 − α³` phases).
#[test]
fn s2_without_pads_over_two_phases_matches_its_closed_form_at_small_alpha() {
    let alpha: f64 = 1e-5;
    let got = el(
        SystemKind::S2Fortress { kappa: 0.0 },
        alpha,
        2,
        LaunchPad::Disabled,
    );
    let want = (2.0 - alpha.powi(3)) / (2.0 * alpha - alpha * alpha).powi(3);
    assert_close(got, want, 1e-9, "S2 kappa=0 P=2 no pads");
}

/// S0 falls when two of its four keys fall in one phase:
/// `P(Bin(4, α) ≥ 2) = 6α² − 8α³ + 3α⁴`.
#[test]
fn s0_at_period_one_is_the_binomial_tail_at_small_alpha() {
    let alpha: f64 = 1e-5;
    let got = el(S0, alpha, 1, LaunchPad::NextStep);
    let want = 1.0 / (6.0 * alpha.powi(2) - 8.0 * alpha.powi(3) + 3.0 * alpha.powi(4));
    assert_close(got, want, 1e-9, "S0 P=1");
}
