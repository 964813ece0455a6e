//! Golden-waveform validation of the transient integrators, in the style of
//! a SPICE-vs-analytic regression suite: every circuit here has a closed-form
//! solution, and every integration scheme must stay inside a pinned error
//! budget against it.
//!
//! Three analytic circuits cover the interesting regimes:
//!
//! * a **smooth RC charging** curve (first-order accuracy separation:
//!   backward Euler's O(h) error sits two decades above the trapezoidal and
//!   TR-BDF2 O(h²) errors),
//! * a **stiff RC pair** with a 250× eigenvalue spread (L-stability: the
//!   fast mode must be damped, not rung), and
//! * a **PULSE edge** (piecewise-linear excitation with sharp corners,
//!   where the error concentrates in the edges).
//!
//! On the stiff and edge circuits the adaptive TR-BDF2 controller must meet
//! the *fixed-step trapezoidal* budget with at least 3× fewer accepted
//! steps, while running exactly one symbolic analysis — the paper-level
//! claim this PR's tentpole makes. The same claims are then re-checked
//! end-to-end through `OperaEngine` on the two golden fixture decks
//! (`tests/fixtures/golden/*.sp`), asserted via `opera_trace` counters.
//! Those counters are process-global and every solver in this file feeds
//! them, so each test holds [`opera_trace::test_guard`] for its whole body:
//! a concurrent test's symbolic analyses would otherwise land in the
//! engine-level count.

use opera::adaptive::{solve_transient_adaptive, AdaptiveOptions};
use opera::engine::{OperaEngine, Scenario};
use opera::transient::{solve_transient, IntegrationMethod, TransientOptions, TransientSolution};
use opera_sparse::{CsrMatrix, TripletMatrix};

fn fixture(name: &str) -> String {
    format!(
        "{}/tests/fixtures/golden/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Max |v − reference| over the output grid, all nodes.
fn max_error(solution: &TransientSolution, reference: impl Fn(f64) -> Vec<f64>) -> f64 {
    let mut worst = 0.0f64;
    for (k, &t) in solution.times.iter().enumerate() {
        for (node, &v) in solution.state_at(k).iter().enumerate() {
            worst = worst.max((v - reference(t)[node]).abs());
        }
    }
    worst
}

fn diag_circuit(g_values: &[f64], c_values: &[f64]) -> (CsrMatrix, CsrMatrix) {
    let n = g_values.len();
    let mut g = TripletMatrix::new(n, n);
    let mut c = TripletMatrix::new(n, n);
    for i in 0..n {
        g.push(i, i, g_values[i]);
        c.push(i, i, c_values[i]);
    }
    (g.to_csr(), c.to_csr())
}

// ---------------------------------------------------------------------------
// Circuit 1: smooth RC charging. G = C = 1, u(t) = 1 − e^{−3t}, so
// v' + v = 1 − e^{−3t} with v(0) = 0 has the exact solution
// v(t) = 1 + ½e^{−3t} − 3/2·e^{−t}.
// ---------------------------------------------------------------------------

fn smooth_excitation(t: f64) -> Vec<f64> {
    vec![1.0 - (-3.0 * t).exp()]
}

fn smooth_reference(t: f64) -> Vec<f64> {
    vec![1.0 + 0.5 * (-3.0 * t).exp() - 1.5 * (-t).exp()]
}

#[test]
fn smooth_rc_charging_meets_per_method_error_budgets() {
    let _guard = opera_trace::test_guard();
    let (g, c) = diag_circuit(&[1.0], &[1.0]);
    // (method, max-error budget over the grid). h = 0.05 on τ = 1 separates
    // the O(h) scheme from the O(h²) schemes by two decades.
    let cases = [
        (IntegrationMethod::BackwardEuler, 2e-2),
        (IntegrationMethod::Trapezoidal, 1e-3),
        (IntegrationMethod::TrBdf2, 5e-4),
    ];
    for (method, budget) in cases {
        let options = TransientOptions {
            time_step: 0.05,
            end_time: 2.0,
            method,
        };
        let sol = solve_transient(&g, &c, smooth_excitation, &options).unwrap();
        let err = max_error(&sol, smooth_reference);
        assert!(
            err < budget,
            "{method:?}: max error {err:.3e} exceeds budget {budget:.1e}"
        );
    }

    // Adaptive TR-BDF2 on the same output grid: same budget as fixed-step
    // trapezoidal, one symbolic analysis.
    let options = TransientOptions {
        time_step: 0.05,
        end_time: 2.0,
        method: IntegrationMethod::TrBdf2,
    };
    let adaptive = solve_transient_adaptive(
        &g,
        &c,
        smooth_excitation,
        &options,
        &AdaptiveOptions::with_rel_tol(1e-5),
    )
    .unwrap();
    let err = max_error(&adaptive.solution, smooth_reference);
    assert!(err < 1e-3, "adaptive max error {err:.3e}");
    assert_eq!(adaptive.stats.symbolic_analyses, 1);
}

// ---------------------------------------------------------------------------
// Circuit 2: stiff RC pair. C = I and a symmetric coupled conductance
//     G = [[2, −1], [−1, 500]]
// whose eigenvalues λ₁ ≈ 2.0, λ₂ ≈ 500.002 are 250× apart. The drive
// u(t) = u∞·(1 − e^{−σt}) is smooth, so the exact solution decomposes on
// the eigenbasis: with w = Qᵀu∞,
//     y_k(t) = w_k/λ_k + w_k/(σ−λ_k)·e^{−σt} + B_k·e^{−λ_k t},
//     B_k = −w_k/λ_k − w_k/(σ−λ_k),      v(t) = Q·y(t).
// ---------------------------------------------------------------------------

const STIFF_A: f64 = 2.0;
const STIFF_B: f64 = -1.0;
const STIFF_D: f64 = 500.0;
const STIFF_SIGMA: f64 = 4.0;
const STIFF_U_INF: [f64; 2] = [1.0, 0.5];
/// One budget shared by fixed-step trapezoidal, fixed-step TR-BDF2 *and*
/// adaptive TR-BDF2 on the stiff pair — the "same error budget" of the
/// acceptance criterion.
const STIFF_SECOND_ORDER_BUDGET: f64 = 1e-4;

fn stiff_circuit() -> (CsrMatrix, CsrMatrix) {
    let mut g = TripletMatrix::new(2, 2);
    g.push(0, 0, STIFF_A);
    g.push(1, 1, STIFF_D);
    g.push(0, 1, STIFF_B);
    g.push(1, 0, STIFF_B);
    let mut c = TripletMatrix::new(2, 2);
    c.push(0, 0, 1.0);
    c.push(1, 1, 1.0);
    (g.to_csr(), c.to_csr())
}

fn stiff_excitation(t: f64) -> Vec<f64> {
    let ramp = 1.0 - (-STIFF_SIGMA * t).exp();
    vec![STIFF_U_INF[0] * ramp, STIFF_U_INF[1] * ramp]
}

/// Eigenpairs of the symmetric 2×2 G: ((λ₁, q₁), (λ₂, q₂)), orthonormal.
fn stiff_eigen() -> [(f64, [f64; 2]); 2] {
    let mid = 0.5 * (STIFF_A + STIFF_D);
    let half_gap = (0.25 * (STIFF_A - STIFF_D) * (STIFF_A - STIFF_D) + STIFF_B * STIFF_B).sqrt();
    let mut pairs = [[0.0; 3]; 2];
    for (slot, lambda) in [(0, mid - half_gap), (1, mid + half_gap)] {
        let (mut qx, mut qy) = (STIFF_B, lambda - STIFF_A);
        let norm = (qx * qx + qy * qy).sqrt();
        qx /= norm;
        qy /= norm;
        pairs[slot] = [lambda, qx, qy];
    }
    [
        (pairs[0][0], [pairs[0][1], pairs[0][2]]),
        (pairs[1][0], [pairs[1][1], pairs[1][2]]),
    ]
}

fn stiff_reference(t: f64) -> Vec<f64> {
    let mut v = [0.0f64; 2];
    for (lambda, q) in stiff_eigen() {
        let w = q[0] * STIFF_U_INF[0] + q[1] * STIFF_U_INF[1];
        let forced = w / lambda;
        let driven = w / (STIFF_SIGMA - lambda);
        let b = -forced - driven;
        let y = forced + driven * (-STIFF_SIGMA * t).exp() + b * (-lambda * t).exp();
        v[0] += q[0] * y;
        v[1] += q[1] * y;
    }
    v.to_vec()
}

#[test]
fn stiff_rc_pair_meets_per_method_error_budgets() {
    let _guard = opera_trace::test_guard();
    let (g, c) = stiff_circuit();
    let cases = [
        (IntegrationMethod::BackwardEuler, 2e-3),
        (IntegrationMethod::Trapezoidal, STIFF_SECOND_ORDER_BUDGET),
        (IntegrationMethod::TrBdf2, STIFF_SECOND_ORDER_BUDGET),
    ];
    for (method, budget) in cases {
        let options = TransientOptions {
            time_step: 0.005,
            end_time: 2.0,
            method,
        };
        let sol = solve_transient(&g, &c, stiff_excitation, &options).unwrap();
        let err = max_error(&sol, stiff_reference);
        assert!(
            err < budget,
            "{method:?}: max error {err:.3e} exceeds budget {budget:.1e}"
        );
    }
}

#[test]
fn adaptive_tr_bdf2_beats_fixed_trapezoidal_step_count_on_the_stiff_pair() {
    let _guard = opera_trace::test_guard();
    let (g, c) = stiff_circuit();
    let options = TransientOptions {
        time_step: 0.005,
        end_time: 2.0,
        method: IntegrationMethod::TrBdf2,
    };
    let fixed_steps = (options.time_points().len() - 1) as u64;

    let mut tolerances = AdaptiveOptions::with_rel_tol(1e-5);
    tolerances.abs_tol = 1e-8;
    let adaptive =
        solve_transient_adaptive(&g, &c, stiff_excitation, &options, &tolerances).unwrap();
    let err = max_error(&adaptive.solution, stiff_reference);
    // The acceptance bar: meet the fixed-step trapezoidal budget with at
    // least 3× fewer steps, on one symbolic analysis.
    assert!(
        err < STIFF_SECOND_ORDER_BUDGET,
        "adaptive max error {err:.3e} exceeds the shared budget"
    );
    assert!(
        3 * adaptive.stats.steps_accepted <= fixed_steps,
        "adaptive took {} steps, fixed-step took {fixed_steps} — need ≥3× fewer",
        adaptive.stats.steps_accepted
    );
    assert_eq!(adaptive.stats.symbolic_analyses, 1);
    assert_eq!(
        adaptive.stats.steps_accepted + adaptive.stats.steps_rejected,
        adaptive.stats.steps_attempted
    );
}

// ---------------------------------------------------------------------------
// Circuit 3: PULSE edge. One RC node (g = 1, c = 0.02, τ = 20 ms on the
// test's unit time scale) driven by a trapezoid current pulse with sharp
// 50 ms edges. On each linear segment i(τ) = α + βτ the exact response is
//     v(τ) = v_p(τ) + (v_start − v_p(0))·e^{−(g/c)τ},
//     v_p(τ) = (α + βτ)/g − βc/g²,
// chained across the breakpoints.
// ---------------------------------------------------------------------------

const PULSE_G: f64 = 1.0;
const PULSE_C: f64 = 0.02;
/// Fixed grid fine enough for the second-order schemes to resolve the
/// τ = 20 ms corner transients everywhere (the cost the adaptive run avoids).
const PULSE_FIXED_STEP: f64 = 0.005;
/// The budget shared by fixed-step trapezoidal, fixed-step TR-BDF2 and
/// adaptive TR-BDF2 on the pulse edge.
const PULSE_SECOND_ORDER_BUDGET: f64 = 3e-3;
/// Trapezoid breakpoints (t, i): flat 0, sharp rise, plateau, sharp fall.
const PULSE_POINTS: [(f64, f64); 6] = [
    (0.0, 0.0),
    (0.10, 0.0),
    (0.15, 1.0),
    (0.50, 1.0),
    (0.55, 0.0),
    (1.0, 0.0),
];

fn pulse_current(t: f64) -> f64 {
    let points = &PULSE_POINTS;
    if t <= points[0].0 {
        return points[0].1;
    }
    for pair in points.windows(2) {
        let ((t0, i0), (t1, i1)) = (pair[0], pair[1]);
        if t <= t1 {
            return i0 + (i1 - i0) * (t - t0) / (t1 - t0);
        }
    }
    points[points.len() - 1].1
}

fn pulse_excitation(t: f64) -> Vec<f64> {
    vec![pulse_current(t)]
}

/// Exact piecewise response, chained segment by segment up to `t`.
fn pulse_reference(t: f64) -> Vec<f64> {
    let lambda = PULSE_G / PULSE_C;
    let mut v = 0.0f64; // v(0) = i(0)/g = 0
    let mut segment_end = v;
    for pair in PULSE_POINTS.windows(2) {
        let ((t0, i0), (t1, i1)) = (pair[0], pair[1]);
        let beta = (i1 - i0) / (t1 - t0);
        let particular =
            |tau: f64| (i0 + beta * tau) / PULSE_G - beta * PULSE_C / (PULSE_G * PULSE_G);
        let tau_end = if t < t1 { t - t0 } else { t1 - t0 };
        segment_end = particular(tau_end) + (v - particular(0.0)) * (-lambda * tau_end).exp();
        if t < t1 {
            return vec![segment_end];
        }
        v = segment_end;
    }
    vec![segment_end]
}

#[test]
fn pulse_edge_meets_per_method_error_budgets() {
    let _guard = opera_trace::test_guard();
    let (g, c) = diag_circuit(&[PULSE_G], &[PULSE_C]);
    let cases = [
        (IntegrationMethod::BackwardEuler, 3e-2),
        (IntegrationMethod::Trapezoidal, PULSE_SECOND_ORDER_BUDGET),
        (IntegrationMethod::TrBdf2, PULSE_SECOND_ORDER_BUDGET),
    ];
    for (method, budget) in cases {
        let options = TransientOptions {
            time_step: PULSE_FIXED_STEP,
            end_time: 1.0,
            method,
        };
        let sol = solve_transient(&g, &c, pulse_excitation, &options).unwrap();
        let err = max_error(&sol, pulse_reference);
        assert!(
            err < budget,
            "{method:?}: max error {err:.3e} exceeds budget {budget:.1e}"
        );
    }
}

#[test]
fn adaptive_tr_bdf2_beats_fixed_trapezoidal_step_count_on_the_pulse_edge() {
    let _guard = opera_trace::test_guard();
    let (g, c) = diag_circuit(&[PULSE_G], &[PULSE_C]);
    let options = TransientOptions {
        time_step: PULSE_FIXED_STEP,
        end_time: 1.0,
        method: IntegrationMethod::TrBdf2,
    };
    let fixed_steps = (options.time_points().len() - 1) as u64;
    let mut tolerances = AdaptiveOptions::with_rel_tol(1e-3);
    tolerances.abs_tol = 1e-4;
    let adaptive =
        solve_transient_adaptive(&g, &c, pulse_excitation, &options, &tolerances).unwrap();
    let err = max_error(&adaptive.solution, pulse_reference);
    assert!(
        err < PULSE_SECOND_ORDER_BUDGET,
        "adaptive max error {err:.3e} exceeds the shared budget"
    );
    assert!(
        3 * adaptive.stats.steps_accepted <= fixed_steps,
        "adaptive took {} steps, fixed-step took {fixed_steps} — need ≥3× fewer",
        adaptive.stats.steps_accepted
    );
    assert_eq!(adaptive.stats.symbolic_analyses, 1);
}

// ---------------------------------------------------------------------------
// Engine-level goldens: the fixture decks drive the full stochastic engine,
// and the trace counters prove the "one symbolic analysis per engine" claim
// end to end.
// ---------------------------------------------------------------------------

#[test]
fn golden_decks_adopt_tr_bdf2_and_run_one_symbolic_analysis_per_engine() {
    let _guard = opera_trace::test_guard();
    for deck in ["stiff_rc.sp", "pulse_edge.sp"] {
        opera_trace::reset();
        opera_trace::enable();

        let engine = OperaEngine::for_netlist(fixture(deck))
            .unwrap()
            .order(2)
            .adaptive(AdaptiveOptions::with_rel_tol(1e-4))
            .build()
            .unwrap();
        // The deck's `.tran … method=trbdf2` became the engine default.
        assert_eq!(engine.transient().method, IntegrationMethod::TrBdf2);

        let (solution, stats) = engine
            .solve_scenario_adaptive(&Scenario::default(), engine.adaptive_options().unwrap())
            .unwrap();
        assert_eq!(
            solution.times().len(),
            engine.transient().time_points().len()
        );
        assert!(stats.steps_accepted > 0);

        let snapshot = opera_trace::drain();
        opera_trace::disable();

        // Exactly one symbolic analysis for the whole engine lifetime —
        // build-time factorisation and every adaptive step-size change
        // reused it, re-running only the numeric factorisation.
        assert_eq!(
            snapshot.counter("transient.symbolic_analyses"),
            1,
            "deck {deck}: engine must run exactly one symbolic analysis"
        );
        assert_eq!(stats.symbolic_analyses, 1, "deck {deck}");
        let refactorizations = snapshot.counter("transient.refactorizations");
        assert!(
            refactorizations >= 1,
            "deck {deck}: step-size changes must show up as numeric refactorisations"
        );
        assert_eq!(
            snapshot.counter("transient.adaptive.steps_attempted"),
            stats.steps_attempted,
            "deck {deck}"
        );
        assert_eq!(
            snapshot.counter("transient.adaptive.steps_rejected"),
            stats.steps_rejected,
            "deck {deck}"
        );
        assert!(
            snapshot.span_count("transient.adaptive") >= 1,
            "deck {deck}"
        );
    }
}

#[test]
fn adaptive_engine_matches_fixed_step_means_on_the_golden_decks() {
    let _guard = opera_trace::test_guard();
    for deck in ["stiff_rc.sp", "pulse_edge.sp"] {
        let fixed = OperaEngine::for_netlist(fixture(deck))
            .unwrap()
            .order(2)
            .build()
            .unwrap();
        let adaptive_engine = OperaEngine::for_netlist(fixture(deck))
            .unwrap()
            .order(2)
            .adaptive(AdaptiveOptions::with_rel_tol(1e-6))
            .build()
            .unwrap();

        let reference = fixed.solve().unwrap();
        let (solution, stats) = adaptive_engine
            .solve_scenario_adaptive(
                &Scenario::default(),
                adaptive_engine.adaptive_options().unwrap(),
            )
            .unwrap();

        assert_eq!(solution.times(), reference.times());
        let vdd = 1.0;
        let mut worst = 0.0f64;
        for k in 0..reference.times().len() {
            for node in 0..reference.node_count() {
                worst = worst.max((solution.mean_at(k, node) - reference.mean_at(k, node)).abs());
            }
        }
        // Means agree to a small fraction of the worst IR drop.
        let (_, _, drop) = reference.worst_mean_drop(vdd);
        assert!(
            worst < 2e-2 * drop.max(1e-6),
            "deck {deck}: adaptive vs fixed mean mismatch {worst:.3e} (worst drop {drop:.3e})"
        );
        assert_eq!(stats.symbolic_analyses, 1, "deck {deck}");
    }
}
