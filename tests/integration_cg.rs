//! The Kronecker-preconditioned CG backend (the engine default) against the
//! direct Cholesky reference, plus its own determinism contract.
//!
//! * **Accuracy.** On a small mesh, for backward Euler, trapezoidal and
//!   fixed TR-BDF2, the mean and standard deviation of every node at every
//!   output time agree with `direct-cholesky` within [`TOLERANCE_VDD`]·Vdd.
//!   Adaptive TR-BDF2 takes the same accept/reject decisions on both
//!   backends, but its step sizes are a continuous function of the error
//!   estimate, so CG's solve noise moves them slightly and the two runs
//!   agree within the controller's own error ([`ADAPTIVE_TOLERANCE_VDD`]),
//!   each as close to a fine fixed-step reference as the other.
//! * **Bit-identity.** CG statistics do not depend on the worker-thread
//!   count or on the `OPERA_SIMD` backend. CI re-runs this file under each
//!   `OPERA_SIMD` selection in its SIMD-matrix step.
//! * **Surfaced failures.** A solve that misses its tolerance is a typed
//!   `DidNotConverge` error carrying iterations and residual, and every
//!   solve leaves its final relative residual in the `cg.relative_residual`
//!   trace gauge next to the `cg.iterations` counter.
//! * **Iterations.** The Kronecker-product preconditioner keeps the mean
//!   iteration count per solve below [`MEAN_ITERATIONS_BOUND`], which the
//!   mean-based block preconditioner it replaced exceeds.

use std::sync::Arc;

use opera::adaptive::AdaptiveOptions;
use opera::engine::{EngineBuilder, OperaEngine, Scenario};
use opera::solver::{BlockJacobiCg, DirectCholesky, BLOCK_JACOBI_CG};
use opera::transient::IntegrationMethod;
use opera::{OperaError, Parallelism, StochasticSolution};
use opera_grid::GridSpec;
use opera_simd::{available_backends, Backend};
use opera_sparse::SparseError;

/// Largest |Δµ| and |Δσ| between CG and direct, as a fraction of Vdd. The CG
/// relative residual tolerance is 1e-10, so observed differences sit near
/// 1e-10·Vdd.
const TOLERANCE_VDD: f64 = 1e-8;

/// Largest |Δµ| and |Δσ| between adaptive CG and adaptive direct runs, as a
/// fraction of Vdd: the error class of the controller at the tolerances
/// below (both runs sit about 1e-3 V from a fine fixed-step reference).
const ADAPTIVE_TOLERANCE_VDD: f64 = 1e-3;

fn builder() -> EngineBuilder {
    OperaEngine::for_grid(GridSpec::small_test(150).with_seed(21))
        .unwrap()
        .order(2)
        .time_step(0.1e-9)
        .end_time(1.0e-9)
        .mc_samples(4)
}

/// Max |Δµ| and |Δσ| over every node and output time.
fn max_differences(a: &StochasticSolution, b: &StochasticSolution) -> (f64, f64) {
    assert_eq!(a.times(), b.times());
    let (mut dmu, mut dsigma) = (0.0f64, 0.0f64);
    for k in 0..a.times().len() {
        for n in 0..a.node_count() {
            dmu = dmu.max((a.mean_at(k, n) - b.mean_at(k, n)).abs());
            dsigma = dsigma.max((a.std_dev_at(k, n) - b.std_dev_at(k, n)).abs());
        }
    }
    (dmu, dsigma)
}

fn assert_bit_identical(a: &StochasticSolution, b: &StochasticSolution, what: &str) {
    assert_eq!(a.times(), b.times(), "{what}");
    for k in 0..a.times().len() {
        for i in 0..a.basis_size() {
            for n in 0..a.node_count() {
                assert_eq!(
                    a.coefficient(k, i, n).to_bits(),
                    b.coefficient(k, i, n).to_bits(),
                    "{what}: coefficient ({k}, {i}, {n})"
                );
            }
        }
    }
}

fn adaptive_options() -> AdaptiveOptions {
    let mut options = AdaptiveOptions::with_rel_tol(1e-5);
    options.abs_tol = 1e-7;
    options
}

#[test]
fn cg_matches_direct_for_every_scheme_within_tolerance() {
    let schemes = [
        ("backward Euler", IntegrationMethod::BackwardEuler),
        ("trapezoidal", IntegrationMethod::Trapezoidal),
        ("fixed TR-BDF2", IntegrationMethod::TrBdf2),
    ];
    for (name, method) in schemes {
        let cg = builder().integration_method(method).build().unwrap();
        assert_eq!(cg.solver().name(), BLOCK_JACOBI_CG, "the default backend");
        let direct = builder()
            .integration_method(method)
            .solver(Arc::new(DirectCholesky))
            .build()
            .unwrap();
        let vdd = cg.grid().vdd();
        let (dmu, dsigma) = max_differences(&cg.solve().unwrap(), &direct.solve().unwrap());
        assert!(
            dmu <= TOLERANCE_VDD * vdd && dsigma <= TOLERANCE_VDD * vdd,
            "{name}: max |Δµ| = {dmu:.3e} V, max |Δσ| = {dsigma:.3e} V"
        );
    }
}

#[test]
fn adaptive_cg_matches_adaptive_direct_within_the_controller_error() {
    let adaptive = |b: EngineBuilder| {
        let engine = b.adaptive(adaptive_options()).build().unwrap();
        let options = engine.adaptive_options().unwrap().clone();
        engine
            .solve_scenario_adaptive(&Scenario::default(), &options)
            .unwrap()
    };
    let (cg, cg_stats) = adaptive(builder());
    let (direct, direct_stats) = adaptive(builder().solver(Arc::new(DirectCholesky)));
    // Same controller decisions on a run with rejections, and CG re-steps on
    // one analysis of the nominal companion.
    assert!(direct_stats.steps_rejected > 0);
    assert_eq!(cg_stats.steps_accepted, direct_stats.steps_accepted);
    assert_eq!(cg_stats.steps_rejected, direct_stats.steps_rejected);
    assert_eq!(cg_stats.symbolic_analyses, 1);

    // Neither run is the better one: both sit in the same error class
    // against a 20× finer fixed-step TR-BDF2 reference.
    let fine = builder()
        .integration_method(IntegrationMethod::TrBdf2)
        .time_step(0.005e-9)
        .solver(Arc::new(DirectCholesky))
        .build()
        .unwrap();
    let vdd = fine.grid().vdd();
    let (dmu, dsigma) = max_differences(&cg, &direct);
    assert!(
        dmu <= ADAPTIVE_TOLERANCE_VDD * vdd && dsigma <= ADAPTIVE_TOLERANCE_VDD * vdd,
        "max |Δµ| = {dmu:.3e} V, max |Δσ| = {dsigma:.3e} V"
    );
    let reference = fine.solve().unwrap();
    let error = |s: &StochasticSolution| {
        let mut worst = 0.0f64;
        for k in 0..s.times().len() {
            for n in 0..s.node_count() {
                worst = worst.max((s.mean_at(k, n) - reference.mean_at(20 * k, n)).abs());
            }
        }
        worst
    };
    let (cg_error, direct_error) = (error(&cg), error(&direct));
    assert!(
        cg_error <= 2.0 * direct_error && direct_error <= 2.0 * cg_error,
        "error against the fine reference: CG {cg_error:.3e} V, direct {direct_error:.3e} V"
    );
}

#[test]
fn cg_is_bit_identical_across_thread_counts_and_simd_backends() {
    // Time-step overrides take the per-scenario path, which fans out over
    // the pool; the rest share one panel.
    let scenarios = [
        Scenario::named("light").with_current_scale(0.5),
        Scenario::named("nominal"),
        Scenario::named("fine").with_time_step(0.05e-9),
        Scenario::named("coarse").with_time_step(0.2e-9),
    ];
    let reports = |parallelism: Parallelism| {
        let engine = builder().parallelism(parallelism).build().unwrap();
        engine.run_batch(&scenarios).unwrap()
    };
    let serial = reports(Parallelism::Serial);
    for threads in [2, 8] {
        for (a, b) in serial.iter().zip(reports(Parallelism::Threads(threads))) {
            assert_eq!(a.report.opera, b.report.opera, "{threads} threads");
            assert_eq!(a.report.errors, b.report.errors, "{threads} threads");
        }
    }

    // Every SIMD backend the CPU offers reproduces the scalar solution.
    let engine = builder()
        .integration_method(IntegrationMethod::TrBdf2)
        .build()
        .unwrap();
    let initial = opera_simd::active();
    opera_simd::set_active(Backend::Scalar).unwrap();
    let reference = engine.solve().unwrap();
    for backend in available_backends() {
        opera_simd::set_active(backend).unwrap();
        let solution = engine.solve();
        opera_simd::set_active(initial).unwrap();
        assert_bit_identical(&reference, &solution.unwrap(), &format!("{backend:?}"));
    }
}

#[test]
fn cg_non_convergence_is_a_typed_error_and_residuals_are_traced() {
    let starved = builder()
        .solver(Arc::new(BlockJacobiCg {
            tolerance: 1e-12,
            max_iterations: 1,
        }))
        .build()
        .unwrap();
    let err = starved.solve().unwrap_err();
    let OperaError::Sparse(SparseError::DidNotConverge {
        iterations,
        residual,
    }) = err
    else {
        panic!("expected a typed DidNotConverge error, got {err}");
    };
    assert_eq!(iterations, 1);
    assert!(residual >= 1e-12 && residual.is_finite(), "{residual}");

    let _guard = opera_trace::test_guard();
    opera_trace::reset();
    opera_trace::enable();
    let engine = builder().build().unwrap();
    engine.solve().unwrap();
    let snapshot = opera_trace::drain();
    opera_trace::disable();
    assert!(snapshot.counter("cg.iterations") > 0);
    let final_residual = snapshot
        .gauge("cg.relative_residual")
        .expect("every CG solve sets the residual gauge");
    assert!(
        (0.0..BlockJacobiCg::default().tolerance).contains(&final_residual),
        "{final_residual}"
    );
}

/// Mean CG iterations per solve (the DC solve and ten steps) of one
/// backward-Euler `solve()` on the test mesh must stay below this. The
/// mean-based block preconditioner averaged 4.55 (50 iterations over 11
/// solves); the Kronecker-product preconditioner averages 1.82 (20 over 11).
const MEAN_ITERATIONS_BOUND: f64 = 3.0;

#[test]
fn kronecker_preconditioner_keeps_cg_iterations_low() {
    let _guard = opera_trace::test_guard();
    let engine = builder()
        .integration_method(IntegrationMethod::BackwardEuler)
        .build()
        .unwrap();
    opera_trace::reset();
    opera_trace::enable();
    engine.solve().unwrap();
    let snapshot = opera_trace::drain();
    opera_trace::disable();
    let solves = snapshot.span_count("cg.solve");
    let mean = snapshot.counter("cg.iterations") as f64 / solves as f64;
    assert!(solves > 0);
    assert!(
        mean < MEAN_ITERATIONS_BOUND,
        "{mean:.2} CG iterations per solve over {solves} solves"
    );
}
