//! Integration tests for the stochastic-collocation subsystem, covering the
//! three contract points:
//!
//! (a) collocation mean/variance agree with the Galerkin solve on the
//!     (scaled) paper grid, and converge toward the Monte Carlo reference as
//!     the Smolyak level rises;
//! (b) exactly one symbolic analysis/ordering is performed across all
//!     collocation nodes (engine counter hooks, mirroring
//!     `integration_engine_reuse.rs`);
//! (c) the projected statistics are bit-identical for 1, 2 and 8 worker
//!     threads, under backward Euler and TR-BDF2;
//!
//! plus the mirror contract between the collocation driver's transient
//! settings and `opera::transient`, and the LU fallback of an extreme node.

use opera::engine::{CollocationConfig, OperaEngine};
use opera::transient::{solve_transient, IntegrationMethod, TransientOptions};
use opera::{McConfig, Parallelism};
use opera_collocation::{
    build_grid, sample_points, solve_collocation, GridKind, SweepTrace, TransientSpec,
};
use opera_grid::GridSpec;
use opera_pce::OrthogonalBasis;
use opera_sparse::CholeskyFactor;
use opera_variation::{StochasticGridModel, VariationSpec};

/// The scaled first paper grid shared by the tests below.
fn paper_engine(parallelism: Parallelism, method: IntegrationMethod) -> OperaEngine {
    OperaEngine::for_grid(GridSpec::paper_grid(0).unwrap().scaled_nodes(0.012))
        .unwrap()
        .time_step(0.1e-9)
        .end_time(1.0e-9)
        .integration_method(method)
        .parallelism(parallelism)
        .build()
        .unwrap()
}

#[test]
fn collocation_matches_galerkin_and_converges_toward_monte_carlo() {
    let engine = paper_engine(Parallelism::Max, IntegrationMethod::BackwardEuler);
    let vdd = engine.grid().vdd();
    let galerkin = engine.solve().unwrap();
    let (node, k, drop) = galerkin.worst_mean_drop(vdd);
    assert!(drop > 0.0);

    // --- (a1) agreement with the Galerkin solution at the matched level.
    let colloc = engine.collocation(&CollocationConfig::smolyak(2)).unwrap();
    let mean_diff = (colloc.solution.mean_at(k, node) - galerkin.mean_at(k, node)).abs();
    assert!(
        mean_diff < 1e-4 * vdd,
        "collocation and Galerkin means differ by {mean_diff}"
    );
    let sigma_g = galerkin.std_dev_at(k, node);
    let sigma_c = colloc.solution.std_dev_at(k, node);
    assert!(sigma_g > 0.0);
    assert!(
        (sigma_c - sigma_g).abs() < 0.05 * sigma_g,
        "collocation σ {sigma_c} vs Galerkin σ {sigma_g}"
    );

    // --- (a2) convergence toward Monte Carlo as the Smolyak level rises.
    // The per-level variance error against a converged reference must not
    // grow, and the highest level must sit within Monte Carlo sampling noise.
    let mc = engine.monte_carlo(&McConfig::new(400, 11)).unwrap();
    let sigma_mc = mc.std_dev_at(k, node);
    assert!(sigma_mc > 0.0);
    let sigma_err = |level: u32| {
        let report = engine
            .collocation(&CollocationConfig::smolyak(level))
            .unwrap();
        (report.solution.std_dev_at(k, node) - sigma_mc).abs() / sigma_mc
    };
    let (err1, err2, err3) = (sigma_err(1), sigma_err(2), sigma_err(3));
    assert!(
        err3 <= err1 + 1e-9,
        "σ error must not grow with the level: {err1} -> {err2} -> {err3}"
    );
    assert!(
        err3 < 0.15,
        "level-3 collocation σ should sit within MC noise, got {err3}"
    );
}

#[test]
fn exactly_one_symbolic_analysis_serves_all_collocation_nodes() {
    let engine = paper_engine(Parallelism::Max, IntegrationMethod::BackwardEuler);
    assert_eq!(engine.collocation_symbolic_count(), 0);
    assert_eq!(engine.collocation_factorization_count(), 0);

    let report = engine.collocation(&CollocationConfig::smolyak(2)).unwrap();
    assert!(report.nodes > 1, "a level-2 sweep has many nodes");
    // One ordering + elimination-tree analysis for the whole sweep …
    assert_eq!(report.symbolic_analyses, 1);
    assert_eq!(engine.collocation_symbolic_count(), 1);
    // … and two numeric-only factorisations per node (DC + companion).
    assert_eq!(report.numeric_factorizations, 2 * report.nodes);
    assert_eq!(engine.collocation_factorization_count(), 2 * report.nodes);
    // The Galerkin-side counters are untouched: no re-assembly either.
    assert_eq!(engine.assembly_count(), 1);
    assert_eq!(engine.factorization_count(), 1);

    // A second sweep performs its own single analysis.
    engine.collocation(&CollocationConfig::smolyak(1)).unwrap();
    assert_eq!(engine.collocation_symbolic_count(), 2);
}

#[test]
fn collocation_statistics_are_bit_identical_for_1_2_and_8_threads() {
    // Backward Euler, and TR-BDF2 with its two group solves per step.
    for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::TrBdf2] {
        let runs: Vec<_> = [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ]
        .into_iter()
        .map(|parallelism| {
            paper_engine(parallelism, method)
                .collocation(&CollocationConfig::smolyak(2))
                .unwrap()
                .solution
        })
        .collect();

        let reference = &runs[0];
        for (which, other) in runs.iter().enumerate().skip(1) {
            assert_eq!(reference.times(), other.times());
            assert_eq!(reference.node_count(), other.node_count());
            for k in 0..reference.times().len() {
                for n in 0..reference.node_count() {
                    // Bit-identical, not approximately equal.
                    assert_eq!(
                        reference.mean_at(k, n).to_bits(),
                        other.mean_at(k, n).to_bits(),
                        "{method:?}: mean differs at ({k}, {n}) for thread-variant {which}"
                    );
                    assert_eq!(
                        reference.variance_at(k, n).to_bits(),
                        other.variance_at(k, n).to_bits(),
                        "{method:?}: variance differs at ({k}, {n}) for thread-variant {which}"
                    );
                }
            }
        }
    }
}

#[test]
fn collocation_transient_settings_mirror_opera_transient_bit_for_bit() {
    // The collocation crate sits below `opera`; both take the time grid and
    // the TR-BDF2 stage split from `opera_sparse::stepping`, and the engine
    // relies on both sides agreeing exactly.
    assert_eq!(
        opera_collocation::TR_BDF2_GAMMA.to_bits(),
        opera::transient::TR_BDF2_GAMMA.to_bits()
    );
    for (h, end) in [
        (0.1e-9, 1.0e-9),
        (0.05e-9, 2.0e-9),
        (0.25e-9, 1.0e-9),
        // `h` does not divide `end`: the last point is clamped to `end`.
        (0.3e-9, 1.0e-9),
        (0.07e-9, 1.0e-9),
        (1.0e-9, 1.0e-9),
    ] {
        let opera_times = TransientOptions::new(h, end).time_points();
        let colloc_times = TransientSpec::new(h, end).time_points();
        assert_eq!(opera_times.len(), colloc_times.len(), "h {h}, end {end}");
        for (a, b) in opera_times.iter().zip(&colloc_times) {
            assert_eq!(a.to_bits(), b.to_bits(), "h {h}, end {end}: {a} vs {b}");
        }
        assert_eq!(opera_times.last().copied(), Some(end));
    }
}

#[test]
fn collocation_nodes_on_the_lu_fallback_step_alone_bit_identically() {
    // With the widest admissible spread, a quadrature node of ξ_G below
    // −1/σ_G makes `G = (1 + σ_G·ξ_G)·G_a` negative definite: that node's
    // Cholesky attempts fail and it steps alone on LU factors, as a Monte
    // Carlo sample in the Gaussian tail does.
    let _guard = opera_trace::test_guard();
    let grid = GridSpec::small_test(60).with_seed(7).build().unwrap();
    let mut variation = VariationSpec::paper_defaults();
    variation.width_3sigma = 0.59;
    variation.thickness_3sigma = 0.59;
    let model = StochasticGridModel::inter_die(&grid, &variation).unwrap();
    let limit = -1.0 / variation.sigma_conductance();
    let basis = OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2).unwrap();
    // The first Smolyak level with a node in that tail.
    let nodes = (1..=8)
        .map(|level| build_grid(GridKind::Smolyak, &model.families(), level).unwrap())
        .find(|nodes| nodes.nodes().iter().any(|xi| xi[0] < limit - 0.05))
        .unwrap();
    let extreme = nodes
        .nodes()
        .iter()
        .position(|xi| xi[0] < limit - 0.05)
        .unwrap();
    let xi = &nodes.nodes()[extreme];
    let g = model.sample_conductance(xi).unwrap();
    let c = model.sample_capacitance(xi).unwrap();

    for scheme in [IntegrationMethod::BackwardEuler, IntegrationMethod::TrBdf2] {
        let mut spec = TransientSpec::new(0.25e-9, 0.75e-9);
        spec.scheme = scheme;
        let s = opera_sparse::stepping::companion_scale(scheme, spec.time_step);
        assert!(CholeskyFactor::factor(&g.add_scaled(&c, s).unwrap()).is_err());

        opera_trace::reset();
        opera_trace::enable();
        let run = solve_collocation(&model, &basis, &nodes, &spec);
        let snapshot = opera_trace::drain();
        opera_trace::disable();
        let run = run.unwrap();
        assert_eq!(run.stats.numeric_factorizations, 2 * nodes.len());
        assert!(snapshot.counter("sparse.cholesky_fallbacks") > 0);

        // The node's trajectory, as the sampler hands it to the fold.
        let mut trajectory = vec![Vec::new(); run.times.len()];
        let trace = SweepTrace {
            group: None,
            points: "collocation.nodes",
            point: None,
            stepping: "collocation.group",
        };
        sample_points(&model, nodes.nodes(), &spec, trace, |k, q, state| {
            if q == extreme {
                trajectory[k] = state.to_vec();
            }
        })
        .unwrap();
        let options = TransientOptions {
            time_step: spec.time_step,
            end_time: spec.end_time,
            method: scheme,
        };
        let excitation = |t| model.sample_excitation(t, xi).unwrap();
        let reference = solve_transient(&g, &c, excitation, &options).unwrap();
        for (k, state) in trajectory.iter().enumerate() {
            assert_eq!(
                state.as_slice(),
                reference.state_at(k),
                "{scheme:?}: node {extreme} moved at time row {k}"
            );
        }
    }
}
