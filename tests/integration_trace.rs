//! Integration tests for the `opera_trace` observability layer: span
//! nesting across the rayon fan-outs, counter totals agreeing with the
//! engine's legacy test hooks, one analysis per pattern for Monte Carlo and
//! the leakage special case, and
//! the zero-overhead contract (tracing
//! enabled must not perturb a single bit of the results; tracing disabled
//! must keep the steady-state transient loop allocation-free).
//!
//! Trace state is process-global, so every test here holds
//! [`opera_trace::test_guard`] for its whole body and resets the sink
//! before enabling.

use std::sync::Arc;

use opera::engine::{CollocationConfig, McConfig, OperaEngine, Scenario};
use opera::monte_carlo::{run as run_monte_carlo, run_leakage, MonteCarloOptions};
use opera::solver::DirectCholesky;
use opera::special_case::{solve_leakage, SpecialCaseOptions};
use opera::transient::{IntegrationMethod, TransientOptions};
use opera::StochasticSolution;
use opera_grid::GridSpec;
use opera_simd::Backend;
use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

fn small_model() -> StochasticGridModel {
    let grid = GridSpec::small_test(120).with_seed(9).build().unwrap();
    StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap()
}

/// A small direct-Cholesky engine: 40 Monte Carlo samples, 12 histogram
/// bins, h = 0.2 ns up to 1 ns.
fn demo_engine(nodes: usize) -> OperaEngine {
    OperaEngine::for_grid(GridSpec::small_test(nodes))
        .unwrap()
        .solver(Arc::new(DirectCholesky))
        .time_step(0.2e-9)
        .end_time(1.0e-9)
        .mc_samples(40)
        .mc_seed(7)
        .histogram_bins(12)
        .build()
        .unwrap()
}

/// Builds an order-2 engine for [`small_model`] and solves it once.
fn build_and_solve() -> StochasticSolution {
    OperaEngine::for_model(small_model())
        .time_step(0.1e-9)
        .end_time(1.0e-9)
        .build()
        .unwrap()
        .solve()
        .unwrap()
}

#[test]
fn rayon_fanout_spans_attach_to_the_launching_span() {
    let _guard = opera_trace::test_guard();
    opera_trace::reset();
    opera_trace::enable();

    let engine = demo_engine(100);
    // Discard the build-time spans so the drain below holds exactly the
    // Monte Carlo sweep.
    let _ = opera_trace::drain();
    let samples = 16;
    let _mc = engine.monte_carlo(&McConfig::new(samples, 3)).unwrap();
    let snapshot = opera_trace::drain();
    opera_trace::disable();

    let runs: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "mc.run")
        .collect();
    assert_eq!(runs.len(), 1, "expected exactly one mc.run span");
    let run_id = runs[0].id;

    // Every per-group worker span must name the launching sweep as its
    // parent, no matter which pool thread executed it.
    let groups: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "mc.sample_group")
        .collect();
    assert!(!groups.is_empty(), "expected mc.sample_group worker spans");
    for group in &groups {
        assert_eq!(
            group.parent, run_id,
            "worker span on tid {} is not attached to the mc.run span",
            group.tid
        );
    }
    assert_eq!(snapshot.counter("mc.samples"), samples as u64);
}

#[test]
fn monte_carlo_runs_one_symbolic_analysis_per_pattern() {
    let _guard = opera_trace::test_guard();
    let model = small_model();
    opera_trace::reset();
    opera_trace::enable();
    let samples = 6;
    let options = MonteCarloOptions::new(samples, 5, TransientOptions::new(0.25e-9, 1.0e-9));
    let mc = run_monte_carlo(&model, &options).unwrap();
    let snapshot = opera_trace::drain();
    opera_trace::disable();

    assert_eq!(mc.samples, samples);
    // Nominal `G + C`, analysed once before the fan-out whatever the sample
    // count. Grounded capacitors give it `G`'s pattern, so the DC factors
    // share that one analysis; each sample factors both numerically.
    assert_eq!(snapshot.counter("cholesky.symbolic_analyses"), 1);
    assert_eq!(
        snapshot.counter("cholesky.numeric_factorizations"),
        2 * samples as u64
    );
    assert_eq!(snapshot.counter("sparse.cholesky_fallbacks"), 0);
}

#[test]
fn leakage_paths_run_one_symbolic_analysis_per_pattern() {
    let _guard = opera_trace::test_guard();
    let grid = GridSpec::small_test(120).with_seed(9).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let transient = TransientOptions::new(0.25e-9, 1.0e-9);
    let traced = |run: &dyn Fn()| {
        opera_trace::reset();
        opera_trace::enable();
        run();
        let snapshot = opera_trace::drain();
        opera_trace::disable();
        snapshot
    };

    // Nominal `G + C` has `G`'s pattern (grounded capacitors), so its one
    // analysis serves both the DC factor and the companion factor that all
    // chaos columns, or all samples, share.
    let special = traced(&|| {
        solve_leakage(&grid, &leakage, &SpecialCaseOptions::order2(transient)).unwrap();
    });
    assert_eq!(special.counter("cholesky.symbolic_analyses"), 1);
    assert_eq!(special.counter("cholesky.numeric_factorizations"), 2);

    let mc = traced(&|| {
        run_leakage(&grid, &leakage, &MonteCarloOptions::new(6, 5, transient)).unwrap();
    });
    assert_eq!(mc.counter("cholesky.symbolic_analyses"), 1);
    assert_eq!(mc.counter("cholesky.numeric_factorizations"), 2);
    assert_eq!(mc.counter("sparse.cholesky_fallbacks"), 0);
}

#[test]
fn engine_counters_agree_with_the_legacy_test_hooks() {
    let _guard = opera_trace::test_guard();
    opera_trace::reset();
    opera_trace::enable();

    let engine = demo_engine(120);
    // Same batch as `integration_engine_reuse.rs`: the time-step override
    // forces exactly one extra factorisation, nothing re-assembles.
    let scenarios = [
        Scenario::named("baseline"),
        Scenario::named("fine").with_time_step(0.1e-9),
        Scenario::named("short").with_end_time(0.6e-9),
    ];
    let reports = engine.run_batch(&scenarios).unwrap();
    assert_eq!(reports.len(), 3);
    let snapshot = opera_trace::drain();
    opera_trace::disable();

    // The legacy hooks are now shims over the same counters the sink
    // drained, so the two views must agree exactly.
    assert_eq!(
        engine.assembly_count() as u64,
        snapshot.counter("engine.assemblies")
    );
    assert_eq!(
        engine.factorization_count() as u64,
        snapshot.counter("engine.factorizations")
    );
    assert_eq!(snapshot.counter("engine.assemblies"), 1);
    assert_eq!(snapshot.counter("engine.factorizations"), 2);

    // The batch fan-out ran under per-scenario worker spans.
    assert_eq!(snapshot.span_count("batch.scenario"), scenarios.len());
}

#[test]
fn enabled_tracing_is_bit_invisible_to_the_solver() {
    let _guard = opera_trace::test_guard();

    opera_trace::reset();
    opera_trace::disable();
    let untraced = build_and_solve();

    opera_trace::enable();
    let traced = build_and_solve();
    let snapshot = opera_trace::drain();
    opera_trace::disable();

    // The traced run really was recorded...
    assert!(snapshot.span_count("transient.stepping") >= 1);
    assert!(snapshot.span_count("galerkin.assemble") >= 1);
    assert!(snapshot.counter("transient.steps") > 0);

    // ...and produced bit-identical coefficients everywhere.
    assert_eq!(untraced.times(), traced.times());
    assert_eq!(untraced.basis_size(), traced.basis_size());
    for k in 0..untraced.times().len() {
        for i in 0..untraced.basis_size() {
            for n in 0..untraced.node_count() {
                assert_eq!(
                    untraced.coefficient(k, i, n).to_bits(),
                    traced.coefficient(k, i, n).to_bits(),
                    "coefficient ({k}, {i}, {n}) differs under tracing"
                );
            }
        }
    }
}

#[test]
fn disabled_tracing_keeps_the_steady_state_loop_allocation_free() {
    let _guard = opera_trace::test_guard();
    opera_trace::reset();
    opera_trace::disable();
    let engine = demo_engine(100);
    assert_eq!(engine.steady_state_step_allocations().unwrap(), 0);
}

#[test]
fn build_span_nests_its_phases_and_child_times_fit_inside_the_parent() {
    let _guard = opera_trace::test_guard();
    opera_trace::reset();
    opera_trace::enable();
    let engine = demo_engine(110);
    let snapshot = opera_trace::drain();
    opera_trace::disable();
    drop(engine);

    let builds: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "engine.build")
        .collect();
    assert_eq!(builds.len(), 1);
    let build = builds[0];

    // The build must decompose into the documented pipeline phases.
    let children = snapshot.children_of(build.id);
    let names: Vec<&str> = children.iter().map(|c| c.name).collect();
    assert!(names.contains(&"galerkin.assemble"), "children: {names:?}");
    assert!(names.contains(&"solver.prepare"), "children: {names:?}");

    // Sequential children of one span can never out-run their parent: the
    // reconciliation property `perf_report` relies on when it reports the
    // drained span totals as the BENCH phase timings.
    let child_sum: u64 = children.iter().map(|c| c.dur_ns).sum();
    assert!(
        child_sum <= build.dur_ns,
        "children sum to {child_sum} ns, parent engine.build lasted {} ns",
        build.dur_ns
    );
    for child in &children {
        assert!(child.start_ns >= build.start_ns);
        assert!(child.start_ns + child.dur_ns <= build.start_ns + build.dur_ns);
    }

    // The factorisation layer reported its structure gauges.
    assert!(snapshot.counter("cholesky.symbolic_analyses") >= 1);
    let nnz_l = snapshot.gauge("cholesky.nnz_l").unwrap_or(0.0);
    assert!(nnz_l > 0.0);
    let padded = snapshot.gauge("cholesky.padded_nnz_fraction").unwrap();
    assert!((0.0..1.0).contains(&padded), "padded fraction {padded}");
    let pattern_rows = snapshot.gauge("cholesky.pattern_rows").unwrap();
    assert!(
        pattern_rows > 0.0 && pattern_rows < nnz_l,
        "{pattern_rows} of {nnz_l}"
    );
}

#[test]
fn pattern_rows_gauge_counts_the_supernode_row_lists() {
    let _guard = opera_trace::test_guard();
    let g = GridSpec::small_test(400)
        .with_seed(3)
        .build()
        .unwrap()
        .conductance_matrix();
    opera_trace::reset();
    opera_trace::enable();
    let symbolic = opera_sparse::SymbolicCholesky::analyze(&g).unwrap();
    let snapshot = opera_trace::drain();
    opera_trace::disable();

    // The analysis stores row indices once per supernode: the gauge is the
    // total length of those lists, well below the entry count of `L`.
    let snodes = symbolic.supernodes();
    let list_rows: usize = (0..snodes.count())
        .map(|s| symbolic.supernode_rows(s).len())
        .sum();
    let pattern_rows = snapshot.gauge("cholesky.pattern_rows").unwrap();
    assert_eq!(pattern_rows, list_rows as f64);
    assert_eq!(
        snapshot.gauge("cholesky.nnz_l"),
        Some(symbolic.nnz_l() as f64)
    );
    assert!(
        list_rows < symbolic.nnz_l(),
        "{list_rows} rows for {} entries",
        symbolic.nnz_l()
    );
}

/// Monte Carlo and collocation run on one lock-step sampler but keep their
/// own trace vocabulary: a Monte Carlo run records no `collocation.*` name
/// and a collocation sweep no `mc.*` name.
#[test]
fn monte_carlo_and_collocation_keep_their_own_trace_names() {
    let _guard = opera_trace::test_guard();
    let engine = demo_engine(100);
    let names = |snapshot: &opera_trace::TraceSnapshot| -> Vec<String> {
        let spans = snapshot.spans.iter().map(|s| s.name.to_string());
        spans
            .chain(snapshot.counters.keys().map(|k| k.to_string()))
            .collect()
    };
    opera_trace::reset();
    opera_trace::enable();
    engine.monte_carlo(&McConfig::new(6, 3)).unwrap();
    let monte_carlo = names(&opera_trace::drain());
    let report = engine.collocation(&CollocationConfig::smolyak(2)).unwrap();
    let collocation = opera_trace::drain();
    opera_trace::disable();

    assert!(monte_carlo.iter().any(|n| n == "mc.sample_group"));
    assert!(!monte_carlo.iter().any(|n| n.starts_with("collocation.")));
    assert_eq!(collocation.span_count("collocation.node"), report.nodes);
    assert_eq!(
        collocation.counter("collocation.nodes"),
        report.nodes as u64
    );
    assert!(collocation.span_count("collocation.group") >= 1);
    assert!(!names(&collocation).iter().any(|n| n.starts_with("mc.")));
}

/// The CG work counters of a solve.
const CG_COUNTERS: [&str; 4] = [
    "cg.iterations",
    "cg.operator_applies",
    "cg.preconditioner_applies",
    "cg.converged_on_guess",
];

/// Fixed-step CG starts each single-stage step from the projection onto a
/// basis of its solve's earlier steps, which lives as long as that
/// `solve()`: consecutive solves of one engine, under every SIMD backend,
/// give the same bits and the same CG counts, and most steps converge on
/// their guess.
#[test]
fn consecutive_fixed_step_cg_solves_match_bit_for_bit_and_count_alike() {
    let _guard = opera_trace::test_guard();
    for method in [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
    ] {
        let engine = OperaEngine::for_grid(GridSpec::small_test(150).with_seed(21))
            .unwrap()
            .order(2)
            .time_step(0.05e-9)
            .end_time(2.0e-9)
            .integration_method(method)
            .build()
            .unwrap();
        let initial = opera_simd::active();
        let traced = |backend: Backend| {
            opera_simd::set_active(backend).unwrap();
            opera_trace::reset();
            opera_trace::enable();
            let solution = engine.solve();
            let snapshot = opera_trace::drain();
            opera_trace::disable();
            opera_simd::set_active(initial).unwrap();
            let counts = CG_COUNTERS.map(|name| snapshot.counter(name));
            (
                solution.unwrap(),
                counts,
                snapshot.counter("transient.steps"),
            )
        };
        let (reference, counts, steps) = traced(Backend::Scalar);
        assert!(
            2 * counts[3] > steps,
            "{method:?}: {} of {steps} steps converged on their guess",
            counts[3]
        );
        for backend in std::iter::once(Backend::Scalar).chain(opera_simd::available_backends()) {
            let (solution, again, _) = traced(backend);
            assert_eq!(again, counts, "{method:?}, {backend:?}: CG counts moved");
            for k in 0..reference.times().len() {
                for i in 0..reference.basis_size() {
                    for n in 0..reference.node_count() {
                        assert_eq!(
                            reference.coefficient(k, i, n).to_bits(),
                            solution.coefficient(k, i, n).to_bits(),
                            "{method:?}, {backend:?}: coefficient ({k}, {i}, {n})"
                        );
                    }
                }
            }
        }
    }
}
