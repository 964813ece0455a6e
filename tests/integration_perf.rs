//! Integration tests of the blocked multi-RHS solve engine: the
//! zero-allocation steady-state contract, panel-batched scenario sweeps and
//! the thread-count invariance of the panel-grouped Monte Carlo.

mod common;

use std::sync::Arc;

use common::{allocations_of, allocations_so_far};

use opera::adaptive::AdaptiveOptions;
use opera::engine::{OperaEngine, Scenario};
use opera::monte_carlo::{run as run_monte_carlo, run_leakage, MonteCarloOptions};
use opera::solver::{BlockJacobiCg, DirectCholesky, SolverBackend};
use opera::special_case::{solve_leakage, solve_leakage_reference, SpecialCaseOptions};
use opera::transient::{
    integrate_fixed_step, CompanionFamily, IntegrationMethod, TransientOptions,
};
use opera::Parallelism;
use opera_collocation::{
    build_grid, solve_collocation, GridKind, TransientSpec as CollocationTransient,
};
use opera_grid::GridSpec;
use opera_pce::{OrthogonalBasis, PolynomialFamily};
use opera_sparse::SolveWorkspace;
use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

/// The two built-in backends, by value.
fn builtin_backends() -> [Arc<dyn SolverBackend>; 2] {
    [Arc::new(DirectCholesky), Arc::new(BlockJacobiCg::default())]
}

fn small_engine(solver: Arc<dyn SolverBackend>) -> OperaEngine {
    small_engine_with(solver, IntegrationMethod::BackwardEuler)
}

fn small_engine_with(solver: Arc<dyn SolverBackend>, method: IntegrationMethod) -> OperaEngine {
    OperaEngine::for_grid(GridSpec::small_test(120))
        .unwrap()
        .variation(VariationSpec::paper_defaults())
        .solver(solver)
        .time_step(0.25e-9)
        .end_time(1.0e-9)
        .integration_method(method)
        .mc_samples(6)
        .mc_seed(3)
        .build()
        .unwrap()
}

/// Heap allocations made while a six-step transient on `engine`'s system
/// and settings advances from its first step to its last (the loop sets up
/// its panels before the first step), on a workspace warmed by a one-step
/// run. The excitation holds still through the first step, so the DC state
/// already solves the warm-up's step and an iterative solver converges
/// there at once; the later steps iterate on the same warm scratch. The
/// excitation is written in place, so every allocation the global counter
/// sees comes from the solver.
fn heap_allocations_in_warm_steps(engine: &OperaEngine) -> u64 {
    let (model, system, transient) = (engine.model(), engine.system(), engine.transient());
    let prepared = engine.solver().prepare(model, system, transient).unwrap();
    let dim = system.dim();
    let base = system.excitation(model, 0.4e-9);
    let mut ws = SolveWorkspace::new();
    let mut run = |steps: usize| {
        let times: Vec<f64> = (0..=steps)
            .map(|k| k as f64 * transient.time_step)
            .collect();
        let mut marks = (0, 0);
        integrate_fixed_step(
            prepared.as_ref(),
            transient.method,
            &times,
            (dim, 1),
            &mut ws,
            |t, u| {
                let swing = 1.0 + 0.25 * ((t - transient.time_step).max(0.0) * 4e9).sin();
                for (ui, bi) in u.data_mut().iter_mut().zip(&base) {
                    *ui = bi * swing;
                }
                Ok(())
            },
            |k, _| {
                if k == 1 {
                    marks.0 = allocations_so_far();
                }
                if k == steps {
                    marks.1 = allocations_so_far();
                }
            },
        )
        .unwrap();
        marks.1 - marks.0
    };
    run(1);
    run(6)
}

/// The CI-enforced hot-loop contract: once the solver workspace is warm, a
/// steady-state transient step performs zero heap allocations, on every
/// built-in backend and for single- and two-stage schemes. Two views: the
/// workspace's own growth counter, and a counting global allocator that
/// would also catch a stray `Vec` inside the CG iteration.
#[test]
fn steady_state_transient_steps_allocate_nothing() {
    for backend in builtin_backends() {
        let solver = backend.name().to_string();
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::TrBdf2] {
            let engine = small_engine_with(Arc::clone(&backend), method);
            assert_eq!(
                engine.steady_state_step_allocations().unwrap(),
                0,
                "{solver}, {method:?}: the workspace grew in the steady-state step loop"
            );
            assert_eq!(
                heap_allocations_in_warm_steps(&engine),
                0,
                "{solver}, {method:?}: heap allocations in the steady-state step loop"
            );
        }
    }
}

/// Panel-batched `run_batch` must produce reports bit-identical to solving
/// every scenario alone, including when the batch mixes panel-eligible
/// scenarios (engine time grid) with ones that need a private factorisation
/// (time-step override) and two panel columns of one scale, whose
/// excitation is written once and copied — on every built-in backend (the
/// CG backend steps its panel columns itself) and on a TR-BDF2 direct
/// engine.
#[test]
fn mixed_batches_match_individual_scenario_runs_bit_for_bit() {
    let scenarios = vec![
        Scenario::named("light").with_current_scale(0.75),
        Scenario::named("nominal"),
        Scenario::named("heavy").with_current_scale(1.5),
        Scenario::named("fine").with_time_step(0.125e-9),
        Scenario::named("heavy, again").with_current_scale(1.5),
    ];
    let engines = builtin_backends()
        .map(|solver| (solver.name().to_string(), small_engine(solver)))
        .into_iter()
        .chain([(
            "direct-cholesky + TR-BDF2".to_string(),
            small_engine_with(Arc::new(DirectCholesky), IntegrationMethod::TrBdf2),
        )]);
    for (name, engine) in engines {
        let batch = engine.run_batch(&scenarios).unwrap();
        assert_eq!(batch.len(), scenarios.len());
        for (scenario, batched) in scenarios.iter().zip(&batch) {
            let alone = engine.run_scenario(scenario).unwrap();
            assert_eq!(batched.label, alone.label);
            assert_eq!(
                batched.report.opera, alone.report.opera,
                "{name}, {}: drop summary differs",
                scenario.label
            );
            assert_eq!(
                batched.report.errors, alone.report.errors,
                "{name}, {}: error summary differs",
                scenario.label
            );
        }
    }
}

/// The panel-grouped leakage Monte Carlo must stay bit-identical across
/// worker-thread counts (the group partition is fixed, the fold is in sample
/// order, and each panel column performs the scalar arithmetic).
#[test]
fn panel_grouped_leakage_monte_carlo_is_thread_count_invariant() {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let mut opts = MonteCarloOptions::new(13, 9, TransientOptions::new(0.25e-9, 1.0e-9));
    opts.probe_nodes = vec![2];
    let runs: Vec<_> = [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ]
    .iter()
    .map(|p| {
        p.install(|| run_leakage(&grid, &leakage, &opts))
            .unwrap()
            .unwrap()
    })
    .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].mean, other.mean);
        assert_eq!(runs[0].variance, other.variance);
        assert_eq!(runs[0].probe_traces, other.probe_traces);
    }
}

/// The panel special case and its per-column reference agree bit for bit
/// across thread counts too (the reference fans columns over the pool).
#[test]
fn special_case_panel_and_reference_agree_for_all_thread_counts() {
    let grid = GridSpec::small_test(80).with_seed(11).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let opts = SpecialCaseOptions::order2(TransientOptions::new(0.25e-9, 1.0e-9));
    let panel = solve_leakage(&grid, &leakage, &opts).unwrap();
    for p in [Parallelism::Serial, Parallelism::Threads(8)] {
        let reference = p
            .install(|| solve_leakage_reference(&grid, &leakage, &opts))
            .unwrap()
            .unwrap();
        let k = panel.times().len() - 1;
        for j in 0..panel.basis_size() {
            for n in 0..grid.node_count() {
                assert_eq!(
                    panel.coefficient(k, j, n),
                    reference.coefficient(k, j, n),
                    "({k}, {j}, {n}) differs at {p:?}"
                );
            }
        }
    }
}

/// Heap allocations of a serial inter-die Monte Carlo run of `samples`
/// samples over `steps` backward-Euler steps.
fn monte_carlo_allocations(model: &StochasticGridModel, samples: usize, steps: usize) -> u64 {
    let h = 0.25e-9;
    let options = MonteCarloOptions::new(samples, 9, TransientOptions::new(h, steps as f64 * h));
    let before = allocations_so_far();
    let mc = Parallelism::Serial
        .install(|| run_monte_carlo(model, &options))
        .unwrap()
        .unwrap();
    let allocations = allocations_so_far() - before;
    drop(mc);
    allocations
}

/// Heap allocations of a serial collocation sweep over the tensor grid of
/// `level` with `steps` backward-Euler steps.
fn collocation_allocations(model: &StochasticGridModel, level: u32, steps: usize) -> u64 {
    let h = 0.25e-9;
    let families = [PolynomialFamily::Hermite; 2];
    let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
    let grid = build_grid(GridKind::Tensor, &families, level).unwrap();
    let spec = CollocationTransient::new(h, steps as f64 * h);
    let before = allocations_so_far();
    let run = Parallelism::Serial
        .install(|| solve_collocation(model, &basis, &grid, &spec))
        .unwrap()
        .unwrap();
    let allocations = allocations_so_far() - before;
    drop(run);
    allocations
}

/// The lock-step steppers of Monte Carlo and collocation allocate nothing
/// per step of a group: the excitation's drain-current scratch is reused,
/// so the allocations that extra steps add (the fold's per-time rows) do
/// not depend on how many groups step. The paper-default inter-die model
/// varies the switching currents, which is what needs the scratch.
#[test]
fn lockstep_groups_allocate_nothing_per_step() {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let mc_extra_steps = |samples| {
        monte_carlo_allocations(&model, samples, 8) - monte_carlo_allocations(&model, samples, 4)
    };
    // One group of four samples against three.
    assert_eq!(mc_extra_steps(12), mc_extra_steps(4));
    let colloc_extra_steps = |level| {
        collocation_allocations(&model, level, 8) - collocation_allocations(&model, level, 4)
    };
    // One node (one group) against nine nodes (three groups).
    assert_eq!(colloc_extra_steps(2), colloc_extra_steps(1));
}

/// Row-pointer arrays of an `n`-row CSR matrix (`n + 1` indices) that `f`
/// allocates on this thread. Every CSR copy of an `n × n` matrix — a clone
/// of `G`, a transpose, a union `G + s·C` — allocates one; matrices stored
/// as values on a shared pattern allocate none.
fn csr_copies(n: usize, f: impl FnOnce()) -> u64 {
    allocations_of((n + 1) * std::mem::size_of::<usize>(), f)
}

/// A refactorisation at a new step size shares the family's `G` and `C`
/// and forms the companion as values, and a lock-step Monte Carlo group
/// realises its samples as values on the nominal patterns: neither builds
/// a CSR copy of `G` (the group cost is one group's run against two
/// groups', for every scheme).
#[test]
fn refactorisations_and_lockstep_groups_copy_no_matrix() {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let (g, c) = (model.nominal_conductance(), model.nominal_capacitance());
    let n = g.nrows();
    assert!(
        !(n + 1).is_power_of_two(),
        "a grown Vec could match the watched size"
    );

    let family = CompanionFamily::new(g, c).unwrap();
    family
        .system_for(1.0e-10, IntegrationMethod::TrBdf2)
        .unwrap();
    let refactorisation = csr_copies(n, || {
        family
            .system_for(2.0e-10, IntegrationMethod::TrBdf2)
            .unwrap();
    });
    assert_eq!(family.refactorization_count(), 2);
    assert_eq!(refactorisation, 0, "a refactorisation copied a matrix");

    for method in [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
        IntegrationMethod::TrBdf2,
    ] {
        let mut transient = TransientOptions::new(0.25e-9, 1.0e-9);
        transient.method = method;
        let copies = |samples| {
            let options = MonteCarloOptions::new(samples, 9, transient);
            csr_copies(n, || {
                Parallelism::Serial
                    .install(|| run_monte_carlo(&model, &options))
                    .unwrap()
                    .unwrap();
            })
        };
        assert_eq!(
            copies(8),
            copies(4),
            "{method:?}: a lock-step group copied a matrix"
        );
    }
}

/// Allocations of `dim` values (one stacked excitation) that `solve` makes
/// on this thread, `dim` being `engine`'s stacked dimension.
fn stacked_allocations(engine: &OperaEngine, solve: impl FnOnce()) -> u64 {
    allocations_of(engine.system().dim() * std::mem::size_of::<f64>(), solve)
}

/// Allocations of `dim` values that an adaptive solve of `engine` at
/// `rel_tol` makes on this thread beyond one per refactorisation (the
/// direct backend stores each step size's `s·C̃`, which holds as many
/// values here), and the steps it attempted.
fn adaptive_excitation_allocations(engine: &OperaEngine, rel_tol: f64) -> (u64, u64) {
    let mut stats = None;
    let hits = stacked_allocations(engine, || {
        stats = Some(
            engine
                .solve_scenario_adaptive(
                    &Scenario::default(),
                    &AdaptiveOptions::with_rel_tol(rel_tol),
                )
                .unwrap()
                .1,
        );
    });
    let stats = stats.unwrap();
    (
        hits.saturating_sub(stats.refactorizations),
        stats.steps_attempted,
    )
}

/// The adaptive controller writes every excitation into buffers it reuses:
/// a solve that attempts ten times more steps allocates no more vectors of
/// the stacked dimension, on either backend.
#[test]
fn adaptive_attempts_allocate_no_excitation() {
    for solver in builtin_backends() {
        let engine = small_engine_with(solver, IntegrationMethod::TrBdf2);
        let dim = engine.system().dim();
        assert!(
            !dim.is_power_of_two(),
            "a grown Vec could match the watched size"
        );
        let (loose, loose_attempts) = adaptive_excitation_allocations(&engine, 1e-2);
        let (tight, tight_attempts) = adaptive_excitation_allocations(&engine, 1e-6);
        assert!(tight_attempts > loose_attempts);
        assert_eq!(
            tight, loose,
            "{tight_attempts} vs {loose_attempts} attempts allocated {tight} vs {loose} \
             stacked vectors"
        );
    }
}

/// Fixed-step engine solves write every excitation into the stepping loop's
/// reused panels and its terms into reused scratch: a horizon four times
/// longer allocates no more vectors of the stacked dimension, and per extra
/// step exactly one node-length vector per basis function — the output's
/// chaos coefficients (`split_solution`) — on either backend, for single-
/// and two-stage schemes.
#[test]
fn fixed_step_solves_allocate_no_excitation() {
    for solver in builtin_backends() {
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::TrBdf2] {
            let engine = small_engine_with(Arc::clone(&solver), method);
            let system = engine.system();
            let (dim, n) = (system.dim(), system.node_count());
            assert!(
                !dim.is_power_of_two() && !n.is_power_of_two(),
                "a grown Vec could match a watched size"
            );
            let at_horizon = |end_time: f64, values: usize| {
                allocations_of(values * std::mem::size_of::<f64>(), || {
                    engine
                        .solve_scenario(&Scenario::default().with_end_time(end_time))
                        .unwrap();
                })
            };
            let (short, long) = (at_horizon(0.5e-9, dim), at_horizon(2.0e-9, dim));
            assert_eq!(
                long,
                short,
                "{} {method:?}: 8 steps allocated {long} stacked vectors, 2 steps {short}",
                solver.name()
            );
            let (short, long) = (at_horizon(0.5e-9, n), at_horizon(2.0e-9, n));
            let per_step = system.basis_size() as u64;
            assert_eq!(
                long - short,
                per_step * (8 - 2),
                "{} {method:?}: 8 steps allocated {long} node vectors, 2 steps {short}",
                solver.name()
            );
        }
    }
}

/// The leakage paths write the switching excitation into the stepping
/// loop's reused panels: over a horizon four times longer, the leakage
/// Monte Carlo allocates node-length vectors only for its output (a mean
/// and a variance row per time point), whatever the number of sample
/// groups, and the leakage special case exactly one per chaos coefficient
/// per extra step (its output's coefficients).
#[test]
fn leakage_steps_allocate_no_excitation() {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let n = grid.node_count();
    assert!(
        !n.is_power_of_two(),
        "a grown Vec could match the watched size"
    );
    let h = 0.25e-9;
    let node_vector = n * std::mem::size_of::<f64>();

    for (samples, current_scale) in [(4, 1.0), (12, 1.0), (12, 1.5)] {
        let at_steps = |steps: usize| {
            let mut options =
                MonteCarloOptions::new(samples, 9, TransientOptions::new(h, steps as f64 * h));
            options.current_scale = current_scale;
            allocations_of(node_vector, || {
                Parallelism::Serial
                    .install(|| run_leakage(&grid, &leakage, &options))
                    .unwrap()
                    .unwrap();
            })
        };
        let (short, long) = (at_steps(2), at_steps(8));
        assert_eq!(
            long - short,
            2 * (8 - 2),
            "{samples} samples at scale {current_scale}: 8 steps allocated {long} node \
             vectors, 2 steps {short}"
        );
    }

    let at_steps = |steps: usize| {
        let options = SpecialCaseOptions::order2(TransientOptions::new(h, steps as f64 * h));
        let mut size = 0;
        let made = allocations_of(node_vector, || {
            size = solve_leakage(&grid, &leakage, &options)
                .unwrap()
                .basis_size() as u64;
        });
        (made, size)
    };
    let ((short, size), (long, _)) = (at_steps(2), at_steps(8));
    assert_eq!(
        long - short,
        size * (8 - 2),
        "8 steps allocated {long} node vectors, 2 steps {short}"
    );
}
