//! Regression pins for the fixed-step and adaptive transient paths.
//!
//! Every companion system is built by a `CompanionFamily` (one shared
//! symbolic analysis, one numeric refactorisation per requested step size,
//! no factor kept between requests), and every stepping loop carries an
//! `IntegrationMethod`. Fixed-step backward Euler and trapezoidal results
//! must be **bit-identical** to the behaviour before the family existed:
//! this file pins FNV-1a hashes of full trajectories, computed on that loop
//! shape, so any change that perturbs a single mantissa bit of the
//! fixed-step paths fails here.
//!
//! The engine's adaptive Galerkin solves are pinned the same way, and two
//! consecutive adaptive solves on one engine must do the same work and give
//! the same bits: no factor survives a solve.
//!
//! Adaptive stepping is opt-in: the defaults are also pinned (backward
//! Euler, no adaptive options on a default-built engine).

use opera::adaptive::AdaptiveOptions;
use opera::engine::OperaEngine;
use opera::transient::{
    solve_transient, CompanionFamily, CompanionSystem, IntegrationMethod, TransientOptions,
};
use opera_grid::GridSpec;
use opera_sparse::{CsrMatrix, SolveWorkspace, TripletMatrix};

/// FNV-1a over the IEEE-754 bit patterns of a trajectory, order-sensitive.
/// The state panel is column-major with one column per time point, so
/// hashing its contiguous data visits exactly the pre-refactor
/// row-of-vectors order (time-major, node-minor).
fn fnv1a_bits(states: &opera_sparse::Panel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &v in states.data() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// A fixed 4-node RC mesh with hand-picked values — no RNG, so the pinned
/// hashes are reproducible from the source alone.
fn pinned_circuit() -> (CsrMatrix, CsrMatrix) {
    let mut g = TripletMatrix::new(4, 4);
    let mut c = TripletMatrix::new(4, 4);
    for (i, (leak, cap)) in [(0.5, 1.0), (0.25, 0.5), (0.125, 2.0), (1.0, 0.75)]
        .into_iter()
        .enumerate()
    {
        g.push(i, i, leak);
        c.push(i, i, cap);
    }
    g.add_symmetric_pair(0, 1, 1.5);
    g.add_symmetric_pair(1, 2, 0.75);
    g.add_symmetric_pair(2, 3, 2.0);
    g.add_symmetric_pair(0, 3, 0.25);
    (g.to_csr(), c.to_csr())
}

fn pinned_excitation(t: f64) -> Vec<f64> {
    (0..4)
        .map(|i| 0.8 * ((i + 1) as f64 * (2.0 * t + 0.1)).sin())
        .collect()
}

#[test]
fn fixed_step_trajectories_are_bit_identical_to_the_pre_refactor_pins() {
    let (g, c) = pinned_circuit();
    // Hashes recorded from the pre-CompanionFamily stepping loop; the
    // refactor must not move a single bit.
    let pins = [
        (IntegrationMethod::BackwardEuler, 0xc8b1_2ef2_e494_9979_u64),
        (IntegrationMethod::Trapezoidal, 0x6046_e4f7_a090_8666_u64),
    ];
    for (method, expected) in pins {
        let options = TransientOptions {
            time_step: 0.125,
            end_time: 2.0,
            method,
        };
        let sol = solve_transient(&g, &c, pinned_excitation, &options).unwrap();
        let hash = fnv1a_bits(sol.states());
        assert_eq!(
            hash, expected,
            "{method:?}: fixed-step trajectory hash changed (got {hash:#018x})"
        );
    }
}

/// The family-built companion system must step bit-identically to a
/// one-shot `CompanionSystem::new` — the exact contract that lets the
/// engine swap its prepared solver onto the shared symbolic analysis.
#[test]
fn family_factors_step_bit_identically_to_one_shot_systems() {
    let (g, c) = pinned_circuit();
    let family = CompanionFamily::new(&g, &c).unwrap();
    for method in [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
    ] {
        for h in [0.125, 0.25, 0.125] {
            let from_family = family.system_for(h, method).unwrap();
            let one_shot = CompanionSystem::new(&g, &c, h, method).unwrap();
            let v = pinned_excitation(0.3);
            let u_prev = pinned_excitation(0.0);
            let u_next = pinned_excitation(h);
            let step = |system: &CompanionSystem| {
                let mut out = vec![0.0; v.len()];
                system.step_into(&v, &u_prev, &u_next, &mut out, &mut SolveWorkspace::new());
                out
            };
            assert_eq!(step(&from_family), step(&one_shot), "{method:?} at h = {h}");
        }
    }
    // One symbolic analysis; every request refactors, the repeat of
    // h = 0.125 too (the family keeps no factor).
    assert_eq!(family.symbolic_analysis_count(), 1);
    assert_eq!(family.refactorization_count(), 6);
}

#[test]
fn engine_defaults_keep_adaptive_stepping_opt_in() {
    // Backward Euler stays the default scheme…
    assert_eq!(
        TransientOptions::new(0.1, 1.0).method,
        IntegrationMethod::BackwardEuler
    );
    // …and a default-built engine carries no adaptive options, so
    // `solve_scenario` takes the fixed-step path unchanged.
    let engine = OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
        .unwrap()
        .build()
        .unwrap();
    assert!(engine.adaptive_options().is_none());
    assert_eq!(engine.transient().method, IntegrationMethod::BackwardEuler);
    // Opting in flips the method to TR-BDF2 (the only scheme with an
    // embedded error estimate).
    let opted_in = OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
        .unwrap()
        .adaptive(AdaptiveOptions::default())
        .build()
        .unwrap();
    assert!(opted_in.adaptive_options().is_some());
    assert_eq!(opted_in.transient().method, IntegrationMethod::TrBdf2);
}

/// FNV-1a over the bit patterns of every chaos coefficient of a solution,
/// time-major, then basis function, then node.
fn fnv1a_coefficients(solution: &opera::StochasticSolution) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..solution.times().len() {
        for i in 0..solution.basis_size() {
            for node in 0..solution.node_count() {
                for byte in solution.coefficient(k, i, node).to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
    }
    hash
}

/// The engine's adaptive Galerkin solve streams its dense output rows into
/// the solution as the controller produces them; its coefficients must not
/// move a bit. Pins recorded on the solve that collected every output row
/// and accepted state before splitting them, for both built-in backends at
/// chaos orders 1 and 2. The `block-jacobi-cg` order-2 pin was re-recorded
/// when the controller began re-stepping CG on factors it keeps per
/// half-octave rung, the prepared solver's own factor included, and
/// solving the error estimate to 1e-6. The order-1 pin held: that solve
/// revisits no rung, and its step sizes come from the growth clamp, the
/// dead-band and the closing step, never from the estimate's exact value.
#[test]
fn adaptive_engine_coefficients_are_bit_identical_to_the_pins() {
    use opera::engine::Scenario;
    use opera::solver::{default_backend, DirectCholesky, SolverBackend};
    use opera_variation::VariationSpec;
    use std::sync::Arc;

    let backends: [(Arc<dyn SolverBackend>, [u64; 2]); 2] = [
        (
            default_backend(),
            [0xee51_b195_331c_0738, 0x60b5_4e17_3639_7ca1],
        ),
        (
            Arc::new(DirectCholesky),
            [0x0074_d05d_2ebf_f621, 0x3936_cfdd_25b0_1095],
        ),
    ];
    for (backend, pins) in backends {
        for (order, expected) in [1, 2].into_iter().zip(pins) {
            let adaptive = AdaptiveOptions::with_rel_tol(1e-4);
            let engine = OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
                .unwrap()
                .variation(VariationSpec::paper_defaults())
                .order(order)
                .solver(Arc::clone(&backend))
                .time_step(0.1e-9)
                .end_time(1.0e-9)
                .adaptive(adaptive.clone())
                .build()
                .unwrap();
            let (solution, stats) = engine
                .solve_scenario_adaptive(&Scenario::default(), &adaptive)
                .unwrap();
            assert_eq!(stats.symbolic_analyses, 1);
            let hash = fnv1a_coefficients(&solution);
            assert_eq!(
                hash,
                expected,
                "{}, order {order}: adaptive coefficients moved (got {hash:#018x})",
                backend.name()
            );
        }
    }
}

/// Nothing survives a solve: the adaptive controller's re-stepped factors
/// are dropped when the solve ends, so a second identical solve on the same
/// engine refactors exactly as often as the first and reproduces its
/// coefficients bit for bit, on both built-in backends.
#[test]
fn consecutive_adaptive_solves_refactor_alike_and_match_bit_for_bit() {
    use opera::engine::Scenario;
    use opera::solver::{default_backend, DirectCholesky, SolverBackend};
    use opera_variation::VariationSpec;
    use std::sync::Arc;

    let backends: [Arc<dyn SolverBackend>; 2] = [default_backend(), Arc::new(DirectCholesky)];
    for backend in backends {
        let adaptive = AdaptiveOptions::with_rel_tol(1e-4);
        let engine = OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
            .unwrap()
            .variation(VariationSpec::paper_defaults())
            .order(1)
            .solver(Arc::clone(&backend))
            .time_step(0.1e-9)
            .end_time(1.0e-9)
            .adaptive(adaptive.clone())
            .build()
            .unwrap();
        let solve = || {
            engine
                .solve_scenario_adaptive(&Scenario::default(), &adaptive)
                .unwrap()
        };
        let (first, first_stats) = solve();
        let (second, second_stats) = solve();
        assert!(first_stats.refactorizations > 0, "{}", backend.name());
        assert_eq!(
            second_stats,
            first_stats,
            "{}: the second solve reused factors of the first",
            backend.name()
        );
        assert_eq!(
            fnv1a_coefficients(&second),
            fnv1a_coefficients(&first),
            "{}: the second solve moved a bit",
            backend.name()
        );
    }
}

/// FNV-1a over the bit patterns of a Monte Carlo run's mean and variance
/// tables, time-major, then node, means first.
fn fnv1a_monte_carlo(result: &opera::monte_carlo::MonteCarloResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &v in result.mean.iter().chain(&result.variance).flatten() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// The engine every scaled pin below solves on: 60 nodes, order 2, paper
/// variation, a 0.1 ns step over 1 ns.
fn scaled_pin_engine(
    backend: std::sync::Arc<dyn opera::solver::SolverBackend>,
    method: IntegrationMethod,
) -> OperaEngine {
    OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
        .unwrap()
        .variation(opera_variation::VariationSpec::paper_defaults())
        .order(2)
        .solver(backend)
        .time_step(0.1e-9)
        .end_time(1.0e-9)
        .integration_method(method)
        .build()
        .unwrap()
}

/// The scaled-current paths rescale every excitation around its `t = 0`
/// value. Pins of the fixed-step and adaptive Galerkin solves at scales
/// other than one, on both built-in backends, recorded before the
/// excitation terms were evaluated by one shared evaluator. The two
/// `block-jacobi-cg` backward-Euler pins were re-recorded when fixed-step
/// CG started each step from the projection onto its solve's earlier
/// steps (`0x67ad…` → `0xa7ea…`, `0xe6dc…` → `0x1610…`).
#[test]
fn scaled_engine_solves_are_bit_identical_to_the_pins() {
    use opera::engine::Scenario;
    use opera::solver::{default_backend, DirectCholesky, SolverBackend};
    use std::sync::Arc;

    let backends: [(Arc<dyn SolverBackend>, [u64; 5]); 2] = [
        (
            default_backend(),
            [
                0xa7ea_aa20_562e_b54e,
                0x1610_3bf1_0344_e13c,
                0x7e24_f310_4998_f2cf,
                0xb088_a54e_f262_29e5,
                0x011e_7300_0fa4_2c63,
            ],
        ),
        (
            Arc::new(DirectCholesky),
            [
                0x8469_c396_aace_5741,
                0x126d_2543_83e0_8230,
                0xc3de_fdc3_5041_b343,
                0xbab3_956c_ba1a_5b0d,
                0x2a67_3d74_f931_e9bc,
            ],
        ),
    ];
    for (backend, pins) in backends {
        let fixed = [
            (IntegrationMethod::BackwardEuler, 0.5),
            (IntegrationMethod::BackwardEuler, 1.5),
            (IntegrationMethod::TrBdf2, 0.5),
            (IntegrationMethod::TrBdf2, 1.5),
        ];
        let mut hashes = Vec::new();
        for (method, scale) in fixed {
            let engine = scaled_pin_engine(Arc::clone(&backend), method);
            let solution = engine
                .solve_scenario(&Scenario::default().with_current_scale(scale))
                .unwrap();
            hashes.push((
                format!("{method:?} at {scale}"),
                fnv1a_coefficients(&solution),
            ));
        }
        let adaptive = AdaptiveOptions::with_rel_tol(1e-4);
        let engine = scaled_pin_engine(Arc::clone(&backend), IntegrationMethod::TrBdf2);
        let (solution, _) = engine
            .solve_scenario_adaptive(&Scenario::default().with_current_scale(1.5), &adaptive)
            .unwrap();
        hashes.push(("adaptive at 1.5".to_string(), fnv1a_coefficients(&solution)));
        for ((what, hash), expected) in hashes.into_iter().zip(pins) {
            assert_eq!(
                hash,
                expected,
                "{}, {what}: scaled coefficients moved (got {hash:#018x})",
                backend.name()
            );
        }
    }
}

/// Pins of the Monte Carlo baselines at current scale 1.5 and of the
/// leakage special case, recorded before the excitation terms were
/// evaluated by one shared evaluator.
#[test]
fn scaled_monte_carlo_and_leakage_runs_are_bit_identical_to_the_pins() {
    use opera::monte_carlo::{run, run_leakage, MonteCarloOptions};
    use opera::special_case::{solve_leakage, SpecialCaseOptions};
    use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

    let grid = GridSpec::small_test(60).with_seed(7).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let transient = TransientOptions::new(0.1e-9, 1.0e-9);
    let mut options = MonteCarloOptions::new(9, 5, transient);
    options.current_scale = 1.5;
    let mc = fnv1a_monte_carlo(&run(&model, &options).unwrap());
    assert_eq!(
        mc, 0xdbb5_b362_282a_322e,
        "Monte Carlo at scale 1.5 moved (got {mc:#018x})"
    );

    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let leak = fnv1a_monte_carlo(&run_leakage(&grid, &leakage, &options).unwrap());
    assert_eq!(
        leak, 0x89d2_5b01_d55a_5b4f,
        "leakage Monte Carlo at scale 1.5 moved (got {leak:#018x})"
    );

    let special = SpecialCaseOptions::order2(transient);
    let solution = solve_leakage(&grid, &leakage, &special).unwrap();
    let hash = fnv1a_coefficients(&solution);
    assert_eq!(
        hash, 0x247c_04bc_ab31_850e,
        "solve_leakage moved (got {hash:#018x})"
    );
}
