//! Property-based tests of the OPERA solvers: invariants that must hold for
//! any admissible variation magnitude, expansion order and time step.

use proptest::prelude::*;

use opera::engine::OperaEngine;
use opera::special_case::{solve_leakage, SpecialCaseOptions};
use opera::transient::{solve_transient, TransientOptions};
use opera::StochasticSolution;
use opera_grid::{GridSpec, PowerGrid};
use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

/// One `OperaEngine::solve()` of the inter-die model of `grid` under
/// `spec` at expansion `order` on the transient `topts`.
fn engine_solve(
    grid: &PowerGrid,
    spec: &VariationSpec,
    order: u32,
    topts: TransientOptions,
) -> StochasticSolution {
    let model = StochasticGridModel::inter_die(grid, spec).unwrap();
    OperaEngine::for_model(model)
        .order(order)
        .time_step(topts.time_step)
        .end_time(topts.end_time)
        .build()
        .unwrap()
        .solve()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any admissible variation magnitude the stochastic mean stays close
    /// to the deterministic nominal solution and the variance grows
    /// monotonically with the variation (checked at the worst-drop node).
    #[test]
    fn mean_tracks_nominal_and_variance_grows(scale in 0.2f64..1.0, seed in 0u64..50) {
        let grid = GridSpec::small_test(90).with_seed(seed).build().unwrap();
        let topts = TransientOptions::new(0.2e-9, 1.0e-9);
        let spec_small = VariationSpec {
            width_3sigma: 0.10 * scale,
            thickness_3sigma: 0.075 * scale,
            channel_length_3sigma: 0.10 * scale,
            ..VariationSpec::paper_defaults()
        };
        let spec_large = VariationSpec {
            width_3sigma: 0.20 * scale,
            thickness_3sigma: 0.15 * scale,
            channel_length_3sigma: 0.20 * scale,
            ..VariationSpec::paper_defaults()
        };
        let small = engine_solve(&grid, &spec_small, 2, topts);
        let large = engine_solve(&grid, &spec_large, 2, topts);
        let nominal = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| grid.excitation(t),
            &topts,
        )
        .unwrap();
        let (node, k, _) = large.worst_mean_drop(grid.vdd());
        prop_assert!(
            (large.mean_at(k, node) - nominal.state_at(k)[node]).abs() / grid.vdd() < 0.02
        );
        prop_assert!(large.std_dev_at(k, node) >= small.std_dev_at(k, node));
    }

    /// The zeroth PCE coefficient of the stochastic solution at t = 0 solves
    /// the DC system, and every coefficient stays finite over the transient.
    #[test]
    fn solution_is_finite_and_consistent_at_dc(seed in 0u64..40, order in 1u32..4) {
        let grid = GridSpec::small_test(70).with_seed(seed).build().unwrap();
        let topts = TransientOptions::new(0.25e-9, 0.5e-9);
        let sol = engine_solve(&grid, &VariationSpec::paper_defaults(), order, topts);
        for k in 0..sol.times().len() {
            for i in 0..sol.basis_size() {
                for node in (0..sol.node_count()).step_by(11) {
                    prop_assert!(sol.coefficient(k, i, node).is_finite());
                }
            }
        }
        // At t = 0 the currents are zero, so every node sits near VDD and the
        // spread is tiny compared to the supply.
        for node in (0..sol.node_count()).step_by(13) {
            prop_assert!((grid.vdd() - sol.mean_at(0, node)) / grid.vdd() < 0.05);
            prop_assert!(sol.std_dev_at(0, node) / grid.vdd() < 0.05);
        }
    }

    /// The special case and the general Galerkin machinery agree when the
    /// matrices are deterministic: solving the leakage problem with two
    /// different orders gives the same mean (the mean only depends on the
    /// order-0 projection, which both truncations contain).
    #[test]
    fn special_case_mean_is_order_independent(seed in 0u64..30) {
        let grid = GridSpec::small_test(60).with_seed(seed).build().unwrap();
        let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 2.0e-5, 0.03, 23.0).unwrap();
        let topts = TransientOptions::new(0.25e-9, 0.5e-9);
        let sol2 = solve_leakage(&grid, &leakage, &SpecialCaseOptions { order: 2, transient: topts }).unwrap();
        let sol3 = solve_leakage(&grid, &leakage, &SpecialCaseOptions { order: 3, transient: topts }).unwrap();
        let k = sol2.times().len() - 1;
        for node in (0..grid.node_count()).step_by(7) {
            prop_assert!((sol2.mean_at(k, node) - sol3.mean_at(k, node)).abs() < 1e-6);
        }
    }
}
