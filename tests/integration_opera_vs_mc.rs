//! Cross-crate integration test: the full OPERA pipeline (grid generation →
//! variation model → Galerkin solve) against the Monte Carlo baseline,
//! exercising every crate of the workspace together.

use opera::compare::compare;
use opera::engine::OperaEngine;
use opera::monte_carlo::{run as run_monte_carlo, MonteCarloOptions};
use opera::response::drop_summary;
use opera::transient::{solve_transient, TransientOptions};
use opera::StochasticSolution;
use opera_grid::GridSpec;
use opera_variation::{StochasticGridModel, VariationSpec};

/// One order-2 `OperaEngine::solve()` of `model` on the transient `topts`.
fn engine_solve(model: &StochasticGridModel, topts: TransientOptions) -> StochasticSolution {
    OperaEngine::for_model(model.clone())
        .time_step(topts.time_step)
        .end_time(topts.end_time)
        .build()
        .unwrap()
        .solve()
        .unwrap()
}

#[test]
fn opera_reproduces_monte_carlo_statistics_on_a_mesh_grid() {
    let grid = GridSpec::industrial(400).with_seed(101).build().unwrap();
    grid.validate_connectivity().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let transient = TransientOptions::new(0.1e-9, 1.0e-9);

    let opera = engine_solve(&model, transient);
    let mc = run_monte_carlo(&model, &MonteCarloOptions::new(400, 3, transient)).unwrap();
    let errors = compare(&opera, &mc, grid.vdd());

    // Accuracy in the spirit of Table 1: tiny µ error, few-percent σ error
    // (here limited by the 400-sample Monte Carlo noise).
    assert!(
        errors.avg_mean_error_percent < 0.1,
        "avg µ error {} %VDD",
        errors.avg_mean_error_percent
    );
    assert!(
        errors.avg_std_error_percent < 20.0,
        "avg σ error {} %",
        errors.avg_std_error_percent
    );
}

#[test]
fn three_sigma_spread_is_a_large_fraction_of_the_nominal_drop() {
    // The paper's headline observation: ±3σ ≈ ±30–46 % of the nominal drop.
    let grid = GridSpec::industrial(600).with_seed(55).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let transient = TransientOptions::new(0.1e-9, grid.waveform_end_time());
    let opera = engine_solve(&model, transient);
    let nominal = solve_transient(
        &grid.conductance_matrix(),
        &grid.capacitance_matrix(),
        |t| grid.excitation(t),
        &transient,
    )
    .unwrap();
    let summary = drop_summary(&opera, grid.vdd(), Some(&nominal));
    assert!(
        summary.avg_three_sigma_percent_of_nominal > 10.0,
        "±3σ is only {} % of the nominal drop",
        summary.avg_three_sigma_percent_of_nominal
    );
    assert!(summary.avg_three_sigma_percent_of_nominal < 100.0);
    // Mean ≈ nominal (paper: the difference is negligible as a % of VDD).
    assert!(summary.avg_mean_shift_percent_of_vdd < 0.5);
}

#[test]
fn larger_variation_produces_larger_spread() {
    let grid = GridSpec::industrial(300).with_seed(77).build().unwrap();
    let transient = TransientOptions::new(0.2e-9, 1.0e-9);

    let small = VariationSpec {
        width_3sigma: 0.05,
        thickness_3sigma: 0.05,
        channel_length_3sigma: 0.05,
        ..VariationSpec::paper_defaults()
    };
    let large = VariationSpec::paper_defaults();

    let spread = |spec: &VariationSpec| {
        let model = StochasticGridModel::inter_die(&grid, spec).unwrap();
        let sol = engine_solve(&model, transient);
        let (node, k, _) = sol.worst_mean_drop(grid.vdd());
        sol.std_dev_at(k, node)
    };
    let sigma_small = spread(&small);
    let sigma_large = spread(&large);
    assert!(
        sigma_large > 2.0 * sigma_small,
        "σ did not grow with the variation magnitude: {sigma_small} vs {sigma_large}"
    );
}
