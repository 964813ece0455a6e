//! Integration test of the synthetic grid generator together with the sparse
//! solvers at several grid sizes, plus one scaled Table 1 row end to end.

use opera::engine::{OperaEngine, Scenario};
use opera_grid::{GridSpec, PAPER_GRID_NODE_COUNTS};
use opera_sparse::{cg, CholeskyFactor, OrderingChoice};

#[test]
fn generated_grids_scale_and_stay_solvable() {
    for &target in &[200usize, 800, 2_000] {
        let grid = GridSpec::industrial(target)
            .with_seed(target as u64)
            .build()
            .unwrap();
        grid.validate_connectivity().unwrap();
        let n = grid.node_count();
        assert!(
            (n as f64) > 0.85 * target as f64 && (n as f64) < 1.15 * target as f64,
            "target {target}, got {n}"
        );
        // The conductance matrix must be SPD-factorable with RCM ordering.
        let g = grid.conductance_matrix();
        let chol = CholeskyFactor::factor_with(&g, OrderingChoice::ReverseCuthillMckee).unwrap();
        let u = grid.excitation(0.0);
        let v = chol.solve(&u);
        assert!(g.residual_inf_norm(&v, &u) < 1e-8);
        // Every node must sit at or below VDD at DC.
        assert!(v.iter().all(|&vi| vi <= grid.vdd() + 1e-9));
    }
}

#[test]
fn direct_and_iterative_solvers_agree_on_a_grid_matrix() {
    let grid = GridSpec::industrial(900).with_seed(4).build().unwrap();
    let g = grid.conductance_matrix();
    let u = grid.excitation(0.0);
    let direct = CholeskyFactor::factor(&g).unwrap().solve(&u);
    let ic = cg::IncompleteCholesky::new(&g).unwrap();
    let iterative = cg::solve(
        &g,
        &u,
        &ic,
        cg::CgOptions {
            max_iterations: 5_000,
            tolerance: 1e-12,
        },
    )
    .unwrap();
    let max_diff = direct
        .iter()
        .zip(&iterative.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        / grid.vdd();
    assert!(max_diff < 1e-8, "direct vs PCG differ by {max_diff} of VDD");
}

#[test]
fn paper_grid_specs_expose_the_seven_table1_sizes() {
    assert_eq!(PAPER_GRID_NODE_COUNTS.len(), 7);
    assert_eq!(PAPER_GRID_NODE_COUNTS[0], 19_181);
    assert_eq!(PAPER_GRID_NODE_COUNTS[6], 351_838);
}

#[test]
fn scaled_table1_experiment_runs_end_to_end() {
    // A strongly scaled-down version of Table 1 row 1 — the full-size run is
    // exercised by the benchmark harness, not the test suite.
    let report = OperaEngine::for_grid(GridSpec::paper_grid(0).unwrap().scaled_nodes(0.02))
        .unwrap()
        .mc_samples(30)
        .mc_seed(42)
        .build()
        .unwrap()
        .run_scenario(&Scenario::default())
        .unwrap()
        .report;
    assert!(report.node_count > 200);
    // With only 30 Monte Carlo samples (kept low so the test is fast) the
    // speed-up is not representative — the benchmark harness measures it at
    // realistic sample counts. Here we only require a sane positive ratio.
    assert!(report.speedup > 0.0);
    assert!(report.errors.avg_mean_error_percent < 0.5);
    assert!(report.opera.avg_three_sigma_percent_of_nominal > 5.0);
}
