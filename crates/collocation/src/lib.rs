//! The lock-step sampler and stochastic collocation for the OPERA
//! power-grid reproduction.
//!
//! The paper's Galerkin method couples all polynomial-chaos coefficients
//! into one augmented system. Its non-intrusive cross-checks run ordinary
//! **deterministic** transients at points `ξ_q` instead: Monte Carlo at
//! random draws, stochastic *collocation* at the nodes of a quadrature grid
//! (a [Smolyak sparse grid](opera_pce::sparse_grid::smolyak_grid) or a full
//! [tensor grid](opera_pce::sparse_grid::tensor_grid)), whose states it
//! projects onto the chaos coefficients. Both run on this crate's lock-step
//! sampler, [`sample_points`], with their own fold: the `opera` engine's
//! Monte Carlo baseline folds Welford statistics, [`solve_collocation`] the
//! discrete projection.
//!
//! Every point solve is independent, so a sweep fans out over a `rayon`
//! pool ([`fan_out`]). Every realised matrix has the nominal sparsity
//! structure, so all point factorisations share **one**
//! [`SymbolicCholesky`](opera_sparse::SymbolicCholesky) analysis, and up to
//! [`LOCKSTEP_LANES`](opera_sparse::LOCKSTEP_LANES) points step in lock step
//! through one [`CholeskyGroup`](opera_sparse::CholeskyGroup) solve per
//! stage. Each group column does exactly the arithmetic of a point stepped
//! on its own, through the stage formulas of [`opera_sparse::stepping`].
//! Every state is folded as soon as it is computed, each time row in point
//! order, so no full trace is kept and the results are bit-identical for
//! every worker-thread count. The `opera` crate integrates collocation as
//! `OperaEngine::collocation(&CollocationConfig)`.
//!
//! # Example
//!
//! ```
//! use opera_collocation::{build_grid, solve_collocation, GridKind, TransientSpec};
//! use opera_grid::GridSpec;
//! use opera_pce::OrthogonalBasis;
//! use opera_variation::{StochasticGridModel, VariationSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridSpec::small_test(100).build()?;
//! let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults())?;
//! let basis = OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2)?;
//! let nodes = build_grid(GridKind::Smolyak, &model.families(), 2)?;
//! let run = solve_collocation(
//!     &model,
//!     &basis,
//!     &nodes,
//!     &TransientSpec::new(0.25e-9, 1.0e-9),
//! )?;
//! // One shared symbolic analysis served every node factorisation.
//! assert_eq!(run.stats.symbolic_analyses, 1);
//! assert_eq!(run.stats.numeric_factorizations, 2 * run.stats.nodes);
//! // The zeroth coefficient is the mean voltage.
//! assert!(run.coefficients[0][0].iter().all(|&v| v > 0.0));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod driver;
mod error;
mod sampler;

pub use driver::{
    build_grid, solve_collocation, CollocationRun, CollocationStats, GridKind, StepScheme,
    TransientSpec,
};
pub use error::CollocationError;
pub use opera_sparse::stepping::TR_BDF2_GAMMA;
pub use sampler::{fan_out, sample_points, PointSink, SweepTrace};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CollocationError>;

#[cfg(test)]
mod tests {
    use super::*;
    use opera_grid::GridSpec;
    use opera_pce::OrthogonalBasis;
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn setup(nodes: usize, seed: u64) -> (StochasticGridModel, OrthogonalBasis) {
        let grid = GridSpec::small_test(nodes).with_seed(seed).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        let basis =
            OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2).unwrap();
        (model, basis)
    }

    fn run_level2(model: &StochasticGridModel, basis: &OrthogonalBasis) -> CollocationRun {
        let nodes = build_grid(GridKind::Smolyak, &model.families(), 2).unwrap();
        solve_collocation(model, basis, &nodes, &TransientSpec::new(0.25e-9, 1.0e-9)).unwrap()
    }

    #[test]
    fn zero_variation_collapses_to_the_nominal_transient() {
        let grid = GridSpec::small_test(80).with_seed(5).build().unwrap();
        let model = StochasticGridModel::inter_die(&grid, &VariationSpec::none()).unwrap();
        let basis =
            OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2).unwrap();
        let run = run_level2(&model, &basis);
        let k = run.times.len() - 1;
        for n in 0..run.node_count {
            // All higher coefficients vanish: the response does not depend
            // on ξ at all.
            for i in 1..basis.len() {
                assert!(
                    run.coefficients[k][i][n].abs() < 1e-9,
                    "coefficient ({k}, {i}, {n}) = {}",
                    run.coefficients[k][i][n]
                );
            }
            assert!(run.coefficients[k][0][n] > 0.0);
        }
    }

    #[test]
    fn shared_symbolic_matches_from_scratch_factorisations() {
        // The whole point of the shared analysis is that it changes nothing
        // numerically: spot-check one realised node solve against plain
        // CholeskyFactor::factor on the same matrices.
        use opera_sparse::{CholeskyFactor, SymbolicCholesky};
        let (model, _) = setup(90, 13);
        let h = 0.25e-9;
        let companion_nominal = model
            .nominal_conductance()
            .add_scaled(&model.nominal_capacitance().scaled(1.0 / h), 1.0)
            .unwrap();
        let symbolic = SymbolicCholesky::analyze(&companion_nominal).unwrap();
        let xi = [1.3, -0.8];
        let g = model.sample_conductance(&xi).unwrap();
        let shared = symbolic.factor_numeric(&g).unwrap();
        let scratch = CholeskyFactor::factor(&g).unwrap();
        let b = model.sample_excitation(0.0, &xi).unwrap();
        let x_shared = shared.solve(&b);
        let x_scratch = scratch.solve(&b);
        for (u, v) in x_shared.iter().zip(&x_scratch) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn statistics_are_bit_identical_across_thread_counts() {
        let (model, basis) = setup(100, 21);
        let nodes = build_grid(GridKind::Smolyak, &model.families(), 2).unwrap();
        for scheme in [StepScheme::BackwardEuler, StepScheme::TrBdf2] {
            let mut spec = TransientSpec::new(0.25e-9, 1.0e-9);
            spec.scheme = scheme;
            let mut runs = Vec::new();
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let run = pool
                    .install(|| solve_collocation(&model, &basis, &nodes, &spec))
                    .unwrap();
                runs.push(run);
            }
            for other in &runs[1..] {
                assert_eq!(runs[0].times, other.times);
                assert_eq!(
                    runs[0].coefficients, other.coefficients,
                    "{scheme:?} coefficients depend on the worker-thread count"
                );
            }
        }
    }

    #[test]
    fn counters_report_one_symbolic_analysis_and_two_factors_per_node() {
        let (model, basis) = setup(80, 2);
        let run = run_level2(&model, &basis);
        assert_eq!(run.stats.symbolic_analyses, 1);
        assert!(run.stats.nodes > 1);
        assert_eq!(run.stats.numeric_factorizations, 2 * run.stats.nodes);
    }

    #[test]
    fn trapezoidal_scheme_agrees_with_backward_euler_on_smooth_horizons() {
        let (model, basis) = setup(80, 3);
        let nodes = build_grid(GridKind::Smolyak, &model.families(), 1).unwrap();
        let mut spec = TransientSpec::new(0.1e-9, 1.0e-9);
        let be = solve_collocation(&model, &basis, &nodes, &spec).unwrap();
        spec.scheme = StepScheme::Trapezoidal;
        let trap = solve_collocation(&model, &basis, &nodes, &spec).unwrap();
        let k = be.times.len() - 1;
        for n in (0..be.node_count).step_by(11) {
            let d = (be.coefficients[k][0][n] - trap.coefficients[k][0][n]).abs();
            assert!(d < 1e-3 * be.coefficients[k][0][n].abs(), "diff {d}");
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (model, basis) = setup(80, 4);
        let nodes = build_grid(GridKind::Tensor, &model.families(), 1).unwrap();
        let bad_step = TransientSpec::new(0.0, 1.0e-9);
        assert!(matches!(
            solve_collocation(&model, &basis, &nodes, &bad_step),
            Err(CollocationError::InvalidOptions { .. })
        ));
        let mut bad_scale = TransientSpec::new(0.25e-9, 1.0e-9);
        bad_scale.current_scale = f64::NAN;
        assert!(solve_collocation(&model, &basis, &nodes, &bad_scale).is_err());
        // Mismatched variable counts.
        let wrong_grid = build_grid(
            GridKind::Smolyak,
            &[opera_pce::PolynomialFamily::Hermite; 3],
            1,
        )
        .unwrap();
        assert!(matches!(
            solve_collocation(
                &model,
                &basis,
                &wrong_grid,
                &TransientSpec::new(0.25e-9, 1.0e-9)
            ),
            Err(CollocationError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn current_scale_rescales_only_the_switching_part() {
        let (model, basis) = setup(90, 7);
        let nodes = build_grid(GridKind::Smolyak, &model.families(), 1).unwrap();
        let base = solve_collocation(&model, &basis, &nodes, &TransientSpec::new(0.25e-9, 1.0e-9))
            .unwrap();
        let mut spec = TransientSpec::new(0.25e-9, 1.0e-9);
        spec.current_scale = 2.0;
        let heavy = solve_collocation(&model, &basis, &nodes, &spec).unwrap();
        // At t = 0 (quiescence) the two sweeps coincide.
        for n in (0..base.node_count).step_by(13) {
            assert!((base.coefficients[0][0][n] - heavy.coefficients[0][0][n]).abs() < 1e-12);
        }
        // Later, the heavy sweep droops further below the supply.
        let k = base.times.len() - 1;
        let mean = |run: &CollocationRun| {
            run.coefficients[k][0]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        };
        assert!(mean(&heavy) < mean(&base));
    }
}
