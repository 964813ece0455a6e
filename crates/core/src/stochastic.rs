//! The OPERA stochastic transient solver.
//!
//! One transient analysis of the Galerkin-augmented system yields the full
//! polynomial-chaos representation of every node voltage at every time step:
//! the coefficients `a_i(t)` of `x(t, ξ) = Σ_i a_i(t) ψ_i(ξ)`. Mean, variance
//! and distributions then follow in closed form (paper Eq. 23), which is what
//! makes OPERA one to two orders of magnitude faster than Monte Carlo.
//!
//! How the augmented system is solved is delegated to a pluggable
//! [`SolverBackend`](crate::solver::SolverBackend); this module owns only the
//! backend-independent time-stepping loop. The
//! [`OperaEngine`](crate::engine::OperaEngine) drives it: it keeps the
//! assembled system and prepared factorisation alive across scenarios, and
//! [`OperaEngine::solve`](crate::engine::OperaEngine::solve) returns the
//! [`StochasticSolution`].

use opera_pce::{OrthogonalBasis, PceSeries};
use opera_sparse::{Panel, SolveWorkspace};
use opera_variation::{Excitation, StochasticGridModel};

use crate::adaptive::{integrate_adaptive, AdaptiveOptions, AdaptiveStats};
use crate::galerkin::GalerkinSystem;
use crate::solver::PreparedSolver;
use crate::transient::{integrate_fixed_step, IntegrationMethod};
use crate::Result;

/// The stochastic voltage response: polynomial-chaos coefficients of every
/// node voltage at every time point.
#[derive(Debug, Clone)]
pub struct StochasticSolution {
    basis: OrthogonalBasis,
    times: Vec<f64>,
    node_count: usize,
    /// `coefficients[k][i][n]`: coefficient of basis function `ψ_i` for node
    /// `n` at time `times[k]`.
    coefficients: Vec<Vec<Vec<f64>>>,
}

impl StochasticSolution {
    /// Builds a solution from raw per-time coefficient blocks. Intended for
    /// the solvers in this crate; the lengths must be consistent.
    pub(crate) fn new(
        basis: OrthogonalBasis,
        times: Vec<f64>,
        node_count: usize,
        coefficients: Vec<Vec<Vec<f64>>>,
    ) -> Self {
        debug_assert_eq!(times.len(), coefficients.len());
        StochasticSolution {
            basis,
            times,
            node_count,
            coefficients,
        }
    }

    /// The basis the response is expanded in.
    pub fn basis(&self) -> &OrthogonalBasis {
        &self.basis
    }

    /// Time points of the transient analysis.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of grid nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of basis functions `N + 1`.
    pub fn basis_size(&self) -> usize {
        self.basis.len()
    }

    /// Coefficient of basis function `i` for node `node` at time index `k`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn coefficient(&self, k: usize, i: usize, node: usize) -> f64 {
        self.coefficients[k][i][node]
    }

    /// Mean voltage of `node` at time index `k` (paper Eq. 23: the mean is
    /// the zeroth coefficient).
    pub fn mean_at(&self, k: usize, node: usize) -> f64 {
        self.coefficients[k][0][node]
    }

    /// Variance of the voltage of `node` at time index `k`
    /// (`Σ_{i>0} a_i² ⟨ψ_i²⟩`).
    pub fn variance_at(&self, k: usize, node: usize) -> f64 {
        (1..self.basis.len())
            .map(|i| {
                let a = self.coefficients[k][i][node];
                a * a * self.basis.norm_squared(i)
            })
            .sum()
    }

    /// Standard deviation of the voltage of `node` at time index `k`.
    pub fn std_dev_at(&self, k: usize, node: usize) -> f64 {
        self.variance_at(k, node).sqrt()
    }

    /// The full scalar expansion of one node voltage at one time point.
    ///
    /// # Errors
    ///
    /// Propagates coefficient-length errors (cannot happen for solutions
    /// produced by this crate).
    pub fn node_series(&self, k: usize, node: usize) -> Result<PceSeries> {
        let coeffs: Vec<f64> = (0..self.basis.len())
            .map(|i| self.coefficients[k][i][node])
            .collect();
        Ok(PceSeries::from_coefficients(&self.basis, coeffs)?)
    }

    /// The time index and value of the worst (largest) mean voltage drop of a
    /// given node, measured against `vdd`.
    pub fn worst_mean_drop_of_node(&self, vdd: f64, node: usize) -> (usize, f64) {
        let mut best = (0usize, f64::NEG_INFINITY);
        for k in 0..self.times.len() {
            let drop = vdd - self.mean_at(k, node);
            if drop > best.1 {
                best = (k, drop);
            }
        }
        best
    }

    /// The node, time index and value of the worst mean voltage drop over the
    /// whole grid.
    pub fn worst_mean_drop(&self, vdd: f64) -> (usize, usize, f64) {
        let mut best = (0usize, 0usize, f64::NEG_INFINITY);
        for k in 0..self.times.len() {
            for n in 0..self.node_count {
                let drop = vdd - self.mean_at(k, n);
                if drop > best.2 {
                    best = (n, k, drop);
                }
            }
        }
        best
    }
}

/// Adaptive variant of [`run_prepared_panel`]: the augmented transient is
/// advanced by the LTE-driven TR-BDF2 controller of [`crate::adaptive`]
/// through the prepared solver, re-stepped at each step-size change (one
/// symbolic analysis in its
/// [`CompanionFamily`](crate::transient::CompanionFamily); at most one
/// numeric refactorisation per change, none for a change back to a step
/// size whose factor the controller still holds), and
/// the polynomial-chaos coefficients are reported on `times` via dense
/// interpolation — bit-exact copies wherever an output time coincides with an
/// accepted step.
pub(crate) fn run_prepared_adaptive(
    prepared: &dyn PreparedSolver,
    system: &GalerkinSystem,
    mut excitation: impl FnMut(f64, &mut [f64]),
    times: Vec<f64>,
    adaptive: &AdaptiveOptions,
) -> Result<(StochasticSolution, AdaptiveStats)> {
    let n = system.node_count();
    let dim = system.dim();
    let mut u0 = Panel::zeros(dim, 1);
    excitation(times.first().copied().unwrap_or(0.0), u0.data_mut());
    let mut v0 = Panel::zeros(dim, 1);
    prepared.solve_dc_panel(&u0, &mut v0, &mut SolveWorkspace::with_capacity(dim))?;
    // Each output row is split into its chaos coefficients as it arrives:
    // the run keeps neither the stacked rows nor the accepted states.
    let mut coefficients = Vec::with_capacity(times.len());
    let stats = integrate_adaptive(
        prepared,
        v0,
        excitation,
        &times,
        adaptive,
        |_, state| coefficients.push(system.split_solution(state)),
        |_, _| {},
    )?;
    Ok((
        StochasticSolution::new(system.basis().clone(), times, n, coefficients),
        stats,
    ))
}

/// The augmented transient behind every fixed-step OPERA solve: runs one
/// transient for *several scenarios at once*, where scenario `j` drives the
/// system with `model`'s excitation at current scale `scales[j]`. At every
/// time step the scenario states form the columns of one [`Panel`] and
/// advance through a single blocked multi-RHS solve, so the factor is
/// streamed once per step instead of once per scenario per step. A single
/// scenario is the one-column case.
///
/// The first column of each scale has an [`Excitation`] that writes its
/// stacked form straight into the excitation panel; a later column of the
/// same scale copies it. No stacked excitation is allocated per step.
/// Column `j` of the panel is bit-identical to running scenario `j` alone.
pub(crate) fn run_prepared_panel(
    prepared: &dyn PreparedSolver,
    system: &GalerkinSystem,
    model: &StochasticGridModel,
    scales: &[f64],
    times: Vec<f64>,
    method: IntegrationMethod,
) -> Result<Vec<StochasticSolution>> {
    let dim = system.dim();
    let k = scales.len();
    let earlier = |j: usize| {
        scales[..j]
            .iter()
            .position(|s| s.to_bits() == scales[j].to_bits())
    };
    let mut excitations: Vec<Option<Excitation<'_>>> = (0..k)
        .map(|j| {
            earlier(j)
                .is_none()
                .then(|| Excitation::for_model(model, scales[j]))
        })
        .collect();

    let mut coefficients: Vec<Vec<Vec<Vec<f64>>>> =
        (0..k).map(|_| Vec::with_capacity(times.len())).collect();
    integrate_fixed_step(
        prepared,
        method,
        &times,
        (dim, k),
        &mut SolveWorkspace::with_capacity(dim * k),
        |t, panel| {
            for (j, excitation) in excitations.iter_mut().enumerate() {
                let (written, rest) = panel.data_mut().split_at_mut(j * dim);
                let column = &mut rest[..dim];
                if let Some(excitation) = excitation {
                    excitation.stacked_into(t, system.coupling(), column);
                } else if let Some(first) = earlier(j) {
                    column.copy_from_slice(&written[first * dim..][..dim]);
                }
            }
            Ok(())
        },
        |_, state| {
            for (j, per_scenario) in coefficients.iter_mut().enumerate() {
                per_scenario.push(system.split_solution(state.col(j)));
            }
        },
    )?;
    Ok(coefficients
        .into_iter()
        .map(|per_scenario| {
            StochasticSolution::new(
                system.basis().clone(),
                times.clone(),
                system.node_count(),
                per_scenario,
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::OperaEngine;
    use crate::solver::{BlockJacobiCg, DirectCholesky, SolverBackend};
    use crate::transient::{solve_transient, TransientOptions};
    use opera_grid::GridSpec;
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn small_setup() -> (opera_grid::PowerGrid, StochasticGridModel) {
        let grid = GridSpec::small_test(120).with_seed(9).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        (grid, model)
    }

    /// One `OperaEngine::solve()` of `model` at expansion `order` on the
    /// transient `topts` with `solver`.
    fn solve_with(
        model: &StochasticGridModel,
        order: u32,
        topts: TransientOptions,
        solver: Arc<dyn SolverBackend>,
    ) -> Result<StochasticSolution> {
        OperaEngine::for_model(model.clone())
            .order(order)
            .time_step(topts.time_step)
            .end_time(topts.end_time)
            .integration_method(topts.method)
            .solver(solver)
            .build()?
            .solve()
    }

    /// [`solve_with`] on the engine's default solver.
    fn engine_solve(
        model: &StochasticGridModel,
        order: u32,
        topts: TransientOptions,
    ) -> Result<StochasticSolution> {
        solve_with(model, order, topts, crate::solver::default_backend())
    }

    #[test]
    fn zero_variation_reduces_to_deterministic_transient() {
        let grid = GridSpec::small_test(90).with_seed(4).build().unwrap();
        let model = StochasticGridModel::inter_die(&grid, &VariationSpec::none()).unwrap();
        let topts = TransientOptions::new(0.1e-9, 1.0e-9);
        let opera = engine_solve(&model, 2, topts).unwrap();
        let det = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| grid.excitation(t),
            &topts,
        )
        .unwrap();
        for k in 0..opera.times().len() {
            for n in 0..grid.node_count() {
                assert!(
                    (opera.mean_at(k, n) - det.state_at(k)[n]).abs() < 1e-9,
                    "mean differs at time {k}, node {n}"
                );
                assert!(opera.std_dev_at(k, n) < 1e-9);
            }
        }
    }

    #[test]
    fn variation_produces_nonzero_spread_at_loaded_nodes() {
        let (grid, model) = small_setup();
        let sol = engine_solve(&model, 2, TransientOptions::new(0.1e-9, 1.0e-9)).unwrap();
        let (node, k, drop) = sol.worst_mean_drop(grid.vdd());
        assert!(drop > 0.0);
        let sigma = sol.std_dev_at(k, node);
        assert!(sigma > 0.0, "expected nonzero spread at the worst node");
        // The ±3σ spread should be a sizeable fraction of the nominal drop
        // (the paper reports ≈ ±35 %), certainly above 5 % for these settings.
        assert!(3.0 * sigma / drop > 0.05, "3σ/µ0 = {}", 3.0 * sigma / drop);
    }

    #[test]
    fn mean_is_close_to_nominal_voltage() {
        // Paper: "the mean voltage drops ... with variations was more or less
        // the same as the nominal voltage drops without variations".
        let (grid, model) = small_setup();
        let topts = TransientOptions::new(0.1e-9, 1.0e-9);
        let sol = engine_solve(&model, 2, topts).unwrap();
        let det = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| grid.excitation(t),
            &topts,
        )
        .unwrap();
        let (node, k, _) = sol.worst_mean_drop(grid.vdd());
        let diff = (sol.mean_at(k, node) - det.state_at(k)[node]).abs();
        assert!(
            diff / grid.vdd() < 0.01,
            "mean shift {diff} is larger than 1 % of VDD"
        );
    }

    #[test]
    fn node_series_matches_solution_statistics() {
        let (_grid, model) = small_setup();
        let sol = engine_solve(&model, 2, TransientOptions::new(0.2e-9, 1.0e-9)).unwrap();
        let k = sol.times().len() - 1;
        let series = sol.node_series(k, 3).unwrap();
        assert!((series.mean() - sol.mean_at(k, 3)).abs() < 1e-14);
        assert!((series.variance() - sol.variance_at(k, 3)).abs() < 1e-16);
    }

    #[test]
    fn order_one_and_two_agree_on_the_mean_to_first_order() {
        let (_grid, model) = small_setup();
        let topts = TransientOptions::new(0.2e-9, 1.0e-9);
        let sol1 = engine_solve(&model, 1, topts).unwrap();
        let sol2 = engine_solve(&model, 2, topts).unwrap();
        let k = sol1.times().len() - 1;
        for n in (0..model.node_count()).step_by(7) {
            let d = (sol1.mean_at(k, n) - sol2.mean_at(k, n)).abs();
            assert!(d < 5e-4, "order-1 and order-2 means differ by {d}");
        }
    }

    #[test]
    fn default_solver_is_the_kronecker_preconditioned_cg() {
        let (_grid, model) = small_setup();
        let engine = OperaEngine::for_model(model)
            .time_step(0.1e-9)
            .end_time(1.0e-9)
            .build()
            .unwrap();
        assert_eq!(
            engine.solver().name(),
            crate::solver::default_backend().name()
        );
        assert_eq!(engine.solver().name(), crate::solver::BLOCK_JACOBI_CG);
    }

    #[test]
    fn iterative_solver_matches_direct_solver_with_trapezoidal_integration() {
        // Exercises the trapezoidal branch of the iterative stepping code.
        let (grid, model) = small_setup();
        let topts = TransientOptions {
            time_step: 0.1e-9,
            end_time: 1.0e-9,
            method: crate::transient::IntegrationMethod::Trapezoidal,
        };
        let direct = solve_with(&model, 2, topts, Arc::new(DirectCholesky)).unwrap();
        let iterative = solve_with(&model, 2, topts, Arc::new(BlockJacobiCg::default())).unwrap();
        let (node, k, _) = direct.worst_mean_drop(grid.vdd());
        assert!((direct.mean_at(k, node) - iterative.mean_at(k, node)).abs() < 1e-7 * grid.vdd());
        assert!(
            (direct.std_dev_at(k, node) - iterative.std_dev_at(k, node)).abs() < 1e-6 * grid.vdd()
        );
    }

    #[test]
    fn iterative_solver_matches_direct_solver() {
        let (grid, model) = small_setup();
        let topts = TransientOptions::new(0.1e-9, 1.0e-9);
        let direct = solve_with(&model, 2, topts, Arc::new(DirectCholesky)).unwrap();
        let iterative = solve_with(&model, 2, topts, Arc::new(BlockJacobiCg::default())).unwrap();
        for k in (0..direct.times().len()).step_by(3) {
            for n in (0..direct.node_count()).step_by(9) {
                assert!(
                    (direct.mean_at(k, n) - iterative.mean_at(k, n)).abs() < 1e-7 * grid.vdd(),
                    "mean differs at ({k}, {n})"
                );
                assert!(
                    (direct.std_dev_at(k, n) - iterative.std_dev_at(k, n)).abs()
                        < 1e-6 * grid.vdd(),
                    "sigma differs at ({k}, {n})"
                );
            }
        }
    }
}
