//! The special case of Section 5.1: variations only in the excitation.
//!
//! When only the right-hand side of the MNA equation is stochastic (for
//! example leakage currents driven by per-region threshold-voltage
//! variations), projecting onto the basis decouples the Galerkin system into
//! `N + 1` *independent* deterministic systems
//!
//! ```text
//! (G + sC) x_j(s) = U_j(s),    j = 0 … N            (paper Eq. 27)
//! ```
//!
//! so a single factorisation of the nominal companion matrix is shared by all
//! right-hand sides. Unlike the bounds of prior work, the expansion gives the
//! exact mean, variance and higher moments of the response.
//!
//! This is the multi-RHS hot loop of the whole system: at every time step all
//! `N + 1` chaos-coefficient excitation columns form one dense
//! [`opera_sparse::Panel`] and advance through a **single blocked
//! panel solve** of the shared companion factor ([`solve_leakage`]), instead
//! of `N + 1` sequential scalar solves. The per-column path is kept as
//! [`solve_leakage_reference`] — it fans the independent columns out over the
//! installed [`Parallelism`](crate::parallel::Parallelism) pool — and both
//! paths produce bit-identical coefficients (each panel column performs
//! exactly the scalar arithmetic), which `perf_report` uses to measure the
//! panel speedup honestly.

use opera_grid::PowerGrid;
use opera_pce::{GalerkinCoupling, OrthogonalBasis};
use opera_sparse::SolveWorkspace;
use opera_variation::{Excitation, LeakageModel};
use rayon::prelude::*;

use crate::solver::DirectPrepared;
use crate::stochastic::StochasticSolution;
use crate::transient::{
    integrate_fixed_step, CompanionFamily, IntegrationMethod, TransientOptions, TR_BDF2_GAMMA,
};
use crate::{OperaError, Result};

/// Options for the special-case (RHS-only variation) solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecialCaseOptions {
    /// Truncation order of the expansion (the paper uses 2 in its example).
    pub order: u32,
    /// Transient analysis options.
    pub transient: TransientOptions,
}

impl SpecialCaseOptions {
    /// Order-2 options, matching the paper's example.
    pub fn order2(transient: TransientOptions) -> Self {
        SpecialCaseOptions {
            order: 2,
            transient,
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for order 0 or invalid
    /// transient options.
    pub fn validate(&self) -> Result<()> {
        if self.order == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "expansion order must be at least 1".to_string(),
            });
        }
        self.transient.validate()
    }
}

/// Solves the RHS-only variation problem: switching currents are
/// deterministic, leakage currents are lognormal with per-region `Vth`
/// variations.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for inconsistent inputs and
/// propagates factorisation errors.
///
/// # Example
///
/// ```
/// use opera::special_case::{solve_leakage, SpecialCaseOptions};
/// use opera::transient::TransientOptions;
/// use opera_grid::GridSpec;
/// use opera_variation::LeakageModel;
///
/// # fn main() -> Result<(), opera::OperaError> {
/// let grid = GridSpec::small_test(100).build()?;
/// let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 2.0e-6, 0.03, 23.0)?;
/// let options = SpecialCaseOptions::order2(TransientOptions::new(0.1e-9, 1.0e-9));
/// let solution = solve_leakage(&grid, &leakage, &options)?;
/// assert_eq!(solution.basis_size(), 6);
/// # Ok(())
/// # }
/// ```
pub fn solve_leakage(
    grid: &PowerGrid,
    leakage: &LeakageModel,
    options: &SpecialCaseOptions,
) -> Result<StochasticSolution> {
    let sys = LeakageSystem::build(grid, leakage, options)?;
    let (n, size) = (sys.n, sys.size);

    // Panel transient: the N + 1 chaos-coefficient columns advance in lock
    // step, one blocked multi-RHS solve per time point. Only the j = 0
    // column depends on time; the leakage-coefficient columns are constant,
    // so they are written on the first fill only.
    let mut coefficients: Vec<Vec<Vec<f64>>> = Vec::with_capacity(sys.times.len());
    let mut switching = Excitation::for_grid(grid, 1.0);
    let mut primed = false;
    integrate_fixed_step(
        &sys.prepared,
        options.transient.method,
        &sys.times,
        (n, size),
        &mut SolveWorkspace::with_capacity(n * size),
        |t, u| {
            let nominal = u.col_mut(0);
            switching.nominal_into(t, nominal);
            for (u_n, inj) in nominal.iter_mut().zip(&sys.injections[0]) {
                *u_n -= inj;
            }
            if !primed {
                for j in 1..size {
                    u.col_mut(j).copy_from_slice(&sys.rhs_at(j, t));
                }
                primed = true;
            }
            Ok(())
        },
        |_, state| coefficients.push(state.columns().map(<[f64]>::to_vec).collect()),
    )?;
    Ok(StochasticSolution::new(
        sys.basis,
        sys.times,
        n,
        coefficients,
    ))
}

/// Per-column reference implementation of [`solve_leakage`]: the `N + 1`
/// independent systems are solved one right-hand side at a time, fanned out
/// over the installed [`Parallelism`](crate::parallel::Parallelism) pool.
///
/// This is the pre-panel hot path, kept so the panel speedup can be measured
/// against it (`perf_report`'s `galerkin_multi_rhs` section) and so property
/// tests can assert the two paths stay **bit-identical**. Prefer
/// [`solve_leakage`] everywhere else.
///
/// # Errors
///
/// Same as [`solve_leakage`].
pub fn solve_leakage_reference(
    grid: &PowerGrid,
    leakage: &LeakageModel,
    options: &SpecialCaseOptions,
) -> Result<StochasticSolution> {
    let sys = LeakageSystem::build(grid, leakage, options)?;
    let (n, size) = (sys.n, sys.size);
    let times = &sys.times;

    // The N + 1 systems are independent, so they run on the installed rayon
    // pool; the shared factors are only read. Each worker produces the full
    // time series of its coefficient, per_j[j][k][node].
    let two_stage = options.transient.method == IntegrationMethod::TrBdf2;
    let (dc_factor, companion) = (&sys.prepared.dc, &sys.prepared.companion);
    let per_j: Vec<Vec<Vec<f64>>> = (0..size)
        .into_par_iter()
        .map(|j| {
            let mut ws = SolveWorkspace::new();
            let mut stage = vec![0.0; n];
            let u0 = sys.rhs_at(j, 0.0);
            let mut series = Vec::with_capacity(times.len());
            series.push(dc_factor.solve(&u0));
            let mut u_prev = u0;
            let mut t_prev = times[0];
            for &t in &times[1..] {
                let u_next = sys.rhs_at(j, t);
                let state = &series[series.len() - 1];
                let mut next = vec![0.0; n];
                if two_stage {
                    let u_mid = sys.rhs_at(j, t_prev + TR_BDF2_GAMMA * (t - t_prev));
                    companion.step_tr_bdf2_into(
                        state, &u_prev, &u_mid, &u_next, &mut stage, &mut next, &mut ws,
                    );
                } else {
                    companion.step_into(state, &u_prev, &u_next, &mut next, &mut ws);
                }
                series.push(next);
                u_prev = u_next;
                t_prev = t;
            }
            series
        })
        .collect();

    // Transpose into the coefficients[k][j][node] layout the solution expects.
    let mut coefficients = vec![vec![Vec::new(); size]; times.len()];
    for (j, series) in per_j.into_iter().enumerate() {
        for (k, state) in series.into_iter().enumerate() {
            coefficients[k][j] = state;
        }
    }
    Ok(StochasticSolution::new(
        sys.basis,
        sys.times,
        n,
        coefficients,
    ))
}

/// Rejects a leakage model whose node count differs from the grid's, before
/// any excitation silently pairs the shorter vector with the longer one.
pub(crate) fn check_leakage_nodes(grid: &PowerGrid, leakage: &LeakageModel) -> Result<()> {
    if leakage.node_count() == grid.node_count() {
        return Ok(());
    }
    Err(OperaError::InvalidOptions {
        reason: format!(
            "leakage model covers {} nodes but the grid has {}",
            leakage.node_count(),
            grid.node_count()
        ),
    })
}

/// The shared setup of both special-case drivers: basis, projected
/// injections, the two shared factorisations and the time grid.
struct LeakageSystem<'a> {
    grid: &'a PowerGrid,
    basis: OrthogonalBasis,
    injections: Vec<Vec<f64>>,
    prepared: DirectPrepared,
    times: Vec<f64>,
    n: usize,
    size: usize,
}

impl<'a> LeakageSystem<'a> {
    fn build(
        grid: &'a PowerGrid,
        leakage: &LeakageModel,
        options: &SpecialCaseOptions,
    ) -> Result<Self> {
        options.validate()?;
        check_leakage_nodes(grid, leakage)?;
        let basis = OrthogonalBasis::total_order_mixed(
            leakage.families(),
            leakage.region_count(),
            options.order,
        )?;
        let coupling = GalerkinCoupling::new(&basis)?;
        // Projected leakage injections: inj[j][node] (amperes drawn).
        let injections = leakage.projected_injections(&basis, &coupling)?;

        // One factorisation of G for the DC start and one of the companion
        // matrix for the time stepping — shared by all N + 1 systems (the
        // whole point of the special case).
        let prepared = DirectPrepared::new(
            CompanionFamily::new(&grid.conductance_matrix(), &grid.capacitance_matrix())?,
            options.transient.time_step,
            options.transient.method,
        )?;

        Ok(LeakageSystem {
            grid,
            n: grid.node_count(),
            size: basis.len(),
            basis,
            injections,
            prepared,
            times: options.transient.time_points(),
        })
    }

    /// Right-hand side for coefficient `j` at time `t`:
    ///   `j = 0` : nominal switching excitation minus the mean leakage,
    ///   `j > 0` : minus the `j`-th leakage coefficient (time independent).
    fn rhs_at(&self, j: usize, t: f64) -> Vec<f64> {
        if j == 0 {
            let mut u = self.grid.excitation(t);
            for (u_n, inj) in u.iter_mut().zip(&self.injections[0]) {
                *u_n -= inj;
            }
            u
        } else {
            self.injections[j].iter().map(|&inj| -inj).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_leakage, MonteCarloOptions};
    use opera_grid::GridSpec;

    fn setup() -> (opera_grid::PowerGrid, LeakageModel) {
        let grid = GridSpec::small_test(90).with_seed(13).build().unwrap();
        // Sizeable leakage so its variation is visible next to the switching
        // currents: a few percent of the block current budget per node.
        let leakage =
            LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
        (grid, leakage)
    }

    #[test]
    fn special_case_matches_leakage_monte_carlo() {
        let (grid, leakage) = setup();
        let topts = TransientOptions::new(0.2e-9, 1.0e-9);
        let sol = solve_leakage(&grid, &leakage, &SpecialCaseOptions::order2(topts)).unwrap();
        let mc = run_leakage(&grid, &leakage, &MonteCarloOptions::new(300, 2, topts)).unwrap();
        let (node, k, _) = sol.worst_mean_drop(grid.vdd());
        let mean_err = (sol.mean_at(k, node) - mc.mean[k][node]).abs() / grid.vdd();
        assert!(mean_err < 2e-3, "mean error {mean_err}");
        let s_opera = sol.std_dev_at(k, node);
        let s_mc = mc.std_dev_at(k, node);
        assert!(s_mc > 0.0);
        assert!(
            (s_opera - s_mc).abs() / s_mc < 0.3,
            "sigma mismatch {s_opera} vs {s_mc}"
        );
    }

    #[test]
    fn panel_path_is_bit_identical_to_per_column_reference() {
        let (grid, leakage) = setup();
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
            IntegrationMethod::TrBdf2,
        ] {
            let opts = SpecialCaseOptions {
                order: 2,
                transient: TransientOptions {
                    time_step: 0.2e-9,
                    end_time: 1.0e-9,
                    method,
                },
            };
            let panel = solve_leakage(&grid, &leakage, &opts).unwrap();
            let reference = solve_leakage_reference(&grid, &leakage, &opts).unwrap();
            assert_eq!(panel.times(), reference.times());
            for k in 0..panel.times().len() {
                for j in 0..panel.basis_size() {
                    for node in 0..grid.node_count() {
                        assert_eq!(
                            panel.coefficient(k, j, node),
                            reference.coefficient(k, j, node),
                            "coefficient ({k}, {j}, {node}) differs under {method:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mean_reflects_lognormal_leakage_bias() {
        // The mean response must account for E[exp(−sξ)] > exp(0): the mean
        // drop is larger than the drop at the nominal (median) leakage.
        let (grid, leakage) = setup();
        let topts = TransientOptions::new(0.5e-9, 1.0e-9);
        let sol = solve_leakage(&grid, &leakage, &SpecialCaseOptions::order2(topts)).unwrap();
        // Zero-variance model with the same median leakage.
        let no_var = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.0, 23.0).unwrap();
        let sol0 = solve_leakage(&grid, &no_var, &SpecialCaseOptions::order2(topts)).unwrap();
        let (node, k, _) = sol.worst_mean_drop(grid.vdd());
        assert!(sol.mean_at(k, node) < sol0.mean_at(k, node));
        // And the zero-variance case has (numerically) zero spread.
        assert!(sol0.std_dev_at(k, node) < 1e-12);
    }

    #[test]
    fn region_variables_affect_their_own_region_most() {
        let (grid, leakage) = setup();
        let topts = TransientOptions::new(0.5e-9, 1.0e-9);
        let sol = solve_leakage(&grid, &leakage, &SpecialCaseOptions::order2(topts)).unwrap();
        let k = sol.times().len() - 1;
        // A node deep in region 0 must load mostly on ξ₁; one in region 1 on ξ₂.
        let node_r0 = (0..grid.node_count())
            .find(|&n| leakage.region_of(n) == 0)
            .unwrap();
        let node_r1 = (0..grid.node_count())
            .rev()
            .find(|&n| leakage.region_of(n) == 1)
            .unwrap();
        let xi1 = sol.basis().linear_index(0).unwrap();
        let xi2 = sol.basis().linear_index(1).unwrap();
        assert!(sol.coefficient(k, xi1, node_r0).abs() > sol.coefficient(k, xi2, node_r0).abs());
        assert!(sol.coefficient(k, xi2, node_r1).abs() > sol.coefficient(k, xi1, node_r1).abs());
    }

    #[test]
    fn mismatched_node_counts_are_rejected() {
        let (grid, _) = setup();
        let wrong =
            LeakageModel::uniform_slices(grid.node_count() + 5, 2, 1e-6, 0.03, 23.0).unwrap();
        let opts = SpecialCaseOptions::order2(TransientOptions::new(0.2e-9, 1.0e-9));
        assert!(matches!(
            solve_leakage(&grid, &wrong, &opts),
            Err(OperaError::InvalidOptions { .. })
        ));
        let bad_order = SpecialCaseOptions {
            order: 0,
            transient: TransientOptions::new(0.2e-9, 1.0e-9),
        };
        let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 1e-6, 0.03, 23.0).unwrap();
        assert!(solve_leakage(&grid, &leakage, &bad_order).is_err());
    }
}
