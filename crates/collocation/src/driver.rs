//! The collocation driver: the lock-step sampler at the quadrature nodes,
//! its states combined into polynomial-chaos coefficients by discrete
//! projection.

use opera_pce::sparse_grid::{smolyak_grid, tensor_grid, QuadratureGrid};
use opera_pce::{OrthogonalBasis, PolynomialFamily};
use opera_sparse::stepping::{check_window, time_points, IntegrationMethod};
use opera_variation::StochasticGridModel;

use crate::sampler::{sample_points, SweepTrace};
use crate::{CollocationError, Result};

/// Which multi-dimensional quadrature grid the collocation sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridKind {
    /// Smolyak sparse grid (combination technique) — the default; node
    /// counts grow polynomially with the number of random variables.
    #[default]
    Smolyak,
    /// Full tensor-product grid — exact to higher per-variable degree but
    /// exponential in the number of variables; useful as a reference.
    Tensor,
}

impl std::fmt::Display for GridKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridKind::Smolyak => write!(f, "smolyak"),
            GridKind::Tensor => write!(f, "tensor"),
        }
    }
}

/// Builds the quadrature grid of the requested kind at refinement `level`.
///
/// # Errors
///
/// Propagates grid-construction errors (empty family list, invalid family
/// parameters).
pub fn build_grid(
    kind: GridKind,
    families: &[PolynomialFamily],
    level: u32,
) -> Result<QuadratureGrid> {
    Ok(match kind {
        GridKind::Smolyak => smolyak_grid(families, level)?,
        GridKind::Tensor => tensor_grid(families, level)?,
    })
}

/// Time-integration scheme of the per-node transient solves: the
/// engine's scheme enum, whose stage formulas live in
/// [`opera_sparse::stepping`] with every other copy of the integrator.
pub type StepScheme = IntegrationMethod;

/// Transient options of the per-node deterministic solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Fixed time step in seconds.
    pub time_step: f64,
    /// End time in seconds (the solves cover `0..=end_time`).
    pub end_time: f64,
    /// Integration scheme.
    pub scheme: StepScheme,
    /// Multiplier applied to the switching currents, anchored at the
    /// quiescent `t = 0` excitation of each node's realisation (`1.0` = as
    /// modelled).
    pub current_scale: f64,
}

impl TransientSpec {
    /// Creates a backward-Euler spec with unscaled currents.
    pub fn new(time_step: f64, end_time: f64) -> Self {
        TransientSpec {
            time_step,
            end_time,
            scheme: StepScheme::BackwardEuler,
            current_scale: 1.0,
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`CollocationError::InvalidOptions`] for non-positive or
    /// non-finite step/end times, a step exceeding the horizon, or a negative
    /// or non-finite current scale.
    pub fn validate(&self) -> Result<()> {
        check_window(self.time_step, self.end_time)
            .map_err(|reason| CollocationError::InvalidOptions { reason })?;
        if !self.current_scale.is_finite() || self.current_scale < 0.0 {
            return Err(CollocationError::InvalidOptions {
                reason: format!(
                    "current_scale must be finite and non-negative, got {}",
                    self.current_scale
                ),
            });
        }
        Ok(())
    }

    /// The time points `t₀ = 0, t₁ = h, …` covered by the solves: the
    /// drift-free grid of [`opera_sparse::stepping::time_points`], which
    /// lands exactly on `end_time`.
    pub fn time_points(&self) -> Vec<f64> {
        time_points(self.time_step, self.end_time)
    }
}

/// Work counters of one sweep of the lock-step sampler — the test hooks
/// proving the setup-once/solve-many contract at the sparse-matrix level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollocationStats {
    /// Number of points (quadrature nodes, samples) solved.
    pub nodes: usize,
    /// Symbolic analyses (ordering + elimination tree + column counts)
    /// performed: `1`, as every point reuses the one shared analysis, or
    /// `2` when `G`'s pattern is not the companion's and its DC factors
    /// need an analysis of their own.
    pub symbolic_analyses: usize,
    /// Numeric-only factorisations performed against the shared analysis
    /// (two per node: the DC matrix `G(ξ)` and the companion `G(ξ) + C(ξ)/h`).
    pub numeric_factorizations: usize,
}

/// The result of a collocation sweep: polynomial-chaos coefficients in the
/// same `[time][basis][node]` layout the Galerkin solver produces, plus the
/// work counters.
#[derive(Debug, Clone)]
pub struct CollocationRun {
    /// Time points of the per-node transient solves.
    pub times: Vec<f64>,
    /// Number of spatial grid nodes.
    pub node_count: usize,
    /// `coefficients[k][i][n]`: coefficient of basis function `ψ_i` for
    /// spatial node `n` at time `times[k]`.
    pub coefficients: Vec<Vec<Vec<f64>>>,
    /// Work counters.
    pub stats: CollocationStats,
}

/// Runs the collocation sweep: the lock-step sampler ([`sample_points`])
/// at the quadrature nodes `ξ_q`, with the discrete projection
/// `c_i += w_q·ψ_i(ξ_q)/‖ψ_i‖² · v_q` as its fold. Every node's matrices are
/// factored against one shared symbolic analysis (no re-ordering, no
/// re-analysis), and every state is projected as soon as it is computed, so
/// no node's full trace is kept. The fold sees each time row in node order,
/// so the coefficients are bit-identical for every worker-thread count, and
/// each node's column is bit-identical to a deterministic transient of its
/// own matrices.
///
/// # Errors
///
/// Returns [`CollocationError::InvalidOptions`] for an empty grid or
/// mismatched variable counts, and propagates realisation and factorisation
/// errors (an extreme node whose companion is not positive definite takes
/// the counted LU fallback instead).
pub fn solve_collocation(
    model: &StochasticGridModel,
    basis: &OrthogonalBasis,
    grid: &QuadratureGrid,
    spec: &TransientSpec,
) -> Result<CollocationRun> {
    spec.validate()?;
    if grid.is_empty() {
        return Err(CollocationError::InvalidOptions {
            reason: "the quadrature grid has no nodes".to_string(),
        });
    }
    if grid.n_vars() != model.n_vars() || basis.n_vars() != model.n_vars() {
        return Err(CollocationError::InvalidOptions {
            reason: format!(
                "variable counts disagree: model {}, basis {}, grid {}",
                model.n_vars(),
                basis.n_vars(),
                grid.n_vars()
            ),
        });
    }

    // Per node, the projection weight `w_q·ψ_i(ξ_q)/‖ψ_i‖²` of each basis
    // function.
    let norms: Vec<f64> = (0..basis.len()).map(|i| basis.norm_squared(i)).collect();
    let mut weights = Vec::with_capacity(grid.len());
    for (xi, &w) in grid.nodes().iter().zip(grid.weights()) {
        let psi = basis.evaluate_all(xi)?;
        weights.push(
            psi.iter()
                .zip(&norms)
                .map(|(p, norm)| w * p / norm)
                .collect::<Vec<f64>>(),
        );
    }
    let times = spec.time_points();
    let n = model.node_count();
    let mut coefficients = vec![vec![vec![0.0f64; n]; basis.len()]; times.len()];
    let stats = sample_points(
        model,
        grid.nodes(),
        spec,
        COLLOCATION_TRACE,
        |k, q, state: &[f64]| {
            for (coeff, &weight) in coefficients[k].iter_mut().zip(&weights[q]) {
                for (c, v) in coeff.iter_mut().zip(state) {
                    *c += weight * v;
                }
            }
        },
    )?;
    Ok(CollocationRun {
        times,
        node_count: n,
        coefficients,
        stats,
    })
}

/// The collocation sweep's trace names: a `collocation.node` span per node
/// (its realisation, factorisations and DC solve), `collocation.nodes`
/// counting them, and a `collocation.group` span around each group's
/// stepping, all under the span that launched the sweep.
const COLLOCATION_TRACE: SweepTrace = SweepTrace {
    group: None,
    points: "collocation.nodes",
    point: Some("collocation.node"),
    stepping: "collocation.group",
};
