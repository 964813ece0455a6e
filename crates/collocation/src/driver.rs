//! The collocation driver: one deterministic transient solve per quadrature
//! node, all sharing a single symbolic Cholesky analysis, combined into
//! polynomial-chaos coefficients by discrete projection.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

use opera_pce::sparse_grid::{smolyak_grid, tensor_grid, QuadratureGrid};
use opera_pce::{OrthogonalBasis, PolynomialFamily};
use opera_sparse::{SolveWorkspace, SymbolicCholesky};
use opera_variation::StochasticGridModel;

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

/// Time-integration scheme of the per-node transient solves.
///
/// This crate sits *below* the `opera` engine crate, so it cannot reuse the
/// integrator in `opera::transient`; the scheme enum, the step formulas and
/// [`TransientSpec::time_points`] deliberately mirror `IntegrationMethod`,
/// `CompanionSystem::step` and `TransientOptions::time_points` there and
/// must stay in sync (the engine maps its enum onto this one and relies on
/// both sides producing identical time grids; `tests/integration_collocation.rs`
/// checks the time grids and [`TR_BDF2_GAMMA`] bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepScheme {
    /// First-order implicit Euler (the default).
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule.
    Trapezoidal,
    /// Second-order L-stable TR-BDF2 composite (trapezoidal stage over
    /// `γh`, BDF2 stage over the remainder, `γ = 2 − √2`).
    TrBdf2,
}

/// TR-BDF2 stage split; mirrors the constant of the same name in
/// `opera::transient`.
pub const TR_BDF2_GAMMA: f64 = 2.0 - std::f64::consts::SQRT_2;
/// BDF2-stage weight of the intermediate state: `1/(2(1−γ))`.
const TR_BDF2_W_MID: f64 = 0.5 / (1.0 - TR_BDF2_GAMMA);
/// BDF2-stage weight of the old state: `(1−γ)/2`.
const TR_BDF2_W_OLD: f64 = 0.5 * (1.0 - TR_BDF2_GAMMA);

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
        if self.time_step <= 0.0 || !self.time_step.is_finite() {
            return Err(CollocationError::InvalidOptions {
                reason: format!("time_step must be positive, got {}", self.time_step),
            });
        }
        if self.end_time <= 0.0 || !self.end_time.is_finite() {
            return Err(CollocationError::InvalidOptions {
                reason: format!("end_time must be positive, got {}", self.end_time),
            });
        }
        if self.time_step > self.end_time {
            return Err(CollocationError::InvalidOptions {
                reason: "time_step must not exceed end_time".to_string(),
            });
        }
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

    /// The time points `t₀ = 0, t₁ = h, …` covered by the solves.
    ///
    /// Interior points are the drift-free `k as f64 * h` form and the final
    /// point is `end_time` itself — bit-identical to
    /// `TransientOptions::time_points` in the engine crate.
    pub fn time_points(&self) -> Vec<f64> {
        let steps = (self.end_time / self.time_step).round() as usize;
        (0..=steps)
            .map(|k| {
                if k == steps {
                    self.end_time
                } else {
                    k as f64 * self.time_step
                }
            })
            .collect()
    }
}

/// Work counters of one collocation sweep — the test hooks proving the
/// setup-once/solve-many contract at the sparse-matrix level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollocationStats {
    /// Number of quadrature nodes solved.
    pub nodes: usize,
    /// Symbolic analyses (ordering + elimination tree + column counts)
    /// performed. Always `1`: every node reuses the one shared analysis.
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

/// Runs the collocation sweep: for every quadrature node `ξ_q`, realise
/// `G(ξ_q)`, `C(ξ_q)` and the excitation, numerically factor against the
/// **one shared symbolic analysis** (no re-ordering, no re-analysis), run the
/// deterministic transient, and project the node solutions onto `basis`.
///
/// Node solves fan out over the ambient `rayon` pool; the projection
/// accumulates traces strictly in node-index order, so the resulting
/// coefficients are bit-identical for every worker-thread count.
///
/// # Errors
///
/// Returns [`CollocationError::InvalidOptions`] for an empty grid or
/// mismatched variable counts, and propagates realisation and factorisation
/// errors (e.g. loss of positive definiteness at an extreme node).
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

    let times = spec.time_points();
    let n = model.node_count();
    let h_scale = match spec.scheme {
        StepScheme::BackwardEuler => 1.0 / spec.time_step,
        StepScheme::Trapezoidal => 2.0 / spec.time_step,
        // Both TR-BDF2 stages share the one companion scale 2/(γh).
        StepScheme::TrBdf2 => 2.0 / (TR_BDF2_GAMMA * spec.time_step),
    };

    // ---- The one shared symbolic analysis, on the nominal companion
    // pattern G_a + C_a/h. Every realised matrix has a pattern contained in
    // it (the perturbations only re-weight existing branches), and the plain
    // G(ξ) needed for the DC start is a sub-pattern too, so both per-node
    // factorisations reuse this analysis.
    let companion_nominal = model
        .nominal_conductance()
        .add_scaled(&model.nominal_capacitance().scaled(h_scale), 1.0)?;
    let symbolic = SymbolicCholesky::analyze(&companion_nominal)?;
    let numeric_factorizations = AtomicUsize::new(0);

    // Captured before the fan-out: per-node spans on worker threads nest
    // under the span that launched the sweep.
    let parent = opera_trace::current_span();
    let solve_node = |q: usize| -> Result<Vec<Vec<f64>>> {
        let _span = opera_trace::span_under(parent, "collocation.node");
        opera_trace::count("collocation.nodes", 1);
        let xi: &[f64] = &grid.nodes()[q];
        let g = model.sample_conductance(xi)?;
        let c_over_h = model.sample_capacitance(xi)?.scaled(h_scale);
        let companion = g.add_scaled(&c_over_h, 1.0)?;
        let dc = symbolic.factor_numeric(&g)?;
        let stepper = symbolic.factor_numeric(&companion)?;
        numeric_factorizations.fetch_add(2, Ordering::Relaxed);

        let scale = spec.current_scale;
        let anchor = if scale != 1.0 {
            Some(model.sample_excitation(0.0, xi)?)
        } else {
            None
        };
        let excitation = |t: f64| -> Result<Vec<f64>> {
            let mut u = model.sample_excitation(t, xi)?;
            if let Some(u0) = &anchor {
                for (u_n, a_n) in u.iter_mut().zip(u0) {
                    *u_n = a_n + scale * (*u_n - a_n);
                }
            }
            Ok(u)
        };

        // DC start, then fixed-step implicit integration. The node transient
        // reuses the shared workspace API of `opera_sparse`: one
        // `SolveWorkspace` plus preallocated rhs/matvec buffers serve every
        // step, so the steady-state loop allocates only its output rows.
        let u0 = excitation(0.0)?;
        let mut ws = SolveWorkspace::with_capacity(n);
        let mut v0 = u0.clone();
        dc.solve_in_place(&mut v0, &mut ws);
        let mut voltages = vec![vec![0.0; n]; times.len()];
        voltages[0] = v0;
        let mut rhs = vec![0.0; n];
        let mut gv = vec![0.0; n];
        let mut stage = vec![0.0; n];
        let mut u_prev = u0;
        for (k, &t) in times.iter().enumerate().skip(1) {
            let u_next = excitation(t)?;
            let v_k = &voltages[k - 1];
            match spec.scheme {
                StepScheme::BackwardEuler => {
                    // (G + C/h) v_{k+1} = u_{k+1} + (C/h) v_k
                    c_over_h.matvec_into(v_k, &mut rhs);
                    for (r, u) in rhs.iter_mut().zip(&u_next) {
                        *r += u;
                    }
                }
                StepScheme::Trapezoidal => {
                    // (G + 2C/h) v_{k+1} = u_k + u_{k+1} + (2C/h − G) v_k
                    c_over_h.matvec_into(v_k, &mut rhs);
                    g.matvec_into(v_k, &mut gv);
                    for ((r, gv_n), (a, b)) in
                        rhs.iter_mut().zip(&gv).zip(u_prev.iter().zip(&u_next))
                    {
                        *r += a + b - gv_n;
                    }
                }
                StepScheme::TrBdf2 => {
                    // TR stage over [t_k, t_k + γh]:
                    // (G + 2C/(γh)) v_γ = u_k + u_γ + (2C/(γh) − G) v_k
                    let t_prev = times[k - 1];
                    let u_mid = excitation(t_prev + TR_BDF2_GAMMA * (t - t_prev))?;
                    c_over_h.matvec_into(v_k, &mut stage);
                    g.matvec_into(v_k, &mut gv);
                    for ((r, gv_n), (a, b)) in
                        stage.iter_mut().zip(&gv).zip(u_prev.iter().zip(&u_mid))
                    {
                        *r += a + b - gv_n;
                    }
                    stepper.solve_in_place(&mut stage, &mut ws);
                    // BDF2 stage on {t_k, t_k + γh, t_{k+1}}:
                    // (G + 2C/(γh)) v_{k+1} = u_{k+1} +
                    //   (2C/(γh))·(v_γ/(2(1−γ)) − v_k·(1−γ)/2)
                    c_over_h.matvec_into(&stage, &mut rhs);
                    for r in rhs.iter_mut() {
                        *r *= TR_BDF2_W_MID;
                    }
                    c_over_h.matvec_acc(v_k, -TR_BDF2_W_OLD, &mut rhs);
                    for (r, u) in rhs.iter_mut().zip(&u_next) {
                        *r += u;
                    }
                }
            }
            stepper.solve_in_place(&mut rhs, &mut ws);
            voltages[k].copy_from_slice(&rhs);
            u_prev = u_next;
        }
        Ok(voltages)
    };

    // ---- Fan the node solves out over the ambient pool in batches, then
    // fold each batch into the projection in node-index order. The fold is
    // the only place floating-point accumulation happens, so the statistics
    // cannot depend on the worker count; batching bounds the number of
    // full traces alive at once.
    let norms: Vec<f64> = (0..basis.len()).map(|i| basis.norm_squared(i)).collect();
    let mut coefficients = vec![vec![vec![0.0f64; n]; basis.len()]; times.len()];
    let total = grid.len();
    let batch = (rayon::current_num_threads().max(1) * 2).min(total);
    let mut start = 0;
    while start < total {
        let end = (start + batch).min(total);
        let traces: Vec<Result<Vec<Vec<f64>>>> =
            (start..end).into_par_iter().map(solve_node).collect();
        for (q, trace) in (start..end).zip(traces) {
            let trace = trace?;
            let psi = basis.evaluate_all(&grid.nodes()[q])?;
            let w = grid.weights()[q];
            for (coeff_k, trace_k) in coefficients.iter_mut().zip(&trace) {
                for (i, coeff_ki) in coeff_k.iter_mut().enumerate() {
                    let scale = w * psi[i] / norms[i];
                    for (c, v) in coeff_ki.iter_mut().zip(trace_k) {
                        *c += scale * v;
                    }
                }
            }
        }
        start = end;
    }

    Ok(CollocationRun {
        times,
        node_count: n,
        coefficients,
        stats: CollocationStats {
            nodes: total,
            symbolic_analyses: 1,
            numeric_factorizations: numeric_factorizations.load(Ordering::Relaxed),
        },
    })
}
