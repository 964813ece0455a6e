//! The collocation driver: one deterministic transient solve per quadrature
//! node, all sharing a single symbolic Cholesky analysis, combined into
//! polynomial-chaos coefficients by discrete projection.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

use opera_pce::sparse_grid::{smolyak_grid, tensor_grid, QuadratureGrid};
use opera_pce::{OrthogonalBasis, PolynomialFamily};
use opera_sparse::{
    CholeskyGroup, CsrView, Panel, SolveWorkspace, SymbolicCholesky, LOCKSTEP_LANES,
};
use opera_variation::{NominalPatterns, SampleValues, StochasticGridModel};

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
/// The nodes step in lock-step groups of up to [`LOCKSTEP_LANES`]: each
/// member's DC factor of `G(ξ)` is solved once and dropped, its companion
/// factor joins one [`CholeskyGroup`], and every time step builds the
/// members' stage right-hand sides into one [`Panel`] and runs one group
/// solve (two for TR-BDF2). Each column performs exactly the arithmetic of
/// a node stepped on its own. Every state is projected as soon as it
/// exists, so no node's full trace is kept.
///
/// Groups fan out over the ambient `rayon` pool; row `k` of node `q` folds
/// into the projection only once row `k` of every node before `q` has, so
/// the resulting coefficients are bit-identical for every worker-thread
/// count.
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
    // pattern G_a + C_a. Every realised matrix lies on the nominal patterns
    // (the perturbations only re-weight existing branches), and the plain
    // G(ξ) needed for the DC start is a sub-pattern, so both per-node
    // factorisations reuse this analysis.
    let patterns = NominalPatterns::new(model)?;
    let symbolic = SymbolicCholesky::analyze(patterns.companion())?;

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
    let sweep = NodeSweep {
        model,
        grid,
        spec,
        times: &times,
        h_scale,
        patterns: &patterns,
        symbolic: &symbolic,
        numeric_factorizations: AtomicUsize::new(0),
        projection: Mutex::new(OrderedProjection {
            coefficients: vec![vec![vec![0.0f64; n]; basis.len()]; times.len()],
            next: vec![0; times.len()],
            pending: BTreeMap::new(),
            weights,
        }),
        // Captured before the fan-out: per-node spans on worker threads
        // nest under the span that launched the sweep.
        parent: opera_trace::current_span(),
    };

    // ---- Fan the groups out over the ambient pool, one batch of one group
    // per worker at a time, which bounds how far a group can run ahead of
    // the fold. The partition into groups does not depend on the thread
    // count.
    let total = grid.len();
    let total_groups = total.div_ceil(LOCKSTEP_LANES);
    let batch = rayon::current_num_threads().clamp(1, total_groups);
    let mut group = 0;
    while group < total_groups {
        let end = (group + batch).min(total_groups);
        let results: Vec<Result<()>> = (group..end)
            .into_par_iter()
            .map(|g| {
                let start = g * LOCKSTEP_LANES;
                sweep.run_group(start..(start + LOCKSTEP_LANES).min(total))
            })
            .collect();
        results.into_iter().collect::<Result<()>>()?;
        group = end;
    }
    let NodeSweep {
        projection,
        numeric_factorizations,
        ..
    } = sweep;
    let projection = match projection.into_inner() {
        Ok(projection) => projection,
        Err(poisoned) => poisoned.into_inner(),
    };
    debug_assert!(projection.pending.is_empty() && projection.next.iter().all(|&q| q == total));

    Ok(CollocationRun {
        times,
        node_count: n,
        coefficients: projection.coefficients,
        stats: CollocationStats {
            nodes: total,
            symbolic_analyses: 1,
            numeric_factorizations: numeric_factorizations.into_inner(),
        },
    })
}

/// The discrete projection `c_i += w_q·ψ_i(ξ_q)/‖ψ_i‖² · v_q`, folded per
/// time row in node order whatever order the states arrive in.
struct OrderedProjection {
    /// `coefficients[k][i][n]`, as [`CollocationRun::coefficients`].
    coefficients: Vec<Vec<Vec<f64>>>,
    /// Per time row: the next node to fold.
    next: Vec<usize>,
    /// States that arrived before their predecessors, by (row, node).
    pending: BTreeMap<(usize, usize), Vec<f64>>,
    /// Per node: the projection weight of each basis function.
    weights: Vec<Vec<f64>>,
}

impl OrderedProjection {
    /// Takes the state of node `q` at time row `k`.
    fn push(&mut self, k: usize, q: usize, state: &[f64]) {
        if self.next[k] != q {
            self.pending.insert((k, q), state.to_vec());
            return;
        }
        self.fold(k, state);
        while let Some(state) = self.pending.remove(&(k, self.next[k])) {
            self.fold(k, &state);
        }
    }

    /// Folds row `k` of its next node.
    fn fold(&mut self, k: usize, state: &[f64]) {
        let weights = &self.weights[self.next[k]];
        for (coeff, &weight) in self.coefficients[k].iter_mut().zip(weights) {
            for (c, v) in coeff.iter_mut().zip(state) {
                *c += weight * v;
            }
        }
        self.next[k] += 1;
    }
}

/// What every node group of one sweep shares.
struct NodeSweep<'a> {
    model: &'a StochasticGridModel,
    grid: &'a QuadratureGrid,
    spec: &'a TransientSpec,
    times: &'a [f64],
    /// The companion scale `s` of `G + s·C`.
    h_scale: f64,
    /// The nominal patterns every node's matrices are realised on.
    patterns: &'a NominalPatterns<'a>,
    symbolic: &'a SymbolicCholesky,
    numeric_factorizations: AtomicUsize,
    projection: Mutex<OrderedProjection>,
    parent: opera_trace::SpanToken,
}

impl NodeSweep<'_> {
    /// Hands the state of node `q` at time row `k` to the projection.
    fn project(&self, k: usize, q: usize, state: &[f64]) {
        let mut projection = match self.projection.lock() {
            Ok(projection) => projection,
            Err(poisoned) => poisoned.into_inner(),
        };
        projection.push(k, q, state);
    }

    /// Realises, factors and steps the nodes of `range` as one lock-step
    /// group, projecting every state as it is computed.
    fn run_group(&self, range: Range<usize>) -> Result<()> {
        let (model, spec, times) = (self.model, self.spec, self.times);
        let (n, lanes, first) = (model.node_count(), range.len(), range.start);
        let xis = &self.grid.nodes()[range];
        let scale = spec.current_scale;
        // Anchor the waveform scaling at the quiescent excitation of each
        // node, so only the switching currents are rescaled.
        let mut anchors = Vec::with_capacity(lanes);
        for xi in xis {
            anchors.push(if scale != 1.0 {
                Some(model.sample_excitation(0.0, xi)?)
            } else {
                None
            });
        }
        // The drain-current scratch of every excitation the group writes.
        let mut drain = Vec::new();
        let mut excite = |t: f64, j: usize, u: &mut [f64]| -> Result<()> {
            model.sample_excitation_into(t, &xis[j], u, &mut drain)?;
            if let Some(u0) = &anchors[j] {
                for (u_n, a_n) in u.iter_mut().zip(u0) {
                    *u_n = a_n + scale * (*u_n - a_n);
                }
            }
            Ok(())
        };

        // Backward Euler reads only s·C, so its members drop G(ξ) once both
        // factorisations are done, which keeps the sweep's peak heap down;
        // the trapezoidal and TR-BDF2 stages read G(ξ) too. A member keeps
        // its matrices as values on the nominal patterns.
        let reads_g = spec.scheme != StepScheme::BackwardEuler;
        let tr_bdf2 = spec.scheme == StepScheme::TrBdf2;
        let (g_pattern, c_pattern) = (self.patterns.conductance(), self.patterns.capacitance());
        let mut group = CholeskyGroup::new(self.symbolic, lanes);
        let mut c_over_h = Vec::with_capacity(lanes);
        let mut g = Vec::with_capacity(if reads_g { lanes } else { 0 });
        let mut values = SampleValues::default();
        let mut ws = SolveWorkspace::with_capacity(n * lanes);
        let mut state = Panel::zeros(n, lanes);
        let mut u_prev = Panel::zeros(n, lanes);
        for (j, xi) in xis.iter().enumerate() {
            // Realise the node, solve its DC start on a factor of G(ξ) that
            // is dropped right after, then add its companion factor to the
            // group.
            let _span = opera_trace::span_under(self.parent, "collocation.node");
            opera_trace::count("collocation.nodes", 1);
            self.patterns.realise(xi, self.h_scale, &mut values)?;
            excite(0.0, j, u_prev.col_mut(j))?;
            let v0 = state.col_mut(j);
            v0.copy_from_slice(u_prev.col(j));
            self.symbolic
                .factor_values(g_pattern.with_values(&values.conductance))?
                .solve_in_place(v0, &mut ws);
            group.push(
                self.symbolic
                    .factor_values(self.patterns.companion().with_values(&values.companion))?,
            )?;
            self.numeric_factorizations.fetch_add(2, Ordering::Relaxed);
            self.project(0, first + j, v0);
            c_over_h.push(std::mem::take(&mut values.scaled_capacitance));
            if reads_g {
                g.push(std::mem::take(&mut values.conductance));
            }
        }
        let c_over_h: Vec<CsrView<'_>> =
            c_over_h.iter().map(|c| c_pattern.with_values(c)).collect();
        let g: Vec<CsrView<'_>> = g.iter().map(|g| g_pattern.with_values(g)).collect();

        let mut out = Panel::zeros(n, lanes);
        let mut u_next = Panel::zeros(n, lanes);
        let stage_lanes = if tr_bdf2 { lanes } else { 0 };
        let mut u_mid = Panel::zeros(n, stage_lanes);
        let mut stage = Panel::zeros(n, stage_lanes);
        let mut gv = vec![0.0; if reads_g { n } else { 0 }];
        let _span = opera_trace::span_under(self.parent, "collocation.group");
        // lint: hot(collocation-lockstep)
        for (k, &t) in times.iter().enumerate().skip(1) {
            for j in 0..lanes {
                excite(t, j, u_next.col_mut(j))?;
            }
            match spec.scheme {
                StepScheme::BackwardEuler => {
                    // (G + C/h) v_{k+1} = u_{k+1} + (C/h) v_k
                    for (j, c) in c_over_h.iter().enumerate() {
                        let rhs = out.col_mut(j);
                        c.matvec_into(state.col(j), rhs);
                        for (r, u) in rhs.iter_mut().zip(u_next.col(j)) {
                            *r += u;
                        }
                    }
                }
                StepScheme::Trapezoidal => {
                    // (G + 2C/h) v_{k+1} = u_k + u_{k+1} + (2C/h − G) v_k
                    let members = (&c_over_h[..], &g[..]);
                    trapezoidal_rhs(members, &state, [&u_prev, &u_next], &mut out, &mut gv);
                }
                StepScheme::TrBdf2 => {
                    // TR stage over [t_k, t_k + γh]:
                    // (G + 2C/(γh)) v_γ = u_k + u_γ + (2C/(γh) − G) v_k
                    let t_prev = times[k - 1];
                    for j in 0..lanes {
                        excite(t_prev + TR_BDF2_GAMMA * (t - t_prev), j, u_mid.col_mut(j))?;
                    }
                    let members = (&c_over_h[..], &g[..]);
                    trapezoidal_rhs(members, &state, [&u_prev, &u_mid], &mut stage, &mut gv);
                    group.solve_panel(&mut stage, &mut ws);
                    // BDF2 stage on {t_k, t_k + γh, t_{k+1}}:
                    // (G + 2C/(γh)) v_{k+1} = u_{k+1} +
                    //   (2C/(γh))·(v_γ/(2(1−γ)) − v_k·(1−γ)/2)
                    for (j, c) in c_over_h.iter().enumerate() {
                        let rhs = out.col_mut(j);
                        c.matvec_into(stage.col(j), rhs);
                        for r in rhs.iter_mut() {
                            *r *= TR_BDF2_W_MID;
                        }
                        c.matvec_acc(state.col(j), -TR_BDF2_W_OLD, rhs);
                        for (r, u) in rhs.iter_mut().zip(u_next.col(j)) {
                            *r += u;
                        }
                    }
                }
            }
            group.solve_panel(&mut out, &mut ws);
            for j in 0..lanes {
                self.project(k, first + j, out.col(j));
            }
            std::mem::swap(&mut state, &mut out);
            std::mem::swap(&mut u_prev, &mut u_next);
        }
        // lint: end-hot
        Ok(())
    }
}

/// The trapezoidal right-hand sides `u_a + u_b + (s·C − G)·v` of a group,
/// column `j` from member `j`'s `s·C` and `G`: the trapezoidal step, and
/// the TR stage of TR-BDF2. `gv` is scratch for one `G·v`.
fn trapezoidal_rhs(
    (c_over_h, g): (&[CsrView<'_>], &[CsrView<'_>]),
    state: &Panel,
    [u_a, u_b]: [&Panel; 2],
    out: &mut Panel,
    gv: &mut [f64],
) {
    for (j, (c, g)) in c_over_h.iter().zip(g).enumerate() {
        let rhs = out.col_mut(j);
        c.matvec_into(state.col(j), rhs);
        g.matvec_into(state.col(j), gv);
        for ((r, gv_n), (a, b)) in rhs
            .iter_mut()
            .zip(gv.iter())
            .zip(u_a.col(j).iter().zip(u_b.col(j)))
        {
            *r += a + b - gv_n;
        }
    }
}
