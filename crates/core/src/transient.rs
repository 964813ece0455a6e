//! Deterministic transient analysis of `G·v + C·dv/dt = u(t)`.
//!
//! The paper carries out fixed-step transient analysis of the power grid.
//! This module provides backward Euler (default, matching the paper's fixed
//! time step), trapezoidal integration, and the L-stable two-stage TR-BDF2
//! composite. The companion matrix `G + s·C` (`s = 1/h`, `2/h` or `2/(γh)`
//! depending on the scheme) is factored once with sparse Cholesky and reused
//! for every time step. [`CompanionFamily`] extends the reuse across step
//! sizes: one symbolic analysis serves a numeric-only refactorisation for
//! every `h` the adaptive controller visits. The family caches no factor;
//! a solver re-stepped to a new `h` holds its own, for as long as its
//! caller keeps it. The schemes' formulas — `IntegrationMethod`, `γ`,
//! the companion scale, the time grid and the stage right-hand sides — live
//! in [`opera_sparse::stepping`], which the lock-step sampler of Monte
//! Carlo and collocation builds through too. See `docs/TRANSIENT.md`.

use std::sync::Arc;

use opera_sparse::cg::GuessBasis;
use opera_sparse::{CsrMatrix, MatrixFactor, Panel, SolveWorkspace, SymbolicCholesky};
use opera_trace::Counter;

use crate::solver::{DirectPrepared, PreparedSolver};
use crate::{OperaError, Result};

pub(crate) use opera_sparse::stepping::{companion_scale, StepRhs};
pub use opera_sparse::stepping::{IntegrationMethod, TR_BDF2_GAMMA};

/// Options for a fixed-step transient analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Fixed time step in seconds.
    pub time_step: f64,
    /// End time in seconds (the analysis covers `0..=end_time`).
    pub end_time: f64,
    /// Integration scheme.
    pub method: IntegrationMethod,
}

impl TransientOptions {
    /// Creates options with the default backward Euler scheme.
    pub fn new(time_step: f64, end_time: f64) -> Self {
        TransientOptions {
            time_step,
            end_time,
            method: IntegrationMethod::BackwardEuler,
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for non-positive step or end
    /// time, or a step larger than the end time.
    pub fn validate(&self) -> Result<()> {
        opera_sparse::stepping::check_window(self.time_step, self.end_time)
            .map_err(|reason| OperaError::InvalidOptions { reason })
    }

    /// The time points `t₀ = 0, t₁ = h, …` covered by the analysis: the
    /// drift-free grid of [`opera_sparse::stepping::time_points`], which
    /// lands exactly on `end_time`.
    pub fn time_points(&self) -> Vec<f64> {
        opera_sparse::stepping::time_points(self.time_step, self.end_time)
    }
}

/// Result of a deterministic transient analysis.
///
/// The per-time states live in **one** contiguous column-major [`Panel`]
/// (column `k` is the state at `times[k]`), so extracting a node history is
/// a strided sweep over a single allocation instead of a pointer chase
/// through per-time-point vectors.
#[derive(Debug, Clone)]
pub struct TransientSolution {
    /// Time points, starting at `t = 0`.
    pub times: Vec<f64>,
    /// Node states: column `k` holds the voltage vector at `times[k]`.
    states: Panel,
}

impl TransientSolution {
    /// Builds a solution from its time grid and state panel (column `k` of
    /// `states` is the state at `times[k]`).
    ///
    /// # Panics
    ///
    /// Panics if the panel column count disagrees with the time grid.
    pub fn new(times: Vec<f64>, states: Panel) -> Self {
        assert_eq!(
            times.len(),
            states.ncols(),
            "one state column per time point"
        );
        TransientSolution { times, states }
    }

    /// Builds a solution from per-time state vectors (row `k` becomes the
    /// state column at `times[k]`).
    ///
    /// # Panics
    ///
    /// Panics if the state count disagrees with the time grid or the states
    /// have differing lengths.
    pub fn from_states(times: Vec<f64>, states: &[Vec<f64>]) -> Self {
        Self::new(times, Panel::from_columns(states))
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the solution holds no time points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of nodes in each state.
    pub fn node_count(&self) -> usize {
        self.states.nrows()
    }

    /// The full state (all node voltages) at time index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn state_at(&self, k: usize) -> &[f64] {
        self.states.col(k)
    }

    /// The state panel: column `k` is the state at `times[k]`.
    pub fn states(&self) -> &Panel {
        &self.states
    }

    /// Voltage of `node` over time: one strided gather over the contiguous
    /// state panel.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range (and the solution is non-empty).
    pub fn node_waveform(&self, node: usize) -> Vec<f64> {
        let n = self.states.nrows();
        let data = self.states.data();
        (0..self.states.ncols())
            .map(|k| data[k * n + node])
            .collect()
    }

    /// Worst (largest) voltage drop below `vdd` over all nodes and times,
    /// returned as `(drop, node, time_index)`.
    pub fn worst_drop(&self, vdd: f64) -> (f64, usize, usize) {
        let mut worst = (f64::NEG_INFINITY, 0, 0);
        for (k, v) in self.states.columns().enumerate() {
            for (n, &vn) in v.iter().enumerate() {
                let drop = vdd - vn;
                if drop > worst.0 {
                    worst = (drop, n, k);
                }
            }
        }
        worst
    }
}

/// A factored companion system that can advance the transient solution and be
/// reused across right-hand sides (this is what makes the special case of the
/// paper cheap: one factorisation, many solves).
///
/// `G` and `C` are shared (`Arc`) with the [`CompanionFamily`] the system
/// came from, so the systems of a family's step sizes hold one `G` between
/// them; each stores only its factor and `s·C` as values on `C`'s pattern.
pub struct CompanionSystem {
    factor: MatrixFactor,
    g: Arc<CsrMatrix>,
    c: Arc<CsrMatrix>,
    /// `s·C`, one value per stored entry of `C`.
    c_over_h: Vec<f64>,
    method: IntegrationMethod,
    h: f64,
}

impl CompanionSystem {
    /// Builds and factors the companion matrix for the given `G`, `C` and
    /// step size through a one-off [`CompanionFamily`]: one symbolic
    /// analysis of the `G + C` pattern, then Cholesky with an LU fallback
    /// for a numerically indefinite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for a non-positive step and
    /// propagates pattern-union and symbolic-analysis errors (e.g. a
    /// non-symmetric `G + C`), and the LU error if the fallback fails too.
    pub fn new(
        g: &CsrMatrix,
        c: &CsrMatrix,
        time_step: f64,
        method: IntegrationMethod,
    ) -> Result<Self> {
        CompanionFamily::new(g, c)?.system(time_step, method)
    }

    /// Time step the companion matrix was built for.
    pub fn time_step(&self) -> f64 {
        self.h
    }

    /// Integration scheme the companion matrix was built for.
    pub fn method(&self) -> IntegrationMethod {
        self.method
    }

    /// The stage right-hand-side builder over this system's matrices.
    fn rhs(&self) -> StepRhs<'_> {
        StepRhs {
            c: self.c.with_values(&self.c_over_h),
            c_scale: 1.0,
            g: Some(self.g.view()),
        }
    }

    /// The factored companion matrix.
    pub(crate) fn factor(&self) -> &MatrixFactor {
        &self.factor
    }

    /// Solves the companion system in place with workspace-borrowed scratch
    /// (zero heap allocations once `ws` is warm).
    pub fn solve_in_place(&self, rhs: &mut [f64], ws: &mut SolveWorkspace) {
        self.factor.solve_in_place(rhs, ws);
    }

    /// Solves the companion system for every column of a panel in one blocked
    /// multi-RHS sweep. Each column is bit-identical to
    /// [`CompanionSystem::solve_in_place`] on that column.
    pub fn solve_panel(&self, rhs: &mut Panel, ws: &mut SolveWorkspace) {
        self.factor.solve_panel(rhs, ws);
    }

    // The per-step state advance: zero allocations, scratch comes from the
    // caller's SolveWorkspace (the engine's allocation counter asserts the
    // same property at run time).
    // lint: hot(transient-step)

    /// Advances one time step: given the state `v_k` and the excitations at
    /// `t_k` and `t_{k+1}`, builds the implicit right-hand side in `out` and
    /// solves it in place for `v_{k+1}`, borrowing all scratch from `ws`. A
    /// steady-state loop that double-buffers `v_k` and `out` performs zero
    /// heap allocations per step.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with the system dimension or
    /// the system was built for TR-BDF2.
    pub fn step_into(
        &self,
        v_k: &[f64],
        u_k: &[f64],
        u_k1: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) {
        self.rhs().single_stage(self.method, v_k, u_k, u_k1, out);
        self.factor.solve_in_place(out, ws);
    }

    /// Advances one TR-BDF2 step into caller-provided buffers: the
    /// trapezoidal stage over `[t, t + γh]` lands the intermediate state in
    /// `stage`, the BDF2 stage over `[t, t + γh, t + h]` lands `v_{k+1}` in
    /// `out`. Both stages solve the **same** factored companion matrix
    /// `G + (2/(γh))·C`, so a TR-BDF2 step costs two solves against one
    /// factorisation. `u_mid` is the excitation at `t + γh`. Zero heap
    /// allocations once `ws` is warm.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree or the system was built for a
    /// different scheme.
    #[allow(clippy::too_many_arguments)] // two stages = three excitations + two buffers
    pub fn step_tr_bdf2_into(
        &self,
        v_k: &[f64],
        u_k: &[f64],
        u_mid: &[f64],
        u_k1: &[f64],
        stage: &mut [f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) {
        assert_eq!(self.method, IntegrationMethod::TrBdf2, "method mismatch");
        self.rhs().trapezoidal(v_k, u_k, u_mid, stage);
        self.factor.solve_in_place(stage, ws);
        self.rhs().bdf2(v_k, stage, u_k1, out);
        self.factor.solve_in_place(out, ws);
    }

    /// The embedded TR-BDF2 local-truncation-error estimate, filtered through
    /// the companion matrix (Hosea–Shampine): solves
    /// `(G + (2/(γh))·C) e = Σ w_i (u_i − G v_i)` over the three stage nodes,
    /// which equals the raw divided-difference estimate premultiplied by the
    /// L-stable filter `(I + (γh/2)C⁻¹G)⁻¹` — no `C⁻¹` ever materialises, so
    /// singular `C` (nodes without capacitors) is fine. Costs three `G`
    /// mat-vecs and one extra solve of the already-factored companion. Zero
    /// heap allocations once `ws` is warm.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree or the system was built for a
    /// different scheme.
    #[allow(clippy::too_many_arguments)]
    pub fn tr_bdf2_error_into(
        &self,
        v_k: &[f64],
        v_mid: &[f64],
        v_k1: &[f64],
        u_k: &[f64],
        u_mid: &[f64],
        u_k1: &[f64],
        err: &mut [f64],
        ws: &mut SolveWorkspace,
    ) {
        assert_eq!(self.method, IntegrationMethod::TrBdf2, "method mismatch");
        self.rhs()
            .tr_bdf2_error([v_k, v_mid, v_k1], [u_k, u_mid, u_k1], err);
        self.factor.solve_in_place(err, ws);
    }

    /// Advances one time step for a whole panel of independent states sharing
    /// this companion system: column `j` of `out` receives the step of column
    /// `j` of `v_k` driven by column `j` of `u_k`/`u_k1`, and all columns go
    /// through **one** blocked panel solve. Each column is bit-identical to
    /// [`CompanionSystem::step_into`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if the panel shapes disagree or the system was built for
    /// TR-BDF2.
    pub fn step_panel_into(
        &self,
        v_k: &Panel,
        u_k: &Panel,
        u_k1: &Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) {
        assert_same_columns(&[v_k, u_k, u_k1], out);
        for j in 0..out.ncols() {
            self.rhs().single_stage(
                self.method,
                v_k.col(j),
                u_k.col(j),
                u_k1.col(j),
                out.col_mut(j),
            );
        }
        self.factor.solve_panel(out, ws);
    }

    /// Advances one TR-BDF2 step for a whole panel of independent states:
    /// the TR-stage right-hand sides of every column build in `stage`, go
    /// through **one** blocked panel solve, then the BDF2 stage does the
    /// same into `out`. Each column is bit-identical to
    /// [`CompanionSystem::step_tr_bdf2_into`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if the panel shapes disagree or the system was built for a
    /// different scheme.
    #[allow(clippy::too_many_arguments)]
    pub fn step_tr_bdf2_panel_into(
        &self,
        v_k: &Panel,
        u_k: &Panel,
        u_mid: &Panel,
        u_k1: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) {
        assert_eq!(self.method, IntegrationMethod::TrBdf2, "method mismatch");
        assert_same_columns(&[v_k, u_k, u_mid, u_k1, stage], out);
        for j in 0..out.ncols() {
            self.rhs()
                .trapezoidal(v_k.col(j), u_k.col(j), u_mid.col(j), stage.col_mut(j));
        }
        self.factor.solve_panel(stage, ws);
        for j in 0..out.ncols() {
            self.rhs()
                .bdf2(v_k.col(j), stage.col(j), u_k1.col(j), out.col_mut(j));
        }
        self.factor.solve_panel(out, ws);
    }
}

/// Asserts that every input panel of a panel step has the output's shape.
pub(crate) fn assert_same_columns(inputs: &[&Panel], out: &Panel) {
    for p in inputs {
        assert_eq!(p.ncols(), out.ncols(), "panel column count mismatch");
        assert_eq!(p.nrows(), out.nrows(), "panel row count mismatch");
    }
}

// lint: end-hot

/// A family of companion systems over one `(G, C)` pair: the sparsity
/// pattern of `G + s·C` is independent of `s`, so **one**
/// [`SymbolicCholesky`] analysis (AMD ordering, etree, supernodes) serves
/// every step size, and changing `h` only re-runs the numeric factorisation.
/// Every companion system is built here — [`CompanionFamily::system_for`],
/// [`CompanionSystem::new`] and every direct preparation — so ordering, fill
/// and the numeric kernel are the same on every path, and the Cholesky→LU
/// policy is written once. The family keeps no factor: whoever steps at a
/// step size holds the system it got, and a system lives no longer than
/// its holder.
///
/// Bookkeeping is observable two ways: the `transient.symbolic_analyses` and
/// `transient.refactorizations` counters flow into [`opera_trace`] when
/// tracing is enabled, and [`CompanionFamily::symbolic_analysis_count`] /
/// [`CompanionFamily::refactorization_count`] always read the per-family
/// totals.
pub struct CompanionFamily {
    /// `G` and `C`, shared with every system the family builds.
    g: Arc<CsrMatrix>,
    c: Arc<CsrMatrix>,
    /// The pattern of `G + C` when it is not `G`'s own; capacitors to
    /// ground touch only the diagonal, so normally it is, and the companion
    /// values lie on `G`'s pattern.
    union: Option<CsrMatrix>,
    /// The analysis of `G + C`, which every companion `G + s·C` shares (the
    /// analysis reads only the pattern, so `s = 1` stands in for every
    /// positive companion scale).
    symbolic: SymbolicCholesky,
    symbolic_analyses: Counter,
    refactorizations: Counter,
}

impl CompanionFamily {
    /// Analyses the union pattern `G + C` once and prepares the family for
    /// Cholesky factors (with a per-step-size LU fallback mirroring
    /// [`MatrixFactor::cholesky_or_lu`]). The family keeps one copy of `G`
    /// and `C`, which every system it builds shares.
    ///
    /// # Errors
    ///
    /// Propagates pattern-union and symbolic-analysis errors.
    pub fn new(g: &CsrMatrix, c: &CsrMatrix) -> Result<Self> {
        Self::shared(Arc::new(g.clone()), Arc::new(c.clone()))
    }

    /// [`CompanionFamily::new`] over matrices the caller already shares (a
    /// Galerkin system's `G̃` and `C̃`, a model's nominal `G` and `C`): the
    /// family copies neither.
    ///
    /// # Errors
    ///
    /// As [`CompanionFamily::new`].
    pub(crate) fn shared(g: Arc<CsrMatrix>, c: Arc<CsrMatrix>) -> Result<Self> {
        let union = g.add_scaled(&c, 1.0)?;
        let symbolic = SymbolicCholesky::analyze(&union)?;
        let family = CompanionFamily {
            union: (!union.same_pattern(&g)).then_some(union),
            g,
            c,
            symbolic,
            symbolic_analyses: Counter::new("transient.symbolic_analyses"),
            refactorizations: Counter::new("transient.refactorizations"),
        };
        family.symbolic_analyses.incr();
        Ok(family)
    }

    /// System dimension (rows of `G`).
    pub fn dim(&self) -> usize {
        self.g.nrows()
    }

    /// The DC factor of `G` — bit-identical to
    /// [`MatrixFactor::cholesky_or_lu`] — against the family's analysis when
    /// `G + C` has `G`'s own pattern (grounded capacitors touch only the
    /// diagonal, so nominal `G` does); otherwise it *is*
    /// [`MatrixFactor::cholesky_or_lu`] of `G` (the augmented `G̃` never has
    /// `G̃ + C̃`'s pattern).
    ///
    /// # Errors
    ///
    /// Propagates analysis and factorisation errors.
    pub(crate) fn dc_factor(&self) -> Result<MatrixFactor> {
        if !self.symbolic.matches_pattern(&self.g) {
            return Ok(MatrixFactor::cholesky_or_lu(&self.g)?);
        }
        Ok(MatrixFactor::from_cholesky_attempt(
            self.symbolic.factor_numeric(&self.g),
            self.g.view(),
        )?)
    }

    /// Number of symbolic analyses this family has run: the one of
    /// [`CompanionFamily::new`], never more.
    pub fn symbolic_analysis_count(&self) -> u64 {
        self.symbolic_analyses.get()
    }

    /// Number of numeric factorisations this family has run: one per
    /// [`system_for`](Self::system_for) call.
    pub fn refactorization_count(&self) -> u64 {
        self.refactorizations.get()
    }

    /// The factored companion system for `(time_step, method)`: `s·C` and
    /// the companion `G + s·C` realised as values (in `scaled` and
    /// `add_scaled`'s arithmetic), then one numeric Cholesky against the
    /// shared analysis with the counted LU fallback of
    /// [`MatrixFactor::from_cholesky_attempt`]. Every call refactors. The
    /// system shares `G` and `C`; no matrix is copied.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for a non-positive step and
    /// propagates factorisation errors.
    pub fn system_for(
        &self,
        time_step: f64,
        method: IntegrationMethod,
    ) -> Result<Arc<CompanionSystem>> {
        self.system(time_step, method).map(Arc::new)
    }

    /// [`system_for`](Self::system_for), owned.
    fn system(&self, time_step: f64, method: IntegrationMethod) -> Result<CompanionSystem> {
        if time_step <= 0.0 || !time_step.is_finite() {
            return Err(OperaError::InvalidOptions {
                reason: format!("companion step must be positive, got {time_step}"),
            });
        }
        let scale = companion_scale(method, time_step);
        let c_over_h: Vec<f64> = self.c.data().iter().map(|&v| v * scale).collect();
        let mut values = Vec::new();
        self.g
            .view()
            .add_scaled_values(self.c.with_values(&c_over_h), 1.0, &mut values)?;
        let companion = self.union.as_ref().unwrap_or(&self.g).with_values(&values);
        let factor =
            MatrixFactor::from_cholesky_attempt(self.symbolic.factor_values(companion), companion)?;
        self.refactorizations.incr();
        Ok(CompanionSystem {
            factor,
            g: Arc::clone(&self.g),
            c: Arc::clone(&self.c),
            c_over_h,
            method,
            h: time_step,
        })
    }
}

/// Runs a fixed-step transient analysis of `G·v + C·dv/dt = u(t)`.
///
/// The initial condition is the DC solution `G·v(0) = u(0)` (the paper starts
/// its transient analyses from the quiescent operating point).
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options and propagates
/// factorisation errors.
///
/// # Example
///
/// ```
/// use opera::transient::{solve_transient, TransientOptions};
/// use opera_grid::GridSpec;
///
/// # fn main() -> Result<(), opera::OperaError> {
/// let grid = GridSpec::small_test(120).build()?;
/// let opts = TransientOptions::new(0.05e-9, 1.0e-9);
/// let sol = solve_transient(
///     &grid.conductance_matrix(),
///     &grid.capacitance_matrix(),
///     |t| grid.excitation(t),
///     &opts,
/// )?;
/// let (drop, _, _) = sol.worst_drop(grid.vdd());
/// assert!(drop >= 0.0 && drop < 0.12 * grid.vdd());
/// # Ok(())
/// # }
/// ```
pub fn solve_transient(
    g: &CsrMatrix,
    c: &CsrMatrix,
    mut excitation: impl FnMut(f64) -> Vec<f64>,
    options: &TransientOptions,
) -> Result<TransientSolution> {
    options.validate()?;
    let times = options.time_points();
    let n = g.nrows();
    let prepared = DirectPrepared::new(
        CompanionFamily::new(g, c)?,
        options.time_step,
        options.method,
    )?;
    // The whole output panel is allocated up front; each step's state is
    // copied into its column.
    let mut states = Panel::zeros(n, times.len());
    integrate_fixed_step(
        &prepared,
        options.method,
        &times,
        (n, 1),
        &mut SolveWorkspace::with_capacity(n),
        |t, u| {
            u.data_mut().copy_from_slice(&excitation(t));
            Ok(())
        },
        |k, state| states.col_mut(k).copy_from_slice(state.data()),
    )?;
    Ok(TransientSolution::new(times, states))
}

/// The fixed-step transient loop behind every driver: the deterministic
/// [`solve_transient`], the OPERA scenario and batch runs, both Monte Carlo
/// baselines and the special case all advance their states through it.
///
/// The states are the `shape.1` columns of an `n × k` [`Panel`] (`shape =
/// (n, k)`), stepped together by one prepared solver: a DC start
/// `G·v(t₀) = u(t₀)`, then one implicit step per later entry of `times`,
/// TR-BDF2 composites also evaluating the excitation at the mid-stage time
/// `t_prev + γ(t − t_prev)`. State, excitation and stage panels are double
/// buffered and all solver scratch comes from `ws`, so with a warm
/// workspace every built-in backend steps without allocating. The loop
/// owns one [`GuessBasis`] per column for the single-stage steps and lends
/// them to [`PreparedSolver::step_panel_into`]; they are dropped when the
/// loop returns, so no basis outlives one transient, and a basis allocates
/// its directions on the first step that uses it.
///
/// `excitation(t, u)` writes the excitation at `t` into `u`. Every
/// excitation panel starts as a copy of the first one (at `times[0]`) and is
/// reused afterwards, so columns that do not depend on time only need
/// writing on the first call. `sink(k, state)` receives the state at
/// `times[k]`, for `k = 0` (the DC solution) through `times.len() − 1`.
///
/// The loop runs under one `transient.stepping` span and counts
/// `transient.steps`.
///
/// # Errors
///
/// Propagates excitation and solver errors.
pub fn integrate_fixed_step(
    prepared: &dyn PreparedSolver,
    method: IntegrationMethod,
    times: &[f64],
    shape: (usize, usize),
    ws: &mut SolveWorkspace,
    mut excitation: impl FnMut(f64, &mut Panel) -> Result<()>,
    mut sink: impl FnMut(usize, &Panel),
) -> Result<()> {
    let Some((&t0, later)) = times.split_first() else {
        return Ok(());
    };
    let (n, k) = shape;
    let mut u_prev = Panel::zeros(n, k);
    excitation(t0, &mut u_prev)?;
    let mut state = Panel::zeros(n, k);
    prepared.solve_dc_panel(&u_prev, &mut state, ws)?;
    sink(0, &state);

    let two_stage = method == IntegrationMethod::TrBdf2;
    let mut u_next = u_prev.clone();
    // TR-BDF2 mid-stage excitation and state panels (zero columns for the
    // single-stage schemes, so they cost nothing).
    let mut u_mid = if two_stage {
        u_prev.clone()
    } else {
        Panel::zeros(n, 0)
    };
    let mut stage = Panel::zeros(n, if two_stage { k } else { 0 });
    let mut guesses: Vec<GuessBasis> = (0..if two_stage { 0 } else { k })
        .map(|_| GuessBasis::new())
        .collect();
    let mut next = Panel::zeros(n, k);
    let mut t_prev = t0;
    // One span for the whole loop plus a per-step counter: per-step spans
    // would record thousands of tiny ranges and perturb the very loop the
    // allocation-counter hook asserts is steady-state. The span lives
    // outside the hot region (its guard is not allocation-free when tracing
    // is enabled).
    let stepping = opera_trace::span("transient.stepping");
    // lint: hot(transient-stepping-loop)
    for (step, &t) in later.iter().enumerate() {
        opera_trace::count("transient.steps", 1);
        excitation(t, &mut u_next)?;
        if two_stage {
            excitation(t_prev + TR_BDF2_GAMMA * (t - t_prev), &mut u_mid)?;
            prepared.step_tr_bdf2_panel_into(
                &state, &u_prev, &u_mid, &u_next, &mut stage, &mut next, ws,
            )?;
        } else {
            prepared.step_panel_into(&state, &u_prev, &u_next, &mut next, &mut guesses, ws)?;
        }
        sink(step + 1, &next);
        std::mem::swap(&mut state, &mut next);
        std::mem::swap(&mut u_prev, &mut u_next);
        t_prev = t;
    }
    // lint: end-hot
    drop(stepping);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opera_sparse::TripletMatrix;

    /// Single RC node driven through a resistor from a 1 V source:
    /// v(t) = 1 − exp(−t/RC) with R = 1 Ω, C = 1 F (so τ = 1 s).
    fn rc_circuit() -> (CsrMatrix, CsrMatrix) {
        let mut g = TripletMatrix::new(1, 1);
        g.push(0, 0, 1.0);
        let mut c = TripletMatrix::new(1, 1);
        c.push(0, 0, 1.0);
        (g.to_csr(), c.to_csr())
    }

    #[test]
    fn rc_step_response_matches_analytic_solution() {
        let (g, c) = rc_circuit();
        // Excitation: 0 at t = 0 (so DC start at 0), then 1 A injected.
        let u = |t: f64| vec![if t > 0.0 { 1.0 } else { 0.0 }];
        let opts = TransientOptions {
            time_step: 0.001,
            end_time: 2.0,
            method: IntegrationMethod::Trapezoidal,
        };
        let sol = solve_transient(&g, &c, u, &opts).unwrap();
        let k = sol.times.len() - 1;
        let expected = 1.0 - (-sol.times[k]).exp();
        assert!(
            (sol.state_at(k)[0] - expected).abs() < 1e-3,
            "got {}, expected {expected}",
            sol.state_at(k)[0]
        );
    }

    #[test]
    fn backward_euler_and_trapezoidal_converge_to_same_answer() {
        let (g, c) = rc_circuit();
        let u = |t: f64| vec![if t > 0.0 { 1.0 } else { 0.0 }];
        let mut results = Vec::new();
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
        ] {
            let opts = TransientOptions {
                time_step: 0.0005,
                end_time: 1.0,
                method,
            };
            let sol = solve_transient(&g, &c, u, &opts).unwrap();
            results.push(sol.state_at(sol.len() - 1)[0]);
        }
        assert!((results[0] - results[1]).abs() < 2e-3);
    }

    #[test]
    fn dc_start_means_first_point_solves_g_v_eq_u0() {
        let (g, c) = rc_circuit();
        let u = |_t: f64| vec![0.5];
        let opts = TransientOptions::new(0.1, 1.0);
        let sol = solve_transient(&g, &c, u, &opts).unwrap();
        assert!((sol.state_at(0)[0] - 0.5).abs() < 1e-12);
        // Constant excitation keeps the solution at the DC value.
        assert!((sol.state_at(sol.len() - 1)[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn grid_transient_drop_stays_below_calibration_target() {
        let grid = opera_grid::GridSpec::small_test(200).build().unwrap();
        let opts = TransientOptions::new(0.05e-9, 1.0e-9);
        let sol = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| grid.excitation(t),
            &opts,
        )
        .unwrap();
        let (drop, _, _) = sol.worst_drop(grid.vdd());
        // The generator calibrates the *DC* peak drop to 8 % of VDD; the
        // transient drop with capacitive smoothing must not exceed it (plus
        // slack for discretisation).
        assert!(drop <= 0.09 * grid.vdd(), "drop {drop}");
        assert!(drop > 0.0);
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler_at_equal_step() {
        // Second-order vs first-order accuracy on a *smooth* excitation
        // (a raised-cosine ramp); the reference is a very fine trapezoidal run.
        let (g, c) = rc_circuit();
        let u = |t: f64| vec![0.5 * (1.0 - (std::f64::consts::PI * t).cos())];
        let end = 1.0;
        let value_at_end = |method: IntegrationMethod, step: f64| {
            let sol = solve_transient(
                &g,
                &c,
                u,
                &TransientOptions {
                    time_step: step,
                    end_time: end,
                    method,
                },
            )
            .unwrap();
            sol.state_at(sol.len() - 1)[0]
        };
        let reference = value_at_end(IntegrationMethod::Trapezoidal, 0.001);
        let be_error = (value_at_end(IntegrationMethod::BackwardEuler, 0.05) - reference).abs();
        let trap_error = (value_at_end(IntegrationMethod::Trapezoidal, 0.05) - reference).abs();
        assert!(
            trap_error < 0.2 * be_error,
            "trapezoidal ({trap_error}) should clearly beat backward Euler ({be_error})"
        );
    }

    #[test]
    fn companion_system_exposes_its_step_and_solves_consistently() {
        let (g, c) = rc_circuit();
        let companion =
            CompanionSystem::new(&g, &c, 0.1, IntegrationMethod::BackwardEuler).unwrap();
        assert_eq!(companion.time_step(), 0.1);
        // Solving the companion system directly must satisfy (G + C/h) x = b.
        let mut x = vec![3.0];
        companion.solve_in_place(&mut x, &mut SolveWorkspace::new());
        assert!((11.0 * x[0] - 3.0).abs() < 1e-12); // G + C/h = 1 + 10
    }

    #[test]
    fn node_waveform_extracts_single_node_history() {
        let (g, c) = rc_circuit();
        let u = |_t: f64| vec![1.0];
        let opts = TransientOptions::new(0.25, 1.0);
        let sol = solve_transient(&g, &c, u, &opts).unwrap();
        assert_eq!(sol.node_waveform(0).len(), sol.len());
        assert!(!sol.is_empty());
        assert_eq!(sol.node_count(), 1);
    }

    /// The strided panel gather behind `node_waveform` must reproduce the
    /// naive per-time-point walk bit for bit, for every node of a multi-node
    /// system.
    #[test]
    fn node_waveform_is_bit_identical_to_the_per_step_walk() {
        let grid = opera_grid::GridSpec::small_test(60).build().unwrap();
        let opts = TransientOptions::new(0.1e-9, 1.0e-9);
        let sol = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| grid.excitation(t),
            &opts,
        )
        .unwrap();
        for node in 0..sol.node_count() {
            let waveform = sol.node_waveform(node);
            assert_eq!(waveform.len(), sol.len());
            for (k, &v) in waveform.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    sol.state_at(k)[node].to_bits(),
                    "node {node} diverged at time index {k}"
                );
            }
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        assert!(TransientOptions::new(0.0, 1.0).validate().is_err());
        assert!(TransientOptions::new(1.0, 0.0).validate().is_err());
        assert!(TransientOptions::new(2.0, 1.0).validate().is_err());
        assert!(TransientOptions::new(0.1, 1.0).validate().is_ok());
        assert_eq!(TransientOptions::new(0.25, 1.0).time_points().len(), 5);
    }

    #[test]
    fn time_points_land_exactly_on_end_time() {
        // 0.1 is not exactly representable: accumulating (or multiplying out)
        // ten steps of it misses 1e-9 in the last bits. The grid must still
        // end bit-exactly on end_time.
        for (dt, end) in [
            (1e-10, 1e-9),
            (0.1, 0.7),
            (0.3, 0.9),
            (0.05e-9, 1.0e-9),
            (0.25, 1.0),
        ] {
            let pts = TransientOptions::new(dt, end).time_points();
            assert_eq!(pts[0], 0.0);
            let last = *pts.last().unwrap();
            assert_eq!(
                last.to_bits(),
                f64::to_bits(end),
                "grid for dt={dt}, end={end} ends at {last:e}, not {end:e}"
            );
            // Interior points are the drift-free k·h form.
            for (k, &t) in pts.iter().enumerate().take(pts.len() - 1) {
                assert_eq!(t.to_bits(), (k as f64 * dt).to_bits());
            }
        }
    }

    #[test]
    fn tr_bdf2_holds_steady_state_exactly() {
        let (g, c) = rc_circuit();
        let u = |_t: f64| vec![0.5];
        let opts = TransientOptions {
            time_step: 0.1,
            end_time: 1.0,
            method: IntegrationMethod::TrBdf2,
        };
        let sol = solve_transient(&g, &c, u, &opts).unwrap();
        for v in sol.states().columns() {
            assert!(
                (v[0] - 0.5).abs() < 1e-12,
                "steady state drifted to {}",
                v[0]
            );
        }
    }

    #[test]
    fn tr_bdf2_is_second_order_on_smooth_excitation() {
        let (g, c) = rc_circuit();
        let u = |t: f64| vec![0.5 * (1.0 - (std::f64::consts::PI * t).cos())];
        let value_at_end = |method: IntegrationMethod, step: f64| {
            let sol = solve_transient(
                &g,
                &c,
                u,
                &TransientOptions {
                    time_step: step,
                    end_time: 1.0,
                    method,
                },
            )
            .unwrap();
            sol.state_at(sol.len() - 1)[0]
        };
        let reference = value_at_end(IntegrationMethod::Trapezoidal, 0.0005);
        let coarse = (value_at_end(IntegrationMethod::TrBdf2, 0.05) - reference).abs();
        let fine = (value_at_end(IntegrationMethod::TrBdf2, 0.025) - reference).abs();
        let be = (value_at_end(IntegrationMethod::BackwardEuler, 0.05) - reference).abs();
        // Halving the step must cut the error by ~4 (order 2), and the
        // composite must clearly beat first-order backward Euler.
        assert!(fine < 0.35 * coarse, "coarse {coarse:e}, fine {fine:e}");
        assert!(coarse < 0.25 * be, "tr-bdf2 {coarse:e} vs BE {be:e}");
    }

    #[test]
    fn companion_family_matches_one_shot_factorisation_bitwise() {
        let grid = opera_grid::GridSpec::small_test(150).build().unwrap();
        let g = grid.conductance_matrix();
        let c = grid.capacitance_matrix();
        let family = CompanionFamily::new(&g, &c).unwrap();
        let u0 = grid.excitation(0.0);
        let u1 = grid.excitation(0.05e-9);
        let v0 = MatrixFactor::cholesky_or_lu(&g).unwrap().solve(&u0);
        let mut ws = SolveWorkspace::new();
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
        ] {
            let one_shot = CompanionSystem::new(&g, &c, 0.05e-9, method).unwrap();
            let shared = family.system_for(0.05e-9, method).unwrap();
            let (mut a, mut b) = (vec![0.0; g.nrows()], vec![0.0; g.nrows()]);
            one_shot.step_into(&v0, &u0, &u1, &mut a, &mut ws);
            shared.step_into(&v0, &u0, &u1, &mut b, &mut ws);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "family factor diverged");
            }
        }
    }

    #[test]
    fn companion_family_reuses_one_symbolic_analysis_and_refactors_per_call() {
        let (g, c) = rc_circuit();
        let family = CompanionFamily::new(&g, &c).unwrap();
        assert_eq!(family.symbolic_analysis_count(), 1);
        assert_eq!(family.refactorization_count(), 0);
        family.system_for(0.1, IntegrationMethod::TrBdf2).unwrap();
        assert_eq!(family.refactorization_count(), 1);
        // Every call refactors numerics only, a repeated step size too; the
        // analysis count stays 1.
        family.system_for(0.1, IntegrationMethod::TrBdf2).unwrap();
        family.system_for(0.05, IntegrationMethod::TrBdf2).unwrap();
        assert_eq!(family.refactorization_count(), 3);
        assert_eq!(family.symbolic_analysis_count(), 1);
        assert!(family.system_for(-1.0, IntegrationMethod::TrBdf2).is_err());
        assert_eq!(family.refactorization_count(), 3);
    }

    #[test]
    fn tr_bdf2_step_into_matches_the_panel_path() {
        let grid = opera_grid::GridSpec::small_test(80).build().unwrap();
        let g = grid.conductance_matrix();
        let c = grid.capacitance_matrix();
        let n = g.nrows();
        let sys = CompanionSystem::new(&g, &c, 0.05e-9, IntegrationMethod::TrBdf2).unwrap();
        let u0 = grid.excitation(0.0);
        let u_mid = grid.excitation(TR_BDF2_GAMMA * 0.05e-9);
        let u1 = grid.excitation(0.05e-9);
        let v0 = MatrixFactor::cholesky_or_lu(&g).unwrap().solve(&u0);
        let mut ws = SolveWorkspace::with_capacity(2 * n);
        let (mut scalar_stage, mut scalar) = (vec![0.0; n], vec![0.0; n]);
        sys.step_tr_bdf2_into(
            &v0,
            &u0,
            &u_mid,
            &u1,
            &mut scalar_stage,
            &mut scalar,
            &mut ws,
        );
        // Panel with two identical columns: both must equal the scalar step
        // bit for bit.
        let fill = |src: &[f64]| {
            let mut p = Panel::zeros(n, 2);
            p.col_mut(0).copy_from_slice(src);
            p.col_mut(1).copy_from_slice(src);
            p
        };
        let (vp, up0, upm, up1) = (fill(&v0), fill(&u0), fill(&u_mid), fill(&u1));
        let mut stage = Panel::zeros(n, 2);
        let mut out = Panel::zeros(n, 2);
        sys.step_tr_bdf2_panel_into(&vp, &up0, &upm, &up1, &mut stage, &mut out, &mut ws);
        for j in 0..2 {
            for (x, y) in scalar.iter().zip(out.col(j)) {
                assert_eq!(x.to_bits(), y.to_bits(), "panel column {j} diverged");
            }
        }
    }

    #[test]
    fn tr_bdf2_error_estimate_shrinks_with_the_step() {
        let (g, c) = rc_circuit();
        let u = |t: f64| vec![0.5 * (1.0 - (std::f64::consts::PI * t).cos())];
        let norm_at = |h: f64| {
            let sys = CompanionSystem::new(&g, &c, h, IntegrationMethod::TrBdf2).unwrap();
            let u0 = u(0.0);
            let um = u(TR_BDF2_GAMMA * h);
            let u1 = u(h);
            let v0 = vec![0.0];
            let mut stage = vec![0.0];
            let mut next = vec![0.0];
            let mut ws = SolveWorkspace::new();
            sys.step_tr_bdf2_into(&v0, &u0, &um, &u1, &mut stage, &mut next, &mut ws);
            let mut err = vec![0.0];
            sys.tr_bdf2_error_into(&v0, &stage, &next, &u0, &um, &u1, &mut err, &mut ws);
            err[0].abs()
        };
        let coarse = norm_at(0.2);
        let fine = norm_at(0.1);
        // The local error of an order-2 step is O(h³): halving the step must
        // shrink the estimate by far more than half.
        assert!(fine < 0.3 * coarse, "coarse {coarse:e}, fine {fine:e}");
    }
}
