//! Pluggable solver backends for the augmented Galerkin system.
//!
//! The OPERA pipeline splits one stochastic transient analysis into two
//! phases with very different costs:
//!
//! 1. **prepare** — symbolic + numeric factorisation (or preconditioner
//!    construction) for a given [`GalerkinSystem`] and time step, and
//! 2. **step** — one implicit time step per transient point, reusing the
//!    prepared factors.
//!
//! [`SolverBackend`] captures phase 1 and returns a [`PreparedSolver`] that
//! captures phase 2. The split is what lets the
//! [`OperaEngine`](crate::engine::OperaEngine) amortise a single preparation
//! over arbitrarily many scenarios, and it makes an alternative solver a
//! value passed to the engine builder
//! ([`EngineBuilder::solver`](crate::engine::EngineBuilder::solver)) instead
//! of a match-arm edit in the transient loop.
//!
//! Two backends ship with the crate:
//!
//! * [`BlockJacobiCg`] — **the default** ([`default_backend`]): conjugate
//!   gradient on the augmented system with Ullmann's Kronecker-product
//!   preconditioner `T̃ ⊗ K`, which needs only two *nominal-size*
//!   factorisations `K` plus a dense `(N+1)×(N+1)` factor `T̃` (the paper's
//!   §5.2 "iterative block solver with appropriate pre-conditioner"; the
//!   backend keeps its historical name).
//! * [`DirectCholesky`] — sparse Cholesky of the augmented companion matrix,
//!   factored once and reused for every step (falls back to LU, counted, if
//!   the matrix is not numerically SPD). The bit-pinned reference: select it
//!   by value, `.solver(Arc::new(DirectCholesky))`.
//!
//! Every prepared solver re-steps through its companion family
//! ([`PreparedSolver::with_time_step`]: one numeric refactorisation, no new
//! analysis), so the adaptive controller of [`crate::adaptive`] runs on each
//! of them. A solver whose factor only preconditions also re-steps without
//! refactoring ([`PreparedSolver::restep_keeping_factor`]), which the
//! controller uses for step sizes near one it already holds a factor for.

use std::fmt;
use std::sync::Arc;

use opera_pce::GalerkinCoupling;
use opera_sparse::cg::{self, CgOptions, GuessBasis, LinearOperator, Preconditioner};
use opera_sparse::{CholeskyFactor, CsrMatrix, MatrixFactor, Panel, SolveWorkspace, SparseError};
use opera_variation::StochasticGridModel;

use crate::galerkin::GalerkinSystem;
use crate::transient::{
    assert_same_columns, companion_scale, CompanionFamily, CompanionSystem, IntegrationMethod,
    StepRhs, TransientOptions,
};
use crate::{OperaError, Result};

/// A strategy for solving the augmented Galerkin system.
///
/// Implementations perform all one-time work (factorisations, preconditioner
/// setup) in [`SolverBackend::prepare`] and return a [`PreparedSolver`] that
/// owns the factors and can be reused for every time step — and, through the
/// engine, for every scenario that shares the system and time step.
pub trait SolverBackend: fmt::Debug + Send + Sync {
    /// Stable identifier of the backend, shown in reports and errors.
    fn name(&self) -> &str;

    /// Validates the backend's own parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for inconsistent parameters.
    fn validate(&self) -> Result<()> {
        Ok(())
    }

    /// Performs the one-time setup for `system` and the given transient
    /// configuration: factorisations of the DC and companion matrices, or the
    /// equivalent preconditioner construction.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors.
    fn prepare(
        &self,
        model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> Result<Box<dyn PreparedSolver>>;
}

/// The reusable product of [`SolverBackend::prepare`]: owns every factor
/// needed to run an augmented transient and is shareable across threads, so
/// batched scenarios can step it concurrently.
///
/// Every method works on [`Panel`]s: column `j` of an output is the solve or
/// step of column `j` of the inputs, and a single right-hand side is a
/// one-column panel. The methods write into caller-provided panels and
/// borrow scratch from a [`SolveWorkspace`], so a steady-state transient
/// loop with a warm workspace never touches the allocator, on every
/// built-in backend. Each panel column must be bit-identical to stepping
/// that column alone.
/// [`integrate_fixed_step`](crate::transient::integrate_fixed_step) and the
/// adaptive controller are the loops that drive them.
pub trait PreparedSolver: Send + Sync {
    /// Solves the DC system `G̃·a(0) = Ũ(0)` for every column of a panel of
    /// initial excitations.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (iterative backends may fail to converge).
    fn solve_dc_panel(&self, u0: &Panel, out: &mut Panel, ws: &mut SolveWorkspace) -> Result<()>;

    /// Advances one implicit single-stage (backward Euler or trapezoidal)
    /// time step for a panel of independent states: given the states at
    /// `t_k` and the excitations at `t_k` and `t_{k+1}`, computes the states
    /// at `t_{k+1}`.
    ///
    /// `guesses` holds one [`GuessBasis`] per column, lent by the loop that
    /// steps one transient and dropped with it. An iterative backend starts
    /// column `j`'s solve from the projection of its right-hand side onto
    /// `guesses[j]` (seeded with the step-start state when empty) and adds
    /// the step's correction to it; a direct backend ignores them. Column
    /// `j` depends only on its own inputs and basis, so it stays
    /// bit-identical to stepping that column alone with a basis of its own.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] when the backend was prepared
    /// for TR-BDF2, and propagates solver errors.
    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        guesses: &mut [GuessBasis],
        ws: &mut SolveWorkspace,
    ) -> Result<()>;

    /// Advances one TR-BDF2 composite step for a panel of independent
    /// states: the trapezoidal stage over `[t, t + γh]` lands in `stage`,
    /// the BDF2 stage over the rest of the step lands in `out`. `u_mid` is
    /// the excitation at `t + γh`.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] when the backend was prepared
    /// for a single-stage scheme, and propagates solver errors.
    #[allow(clippy::too_many_arguments)]
    fn step_tr_bdf2_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_mid: &Panel,
        u_next: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()>;

    /// The embedded local-error estimate of a TR-BDF2 step just taken: the
    /// Hosea–Shampine residual over the step-start, stage and step-end
    /// `states` (with the `excitations` at `t`, `t + γh` and `t + h`),
    /// filtered through this solver's companion matrix as in
    /// [`CompanionSystem::tr_bdf2_error_into`], column by column into `err`.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] when the backend was prepared
    /// for a single-stage scheme, and propagates solver errors.
    fn tr_bdf2_error_panel_into(
        &self,
        states: [&Panel; 3],
        excitations: [&Panel; 3],
        err: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()>;

    /// The time step this solver steps at.
    fn time_step(&self) -> f64;

    /// The companion family that serves this solver's step-size changes:
    /// one symbolic analysis, a numeric refactorisation per re-step. For
    /// [`DirectCholesky`] it factors the augmented companion, for
    /// [`BlockJacobiCg`] the nominal companion its preconditioner is built
    /// on. Its symbolic-analysis count is what the adaptive controller
    /// reports.
    fn companion_family(&self) -> &CompanionFamily;

    /// Re-prepares this solver for a different fixed time step, reusing
    /// every step-size-independent artifact (the DC factor and the shared
    /// symbolic analysis) and re-running one numeric factorisation through
    /// [`companion_family`](Self::companion_family). Nothing is cached:
    /// every call refactors, and the factor lives as long as the solver it
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for a non-positive step and
    /// propagates factorisation errors.
    fn with_time_step(&self, time_step: f64) -> Result<Box<dyn PreparedSolver>>;

    /// This solver re-stepped to `time_step` *without* refactoring: it
    /// keeps this solver's factor and steps the exact companion of
    /// `time_step`, and its [`time_step`](Self::time_step) reports
    /// `time_step`. `None` when the factor is the solve, so a factor of
    /// another step size would step the wrong system
    /// ([`DirectCholesky`]), or when `time_step` is not positive. On
    /// [`BlockJacobiCg`] the factor only preconditions the exact operator
    /// `G̃ + s·C̃`, so a factor from a nearby step size costs a few
    /// iterations at most. The adaptive controller re-steps through this
    /// within one solve; [`with_time_step`](Self::with_time_step) keeps
    /// its exact-factor contract.
    fn restep_keeping_factor(&self, time_step: f64) -> Option<Box<dyn PreparedSolver>>;
}

/// Rejects a step call (TR-BDF2 or single-stage) that does not match the
/// scheme the backend was prepared for.
pub(crate) fn check_scheme(prepared: IntegrationMethod, tr_bdf2_call: bool) -> Result<()> {
    if (prepared == IntegrationMethod::TrBdf2) == tr_bdf2_call {
        return Ok(());
    }
    Err(OperaError::InvalidOptions {
        reason: format!("backend prepared for {prepared:?} cannot take this step"),
    })
}

// --------------------------------------------------------------------------
// Direct backend.
// --------------------------------------------------------------------------

/// Sparse Cholesky factorisation of the full `(N+1)·n` augmented companion
/// matrix, factored once and reused for every time step. Falls back to
/// left-looking LU, counted as `sparse.cholesky_fallbacks`, if a matrix is
/// not numerically positive definite (see
/// [`MatrixFactor::from_cholesky_attempt`]). The bit-pinned reference
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectCholesky;

/// A direct prepared solver: a DC factor of `G`, a factored companion
/// system at one step size, and the companion family (one symbolic analysis
/// for every step size) both came from. It prepares the augmented system of
/// [`DirectCholesky`] and the deterministic transients (fixed-step,
/// adaptive, Monte Carlo and special case) alike.
///
/// The DC factor is [`CompanionFamily::dc_factor`]: it shares the analysis
/// of `G + C` when the two patterns match (grounded capacitors touch only
/// the diagonal, so nominal `G` does) and analyses `G` alone otherwise (the
/// augmented `G̃` never has `G̃ + C̃`'s pattern). Either way it is
/// bit-identical to [`MatrixFactor::cholesky_or_lu`] of `G`.
pub(crate) struct DirectPrepared {
    pub(crate) dc: Arc<MatrixFactor>,
    family: Arc<CompanionFamily>,
    pub(crate) companion: Arc<CompanionSystem>,
}

impl DirectPrepared {
    /// The preparation of `family`'s system at `time_step` and `method`:
    /// one numeric factorisation of the companion against the family's
    /// analysis and the DC factor of [`CompanionFamily::dc_factor`].
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for a non-positive step and
    /// propagates factorisation errors.
    pub(crate) fn new(
        family: CompanionFamily,
        time_step: f64,
        method: IntegrationMethod,
    ) -> Result<Self> {
        Ok(DirectPrepared {
            dc: Arc::new(family.dc_factor()?),
            companion: family.system_for(time_step, method)?,
            family: Arc::new(family),
        })
    }
}

impl PreparedSolver for DirectPrepared {
    fn solve_dc_panel(&self, u0: &Panel, out: &mut Panel, ws: &mut SolveWorkspace) -> Result<()> {
        out.data_mut().copy_from_slice(u0.data());
        self.dc.solve_panel(out, ws);
        Ok(())
    }

    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        _guesses: &mut [GuessBasis],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.companion.method(), false)?;
        self.companion
            .step_panel_into(state, u_prev, u_next, out, ws);
        Ok(())
    }

    fn step_tr_bdf2_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_mid: &Panel,
        u_next: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.companion.method(), true)?;
        self.companion
            .step_tr_bdf2_panel_into(state, u_prev, u_mid, u_next, stage, out, ws);
        Ok(())
    }

    fn tr_bdf2_error_panel_into(
        &self,
        [v, v_mid, v_new]: [&Panel; 3],
        [u, u_mid, u_new]: [&Panel; 3],
        err: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.companion.method(), true)?;
        assert_same_columns(&[v, v_mid, v_new, u, u_mid, u_new], err);
        for j in 0..err.ncols() {
            self.companion.tr_bdf2_error_into(
                v.col(j),
                v_mid.col(j),
                v_new.col(j),
                u.col(j),
                u_mid.col(j),
                u_new.col(j),
                err.col_mut(j),
                ws,
            );
        }
        Ok(())
    }

    fn time_step(&self) -> f64 {
        self.companion.time_step()
    }

    fn companion_family(&self) -> &CompanionFamily {
        &self.family
    }

    fn with_time_step(&self, time_step: f64) -> Result<Box<dyn PreparedSolver>> {
        Ok(Box::new(DirectPrepared {
            dc: Arc::clone(&self.dc),
            family: Arc::clone(&self.family),
            companion: self.family.system_for(time_step, self.companion.method())?,
        }))
    }

    fn restep_keeping_factor(&self, _time_step: f64) -> Option<Box<dyn PreparedSolver>> {
        None
    }
}

impl SolverBackend for DirectCholesky {
    fn name(&self) -> &str {
        DIRECT_CHOLESKY
    }

    fn prepare(
        &self,
        _model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> Result<Box<dyn PreparedSolver>> {
        let _span = opera_trace::span("solver.prepare");
        let (g, c) = system.shared_matrices();
        Ok(Box::new(DirectPrepared::new(
            CompanionFamily::shared(g, c)?,
            transient.time_step,
            transient.method,
        )?))
    }
}

// --------------------------------------------------------------------------
// Kronecker-preconditioned CG backend.
// --------------------------------------------------------------------------

/// Conjugate gradient on the augmented system with Ullmann's
/// Kronecker-product preconditioner `M = T̃ ⊗ K` (Ullmann 2010, *SIAM J.
/// Sci. Comput.* 32). The augmented matrix is `T_0 ⊗ K + Σ_d T_d ⊗ A_d` with
/// `T_0 = diag⟨ψ_i²⟩`, `T_d = ⟨ξ_d ψ_i ψ_j⟩`, the nominal matrix `K` (`G_a`
/// for the DC solve, `G_a + s·C_a` for a step) and the perturbations
/// `A_d = G_d + s·C_d`; `M` keeps `K` and folds each `A_d` into the
/// stochastic factor `T̃ = T_0 + Σ_d α_d·T_d` with the Frobenius-optimal
/// `α_d = ⟨A_d, K⟩_F / ⟨K, K⟩_F`. Preparation therefore factors only two
/// nominal-size matrices, `G_a` and `G_a + s·C_a`, plus a dense
/// `(N+1)×(N+1)` Cholesky factor of each step size's `T̃`, and never
/// assembles or factors anything of the augmented size; the iteration
/// applies `G̃ + s·C̃` straight from the Galerkin system's own matrices.
/// The mean-based block preconditioner of Pellissetti & Ghanem (2000) is
/// the `α = 0` case, and the backend keeps its historical name
/// ([`BLOCK_JACOBI_CG`]) for compatibility.
///
/// A step-size change through [`PreparedSolver::with_time_step`] touches
/// three things: the scalar `s`, `T̃⁻¹` (the `α_d(s)` are rational in `s`
/// over Frobenius products taken once at prepare, so no matrix is read
/// again), and one numeric refactorisation of the nominal companion against
/// the single symbolic analysis its [`CompanionFamily`] keeps for every
/// step size. [`PreparedSolver::restep_keeping_factor`] touches only `s`:
/// the operator is exact at the new step and the preconditioner lags. The
/// adaptive controller's error estimate is solved to a looser tolerance
/// than the stages (`ERROR_ESTIMATE_TOLERANCE`, 1e-6). A `T̃` that is not
/// positive definite (variations so large that `G(ξ)` goes indefinite at a
/// quadrature node) fails the prepare or re-step with
/// [`OperaError::Sparse`]`(`[`SparseError::NotPositiveDefinite`]`)`. A CG
/// solve that misses `tolerance` within `max_iterations` fails with
/// [`OperaError::Sparse`]`(`[`SparseError::DidNotConverge`]`)` carrying its
/// iterations and final relative residual — there is no fallback to a
/// direct solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockJacobiCg {
    /// Relative residual tolerance `‖b − A·x‖/‖b‖` of every CG solve.
    pub tolerance: f64,
    /// Maximum CG iterations per solve.
    pub max_iterations: usize,
}

/// Relative residual tolerance of [`BlockJacobiCg`]'s solve of the adaptive
/// controller's error estimate (the backend's own tolerance when that is
/// looser). The controller reads the estimate only through a weighted-RMS
/// norm compared with 1 and its cube root, so six digits decide both as
/// well as ten (Hosea & Shampine 1996, *Appl. Numer. Math.* 20); the
/// stages themselves keep the backend's tolerance.
const ERROR_ESTIMATE_TOLERANCE: f64 = 1e-6;

impl Default for BlockJacobiCg {
    fn default() -> Self {
        BlockJacobiCg {
            tolerance: 1e-10,
            max_iterations: 2_000,
        }
    }
}

impl SolverBackend for BlockJacobiCg {
    fn name(&self) -> &str {
        BLOCK_JACOBI_CG
    }

    fn validate(&self) -> Result<()> {
        if self.tolerance <= 0.0 || self.tolerance.is_nan() || self.max_iterations == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "CG tolerance must be positive and max_iterations nonzero".to_string(),
            });
        }
        Ok(())
    }

    fn prepare(
        &self,
        model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> Result<Box<dyn PreparedSolver>> {
        let _span = opera_trace::span("solver.prepare");
        self.validate()?;
        let kronecker = Arc::new(KroneckerTerms::new(model, system.coupling())?);
        let c_scale = companion_scale(transient.method, transient.time_step);
        let (dc_mix, mix) = (kronecker.mix(0.0)?, kronecker.mix(c_scale)?);
        let (g_nominal, c_nominal) = model.shared_nominal_matrices();
        let family = Arc::new(CompanionFamily::shared(g_nominal, c_nominal)?);
        // `G + C` has `G`'s pattern (grounded capacitors), so the DC factor
        // shares the family's one analysis.
        let dc = family.dc_factor()?;
        let companion = family.system_for(transient.time_step, transient.method)?;
        let (g, c) = system.shared_matrices();
        Ok(Box::new(CgPrepared {
            g,
            c,
            c_scale,
            time_step: transient.time_step,
            method: transient.method,
            dc: Arc::new(dc),
            family,
            companion,
            kronecker,
            dc_mix,
            mix,
            options: CgOptions {
                max_iterations: self.max_iterations,
                tolerance: self.tolerance,
            },
        }))
    }
}

/// What the stochastic factor `T̃(s) = T_0 + Σ_d α_d(s)·T_d` of the
/// Kronecker preconditioner needs for any `s`: the Galerkin coupling
/// matrices, and the Frobenius products of which `α_d(s)` is a rational
/// function.
struct KroneckerTerms {
    /// `⟨ψ_i²⟩`, the diagonal `T_0`, one per basis function.
    norms: Vec<f64>,
    /// `T_d = ⟨ξ_d ψ_i ψ_j⟩` per variable, row-major.
    linear: Vec<Vec<f64>>,
    /// `⟨G_a,G_a⟩`, `⟨G_a,C_a⟩`, `⟨C_a,C_a⟩`.
    nominal: [f64; 3],
    /// `⟨G_d,G_a⟩`, `⟨G_d,C_a⟩`, `⟨C_d,G_a⟩`, `⟨C_d,C_a⟩` per variable.
    perturbation: Vec<[f64; 4]>,
}

impl KroneckerTerms {
    fn new(model: &StochasticGridModel, coupling: &GalerkinCoupling) -> Result<Self> {
        let (ga, ca) = (model.nominal_conductance(), model.nominal_capacitance());
        let perturbation = (0..model.n_vars())
            .map(|d| {
                let (gd, cd) = (
                    model.conductance_perturbation(d),
                    model.capacitance_perturbation(d),
                );
                Ok([
                    gd.frobenius_dot(ga)?,
                    gd.frobenius_dot(ca)?,
                    cd.frobenius_dot(ga)?,
                    cd.frobenius_dot(ca)?,
                ])
            })
            .collect::<std::result::Result<_, SparseError>>()?;
        Ok(KroneckerTerms {
            norms: (0..coupling.len())
                .map(|i| coupling.norm_squared(i))
                .collect(),
            linear: (0..coupling.n_vars())
                .map(|d| coupling.linear_matrix(d).to_vec())
                .collect(),
            nominal: [
                ga.frobenius_dot(ga)?,
                ga.frobenius_dot(ca)?,
                ca.frobenius_dot(ca)?,
            ],
            perturbation,
        })
    }

    /// `α_d(s) = ⟨G_d + s·C_d, K⟩_F / ⟨K, K⟩_F` with `K = G_a + s·C_a`.
    fn alpha(&self, d: usize, s: f64) -> f64 {
        let [gg, gc, cc] = self.nominal;
        let [dg_g, dg_c, dc_g, dc_c] = self.perturbation[d];
        (dg_g + s * (dg_c + dc_g) + s * s * dc_c) / (gg + s * (2.0 * gc + s * cc))
    }

    /// `T̃(s)`, row-major.
    fn stochastic_factor(&self, s: f64) -> Vec<f64> {
        let p = self.norms.len();
        let mut t = vec![0.0; p * p];
        for (i, &norm) in self.norms.iter().enumerate() {
            t[i * p + i] = norm;
        }
        for (d, t_d) in self.linear.iter().enumerate() {
            let alpha = self.alpha(d, s);
            for (t, &l) in t.iter_mut().zip(t_d) {
                *t += alpha * l;
            }
        }
        t
    }

    /// `T̃(s)⁻¹`: the columns of its Cholesky solve of the identity, which
    /// is row-major `T̃(s)⁻¹` up to rounding since `T̃(s)` is symmetric.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotPositiveDefinite`] if `T̃(s)` is not positive
    /// definite.
    fn mix(&self, s: f64) -> Result<Arc<[f64]>> {
        let p = self.norms.len();
        let factor = CholeskyFactor::factor(&CsrMatrix::from_dense(
            p,
            p,
            &self.stochastic_factor(s),
            0.0,
        ))?;
        let mut inv = vec![0.0; p * p];
        for i in 0..p {
            inv[i * p + i] = 1.0;
        }
        factor.solve_columns(&mut inv, &mut SolveWorkspace::new());
        Ok(inv.into())
    }
}

/// The augmented companion `G̃ + s·C̃`, applied without being assembled:
/// one pass over the rows of both
/// ([`opera_sparse::CsrView::matvec_sum_into`]).
struct AugmentedCompanion<'a> {
    g: &'a CsrMatrix,
    c: &'a CsrMatrix,
    c_scale: f64,
}

impl LinearOperator for AugmentedCompanion<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.g.nrows(), self.g.ncols())
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.g
            .view()
            .matvec_sum_into(self.c.view(), self.c_scale, x, y);
    }
}

/// [`BlockJacobiCg`]'s preparation. Everything but `c_scale` and
/// `companion` is shared (`Arc`) with the preparations it re-steps to.
#[derive(Clone)]
struct CgPrepared {
    /// `G̃`, shared with the Galerkin system.
    g: Arc<CsrMatrix>,
    /// `C̃`, shared with the Galerkin system.
    c: Arc<CsrMatrix>,
    /// `s` in the augmented companion `G̃ + s·C̃` of this step size.
    c_scale: f64,
    /// The step size this solver steps at; `companion` and `mix` may come
    /// from another one ([`PreparedSolver::restep_keeping_factor`]).
    time_step: f64,
    method: IntegrationMethod,
    /// The nominal DC factor: the preconditioner of the DC solve.
    dc: Arc<MatrixFactor>,
    /// The nominal companion family behind every step size's
    /// preconditioner.
    family: Arc<CompanionFamily>,
    /// The nominal companion `K` of the stepping preconditioner, factored
    /// at this step size or, after a re-step that kept it, at a nearby one.
    companion: Arc<CompanionSystem>,
    /// What every step size's `T̃` is rebuilt from.
    kronecker: Arc<KroneckerTerms>,
    /// `T̃⁻¹` of the DC solve (`s = 0`).
    dc_mix: Arc<[f64]>,
    /// `T̃⁻¹` of the step size `companion` was factored at.
    mix: Arc<[f64]>,
    options: CgOptions,
}

// Every CG step solves with workspace-borrowed vectors only: the right-hand
// side from `ws`, the iterates from the workspace nested in it and the
// preconditioner's scratch one level further down.
// lint: hot(cg-step)

/// The Kronecker preconditioner `T̃ ⊗ K` over one nominal factor `K`. The
/// stacked residual is column-major over basis blocks, so it *is* an
/// `n × (N+1)` panel `R`, and `M⁻¹` maps it to `K⁻¹·R·T̃⁻¹` in one pass:
/// the blocks are mixed by `T̃⁻¹` (`z_j = Σ_i T̃⁻¹_ij·r_i` in ascending `i`)
/// as the factor's strip solve packs them, then solved and unpacked into
/// `z` ([`MatrixFactor::solve_mixed_into`]).
struct KroneckerNominal<'a> {
    factor: &'a MatrixFactor,
    /// `T̃⁻¹`, row-major.
    mix: &'a [f64],
}

impl Preconditioner for KroneckerNominal<'_> {
    fn apply_into(&self, r: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
        self.factor.solve_mixed_into(r, self.mix, z, ws);
    }
}

impl CgPrepared {
    fn rhs(&self) -> StepRhs<'_> {
        StepRhs {
            c: self.c.view(),
            c_scale: self.c_scale,
            g: Some(self.g.view()),
        }
    }

    /// The stepping operator `G̃ + s·C̃` and its preconditioner.
    fn step_system(&self) -> (AugmentedCompanion<'_>, KroneckerNominal<'_>) {
        (
            AugmentedCompanion {
                g: &self.g,
                c: &self.c,
                c_scale: self.c_scale,
            },
            KroneckerNominal {
                factor: self.companion.factor(),
                mix: &self.mix,
            },
        )
    }

    /// Solves `(G̃ + s·C̃)·x = rhs` from the guess already in `x`, to
    /// `options`' tolerance.
    fn solve_step(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        options: CgOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        let (operator, preconditioner) = self.step_system();
        cg::solve_in_place(&operator, rhs, x, &preconditioner, options, ws)?;
        Ok(())
    }
}

impl PreparedSolver for CgPrepared {
    fn solve_dc_panel(&self, u0: &Panel, out: &mut Panel, ws: &mut SolveWorkspace) -> Result<()> {
        assert_same_columns(&[u0], out);
        let n = self.dc.dim();
        let preconditioner = KroneckerNominal {
            factor: &self.dc,
            mix: &self.dc_mix,
        };
        for j in 0..out.ncols() {
            // The nominal DC solution in block 0 is the guess.
            let (u, x) = (u0.col(j), out.col_mut(j));
            x.fill(0.0);
            x[..n].copy_from_slice(&u[..n]);
            self.dc.solve_in_place(&mut x[..n], ws);
            cg::solve_in_place(&*self.g, u, x, &preconditioner, self.options, ws)?;
        }
        Ok(())
    }

    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        guesses: &mut [GuessBasis],
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.method, false)?;
        assert_same_columns(&[state, u_prev, u_next], out);
        assert_eq!(guesses.len(), out.ncols(), "one guess basis per column");
        let (operator, preconditioner) = self.step_system();
        for (j, guess) in guesses.iter_mut().enumerate() {
            // The step-start state seeds an empty basis; otherwise the
            // guess is the projection onto the basis.
            let (rhs, inner) = ws.split(state.nrows());
            let v = state.col(j);
            self.rhs()
                .single_stage(self.method, v, u_prev.col(j), u_next.col(j), rhs);
            let x = out.col_mut(j);
            x.copy_from_slice(v);
            guess.solve_in_place(&operator, rhs, x, &preconditioner, self.options, inner)?;
        }
        Ok(())
    }

    fn step_tr_bdf2_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_mid: &Panel,
        u_next: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.method, true)?;
        assert_same_columns(&[state, u_prev, u_mid, u_next, stage], out);
        for j in 0..out.ncols() {
            // TR stage guessed from the step-start state, BDF2 stage from
            // the TR stage.
            let (rhs, inner) = ws.split(state.nrows());
            let v = state.col(j);
            self.rhs().trapezoidal(v, u_prev.col(j), u_mid.col(j), rhs);
            let v_mid = stage.col_mut(j);
            v_mid.copy_from_slice(v);
            self.solve_step(rhs, v_mid, self.options, inner)?;
            let v_mid = stage.col(j);
            self.rhs().bdf2(v, v_mid, u_next.col(j), rhs);
            let x = out.col_mut(j);
            x.copy_from_slice(v_mid);
            self.solve_step(rhs, x, self.options, inner)?;
        }
        Ok(())
    }

    fn tr_bdf2_error_panel_into(
        &self,
        [v, v_mid, v_new]: [&Panel; 3],
        [u, u_mid, u_new]: [&Panel; 3],
        err: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.method, true)?;
        assert_same_columns(&[v, v_mid, v_new, u, u_mid, u_new], err);
        let options = CgOptions {
            tolerance: self.options.tolerance.max(ERROR_ESTIMATE_TOLERANCE),
            ..self.options
        };
        for j in 0..err.ncols() {
            let (rhs, inner) = ws.split(err.nrows());
            self.rhs().tr_bdf2_error(
                [v.col(j), v_mid.col(j), v_new.col(j)],
                [u.col(j), u_mid.col(j), u_new.col(j)],
                rhs,
            );
            let x = err.col_mut(j);
            x.fill(0.0);
            self.solve_step(rhs, x, options, inner)?;
        }
        Ok(())
    }

    // lint: end-hot

    fn time_step(&self) -> f64 {
        self.time_step
    }

    fn companion_family(&self) -> &CompanionFamily {
        &self.family
    }

    fn with_time_step(&self, time_step: f64) -> Result<Box<dyn PreparedSolver>> {
        let companion = self.family.system_for(time_step, self.method)?;
        let c_scale = companion_scale(self.method, time_step);
        Ok(Box::new(CgPrepared {
            c_scale,
            time_step,
            companion,
            mix: self.kronecker.mix(c_scale)?,
            ..self.clone()
        }))
    }

    fn restep_keeping_factor(&self, time_step: f64) -> Option<Box<dyn PreparedSolver>> {
        (time_step > 0.0 && time_step.is_finite()).then(|| {
            Box::new(CgPrepared {
                c_scale: companion_scale(self.method, time_step),
                time_step,
                ..self.clone()
            }) as Box<dyn PreparedSolver>
        })
    }
}

// --------------------------------------------------------------------------
// Default backend and names.
// --------------------------------------------------------------------------

/// The default backend of the engine builder: [`BlockJacobiCg`] at its
/// default tolerance. Pass [`DirectCholesky`] for the bit-pinned direct
/// reference.
pub fn default_backend() -> Arc<dyn SolverBackend> {
    Arc::new(BlockJacobiCg::default())
}

/// [`SolverBackend::name`] of [`DirectCholesky`].
pub const DIRECT_CHOLESKY: &str = "direct-cholesky";
/// [`SolverBackend::name`] of [`BlockJacobiCg`].
pub const BLOCK_JACOBI_CG: &str = "block-jacobi-cg";

#[cfg(test)]
mod tests {
    use super::*;
    use opera_grid::GridSpec;
    use opera_pce::{OrthogonalBasis, PolynomialFamily};
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn prepared_setup() -> (StochasticGridModel, GalerkinSystem, TransientOptions) {
        let grid = GridSpec::small_test(60).with_seed(2).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
        let system = GalerkinSystem::assemble(&model, &basis).unwrap();
        (model, system, TransientOptions::new(0.2e-9, 1.0e-9))
    }

    /// The two built-in backends, by value.
    fn builtin_backends() -> [Arc<dyn SolverBackend>; 2] {
        [Arc::new(DirectCholesky), Arc::new(BlockJacobiCg::default())]
    }

    /// One-column panel of `v`.
    fn col(v: &[f64]) -> Panel {
        Panel::from_vec(v.len(), 1, v.to_vec())
    }

    /// DC start plus one step of `prepared` (TR-BDF2 when `u_mid` is given).
    fn dc_and_step(
        prepared: &dyn PreparedSolver,
        u0: &[f64],
        u_mid: Option<&[f64]>,
        u1: &[f64],
    ) -> Result<(Panel, Panel)> {
        let dim = u0.len();
        let mut ws = SolveWorkspace::new();
        let mut a0 = Panel::zeros(dim, 1);
        prepared.solve_dc_panel(&col(u0), &mut a0, &mut ws)?;
        let mut a1 = Panel::zeros(dim, 1);
        match u_mid {
            Some(u_mid) => prepared.step_tr_bdf2_panel_into(
                &a0,
                &col(u0),
                &col(u_mid),
                &col(u1),
                &mut Panel::zeros(dim, 1),
                &mut a1,
                &mut ws,
            )?,
            None => prepared.step_panel_into(
                &a0,
                &col(u0),
                &col(u1),
                &mut a1,
                &mut [GuessBasis::new()],
                &mut ws,
            )?,
        }
        Ok((a0, a1))
    }

    fn assert_close(states: &[Panel]) {
        let scale = states[0]
            .data()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1.0);
        for other in &states[1..] {
            for (a, b) in states[0].data().iter().zip(other.data()) {
                assert!((a - b).abs() < 1e-7 * scale, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn both_backends_agree_on_a_time_step() {
        let (model, system, transient) = prepared_setup();
        let u0 = system.excitation(&model, 0.0);
        let u1 = system.excitation(&model, transient.time_step);
        let mut states = Vec::new();
        for backend in builtin_backends() {
            let prepared = backend.prepare(&model, &system, &transient).unwrap();
            states.push(dc_and_step(prepared.as_ref(), &u0, None, &u1).unwrap().1);
        }
        assert_close(&states);
    }

    #[test]
    fn both_backends_agree_on_a_tr_bdf2_step() {
        use crate::transient::TR_BDF2_GAMMA;
        let (model, system, mut transient) = prepared_setup();
        transient.method = IntegrationMethod::TrBdf2;
        let u0 = system.excitation(&model, 0.0);
        let u_mid = system.excitation(&model, TR_BDF2_GAMMA * transient.time_step);
        let u1 = system.excitation(&model, transient.time_step);
        let mut states = Vec::new();
        for backend in builtin_backends() {
            let prepared = backend.prepare(&model, &system, &transient).unwrap();
            let (a0, a1) = dc_and_step(prepared.as_ref(), &u0, Some(&u_mid), &u1).unwrap();
            // The single-stage entry refuses a TR-BDF2 preparation, and the
            // TR-BDF2 entry a single-stage one.
            let mut out = Panel::zeros(u0.len(), 1);
            let mut ws = SolveWorkspace::new();
            assert!(prepared
                .step_panel_into(
                    &a0,
                    &col(&u0),
                    &col(&u1),
                    &mut out,
                    &mut [GuessBasis::new()],
                    &mut ws
                )
                .is_err());
            transient.method = IntegrationMethod::BackwardEuler;
            let single = backend.prepare(&model, &system, &transient).unwrap();
            assert!(dc_and_step(single.as_ref(), &u0, Some(&u_mid), &u1).is_err());
            transient.method = IntegrationMethod::TrBdf2;
            states.push(a1);
        }
        assert_close(&states);
    }

    #[test]
    fn with_time_step_reuses_the_symbolic_analysis() {
        let (model, system, transient) = prepared_setup();
        let prepared = DirectCholesky.prepare(&model, &system, &transient).unwrap();
        assert_eq!(prepared.companion_family().symbolic_analysis_count(), 1);
        let refactors_before = prepared.companion_family().refactorization_count();
        let restepped = prepared.with_time_step(transient.time_step / 2.0).unwrap();
        assert_eq!(restepped.time_step(), transient.time_step / 2.0);
        let family = restepped.companion_family();
        // One numeric refactorisation, zero new symbolic analyses.
        assert_eq!(family.symbolic_analysis_count(), 1);
        assert_eq!(family.refactorization_count(), refactors_before + 1);
        // The re-stepped solver matches a from-scratch preparation bitwise.
        let mut halved = transient;
        halved.time_step /= 2.0;
        let fresh = DirectCholesky.prepare(&model, &system, &halved).unwrap();
        let u0 = system.excitation(&model, 0.0);
        let u1 = system.excitation(&model, halved.time_step);
        let via_fresh = dc_and_step(fresh.as_ref(), &u0, None, &u1).unwrap();
        let via_restep = dc_and_step(restepped.as_ref(), &u0, None, &u1).unwrap();
        for (x, y) in via_fresh.1.data().iter().zip(via_restep.1.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A 3-node `G` whose middle node has a negative diagonal, with
    /// grounded capacitors: `G` and every companion `G + s·C` used below are
    /// symmetric indefinite.
    fn indefinite_pair() -> (CsrMatrix, CsrMatrix) {
        let mut g = opera_sparse::TripletMatrix::new(3, 3);
        let mut c = opera_sparse::TripletMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 2.0),
            (1, 1, -3.0),
            (2, 2, 2.0),
            (0, 1, -1.0),
            (1, 2, -1.0),
        ] {
            g.push(i, j, v);
            if i != j {
                g.push(j, i, v);
            }
        }
        for i in 0..3 {
            c.push(i, i, 0.1);
        }
        (g.to_csr(), c.to_csr())
    }

    #[test]
    fn indefinite_direct_preparations_fall_back_to_lu_and_match_a_dense_solve() {
        use crate::transient::TR_BDF2_GAMMA;
        let (g, c) = indefinite_pair();
        let h = 1.0;
        // (G + s·C)⁻¹·rhs, densely.
        let dense_solve = |s: f64, rhs: &[f64]| {
            let m = g.add_scaled(&c, s).unwrap().to_dense();
            m.solve(rhs).unwrap()
        };
        let u0 = [1.0, -0.5, 0.25];
        let u_mid = [0.75, 0.5, -1.0];
        let u1 = [0.5, 1.0, -0.75];
        let v0 = dense_solve(0.0, &u0);
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::TrBdf2] {
            let family = CompanionFamily::new(&g, &c).unwrap();
            let prepared = DirectPrepared::new(family, h, method).unwrap();
            assert!(matches!(*prepared.dc, MatrixFactor::Lu(_)));
            assert!(matches!(prepared.companion.factor(), MatrixFactor::Lu(_)));

            let s = companion_scale(method, h);
            let scaled_c = |v: &[f64]| -> Vec<f64> { c.matvec(v).iter().map(|x| s * x).collect() };
            let c_v0 = scaled_c(&v0);
            let two_stage = method == IntegrationMethod::TrBdf2;
            let v1 = if two_stage {
                // Trapezoidal stage over γh, then BDF2 over the rest.
                let g_v0 = g.matvec(&v0);
                let rhs: Vec<f64> = (0..3)
                    .map(|i| c_v0[i] - g_v0[i] + u0[i] + u_mid[i])
                    .collect();
                let v_mid = dense_solve(s, &rhs);
                let (w_mid, w_old) = (0.5 / (1.0 - TR_BDF2_GAMMA), 0.5 * (1.0 - TR_BDF2_GAMMA));
                let blend: Vec<f64> = (0..3).map(|i| w_mid * v_mid[i] - w_old * v0[i]).collect();
                let c_blend = scaled_c(&blend);
                let rhs: Vec<f64> = (0..3).map(|i| c_blend[i] + u1[i]).collect();
                dense_solve(s, &rhs)
            } else {
                let rhs: Vec<f64> = (0..3).map(|i| c_v0[i] + u1[i]).collect();
                dense_solve(s, &rhs)
            };

            let (a0, a1) =
                dc_and_step(&prepared, &u0, two_stage.then_some(&u_mid[..]), &u1).unwrap();
            let dc_error = max_relative_difference(a0.data(), &v0);
            let step_error = max_relative_difference(a1.data(), &v1);
            assert!(dc_error <= 1e-12, "{method:?} DC: {dc_error:e}");
            assert!(step_error <= 1e-12, "{method:?} step: {step_error:e}");
        }
    }

    #[test]
    fn cg_re_steps_on_one_nominal_analysis() {
        let (model, system, transient) = prepared_setup();
        let cg = BlockJacobiCg::default()
            .prepare(&model, &system, &transient)
            .unwrap();
        let family = cg.companion_family();
        // The family factors the nominal companion, not the augmented one.
        assert_eq!(family.dim(), system.node_count());
        assert_eq!(family.symbolic_analysis_count(), 1);
        assert_eq!(family.refactorization_count(), 1);
        let mut halved = transient;
        halved.time_step /= 2.0;
        let restepped = cg.with_time_step(halved.time_step).unwrap();
        // One nominal numeric refactorisation, no new analysis.
        let family = restepped.companion_family();
        assert_eq!(family.symbolic_analysis_count(), 1);
        assert_eq!(family.refactorization_count(), 2);
        // A re-step back to the original step size refactors too (nothing is
        // cached) and steps bit-identically to the original preparation.
        let back = cg.with_time_step(transient.time_step).unwrap();
        assert_eq!(family.refactorization_count(), 3);
        let u0 = system.excitation(&model, 0.0);
        let u_step = system.excitation(&model, transient.time_step);
        let via_original = dc_and_step(cg.as_ref(), &u0, None, &u_step).unwrap();
        let via_back = dc_and_step(back.as_ref(), &u0, None, &u_step).unwrap();
        for (x, y) in via_original.1.data().iter().zip(via_back.1.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The re-stepped solver matches a fresh preparation at the new step
        // bit for bit, and the direct reference to the CG tolerance.
        let u1 = system.excitation(&model, halved.time_step);
        let via_restep = dc_and_step(restepped.as_ref(), &u0, None, &u1).unwrap();
        let fresh = BlockJacobiCg::default()
            .prepare(&model, &system, &halved)
            .unwrap();
        let via_fresh = dc_and_step(fresh.as_ref(), &u0, None, &u1).unwrap();
        assert_eq!(via_fresh.1, via_restep.1);
        let direct = DirectCholesky.prepare(&model, &system, &halved).unwrap();
        let via_direct = dc_and_step(direct.as_ref(), &u0, None, &u1).unwrap();
        assert_close(&[via_direct.1, via_restep.1]);
    }

    /// A CG re-step that keeps the factor refactors nothing, reports its own
    /// step and steps the exact companion of that step: it matches a fresh
    /// preparation at the new step to the CG tolerance, the direct backend
    /// too. The direct backend's factor is the solve, so it cannot re-step
    /// this way.
    #[test]
    fn cg_re_steps_on_a_kept_factor_to_the_exact_companion() {
        let (model, system, transient) = prepared_setup();
        let cg = BlockJacobiCg::default()
            .prepare(&model, &system, &transient)
            .unwrap();
        let mut nearby = transient;
        nearby.time_step *= 0.8;
        assert!(cg.restep_keeping_factor(0.0).is_none());
        let kept = cg.restep_keeping_factor(nearby.time_step).unwrap();
        assert_eq!(kept.time_step(), nearby.time_step);
        assert_eq!(kept.companion_family().refactorization_count(), 1);
        let u0 = system.excitation(&model, 0.0);
        let u1 = system.excitation(&model, nearby.time_step);
        let via_kept = dc_and_step(kept.as_ref(), &u0, None, &u1).unwrap();
        let fresh = BlockJacobiCg::default()
            .prepare(&model, &system, &nearby)
            .unwrap();
        let via_fresh = dc_and_step(fresh.as_ref(), &u0, None, &u1).unwrap();
        let direct = DirectCholesky.prepare(&model, &system, &nearby).unwrap();
        assert!(direct.restep_keeping_factor(transient.time_step).is_none());
        let via_direct = dc_and_step(direct.as_ref(), &u0, None, &u1).unwrap();
        assert_close(&[via_direct.1, via_fresh.1, via_kept.1]);
    }

    #[test]
    fn invalid_cg_parameters_are_rejected() {
        let bad = BlockJacobiCg {
            tolerance: 0.0,
            max_iterations: 10,
        };
        assert!(bad.validate().is_err());
        let bad = BlockJacobiCg {
            tolerance: 1e-10,
            max_iterations: 0,
        };
        assert!(bad.validate().is_err());
        assert!(BlockJacobiCg::default().validate().is_ok());
    }

    /// A tiny order-2 system (P = 6) with large variations, so every `α_d`
    /// is far from zero.
    fn tiny_kronecker_setup(spec: &VariationSpec) -> (StochasticGridModel, GalerkinSystem) {
        let grid = GridSpec::small_test(16).with_seed(3).build().unwrap();
        let model = StochasticGridModel::inter_die(&grid, spec).unwrap();
        let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
        let system = GalerkinSystem::assemble(&model, &basis).unwrap();
        (model, system)
    }

    /// A deterministic residual of length `len` with entries of both signs.
    fn residual(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37 + 11) % 23) as f64 - 11.0)
            .collect()
    }

    /// `K = G_a + s·C_a` and its factor.
    fn nominal(model: &StochasticGridModel, s: f64) -> (CsrMatrix, MatrixFactor) {
        let k = model
            .nominal_conductance()
            .add_scaled(model.nominal_capacitance(), s)
            .unwrap();
        let factor = MatrixFactor::cholesky_or_lu(&k).unwrap();
        (k, factor)
    }

    fn max_relative_difference(a: &[f64], b: &[f64]) -> f64 {
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
            / scale
    }

    #[test]
    fn kronecker_preconditioner_is_a_solve_with_the_kronecker_product() {
        let mut spec = VariationSpec::paper_defaults();
        spec.width_3sigma = 0.4;
        spec.channel_length_3sigma = 0.5;
        let (model, system) = tiny_kronecker_setup(&spec);
        let terms = KroneckerTerms::new(&model, system.coupling()).unwrap();
        let (n, p) = (system.node_count(), system.basis_size());
        // The DC solve and a step whose `s·C_a` is comparable to `G_a`.
        let s_step = model.nominal_conductance().frobenius_norm()
            / model.nominal_capacitance().frobenius_norm();
        for s in [0.0, s_step] {
            let (k, factor) = nominal(&model, s);
            // α_d is the Frobenius projection of A_d = G_d + s·C_d on K.
            for d in 0..model.n_vars() {
                let a_d = model
                    .conductance_perturbation(d)
                    .add_scaled(model.capacitance_perturbation(d), s)
                    .unwrap();
                let alpha = a_d.frobenius_dot(&k).unwrap() / k.frobenius_dot(&k).unwrap();
                assert!((terms.alpha(d, s) - alpha).abs() <= 1e-14 * alpha.abs());
            }
            assert!(terms.alpha(0, s) > 0.01);
            assert_eq!(terms.alpha(1, s) == 0.0, s == 0.0, "C_L only enters steps");

            let mix = terms.mix(s).unwrap();
            let r = residual(n * p);
            let mut z = vec![0.0; n * p];
            let preconditioner = KroneckerNominal {
                factor: &factor,
                mix: &mix,
            };
            preconditioner.apply_into(&r, &mut z, &mut SolveWorkspace::new());

            // Dense (T̃ ⊗ K)·z = r, blocks ordered like the stacked vector.
            let t = terms.stochastic_factor(s);
            let k = k.to_dense();
            let mut m = vec![0.0; (n * p) * (n * p)];
            for i in 0..p {
                for j in 0..p {
                    for a in 0..n {
                        for b in 0..n {
                            m[(i * n + a) * (n * p) + j * n + b] = t[i * p + j] * k[(a, b)];
                        }
                    }
                }
            }
            let dense = opera_sparse::DenseMatrix::from_rows(n * p, n * p, &m)
                .solve(&r)
                .unwrap();
            let error = max_relative_difference(&z, &dense);
            assert!(error <= 1e-12, "s = {s:e}: relative difference {error:e}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The preconditioner mixes the blocks by `T̃⁻¹` as the factor's strip
    /// solve packs them: bit-identical to mixing into `z` first (one `axpy`
    /// per nonzero weight in ascending block order) and then solving `z`,
    /// at the DC and a stepping `s`, under every available backend.
    #[test]
    fn kronecker_preconditioner_mixes_in_the_pack_bit_identically() {
        let (model, system, transient) = prepared_setup();
        let terms = KroneckerTerms::new(&model, system.coupling()).unwrap();
        let (n, p) = (system.node_count(), system.basis_size());
        let r = residual(n * p);
        for s in [0.0, companion_scale(transient.method, transient.time_step)] {
            let (_, factor) = nominal(&model, s);
            let mix = terms.mix(s).unwrap();
            assert!(
                mix.iter().filter(|&&w| w != 0.0).count() > p,
                "T̃⁻¹ mixes blocks"
            );
            for backend in opera_simd::available_backends() {
                opera_simd::set_active(backend).unwrap();
                let mut ws = SolveWorkspace::new();
                let mut expected = vec![0.0; n * p];
                for (j, z_j) in expected.chunks_exact_mut(n).enumerate() {
                    for (i, r_i) in r.chunks_exact(n).enumerate() {
                        let weight = mix[i * p + j];
                        if weight != 0.0 {
                            opera_simd::axpy(z_j, r_i, weight, backend);
                        }
                    }
                }
                factor.solve_columns(&mut expected, &mut ws);
                let mut z = vec![f64::NAN; n * p];
                KroneckerNominal {
                    factor: &factor,
                    mix: &mix,
                }
                .apply_into(&r, &mut z, &mut ws);
                opera_simd::set_active(opera_simd::Backend::Scalar).unwrap();
                assert_eq!(bits(&z), bits(&expected), "s = {s:e}, {backend}");
            }
        }
    }

    /// The augmented companion's one pass is `G̃·x` then `+= s·C̃·x` bit
    /// for bit.
    #[test]
    fn augmented_companion_is_the_two_pass_product_bit_for_bit() {
        let (_, system, transient) = prepared_setup();
        let (g, c) = (system.conductance(), system.capacitance());
        let x = residual(system.dim());
        for c_scale in [0.0, companion_scale(transient.method, transient.time_step)] {
            let mut two_pass = vec![f64::NAN; system.dim()];
            g.matvec_into(&x, &mut two_pass);
            c.matvec_acc(&x, c_scale, &mut two_pass);
            let mut one_pass = vec![f64::NAN; system.dim()];
            AugmentedCompanion { g, c, c_scale }.apply_into(&x, &mut one_pass);
            assert_eq!(bits(&one_pass), bits(&two_pass), "s = {c_scale:e}");
        }
    }

    #[test]
    fn kronecker_preconditioner_without_perturbations_is_the_mean_based_one() {
        let (model, system) = tiny_kronecker_setup(&VariationSpec::none());
        let terms = KroneckerTerms::new(&model, system.coupling()).unwrap();
        let (n, p) = (system.node_count(), system.basis_size());
        let s = 1.0 / 0.2e-9;
        assert!((0..model.n_vars()).all(|d| terms.alpha(d, s) == 0.0));
        let (_, factor) = nominal(&model, s);
        let mix = terms.mix(s).unwrap();
        let r = residual(n * p);
        let mut z = vec![0.0; n * p];
        let mut ws = SolveWorkspace::new();
        KroneckerNominal {
            factor: &factor,
            mix: &mix,
        }
        .apply_into(&r, &mut z, &mut ws);
        // K⁻¹·r_i / ⟨ψ_i²⟩ block by block.
        let mut mean_based = r.clone();
        factor.solve_columns(&mut mean_based, &mut ws);
        for (i, block) in mean_based.chunks_exact_mut(n).enumerate() {
            for v in block {
                *v /= system.coupling().norm_squared(i);
            }
        }
        let error = max_relative_difference(&z, &mean_based);
        assert!(error <= 1e-14, "relative difference {error:e}");
    }

    #[test]
    fn an_indefinite_stochastic_factor_is_a_typed_error() {
        // At order 8 the Hermite spectrum of D⁻¹·T̃ is 1 + α·x_q over the
        // 9-point Gauss nodes, |x_q| ≤ 4.51, so α > 1/4.51 is indefinite.
        let mut spec = VariationSpec::paper_defaults();
        spec.width_3sigma = 0.59;
        spec.thickness_3sigma = 0.59;
        let grid = GridSpec::small_test(16).with_seed(3).build().unwrap();
        let model = StochasticGridModel::inter_die(&grid, &spec).unwrap();
        let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 8).unwrap();
        let system = GalerkinSystem::assemble(&model, &basis).unwrap();
        let terms = KroneckerTerms::new(&model, system.coupling()).unwrap();
        let alpha = terms.alpha(0, 0.0);
        assert!(alpha > 0.27, "α = {alpha}");

        // vᵀ·T̃·v = ⟨(1 + α·ξ_G)·f²⟩ < 0 for the degree-8 polynomial f in ξ_G
        // that vanishes at every 9-point Gauss node but the most negative.
        let rule = opera_pce::quadrature::gauss_rule(PolynomialFamily::Hermite, 9).unwrap();
        let x_min = rule.nodes.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(1.0 + alpha * x_min < 0.0);
        let v = system.coupling().project(|xi| {
            rule.nodes
                .iter()
                .filter(|&&x| x != x_min)
                .map(|x| xi[0] - x)
                .product()
        });
        let (p, t) = (system.basis_size(), terms.stochastic_factor(0.0));
        let quadratic: f64 = (0..p)
            .flat_map(|i| (0..p).map(move |j| (i, j)))
            .map(|(i, j)| v[i] * t[i * p + j] * v[j])
            .sum();
        assert!(quadratic < 0.0, "vᵀ·T̃·v = {quadratic}");

        let transient = TransientOptions::new(0.2e-9, 1.0e-9);
        let err = BlockJacobiCg::default()
            .prepare(&model, &system, &transient)
            .err()
            .expect("an indefinite T̃ must fail the prepare");
        assert!(
            matches!(
                err,
                OperaError::Sparse(SparseError::NotPositiveDefinite { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn the_stochastic_factor_is_checked_at_every_step_size() {
        // One variable whose capacitance perturbation outweighs its
        // conductance one: α(s) grows from 0.1 at DC towards 0.9, and at
        // order 4 (5-point Gauss nodes, |x_q| ≤ 2.86) T̃ stops being
        // positive definite once α passes 1/2.86.
        let coupling = GalerkinCoupling::new(
            &OrthogonalBasis::total_order(PolynomialFamily::Hermite, 1, 4).unwrap(),
        )
        .unwrap();
        let terms = KroneckerTerms {
            norms: (0..coupling.len())
                .map(|i| coupling.norm_squared(i))
                .collect(),
            linear: vec![coupling.linear_matrix(0).to_vec()],
            nominal: [1.0, 0.0, 1.0],
            perturbation: vec![[0.1, 0.0, 0.0, 0.9]],
        };
        assert!(terms.mix(0.0).is_ok());
        assert!(matches!(
            terms.mix(10.0),
            Err(OperaError::Sparse(SparseError::NotPositiveDefinite { .. }))
        ));
    }

    #[test]
    fn the_stochastic_factor_inverse_is_exact() {
        let (model, system) = tiny_kronecker_setup(&VariationSpec::paper_defaults());
        let terms = KroneckerTerms::new(&model, system.coupling()).unwrap();
        let p = system.basis_size();
        let (t, inv) = (terms.stochastic_factor(3.0), terms.mix(3.0).unwrap());
        for i in 0..p {
            for j in 0..p {
                let product: f64 = (0..p).map(|k| t[i * p + k] * inv[k * p + j]).sum();
                let identity = if i == j { 1.0 } else { 0.0 };
                assert!((product - identity).abs() < 1e-13, "({i}, {j}): {product}");
            }
        }
    }
}
