//! LTE-driven adaptive TR-BDF2 transient integration.
//!
//! The fixed-step loops in [`crate::transient`] resolve the whole horizon at
//! the deck's `.tran` step, which over-resolves quiet regions and
//! under-resolves fast edges. This module drives the L-stable
//! [`IntegrationMethod::TrBdf2`] composite with a local-truncation-error
//! controller instead: every step solves the embedded Hosea–Shampine error
//! estimate ([`crate::transient::CompanionSystem::tr_bdf2_error_into`]),
//! accepts the step when
//! the weighted-RMS error norm is at most one, and grows or shrinks the step
//! with the classic `safety · err^(−1/3)` rule (TR-BDF2 is second order) under
//! PI-style clamps. Results are still reported on the caller's output grid —
//! dense quadratic interpolation through the TR stage reconstructs the state
//! between accepted steps, and output points that coincide with accepted steps
//! are bit-exact copies of the accepted state.
//!
//! The controller steps through a [`PreparedSolver`], so one controller
//! serves every backend: the stages come from
//! [`PreparedSolver::step_tr_bdf2_panel_into`] and the error estimate from
//! [`PreparedSolver::tr_bdf2_error_panel_into`]. It re-steps only when the
//! step size changes, and keeps its steppers for one solve in a map keyed
//! by the half-octave rung `⌊2·log₂ h⌋` of their step: at most four
//! factors beyond the prepared solver's own, least recently used first
//! out, while the stepper on the prepared solver's factor is never
//! dropped. A change to a rung the map holds re-steps that stepper through
//! [`PreparedSolver::restep_keeping_factor`], which refactors nothing: on
//! the CG backend the nominal factor only preconditions the exact operator
//! at the new step. Any other change re-steps through
//! [`PreparedSolver::with_time_step`] and the solver's [`CompanionFamily`]:
//! one shared symbolic Cholesky analysis, one numeric refactorisation — of
//! the augmented companion on the direct backend, whose factor is the solve
//! and which therefore refactors at every change, of the nominal one on the
//! CG backend.
//!
//! A dead-band in the controller keeps the step unchanged when the
//! predicted factor is modest, so long smooth stretches step on the current
//! stepper as it is. The map does not replace it: it saves the
//! factorisation of a change, not the change, and the step sizes stay
//! those the error estimate asks for (snapping them to the rungs moves the
//! trajectory). Nothing outlives the solve: the map is dropped when it
//! ends. See `docs/TRANSIENT.md` for the full contract.

use opera_sparse::{CsrMatrix, Panel, SolveWorkspace};

use crate::solver::{DirectPrepared, PreparedSolver};
use crate::transient::{
    CompanionFamily, IntegrationMethod, TransientOptions, TransientSolution, TR_BDF2_GAMMA,
};
use crate::{OperaError, Result};

/// Controller dead-band: predicted step factors inside `[DEADBAND_LOW,
/// DEADBAND_HIGH]` keep the current step, so consecutive smooth steps reuse
/// the current stepper instead of re-stepping for a marginal gain.
const DEADBAND_LOW: f64 = 0.9;
const DEADBAND_HIGH: f64 = 1.3;

/// Error exponent for a second-order embedded pair: `factor ∝ err^(−1/3)`.
const ERROR_EXPONENT: f64 = -1.0 / 3.0;

/// Factors one solve keeps live in its [`Steppers`] map, beyond the
/// prepared solver's own.
const MAX_LIVE_FACTORS: usize = 4;

/// The half-octave rung `⌊2·log₂ h⌋` of a step size: step sizes within a
/// factor `√2` of each other share a rung, and with it a factor.
fn rung(h: f64) -> i32 {
    (2.0 * h.log2()).floor() as i32
}

/// The steppers of one adaptive solve, keyed by [`rung`] and ordered from
/// least to most recently used; the last one steps. A step-size change
/// whose rung has a stepper re-steps it through
/// [`PreparedSolver::restep_keeping_factor`], which refactors nothing;
/// otherwise `prepared` re-steps through
/// [`PreparedSolver::with_time_step`], one numeric factorisation, after
/// the least recently used stepper that holds a factor of its own is
/// dropped to keep `capacity` of them. The stepper on `prepared`'s own
/// factor (its rung is `home`) holds none, so it is never dropped and
/// that rung never refactors. A backend that cannot keep a factor across
/// step sizes (the factor is the solve) has no `home` and a capacity of
/// one, so it refactors at every change and holds one re-stepped factor,
/// as without the map.
struct Steppers<'a> {
    prepared: &'a dyn PreparedSolver,
    entries: Vec<(i32, Box<dyn PreparedSolver>)>,
    home: Option<i32>,
    capacity: usize,
    /// Numeric factorisations run through `prepared.with_time_step`.
    factorizations: u64,
}

impl<'a> Steppers<'a> {
    /// The map over `prepared`, seeded with `prepared`'s own factor when
    /// the backend keeps factors across step sizes.
    fn new(prepared: &'a dyn PreparedSolver) -> Self {
        let h = prepared.time_step();
        let seed = prepared.restep_keeping_factor(h);
        let home = seed.as_ref().map(|_| rung(h));
        Steppers {
            prepared,
            capacity: if seed.is_some() { MAX_LIVE_FACTORS } else { 1 },
            entries: seed.map(|stepper| (rung(h), stepper)).into_iter().collect(),
            home,
            factorizations: 0,
        }
    }

    /// The stepper of the current step size.
    fn current(&self) -> &dyn PreparedSolver {
        self.entries
            .last()
            .map_or(self.prepared, |(_, stepper)| stepper.as_ref())
    }

    /// Makes a stepper at exactly `h` the current one.
    fn restep(&mut self, h: f64) -> Result<()> {
        let rung = rung(h);
        let stepper = match self.entries.iter().position(|(r, _)| *r == rung) {
            Some(i) => self.entries.remove(i).1.restep_keeping_factor(h),
            None => None,
        };
        let stepper = match stepper {
            Some(stepper) => stepper,
            None => {
                let held = self.entries.len() - usize::from(self.home.is_some());
                let home = self.home;
                let oldest = self.entries.iter().position(|(r, _)| Some(*r) != home);
                if let Some(oldest) = oldest.filter(|_| held == self.capacity) {
                    self.entries.remove(oldest);
                }
                self.factorizations += 1;
                self.prepared.with_time_step(h)?
            }
        };
        self.entries.push((rung, stepper));
        Ok(())
    }
}

/// Options for the adaptive TR-BDF2 step-size controller.
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Relative error tolerance per step (weighted-RMS norm).
    pub rel_tol: f64,
    /// Absolute error tolerance per step, in volts.
    pub abs_tol: f64,
    /// First attempted step. Defaults to 1/100 of the horizon.
    pub initial_step: Option<f64>,
    /// Smallest step the controller may take. Defaults to `1e-12` of the
    /// horizon.
    pub min_step: Option<f64>,
    /// Largest step the controller may take. Defaults to the whole horizon.
    pub max_step: Option<f64>,
    /// Safety factor applied to the predicted optimal step (classic 0.9).
    pub safety: f64,
    /// Maximum step growth per accepted step.
    pub max_growth: f64,
    /// Maximum step shrink per rejected step.
    pub min_shrink: f64,
    /// Consecutive rejections tolerated before the controller gives up.
    pub max_rejects: u32,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            rel_tol: 1e-4,
            abs_tol: 1e-9,
            initial_step: None,
            min_step: None,
            max_step: None,
            safety: 0.9,
            max_growth: 5.0,
            min_shrink: 0.2,
            max_rejects: 20,
        }
    }
}

impl AdaptiveOptions {
    /// Adaptive stepping at the given relative tolerance (other knobs at
    /// their defaults).
    pub fn with_rel_tol(rel_tol: f64) -> Self {
        AdaptiveOptions {
            rel_tol,
            ..AdaptiveOptions::default()
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for non-positive tolerances,
    /// out-of-range controller clamps, or inconsistent step bounds.
    pub fn validate(&self) -> Result<()> {
        let positive_finite = |value: f64| value > 0.0 && value.is_finite();
        if !positive_finite(self.rel_tol) {
            return Err(invalid(format!(
                "rel_tol must be positive, got {}",
                self.rel_tol
            )));
        }
        if !positive_finite(self.abs_tol) {
            return Err(invalid(format!(
                "abs_tol must be positive, got {}",
                self.abs_tol
            )));
        }
        for (name, step) in [
            ("initial_step", self.initial_step),
            ("min_step", self.min_step),
            ("max_step", self.max_step),
        ] {
            if let Some(step) = step {
                if !positive_finite(step) {
                    return Err(invalid(format!("{name} must be positive, got {step}")));
                }
            }
        }
        if let (Some(lo), Some(hi)) = (self.min_step, self.max_step) {
            if lo > hi {
                return Err(invalid(format!("min_step {lo} exceeds max_step {hi}")));
            }
        }
        if !(self.safety > 0.0 && self.safety <= 1.0) {
            return Err(invalid(format!(
                "safety must lie in (0, 1], got {}",
                self.safety
            )));
        }
        if !(self.max_growth > 1.0 && self.max_growth.is_finite()) {
            return Err(invalid(format!(
                "max_growth must exceed 1, got {}",
                self.max_growth
            )));
        }
        if !(self.min_shrink > 0.0 && self.min_shrink < 1.0) {
            return Err(invalid(format!(
                "min_shrink must lie in (0, 1), got {}",
                self.min_shrink
            )));
        }
        if self.max_rejects == 0 {
            return Err(invalid("max_rejects must be at least 1".to_string()));
        }
        Ok(())
    }
}

fn invalid(reason: String) -> OperaError {
    OperaError::InvalidOptions { reason }
}

/// What the adaptive controller did over one integration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Steps attempted (accepted + rejected).
    pub steps_attempted: u64,
    /// Steps accepted (emitted into the solution).
    pub steps_accepted: u64,
    /// Steps rejected by the error test (never emitted).
    pub steps_rejected: u64,
    /// Numeric factorisations the run ran through the solver's
    /// [`CompanionFamily`]: one per step-size change on a backend whose
    /// factor is the solve (direct). On one that keeps factors across step
    /// sizes (CG), one per change to a half-octave rung whose factor the
    /// map does not hold: none for the prepared solver's own rung, and at
    /// most one per rung when the steps visit at most four others. The
    /// run of [`solve_transient_adaptive`] also counts its initial step's.
    pub refactorizations: u64,
    /// Symbolic analyses the family has ever run (1 for Cholesky families,
    /// on every backend: step-size changes are numeric-only).
    pub symbolic_analyses: u64,
}

/// Result of an adaptive deterministic transient analysis.
#[derive(Debug, Clone)]
pub struct AdaptiveTransientSolution {
    /// The solution sampled on the requested output grid (same shape a
    /// fixed-step [`solve_transient`](crate::transient::solve_transient)
    /// would produce for those times).
    pub solution: TransientSolution,
    /// The internal accepted step times.
    pub accepted_times: Vec<f64>,
    /// The state at every accepted step time (row `i` belongs to
    /// `accepted_times[i]`).
    pub accepted_states: Vec<Vec<f64>>,
    /// Controller statistics.
    pub stats: AdaptiveStats,
}

/// Weighted-RMS error norm: `sqrt(mean((e_i / (abs_tol + rel_tol ·
/// max(|v_old_i|, |v_new_i|)))²))`. Accept when at most 1.
fn wrms_norm(err: &[f64], v_old: &[f64], v_new: &[f64], options: &AdaptiveOptions) -> f64 {
    let mut sum = 0.0;
    for ((&e, &a), &b) in err.iter().zip(v_old).zip(v_new) {
        let scale = options.abs_tol + options.rel_tol * a.abs().max(b.abs());
        let ratio = e / scale;
        sum += ratio * ratio;
    }
    (sum / err.len().max(1) as f64).sqrt()
}

/// The predicted step factor for an error norm, clamped to the controller
/// limits. A vanishing error predicts maximal growth.
fn step_factor(err_norm: f64, options: &AdaptiveOptions) -> f64 {
    if !err_norm.is_finite() {
        return options.min_shrink;
    }
    let factor = options.safety * err_norm.max(1e-10).powf(ERROR_EXPONENT);
    factor.clamp(options.min_shrink, options.max_growth)
}

/// Quadratic dense output through the three TR-BDF2 stage nodes `θ ∈ {0, γ,
/// 1}` (Lagrange basis), writing the interpolant at `theta` into `out`.
fn interpolate_into(v_old: &[f64], v_mid: &[f64], v_new: &[f64], theta: f64, out: &mut [f64]) {
    let g = TR_BDF2_GAMMA;
    let w_old = (theta - g) * (theta - 1.0) / g;
    let w_mid = theta * (theta - 1.0) / (g * (g - 1.0));
    let w_new = theta * (theta - g) / (1.0 - g);
    opera_simd::weighted_sum3(
        out,
        [v_old, v_mid, v_new],
        [w_old, w_mid, w_new],
        opera_simd::active(),
    );
}

/// The controller's step bounds over `output_times`: `(min_step, max_step,
/// initial_step)`.
fn step_bounds(output_times: &[f64], options: &AdaptiveOptions) -> (f64, f64, f64) {
    let span = output_times[output_times.len() - 1] - output_times[0];
    let min_step = options.min_step.unwrap_or(span * 1e-12);
    let max_step = options.max_step.unwrap_or(span).min(span);
    let initial = options
        .initial_step
        .unwrap_or(span / 100.0)
        .clamp(min_step, max_step);
    (min_step, max_step, initial)
}

/// Rejects output grids the controller cannot report on.
fn validate_output_times(output_times: &[f64]) -> Result<()> {
    if output_times.len() < 2 || output_times.windows(2).any(|w| w[1] <= w[0]) {
        return Err(invalid(
            "adaptive output grid needs at least two strictly increasing times".to_string(),
        ));
    }
    Ok(())
}

/// The LTE-driven adaptive TR-BDF2 loop. Starts from the one-column state
/// `v0` at `output_times[0]`, integrates to `*output_times.last()`, and
/// hands every state to the caller as it is computed, as
/// [`integrate_fixed_step`](crate::transient::integrate_fixed_step) does.
/// `excitation(t, u)` writes the excitation at `t` into `u`; the loop keeps
/// one buffer per stage node and reuses them for every attempted step.
/// `output(k, state)` receives the dense output at `output_times[k]` (`k =
/// 0` is `v0`), `accepted(t, state)` the state at every accepted step time
/// `t`, starting with `v0` at `t0`. Nothing is kept here, so a caller that
/// folds the rows as they arrive holds no second copy of the output.
///
/// The loop starts on `prepared` itself and re-steps whenever an attempt's
/// step size differs from the current stepper's, through its [`Steppers`]
/// map: a rung the map holds re-steps without refactoring, any other
/// change refactors once in the solver's companion family (one symbolic
/// analysis for all). The map is dropped when the loop ends. Rejected
/// steps are never emitted; the final step is capped so the last accepted
/// time is **exactly** `t_end`. Counters
/// `transient.adaptive.steps_attempted` / `transient.adaptive.steps_rejected`
/// flow into [`opera_trace`] alongside the family's refactorisation counter.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] when the output grid is not
/// strictly increasing, or when the controller cannot meet the tolerance
/// within `max_rejects` consecutive rejections at the minimum step;
/// propagates solver errors.
#[allow(clippy::too_many_arguments)] // the controller's inputs plus two sinks
pub(crate) fn integrate_adaptive(
    prepared: &dyn PreparedSolver,
    v0: Panel,
    mut excitation: impl FnMut(f64, &mut [f64]),
    output_times: &[f64],
    options: &AdaptiveOptions,
    mut output: impl FnMut(usize, &[f64]),
    mut accepted: impl FnMut(f64, &[f64]),
) -> Result<AdaptiveStats> {
    options.validate()?;
    validate_output_times(output_times)?;
    let t0 = output_times[0];
    let t_end = output_times[output_times.len() - 1];
    let (min_step, max_step, mut h) = step_bounds(output_times, options);

    let n = v0.nrows();
    let mut stats = AdaptiveStats::default();

    let mut v = v0;
    let mut t = t0;
    let mut u_prev = Panel::zeros(n, 1);
    excitation(t0, u_prev.data_mut());
    let mut u_mid = Panel::zeros(n, 1);
    let mut u_new = Panel::zeros(n, 1);
    let mut stage = Panel::zeros(n, 1);
    let mut next = Panel::zeros(n, 1);
    let mut err = Panel::zeros(n, 1);
    let mut ws = SolveWorkspace::with_capacity(n);

    output(0, v.data());
    accepted(t0, v.data());
    let mut out_idx = 1;
    // The interpolated output row, reused for every dense output point.
    let mut row = vec![0.0; n];

    let mut rejected_last = false;
    let mut consecutive_rejects = 0u32;
    let mut steppers = Steppers::new(prepared);

    let adaptive_span = opera_trace::span("transient.adaptive");
    while t < t_end {
        // Cap the closing step so the trajectory lands exactly on `t_end`.
        let last_step = h >= t_end - t;
        let h_eff = if last_step { t_end - t } else { h };
        let t_new = if last_step { t_end } else { t + h };
        if h_eff.to_bits() != steppers.current().time_step().to_bits() {
            steppers.restep(h_eff)?;
        }
        let stepper = steppers.current();

        stats.steps_attempted += 1;
        opera_trace::count("transient.adaptive.steps_attempted", 1);
        excitation(t + TR_BDF2_GAMMA * h_eff, u_mid.data_mut());
        excitation(t_new, u_new.data_mut());
        stepper
            .step_tr_bdf2_panel_into(&v, &u_prev, &u_mid, &u_new, &mut stage, &mut next, &mut ws)?;
        stepper.tr_bdf2_error_panel_into(
            [&v, &stage, &next],
            [&u_prev, &u_mid, &u_new],
            &mut err,
            &mut ws,
        )?;
        let err_norm = wrms_norm(err.data(), v.data(), next.data(), options);

        // A NaN norm fails this comparison and lands in the reject branch.
        if err_norm <= 1.0 {
            stats.steps_accepted += 1;
            consecutive_rejects = 0;
            // Dense output for every requested time inside (t, t_new]; the
            // point at `t_new` itself is a bit-exact copy of the accepted
            // state, never an interpolation.
            while out_idx < output_times.len() && output_times[out_idx] <= t_new {
                let t_out = output_times[out_idx];
                if t_out == t_new {
                    output(out_idx, next.data());
                } else {
                    let theta = (t_out - t) / h_eff;
                    interpolate_into(v.data(), stage.data(), next.data(), theta, &mut row);
                    output(out_idx, &row);
                }
                out_idx += 1;
            }
            t = t_new;
            std::mem::swap(&mut v, &mut next);
            std::mem::swap(&mut u_prev, &mut u_new);
            accepted(t, v.data());
            // Grow/shrink for the next step; never grow right after a
            // rejection, and hold the step inside the dead-band so smooth
            // stretches keep stepping on the current factor.
            let mut factor = step_factor(err_norm, options);
            if rejected_last {
                factor = factor.min(1.0);
            }
            rejected_last = false;
            if !(DEADBAND_LOW..=DEADBAND_HIGH).contains(&factor) {
                h = (h * factor).clamp(min_step, max_step);
            }
        } else {
            stats.steps_rejected += 1;
            opera_trace::count("transient.adaptive.steps_rejected", 1);
            consecutive_rejects += 1;
            rejected_last = true;
            let at_floor = h_eff <= min_step;
            if consecutive_rejects > options.max_rejects || at_floor {
                return Err(invalid(format!(
                    "adaptive TR-BDF2 could not meet the error tolerance at t = {t:e} s \
                     (step {h_eff:e} s, error norm {err_norm:.3}); loosen rel_tol/abs_tol \
                     or lower min_step"
                )));
            }
            let factor = step_factor(err_norm, options).min(DEADBAND_LOW);
            h = (h_eff * factor).max(min_step);
        }
    }
    drop(adaptive_span);

    stats.refactorizations = steppers.factorizations;
    stats.symbolic_analyses = prepared.companion_family().symbolic_analysis_count();
    Ok(stats)
}

/// Runs an adaptive TR-BDF2 transient analysis of `G·v + C·dv/dt = u(t)`,
/// reporting the solution on the fixed grid of `options.time_points()` (so
/// the result is drop-in comparable with
/// [`solve_transient`](crate::transient::solve_transient)) while stepping
/// internally at whatever step sizes the error controller selects.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] unless `options.method` is
/// [`IntegrationMethod::TrBdf2`], for invalid options, and when the
/// controller cannot meet the tolerance; propagates factorisation errors.
///
/// # Example
///
/// ```
/// use opera::adaptive::{solve_transient_adaptive, AdaptiveOptions};
/// use opera::transient::{IntegrationMethod, TransientOptions};
/// use opera_grid::GridSpec;
///
/// # fn main() -> Result<(), opera::OperaError> {
/// let grid = GridSpec::small_test(120).build()?;
/// let opts = TransientOptions {
///     time_step: 0.05e-9,
///     end_time: 1.0e-9,
///     method: IntegrationMethod::TrBdf2,
/// };
/// let sol = solve_transient_adaptive(
///     &grid.conductance_matrix(),
///     &grid.capacitance_matrix(),
///     |t| grid.excitation(t),
///     &opts,
///     &AdaptiveOptions::default(),
/// )?;
/// assert_eq!(sol.solution.times.len(), opts.time_points().len());
/// assert_eq!(sol.stats.symbolic_analyses, 1);
/// # Ok(())
/// # }
/// ```
pub fn solve_transient_adaptive(
    g: &CsrMatrix,
    c: &CsrMatrix,
    excitation: impl Fn(f64) -> Vec<f64>,
    options: &TransientOptions,
    adaptive: &AdaptiveOptions,
) -> Result<AdaptiveTransientSolution> {
    options.validate()?;
    if options.method != IntegrationMethod::TrBdf2 {
        return Err(invalid(
            "adaptive stepping requires IntegrationMethod::TrBdf2".to_string(),
        ));
    }
    let times = options.time_points();
    solve_transient_adaptive_at(g, c, excitation, &times, adaptive)
}

/// Like [`solve_transient_adaptive`], but reports on an arbitrary strictly
/// increasing output grid starting at the DC time `output_times[0]`.
///
/// # Errors
///
/// Same contract as [`solve_transient_adaptive`].
pub fn solve_transient_adaptive_at(
    g: &CsrMatrix,
    c: &CsrMatrix,
    excitation: impl Fn(f64) -> Vec<f64>,
    output_times: &[f64],
    adaptive: &AdaptiveOptions,
) -> Result<AdaptiveTransientSolution> {
    adaptive.validate()?;
    validate_output_times(output_times)?;
    // The direct solver starts at the controller's first step, so that
    // step's factorisation is the run's first refactorisation.
    let (_, _, initial_step) = step_bounds(output_times, adaptive);
    let prepared = DirectPrepared::new(
        CompanionFamily::new(g, c)?,
        initial_step,
        IntegrationMethod::TrBdf2,
    )?;
    let n = g.nrows();
    let u0 = Panel::from_vec(n, 1, excitation(output_times[0]));
    let mut v0 = Panel::zeros(n, 1);
    prepared.solve_dc_panel(&u0, &mut v0, &mut SolveWorkspace::new())?;
    let mut states = Panel::zeros(n, output_times.len());
    let (mut accepted_times, mut accepted_states) = (Vec::new(), Vec::new());
    let mut stats = integrate_adaptive(
        &prepared,
        v0,
        |t, u| u.copy_from_slice(&excitation(t)),
        output_times,
        adaptive,
        |k, state| states.col_mut(k).copy_from_slice(state),
        |t, state| {
            accepted_times.push(t);
            accepted_states.push(state.to_vec());
        },
    )?;
    // The family lives for this run only: every refactorisation is the
    // run's, including the one at the initial step.
    stats.refactorizations = prepared.companion_family().refactorization_count();
    Ok(AdaptiveTransientSolution {
        solution: TransientSolution::new(output_times.to_vec(), states),
        accepted_times,
        accepted_states,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::solve_transient;
    use opera_sparse::TripletMatrix;

    /// Single RC node: G = 1, C = 1 (τ = 1 s).
    fn rc_circuit() -> (CsrMatrix, CsrMatrix) {
        let mut g = TripletMatrix::new(1, 1);
        g.push(0, 0, 1.0);
        let mut c = TripletMatrix::new(1, 1);
        c.push(0, 0, 1.0);
        (g.to_csr(), c.to_csr())
    }

    fn step_excitation(t: f64) -> Vec<f64> {
        vec![if t > 0.0 { 1.0 } else { 0.0 }]
    }

    fn tr_bdf2_options() -> TransientOptions {
        TransientOptions {
            time_step: 0.01,
            end_time: 2.0,
            method: IntegrationMethod::TrBdf2,
        }
    }

    #[test]
    fn adaptive_rc_matches_the_analytic_solution_on_the_output_grid() {
        let (g, c) = rc_circuit();
        let sol = solve_transient_adaptive(
            &g,
            &c,
            step_excitation,
            &tr_bdf2_options(),
            &AdaptiveOptions::default(),
        )
        .unwrap();
        for (k, &t) in sol.solution.times.iter().enumerate().skip(1) {
            let expected = 1.0 - (-t).exp();
            assert!(
                (sol.solution.state_at(k)[0] - expected).abs() < 1e-3,
                "t = {t}: got {}, expected {expected}",
                sol.solution.state_at(k)[0]
            );
        }
        assert_eq!(sol.stats.symbolic_analyses, 1);
        assert_eq!(
            sol.stats.steps_attempted,
            sol.stats.steps_accepted + sol.stats.steps_rejected
        );
        // The controller should need far fewer internal steps than the
        // 200-point output grid it reports on.
        assert!(
            sol.accepted_times.len() < sol.solution.times.len() / 2,
            "accepted {} steps for {} output points",
            sol.accepted_times.len(),
            sol.solution.times.len()
        );
    }

    #[test]
    fn accepted_trajectory_is_monotone_and_inside_the_horizon() {
        let (g, c) = rc_circuit();
        let opts = tr_bdf2_options();
        let sol =
            solve_transient_adaptive(&g, &c, step_excitation, &opts, &AdaptiveOptions::default())
                .unwrap();
        assert_eq!(sol.accepted_times[0], 0.0);
        assert_eq!(*sol.accepted_times.last().unwrap(), opts.end_time);
        for w in sol.accepted_times.windows(2) {
            assert!(w[1] > w[0], "time must strictly increase: {w:?}");
        }
        assert_eq!(sol.accepted_times.len(), sol.accepted_states.len());
        assert_eq!(
            sol.stats.steps_accepted as usize,
            sol.accepted_times.len() - 1
        );
    }

    #[test]
    fn tightening_the_tolerance_converges_to_the_fixed_step_reference() {
        // Smooth excitation: a discontinuous source would dominate the
        // comparison with the *reference's own* first-step error.
        let smooth = |t: f64| vec![1.0 - (-3.0 * t).exp()];
        let (g, c) = rc_circuit();
        let opts = TransientOptions {
            time_step: 0.001,
            end_time: 1.0,
            method: IntegrationMethod::TrBdf2,
        };
        let reference = solve_transient(&g, &c, smooth, &opts).unwrap();
        let mut worst_prev = f64::INFINITY;
        for rel_tol in [1e-3, 1e-6] {
            let sol = solve_transient_adaptive(
                &g,
                &c,
                smooth,
                &opts,
                &AdaptiveOptions::with_rel_tol(rel_tol),
            )
            .unwrap();
            let worst = sol
                .solution
                .states()
                .columns()
                .zip(reference.states().columns())
                .map(|(a, b)| (a[0] - b[0]).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst < worst_prev,
                "tolerance {rel_tol} did not improve: {worst} vs {worst_prev}"
            );
            worst_prev = worst;
        }
        assert!(worst_prev < 1e-5, "tightest run still off by {worst_prev}");
    }

    #[test]
    fn invalid_options_and_wrong_method_are_rejected() {
        let (g, c) = rc_circuit();
        let bad = AdaptiveOptions {
            rel_tol: -1.0,
            ..AdaptiveOptions::default()
        };
        assert!(bad.validate().is_err());
        assert!(AdaptiveOptions {
            safety: 1.5,
            ..AdaptiveOptions::default()
        }
        .validate()
        .is_err());
        assert!(AdaptiveOptions {
            min_step: Some(1.0),
            max_step: Some(0.5),
            ..AdaptiveOptions::default()
        }
        .validate()
        .is_err());
        let be = TransientOptions::new(0.1, 1.0);
        assert!(matches!(
            solve_transient_adaptive(&g, &c, step_excitation, &be, &AdaptiveOptions::default()),
            Err(OperaError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn interpolation_is_exact_at_the_stage_nodes() {
        let v_old = [1.0, -2.0];
        let v_mid = [0.5, 3.0];
        let v_new = [0.25, 7.0];
        let mut out = [0.0; 2];
        interpolate_into(&v_old, &v_mid, &v_new, 0.0, &mut out);
        assert_eq!(out, v_old);
        interpolate_into(&v_old, &v_mid, &v_new, TR_BDF2_GAMMA, &mut out);
        for (o, e) in out.iter().zip(v_mid) {
            assert!((o - e).abs() < 1e-14);
        }
        interpolate_into(&v_old, &v_mid, &v_new, 1.0, &mut out);
        for (o, e) in out.iter().zip(v_new) {
            assert!((o - e).abs() < 1e-14);
        }
    }

    #[test]
    fn impossible_tolerance_reports_a_controller_failure() {
        let (g, c) = rc_circuit();
        let opts = tr_bdf2_options();
        let impossible = AdaptiveOptions {
            rel_tol: 1e-15,
            abs_tol: 1e-18,
            min_step: Some(0.5),
            initial_step: Some(0.5),
            max_rejects: 3,
            ..AdaptiveOptions::default()
        };
        let err =
            solve_transient_adaptive(&g, &c, step_excitation, &opts, &impossible).unwrap_err();
        assert!(err
            .to_string()
            .contains("could not meet the error tolerance"));
    }
}
