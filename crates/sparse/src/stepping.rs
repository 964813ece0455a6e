//! The fixed-step integration formulas of `G·v + C·dv/dt = u(t)`: the
//! scheme enum, the TR-BDF2 split `γ`, the companion scale `s` of
//! `G + s·C`, the time grid and the stage right-hand sides.
//!
//! This is the one copy of these formulas. The engine's companion systems
//! and CG backend (`opera::transient`, `opera::solver`) and the lock-step
//! sampler behind Monte Carlo and collocation (`opera_collocation`) all
//! build through it, so every path performs the same floating-point
//! operations in the same order. See `docs/TRANSIENT.md`.

use crate::csr::CsrView;

/// TR-BDF2 stage split: the trapezoidal stage covers `γh`, the BDF2 stage the
/// remaining `(1−γ)h`, with `γ = 2 − √2` so both stages share one companion
/// matrix `G + (2/(γh))·C`.
pub const TR_BDF2_GAMMA: f64 = 2.0 - std::f64::consts::SQRT_2;

/// BDF2-stage weight of the intermediate state: `1/(2(1−γ))`.
const TR_BDF2_W_MID: f64 = 0.5 / (1.0 - TR_BDF2_GAMMA);
/// BDF2-stage weight of the old state: `(1−γ)/2`.
const TR_BDF2_W_OLD: f64 = 0.5 * (1.0 - TR_BDF2_GAMMA);

/// TR-BDF2 local-error constant `(3γ² − 4γ + 2) / (12(2 − γ))`
/// (Hosea–Shampine), folded below into the per-node residual weights of the
/// filtered error estimate.
const TR_BDF2_ERR_CONST: f64 = (3.0 * TR_BDF2_GAMMA * TR_BDF2_GAMMA - 4.0 * TR_BDF2_GAMMA + 2.0)
    / (12.0 * (2.0 - TR_BDF2_GAMMA));
/// Residual weight of the step-start node in the filtered LTE solve.
const TR_BDF2_ERR_OLD: f64 = 2.0 * TR_BDF2_ERR_CONST / (TR_BDF2_GAMMA * TR_BDF2_GAMMA);
/// Residual weight of the intermediate (`t + γh`) node.
const TR_BDF2_ERR_MID: f64 =
    -2.0 * TR_BDF2_ERR_CONST / (TR_BDF2_GAMMA * TR_BDF2_GAMMA * (1.0 - TR_BDF2_GAMMA));
/// Residual weight of the step-end node.
const TR_BDF2_ERR_NEW: f64 = 2.0 * TR_BDF2_ERR_CONST / (TR_BDF2_GAMMA * (1.0 - TR_BDF2_GAMMA));

/// Time-integration scheme of a transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// First-order implicit Euler — robust, matches the paper's fixed-step
    /// analysis. This is the default.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule — more accurate for smooth waveforms.
    Trapezoidal,
    /// Second-order TR-BDF2 composite (trapezoidal stage over `γh`, BDF2
    /// stage over the rest, `γ = 2 − √2`) — L-stable, so stiff RC decks do
    /// not ring, with an embedded error estimate
    /// ([`StepRhs::tr_bdf2_error`]) that drives the engine's adaptive
    /// controller.
    TrBdf2,
}

/// Companion-matrix scale `s` in `G + s·C` for a scheme at step `h`: `1/h`,
/// `2/h` or `2/(γh)` (both TR-BDF2 stages share the one companion).
pub fn companion_scale(method: IntegrationMethod, time_step: f64) -> f64 {
    match method {
        IntegrationMethod::BackwardEuler => 1.0 / time_step,
        IntegrationMethod::Trapezoidal => 2.0 / time_step,
        IntegrationMethod::TrBdf2 => 2.0 / (TR_BDF2_GAMMA * time_step),
    }
}

/// Checks a fixed-step window: a positive, finite step no longer than a
/// positive, finite end time. The error is the reason.
///
/// # Errors
///
/// Returns the reason the window is invalid.
pub fn check_window(time_step: f64, end_time: f64) -> Result<(), String> {
    if time_step <= 0.0 || !time_step.is_finite() {
        return Err(format!("time_step must be positive, got {time_step}"));
    }
    if end_time <= 0.0 || !end_time.is_finite() {
        return Err(format!("end_time must be positive, got {end_time}"));
    }
    if time_step > end_time {
        return Err("time_step must not exceed end_time".to_string());
    }
    Ok(())
}

/// The time points `t₀ = 0, t₁ = h, …` of a fixed-step analysis of
/// `0..=end_time`.
///
/// Interior points are generated as `k as f64 * h` (not by accumulating
/// `t += h`, which drifts), and the final point is `end_time` itself, so
/// the grid always lands exactly on the requested horizon even when
/// `steps · h` rounds away from it.
pub fn time_points(time_step: f64, end_time: f64) -> Vec<f64> {
    let steps = (end_time / time_step).round() as usize;
    (0..=steps)
        .map(|k| {
            if k == steps {
                end_time
            } else {
                k as f64 * time_step
            }
        })
        .collect()
}

// The stage builders run once per column per step: zero allocations.
// lint: hot(stage-formulas)

/// The stage right-hand sides of a companion step over the companion matrix
/// `G + s·C`. Each builder writes `out` and panics if a vector's length
/// differs from `out`'s.
///
/// `s·C` is `c_scale · c`: a direct solver hands in the stored product
/// `s·C` with `c_scale = 1` (multiplying by one is exact, so its bits do
/// not depend on the split), the engine's CG backend the shared `C̃` with
/// `c_scale = s`, so a step-size change there rescales nothing but a
/// scalar. The matrices are [`CsrView`]s: a system's own matrices, or a
/// lock-step member's values on the nominal patterns. `g` is only read by
/// the trapezoidal stage and the error estimate, so a backward-Euler
/// stepper may leave it out.
#[derive(Debug, Clone, Copy)]
pub struct StepRhs<'a> {
    /// `C`, or `s·C` with `c_scale = 1`.
    pub c: CsrView<'a>,
    /// The factor that makes `c_scale · c` the scaled capacitance `s·C`.
    pub c_scale: f64,
    /// `G`; `None` only for a backward-Euler stepper.
    pub g: Option<CsrView<'a>>,
}

impl<'a> StepRhs<'a> {
    /// A single-stage step: backward Euler `(s·C)·v_k + u_{k+1}` or the
    /// [trapezoidal](Self::trapezoidal) rule.
    ///
    /// # Panics
    ///
    /// Panics for TR-BDF2, which needs the mid-stage excitation, and on a
    /// length mismatch.
    pub fn single_stage(
        self,
        method: IntegrationMethod,
        v_k: &[f64],
        u_k: &[f64],
        u_k1: &[f64],
        out: &mut [f64],
    ) {
        assert!(
            method != IntegrationMethod::TrBdf2,
            "TR-BDF2 needs the mid-stage excitation: build its two stages"
        );
        if method == IntegrationMethod::Trapezoidal {
            return self.trapezoidal(v_k, u_k, u_k1, out);
        }
        assert_eq!(u_k1.len(), out.len(), "excitation dimension mismatch");
        self.scaled_c_into(v_k, out);
        opera_simd::add_assign(out, u_k1, opera_simd::active());
    }

    /// The trapezoidal rule `(s·C − G)·v_k + (u_k + u_{k+1})` — also the
    /// trapezoidal stage of TR-BDF2, with `u_k1` the excitation at `t + γh`.
    ///
    /// # Panics
    ///
    /// Panics without `g` and on a length mismatch.
    pub fn trapezoidal(self, v_k: &[f64], u_k: &[f64], u_k1: &[f64], out: &mut [f64]) {
        assert_eq!(u_k.len(), out.len(), "excitation dimension mismatch");
        assert_eq!(u_k1.len(), out.len(), "excitation dimension mismatch");
        self.scaled_c_into(v_k, out);
        self.conductance().matvec_acc(v_k, -1.0, out);
        opera_simd::add2_assign(out, u_k, u_k1, opera_simd::active());
    }

    /// The BDF2 stage of TR-BDF2 on the unequally spaced nodes
    /// `{t, t+γh, t+h}`: `(s·C)·(v_γ/(2(1−γ)) − v_k·(1−γ)/2) + u_{k+1}`.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn bdf2(self, v_k: &[f64], v_mid: &[f64], u_k1: &[f64], out: &mut [f64]) {
        assert_eq!(u_k1.len(), out.len(), "excitation dimension mismatch");
        let backend = opera_simd::active();
        self.c.matvec_into(v_mid, out);
        opera_simd::scale_assign(out, TR_BDF2_W_MID * self.c_scale, backend);
        self.c.matvec_acc(v_k, -TR_BDF2_W_OLD * self.c_scale, out);
        opera_simd::add_assign(out, u_k1, backend);
    }

    /// The right-hand side of the filtered TR-BDF2 error estimate,
    /// `Σ w_i (u_i − G v_i)` over the step-start, intermediate and step-end
    /// nodes (Hosea–Shampine); solving it through the companion matrix
    /// filters the raw divided-difference estimate.
    ///
    /// # Panics
    ///
    /// Panics without `g` and on a length mismatch.
    pub fn tr_bdf2_error(self, v: [&[f64]; 3], u: [&[f64]; 3], out: &mut [f64]) {
        let weights = [TR_BDF2_ERR_OLD, TR_BDF2_ERR_MID, TR_BDF2_ERR_NEW];
        for state in v {
            assert_eq!(state.len(), out.len(), "state dimension mismatch");
        }
        opera_simd::weighted_sum3(out, u, weights, opera_simd::active());
        let g = self.conductance();
        for (state, weight) in v.into_iter().zip(weights) {
            g.matvec_acc(state, -weight, out);
        }
    }

    /// `out = (s·C)·v`; the scaling pass is skipped for a pre-scaled `C`.
    fn scaled_c_into(self, v: &[f64], out: &mut [f64]) {
        self.c.matvec_into(v, out);
        if self.c_scale != 1.0 {
            opera_simd::scale_assign(out, self.c_scale, opera_simd::active());
        }
    }

    /// `G`, which every stage that reads it was given.
    fn conductance(self) -> CsrView<'a> {
        let g = self.g;
        // lint: allow(L001, only a backward-Euler stepper leaves G out, and its stage never reads it)
        g.expect("the trapezoidal stage and the error estimate read G")
    }
}

// lint: end-hot
