//! The one evaluator of the stochastic excitation
//! `u(t, ξ) = u_a(t) + Σ_d ξ_d u_d(t)` (paper Eqs. 13–14), where
//! `u_a(t) = u_pad − i(t)` is the pad injection minus the drain currents and
//! `u_d(t) = p_d − s_d·i(t)` a variable's pad perturbation minus its current
//! sensitivity times the same drain currents.

use opera_grid::PowerGrid;
use opera_pce::GalerkinCoupling;
use opera_sparse::LOCKSTEP_LANES;

use crate::{Result, StochasticGridModel, VariationError};

/// The source terms at one time point: `u_a(t)` and, when some variable
/// reads them, the drain currents `i(t)` (empty otherwise).
#[derive(Debug, Clone)]
struct Terms {
    nominal: Vec<f64>,
    drain: Vec<f64>,
}

/// The pad perturbations `p_d` and current sensitivities `s_d` of a model;
/// none for a bare grid.
#[derive(Debug, Clone, Copy)]
struct Perturbations<'a> {
    pads: &'a [Vec<f64>],
    sens: &'a [f64],
}

// The form writers run once per column per step: zero allocations.
// lint: hot(excitation-forms)

impl Perturbations<'_> {
    /// `out += w·u_d`, each entry of `u_d` computed as it is added.
    fn add_scaled(self, d: usize, w: f64, drain: &[f64], out: &mut [f64]) {
        let (pad, sens) = (&self.pads[d], self.sens[d]);
        if sens != 0.0 {
            for ((o, &p), &i) in out.iter_mut().zip(pad).zip(drain) {
                *o += w * (p - sens * i);
            }
        } else {
            for (o, &p) in out.iter_mut().zip(pad) {
                *o += w * p;
            }
        }
    }
}

/// The three forms of the excitation.
#[derive(Debug, Clone, Copy)]
enum Form<'f> {
    Nominal,
    Sample(&'f [f64]),
    Stacked(&'f GalerkinCoupling),
}

impl Form<'_> {
    /// Writes this form from the source terms `terms` into `out`, whose
    /// length the caller has checked.
    fn write(self, perturbations: Perturbations<'_>, terms: &Terms, out: &mut [f64]) {
        let n = terms.nominal.len();
        out[..n].copy_from_slice(&terms.nominal);
        match self {
            Form::Nominal => {}
            Form::Sample(xi) => {
                for (d, &x) in xi.iter().enumerate() {
                    if x != 0.0 {
                        perturbations.add_scaled(d, x, &terms.drain, out);
                    }
                }
            }
            Form::Stacked(coupling) => {
                // ⟨ψ_i⟩ is nonzero only for i = 0, where it is 1 (ψ₀ ≡ 1).
                // Adding a vanishing `u_d` keeps every bit (no block entry
                // is ever −0), so none is looked for.
                out[n..].fill(0.0);
                for d in 0..perturbations.pads.len() {
                    for (i, block) in out.chunks_exact_mut(n).enumerate() {
                        // ⟨ξ_d ψ_i⟩ = ⟨ξ_d ψ_i ψ_0⟩.
                        let w = coupling.linear(d, i, 0);
                        if w != 0.0 {
                            perturbations.add_scaled(d, w, &terms.drain, block);
                        }
                    }
                }
            }
        }
    }

    /// Writes into `key` what this form's value depends on besides the
    /// time: its kind, then the sample or the basis size and `⟨ξ_d ψ_i⟩`.
    /// Equal keys write equal bits (a zero weight is skipped, whatever its
    /// sign).
    fn key_into(self, n_vars: usize, key: &mut Vec<f64>) {
        key.clear();
        match self {
            Form::Nominal => key.push(0.0),
            Form::Sample(xi) => key.extend([1.0].iter().chain(xi)),
            Form::Stacked(c) => {
                let p = c.len();
                key.extend([2.0, p as f64]);
                key.extend((0..n_vars * p).map(|k| c.linear(k / p, k % p, 0)));
            }
        }
    }
}

// lint: end-hot

/// The excitation of one run, built once from a [`StochasticGridModel`]
/// (or a bare [`PowerGrid`], which has only the nominal form) and the run's
/// current scale `s`. It writes three forms into caller buffers: the
/// nominal `u_a(t)`, the sample `u(t, ξ)` and the stacked Galerkin
/// right-hand side, whose block `i` is `⟨ψ_i⟩ u_a(t) + Σ_d ⟨ξ_d ψ_i⟩ u_d(t)`.
///
/// The source waveforms are evaluated once per time point into scratch the
/// evaluator owns, so every form written at one `t` (all lanes of a
/// lock-step group, say) shares one evaluation. At a scale other than one
/// each form is rescaled around its own value at `t = 0`, `a + s·(u − a)`:
/// switching currents vanish at quiescence, so this scales exactly the
/// switching part and leaves the supply injection untouched. The `t = 0`
/// terms are evaluated once, at construction, and each form's `t = 0`
/// value once, on its first write; the evaluator keeps those of the last
/// [`LOCKSTEP_LANES`] distinct forms, one per lane of a lock-step group.
/// Nothing of the node count is allocated after construction but those.
///
/// ```
/// use opera_grid::GridSpec;
/// use opera_variation::{Excitation, StochasticGridModel, VariationSpec};
///
/// let grid = GridSpec::small_test(100).build()?;
/// let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults())?;
/// let mut excitation = Excitation::for_model(&model, 1.0);
/// let mut u = vec![0.0; model.node_count()];
/// excitation.sample_into(0.4e-9, &[0.5, -1.0], &mut u)?;
/// assert_eq!(u, model.sample_excitation(0.4e-9, &[0.5, -1.0])?);
/// excitation.nominal_into(0.4e-9, &mut u);
/// assert_eq!(u, grid.excitation(0.4e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Excitation<'a> {
    grid: &'a PowerGrid,
    /// The pad injection `u_pad`.
    pad: Vec<f64>,
    perturbations: Perturbations<'a>,
    scale: f64,
    /// The bits of the time `now` holds the terms of, if any.
    at: Option<u64>,
    now: Terms,
    /// The `t = 0` terms, kept when the scale is not one.
    anchor: Option<Terms>,
    /// The keys and `t = 0` values of the forms written last, oldest first.
    anchored: Vec<(Vec<f64>, Vec<f64>)>,
    /// Scratch for the key of the form being written.
    key: Vec<f64>,
}

impl<'a> Excitation<'a> {
    /// The excitation of `model`, its switching currents scaled by `scale`.
    pub fn for_model(model: &'a StochasticGridModel, scale: f64) -> Self {
        Self::new(model.grid(), &model.pad_pert, &model.current_sens, scale)
    }

    /// The nominal excitation of `grid`, its switching currents scaled by
    /// `scale`: only [`nominal_into`](Self::nominal_into) applies.
    pub fn for_grid(grid: &'a PowerGrid, scale: f64) -> Self {
        Self::new(grid, &[], &[], scale)
    }

    fn new(grid: &'a PowerGrid, pads: &'a [Vec<f64>], sens: &'a [f64], scale: f64) -> Self {
        let pad = grid.pad_injection_vector();
        let reads_drain = sens.iter().any(|&s| s != 0.0);
        let now = Terms {
            nominal: vec![0.0; pad.len()],
            drain: vec![0.0; if reads_drain { pad.len() } else { 0 }],
        };
        let anchor = (scale != 1.0).then(|| {
            let mut terms = now.clone();
            grid.excitation_into(0.0, &pad, &mut terms.nominal, &mut terms.drain);
            terms
        });
        Excitation {
            grid,
            pad,
            perturbations: Perturbations { pads, sens },
            scale,
            at: None,
            now,
            anchor,
            anchored: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Writes the nominal excitation `u_a(t)` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the node count.
    pub fn nominal_into(&mut self, t: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.pad.len(), "excitation dimension mismatch");
        self.write(t, Form::Nominal, out);
    }

    /// Writes the excitation `u(t, ξ)` at the sample `xi` into `out`: `u_a`,
    /// then `ξ_d·u_d` added for every nonzero `ξ_d` in ascending `d`.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::IndexOutOfBounds`] if `xi` has not one
    /// coordinate per variable or `out.len()` differs from the node count.
    pub fn sample_into(&mut self, t: f64, xi: &[f64], out: &mut [f64]) -> Result<()> {
        let (vars, nodes) = (self.perturbations.pads.len(), self.pad.len());
        if xi.len() != vars || out.len() != nodes {
            let (got, entries) = (xi.len(), out.len());
            let reason =
                format!("{got} coordinates, {entries} entries for {vars} variables, {nodes} nodes");
            return Err(VariationError::IndexOutOfBounds { reason });
        }
        self.write(t, Form::Sample(xi), out);
        Ok(())
    }

    /// Writes the stacked Galerkin excitation `Ũ(t)` of `coupling`'s basis
    /// into `out`, one block of the node count per basis function: `u_a`
    /// into block 0, then `⟨ξ_d ψ_i⟩ u_d` added for every nonzero
    /// `⟨ξ_d ψ_i⟩`, in ascending `d` and `i`.
    ///
    /// # Panics
    ///
    /// Panics if `coupling` is for another number of variables or `out`
    /// does not hold one block per basis function.
    pub fn stacked_into(&mut self, t: f64, coupling: &GalerkinCoupling, out: &mut [f64]) {
        let (vars, nodes) = (self.perturbations.pads.len(), self.pad.len());
        let fits = coupling.n_vars() == vars && out.len() == nodes * coupling.len();
        assert!(fits, "stacked excitation shape mismatch");
        self.write(t, Form::Stacked(coupling), out);
    }

    /// Writes `form` at `t` into `out`, rescaled around its `t = 0` value
    /// unless the scale is one.
    fn write(&mut self, t: f64, form: Form<'_>, out: &mut [f64]) {
        if self.at != Some(t.to_bits()) {
            let (grid, now) = (self.grid, &mut self.now);
            grid.excitation_into(t, &self.pad, &mut now.nominal, &mut now.drain);
            self.at = Some(t.to_bits());
        }
        form.write(self.perturbations, &self.now, out);
        let Some(anchor) = &self.anchor else {
            return;
        };
        // The form's `t = 0` value: kept from an earlier write, or written
        // now, in place of the oldest once `LOCKSTEP_LANES` are kept.
        form.key_into(self.perturbations.pads.len(), &mut self.key);
        let kept = &mut self.anchored;
        let k = match kept.iter().position(|(key, _)| *key == self.key) {
            Some(k) => k,
            None => {
                if kept.len() == LOCKSTEP_LANES {
                    kept.remove(0);
                }
                let mut value = vec![0.0; out.len()];
                form.write(self.perturbations, anchor, &mut value);
                kept.push((self.key.clone(), value));
                kept.len() - 1
            }
        };
        for (u_n, &a_n) in out.iter_mut().zip(&kept[k].1) {
            *u_n = a_n + self.scale * (*u_n - a_n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opera_grid::GridSpec;
    use opera_pce::{OrthogonalBasis, PolynomialFamily};

    use crate::VariationSpec;

    fn models(grid: &PowerGrid) -> Vec<StochasticGridModel> {
        let spec = VariationSpec::paper_defaults();
        let mut fixed_pads = spec;
        fixed_pads.include_pad_variation = false;
        vec![
            StochasticGridModel::inter_die(grid, &spec).unwrap(),
            StochasticGridModel::inter_die(grid, &fixed_pads).unwrap(),
            StochasticGridModel::inter_die_three_variable(grid, &spec).unwrap(),
            StochasticGridModel::intra_die_slices(grid, &spec, 3).unwrap(),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The per-term reference: `u_d(t)` as its own vector, from the pad
    /// perturbation and a separately summed drain-current vector.
    fn perturbation(model: &StochasticGridModel, d: usize, t: f64) -> Vec<f64> {
        let mut u = model.pad_pert[d].clone();
        let sens = model.current_sens[d];
        if sens != 0.0 {
            let mut i = vec![0.0; model.node_count()];
            for source in model.grid().sources() {
                i[source.node] += source.waveform.value_at(t);
            }
            for (u_n, i_n) in u.iter_mut().zip(&i) {
                *u_n -= sens * i_n;
            }
        }
        u
    }

    /// The per-term reference of the sample form: `u_a` plus `ξ_d·u_d`
    /// added vector by vector.
    fn sample_reference(model: &StochasticGridModel, t: f64, xi: &[f64]) -> Vec<f64> {
        let mut u = model.grid().excitation(t);
        for (d, &x) in xi.iter().enumerate() {
            if x != 0.0 {
                let ud = perturbation(model, d, t);
                for (u_n, ud_n) in u.iter_mut().zip(&ud) {
                    *u_n += x * ud_n;
                }
            }
        }
        u
    }

    /// The per-term reference of the stacked form: `u_a` into block 0,
    /// then `w·u_d` per nonzero coupling in ascending `d` and `i`.
    fn stacked_reference(
        model: &StochasticGridModel,
        coupling: &GalerkinCoupling,
        t: f64,
    ) -> Vec<f64> {
        let n = model.node_count();
        let mut expected = vec![0.0; n * coupling.len()];
        expected[..n].copy_from_slice(&model.grid().excitation(t));
        for d in 0..model.n_vars() {
            let u_d = perturbation(model, d, t);
            if u_d.iter().all(|&v| v == 0.0) {
                continue;
            }
            for i in 0..coupling.len() {
                let w = coupling.linear(d, i, 0);
                if w != 0.0 {
                    for (e, v) in expected[i * n..(i + 1) * n].iter_mut().zip(&u_d) {
                        *e += w * v;
                    }
                }
            }
        }
        expected
    }

    /// `u ← a + s·(u − a)` around the same form's value at `t = 0`.
    fn rescaled(mut u: Vec<f64>, anchor: &[f64], scale: f64) -> Vec<f64> {
        for (u_n, a_n) in u.iter_mut().zip(anchor) {
            *u_n = a_n + scale * (*u_n - a_n);
        }
        u
    }

    const TIMES: [f64; 5] = [0.0, 0.13e-9, 0.5e-9, 0.13e-9, 1.7e-9];

    #[test]
    fn sample_form_is_bit_equal_to_the_per_term_reference() {
        let grid = GridSpec::small_test(150).with_seed(11).build().unwrap();
        for m in &models(&grid) {
            for scale in [1.0, 0.5, 1.5] {
                // One evaluator serves every time and draw: nothing of one
                // write may leak into the next.
                let mut excitation = Excitation::for_model(m, scale);
                let mut out = vec![f64::NAN; m.node_count()];
                for (k, t) in TIMES.into_iter().enumerate() {
                    let draws = [
                        vec![0.0; m.n_vars()],
                        (0..m.n_vars())
                            .map(|d| 0.7 - 0.45 * (d + k) as f64)
                            .collect(),
                    ];
                    for xi in &draws {
                        excitation.sample_into(t, xi, &mut out).unwrap();
                        let mut expected = sample_reference(m, t, xi);
                        if scale != 1.0 {
                            let anchor = sample_reference(m, 0.0, xi);
                            expected = rescaled(expected, &anchor, scale);
                        }
                        assert_eq!(bits(&out), bits(&expected), "t = {t}, scale {scale}");
                    }
                }
                assert_eq!(
                    bits(&m.sample_excitation(0.5e-9, &vec![0.3; m.n_vars()]).unwrap()),
                    bits(&sample_reference(m, 0.5e-9, &vec![0.3; m.n_vars()]))
                );
            }
        }
    }

    #[test]
    fn stacked_form_is_bit_equal_to_the_per_term_reference() {
        let grid = GridSpec::small_test(80).with_seed(4).build().unwrap();
        for m in &models(&grid) {
            let basis =
                OrthogonalBasis::total_order(PolynomialFamily::Hermite, m.n_vars(), 2).unwrap();
            let coupling = GalerkinCoupling::new(&basis).unwrap();
            for scale in [1.0, 1.5] {
                let mut excitation = Excitation::for_model(m, scale);
                let mut out = vec![f64::NAN; m.node_count() * basis.len()];
                for t in TIMES {
                    excitation.stacked_into(t, &coupling, &mut out);
                    let mut expected = stacked_reference(m, &coupling, t);
                    if scale != 1.0 {
                        let anchor = stacked_reference(m, &coupling, 0.0);
                        expected = rescaled(expected, &anchor, scale);
                    }
                    assert_eq!(bits(&out), bits(&expected), "t = {t}, scale {scale}");
                }
            }
        }
    }

    #[test]
    fn nominal_form_is_the_grid_excitation_rescaled_around_quiescence() {
        let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
        let model = &models(&grid)[0];
        for scale in [1.0, 0.5, 2.0] {
            let mut from_grid = Excitation::for_grid(&grid, scale);
            let mut from_model = Excitation::for_model(model, scale);
            let mut out = vec![f64::NAN; grid.node_count()];
            for t in TIMES {
                let mut expected = grid.excitation(t);
                if scale != 1.0 {
                    expected = rescaled(expected, &grid.excitation(0.0), scale);
                }
                from_grid.nominal_into(t, &mut out);
                assert_eq!(bits(&out), bits(&expected), "grid, t = {t}");
                from_model.nominal_into(t, &mut out);
                assert_eq!(bits(&out), bits(&expected), "model, t = {t}");
            }
        }
    }

    #[test]
    fn mismatched_samples_and_buffers_are_rejected() {
        let grid = GridSpec::small_test(60).build().unwrap();
        let model = &models(&grid)[0];
        let mut excitation = Excitation::for_model(model, 1.0);
        let mut out = vec![0.0; model.node_count()];
        assert!(excitation.sample_into(0.0, &[0.0], &mut out).is_err());
        let mut short = vec![0.0; model.node_count() - 1];
        assert!(excitation
            .sample_into(0.0, &[0.0, 0.0], &mut short)
            .is_err());
        assert!(model.sample_excitation(0.0, &[0.0, 0.0, 0.0]).is_err());
    }
}
