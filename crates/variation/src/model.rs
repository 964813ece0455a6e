//! The stochastic grid model: nominal matrices plus per-variable
//! perturbations (paper Eqs. 13–14).

use std::sync::Arc;

use opera_grid::{BranchKind, CapacitorClass, PowerGrid};
use opera_pce::PolynomialFamily;
use opera_sparse::CsrMatrix;

use crate::{Excitation, Result, VariationError, VariationSpec};

/// One normalised random variable of the stochastic model.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationVariable {
    /// Human-readable name (`"xi_G"`, `"xi_L"`, `"xi_Vth[0]"`, …).
    pub name: String,
    /// Orthogonal polynomial family matching the variable's distribution.
    pub family: PolynomialFamily,
}

/// A power grid whose electrical parameters are affine functions of a small
/// set of normalised random variables:
///
/// ```text
/// G(ξ) = G_a + Σ_d G_d ξ_d,   C(ξ) = C_a + Σ_d C_d ξ_d,
/// u(t, ξ) = u_a(t) + Σ_d u_d(t) ξ_d
/// ```
///
/// This is exactly the first-order (linear) parameter model of the paper
/// (Eq. 13 after the ξ_W/ξ_T combination of Eq. 14). The model retains the
/// underlying [`PowerGrid`] so an [`Excitation`] can evaluate the
/// time-dependent excitation at arbitrary time points.
#[derive(Debug, Clone)]
pub struct StochasticGridModel {
    grid: PowerGrid,
    variables: Vec<VariationVariable>,
    /// `G_a` and `C_a`, shared with the solvers that keep them.
    ga: Arc<CsrMatrix>,
    ca: Arc<CsrMatrix>,
    g_pert: Vec<CsrMatrix>,
    c_pert: Vec<CsrMatrix>,
    /// Constant (pad) part of the excitation perturbations.
    pub(crate) pad_pert: Vec<Vec<f64>>,
    /// Multiplier applied to the nominal drain currents for each variable
    /// (`u_d(t)` includes `− current_sens[d] · i(t)`).
    pub(crate) current_sens: Vec<f64>,
}

impl StochasticGridModel {
    /// Builds the two-variable inter-die model of the paper: `ξ_G` perturbs
    /// the metal conductances (and, optionally, the pad injection), `ξ_L`
    /// perturbs the gate capacitance and the drain currents.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidSpec`] if the spec fails validation.
    pub fn inter_die(grid: &PowerGrid, spec: &VariationSpec) -> Result<Self> {
        spec.validate()?;
        let sigma_g = spec.sigma_conductance();
        let sigma_l = spec.sigma_channel_length();

        let ga = grid.conductance_matrix();
        let ca = grid.capacitance_matrix();

        // ξ_G: all on-die metal (wires and vias) scales linearly; package pads
        // are included only if requested.
        let include_pads = spec.include_pad_variation;
        let gg = grid.conductance_matrix_weighted(|b| match b.kind {
            BranchKind::MetalWire | BranchKind::Via => sigma_g,
            BranchKind::PackagePad => {
                if include_pads {
                    sigma_g
                } else {
                    0.0
                }
            }
        });
        // ξ_L: only the gate capacitance varies (≈40 % of the total).
        let cc = grid.capacitance_matrix_weighted(|c| match c.class {
            CapacitorClass::Gate => sigma_l,
            _ => 0.0,
        });

        let pad_g = if include_pads {
            grid.pad_injection_weighted(|_| sigma_g)
        } else {
            vec![0.0; grid.node_count()]
        };
        let pad_l = vec![0.0; grid.node_count()];

        let variables = vec![
            VariationVariable {
                name: "xi_G".to_string(),
                family: PolynomialFamily::Hermite,
            },
            VariationVariable {
                name: "xi_L".to_string(),
                family: PolynomialFamily::Hermite,
            },
        ];

        Ok(StochasticGridModel {
            grid: grid.clone(),
            variables,
            ga: Arc::new(ga),
            ca: Arc::new(ca),
            g_pert: vec![gg, CsrMatrix::zeros(grid.node_count(), grid.node_count())],
            c_pert: vec![CsrMatrix::zeros(grid.node_count(), grid.node_count()), cc],
            pad_pert: vec![pad_g, pad_l],
            current_sens: vec![0.0, spec.drain_current_sensitivity * sigma_l],
        })
    }

    /// Builds a three-variable model that keeps `ξ_W`, `ξ_T` and `ξ_L`
    /// separate instead of combining the first two into `ξ_G` — useful for
    /// the ablation study on the number of random variables.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidSpec`] if the spec fails validation.
    pub fn inter_die_three_variable(grid: &PowerGrid, spec: &VariationSpec) -> Result<Self> {
        spec.validate()?;
        let sigma_w = spec.sigma_width();
        let sigma_t = spec.sigma_thickness();
        let sigma_l = spec.sigma_channel_length();
        let include_pads = spec.include_pad_variation;

        let ga = grid.conductance_matrix();
        let ca = grid.capacitance_matrix();
        let metal_weight = |sigma: f64| {
            move |b: &opera_grid::ResistiveBranch| match b.kind {
                BranchKind::MetalWire | BranchKind::Via => sigma,
                BranchKind::PackagePad => {
                    if include_pads {
                        sigma
                    } else {
                        0.0
                    }
                }
            }
        };
        let gw = grid.conductance_matrix_weighted(metal_weight(sigma_w));
        let gt = grid.conductance_matrix_weighted(metal_weight(sigma_t));
        let cc = grid.capacitance_matrix_weighted(|c| match c.class {
            CapacitorClass::Gate => sigma_l,
            _ => 0.0,
        });
        let zero = CsrMatrix::zeros(grid.node_count(), grid.node_count());

        let pad_w = if include_pads {
            grid.pad_injection_weighted(|_| sigma_w)
        } else {
            vec![0.0; grid.node_count()]
        };
        let pad_t = if include_pads {
            grid.pad_injection_weighted(|_| sigma_t)
        } else {
            vec![0.0; grid.node_count()]
        };

        Ok(StochasticGridModel {
            grid: grid.clone(),
            variables: vec![
                VariationVariable {
                    name: "xi_W".to_string(),
                    family: PolynomialFamily::Hermite,
                },
                VariationVariable {
                    name: "xi_T".to_string(),
                    family: PolynomialFamily::Hermite,
                },
                VariationVariable {
                    name: "xi_L".to_string(),
                    family: PolynomialFamily::Hermite,
                },
            ],
            ga: Arc::new(ga),
            ca: Arc::new(ca),
            g_pert: vec![gw, gt, zero.clone()],
            c_pert: vec![zero.clone(), zero, cc],
            pad_pert: vec![pad_w, pad_t, vec![0.0; grid.node_count()]],
            current_sens: vec![0.0, 0.0, spec.drain_current_sensitivity * sigma_l],
        })
    }

    /// Builds an intra-die model: the die is split into `regions` slices
    /// (by node index, mirroring [`crate::LeakageModel::uniform_slices`]'s
    /// convention) and each slice gets its own conductance variable
    /// `ξ_G[r]`, while the channel-length variable `ξ_L` remains shared
    /// (gate capacitance and drain currents track the die-wide `Leff`).
    ///
    /// This extends the paper's inter-die experiments toward the spatial
    /// (intra-die) stochastic processes described in its Section 3; the
    /// number of random variables becomes `regions + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidSpec`] for an invalid spec or
    /// `regions == 0`.
    pub fn intra_die_slices(
        grid: &PowerGrid,
        spec: &VariationSpec,
        regions: usize,
    ) -> Result<Self> {
        spec.validate()?;
        if regions == 0 {
            return Err(VariationError::InvalidSpec {
                reason: "intra-die model needs at least one region".to_string(),
            });
        }
        let sigma_g = spec.sigma_conductance();
        let sigma_l = spec.sigma_channel_length();
        let include_pads = spec.include_pad_variation;
        let n = grid.node_count();
        let region_of = |node: usize| (node * regions / n).min(regions - 1);

        let ga = grid.conductance_matrix();
        let ca = grid.capacitance_matrix();
        let zero = CsrMatrix::zeros(n, n);

        let mut variables = Vec::with_capacity(regions + 1);
        let mut g_pert = Vec::with_capacity(regions + 1);
        let mut c_pert = Vec::with_capacity(regions + 1);
        let mut pad_pert = Vec::with_capacity(regions + 1);
        let mut current_sens = Vec::with_capacity(regions + 1);
        for r in 0..regions {
            // A branch belongs to region r if its first node does.
            let gg_r = grid.conductance_matrix_weighted(|b| {
                let in_region = region_of(b.a) == r;
                match b.kind {
                    BranchKind::MetalWire | BranchKind::Via if in_region => sigma_g,
                    BranchKind::PackagePad if in_region && include_pads => sigma_g,
                    _ => 0.0,
                }
            });
            let pad_r = if include_pads {
                grid.pad_injection_weighted(|b| if region_of(b.a) == r { sigma_g } else { 0.0 })
            } else {
                vec![0.0; n]
            };
            variables.push(VariationVariable {
                name: format!("xi_G[{r}]"),
                family: PolynomialFamily::Hermite,
            });
            g_pert.push(gg_r);
            c_pert.push(zero.clone());
            pad_pert.push(pad_r);
            current_sens.push(0.0);
        }
        // Shared ξ_L variable.
        variables.push(VariationVariable {
            name: "xi_L".to_string(),
            family: PolynomialFamily::Hermite,
        });
        g_pert.push(zero);
        c_pert.push(grid.capacitance_matrix_weighted(|c| match c.class {
            CapacitorClass::Gate => sigma_l,
            _ => 0.0,
        }));
        pad_pert.push(vec![0.0; n]);
        current_sens.push(spec.drain_current_sensitivity * sigma_l);

        Ok(StochasticGridModel {
            grid: grid.clone(),
            variables,
            ga: Arc::new(ga),
            ca: Arc::new(ca),
            g_pert,
            c_pert,
            pad_pert,
            current_sens,
        })
    }

    /// The underlying deterministic grid.
    pub fn grid(&self) -> &PowerGrid {
        &self.grid
    }

    /// Number of grid nodes.
    pub fn node_count(&self) -> usize {
        self.grid.node_count()
    }

    /// Number of random variables `r`.
    pub fn n_vars(&self) -> usize {
        self.variables.len()
    }

    /// Descriptions of the random variables.
    pub fn variables(&self) -> &[VariationVariable] {
        &self.variables
    }

    /// Polynomial families of the variables, in order (for basis creation).
    pub fn families(&self) -> Vec<PolynomialFamily> {
        self.variables.iter().map(|v| v.family).collect()
    }

    /// Nominal conductance matrix `G_a`.
    pub fn nominal_conductance(&self) -> &CsrMatrix {
        &self.ga
    }

    /// Nominal capacitance matrix `C_a`.
    pub fn nominal_capacitance(&self) -> &CsrMatrix {
        &self.ca
    }

    /// `G_a` and `C_a` themselves, shared rather than copied (what a solver
    /// that keeps the nominal matrices for its whole life holds).
    pub fn shared_nominal_matrices(&self) -> (Arc<CsrMatrix>, Arc<CsrMatrix>) {
        (Arc::clone(&self.ga), Arc::clone(&self.ca))
    }

    /// Conductance perturbation matrix `G_d` of variable `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn conductance_perturbation(&self, d: usize) -> &CsrMatrix {
        &self.g_pert[d]
    }

    /// Capacitance perturbation matrix `C_d` of variable `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn capacitance_perturbation(&self, d: usize) -> &CsrMatrix {
        &self.c_pert[d]
    }

    /// Realises the conductance matrix for a particular sample `ξ` (used by
    /// the Monte Carlo baseline).
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::IndexOutOfBounds`] if `xi.len() != n_vars()`.
    pub fn sample_conductance(&self, xi: &[f64]) -> Result<CsrMatrix> {
        self.check_sample(xi)?;
        let mut g = CsrMatrix::clone(&self.ga);
        for (d, &x) in xi.iter().enumerate() {
            if x != 0.0 && self.g_pert[d].nnz() > 0 {
                g = g.add_scaled(&self.g_pert[d], x).map_err(numerical)?;
            }
        }
        Ok(g)
    }

    /// Realises the capacitance matrix for a particular sample `ξ`.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::IndexOutOfBounds`] if `xi.len() != n_vars()`.
    pub fn sample_capacitance(&self, xi: &[f64]) -> Result<CsrMatrix> {
        self.check_sample(xi)?;
        let mut c = CsrMatrix::clone(&self.ca);
        for (d, &x) in xi.iter().enumerate() {
            if x != 0.0 && self.c_pert[d].nnz() > 0 {
                c = c.add_scaled(&self.c_pert[d], x).map_err(numerical)?;
            }
        }
        Ok(c)
    }

    /// Realises the excitation vector at time `t` for a particular sample:
    /// the sample form of an [`Excitation`] at scale one.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::IndexOutOfBounds`] if `xi.len() != n_vars()`.
    pub fn sample_excitation(&self, t: f64, xi: &[f64]) -> Result<Vec<f64>> {
        let mut u = vec![0.0; self.node_count()];
        Excitation::for_model(self, 1.0).sample_into(t, xi, &mut u)?;
        Ok(u)
    }

    fn check_sample(&self, xi: &[f64]) -> Result<()> {
        if xi.len() != self.n_vars() {
            return Err(VariationError::IndexOutOfBounds {
                reason: format!(
                    "sample has {} coordinates, model has {} variables",
                    xi.len(),
                    self.n_vars()
                ),
            });
        }
        Ok(())
    }
}

/// The matrices of one sample `ξ` as value arrays on a model's nominal
/// patterns (see [`NominalPatterns`]): every realisation only re-weights
/// nominal branches, so its matrices need no pattern of their own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleValues {
    /// `G(ξ)` on the pattern of `G_a`.
    pub conductance: Vec<f64>,
    /// `s·C(ξ)` on the pattern of `C_a`.
    pub scaled_capacitance: Vec<f64>,
    /// The companion matrix `G(ξ) + s·C(ξ)` on
    /// [`NominalPatterns::companion`].
    pub companion: Vec<f64>,
}

/// The nominal patterns of a [`StochasticGridModel`] and the realisation of
/// samples as values on them: the one way the lock-step sampler (Monte
/// Carlo and collocation) realises a sample's matrices. The values are
/// bit-identical to the matrices the allocating path builds —
/// [`sample_conductance`](StochasticGridModel::sample_conductance),
/// `sample_capacitance(ξ).scaled(s)` and their sum by
/// [`CsrMatrix::add_scaled`] — because they replay the same merges on the
/// same patterns, without building a pattern per sample.
#[derive(Debug)]
pub struct NominalPatterns<'a> {
    model: &'a StochasticGridModel,
    /// The pattern of `G_a + C_a` when it is not `G_a`'s own. Capacitors to
    /// ground touch only the diagonal, so normally it is, and no second
    /// pattern is stored.
    union: Option<CsrMatrix>,
}

impl<'a> NominalPatterns<'a> {
    /// The patterns of `model`'s nominal matrices and of their sum.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::Numerical`] if the nominal matrices'
    /// shapes differ.
    pub fn new(model: &'a StochasticGridModel) -> Result<Self> {
        let union = model.ga.add_scaled(&model.ca, 1.0).map_err(numerical)?;
        Ok(NominalPatterns {
            model,
            union: (!union.same_pattern(&model.ga)).then_some(union),
        })
    }

    /// `G_a`, whose pattern [`SampleValues::conductance`] lies on.
    pub fn conductance(&self) -> &'a CsrMatrix {
        &self.model.ga
    }

    /// `C_a`, whose pattern [`SampleValues::scaled_capacitance`] lies on.
    pub fn capacitance(&self) -> &'a CsrMatrix {
        &self.model.ca
    }

    /// A matrix with the pattern of `G_a + C_a`, on which
    /// [`SampleValues::companion`] lies (its own values are nominal ones;
    /// an analysis of it reads only the pattern).
    pub fn companion(&self) -> &CsrMatrix {
        self.union.as_ref().unwrap_or(&self.model.ga)
    }

    /// Writes sample `xi`'s `G(ξ)`, `s·C(ξ)` (with `s = scale`) and
    /// companion values into `out`, reusing its buffers.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::IndexOutOfBounds`] if `xi.len() !=
    /// n_vars()` and [`VariationError::Numerical`] (carrying the sparse
    /// `InvalidStructure` error) if a perturbation that `xi` weights stores
    /// an entry outside its nominal pattern.
    pub fn realise(&self, xi: &[f64], scale: f64, out: &mut SampleValues) -> Result<()> {
        let model = self.model;
        model.check_sample(xi)?;
        realise_onto(&model.ga, &model.g_pert, xi, &mut out.conductance)?;
        realise_onto(&model.ca, &model.c_pert, xi, &mut out.scaled_capacitance)?;
        for v in &mut out.scaled_capacitance {
            *v *= scale;
        }
        model
            .ga
            .with_values(&out.conductance)
            .add_scaled_values(
                model.ca.with_values(&out.scaled_capacitance),
                1.0,
                &mut out.companion,
            )
            .map_err(numerical)
    }
}

/// `nominal + Σ_d ξ_d·perturbation_d` as values on `nominal`'s pattern, in
/// the order and arithmetic of the
/// [`sample_conductance`](StochasticGridModel::sample_conductance) fold.
fn realise_onto(
    nominal: &CsrMatrix,
    perturbations: &[CsrMatrix],
    xi: &[f64],
    out: &mut Vec<f64>,
) -> Result<()> {
    out.clear();
    out.extend_from_slice(nominal.data());
    for (perturbation, &x) in perturbations.iter().zip(xi) {
        if x != 0.0 && perturbation.nnz() > 0 {
            nominal
                .add_scaled_onto(out, perturbation, x)
                .map_err(numerical)?;
        }
    }
    Ok(())
}

fn numerical(e: opera_sparse::SparseError) -> VariationError {
    VariationError::Numerical {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opera_grid::GridSpec;

    fn small_model() -> StochasticGridModel {
        let grid = GridSpec::small_test(150).with_seed(11).build().unwrap();
        StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap()
    }

    #[test]
    fn two_variable_model_has_expected_structure() {
        let m = small_model();
        assert_eq!(m.n_vars(), 2);
        assert_eq!(m.variables()[0].name, "xi_G");
        assert_eq!(m.variables()[1].name, "xi_L");
        // ξ_G does not touch the capacitance; ξ_L does not touch the conductance.
        assert_eq!(m.conductance_perturbation(1).nnz(), 0);
        assert_eq!(m.capacitance_perturbation(0).nnz(), 0);
        assert!(m.conductance_perturbation(0).nnz() > 0);
        assert!(m.capacitance_perturbation(1).nnz() > 0);
    }

    #[test]
    fn conductance_perturbation_is_scaled_nominal_when_pads_vary() {
        // With pads included, every branch scales by σ_G, so G_g = σ_G · G_a
        // exactly (the paper's "Gb = d·Ga" observation).
        let m = small_model();
        let sigma_g = VariationSpec::paper_defaults().sigma_conductance();
        let diff = m
            .nominal_conductance()
            .scaled(sigma_g)
            .add_scaled(m.conductance_perturbation(0), -1.0)
            .unwrap();
        assert!(diff.frobenius_norm() < 1e-10 * m.nominal_conductance().frobenius_norm());
    }

    #[test]
    fn gate_capacitance_fraction_controls_cc_magnitude() {
        let m = small_model();
        let sigma_l = VariationSpec::paper_defaults().sigma_channel_length();
        let cc_total: f64 = m.capacitance_perturbation(1).diagonal().iter().sum();
        let gate_total = m.grid().capacitance_of_class(CapacitorClass::Gate);
        assert!((cc_total - sigma_l * gate_total).abs() < 1e-12 * gate_total.max(1e-30));
    }

    #[test]
    fn sampling_at_zero_returns_nominal() {
        let m = small_model();
        let g = m.sample_conductance(&[0.0, 0.0]).unwrap();
        assert_eq!(&g, m.nominal_conductance());
        let c = m.sample_capacitance(&[0.0, 0.0]).unwrap();
        assert_eq!(&c, m.nominal_capacitance());
        let u = m.sample_excitation(0.3e-9, &[0.0, 0.0]).unwrap();
        assert_eq!(u, m.grid().excitation(0.3e-9));
    }

    #[test]
    fn sampling_shifts_matrices_linearly() {
        let m = small_model();
        let g_plus = m.sample_conductance(&[1.0, 0.0]).unwrap();
        let g_minus = m.sample_conductance(&[-1.0, 0.0]).unwrap();
        // (G(+1) + G(−1)) / 2 = G_a for a linear model.
        let avg = g_plus.add_scaled(&g_minus, 1.0).unwrap().scaled(0.5);
        let diff = avg.add_scaled(m.nominal_conductance(), -1.0).unwrap();
        assert!(diff.frobenius_norm() < 1e-9);
    }

    #[test]
    fn excitation_perturbation_tracks_drain_currents() {
        let grid = GridSpec::small_test(150).with_seed(3).build().unwrap();
        let m = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        // u_L(t) = −s_L·i(t): no pad part, the spec's current sensitivity.
        let sens = VariationSpec::paper_defaults().drain_current_sensitivity
            * VariationSpec::paper_defaults().sigma_channel_length();
        assert!(m.pad_pert[1].iter().all(|&p| p == 0.0));
        assert_eq!(m.current_sens[1], sens);
        // At a time when currents flow, a unit ξ_L moves the excitation by
        // exactly that.
        let t = 0.4e-9;
        let mut i = vec![0.0; grid.node_count()];
        for source in grid.sources() {
            i[source.node] += source.waveform.value_at(t);
        }
        assert!(
            i.iter().sum::<f64>() > 0.0,
            "test needs nonzero current at t"
        );
        let u0 = m.sample_excitation(t, &[0.0, 0.0]).unwrap();
        let u1 = m.sample_excitation(t, &[0.0, 1.0]).unwrap();
        for ((a, b), inode) in u0.iter().zip(&u1).zip(&i) {
            assert!((b - a + sens * inode).abs() < 1e-18 + 1e-12 * a.abs());
        }
    }

    #[test]
    fn three_variable_model_splits_width_and_thickness() {
        let grid = GridSpec::small_test(150).build().unwrap();
        let m =
            StochasticGridModel::inter_die_three_variable(&grid, &VariationSpec::paper_defaults())
                .unwrap();
        assert_eq!(m.n_vars(), 3);
        // σ_W > σ_T, so the ξ_W perturbation is larger in norm.
        assert!(
            m.conductance_perturbation(0).frobenius_norm()
                > m.conductance_perturbation(1).frobenius_norm()
        );
        // Only ξ_L perturbs the capacitance.
        assert_eq!(m.capacitance_perturbation(0).nnz(), 0);
        assert_eq!(m.capacitance_perturbation(1).nnz(), 0);
        assert!(m.capacitance_perturbation(2).nnz() > 0);
    }

    #[test]
    fn intra_die_slices_partition_the_conductance_perturbation() {
        let grid = GridSpec::small_test(150).with_seed(11).build().unwrap();
        let spec = VariationSpec::paper_defaults();
        let regions = 3;
        let intra = StochasticGridModel::intra_die_slices(&grid, &spec, regions).unwrap();
        let inter = StochasticGridModel::inter_die(&grid, &spec).unwrap();
        assert_eq!(intra.n_vars(), regions + 1);
        assert_eq!(intra.variables()[0].name, "xi_G[0]");
        assert_eq!(intra.variables()[regions].name, "xi_L");
        // The regional conductance perturbations partition the inter-die one:
        // their sum equals the single ξ_G perturbation matrix.
        let mut sum = intra.conductance_perturbation(0).clone();
        for r in 1..regions {
            sum = sum
                .add_scaled(intra.conductance_perturbation(r), 1.0)
                .unwrap();
        }
        let diff = sum
            .add_scaled(inter.conductance_perturbation(0), -1.0)
            .unwrap();
        assert!(diff.frobenius_norm() < 1e-10 * sum.frobenius_norm());
        // Per-region sampling only perturbs entries owned by that region's nodes.
        let g_r0 = intra.sample_conductance(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        let last_node = grid.node_count() - 1;
        assert_eq!(
            g_r0.get(last_node, last_node),
            intra.nominal_conductance().get(last_node, last_node)
        );
        // Zero regions is rejected.
        assert!(StochasticGridModel::intra_die_slices(&grid, &spec, 0).is_err());
    }

    #[test]
    fn wrong_sample_length_is_rejected() {
        let m = small_model();
        assert!(m.sample_conductance(&[0.0]).is_err());
        assert!(m.sample_excitation(0.0, &[0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn excluding_pad_variation_zeroes_the_pad_terms() {
        let grid = GridSpec::small_test(150).build().unwrap();
        let mut spec = VariationSpec::paper_defaults();
        spec.include_pad_variation = false;
        let m = StochasticGridModel::inter_die(&grid, &spec).unwrap();
        // u_G(t) must be identically zero (pads fixed, currents insensitive to ξ_G).
        assert!(m.pad_pert[0].iter().all(|&v| v == 0.0));
        assert_eq!(m.current_sens[0], 0.0);
        // And G_g must not touch the pad diagonal contribution.
        let g_pads_only = grid.conductance_matrix_weighted(|b| {
            if b.kind == BranchKind::PackagePad {
                1.0
            } else {
                0.0
            }
        });
        // For a pad node, the perturbation diagonal must be strictly smaller
        // than σ_G times the full diagonal (since the pad part is excluded).
        let pad_node = grid.pad_nodes()[0];
        let sigma_g = spec.sigma_conductance();
        assert!(
            m.conductance_perturbation(0).get(pad_node, pad_node)
                < sigma_g * m.nominal_conductance().get(pad_node, pad_node)
                    - 0.5 * sigma_g * g_pads_only.get(pad_node, pad_node)
        );
    }

    #[test]
    fn realised_values_are_bit_identical_to_the_allocating_realisation() {
        let grid = GridSpec::small_test(150).with_seed(11).build().unwrap();
        let spec = VariationSpec::paper_defaults();
        let models = [
            StochasticGridModel::inter_die(&grid, &spec).unwrap(),
            StochasticGridModel::inter_die_three_variable(&grid, &spec).unwrap(),
            StochasticGridModel::intra_die_slices(&grid, &spec, 3).unwrap(),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let scale = 1.0 / 0.25e-9;
        for m in &models {
            let patterns = NominalPatterns::new(m).unwrap();
            // One buffer set serves every draw: nothing of the previous
            // sample may survive into the next.
            let mut values = SampleValues::default();
            let r = m.n_vars();
            let draws = [
                vec![0.0; r],
                vec![-0.0; r],
                (0..r).map(|d| 1.3 - 0.9 * d as f64).collect(),
                // Mixed signed zeros among nonzero coordinates.
                (0..r)
                    .map(|d| match d % 3 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => -2.1,
                    })
                    .collect::<Vec<f64>>(),
                (0..r)
                    .map(|d| if d == r - 1 { 0.7 } else { -0.0 })
                    .collect(),
            ];
            for xi in &draws {
                patterns.realise(xi, scale, &mut values).unwrap();
                let g = m.sample_conductance(xi).unwrap();
                let c = m.sample_capacitance(xi).unwrap().scaled(scale);
                let companion = g.add_scaled(&c, 1.0).unwrap();
                assert_eq!(bits(&values.conductance), bits(g.data()), "G({xi:?})");
                assert_eq!(
                    bits(&values.scaled_capacitance),
                    bits(c.data()),
                    "sC({xi:?})"
                );
                assert_eq!(
                    bits(&values.companion),
                    bits(companion.data()),
                    "G + sC({xi:?})"
                );
                assert!(g.same_pattern(patterns.conductance()));
                assert!(c.same_pattern(patterns.capacitance()));
                assert!(companion.same_pattern(patterns.companion()));
            }
            assert!(patterns.realise(&[0.0], scale, &mut values).is_err());
        }
    }
}
