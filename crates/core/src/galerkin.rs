//! Assembly of the spectral (Galerkin) augmented system.
//!
//! Projecting the truncation error of the expansion onto every basis function
//! (paper Eq. 10/17) turns the stochastic MNA equation into one large
//! deterministic block system:
//!
//! ```text
//! G̃[i][j] = ⟨ψ_i ψ_j⟩ G_a + Σ_d ⟨ξ_d ψ_i ψ_j⟩ G_d        (blocks of size n×n)
//! C̃[i][j] = ⟨ψ_i ψ_j⟩ C_a + Σ_d ⟨ξ_d ψ_i ψ_j⟩ C_d
//! Ũ_i(t)  = ⟨ψ_i⟩      u_a(t) + Σ_d ⟨ξ_d ψ_i⟩      u_d(t)
//! ```
//!
//! For the two-variable order-2 Hermite basis this reproduces exactly the
//! 6×6 block matrices of paper Eqs. (20)–(22); the unit tests check this
//! structure literally.

use std::sync::Arc;

use opera_pce::{GalerkinCoupling, OrthogonalBasis};
use opera_sparse::CsrMatrix;
use opera_variation::{Excitation, StochasticGridModel};

use crate::{OperaError, Result};

/// The assembled Galerkin system for a stochastic grid model and basis.
#[derive(Debug, Clone)]
pub struct GalerkinSystem {
    basis: OrthogonalBasis,
    coupling: GalerkinCoupling,
    node_count: usize,
    /// `G̃` and `C̃` behind `Arc`s, so the CG backend steps on the
    /// system's own matrices instead of private copies.
    g_hat: Arc<CsrMatrix>,
    c_hat: Arc<CsrMatrix>,
}

impl GalerkinSystem {
    /// Assembles the augmented matrices for the given model and basis.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] if the basis variable count does
    /// not match the model, and propagates numerical errors.
    pub fn assemble(model: &StochasticGridModel, basis: &OrthogonalBasis) -> Result<Self> {
        let _span = opera_trace::span("galerkin.assemble");
        if basis.n_vars() != model.n_vars() {
            return Err(OperaError::InvalidOptions {
                reason: format!(
                    "basis has {} variables but the model has {}",
                    basis.n_vars(),
                    model.n_vars()
                ),
            });
        }
        let coupling = GalerkinCoupling::new(basis)?;
        let n = model.node_count();
        let size = basis.len();

        let g_hat = assemble_block_matrix(
            n,
            size,
            &coupling,
            model.nominal_conductance(),
            (0..model.n_vars())
                .map(|d| model.conductance_perturbation(d))
                .collect::<Vec<_>>()
                .as_slice(),
        )?;
        let c_hat = assemble_block_matrix(
            n,
            size,
            &coupling,
            model.nominal_capacitance(),
            (0..model.n_vars())
                .map(|d| model.capacitance_perturbation(d))
                .collect::<Vec<_>>()
                .as_slice(),
        )?;
        Ok(GalerkinSystem {
            basis: basis.clone(),
            coupling,
            node_count: n,
            g_hat: Arc::new(g_hat),
            c_hat: Arc::new(c_hat),
        })
    }

    /// The basis the system was assembled for.
    pub fn basis(&self) -> &OrthogonalBasis {
        &self.basis
    }

    /// The precomputed Galerkin coupling tensors.
    pub fn coupling(&self) -> &GalerkinCoupling {
        &self.coupling
    }

    /// Number of grid nodes `n`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of basis functions `N + 1`.
    pub fn basis_size(&self) -> usize {
        self.basis.len()
    }

    /// Total number of unknowns `(N + 1)·n`.
    pub fn dim(&self) -> usize {
        self.node_count * self.basis.len()
    }

    /// The augmented conductance matrix `G̃`.
    pub fn conductance(&self) -> &CsrMatrix {
        &self.g_hat
    }

    /// The augmented capacitance matrix `C̃`.
    pub fn capacitance(&self) -> &CsrMatrix {
        &self.c_hat
    }

    /// Shared handles on `G̃` and `C̃` for prepared solvers that outlive a
    /// borrow of the system.
    pub(crate) fn shared_matrices(&self) -> (Arc<CsrMatrix>, Arc<CsrMatrix>) {
        (Arc::clone(&self.g_hat), Arc::clone(&self.c_hat))
    }

    /// Assembles the augmented excitation `Ũ(t)` from the model: block `i`
    /// receives `⟨ψ_i⟩ u_a(t) + Σ_d ⟨ξ_d ψ_i⟩ u_d(t)` (the stacked form of an
    /// [`Excitation`] at scale one).
    pub fn excitation(&self, model: &StochasticGridModel, t: f64) -> Vec<f64> {
        let mut u_hat = vec![0.0; self.dim()];
        Excitation::for_model(model, 1.0).stacked_into(t, &self.coupling, &mut u_hat);
        u_hat
    }

    /// Splits a stacked augmented solution vector into per-basis-function
    /// coefficient vectors (each of length `node_count`).
    pub fn split_solution(&self, stacked: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(
            stacked.len(),
            self.dim(),
            "stacked solution has wrong length"
        );
        let n = self.node_count;
        (0..self.basis.len())
            .map(|i| stacked[i * n..(i + 1) * n].to_vec())
            .collect()
    }
}

/// Assembles `Σ_ij block(i, j) ⊗ entries` where
/// `block(i, j) = ⟨ψ_i ψ_j⟩ A_nominal + Σ_d ⟨ξ_d ψ_i ψ_j⟩ A_d`, straight into
/// CSR: block row `i`, node row `r`, then the nonzero blocks `j` in
/// ascending order, each contributing row `r` of its model matrices scaled
/// by their coupling coefficients. No triplets are built and nothing is
/// sorted per row.
///
/// A block with one term (every block of a symmetric family: `⟨ξ_d ψ_i²⟩ =
/// 0` and no two variables couple the same `(i, j)`) copies its matrix row
/// as `coef·a`. A block with several terms merges their rows, summing each
/// entry in term order — the nominal term first, then `d` ascending — and
/// starting from the first product, not from zero.
fn assemble_block_matrix(
    n: usize,
    size: usize,
    coupling: &GalerkinCoupling,
    nominal: &CsrMatrix,
    perturbations: &[&CsrMatrix],
) -> Result<CsrMatrix> {
    // Per block row: the nonzero blocks, `j` ascending, each with its terms
    // in summation order.
    let block_rows: Vec<Vec<(usize, Terms<'_>)>> = (0..size)
        .map(|i| {
            (0..size)
                .filter_map(|j| {
                    // Mass term ⟨ψ_i ψ_j⟩ = δ_ij ⟨ψ_i²⟩.
                    let mass = (i == j).then(|| (coupling.norm_squared(i), nominal));
                    let linear = perturbations.iter().enumerate().filter_map(|(d, &pert)| {
                        let w = coupling.linear(d, i, j);
                        (pert.nnz() != 0 && w != 0.0).then_some((w, pert))
                    });
                    let terms: Vec<_> = mass.into_iter().chain(linear).collect();
                    (!terms.is_empty()).then_some((j, terms))
                })
                .collect()
        })
        .collect();
    // Exact for single-term blocks, an upper bound for merged ones.
    let capacity = block_rows
        .iter()
        .flatten()
        .flat_map(|(_, terms)| terms)
        .map(|(_, a)| a.nnz())
        .sum::<usize>();
    let dim = n * size;
    let mut indptr = Vec::with_capacity(dim + 1);
    let mut indices = Vec::with_capacity(capacity);
    let mut data = Vec::with_capacity(capacity);
    let mut scratch = Vec::new();
    indptr.push(0);
    for blocks in &block_rows {
        for r in 0..n {
            for (j, terms) in blocks {
                let offset = j * n;
                if let [(w, a)] = terms.as_slice() {
                    let (cols, vals) = a.row(r);
                    indices.extend(cols.iter().map(|&c| offset + c));
                    data.extend(vals.iter().map(|&v| w * v));
                } else {
                    merge_row(r, terms, offset, &mut scratch, &mut indices, &mut data);
                }
            }
            indptr.push(indices.len());
        }
    }
    Ok(CsrMatrix::from_raw_parts(dim, dim, indptr, indices, data)?)
}

/// The terms of one block of an augmented matrix: each model matrix with
/// its coupling coefficient, in summation order.
type Terms<'a> = Vec<(f64, &'a CsrMatrix)>;

/// Appends row `r` of `Σ coef·a` over a multi-term block's `terms` (columns
/// shifted by `offset`) to `indices`/`data`. The products are gathered in
/// term order and stably sorted by column, so each entry sums its products
/// in term order, starting from the first.
fn merge_row(
    r: usize,
    terms: &[(f64, &CsrMatrix)],
    offset: usize,
    scratch: &mut Vec<(usize, f64)>,
    indices: &mut Vec<usize>,
    data: &mut Vec<f64>,
) {
    scratch.clear();
    for &(w, a) in terms {
        let (cols, vals) = a.row(r);
        scratch.extend(cols.iter().zip(vals).map(|(&c, &v)| (offset + c, w * v)));
    }
    scratch.sort_by_key(|&(c, _)| c);
    let start = indices.len();
    for &(c, v) in scratch.iter() {
        match data.last_mut() {
            Some(sum) if indices.len() > start && indices.last() == Some(&c) => *sum += v,
            _ => {
                indices.push(c);
                data.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opera_grid::{GridSpec, PowerGrid};
    use opera_pce::PolynomialFamily;
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn model_and_basis() -> (StochasticGridModel, OrthogonalBasis) {
        let grid = GridSpec::small_test(60).with_seed(2).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
        (model, basis)
    }

    #[test]
    fn augmented_dimensions_are_basis_times_nodes() {
        let (model, basis) = model_and_basis();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        assert_eq!(sys.basis_size(), 6);
        assert_eq!(sys.dim(), 6 * model.node_count());
        assert_eq!(sys.conductance().nrows(), sys.dim());
        assert_eq!(sys.capacitance().nrows(), sys.dim());
    }

    #[test]
    fn augmented_conductance_is_symmetric() {
        let (model, basis) = model_and_basis();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        let scale = sys.conductance().frobenius_norm();
        assert!(sys.conductance().is_symmetric(1e-10 * scale));
        let cscale = sys.capacitance().frobenius_norm();
        assert!(sys.capacitance().is_symmetric(1e-10 * cscale));
    }

    /// Checks the literal block pattern of paper Eq. (20): with blocks labeled
    /// by the basis index pair (i, j), the Ga blocks sit on the diagonal
    /// scaled by ⟨ψ_i²⟩ = [1,1,1,2,1,2] and the Gg blocks follow the ξ_G
    /// coupling pattern.
    #[test]
    fn block_structure_matches_paper_equation_20() {
        let (model, basis) = model_and_basis();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        let n = model.node_count();
        let ga = model.nominal_conductance();
        let gg = model.conductance_perturbation(0);
        // Pick a representative off-diagonal entry of Ga/Gg to probe blocks.
        let (probe_r, probe_c, ga_val) = ga
            .iter()
            .find(|&(r, c, _)| r != c)
            .expect("grid has off-diagonal entries");
        let gg_val = gg.get(probe_r, probe_c);
        let g_hat = sys.conductance();
        let norms = [1.0, 1.0, 1.0, 2.0, 1.0, 2.0];
        #[rustfmt::skip]
        let xi_g_coupling: [[f64; 6]; 6] = [
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        #[allow(clippy::needless_range_loop)] // (i, j) index the expected block matrix
        for i in 0..6 {
            for j in 0..6 {
                let expected =
                    if i == j { norms[i] * ga_val } else { 0.0 } + xi_g_coupling[i][j] * gg_val;
                let got = g_hat.get(i * n + probe_r, j * n + probe_c);
                assert!(
                    (got - expected).abs() < 1e-10 * ga_val.abs().max(1.0),
                    "block ({i}, {j}): got {got}, expected {expected}"
                );
            }
        }
    }

    /// The capacitance blocks must follow paper Eq. (21): Ca on the scaled
    /// diagonal and Cc following the ξ_L coupling pattern.
    #[test]
    fn block_structure_matches_paper_equation_21() {
        let (model, basis) = model_and_basis();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        let n = model.node_count();
        let ca = model.nominal_capacitance();
        let cc = model.capacitance_perturbation(1);
        let probe = 0; // capacitance matrices are diagonal
        let ca_val = ca.get(probe, probe);
        let cc_val = cc.get(probe, probe);
        assert!(ca_val > 0.0);
        let norms = [1.0, 1.0, 1.0, 2.0, 1.0, 2.0];
        #[rustfmt::skip]
        let xi_l_coupling: [[f64; 6]; 6] = [
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
        ];
        let c_hat = sys.capacitance();
        #[allow(clippy::needless_range_loop)] // (i, j) index the expected block matrix
        for i in 0..6 {
            for j in 0..6 {
                let expected =
                    if i == j { norms[i] * ca_val } else { 0.0 } + xi_l_coupling[i][j] * cc_val;
                let got = c_hat.get(i * n + probe, j * n + probe);
                assert!(
                    (got - expected).abs() < 1e-12 * ca_val.max(1e-18),
                    "block ({i}, {j}): got {got}, expected {expected}"
                );
            }
        }
    }

    /// The inter-die excitation terms rebuilt from the grid and the spec
    /// alone, one vector each: `u_a(t)`, `u_G` (the pad injection scaled
    /// by `σ_G`, when the pads vary) and `u_L(t) = −s_L·i(t)`.
    fn inter_die_terms(grid: &PowerGrid, spec: &VariationSpec, t: f64) -> [Vec<f64>; 3] {
        let n = grid.node_count();
        let sigma_g = spec.sigma_conductance();
        let u_g = if spec.include_pad_variation {
            grid.pad_injection_weighted(|_| sigma_g)
        } else {
            vec![0.0; n]
        };
        let mut i = vec![0.0; n];
        for source in grid.sources() {
            i[source.node] += source.waveform.value_at(t);
        }
        let sens = spec.drain_current_sensitivity * spec.sigma_channel_length();
        let u_l = i.iter().map(|i_n| 0.0 - sens * i_n).collect();
        [grid.excitation(t), u_g, u_l]
    }

    /// The excitation must follow paper Eq. (22): only the blocks coupled to
    /// ψ₀, ψ₁ (ξ_G) and ψ₂ (ξ_L) are nonzero.
    #[test]
    fn excitation_matches_paper_equation_22() {
        let (model, basis) = model_and_basis();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        let n = model.node_count();
        let t = 0.4e-9;
        let u_hat = sys.excitation(&model, t);
        assert_eq!(u_hat.len(), 6 * n);
        // Block 0 = nominal excitation, block 1 = u_G(t), block 2 = u_L(t).
        let terms = inter_die_terms(model.grid(), &VariationSpec::paper_defaults(), t);
        for (block, term) in terms.iter().enumerate() {
            for (k, v) in term.iter().enumerate() {
                assert!((u_hat[block * n + k] - v).abs() < 1e-15);
            }
        }
        // Higher-order blocks are zero for a first-order input model.
        assert!(u_hat[3 * n..].iter().all(|&v| v == 0.0));
    }

    /// The stacked excitation reproduces its assembly from the per-term
    /// vectors (`u_a`, then `w·u_d` per nonzero coupling in ascending `d`
    /// and `i`) bit for bit, with the pads varying or fixed.
    #[test]
    fn excitation_is_bit_equal_to_assembling_the_per_term_vectors() {
        let grid = GridSpec::small_test(80).with_seed(4).build().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for include_pad_variation in [true, false] {
            let mut spec = VariationSpec::paper_defaults();
            spec.include_pad_variation = include_pad_variation;
            let model = StochasticGridModel::inter_die(&grid, &spec).unwrap();
            let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
            let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
            let n = model.node_count();
            for t in [0.0, 0.13e-9, 0.4e-9, 1.7e-9] {
                let [u_a, perturbations @ ..] = inter_die_terms(&grid, &spec, t);
                let mut expected = vec![0.0; sys.dim()];
                expected[..n].copy_from_slice(&u_a);
                for (d, u_d) in perturbations.iter().enumerate() {
                    if u_d.iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    for i in 0..basis.len() {
                        let w = sys.coupling.linear(d, i, 0);
                        if w != 0.0 {
                            for (e, v) in expected[i * n..(i + 1) * n].iter_mut().zip(u_d) {
                                *e += w * v;
                            }
                        }
                    }
                }
                assert_eq!(bits(&sys.excitation(&model, t)), bits(&expected), "t = {t}");
            }
        }
    }

    #[test]
    fn excitation_without_pad_variation_has_zero_xi_g_block_at_quiescence() {
        // With pads held fixed, u_G(t) vanishes entirely and u_L(t) vanishes
        // whenever no drain current flows (t = 0), so only block 0 of Ũ(0)
        // is nonzero.
        let grid = GridSpec::small_test(60).with_seed(6).build().unwrap();
        let mut spec = VariationSpec::paper_defaults();
        spec.include_pad_variation = false;
        let model = StochasticGridModel::inter_die(&grid, &spec).unwrap();
        let basis = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 2, 2).unwrap();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        let n = model.node_count();
        let u0 = sys.excitation(&model, 0.0);
        assert!(u0[..n].iter().any(|&v| v != 0.0), "pad injection missing");
        assert!(u0[n..].iter().all(|&v| v == 0.0));
        // At a time with switching current the ξ_L block becomes active while
        // the ξ_G block stays zero.
        let u = sys.excitation(&model, 0.4e-9);
        assert!(u[n..2 * n].iter().all(|&v| v == 0.0));
        assert!(u[2 * n..3 * n].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn mismatched_basis_is_rejected() {
        let (model, _) = model_and_basis();
        let wrong = OrthogonalBasis::total_order(PolynomialFamily::Hermite, 3, 2).unwrap();
        assert!(matches!(
            GalerkinSystem::assemble(&model, &wrong),
            Err(OperaError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn split_solution_partitions_the_stacked_vector() {
        let (model, basis) = model_and_basis();
        let sys = GalerkinSystem::assemble(&model, &basis).unwrap();
        let stacked: Vec<f64> = (0..sys.dim()).map(|k| k as f64).collect();
        let parts = sys.split_solution(&stacked);
        assert_eq!(parts.len(), 6);
        assert_eq!(parts[0][0], 0.0);
        assert_eq!(parts[1][0], model.node_count() as f64);
    }
}
