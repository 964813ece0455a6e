//! The direct block-CSR assembly of `G̃` and `C̃` against the triplet
//! assembly it replaced, kept here as the oracle: bit-identical CSR
//! (`indptr`, `indices` and every value's bits) for Hermite, Legendre and
//! mixed symmetric bases at orders 1–3, and the documented summation order
//! where a block entry has several terms (an asymmetric family).

use std::collections::BTreeMap;

use opera::galerkin::GalerkinSystem;
use opera_grid::GridSpec;
use opera_pce::{GalerkinCoupling, OrthogonalBasis, PolynomialFamily};
use opera_sparse::{CsrMatrix, TripletMatrix};
use opera_variation::{StochasticGridModel, VariationSpec};

/// The triplet assembly `GalerkinSystem::assemble` used before it wrote CSR
/// directly: push every block's scaled entries, then compress (sort each
/// row by column and sum duplicates).
fn triplet_oracle(
    n: usize,
    coupling: &GalerkinCoupling,
    nominal: &CsrMatrix,
    perturbations: &[&CsrMatrix],
) -> CsrMatrix {
    let size = coupling.len();
    let mut t = TripletMatrix::new(n * size, n * size);
    for i in 0..size {
        for j in 0..size {
            if i == j {
                let w = coupling.norm_squared(i);
                for (r, c, v) in nominal.iter() {
                    t.push(i * n + r, j * n + c, w * v);
                }
            }
            for (d, pert) in perturbations.iter().enumerate() {
                if pert.nnz() == 0 {
                    continue;
                }
                let w = coupling.linear(d, i, j);
                if w == 0.0 {
                    continue;
                }
                for (r, c, v) in pert.iter() {
                    t.push(i * n + r, j * n + c, w * v);
                }
            }
        }
    }
    t.to_csr()
}

/// `(indptr, indices, value bits)` of a CSR matrix.
fn csr_bits(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (
        a.indptr().to_vec(),
        a.indices().to_vec(),
        a.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// The model's nominal matrix and perturbations for `G` or `C`.
fn matrices(model: &StochasticGridModel, conductance: bool) -> (&CsrMatrix, Vec<&CsrMatrix>) {
    let perturbation = |d| {
        if conductance {
            model.conductance_perturbation(d)
        } else {
            model.capacitance_perturbation(d)
        }
    };
    let nominal = if conductance {
        model.nominal_conductance()
    } else {
        model.nominal_capacitance()
    };
    (nominal, (0..model.n_vars()).map(perturbation).collect())
}

fn models() -> Vec<(&'static str, StochasticGridModel)> {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let spec = VariationSpec::paper_defaults();
    vec![
        (
            "inter-die",
            StochasticGridModel::inter_die(&grid, &spec).unwrap(),
        ),
        (
            "inter-die, three variables",
            StochasticGridModel::inter_die_three_variable(&grid, &spec).unwrap(),
        ),
        (
            "intra-die, three regions",
            StochasticGridModel::intra_die_slices(&grid, &spec, 3).unwrap(),
        ),
    ]
}

#[test]
fn direct_assembly_is_bit_identical_to_the_triplet_oracle_for_symmetric_bases() {
    use PolynomialFamily::{Hermite, Legendre};
    for (label, model) in models() {
        let vars = model.n_vars();
        // Hermite, Legendre, and the two alternating over the variables.
        let family_sets = [
            vec![Hermite; vars],
            vec![Legendre; vars],
            (0..vars)
                .map(|d| if d % 2 == 0 { Hermite } else { Legendre })
                .collect(),
        ];
        for families in family_sets {
            for order in 1..=3 {
                let basis =
                    OrthogonalBasis::total_order_mixed(families.clone(), vars, order).unwrap();
                let system = GalerkinSystem::assemble(&model, &basis).unwrap();
                let coupling = GalerkinCoupling::new(&basis).unwrap();
                for (name, conductance, assembled) in [
                    ("G̃", true, system.conductance()),
                    ("C̃", false, system.capacitance()),
                ] {
                    let (nominal, perturbations) = matrices(&model, conductance);
                    let oracle =
                        triplet_oracle(model.node_count(), &coupling, nominal, &perturbations);
                    assert!(
                        csr_bits(assembled) == csr_bits(&oracle),
                        "{label}, {families:?}, order {order}: {name} differs from the oracle"
                    );
                }
            }
        }
    }
}

/// An asymmetric family (Laguerre: `⟨ξ ψ_i²⟩ ≠ 0`) puts the nominal and
/// every perturbation into each diagonal block, so block entries have up
/// to four terms with partly overlapping patterns (three regional `G_d`).
/// Each entry must be the sum in term order — nominal first, then `d`
/// ascending — starting from the first product.
#[test]
fn multi_term_block_entries_sum_in_the_documented_order() {
    let grid = GridSpec::small_test(90).with_seed(5).build().unwrap();
    let model =
        StochasticGridModel::intra_die_slices(&grid, &VariationSpec::paper_defaults(), 3).unwrap();
    let basis =
        OrthogonalBasis::total_order(PolynomialFamily::Laguerre, model.n_vars(), 2).unwrap();
    let system = GalerkinSystem::assemble(&model, &basis).unwrap();
    let coupling = GalerkinCoupling::new(&basis).unwrap();
    let n = model.node_count();
    let mut most_terms = 0;
    for (conductance, assembled) in [(true, system.conductance()), (false, system.capacitance())] {
        let (nominal, perturbations) = matrices(&model, conductance);
        // Every product of an entry, in push order.
        let mut terms: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for i in 0..coupling.len() {
            for j in 0..coupling.len() {
                let weighted = (i == j)
                    .then(|| (coupling.norm_squared(i), nominal))
                    .into_iter()
                    .chain(
                        perturbations
                            .iter()
                            .enumerate()
                            .map(|(d, &p)| (coupling.linear(d, i, j), p))
                            .filter(|&(w, p)| w != 0.0 && p.nnz() != 0),
                    );
                for (w, a) in weighted {
                    for (r, c, v) in a.iter() {
                        terms.entry((i * n + r, j * n + c)).or_default().push(w * v);
                    }
                }
            }
        }
        let mut expected = TripletMatrix::new(n * coupling.len(), n * coupling.len());
        for (&(r, c), products) in &terms {
            most_terms = most_terms.max(products.len());
            let sum = products[1..].iter().fold(products[0], |acc, p| acc + p);
            expected.push(r, c, sum);
        }
        assert!(
            csr_bits(assembled) == csr_bits(&expected.to_csr()),
            "{}: merged entries are not summed in term order",
            if conductance { "G̃" } else { "C̃" }
        );
    }
    assert!(most_terms >= 3, "no entry had three or more terms");
}
