//! Regression pins for the collocation sweep.
//!
//! `opera_collocation::solve_collocation` runs the lock-step sampler at the
//! quadrature nodes and projects every state as soon as it is computed.
//! Each group column performs exactly the arithmetic of a deterministic
//! transient of its node's own matrices, and the projection folds the nodes
//! in index order, so the coefficients must be **bit-identical** to the
//! node-order projection of one-shot `opera::transient::solve_transient`
//! runs (the oracle test below checks this for every scheme). This file also
//! pins FNV-1a hashes of every coefficient's bits for a grid whose node
//! count is not a multiple of the group width (so the last group is
//! partial), under every scheme and with scaled switching currents. The pins
//! hold under every `OPERA_SIMD` backend.

use opera::transient::{solve_transient, TransientOptions};
use opera_collocation::{build_grid, solve_collocation, GridKind, StepScheme, TransientSpec};
use opera_grid::GridSpec;
use opera_pce::sparse_grid::QuadratureGrid;
use opera_pce::OrthogonalBasis;
use opera_sparse::LOCKSTEP_LANES;
use opera_variation::{StochasticGridModel, VariationSpec};

/// FNV-1a over the IEEE-754 bit patterns of `coefficients[k][i][n]`,
/// visited time-major, then basis, then node.
fn fnv1a_bits(coefficients: &[Vec<Vec<f64>>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in coefficients.iter().flatten().flatten() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// The pinned sweep's model, its order-2 basis and its level-2 Smolyak
/// grid.
fn fixture() -> (StochasticGridModel, OrthogonalBasis, QuadratureGrid) {
    let grid = GridSpec::small_test(120).with_seed(17).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let basis = OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2).unwrap();
    let nodes = build_grid(GridKind::Smolyak, &model.families(), 2).unwrap();
    (model, basis, nodes)
}

/// Every collocation coefficient equals, bit for bit, the projection
/// `Σ_q w_q·ψ_i(ξ_q)/‖ψ_i‖² · v_q` in node order of a one-shot
/// `solve_transient` on each node's realised `G(ξ)`, `C(ξ)` and excitation,
/// under every scheme.
#[test]
fn collocation_nodes_project_one_shot_transients() {
    let (model, basis, nodes) = fixture();
    let norms: Vec<f64> = (0..basis.len()).map(|i| basis.norm_squared(i)).collect();
    for scheme in [
        StepScheme::BackwardEuler,
        StepScheme::Trapezoidal,
        StepScheme::TrBdf2,
    ] {
        let mut spec = TransientSpec::new(0.1e-9, 1.0e-9);
        spec.scheme = scheme;
        let run = solve_collocation(&model, &basis, &nodes, &spec).unwrap();

        let options = TransientOptions {
            time_step: spec.time_step,
            end_time: spec.end_time,
            method: scheme,
        };
        let n = model.node_count();
        let mut expected = vec![vec![vec![0.0f64; n]; basis.len()]; run.times.len()];
        for (xi, &w) in nodes.nodes().iter().zip(nodes.weights()) {
            let g = model.sample_conductance(xi).unwrap();
            let c = model.sample_capacitance(xi).unwrap();
            let excitation = |t| model.sample_excitation(t, xi).unwrap();
            let one_shot = solve_transient(&g, &c, excitation, &options).unwrap();
            assert_eq!(one_shot.times, run.times);
            let psi = basis.evaluate_all(xi).unwrap();
            for (k, row) in expected.iter_mut().enumerate() {
                for ((coeff, p), norm) in row.iter_mut().zip(&psi).zip(&norms) {
                    let weight = w * p / norm;
                    for (c, v) in coeff.iter_mut().zip(one_shot.state_at(k)) {
                        *c += weight * v;
                    }
                }
            }
        }
        for (k, (got, want)) in run.coefficients.iter().zip(&expected).enumerate() {
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                for (node, (a, b)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{scheme:?}: coefficient ({k}, {i}, {node}) is {a:e}, \
                         the one-shot projection {b:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn collocation_coefficients_are_bit_identical_to_the_one_node_pins() {
    let (model, basis, nodes) = fixture();
    assert_ne!(
        nodes.len() % LOCKSTEP_LANES,
        0,
        "the pinned sweep must end in a partial group"
    );
    // Hashes recorded from the one-node-at-a-time sweep, which stepped
    // every node alone and projected its full trace afterwards. The
    // trapezoidal pin is the sweep whose trapezoidal right-hand side is the
    // engine's `(s·C·v − G·v) + (u_k + u_{k+1})`, the association the
    // oracle test above holds it to.
    let pins = [
        (StepScheme::BackwardEuler, 1.0, 0x35c0_ef68_11a8_ecaa_u64),
        (StepScheme::Trapezoidal, 1.0, 0xddac_e8d7_8cf7_01ce_u64),
        (StepScheme::TrBdf2, 1.0, 0x2048_77e4_9571_dec6_u64),
        (StepScheme::BackwardEuler, 1.5, 0x4563_9125_780b_0526_u64),
    ];
    let hashes: Vec<u64> = pins
        .iter()
        .map(|&(scheme, current_scale, _)| {
            let mut spec = TransientSpec::new(0.1e-9, 1.0e-9);
            spec.scheme = scheme;
            spec.current_scale = current_scale;
            let run = solve_collocation(&model, &basis, &nodes, &spec).unwrap();
            assert_eq!(run.stats.nodes, nodes.len());
            fnv1a_bits(&run.coefficients)
        })
        .collect();
    for (&(scheme, current_scale, expected), &hash) in pins.iter().zip(&hashes) {
        assert_eq!(
            hash, expected,
            "{scheme:?}, current_scale {current_scale}: collocation coefficient hash changed \
             (got {hashes:#018x?})"
        );
    }
}
