//! Regression pins for the collocation sweep.
//!
//! `opera_collocation::solve_collocation` steps its quadrature nodes in
//! lock-step groups and projects every state as soon as it is computed.
//! Each group column performs exactly the arithmetic of a node stepped on
//! its own, and the projection folds the nodes in index order, so the
//! coefficients must be **bit-identical** to those of a sweep that steps
//! one node at a time. This file pins FNV-1a hashes of every coefficient's
//! bits, taken from such a sweep, for a grid whose node count is not a
//! multiple of the group width (so the last group is partial), under every
//! scheme and with scaled switching currents. The pins hold under every `OPERA_SIMD`
//! backend.

use opera_collocation::{build_grid, solve_collocation, GridKind, StepScheme, TransientSpec};
use opera_grid::GridSpec;
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

#[test]
fn collocation_coefficients_are_bit_identical_to_the_one_node_pins() {
    let grid = GridSpec::small_test(120).with_seed(17).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let basis = OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), 2).unwrap();
    let nodes = build_grid(GridKind::Smolyak, &model.families(), 2).unwrap();
    assert_ne!(
        nodes.len() % LOCKSTEP_LANES,
        0,
        "the pinned sweep must end in a partial group"
    );
    // Hashes recorded from the one-node-at-a-time sweep, which stepped
    // every node alone and projected its full trace afterwards.
    let pins = [
        (StepScheme::BackwardEuler, 1.0, 0x35c0_ef68_11a8_ecaa_u64),
        (StepScheme::Trapezoidal, 1.0, 0x1deb_9b49_c41a_eeed_u64),
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
