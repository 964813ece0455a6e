//! Property tests of the workspace-reuse transient hot loop.
//!
//! The blocked-panel PR rebuilt `solve_transient` and `CompanionSystem`
//! around caller-provided buffers, double-buffered state and reusable
//! [`SolveWorkspace`]s. These tests pin the contract that made that refactor
//! safe: on random RC grids, the workspace path is **bit-identical** to a
//! fresh-allocation reference (the pre-refactor loop shape, rebuilt here
//! from the allocating `step`/`solve` primitives) for both Backward-Euler
//! and Trapezoidal schemes.

use proptest::prelude::*;

use opera::transient::{
    solve_transient, CompanionSystem, IntegrationMethod, TransientOptions, TransientSolution,
};
use opera_sparse::{CsrMatrix, MatrixFactor, Panel, SolveWorkspace, TripletMatrix};

/// A random RC ladder/mesh: SPD conductance (weighted Laplacian plus leak
/// conductances to ground) and a positive diagonal capacitance.
fn rc_grid(max_n: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (2..max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0.1f64..4.0), 1..3 * n),
                proptest::collection::vec(0.01f64..1.0, n),
                proptest::collection::vec(0.1f64..2.0, n),
            )
        })
        .prop_map(|(n, edges, leaks, caps)| {
            let mut g = TripletMatrix::new(n, n);
            let mut c = TripletMatrix::new(n, n);
            for (i, (&leak, &cap)) in leaks.iter().zip(&caps).enumerate() {
                g.push(i, i, leak);
                c.push(i, i, cap);
            }
            for (a, b, w) in edges {
                if a != b {
                    g.add_symmetric_pair(a, b, w);
                }
            }
            (g.to_csr(), c.to_csr())
        })
}

/// The pre-refactor reference loop: every step allocates a fresh state
/// vector and a fresh workspace.
fn reference_transient(
    g: &CsrMatrix,
    c: &CsrMatrix,
    excitation: impl Fn(f64) -> Vec<f64>,
    options: &TransientOptions,
) -> TransientSolution {
    let times = options.time_points();
    let u0 = excitation(0.0);
    let v0 = MatrixFactor::cholesky_or_lu(g).unwrap().solve(&u0);
    let companion = CompanionSystem::new(g, c, options.time_step, options.method).unwrap();
    let mut voltages = Vec::with_capacity(times.len());
    voltages.push(v0);
    let mut u_prev = u0;
    for k in 1..times.len() {
        let u_next = excitation(times[k]);
        let mut v_next = vec![0.0; g.nrows()];
        companion.step_into(
            &voltages[k - 1],
            &u_prev,
            &u_next,
            &mut v_next,
            &mut SolveWorkspace::new(),
        );
        voltages.push(v_next);
        u_prev = u_next;
    }
    TransientSolution::from_states(times, &voltages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The workspace-reuse transient must match the fresh-allocation
    /// reference bit for bit, under both integration schemes.
    #[test]
    fn workspace_transient_is_bit_identical_to_fresh_allocation_reference(
        (g, c) in rc_grid(24),
        drive in 0.2f64..3.0,
    ) {
        let n = g.nrows();
        let excitation = move |t: f64| -> Vec<f64> {
            (0..n)
                .map(|i| drive * ((i + 1) as f64 * (t * 4.0 + 0.3)).sin())
                .collect()
        };
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::Trapezoidal] {
            let options = TransientOptions {
                time_step: 0.25,
                end_time: 2.0,
                method,
            };
            let fast = solve_transient(&g, &c, excitation, &options).unwrap();
            let reference = reference_transient(&g, &c, excitation, &options);
            prop_assert_eq!(&fast.times, &reference.times);
            for (k, (a, b)) in fast
                .states()
                .columns()
                .zip(reference.states().columns())
                .enumerate()
            {
                prop_assert_eq!(a, b, "state differs at step {} under {:?}", k, method);
            }
        }
    }

    /// Panel stepping with per-column excitations must match column-wise
    /// scalar stepping bit for bit — the contract behind the multi-RHS
    /// special case, the batched engine and the leakage Monte Carlo.
    #[test]
    fn companion_panel_step_matches_scalar_steps(
        (g, c) in rc_grid(16),
        k in 1usize..=5,
    ) {
        let n = g.nrows();
        for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::Trapezoidal] {
            let companion = CompanionSystem::new(&g, &c, 0.5, method).unwrap();
            let column = |j: usize, phase: f64| -> Vec<f64> {
                (0..n).map(|i| ((i + j + 1) as f64 * phase).cos()).collect()
            };
            let states: Vec<Vec<f64>> = (0..k).map(|j| column(j, 0.4)).collect();
            let u_prev: Vec<Vec<f64>> = (0..k).map(|j| column(j, 0.7)).collect();
            let u_next: Vec<Vec<f64>> = (0..k).map(|j| column(j, 1.1)).collect();
            let mut out = Panel::zeros(n, k);
            let mut ws = SolveWorkspace::new();
            companion.step_panel_into(
                &Panel::from_columns(&states),
                &Panel::from_columns(&u_prev),
                &Panel::from_columns(&u_next),
                &mut out,
                &mut ws,
            );
            for j in 0..k {
                let mut scalar = vec![0.0; n];
                companion.step_into(&states[j], &u_prev[j], &u_next[j], &mut scalar, &mut ws);
                prop_assert_eq!(out.col(j), &scalar[..], "column {} under {:?}", j, method);
            }
        }
    }
}
