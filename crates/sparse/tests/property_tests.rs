//! Property-based tests of the sparse linear algebra kernels.

use proptest::prelude::*;

use opera_sparse::{
    cg, solve_lower_csc, solve_lower_transpose_csc, solve_upper_csc, CholeskyFactor, CsrMatrix,
    LuFactor, MatrixFactor, OrderingChoice, Panel, Permutation, SolveWorkspace, SymbolicCholesky,
    TripletMatrix,
};

/// Strategy: a random symmetric positive definite matrix built as a weighted
/// graph Laplacian plus a positive diagonal shift (exactly the structure of a
/// power-grid conductance matrix).
fn spd_matrix(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0.1f64..5.0), 1..4 * n),
                proptest::collection::vec(0.05f64..2.0, n),
            )
        })
        .prop_map(|(n, edges, shifts)| {
            let mut t = TripletMatrix::new(n, n);
            for (i, &s) in shifts.iter().enumerate() {
                t.push(i, i, s);
            }
            for (a, b, w) in edges {
                if a != b {
                    t.add_symmetric_pair(a, b, w);
                }
            }
            t.to_csr()
        })
}

/// Strategy: an arbitrary dense-ish vector of a given length.
fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

/// `A·x = b` for `P·A·Pᵀ = L·Lᵀ` through the public scalar kernels.
fn scalar_cholesky_solve(f: &CholeskyFactor, b: &[f64]) -> Vec<f64> {
    let l = f.lower();
    let mut y = f.permutation().apply(b);
    solve_lower_csc(&l, &mut y);
    solve_lower_transpose_csc(&l, &mut y);
    f.permutation().apply_inverse(&y)
}

/// `A·x = b` for `P·A = L·U` through the public scalar kernels.
fn scalar_lu_solve(f: &LuFactor, b: &[f64]) -> Vec<f64> {
    let mut y = f.row_permutation().apply(b);
    solve_lower_csc(f.lower(), &mut y);
    solve_upper_csc(f.upper(), &mut y);
    y
}

/// Exact lower-triangular pattern of the Cholesky factor of `P·A·Pᵀ` by a
/// dense boolean elimination (no symbolic shortcut): `fill[j][i]` for
/// `i >= j` says whether `L(i, j)` is structurally nonzero.
fn exact_fill(a: &CsrMatrix, p: &Permutation) -> Vec<Vec<bool>> {
    let ap = a.to_csc().permute_symmetric(p).unwrap();
    let n = ap.ncols();
    let mut fill = vec![vec![false; n]; n];
    for (j, col) in fill.iter_mut().enumerate() {
        col[j] = true;
        for &i in ap.col(j).0 {
            col[i] = true;
        }
    }
    // Eliminating column k connects every pair of its rows below k.
    for k in 0..n {
        let below: Vec<usize> = (k + 1..n).filter(|&i| fill[k][i]).collect();
        for (x, &j) in below.iter().enumerate() {
            for &i in &below[x..] {
                fill[j][i] = true;
            }
        }
    }
    fill
}

/// Diagonal (Jacobi) preconditioning from a matrix's diagonal.
struct Jacobi(Vec<f64>);

impl cg::Preconditioner for Jacobi {
    fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
        for ((z, r), d) in z.iter_mut().zip(r).zip(&self.0) {
            *z = r / d;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_solves_spd_systems(a in spd_matrix(40)) {
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.matvec(&x_true);
        let chol = CholeskyFactor::factor(&a).expect("SPD by construction");
        let x = chol.solve(&b);
        let err = x.iter().zip(&x_true).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-6, "max error {err}");
    }

    #[test]
    fn cholesky_orderings_agree(a in spd_matrix(30)) {
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.3).sin()).collect();
        let x_nat = CholeskyFactor::factor_with(&a, OrderingChoice::Natural).unwrap().solve(&b);
        let x_rcm = CholeskyFactor::factor_with(&a, OrderingChoice::ReverseCuthillMckee)
            .unwrap()
            .solve(&b);
        let x_md = CholeskyFactor::factor_with(&a, OrderingChoice::MinimumDegree)
            .unwrap()
            .solve(&b);
        let x_amd = CholeskyFactor::factor_with(&a, OrderingChoice::ApproximateMinimumDegree)
            .unwrap()
            .solve(&b);
        for i in 0..b.len() {
            prop_assert!((x_nat[i] - x_rcm[i]).abs() < 1e-7);
            prop_assert!((x_nat[i] - x_md[i]).abs() < 1e-7);
            prop_assert!((x_nat[i] - x_amd[i]).abs() < 1e-7);
        }
    }

    /// AMD must emit a valid permutation on any symmetric pattern (the
    /// `Permutation` constructor validates bijectivity, so length equality
    /// plus a solved system is the full contract), and the AMD-ordered
    /// factorisation must solve the same systems the RCM-ordered one does.
    #[test]
    fn amd_permutes_validly_and_matches_rcm_solves(a in spd_matrix(40)) {
        let n = a.nrows();
        let p = opera_sparse::ordering::approximate_minimum_degree(&a.to_csc());
        prop_assert_eq!(p.len(), n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let b = a.matvec(&x_true);
        let x_amd = CholeskyFactor::factor_with(&a, OrderingChoice::ApproximateMinimumDegree)
            .unwrap()
            .solve(&b);
        let x_rcm = CholeskyFactor::factor_with(&a, OrderingChoice::ReverseCuthillMckee)
            .unwrap()
            .solve(&b);
        for i in 0..n {
            prop_assert!((x_amd[i] - x_rcm[i]).abs() < 1e-6,
                "AMD and RCM solves disagree at {i}: {} vs {}", x_amd[i], x_rcm[i]);
        }
        prop_assert!(a.residual_inf_norm(&x_amd, &b) < 1e-8);
    }

    /// Every CSC matrix the kernels produce must satisfy the structural
    /// invariants the solvers index by — the same validator the
    /// `strict-invariants` feature wires into the checked constructors.
    #[test]
    fn produced_csc_matrices_satisfy_structural_invariants(a in spd_matrix(35)) {
        let csc = a.to_csc();
        prop_assert!(csc.validate().is_ok());
        let p = opera_sparse::ordering::approximate_minimum_degree(&csc);
        prop_assert!(csc.permute_symmetric(&p).unwrap().validate().is_ok());
        let chol = CholeskyFactor::factor(&a).expect("SPD by construction");
        prop_assert!(chol.lower().validate().is_ok());
    }

    /// The supernodal numeric phase must reproduce `P·A·Pᵀ = L·Lᵀ` exactly
    /// (up to roundoff) — multi-column panels, descendant updates and the
    /// dense diagonal-block Cholesky all feed this single identity.
    #[test]
    fn supernodal_factor_reconstructs_matrix_under_amd(a in spd_matrix(35)) {
        let chol = CholeskyFactor::factor_with(&a, OrderingChoice::ApproximateMinimumDegree)
            .unwrap();
        let l = chol.lower().to_csr().to_dense();
        let llt = l.matmul(&l.transpose());
        let ap = a
            .to_csc()
            .permute_symmetric(chol.permutation())
            .unwrap()
            .to_csr()
            .to_dense();
        prop_assert!(llt.max_abs_diff(&ap) < 1e-8);
    }

    /// The pattern stored once per supernode is the exact fill of `P·A·Pᵀ`
    /// plus the amalgamation padding and nothing else, under every
    /// ordering: every exact nonzero appears in `lower()`, `nnz_l −
    /// padded_nnz` counts exactly the exact nonzeros, and every column of a
    /// supernode reads a suffix of that supernode's one row list. A symbolic
    /// phase that drops a child supernode's rows fails the containment.
    #[test]
    fn supernode_row_lists_hold_the_exact_fill_under_every_ordering(a in spd_matrix(30)) {
        for ordering in [
            OrderingChoice::Natural,
            OrderingChoice::ReverseCuthillMckee,
            OrderingChoice::MinimumDegree,
            OrderingChoice::ApproximateMinimumDegree,
        ] {
            let symbolic = SymbolicCholesky::analyze_with(&a, ordering).unwrap();
            let l = symbolic.factor_numeric(&a).expect("SPD by construction").lower();
            let fill = exact_fill(&a, symbolic.permutation());
            let mut exact = 0usize;
            for (j, col) in fill.iter().enumerate() {
                let rows = l.col(j).0;
                for i in (j..col.len()).filter(|&i| col[i]) {
                    exact += 1;
                    prop_assert!(
                        rows.binary_search(&i).is_ok(),
                        "{ordering:?}: exact nonzero L({i}, {j}) missing from the pattern"
                    );
                }
            }
            prop_assert_eq!(symbolic.nnz_l() - symbolic.padded_nnz(), exact, "{:?}", ordering);
            let snodes = symbolic.supernodes();
            for s in 0..snodes.count() {
                let list = symbolic.supernode_rows(s);
                for (t, j) in snodes.columns(s).enumerate() {
                    prop_assert_eq!(l.col(j).0, &list[t..], "{:?} supernode {}", ordering, s);
                }
            }
        }
    }

    /// Panel solves must be *bit-identical* to per-column scalar solves on
    /// random SPD patterns with 1..=17 right-hand-side columns — the blocked
    /// kernels only amortise factor traffic, they must not change a single
    /// rounding. The range covers every strip width (1..=8), the
    /// strip+tail cases, and panels spanning two full strips plus a tail
    /// (so `for_each_strip`'s second-and-later iterations are exercised).
    #[test]
    fn panel_solves_are_bit_identical_to_scalar_solves(
        a in spd_matrix(40),
        k in 1usize..=17,
        seed in 0u64..1000,
    ) {
        let n = a.nrows();
        let columns: Vec<Vec<f64>> = (0..k)
            .map(|c| {
                (0..n)
                    .map(|i| (((seed + 1) * (c as u64 + 1)) as f64 * (i as f64 + 0.5) * 0.37).sin())
                    .collect()
            })
            .collect();
        // Expected values come from the public scalar kernels applied to the
        // factors' own triangles and permutations — an independent reference
        // for the panel kernels that `solve`/`solve_in_place` now share.
        let chol = CholeskyFactor::factor(&a).expect("SPD by construction");
        let lu = LuFactor::factor(&a).expect("SPD matrices are non-singular");
        let factor = MatrixFactor::cholesky_or_lu(&a).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut panel = Panel::from_columns(&columns);
        chol.solve_panel(&mut panel, &mut ws);
        for (j, b) in columns.iter().enumerate() {
            prop_assert_eq!(panel.col(j), &scalar_cholesky_solve(&chol, b)[..], "cholesky panel col {}", j);
            prop_assert_eq!(&chol.solve(b), &scalar_cholesky_solve(&chol, b), "cholesky solve col {}", j);
        }
        // Same contract for the LU and unified-factor panel paths.
        let mut panel = Panel::from_columns(&columns);
        lu.solve_panel(&mut panel, &mut ws);
        for (j, b) in columns.iter().enumerate() {
            prop_assert_eq!(panel.col(j), &scalar_lu_solve(&lu, b)[..], "lu panel col {}", j);
            prop_assert_eq!(&lu.solve(b), &scalar_lu_solve(&lu, b), "lu solve col {}", j);
        }
        let mut panel = Panel::from_columns(&columns);
        factor.solve_panel(&mut panel, &mut ws);
        for (j, b) in columns.iter().enumerate() {
            let expected = match &factor {
                MatrixFactor::Cholesky(f) => scalar_cholesky_solve(f, b),
                MatrixFactor::Lu(f) => scalar_lu_solve(f, b),
            };
            prop_assert_eq!(panel.col(j), &expected[..], "factor panel col {}", j);
        }
    }

    /// The in-place workspace solves must also be bit-identical to the
    /// allocating path, with zero allocations once the workspace is warm.
    #[test]
    fn workspace_solves_are_bit_identical_and_allocation_free(a in spd_matrix(30)) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.77).cos()).collect();
        let factor = MatrixFactor::cholesky_or_lu(&a).unwrap();
        let expected = factor.solve(&b);
        let mut ws = SolveWorkspace::new();
        let mut x = b.clone();
        factor.solve_in_place(&mut x, &mut ws);
        prop_assert_eq!(&x, &expected);
        let warm = ws.allocation_count();
        for _ in 0..3 {
            x.copy_from_slice(&b);
            factor.solve_in_place(&mut x, &mut ws);
            prop_assert_eq!(&x, &expected);
        }
        prop_assert_eq!(ws.allocation_count(), warm);
    }

    #[test]
    fn lu_and_cholesky_agree_on_spd_matrices(a in spd_matrix(25)) {
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let x_lu = LuFactor::factor(&a).unwrap().solve(&b);
        let x_ch = CholeskyFactor::factor(&a).unwrap().solve(&b);
        for (u, v) in x_lu.iter().zip(&x_ch) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn conjugate_gradient_matches_direct_solve(a in spd_matrix(25)) {
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let direct = CholeskyFactor::factor(&a).unwrap().solve(&b);
        let jacobi = Jacobi(a.diagonal());
        let sol = cg::solve(&a, &b, &jacobi, cg::CgOptions {
            max_iterations: 10_000,
            tolerance: 1e-12,
        }).unwrap();
        for (u, v) in sol.x.iter().zip(&direct) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn factor_numeric_accepts_pattern_preserving_updates_and_matches_fresh_factorization(
        a in spd_matrix(30),
        scales in proptest::collection::vec(0.2f64..4.0, 8),
    ) {
        // Perturb every stored value (pattern untouched) by per-entry scales
        // drawn from the strategy; a numeric-only factorisation against the
        // analysis of `a` must succeed and agree bit for bit with a
        // from-scratch factorisation of the same matrix.
        let mut perturbed = a.clone();
        {
            let data = perturbed.data_mut();
            for (k, v) in data.iter_mut().enumerate() {
                *v *= scales[k % scales.len()];
            }
        }
        // Restore symmetry, then make the result strictly diagonally dominant
        // (hence SPD) without touching the sparsity pattern.
        let sym = perturbed
            .add_scaled(&perturbed.transpose(), 1.0)
            .unwrap()
            .scaled(0.5);
        let boost: Vec<f64> = (0..sym.nrows())
            .map(|i| {
                let (_, vals) = sym.row(i);
                vals.iter().map(|v| v.abs()).sum::<f64>() + 1.0
            })
            .collect();
        let spd = sym
            .add_scaled(&CsrMatrix::from_diagonal(&boost), 1.0)
            .unwrap();

        let symbolic = SymbolicCholesky::analyze(&a).expect("symmetric by construction");
        let chol = symbolic
            .factor_numeric(&spd)
            .expect("pattern-preserving numeric factorisation must succeed");
        let fresh = CholeskyFactor::factor(&spd).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let x_re = chol.solve(&b);
        prop_assert!(spd.residual_inf_norm(&x_re, &b) < 1e-8);
        prop_assert_eq!(x_re, fresh.solve(&b), "shared-analysis and fresh factorisation disagree");
    }

    #[test]
    fn factor_numeric_rejects_values_at_new_nonzero_positions(
        a in spd_matrix(25),
        i in 0usize..25,
        j in 0usize..25,
    ) {
        let n = a.nrows();
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j);
        // Only interesting when (i, j) is NOT already in the pattern.
        prop_assume!(a.get(i, j) == 0.0);
        let mut extra = TripletMatrix::new(n, n);
        extra.add_symmetric_pair(i, j, 0.125);
        let widened = a.add_scaled(&extra.to_csr(), 1.0).unwrap();
        let symbolic = SymbolicCholesky::analyze(&a).unwrap();
        prop_assert!(
            symbolic.factor_numeric(&widened).is_err(),
            "a new nonzero at ({i}, {j}) must be rejected"
        );
    }

    #[test]
    fn csr_csc_round_trip_preserves_entries(
        entries in proptest::collection::vec((0usize..15, 0usize..15, -5.0f64..5.0), 0..60)
    ) {
        let mut t = TripletMatrix::new(15, 15);
        for &(i, j, v) in &entries {
            t.push(i, j, v);
        }
        let csr = t.to_csr();
        let round = csr.to_csc().to_csr();
        prop_assert_eq!(&csr, &round);
        // The transpose of the transpose is the original.
        prop_assert_eq!(&csr, &csr.transpose().transpose());
    }

    #[test]
    fn matvec_is_linear(
        a in spd_matrix(20),
        alpha in -3.0f64..3.0,
    ) {
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| xi + alpha * yi).collect();
        let lhs = a.matvec(&combo);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..n {
            prop_assert!((lhs[i] - (ax[i] + alpha * ay[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn permutation_apply_and_inverse_are_inverse_bijections(perm in proptest::collection::vec(0usize..1000, 1..50)) {
        // Turn an arbitrary vector into a permutation by ranking.
        let n = perm.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (perm[i], i));
        let p = Permutation::from_vec(order).unwrap();
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let there = p.apply(&x);
        let back = p.apply_inverse(&there);
        prop_assert_eq!(back, x);
        // Composition with the inverse is the identity.
        let identity = p.compose(&p.inverse());
        for i in 0..n {
            prop_assert_eq!(identity.get(i), i);
        }
    }

    #[test]
    fn add_scaled_matches_dense_addition(
        a_entries in proptest::collection::vec((0usize..10, 0usize..10, -3.0f64..3.0), 0..40),
        b_entries in proptest::collection::vec((0usize..10, 0usize..10, -3.0f64..3.0), 0..40),
        alpha in -2.0f64..2.0,
    ) {
        let build = |entries: &[(usize, usize, f64)]| {
            let mut t = TripletMatrix::new(10, 10);
            for &(i, j, v) in entries {
                t.push(i, j, v);
            }
            t.to_csr()
        };
        let a = build(&a_entries);
        let b = build(&b_entries);
        let c = a.add_scaled(&b, alpha).unwrap();
        let (da, db, dc) = (a.to_dense(), b.to_dense(), c.to_dense());
        for i in 0..10 {
            for j in 0..10 {
                prop_assert!((dc[(i, j)] - (da[(i, j)] + alpha * db[(i, j)])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn triangular_solve_vector_round_trip(v in vector(12), shift in 0.5f64..3.0) {
        // Build an SPD matrix, factor it, and verify L (L^T x) reproduces it.
        let n = v.len();
        let mut t = TripletMatrix::new(n, n);
        for (i, vi) in v.iter().enumerate() {
            t.push(i, i, shift + vi.abs());
            if i + 1 < n {
                t.add_symmetric_pair(i, i + 1, 0.3);
            }
        }
        let a = t.to_csr();
        let chol = CholeskyFactor::factor_with(&a, OrderingChoice::Natural).unwrap();
        let l = chol.lower().to_csr().to_dense();
        let llt = l.matmul(&l.transpose());
        prop_assert!(llt.max_abs_diff(&a.to_dense()) < 1e-8);
    }
}
