//! Property suite pinning the SIMD equivalence gate: every runtime-dispatched
//! vector kernel must be **bit-identical** to its scalar reference — the
//! pinned ULP budget is zero — on random inputs, for every backend the
//! executing CPU supports.
//!
//! Three layers are exercised:
//!
//! * the element-wise kernels (`axpy`, `axpy4`, `rank4_sub`, `add2_assign`,
//!   `weighted_sum3`, `welford_update`, …) on random lengths, so the
//!   vector body and the remainder (tail) lanes are both hit;
//! * the interleaved triangular kernels on random sparse lower/upper
//!   factors with `1..=8` active right-hand sides and zero-padded tail
//!   lanes — the exact layout `opera_sparse`'s panel bridge packs;
//! * the full `MatrixFactor::solve_panel` path on random SPD grids and
//!   meshes under `opera_simd::set_active`, the end-to-end contract the
//!   engine relies on; the meshes are large enough that the factor's
//!   supernodes are padded;
//! * the width sweep: panels of 1..=9 and 17 columns on padded supernodal
//!   Cholesky factors, LU factors and the public CSC panel functions,
//!   every column against a one-column solve, and the mixed solve (the
//!   Kronecker preconditioner's block mix folded into the pack) against
//!   mixing first, under every backend.

use std::collections::BTreeMap;

use proptest::prelude::*;

use opera_simd::{available_backends, scalar, Backend, LANES};
use opera_sparse::{
    solve_lower_csc, solve_lower_csc_panel, solve_lower_transpose_csc,
    solve_lower_transpose_csc_panel, solve_upper_csc, solve_upper_csc_panel, CscMatrix, CsrMatrix,
    LuFactor, MatrixFactor, Panel, SolveWorkspace, SymbolicCholesky, TripletMatrix,
};

/// Bit view of a float slice: `assert_eq` on values would conflate
/// `-0.0 == 0.0`; the equivalence gate is on representations.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Five equal-length random vectors, as `lanes_data` generates them.
type LanesData = (Vec<f64>, Vec<f64>, Vec<f64>, (Vec<f64>, Vec<f64>));

/// A sparse triangular factor in raw CSC form (`n`, `indptr`, `indices`,
/// `data`) plus an interleaved RHS, as `lower_factor` generates them.
type FactorAndRhs = ((usize, Vec<usize>, Vec<usize>, Vec<f64>), Vec<f64>);

/// Five equal-length random vectors (length 0..max_n, so remainder lanes
/// and the empty case are generated).
fn lanes_data(max_n: usize) -> impl Strategy<Value = LanesData> {
    (0..max_n).prop_flat_map(|n| {
        let v = || proptest::collection::vec(-50.0f64..50.0, n..=n);
        (v(), v(), v(), (v(), v()))
    })
}

/// A random sparse lower-triangular factor in CSC form (diagonal first,
/// then strictly-lower rows ascending — the convention the interleaved
/// kernels require), plus a random interleaved RHS scratch of `n * LANES`.
fn lower_factor(max_n: usize) -> impl Strategy<Value = FactorAndRhs> {
    (1..max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(1.0f64..4.0, n),
                proptest::collection::vec((0..n, 0..n, -0.9f64..0.9), 0..3 * n),
                proptest::collection::vec(-10.0f64..10.0, n * LANES),
            )
        })
        .prop_map(|(n, diag, entries, rhs)| {
            let mut cols: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
            for (a, b, v) in entries {
                let (i, j) = (a.max(b), a.min(b));
                if i != j {
                    cols[j].insert(i, v);
                }
            }
            let mut indptr = vec![0];
            let mut indices = Vec::new();
            let mut data = Vec::new();
            for (j, col) in cols.iter().enumerate() {
                indices.push(j);
                data.push(diag[j]);
                for (&i, &v) in col {
                    indices.push(i);
                    data.push(v);
                }
                indptr.push(indices.len());
            }
            ((n, indptr, indices, data), rhs)
        })
}

/// Transposes a lower CSC factor into upper CSC form (diagonal last).
fn upper_of(
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for j in 0..n {
        for p in indptr[j]..indptr[j + 1] {
            cols[indices[p]].push((j, data[p]));
        }
    }
    let mut up = vec![0];
    let mut ui = Vec::new();
    let mut uv = Vec::new();
    for col in cols {
        for (i, v) in col {
            ui.push(i);
            uv.push(v);
        }
        up.push(ui.len());
    }
    (up, ui, uv)
}

/// A public CSC panel solve, its one-column form and the matrix both take.
type CscCase<'a> = (
    &'static str,
    fn(&CscMatrix, &mut Panel),
    fn(&CscMatrix, &mut [f64]),
    &'a CscMatrix,
);

/// A random SPD conductance matrix (weighted Laplacian plus leaks), the
/// same family the transient property suite solves.
fn spd_grid(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0.1f64..4.0), 1..3 * n),
                proptest::collection::vec(0.05f64..1.0, n),
            )
        })
        .prop_map(|(n, edges, leaks)| {
            let mut g = TripletMatrix::new(n, n);
            for (i, &leak) in leaks.iter().enumerate() {
                g.push(i, i, leak);
            }
            for (a, b, w) in edges {
                if a != b {
                    g.add_symmetric_pair(a, b, w);
                }
            }
            g.to_csr()
        })
}

/// A random-valued SPD mesh conductance matrix: an `nx × ny` grid of
/// random branch conductances with a random leak at every node. Meshes of
/// this size are big enough that the AMD-ordered factor amalgamates its
/// supernodes with padding, so the solves below read columns as suffixes
/// of shared supernode row lists.
fn spd_mesh() -> impl Strategy<Value = CsrMatrix> {
    (8usize..=14, 8usize..=14)
        .prop_flat_map(|(nx, ny)| {
            (
                Just((nx, ny)),
                proptest::collection::vec(0.1f64..4.0, 2 * nx * ny),
                proptest::collection::vec(0.05f64..1.0, nx * ny),
            )
        })
        .prop_map(|((nx, ny), branches, leaks)| {
            let n = nx * ny;
            let mut g = TripletMatrix::new(n, n);
            for (i, &leak) in leaks.iter().enumerate() {
                g.push(i, i, leak);
            }
            for y in 0..ny {
                for x in 0..nx {
                    let i = y * nx + x;
                    if x + 1 < nx {
                        g.add_symmetric_pair(i, i + 1, branches[2 * i]);
                    }
                    if y + 1 < ny {
                        g.add_symmetric_pair(i, i + nx, branches[2 * i + 1]);
                    }
                }
            }
            g.to_csr()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every element-wise kernel matches the scalar reference bit for bit
    /// on every available backend, including the remainder lanes.
    #[test]
    fn elementwise_kernels_are_bit_identical_on_every_backend(
        (x, a, b, (d, y)) in lanes_data(100),
        c in -3.0f64..3.0,
        count in 1.0f64..500.0,
    ) {
        let n = x.len();
        for backend in available_backends() {
            let mut r = y.clone();
            let mut v = y.clone();
            scalar::axpy(&mut r, &x, c);
            opera_simd::axpy(&mut v, &x, c, backend);
            prop_assert_eq!(bits(&r), bits(&v), "axpy {} n={}", backend, n);

            let mut r = y.clone();
            let mut v = y.clone();
            scalar::sub_axpy(&mut r, &x, c);
            opera_simd::sub_axpy(&mut v, &x, c, backend);
            prop_assert_eq!(bits(&r), bits(&v), "sub_axpy {} n={}", backend, n);

            let cs = [c, -c, 0.5 * c, 1.5 * c];
            let (mut r0, mut r1, mut r2, mut r3) =
                (y.clone(), a.clone(), b.clone(), d.clone());
            let (mut v0, mut v1, mut v2, mut v3) =
                (y.clone(), a.clone(), b.clone(), d.clone());
            scalar::axpy4([&mut r0, &mut r1, &mut r2, &mut r3], &x, cs);
            opera_simd::axpy4([&mut v0, &mut v1, &mut v2, &mut v3], &x, cs, backend);
            prop_assert_eq!(bits(&r0), bits(&v0), "axpy4[0] {} n={}", backend, n);
            prop_assert_eq!(bits(&r1), bits(&v1), "axpy4[1] {} n={}", backend, n);
            prop_assert_eq!(bits(&r2), bits(&v2), "axpy4[2] {} n={}", backend, n);
            prop_assert_eq!(bits(&r3), bits(&v3), "axpy4[3] {} n={}", backend, n);

            let mut r = y.clone();
            let mut v = y.clone();
            scalar::rank4_sub(&mut r, [&x, &a, &b, &d], cs);
            opera_simd::rank4_sub(&mut v, [&x, &a, &b, &d], cs, backend);
            prop_assert_eq!(bits(&r), bits(&v), "rank4_sub {} n={}", backend, n);

            let mut r = y.clone();
            let mut v = y.clone();
            scalar::div_assign(&mut r, 1.0 + c.abs());
            opera_simd::div_assign(&mut v, 1.0 + c.abs(), backend);
            prop_assert_eq!(bits(&r), bits(&v), "div_assign {} n={}", backend, n);

            let mut r = y.clone();
            let mut v = y.clone();
            scalar::scale_assign(&mut r, c);
            opera_simd::scale_assign(&mut v, c, backend);
            prop_assert_eq!(bits(&r), bits(&v), "scale_assign {} n={}", backend, n);

            let mut r = y.clone();
            let mut v = y.clone();
            scalar::add_assign(&mut r, &x);
            opera_simd::add_assign(&mut v, &x, backend);
            prop_assert_eq!(bits(&r), bits(&v), "add_assign {} n={}", backend, n);

            let mut r = y.clone();
            let mut v = y.clone();
            scalar::add2_assign(&mut r, &a, &b);
            opera_simd::add2_assign(&mut v, &a, &b, backend);
            prop_assert_eq!(bits(&r), bits(&v), "add2_assign {} n={}", backend, n);

            let ws = [c, 1.0 - c, 0.25 * c];
            let mut r = vec![0.0; n];
            let mut v = vec![1.0; n];
            scalar::weighted_sum3(&mut r, [&a, &b, &d], ws);
            opera_simd::weighted_sum3(&mut v, [&a, &b, &d], ws, backend);
            prop_assert_eq!(bits(&r), bits(&v), "weighted_sum3 {} n={}", backend, n);

            let (mut mean_r, mut m2_r) = (a.clone(), b.clone());
            let (mut mean_v, mut m2_v) = (a.clone(), b.clone());
            scalar::welford_update(&mut mean_r, &mut m2_r, &x, count);
            opera_simd::welford_update(&mut mean_v, &mut m2_v, &x, count, backend);
            prop_assert_eq!(bits(&mean_r), bits(&mean_v), "welford mean {} n={}", backend, n);
            prop_assert_eq!(bits(&m2_r), bits(&m2_v), "welford m2 {} n={}", backend, n);
        }
    }

    /// The interleaved triangular kernels match scalar bit for bit on random
    /// sparse factors with `1..=8` active right-hand sides (tail lanes
    /// zero-padded, exactly as the panel bridge packs them).
    #[test]
    fn interleaved_triangular_kernels_are_bit_identical_on_every_backend(
        ((n, indptr, indices, data), rhs) in lower_factor(28),
        k in 1usize..=LANES,
    ) {
        let (up, ui, uv) = upper_of(&indptr, &indices, &data, n);
        // Zero the lanes beyond the k active right-hand sides.
        let mut scratch = rhs;
        for j in 0..n {
            for lane in k..LANES {
                scratch[j * LANES + lane] = 0.0;
            }
        }
        for backend in available_backends() {
            let mut r = scratch.clone();
            let mut v = scratch.clone();
            // CSC storage: every column's rows start where its values do.
            scalar::lower_solve_interleaved(&indptr, &indptr, &indices, &data, n, &mut r);
            opera_simd::lower_solve_interleaved(
                &indptr, &indptr, &indices, &data, n, &mut v, backend,
            );
            prop_assert_eq!(bits(&r), bits(&v), "lower {} n={} k={}", backend, n, k);

            let mut r = scratch.clone();
            let mut v = scratch.clone();
            scalar::lower_transpose_solve_interleaved(&indptr, &indptr, &indices, &data, n, &mut r);
            opera_simd::lower_transpose_solve_interleaved(
                &indptr, &indptr, &indices, &data, n, &mut v, backend,
            );
            prop_assert_eq!(bits(&r), bits(&v), "lower-transpose {} n={} k={}", backend, n, k);

            let mut r = scratch.clone();
            let mut v = scratch.clone();
            scalar::upper_solve_interleaved(&up, &ui, &uv, n, &mut r);
            opera_simd::upper_solve_interleaved(&up, &ui, &uv, n, &mut v, backend);
            prop_assert_eq!(bits(&r), bits(&v), "upper {} n={} k={}", backend, n, k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End to end: a full sparse `solve_panel` on a random SPD factor is
    /// bit-identical under every backend the CPU offers, for panels of
    /// `1..=8` right-hand sides — the contract that makes `OPERA_SIMD` a
    /// pure performance knob. Irregular grids cover small and odd factor
    /// patterns; meshes give padded, multi-column supernodes, so the
    /// interleaved kernels read every column's rows from its supernode's
    /// list.
    #[test]
    fn factor_panel_solve_is_bit_identical_under_every_backend(
        (g, is_mesh) in prop_oneof![
            spd_grid(40).prop_map(|g| (g, false)),
            spd_mesh().prop_map(|g| (g, true)),
        ],
        k in 1usize..=LANES,
        drive in 0.2f64..3.0,
    ) {
        let n = g.nrows();
        if is_mesh {
            let symbolic = SymbolicCholesky::analyze(&g).unwrap();
            prop_assert!(symbolic.supernodes().max_width() > 1, "n={}", n);
            prop_assert!(symbolic.padded_nnz() > 0, "n={}", n);
        }
        let factor = MatrixFactor::cholesky_or_lu(&g).unwrap();
        let columns: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..n)
                    .map(|i| drive * ((i * k + j + 1) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let mut ws = SolveWorkspace::new();

        opera_simd::set_active(Backend::Scalar).unwrap();
        let mut reference = Panel::from_columns(&columns);
        factor.solve_panel(&mut reference, &mut ws);

        for backend in available_backends() {
            opera_simd::set_active(backend).unwrap();
            let mut panel = Panel::from_columns(&columns);
            factor.solve_panel(&mut panel, &mut ws);
            opera_simd::set_active(Backend::Scalar).unwrap();
            prop_assert_eq!(
                bits(reference.data()),
                bits(panel.data()),
                "solve_panel {} n={} k={}",
                backend, n, k
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every panel width — strips of 1..=8 columns, a full strip and one
    /// more column (9), two full strips and one more (17) — solves each
    /// column bit-identically to a one-column solve of it, under every
    /// backend: on padded supernodal Cholesky factors, on LU factors of the
    /// same matrix, and through the public CSC panel functions with the
    /// Cholesky factor's `L` and `Lᵀ`. The mixed solve, which folds a
    /// block mix into the pack, matches mixing into the panel first and
    /// solving it.
    #[test]
    fn panel_solves_of_every_width_match_one_column_solves_under_every_backend(
        g in spd_mesh(),
        drive in 0.2f64..3.0,
    ) {
        let n = g.nrows();
        let symbolic = SymbolicCholesky::analyze(&g).unwrap();
        prop_assert!(symbolic.padded_nnz() > 0, "n={}", n);
        let factors = [
            MatrixFactor::Cholesky(symbolic.factor_numeric(&g).unwrap()),
            MatrixFactor::Lu(LuFactor::factor(&g).unwrap()),
        ];
        let l = match &factors[0] {
            MatrixFactor::Cholesky(f) => f.lower(),
            MatrixFactor::Lu(_) => unreachable!(),
        };
        // CSR of `L` is CSC of `Lᵀ`, diagonal last in each column.
        let lt = l.to_csr();
        let u = CscMatrix::from_raw_parts(
            n,
            n,
            lt.indptr().to_vec(),
            lt.indices().to_vec(),
            lt.data().to_vec(),
        )
        .unwrap();
        let csc: [CscCase<'_>; 3] = [
            ("L", solve_lower_csc_panel, solve_lower_csc, &l),
            ("Lᵀ", solve_lower_transpose_csc_panel, solve_lower_transpose_csc, &l),
            ("U", solve_upper_csc_panel, solve_upper_csc, &u),
        ];
        let mut ws = SolveWorkspace::new();
        for k in (1..=9).chain([17]) {
            let columns: Vec<Vec<f64>> = (0..k)
                .map(|j| {
                    (0..n)
                        .map(|i| drive * ((i * k + 3 * j + 1) as f64 * 0.41).sin())
                        .collect()
                })
                .collect();
            // Column `j` of the mixed panel weighs block `i` by
            // `mix[i·k + j]`; every third weight is a zero.
            let mix: Vec<f64> = (0..k * k)
                .map(|q| if q % 3 == 1 { 0.0 } else { ((q + 1) as f64 * 0.73).cos() })
                .collect();
            let flat = columns.concat();
            let mut mixed = vec![0.0; n * k];
            for (j, z_j) in mixed.chunks_exact_mut(n).enumerate() {
                for (i, r_i) in columns.iter().enumerate() {
                    let weight = mix[i * k + j];
                    if weight != 0.0 {
                        scalar::axpy(z_j, r_i, weight);
                    }
                }
            }
            for backend in available_backends() {
                for factor in &factors {
                    opera_simd::set_active(backend).unwrap();
                    let mut panel = Panel::from_columns(&columns);
                    factor.solve_panel(&mut panel, &mut ws);
                    let mut z = vec![f64::NAN; n * k];
                    factor.solve_mixed_into(&flat, &mix, &mut z, &mut ws);
                    let mut expected_mixed = mixed.clone();
                    factor.solve_columns(&mut expected_mixed, &mut ws);
                    opera_simd::set_active(Backend::Scalar).unwrap();
                    let name = if factor.is_cholesky() { "Cholesky" } else { "LU" };
                    for (j, column) in columns.iter().enumerate() {
                        let mut x = column.clone();
                        factor.solve_in_place(&mut x, &mut ws);
                        prop_assert_eq!(
                            bits(panel.col(j)), bits(&x),
                            "{} {} k={} column {}", name, backend, k, j
                        );
                    }
                    prop_assert_eq!(
                        bits(&z), bits(&expected_mixed), "{} mixed {} k={}", name, backend, k
                    );
                }
                for &(name, panel_solve, column_solve, m) in &csc {
                    opera_simd::set_active(backend).unwrap();
                    let mut panel = Panel::from_columns(&columns);
                    panel_solve(m, &mut panel);
                    opera_simd::set_active(Backend::Scalar).unwrap();
                    for (j, column) in columns.iter().enumerate() {
                        let mut x = column.clone();
                        column_solve(m, &mut x);
                        prop_assert_eq!(
                            bits(panel.col(j)), bits(&x),
                            "CSC {} {} k={} column {}", name, backend, k, j
                        );
                    }
                }
            }
        }
    }
}
