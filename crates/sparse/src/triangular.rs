//! Sparse triangular solves with dense right-hand sides.
//!
//! Two families of kernels live here:
//!
//! * scalar solves ([`solve_lower_csc`], [`solve_lower_transpose_csc`],
//!   [`solve_upper_csc`]) operating on one right-hand side, and
//! * blocked multi-RHS **panel** solves ([`solve_lower_csc_panel`],
//!   [`solve_lower_transpose_csc_panel`], [`solve_upper_csc_panel`])
//!   operating on a column-major [`Panel`] of `k` right-hand sides.
//!
//! The panel solves run through the strip path of [`crate::simd`], like
//! every factor's panel solve: strips of up to eight columns are packed
//! row-major and each factor entry — the dominant memory traffic of a
//! sparse triangular solve — is streamed once per strip instead of once
//! per right-hand side. Within each panel column the floating-point
//! operations are performed in exactly the scalar order, so panel results
//! are bit-identical to solving the columns one at a time under every
//! `opera_simd` backend (property-tested here, in `tests/property_tests.rs`
//! and in `tests/property_simd.rs`).

use crate::simd::{solve_panel, Columns, Sweep, Triangle};
use crate::{CscMatrix, Panel};

// Every kernel below runs on the per-step transient path; the region-wide
// static no-allocation guarantee complements the runtime SolveWorkspace
// allocation counter.
// lint: hot(triangular-kernels)

/// Solves `L·x = b` in place, where `L` is lower triangular in CSC format
/// with the diagonal entry stored as the *first* entry of each column
/// (the layout produced by [`crate::CholeskyFactor`] and [`crate::LuFactor`]).
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing/zero.
pub fn solve_lower_csc(l: &CscMatrix, b: &mut [f64]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n, "triangular solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    for j in 0..n {
        let (rows, vals) = l.col(j);
        assert!(
            !rows.is_empty() && rows[0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let xj = b[j] / vals[0];
        b[j] = xj;
        for (&i, &v) in rows.iter().zip(vals).skip(1) {
            b[i] -= v * xj;
        }
    }
}

/// Solves `Lᵀ·x = b` in place for a lower triangular `L` stored in CSC with
/// the diagonal first in each column.
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing/zero.
pub fn solve_lower_transpose_csc(l: &CscMatrix, b: &mut [f64]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n, "triangular solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    for j in (0..n).rev() {
        let (rows, vals) = l.col(j);
        assert!(
            !rows.is_empty() && rows[0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let mut acc = b[j];
        for (&i, &v) in rows.iter().zip(vals).skip(1) {
            acc -= v * b[i];
        }
        b[j] = acc / vals[0];
    }
}

/// Solves `U·x = b` in place, where `U` is upper triangular in CSC format
/// with the diagonal entry stored as the *last* entry of each column.
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing/zero.
pub fn solve_upper_csc(u: &CscMatrix, b: &mut [f64]) {
    let n = u.ncols();
    assert_eq!(u.nrows(), n, "triangular solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    for j in (0..n).rev() {
        let (rows, vals) = u.col(j);
        let last = rows.len() - 1;
        assert!(
            !rows.is_empty() && rows[last] == j,
            "missing diagonal entry in upper triangular column {j}"
        );
        let xj = b[j] / vals[last];
        b[j] = xj;
        for (&i, &v) in rows.iter().zip(vals).take(last) {
            b[i] -= v * xj;
        }
    }
}

/// Asserts the square shape shared by all panel entry points.
fn check_panel_dims(m: &CscMatrix, b: &Panel) {
    let n = m.ncols();
    assert_eq!(m.nrows(), n, "triangular solve requires a square matrix");
    assert_eq!(b.nrows(), n, "panel row count mismatch");
}

/// Solves `b`'s columns in place through one `sweep` of `m`.
fn solve_csc_panel(m: &CscMatrix, b: &mut Panel, sweep: Sweep<'_>) {
    check_panel_dims(m, b);
    solve_panel(
        m.ncols(),
        Columns::InPlace(b.data_mut()),
        None,
        &[sweep],
        None,
        None,
    );
}

/// Solves `L·X = B` in place for every column of `b`, where `L` is lower
/// triangular in CSC format with the diagonal stored first in each column.
/// Each panel column is bit-identical to [`solve_lower_csc`] on that column;
/// the blocked sweep only amortises the factor traffic across columns.
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing.
pub fn solve_lower_csc_panel(l: &CscMatrix, b: &mut Panel) {
    solve_csc_panel(l, b, Sweep::Lower(Triangle::csc(l)));
}

/// Solves `Lᵀ·X = B` in place for every column of `b` (lower triangular `L`
/// in CSC format, diagonal first). Bit-identical per column to
/// [`solve_lower_transpose_csc`].
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing.
pub fn solve_lower_transpose_csc_panel(l: &CscMatrix, b: &mut Panel) {
    solve_csc_panel(l, b, Sweep::LowerTranspose(Triangle::csc(l)));
}

/// Solves `U·X = B` in place for every column of `b`, where `U` is upper
/// triangular in CSC format with the diagonal stored last in each column.
/// Bit-identical per column to [`solve_upper_csc`].
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing.
pub fn solve_upper_csc_panel(u: &CscMatrix, b: &mut Panel) {
    solve_csc_panel(u, b, Sweep::Upper(Triangle::csc(u)));
}

// lint: end-hot

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn lower_example() -> CscMatrix {
        // L = [ 2 0 0 ]
        //     [ 1 3 0 ]
        //     [ 4 5 6 ]
        let mut t = TripletMatrix::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 2.0),
            (1, 0, 1.0),
            (2, 0, 4.0),
            (1, 1, 3.0),
            (2, 1, 5.0),
            (2, 2, 6.0),
        ] {
            t.push(i, j, v);
        }
        t.to_csc()
    }

    #[test]
    fn lower_solve_matches_dense() {
        let l = lower_example();
        let x_true = [1.0, -1.0, 0.5];
        let mut b = l.matvec(&x_true);
        solve_lower_csc(&l, &mut b);
        for (a, e) in b.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    #[test]
    fn lower_transpose_solve_matches_dense() {
        let l = lower_example();
        let lt = l.to_csr(); // CSR of L is CSC-like of Lᵀ but we just need matvec
        let x_true = [2.0, 0.0, -3.0];
        // b = Lᵀ x  computed via  (xᵀ L)ᵀ
        let mut b = vec![0.0; 3];
        for (j, out) in b.iter_mut().enumerate() {
            let (rows, vals) = l.col(j);
            *out = rows.iter().zip(vals).map(|(&i, &v)| v * x_true[i]).sum();
        }
        let _ = lt;
        solve_lower_transpose_csc(&l, &mut b);
        for (a, e) in b.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    #[test]
    fn upper_solve_matches_dense() {
        // U = Lᵀ of the example above.
        let l = lower_example();
        // Build U explicitly.
        let mut t = TripletMatrix::new(3, 3);
        for j in 0..3 {
            let (rows, vals) = l.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                t.push(j, i, v); // transpose
            }
        }
        let u = t.to_csc();
        let x_true = [1.0, 2.0, 3.0];
        let mut b = u.matvec(&x_true);
        solve_upper_csc(&u, &mut b);
        for (a, e) in b.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    /// The panel kernels must agree bit-for-bit with per-column scalar
    /// solves, for every strip width (1..=8) and the strip+tail cases,
    /// including panels wider than two full strips.
    #[test]
    fn panel_solves_are_bit_identical_to_scalar_solves() {
        let l = lower_example();
        // Upper = Lᵀ built explicitly.
        let mut t = TripletMatrix::new(3, 3);
        for j in 0..3 {
            let (rows, vals) = l.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                t.push(j, i, v);
            }
        }
        let u = t.to_csc();
        for k in (1..=9).chain([17]) {
            let columns: Vec<Vec<f64>> = (0..k)
                .map(|c| (0..3).map(|i| ((i + 2 * c) as f64 * 0.7).sin()).collect())
                .collect();
            // Forward.
            let mut panel = Panel::from_columns(&columns);
            solve_lower_csc_panel(&l, &mut panel);
            for (c, col) in columns.iter().enumerate() {
                let mut b = col.clone();
                solve_lower_csc(&l, &mut b);
                assert_eq!(panel.col(c), &b[..], "forward col {c} of {k}");
            }
            // Transpose-backward.
            let mut panel = Panel::from_columns(&columns);
            solve_lower_transpose_csc_panel(&l, &mut panel);
            for (c, col) in columns.iter().enumerate() {
                let mut b = col.clone();
                solve_lower_transpose_csc(&l, &mut b);
                assert_eq!(panel.col(c), &b[..], "transpose col {c} of {k}");
            }
            // Upper-backward.
            let mut panel = Panel::from_columns(&columns);
            solve_upper_csc_panel(&u, &mut panel);
            for (c, col) in columns.iter().enumerate() {
                let mut b = col.clone();
                solve_upper_csc(&u, &mut b);
                assert_eq!(panel.col(c), &b[..], "upper col {c} of {k}");
            }
        }
    }

    /// Every available vector backend must reproduce the scalar strip
    /// kernels bit-for-bit through the interleaved bridge, including the
    /// padded (k % 8 != 0) and multi-strip widths.
    #[test]
    fn panel_solves_are_bit_identical_under_every_backend() {
        let l = lower_example();
        let mut t = TripletMatrix::new(3, 3);
        for j in 0..3 {
            let (rows, vals) = l.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                t.push(j, i, v);
            }
        }
        let u = t.to_csc();
        for backend in opera_simd::available_backends() {
            for k in [1usize, 3, 7, 8, 9, 17] {
                let columns: Vec<Vec<f64>> = (0..k)
                    .map(|c| (0..3).map(|i| ((i + 3 * c) as f64 * 0.9).cos()).collect())
                    .collect();
                let mut expected_fwd = Panel::from_columns(&columns);
                let mut expected_bwd = Panel::from_columns(&columns);
                let mut expected_up = Panel::from_columns(&columns);
                opera_simd::set_active(opera_simd::Backend::Scalar).unwrap();
                solve_lower_csc_panel(&l, &mut expected_fwd);
                solve_lower_transpose_csc_panel(&l, &mut expected_bwd);
                solve_upper_csc_panel(&u, &mut expected_up);

                let mut fwd = Panel::from_columns(&columns);
                let mut bwd = Panel::from_columns(&columns);
                let mut up = Panel::from_columns(&columns);
                opera_simd::set_active(backend).unwrap();
                solve_lower_csc_panel(&l, &mut fwd);
                solve_lower_transpose_csc_panel(&l, &mut bwd);
                solve_upper_csc_panel(&u, &mut up);
                opera_simd::set_active(opera_simd::Backend::Scalar).unwrap();

                assert_eq!(fwd, expected_fwd, "lower backend {backend} k={k}");
                assert_eq!(bwd, expected_bwd, "transpose backend {backend} k={k}");
                assert_eq!(up, expected_up, "upper backend {backend} k={k}");
            }
        }
    }

    #[test]
    fn empty_panel_is_a_noop() {
        let l = lower_example();
        let mut empty = Panel::zeros(3, 0);
        solve_lower_csc_panel(&l, &mut empty);
        solve_lower_transpose_csc_panel(&l, &mut empty);
        assert_eq!(empty.ncols(), 0);
    }

    #[test]
    #[should_panic]
    fn panel_missing_diagonal_is_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        let l = t.to_csc();
        let mut b = Panel::zeros(2, 2);
        solve_lower_csc_panel(&l, &mut b);
    }

    #[test]
    #[should_panic]
    fn missing_diagonal_is_detected() {
        // Strictly lower triangular column 0 has no diagonal.
        let mut t = TripletMatrix::new(2, 2);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        let l = t.to_csc();
        let mut b = vec![1.0, 1.0];
        solve_lower_csc(&l, &mut b);
    }
}
