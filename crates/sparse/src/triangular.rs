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
//! The panel kernels sweep each factor column across *all* panel columns in
//! one pass, register-blocked over strips of eight right-hand sides: the
//! factor's index/value arrays — the dominant memory traffic of a sparse
//! triangular solve — are streamed once per strip instead of once per RHS.
//! Within each panel column the floating-point operations are performed in
//! exactly the scalar order, so panel results are bit-identical to solving
//! the columns one at a time (property-tested in
//! `tests/property_tests.rs`).
//!
//! When a vector backend is active (`OPERA_SIMD` or the engine knob — see
//! `opera_simd::active`), the panel kernels route each strip through the
//! interleaved AVX2/AVX-512 path in [`crate::simd`] instead of the scalar
//! strip macros below. The vector path is bit-identical to the scalar one
//! (no FMA contraction, lanes along the independent RHS axis), which the
//! tests here and `tests/property_simd.rs` pin for every available backend.

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

// ---------------------------------------------------------------------------
// Blocked multi-RHS panel kernels.
//
// Each macro expands one strip kernel for 1..=STRIP simultaneous right-hand
// sides: the outer loop walks the factor columns, the inner loop streams the
// column's off-diagonal entries once and applies them to every RHS in the
// strip. The per-RHS operation order matches the scalar kernels exactly, so
// each panel column is bit-identical to a scalar solve of that column.
// ---------------------------------------------------------------------------

/// Width of the register-blocked RHS strips. Eight simultaneous right-hand
/// sides stream the factor once for the common order-2 Galerkin panel
/// (`P = 6`) and keep the per-column accumulators comfortably in registers.
const STRIP: usize = 8;

/// Splits a column-major panel buffer into strips of at most [`STRIP`]
/// columns and hands each strip to `kernel`.
fn for_each_strip(panel: &mut [f64], n: usize, mut kernel: impl FnMut(&mut [&mut [f64]])) {
    if n == 0 {
        return;
    }
    debug_assert_eq!(panel.len() % n, 0, "panel length must be a multiple of n");
    let mut rest = panel;
    while !rest.is_empty() {
        let w = (rest.len() / n).min(STRIP);
        let (strip, tail) = rest.split_at_mut(w * n);
        rest = tail;
        let mut cols: [&mut [f64]; STRIP] = Default::default();
        let mut strip = strip;
        for slot in cols.iter_mut().take(w) {
            let (head, tail) = strip.split_at_mut(n);
            *slot = head;
            strip = tail;
        }
        kernel(&mut cols[..w]);
    }
}

macro_rules! lower_strip_kernel {
    (
        $n:ident, $indptr:ident, $rowptr:ident, $indices:ident, $data:ident,
        [$($x:ident / $b:ident),+]
    ) => {{
        for j in 0..$n {
            let (start, end, r0) = ($indptr[j], $indptr[j + 1], $rowptr[j]);
            assert!(
                start < end && $indices[r0] == j,
                "missing diagonal entry in lower triangular column {j}"
            );
            let d = $data[start];
            $(let $x = $b[j] / d;
            $b[j] = $x;)+
            let rows = &$indices[r0 + 1..r0 + end - start];
            let vals = &$data[start + 1..end];
            for (&i, &v) in rows.iter().zip(vals) {
                $($b[i] -= v * $x;)+
            }
        }
    }};
}

macro_rules! lower_transpose_strip_kernel {
    (
        $n:ident, $indptr:ident, $rowptr:ident, $indices:ident, $data:ident,
        [$($acc:ident / $b:ident),+]
    ) => {{
        for j in (0..$n).rev() {
            let (start, end, r0) = ($indptr[j], $indptr[j + 1], $rowptr[j]);
            assert!(
                start < end && $indices[r0] == j,
                "missing diagonal entry in lower triangular column {j}"
            );
            $(let mut $acc = $b[j];)+
            let rows = &$indices[r0 + 1..r0 + end - start];
            let vals = &$data[start + 1..end];
            for (&i, &v) in rows.iter().zip(vals) {
                $($acc -= v * $b[i];)+
            }
            let d = $data[start];
            $($b[j] = $acc / d;)+
        }
    }};
}

macro_rules! upper_strip_kernel {
    ($n:ident, $indptr:ident, $indices:ident, $data:ident, [$($x:ident / $b:ident),+]) => {{
        for j in (0..$n).rev() {
            let start = $indptr[j];
            let end = $indptr[j + 1];
            assert!(
                start < end && $indices[end - 1] == j,
                "missing diagonal entry in upper triangular column {j}"
            );
            let d = $data[end - 1];
            $(let $x = $b[j] / d;
            $b[j] = $x;)+
            let rows = &$indices[start..end - 1];
            let vals = &$data[start..end - 1];
            for (&i, &v) in rows.iter().zip(vals) {
                $($b[i] -= v * $x;)+
            }
        }
    }};
}

/// Dispatches a strip of 1..=STRIP columns to the width-specialised
/// expansion of one of the kernel macros above; `($args)` are the factor
/// arguments the kernel takes ahead of the strip.
macro_rules! dispatch_strip {
    ($cols:ident, $kernel:ident, ($($arg:ident),+)) => {
        match $cols {
            [b0] => $kernel!($($arg),+, [x0 / b0]),
            [b0, b1] => $kernel!($($arg),+, [x0 / b0, x1 / b1]),
            [b0, b1, b2] => $kernel!($($arg),+, [x0 / b0, x1 / b1, x2 / b2]),
            [b0, b1, b2, b3] => $kernel!($($arg),+, [x0 / b0, x1 / b1, x2 / b2, x3 / b3]),
            [b0, b1, b2, b3, b4] => {
                $kernel!($($arg),+, [x0 / b0, x1 / b1, x2 / b2, x3 / b3, x4 / b4])
            }
            [b0, b1, b2, b3, b4, b5] => $kernel!(
                $($arg),+,
                [x0 / b0, x1 / b1, x2 / b2, x3 / b3, x4 / b4, x5 / b5]
            ),
            [b0, b1, b2, b3, b4, b5, b6] => $kernel!(
                $($arg),+,
                [x0 / b0, x1 / b1, x2 / b2, x3 / b3, x4 / b4, x5 / b5, x6 / b6]
            ),
            [b0, b1, b2, b3, b4, b5, b6, b7] => $kernel!(
                $($arg),+,
                [x0 / b0, x1 / b1, x2 / b2, x3 / b3, x4 / b4, x5 / b5, x6 / b6, x7 / b7]
            ),
            // lint: allow(L001, for_each_strip caps strips at STRIP columns, so wider widths cannot occur)
            _ => unreachable!("strips are at most {STRIP} columns wide"),
        }
    };
}

/// Blocked forward substitution `L·X = B`, in place for every column of the
/// column-major `panel`. Column `j` of `L` holds the values
/// `data[indptr[j]..indptr[j + 1]]` at the rows `indices[rowptr[j]..]`,
/// diagonal first: a CSC matrix passes its `indptr` as `rowptr`
/// ([`solve_lower_csc_panel`], the `L` of [`crate::LuFactor`]), the
/// supernodal [`crate::CholeskyFactor`] passes each column's start in its
/// supernode's row list.
pub(crate) fn lower_panel_raw(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    panel: &mut [f64],
) {
    let vector = crate::simd::solve_panel_interleaved(n, panel, |x, backend| {
        opera_simd::lower_solve_interleaved(indptr, rowptr, indices, data, n, x, backend)
    });
    if !vector {
        for_each_strip(panel, n, |cols| {
            dispatch_strip!(cols, lower_strip_kernel, (n, indptr, rowptr, indices, data))
        });
    }
}

/// Blocked backward substitution with the *transpose* of a lower factor
/// (same layout as [`lower_panel_raw`]): solves `Lᵀ·X = B` in place.
pub(crate) fn lower_transpose_panel_raw(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    panel: &mut [f64],
) {
    let vector = crate::simd::solve_panel_interleaved(n, panel, |x, backend| {
        opera_simd::lower_transpose_solve_interleaved(indptr, rowptr, indices, data, n, x, backend)
    });
    if !vector {
        for_each_strip(panel, n, |cols| {
            dispatch_strip!(
                cols,
                lower_transpose_strip_kernel,
                (n, indptr, rowptr, indices, data)
            )
        });
    }
}

/// Blocked backward substitution on raw upper-triangular CSC arrays
/// (diagonal stored last in each column): solves `U·X = B` in place.
pub(crate) fn upper_panel_raw(
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    panel: &mut [f64],
) {
    let vector = crate::simd::solve_panel_interleaved(n, panel, |x, backend| {
        opera_simd::upper_solve_interleaved(indptr, indices, data, n, x, backend)
    });
    if !vector {
        for_each_strip(panel, n, |cols| {
            dispatch_strip!(cols, upper_strip_kernel, (n, indptr, indices, data))
        });
    }
}

/// Asserts the square shape shared by all panel entry points.
fn check_panel_dims(m: &CscMatrix, b: &Panel) {
    let n = m.ncols();
    assert_eq!(m.nrows(), n, "triangular solve requires a square matrix");
    assert_eq!(b.nrows(), n, "panel row count mismatch");
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
    check_panel_dims(l, b);
    let indptr = l.indptr();
    lower_panel_raw(
        indptr,
        indptr,
        l.indices(),
        l.data(),
        l.ncols(),
        b.data_mut(),
    );
}

/// Solves `Lᵀ·X = B` in place for every column of `b` (lower triangular `L`
/// in CSC format, diagonal first). Bit-identical per column to
/// [`solve_lower_transpose_csc`].
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing.
pub fn solve_lower_transpose_csc_panel(l: &CscMatrix, b: &mut Panel) {
    check_panel_dims(l, b);
    let indptr = l.indptr();
    lower_transpose_panel_raw(
        indptr,
        indptr,
        l.indices(),
        l.data(),
        l.ncols(),
        b.data_mut(),
    );
}

/// Solves `U·X = B` in place for every column of `b`, where `U` is upper
/// triangular in CSC format with the diagonal stored last in each column.
/// Bit-identical per column to [`solve_upper_csc`].
///
/// # Panics
///
/// Panics if dimensions do not match or a diagonal entry is missing.
pub fn solve_upper_csc_panel(u: &CscMatrix, b: &mut Panel) {
    check_panel_dims(u, b);
    upper_panel_raw(u.indptr(), u.indices(), u.data(), u.ncols(), b.data_mut());
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
