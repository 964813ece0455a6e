//! Sparse LU factorisation with partial pivoting (left-looking,
//! Gilbert–Peierls style).
//!
//! This is the general-purpose fallback solver used when a matrix is not
//! symmetric positive definite (for instance when ideal voltage sources are
//! stamped with MNA branch currents instead of pad resistances, or if the
//! Galerkin-augmented matrix loses definiteness for extreme variation
//! magnitudes).

use crate::simd::{solve_panel, Columns, Sweep, Triangle};
use crate::{CscMatrix, CsrMatrix, Panel, Permutation, Result, SolveWorkspace, SparseError};

/// A sparse LU factorisation `P·A = L·U` with partial (row) pivoting.
///
/// `L` is unit-diagonal lower triangular and `U` is upper triangular, both in
/// CSC format. The row permutation `P` is chosen during factorisation.
///
/// # Example
///
/// ```
/// use opera_sparse::{CsrMatrix, LuFactor};
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// let a = CsrMatrix::from_dense(2, 2, &[0.0, 2.0, 3.0, 1.0], 0.0);
/// let lu = LuFactor::factor(&a)?;
/// let x = lu.solve(&[4.0, 5.0]);
/// assert!((2.0 * x[1] - 4.0).abs() < 1e-12);
/// assert!((3.0 * x[0] + x[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    n: usize,
    /// Row permutation: `row_perm.get(i)` is the original row placed at
    /// pivotal position `i`.
    row_perm: Permutation,
    l: CscMatrix,
    u: CscMatrix,
}

impl LuFactor {
    /// Factors a square matrix given in CSR format.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input and
    /// [`SparseError::Singular`] when no acceptable pivot exists in a column.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                shape: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let a_csc = a.to_csc();

        // pinv[original_row] = pivotal position, usize::MAX while unassigned.
        let mut pinv = vec![usize::MAX; n];
        let mut perm = vec![usize::MAX; n];

        // L and U are built column by column.
        let mut l_indptr = vec![0usize];
        let mut l_indices: Vec<usize> = Vec::new();
        let mut l_data: Vec<f64> = Vec::new();
        let mut u_indptr = vec![0usize];
        let mut u_indices: Vec<usize> = Vec::new();
        let mut u_data: Vec<f64> = Vec::new();

        // Dense workspace for the current column and visit marks for the DFS.
        let mut x = vec![0.0f64; n];
        let mut mark = vec![false; n];

        // The column index k drives several parallel arrays at once, so the
        // indexed loop is the clearest form here.
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            // --- Symbolic: reachability of column k of A through the columns
            // of L that already have an assigned pivot row.
            let (a_rows, a_vals) = a_csc.col(k);
            let mut pattern: Vec<usize> = Vec::new(); // topological order (reverse DFS finish)
            let mut stack: Vec<(usize, usize)> = Vec::new();
            for &i in a_rows {
                if mark[i] {
                    continue;
                }
                // Depth-first search following L columns of pivotal rows.
                stack.push((i, 0));
                mark[i] = true;
                while let Some((node, child_idx)) = stack.pop() {
                    // Row `node` corresponds to L column pinv[node] if pivotal.
                    let col = pinv[node];
                    let (l_rows_node, _) = if col != usize::MAX {
                        let lo = l_indptr[col];
                        let hi = l_indptr[col + 1];
                        (&l_indices[lo..hi], &l_data[lo..hi])
                    } else {
                        (&l_indices[0..0], &l_data[0..0])
                    };
                    let mut advanced = false;
                    let mut ci = child_idx;
                    while ci < l_rows_node.len() {
                        let child = l_rows_node[ci];
                        ci += 1;
                        if !mark[child] {
                            mark[child] = true;
                            stack.push((node, ci));
                            stack.push((child, 0));
                            advanced = true;
                            break;
                        }
                    }
                    if !advanced {
                        pattern.push(node);
                    }
                }
            }

            // --- Numeric: sparse triangular solve x = L \ A(:, k) on the
            // reach, processing nodes in topological order (pattern is in
            // DFS-finish order: dependencies first ⇒ iterate in reverse).
            for (&i, &v) in a_rows.iter().zip(a_vals) {
                x[i] = v;
            }
            for idx in (0..pattern.len()).rev() {
                let row = pattern[idx];
                let col = pinv[row];
                if col == usize::MAX {
                    continue;
                }
                let xj = x[row];
                if xj == 0.0 {
                    continue;
                }
                let lo = l_indptr[col];
                let hi = l_indptr[col + 1];
                // The first entry of each L column is the unit diagonal
                // (the pivot row itself); skip it.
                for p in (lo + 1)..hi {
                    x[l_indices[p]] -= l_data[p] * xj;
                }
            }

            // --- Pivot: largest magnitude among non-pivotal rows in pattern
            // plus the original column entries (all are in `pattern` already).
            let mut pivot_row = usize::MAX;
            let mut pivot_val = 0.0f64;
            for &row in &pattern {
                if pinv[row] == usize::MAX && x[row].abs() > pivot_val.abs() {
                    pivot_val = x[row];
                    pivot_row = row;
                }
            }
            if pivot_row == usize::MAX || pivot_val.abs() < 1e-300 {
                return Err(SparseError::Singular { column: k });
            }
            pinv[pivot_row] = k;
            perm[k] = pivot_row;

            // --- Store U(:, k): entries with pivotal rows (position < k) plus
            // the diagonal; store L(:, k): non-pivotal rows scaled by pivot.
            let mut u_col: Vec<(usize, f64)> = Vec::new();
            let mut l_col: Vec<(usize, f64)> = Vec::new();
            for &row in &pattern {
                let v = x[row];
                x[row] = 0.0;
                mark[row] = false;
                let pos = pinv[row];
                if row == pivot_row {
                    continue; // handled below
                }
                if pos != usize::MAX && pos < k {
                    if v != 0.0 {
                        u_col.push((pos, v));
                    }
                } else if v != 0.0 {
                    l_col.push((row, v / pivot_val));
                }
            }
            u_col.push((k, pivot_val));
            u_col.sort_unstable_by_key(|e| e.0);
            // L column: unit diagonal first (stored in original row indices;
            // solves remap through the permutation).
            for (r, v) in u_col {
                u_indices.push(r);
                u_data.push(v);
            }
            u_indptr.push(u_indices.len());

            l_indices.push(pivot_row);
            l_data.push(1.0);
            for (r, v) in l_col {
                l_indices.push(r);
                l_data.push(v);
            }
            l_indptr.push(l_indices.len());
        }

        let row_perm =
            // lint: allow(L001, partial pivoting selects each row exactly once, so perm is a bijection)
            Permutation::from_vec(perm).expect("partial pivoting assigns each row exactly once");

        // Remap L's row indices from original rows to pivotal positions so
        // that L becomes a proper lower triangular matrix, then sort columns.
        let mut l_trip = crate::TripletMatrix::new(n, n);
        for j in 0..n {
            for p in l_indptr[j]..l_indptr[j + 1] {
                let orig_row = l_indices[p];
                l_trip.push(pinv[orig_row], j, l_data[p]);
            }
        }
        let l = l_trip.to_csc();
        let u = CscMatrix::from_raw_parts(n, n, u_indptr, u_indices, u_data)?;

        Ok(LuFactor { n, row_perm, l, u })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in `L` plus `U`.
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// The unit-lower-triangular factor `L` (in pivotal row order).
    pub fn lower(&self) -> &CscMatrix {
        &self.l
    }

    /// The upper triangular factor `U`.
    pub fn upper(&self) -> &CscMatrix {
        &self.u
    }

    /// The row permutation (`P·A = L·U`).
    pub fn row_permutation(&self) -> &Permutation {
        &self.row_perm
    }

    /// Solves `A·x = b`, allocating the result. In hot loops prefer
    /// [`LuFactor::solve_in_place`] with a reused [`SolveWorkspace`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x, &mut SolveWorkspace::new());
        x
    }

    /// Solves `A·x = b` in place, borrowing the pivoting scratch from `ws`:
    /// once the workspace is warm, the solve performs zero heap allocations.
    /// A length-`n` slice is a one-column column-major panel, so this runs
    /// the scalar panel kernels with `k = 1`; bit-identical to
    /// [`LuFactor::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_in_place(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        self.solve_columns(b, ws);
    }

    /// Solves `A·X = B` in place for every column of the panel through the
    /// blocked triangular kernels. Each panel column is bit-identical to
    /// [`LuFactor::solve`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if the panel row count does not match the matrix dimension.
    pub fn solve_panel(&self, b: &mut Panel, ws: &mut SolveWorkspace) {
        assert_eq!(b.nrows(), self.n, "panel row count mismatch");
        self.solve_columns(b.data_mut(), ws);
    }

    /// Solves every length-`n` column of the column-major buffer `b` in
    /// place (`P A = L U  ⇒  A x = b  ⇔  L U x = P b`) —
    /// [`LuFactor::solve_panel`] on a borrowed slice. Each column is
    /// bit-identical to [`LuFactor::solve`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not a multiple of the matrix dimension.
    pub fn solve_columns(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        self.solve_strips(Columns::InPlace(b), ws);
    }

    /// Solves `A·Z = R·M` into `z`, the block mix folded into the pack —
    /// [`crate::CholeskyFactor::solve_mixed_into`] for an LU factor, with
    /// the same arithmetic.
    ///
    /// # Panics
    ///
    /// Panics unless `r` and `z` have the same length, a multiple of the
    /// matrix dimension, and `mix` has `p²` entries.
    pub fn solve_mixed_into(&self, r: &[f64], mix: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
        self.solve_strips(Columns::Mixed { r, mix, z }, ws);
    }

    /// `P·A = L·U`: the row permutation gathers each strip's rows as it is
    /// packed, then `L` and `U` are solved back to back on the packed strip.
    fn solve_strips(&self, columns: Columns<'_>, ws: &mut SolveWorkspace) {
        let sweeps = [
            Sweep::Lower(Triangle::csc(&self.l)),
            Sweep::Upper(Triangle::csc(&self.u)),
        ];
        let perm = Some(self.row_perm.as_slice());
        solve_panel(self.n, columns, perm, &sweeps, None, Some(ws));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    #[test]
    fn factorises_a_dense_permutation_like_matrix() {
        let a = CsrMatrix::from_dense(3, 3, &[0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0], 0.0);
        let lu = LuFactor::factor(&a).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0]);
        assert!(a.residual_inf_norm(&x, &[1.0, 2.0, 3.0]) < 1e-12);
    }

    #[test]
    fn solves_random_sparse_system() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 40;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + rng.gen::<f64>());
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    t.push(i, j, rng.gen::<f64>() - 0.5);
                }
            }
        }
        let a = t.to_csr();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.matvec(&x_true);
        let lu = LuFactor::factor(&a).unwrap();
        let x = lu.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn lu_reconstructs_pa() {
        let a = CsrMatrix::from_dense(3, 3, &[2.0, 1.0, 0.0, 4.0, 3.0, 1.0, 0.0, 1.0, 5.0], 0.0);
        let lu = LuFactor::factor(&a).unwrap();
        let l = lu.lower().to_csr().to_dense();
        let u = lu.upper().to_csr().to_dense();
        let prod = l.matmul(&u);
        // P A: row i of PA is row perm[i] of A.
        let ad = a.to_dense();
        let mut pa = crate::DenseMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                pa[(i, j)] = ad[(lu.row_permutation().get(i), j)];
            }
        }
        assert!(prod.max_abs_diff(&pa) < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 2.0, 4.0], 0.0);
        assert!(matches!(
            LuFactor::factor(&a),
            Err(SparseError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            LuFactor::factor(&a),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_in_place_and_panel_match_solve_bit_identically() {
        let a = CsrMatrix::from_dense(3, 3, &[2.0, 1.0, 0.0, 4.0, 3.0, 1.0, 0.0, 1.0, 5.0], 0.0);
        let lu = LuFactor::factor(&a).unwrap();
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..3).map(|i| ((2 * i + k) as f64 * 0.4).cos()).collect())
            .collect();
        let mut ws = SolveWorkspace::new();
        let mut panel = Panel::from_columns(&rhs);
        lu.solve_panel(&mut panel, &mut ws);
        for (j, b) in rhs.iter().enumerate() {
            let expected = lu.solve(b);
            assert_eq!(panel.col(j), &expected[..], "panel col {j}");
            let mut x = b.clone();
            lu.solve_in_place(&mut x, &mut ws);
            assert_eq!(x, expected, "in-place col {j}");
        }
        let warm = ws.allocation_count();
        let mut panel2 = Panel::from_columns(&rhs);
        lu.solve_panel(&mut panel2, &mut ws);
        assert_eq!(ws.allocation_count(), warm);
    }

    #[test]
    fn agrees_with_cholesky_on_spd_matrix() {
        let a = CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0], 0.0);
        let b = [1.0, 2.0, 3.0];
        let x_lu = LuFactor::factor(&a).unwrap().solve(&b);
        let x_ch = crate::CholeskyFactor::factor(&a).unwrap().solve(&b);
        for (u, v) in x_lu.iter().zip(&x_ch) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
