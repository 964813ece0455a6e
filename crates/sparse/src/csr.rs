//! Compressed sparse row (CSR) matrix.

use crate::{CscMatrix, DenseMatrix, Result, SparseError, TripletMatrix};

/// A sparse matrix in compressed sparse row format.
///
/// Row `i` occupies `indices[indptr[i]..indptr[i+1]]` (column indices, sorted
/// ascending and unique) and the matching slice of `data`.
///
/// # Example
///
/// ```
/// use opera_sparse::CsrMatrix;
///
/// let a = CsrMatrix::identity(3).scaled(2.0);
/// let y = a.matvec(&[1.0, 2.0, 3.0]);
/// assert_eq!(y, vec![2.0, 4.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `indptr` has the wrong
    /// length, is not non-decreasing, or column indices are out of bounds or
    /// unsorted within a row.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure {
                reason: format!(
                    "indptr length {} != nrows + 1 = {}",
                    indptr.len(),
                    nrows + 1
                ),
            });
        }
        if indices.len() != data.len() {
            return Err(SparseError::InvalidStructure {
                reason: "indices and data lengths differ".to_string(),
            });
        }
        if *indptr.last().unwrap_or(&0) != indices.len() {
            return Err(SparseError::InvalidStructure {
                reason: "last indptr entry does not equal nnz".to_string(),
            });
        }
        for i in 0..nrows {
            if indptr[i] > indptr[i + 1] {
                return Err(SparseError::InvalidStructure {
                    reason: format!("indptr decreases at row {i}"),
                });
            }
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure {
                        reason: format!("unsorted or duplicate column indices in row {i}"),
                    });
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::InvalidStructure {
                        reason: format!("column index {last} out of bounds in row {i}"),
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        })
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![1.0; n],
        }
    }

    /// Creates an `nrows`×`ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: diag.to_vec(),
        }
    }

    /// Builds a CSR matrix from a dense row-major slice.
    ///
    /// Entries with absolute value `<= drop_tol` are not stored.
    pub fn from_dense(rows: usize, cols: usize, values: &[f64], drop_tol: f64) -> Self {
        assert_eq!(values.len(), rows * cols, "dense data has wrong length");
        let mut t = TripletMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let v = values[i * cols + j];
                if v.abs() > drop_tol {
                    t.push(i, j, v);
                }
            }
        }
        t.to_csr()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the stored values (pattern is fixed).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        self.view().row(i)
    }

    /// Returns the value at `(i, j)`, or `0.0` if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Dense matrix-vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product writing into a preallocated output buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.view().matvec_into(x, y);
    }

    /// Accumulating matrix-vector product `y += alpha · A·x`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn matvec_acc(&self, x: &[f64], alpha: f64, y: &mut [f64]) {
        self.view().matvec_acc(x, alpha, y);
    }

    /// This matrix as a [`CsrView`] of its own values.
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: &self.indptr,
            indices: &self.indices,
            data: &self.data,
        }
    }

    /// This matrix's pattern carrying `values` instead of its own: a
    /// matrix of the same pattern stored as a value array only.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.nnz()`.
    pub fn with_values<'a>(&'a self, values: &'a [f64]) -> CsrView<'a> {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        CsrView {
            data: values,
            ..self.view()
        }
    }

    /// `true` when `other` stores exactly this matrix's entries (shape,
    /// row pointers and column indices; the values may differ).
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && self.indptr == other.indptr
            && self.indices == other.indices
    }

    /// Adds `alpha · other` onto `values`, a value array on this matrix's
    /// pattern, in [`add_scaled`](Self::add_scaled)'s arithmetic: an entry
    /// stored in both becomes `v + alpha·w`, the others keep `v`. This is
    /// `add_scaled` in place, for an `other` whose pattern lies inside this
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ and
    /// [`SparseError::InvalidStructure`] if `other` stores an entry outside
    /// this pattern (`values` is then partly updated).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.nnz()`.
    pub fn add_scaled_onto(&self, values: &mut [f64], other: &CsrMatrix, alpha: f64) -> Result<()> {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) {
            return Err(SparseError::DimensionMismatch {
                op: "add_scaled_onto",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        for i in 0..self.nrows {
            let lo = self.indptr[i];
            let cols = &self.indices[lo..self.indptr[i + 1]];
            let mut p = 0;
            let (cb, vb) = other.row(i);
            for (&j, &w) in cb.iter().zip(vb) {
                while p < cols.len() && cols[p] < j {
                    p += 1;
                }
                if p == cols.len() || cols[p] != j {
                    return Err(SparseError::InvalidStructure {
                        reason: format!(
                            "entry ({i}, {j}) lies outside the pattern it is added onto"
                        ),
                    });
                }
                values[lo + p] += alpha * w;
                p += 1;
            }
        }
        Ok(())
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> CsrMatrix {
        // Transposing CSR is the same as reinterpreting as CSC and converting.
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let c = self.indices[k];
                let p = indptr[c];
                indices[p] = i;
                data[p] = self.data[k];
                indptr[c] += 1;
            }
        }
        // Shift back.
        for j in (1..=self.ncols).rev() {
            indptr[j] = indptr[j - 1];
        }
        indptr[0] = 0;
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            data,
        }
    }

    /// Converts to compressed sparse column format.
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        CscMatrix::from_transposed_csr(t)
    }

    /// Converts to a dense matrix (row-major). Intended for tests and small
    /// matrices only.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                d[(i, j)] = v;
            }
        }
        d
    }

    /// Returns a copy with every stored value multiplied by `alpha`.
    pub fn scaled(&self, alpha: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= alpha;
        }
        out
    }

    /// Multiplies every stored value by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Computes `self + alpha * other` (general sparse addition; the result
    /// pattern is the union of both patterns). A counting pass sizes the
    /// result exactly, so it carries no spare capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ.
    pub fn add_scaled(&self, other: &CsrMatrix, alpha: f64) -> Result<CsrMatrix> {
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) {
            return Err(SparseError::DimensionMismatch {
                op: "add_scaled",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        let mut nnz = 0;
        for i in 0..self.nrows {
            merge_rows(self.row(i), other.row(i), alpha, |_, _| nnz += 1);
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        indptr.push(0);
        for i in 0..self.nrows {
            merge_rows(self.row(i), other.row(i), alpha, |j, v| {
                indices.push(j);
                data.push(v);
            });
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            data,
        })
    }

    /// Extracts the diagonal as a dense vector (missing entries are zero).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for (i, item) in d.iter_mut().enumerate() {
            *item = self.get(i, i);
        }
        d
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.view().frobenius_norm()
    }

    /// Frobenius inner product `⟨A, B⟩_F = Σ_ij a_ij·b_ij`: one merge pass
    /// per row over the two patterns, which may differ (an entry stored in
    /// only one of them contributes nothing).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ.
    pub fn frobenius_dot(&self, other: &CsrMatrix) -> Result<f64> {
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) {
            return Err(SparseError::DimensionMismatch {
                op: "frobenius_dot",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        let mut acc = 0.0;
        for i in 0..self.nrows {
            let (ca, va) = self.row(i);
            let (cb, vb) = other.row(i);
            let (mut p, mut q) = (0, 0);
            while p < ca.len() && q < cb.len() {
                match ca[p].cmp(&cb[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        acc += va[p] * vb[q];
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
        Ok(acc)
    }

    /// Maximum absolute value of `A - Aᵀ` over all entries; zero for a
    /// (numerically) symmetric matrix.
    pub fn asymmetry(&self) -> f64 {
        self.view().asymmetry()
    }

    /// Returns `true` if the matrix is square and symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.view().is_symmetric(tol)
    }

    /// Computes the residual infinity norm `‖A·x − b‖∞`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn residual_inf_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.nrows, "rhs dimension mismatch");
        let ax = self.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }
}

/// A CSR matrix borrowed as a pattern and one value per stored entry: a
/// [`CsrMatrix`]'s own values ([`CsrMatrix::view`]) or a separate value
/// array on its pattern ([`CsrMatrix::with_values`]). Matrices that share
/// one pattern — every realisation of a stochastic model, every step size
/// of a companion matrix — can then be stored as value arrays alone. The
/// matrix-vector products of [`CsrMatrix`] run through this type, so a view
/// multiplies bit-identically to the matrix it describes.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    nrows: usize,
    ncols: usize,
    indptr: &'a [usize],
    indices: &'a [usize],
    data: &'a [f64],
}

impl<'a> CsrView<'a> {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns the column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&'a [usize], &'a [f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    // Every CG iteration and transient step multiplies through these.
    // lint: hot(csr-matvec)

    /// Matrix-vector product `y = A·x` into a preallocated buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.nrows, "matvec output dimension mismatch");
        for (i, out) in y.iter_mut().enumerate() {
            *out = self.row_dot(i, x);
        }
    }

    /// Accumulating matrix-vector product `y += alpha · A·x`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn matvec_acc(&self, x: &[f64], alpha: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.nrows, "matvec output dimension mismatch");
        for (i, out) in y.iter_mut().enumerate() {
            *out += alpha * self.row_dot(i, x);
        }
    }

    /// `y = A·x + alpha·(B·x)` for `B = other` of the same shape, in one
    /// pass over the rows of both: per row `a = A_i·x` and `b = B_i·x`,
    /// then `y_i = a + alpha·b`. Bit-identical to
    /// [`matvec_into`](Self::matvec_into) followed by `other`'s
    /// [`matvec_acc`](Self::matvec_acc) with `alpha`, without writing `y`
    /// twice.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or the dimensions do not match.
    pub fn matvec_sum_into(&self, other: CsrView<'_>, alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "matvec_sum_into shape mismatch"
        );
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.nrows, "matvec output dimension mismatch");
        for (i, out) in y.iter_mut().enumerate() {
            let a = self.row_dot(i, x);
            let b = other.row_dot(i, x);
            *out = a + alpha * b;
        }
    }

    /// Row `i` times `x`, accumulated in storage order from `+0.0`.
    #[inline]
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(i);
        let mut acc = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            acc += v * x[j];
        }
        acc
    }

    // lint: end-hot

    /// The values of `self + alpha·other` — [`CsrMatrix::add_scaled`]'s
    /// arithmetic, in the order of its result's entries — written into
    /// `out`, whose previous contents are replaced. `add_scaled` without
    /// building the pattern: for two patterns fixed in advance, the result
    /// pattern is fixed too.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the shapes differ.
    pub fn add_scaled_values(
        &self,
        other: CsrView<'_>,
        alpha: f64,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) {
            return Err(SparseError::DimensionMismatch {
                op: "add_scaled_values",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        out.clear();
        out.reserve(self.data.len().max(other.data.len()));
        for i in 0..self.nrows {
            merge_rows(self.row(i), other.row(i), alpha, |_, v| out.push(v));
        }
        Ok(())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute value of `A − Aᵀ` over all entries (an entry whose
    /// mirror is not stored counts whole); zero for a (numerically)
    /// symmetric matrix, infinite for a non-square one. Each mirror is one
    /// binary search in its sorted row away, so nothing is allocated.
    pub fn asymmetry(&self) -> f64 {
        if self.nrows != self.ncols {
            return f64::INFINITY;
        }
        let mut max = 0.0f64;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let (mirror_cols, mirror_vals) = self.row(j);
                let mirror = match mirror_cols.binary_search(&i) {
                    Ok(k) => mirror_vals[k],
                    Err(_) => 0.0,
                };
                max = max.max((v - mirror).abs());
            }
        }
        max
    }

    /// Returns `true` if the matrix is square and symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.nrows == self.ncols && self.asymmetry() <= tol
    }

    /// An owned [`CsrMatrix`] with this view's pattern and values.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.to_vec(),
            indices: self.indices.to_vec(),
            data: self.data.to_vec(),
        }
    }
}

/// Visits the union of two sorted CSR rows `a` and `b` in column order,
/// emitting `(column, value)` with value `a`, `alpha·b` or `a + alpha·b`
/// as the column is stored in `a`, in `b` or in both.
fn merge_rows(
    (ca, va): (&[usize], &[f64]),
    (cb, vb): (&[usize], &[f64]),
    alpha: f64,
    mut emit: impl FnMut(usize, f64),
) {
    let (mut p, mut q) = (0, 0);
    while p < ca.len() || q < cb.len() {
        let next_a = ca.get(p).copied().unwrap_or(usize::MAX);
        let next_b = cb.get(q).copied().unwrap_or(usize::MAX);
        if next_a < next_b {
            emit(next_a, va[p]);
            p += 1;
        } else if next_b < next_a {
            emit(next_b, alpha * vb[q]);
            q += 1;
        } else {
            emit(next_a, va[p] + alpha * vb[q]);
            p += 1;
            q += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CsrMatrix::from_dense(3, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0], 0.0)
    }

    /// The one-pass `A·x + α·(B·x)` is the two-pass `matvec_into` then
    /// `matvec_acc` bit for bit: on patterns that differ row by row (an
    /// empty row of either included), with signed zeros, a negative scale
    /// and a zero scale.
    #[test]
    fn matvec_sum_into_matches_the_two_pass_product_bit_for_bit() {
        let n = 37;
        let entry = |i: usize, j: usize, salt: usize| -> Option<f64> {
            match (i * 7 + j * 3 + salt) % 5 {
                0 => Some(((i * 31 + j * 17 + salt) as f64 * 0.61).sin() * 1e3),
                1 if i.is_multiple_of(4) => Some(-0.0),
                _ => None,
            }
        };
        let dense = |salt: usize, empty_row: usize| {
            let mut t = TripletMatrix::new(n, n);
            for i in (0..n).filter(|&i| i != empty_row) {
                for j in 0..n {
                    if let Some(v) = entry(i, j, salt) {
                        t.push(i, j, v);
                    }
                }
            }
            t.to_csr()
        };
        let (a, b) = (dense(0, 5), dense(2, 11));
        assert!(!a.same_pattern(&b));
        let x: Vec<f64> = (0..n)
            .map(|i| {
                if i % 9 == 0 {
                    -0.0
                } else {
                    (i as f64 * 1.3).cos() / 7.0
                }
            })
            .collect();
        for alpha in [2.5e10, -0.75, 0.0] {
            let mut two_pass = vec![f64::NAN; n];
            a.matvec_into(&x, &mut two_pass);
            b.matvec_acc(&x, alpha, &mut two_pass);
            let mut one_pass = vec![f64::NAN; n];
            a.view().matvec_sum_into(b.view(), alpha, &x, &mut one_pass);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one_pass), bits(&two_pass), "alpha = {alpha}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_sum_into_rejects_mismatched_shapes() {
        let (a, b) = (sample(), CsrMatrix::zeros(3, 4));
        a.view()
            .matvec_sum_into(b.view(), 1.0, &[0.0; 3], &mut [0.0; 3]);
    }

    #[test]
    fn get_returns_stored_and_zero_entries() {
        let a = sample();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn matvec_matches_dense_computation() {
        let a = sample();
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn matvec_acc_accumulates() {
        let a = CsrMatrix::identity(2);
        let mut y = vec![1.0, 1.0];
        a.matvec_acc(&[2.0, 3.0], 0.5, &mut y);
        assert_eq!(y, vec![2.0, 2.5]);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 2.0], 0.0);
        let b = CsrMatrix::from_dense(2, 2, &[0.0, 3.0, 0.0, 4.0], 0.0);
        let c = a.add_scaled(&b, 2.0).unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 6.0);
        assert_eq!(c.get(1, 1), 10.0);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn add_scaled_sizes_a_subset_pattern_sum_exactly() {
        // A realised matrix adds perturbations whose patterns lie inside
        // the nominal one: the sum has the nominal pattern, and its arrays
        // must carry no capacity beyond it.
        let nominal = sample();
        let perturbation =
            CsrMatrix::from_dense(3, 3, &[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0], 0.0);
        let sum = nominal.add_scaled(&perturbation, 0.25).unwrap();
        assert_eq!(sum.nnz(), nominal.nnz());
        assert_eq!(sum.indices.capacity(), sum.indices.len());
        assert_eq!(sum.data.capacity(), sum.data.len());
        assert_eq!(sum.get(0, 0), nominal.get(0, 0) + 0.25 * 0.5);
    }

    #[test]
    fn views_carry_values_on_a_shared_pattern() {
        let a = sample();
        let values = [2.0, -1.0, 0.5, 3.0, 4.0];
        let view = a.with_values(&values);
        let owned = view.to_csr();
        assert!(owned.same_pattern(&a));
        assert_eq!(owned.data(), &values);
        let x = [1.0, 2.0, 3.0];
        let mut yv = vec![0.0; 3];
        view.matvec_into(&x, &mut yv);
        assert_eq!(yv, owned.matvec(&x));
        let mut y = vec![1.0; 3];
        view.matvec_acc(&x, 0.5, &mut y);
        let mut expected = vec![1.0; 3];
        owned.matvec_acc(&x, 0.5, &mut expected);
        assert_eq!(y, expected);
        assert_eq!(view.asymmetry(), owned.asymmetry());
        assert_eq!(a.view().asymmetry(), 2.0);
        // A one-sided entry counts whole.
        let one_sided = CsrMatrix::from_dense(2, 2, &[1.0, -3.0, 0.0, 1.0], 0.0);
        assert_eq!(one_sided.asymmetry(), 3.0);
        assert!(CsrMatrix::zeros(2, 3).asymmetry().is_infinite());
    }

    #[test]
    fn value_merges_replay_add_scaled() {
        let a = sample();
        let sub = CsrMatrix::from_dense(3, 3, &[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0], 0.0);
        let other =
            CsrMatrix::from_dense(3, 3, &[0.0, 7.0, 0.0, 0.0, -2.0, 0.0, 1.0, 0.0, 0.0], 0.0);
        let mut merged = vec![f64::NAN];
        a.view()
            .add_scaled_values(other.view(), 0.3, &mut merged)
            .unwrap();
        assert_eq!(merged, a.add_scaled(&other, 0.3).unwrap().data());
        let mut values = a.data().to_vec();
        a.add_scaled_onto(&mut values, &sub, 0.25).unwrap();
        assert_eq!(values, a.add_scaled(&sub, 0.25).unwrap().data());
        // An entry outside the pattern is an error, not a silent drop.
        assert!(matches!(
            a.add_scaled_onto(&mut values, &other, 1.0),
            Err(SparseError::InvalidStructure { .. })
        ));
        assert!(matches!(
            a.view()
                .add_scaled_values(CsrMatrix::zeros(2, 3).view(), 1.0, &mut merged),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn add_scaled_rejects_mismatched_shapes() {
        let a = CsrMatrix::zeros(2, 2);
        let b = CsrMatrix::zeros(3, 2);
        assert!(matches!(
            a.add_scaled(&b, 1.0),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn frobenius_dot_of_one_pattern_is_the_entrywise_sum() {
        let a = sample();
        let b = a.scaled(-2.0);
        // 1 + 4 + 9 + 16 + 25 = 55.
        assert_eq!(a.frobenius_dot(&a).unwrap(), 55.0);
        assert_eq!(a.frobenius_dot(&b).unwrap(), -110.0);
        assert_eq!(a.frobenius_dot(&a).unwrap().sqrt(), a.frobenius_norm());
    }

    #[test]
    fn frobenius_dot_of_disjoint_patterns_is_zero() {
        let a = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0], 0.0);
        let b = CsrMatrix::from_dense(2, 3, &[0.0, 4.0, 0.0, 5.0, 0.0, 6.0], 0.0);
        assert_eq!(a.frobenius_dot(&b).unwrap(), 0.0);
        assert_eq!(b.frobenius_dot(&a).unwrap(), 0.0);
    }

    #[test]
    fn frobenius_dot_of_overlapping_patterns_sums_the_shared_entries() {
        let a = sample();
        // Shares (0,0), (1,1) and (2,2) with `a`; (0,1) and (2,1) are its own.
        let b = CsrMatrix::from_dense(3, 3, &[2.0, 7.0, 0.0, 0.0, -1.0, 0.0, 0.0, 8.0, 3.0], 0.0);
        // 1·2 + 3·(−1) + 5·3.
        let expected = 2.0 - 3.0 + 15.0;
        assert_eq!(a.frobenius_dot(&b).unwrap(), expected);
        assert_eq!(b.frobenius_dot(&a).unwrap(), expected);
        let dense: f64 = a
            .to_dense()
            .data()
            .iter()
            .zip(b.to_dense().data())
            .map(|(x, y)| x * y)
            .sum();
        assert_eq!(dense, expected);
    }

    #[test]
    fn frobenius_dot_rejects_mismatched_shapes() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(3, 2);
        assert!(matches!(
            a.frobenius_dot(&b),
            Err(SparseError::DimensionMismatch {
                op: "frobenius_dot",
                left: (2, 3),
                right: (3, 2),
            })
        ));
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_dense(2, 2, &[2.0, -1.0, -1.0, 2.0], 0.0);
        assert!(sym.is_symmetric(0.0));
        let asym = CsrMatrix::from_dense(2, 2, &[2.0, -1.0, 1.0, 2.0], 0.0);
        assert!(!asym.is_symmetric(1e-12));
        assert!((asym.asymmetry() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn diagonal_and_norm() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
        let expected = (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt();
        assert!((a.frobenius_norm() - expected).abs() < 1e-14);
    }

    #[test]
    fn invalid_structure_is_rejected() {
        // indptr too short
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // out of bounds column
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn iter_visits_all_entries() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 0, 4.0)));
    }

    #[test]
    fn residual_norm_is_zero_for_exact_solution() {
        let a = CsrMatrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.residual_inf_norm(&x, &x), 0.0);
    }
}
