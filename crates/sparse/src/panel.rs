//! Dense right-hand-side panels and reusable solver workspaces.
//!
//! A [`Panel`] is the multi-RHS currency of the whole OPERA hot path:
//! contiguous column-major `n × k` storage, so `k` right-hand sides of a
//! factored system travel together through the blocked triangular kernels in
//! [`crate::solve_lower_csc_panel`] and friends instead of one cache-hostile
//! `Vec<f64>` at a time. A [`SolveWorkspace`] is the companion scratch arena:
//! every in-place solve borrows its buffers from one, so a warmed-up
//! transient loop performs **zero** heap allocations per step — and the
//! workspace counts its buffer growths so callers can assert exactly that.
//!
//! Both panels and workspace scratch live in 64-byte-aligned storage
//! (`opera_simd::AlignedVec`): panel columns and scratch buffers start on a
//! cache-line/AVX-512-register boundary so the runtime-dispatched vector
//! kernels can stream them with aligned-friendly loads.

/// Contiguous column-major `n × k` storage for multi-RHS solves.
///
/// Columns are the unit of access: [`Panel::col`]/[`Panel::col_mut`] return
/// borrowed views of single right-hand sides, and the blocked triangular
/// kernels sweep all columns of a panel in one pass over the factor.
///
/// # Example
///
/// ```
/// use opera_sparse::Panel;
///
/// let mut p = Panel::zeros(3, 2);
/// p.col_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(p.col(0), &[0.0, 0.0, 0.0]);
/// assert_eq!(p.col(1), &[1.0, 2.0, 3.0]);
/// assert_eq!(p.nrows(), 3);
/// assert_eq!(p.ncols(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    nrows: usize,
    ncols: usize,
    /// Column-major values, `data[j * nrows + i]` = entry `(i, j)`, in
    /// 64-byte-aligned storage.
    data: opera_simd::AlignedVec,
}

impl Panel {
    /// An `n × k` panel of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Panel {
            nrows,
            ncols,
            data: opera_simd::AlignedVec::zeroed(nrows * ncols),
        }
    }

    /// Builds a panel from equal-length columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns have differing lengths.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        let nrows = columns.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * columns.len());
        for col in columns {
            assert_eq!(col.len(), nrows, "panel columns must have equal length");
            data.extend_from_slice(col);
        }
        Panel {
            nrows,
            ncols: columns.len(),
            data: opera_simd::AlignedVec::from_vec(data),
        }
    }

    // The accessors below are called from inside the per-step solve kernels;
    // allocating constructors (`zeros`, `from_columns`) and the consuming
    // conversions stay outside the region by design.
    // lint: hot(panel-access)

    /// Number of rows (the system dimension).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (right-hand sides).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Column `j` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data.as_slice()[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data.as_mut_slice()[j * self.nrows..(j + 1) * self.nrows]
    }

    /// All values in column-major order.
    pub fn data(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// All values in column-major order, mutably.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Takes ownership of an existing column-major buffer (e.g. a stacked
    /// block vector, whose blocks are exactly the panel columns), shifting
    /// it in place (one `memmove`, no reallocation in the common case) onto
    /// a 64-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "panel buffer length mismatch");
        Panel {
            nrows,
            ncols,
            data: opera_simd::AlignedVec::from_vec(data),
        }
    }

    /// Consumes the panel into its column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Iterates over the columns.
    pub fn columns(&self) -> impl Iterator<Item = &[f64]> {
        self.data.as_slice().chunks_exact(self.nrows)
    }

    // lint: end-hot

    /// Consumes the panel into per-column vectors.
    pub fn into_columns(self) -> Vec<Vec<f64>> {
        let n = self.nrows;
        let data = self.data.as_slice();
        (0..self.ncols)
            .map(|j| data[j * n..(j + 1) * n].to_vec())
            .collect()
    }
}

/// A reusable scratch arena for in-place and panel solves.
///
/// The direct factors ([`crate::CholeskyFactor`], [`crate::LuFactor`],
/// [`crate::MatrixFactor`]) need a permuted copy of the right-hand side(s);
/// a `SolveWorkspace` owns that buffer across calls so a steady-state solve
/// loop never touches the allocator. The workspace counts how many times its
/// buffer had to grow — [`SolveWorkspace::allocation_count`] is the test
/// hook behind the engine's zero-allocations-per-step contract.
///
/// An iterative solver holds its iterate vectors for a whole solve while
/// its preconditioner runs direct solves of its own:
/// [`SolveWorkspace::split`] lends both at once, the vectors from this
/// workspace and the inner solves' scratch from a nested one.
///
/// # Example
///
/// ```
/// use opera_sparse::{CholeskyFactor, CsrMatrix, SolveWorkspace};
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0], 0.0);
/// let chol = CholeskyFactor::factor(&a)?;
/// let mut ws = SolveWorkspace::new();
/// let mut b = vec![5.0, 4.0];
/// chol.solve_in_place(&mut b, &mut ws); // warms the workspace
/// let warm = ws.allocation_count();
/// b.copy_from_slice(&[1.0, 2.0]);
/// chol.solve_in_place(&mut b, &mut ws); // steady state: no allocations
/// assert_eq!(ws.allocation_count(), warm);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    buf: opera_simd::AlignedVec,
    allocations: usize,
    /// The workspace lent out by [`SolveWorkspace::split`], made on first
    /// use.
    nested: Option<Box<SolveWorkspace>>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// A workspace pre-sized for panels of `len` values (`n * k`), so even
    /// the first solve allocates nothing.
    pub fn with_capacity(len: usize) -> Self {
        SolveWorkspace {
            buf: opera_simd::AlignedVec::zeroed(len),
            allocations: 0,
            nested: None,
        }
    }

    /// Borrows a 64-byte-aligned scratch buffer of exactly `len` values,
    /// growing (and counting the growth) only when the current buffer is
    /// too small.
    pub fn scratch(&mut self, len: usize) -> &mut [f64] {
        self.grow(len);
        &mut self.buf.as_mut_slice()[..len]
    }

    /// Borrows a scratch buffer of exactly `len` values together with a
    /// nested workspace for the solves that run while the buffer is held —
    /// an iterative solver's vectors and its preconditioner's scratch.
    /// Growth of either (and the nested workspace's creation) counts
    /// towards [`SolveWorkspace::allocation_count`].
    pub fn split(&mut self, len: usize) -> (&mut [f64], &mut SolveWorkspace) {
        self.grow(len);
        if self.nested.is_none() {
            self.allocations += 1;
            opera_trace::count("workspace.allocations", 1);
        }
        let nested = self.nested.get_or_insert_with(Box::default);
        (&mut self.buf.as_mut_slice()[..len], nested)
    }

    fn grow(&mut self, len: usize) {
        if self.buf.len() < len {
            self.buf.resize(len);
            self.allocations += 1;
            opera_trace::count("workspace.allocations", 1);
        }
    }

    /// How many times the workspace (or one nested in it) had to grow.
    /// Constant across calls once the workspace is warm — the
    /// zero-steady-state-allocations test hook.
    pub fn allocation_count(&self) -> usize {
        self.allocations + self.nested.as_ref().map_or(0, |n| n.allocation_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_columns_round_trip() {
        let mut p = Panel::zeros(4, 3);
        assert_eq!(p.nrows(), 4);
        assert_eq!(p.ncols(), 3);
        for j in 0..3 {
            for (i, v) in p.col_mut(j).iter_mut().enumerate() {
                *v = (10 * j + i) as f64;
            }
        }
        assert_eq!(p.col(2), &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(p.columns().count(), 3);
        let cols = p.clone().into_columns();
        assert_eq!(cols[1], vec![10.0, 11.0, 12.0, 13.0]);
        let rebuilt = Panel::from_columns(&cols);
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn data_is_column_major() {
        let p = Panel::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(p.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    /// Every construction path must leave the panel storage on a 64-byte
    /// boundary so the vector kernels can use aligned loads.
    #[test]
    fn panel_storage_is_64_byte_aligned() {
        for ncols in [1usize, 2, 7, 8, 9] {
            let p = Panel::zeros(5, ncols);
            assert_eq!(p.data().as_ptr() as usize % 64, 0, "zeros {ncols}");
            let cols: Vec<Vec<f64>> = (0..ncols).map(|j| vec![j as f64; 5]).collect();
            let p = Panel::from_columns(&cols);
            assert_eq!(p.data().as_ptr() as usize % 64, 0, "from_columns {ncols}");
            let p = Panel::from_vec(5, ncols, vec![1.5; 5 * ncols]);
            assert_eq!(p.data().as_ptr() as usize % 64, 0, "from_vec {ncols}");
            // The round trip back out preserves the logical buffer.
            assert_eq!(p.clone().into_vec(), vec![1.5; 5 * ncols]);
            assert_eq!(p.clone(), p);
        }
    }

    /// Workspace scratch shares the aligned-storage contract.
    #[test]
    fn workspace_scratch_is_64_byte_aligned() {
        let mut ws = SolveWorkspace::new();
        for len in [1usize, 9, 33, 100] {
            assert_eq!(ws.scratch(len).as_ptr() as usize % 64, 0, "len {len}");
        }
        let mut sized = SolveWorkspace::with_capacity(24);
        assert_eq!(sized.scratch(24).as_ptr() as usize % 64, 0);
        assert_eq!(sized.allocation_count(), 0);
    }

    #[test]
    #[should_panic]
    fn ragged_columns_are_rejected() {
        Panel::from_columns(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn workspace_counts_growths_only() {
        let mut ws = SolveWorkspace::new();
        assert_eq!(ws.allocation_count(), 0);
        ws.scratch(8);
        assert_eq!(ws.allocation_count(), 1);
        ws.scratch(8);
        ws.scratch(4);
        assert_eq!(ws.allocation_count(), 1);
        ws.scratch(9);
        assert_eq!(ws.allocation_count(), 2);
        let mut sized = SolveWorkspace::with_capacity(16);
        sized.scratch(16);
        assert_eq!(sized.allocation_count(), 0);
    }

    #[test]
    fn split_lends_scratch_and_a_nested_workspace_and_counts_both() {
        let mut ws = SolveWorkspace::with_capacity(8);
        let (outer, nested) = ws.split(8);
        outer.fill(1.0);
        nested.scratch(4).fill(2.0);
        // The nested workspace's creation and its first growth.
        assert_eq!(ws.allocation_count(), 2);
        let (outer, nested) = ws.split(8);
        assert_eq!(outer, &[1.0; 8]);
        assert_eq!(nested.scratch(4), &[2.0; 4]);
        assert_eq!(ws.allocation_count(), 2);
    }
}
