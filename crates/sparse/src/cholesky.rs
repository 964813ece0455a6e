//! Sparse Cholesky (`L·Lᵀ`) factorisation for symmetric positive definite
//! matrices.
//!
//! The symbolic phase computes the elimination tree, the column counts, the
//! supernode partition and the pattern of `L`, stored as one row list per
//! supernode whose suffixes are the columns' patterns; the numeric phase is
//! supernodal — columns sharing one sub-diagonal pattern are factored
//! together as dense panels (see [`crate::Supernodes`]). A fill-reducing
//! ordering (approximate minimum degree by default) is applied first; the
//! permutation is handled transparently by [`CholeskyFactor::solve`].

use std::sync::Arc;

use crate::etree::postorder;
use crate::simd::{solve_panel, Columns, Sweep, Triangle};
use crate::supernodal::{
    amalgamate, column_layout, factor_supernodal, fundamental_rows, Supernodes,
};
use crate::{
    column_counts, elimination_tree, ordering, CscMatrix, CsrMatrix, CsrView, Panel, Permutation,
    Result, SolveWorkspace, SparseError,
};
use opera_simd::scalar::{lower_solve_lockstep, lower_transpose_solve_lockstep, LOCKSTEP_LANES};

/// Fill-reducing ordering strategy used before factorisation.
///
/// The default is [`OrderingChoice::ApproximateMinimumDegree`], the
/// *measured* winner on the paper grids and netlist fixtures (`perf_report`'s
/// `orderings` section; methodology and numbers in `docs/PERFORMANCE.md` §4
/// and `docs/SPARSE.md`). AMD delivers the ~3.5× sparser factor and ~3×
/// faster triangular solves of minimum-degree fill at an ordering cost that
/// stays near-linear — sub-second even on the `(N+1)·n` Galerkin-augmented
/// companion matrix where [`OrderingChoice::MinimumDegree`]'s explicit
/// clique updates run for minutes and [`OrderingChoice::ReverseCuthillMckee`]
/// pays its banded fill on every later solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingChoice {
    /// Keep the natural (input) order.
    Natural,
    /// Reverse Cuthill–McKee — fast banded ordering for mesh-like power
    /// grids. Cheapest analysis, but several times more factor fill than
    /// AMD on large meshes.
    ReverseCuthillMckee,
    /// Greedy minimum degree with explicit clique updates — the exact
    /// fill-quality reference that AMD approximates. Its ordering pass is
    /// super-linear; prefer the default unless auditing fill quality.
    MinimumDegree,
    /// Approximate minimum degree (the measured default, see above):
    /// quotient-graph elimination with element absorption and supervariable
    /// merging, [`ordering::approximate_minimum_degree`].
    #[default]
    ApproximateMinimumDegree,
}

/// The reusable symbolic phase of a sparse Cholesky factorisation: the
/// fill-reducing ordering, elimination tree and column counts of `L` for one
/// fixed sparsity pattern.
///
/// A `SymbolicCholesky` is immutable (and therefore `Sync`), so one analysis
/// can be shared by many concurrent numeric factorisations of matrices whose
/// pattern is contained in the analysed one — e.g. the per-node conductance
/// realisations of a stochastic-collocation sweep or the per-sample matrices
/// of a Monte Carlo run, where every realisation has the same structure but
/// different values. The analysis sits behind one [`Arc`]: cloning is a
/// pointer copy, and every [`CholeskyFactor`] built from it shares the
/// ordering and the pattern of `L`, storing only its own values.
///
/// # Example
///
/// ```
/// use opera_sparse::{SymbolicCholesky, TripletMatrix};
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 3.0);
/// }
/// t.add_symmetric_pair(0, 1, 1.0);
/// t.add_symmetric_pair(1, 2, 1.0);
/// let a = t.to_csr();
/// let symbolic = SymbolicCholesky::analyze(&a)?;
/// // Numeric-only factorisations against the one shared analysis.
/// let chol_a = symbolic.factor_numeric(&a)?;
/// let chol_2a = symbolic.factor_numeric(&a.scaled(2.0))?;
/// let b = vec![1.0, 0.0, -1.0];
/// let (xa, x2a) = (chol_a.solve(&b), chol_2a.solve(&b));
/// assert!((xa[0] - 2.0 * x2a[0]).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicCholesky {
    analysis: Arc<Analysis>,
}

/// The pattern-fixed data of one analysis, shared by every factor built on
/// it.
#[derive(Debug)]
struct Analysis {
    n: usize,
    ordering: OrderingChoice,
    perm: Permutation,
    /// Column pointers of the values of `L` (padded supernodal layout).
    l_indptr: Vec<usize>,
    /// Supernode partition of the factor columns.
    snodes: Supernodes,
    /// One ascending row list per supernode, its own columns first:
    /// supernode `s`'s list is `snode_rows[snode_rowptr[s]..snode_rowptr[s +
    /// 1]]`, and its column `k0 + t` has the suffix from position `t` as its
    /// pattern. No per-column index array exists.
    snode_rowptr: Vec<usize>,
    snode_rows: Vec<usize>,
    /// Start of column `j`'s pattern in `snode_rows`
    /// (`snode_rowptr[s] + (j − k0)`), the row pointer the triangular
    /// kernels read next to `l_indptr`.
    rowptr: Vec<usize>,
    /// Explicit zeros amalgamation added to the exact pattern of `L`.
    padded_nnz: usize,
    /// The scatter map: the analysed pattern in the *input* ordering, as CSR
    /// rows (`input_indptr`/`input_indices`, one-sided entries mirrored),
    /// and for each of its entries the position in `L`'s values that the
    /// numeric phase starts from (`input_slots`; [`UPPER`] for an entry that
    /// permutes into the upper triangle, which the numeric phase never
    /// reads). Built once per analysis.
    input_indptr: Vec<usize>,
    input_indices: Vec<usize>,
    input_slots: Vec<usize>,
}

/// Scatter-map slot of an input entry that lands above the diagonal.
const UPPER: usize = usize::MAX;

impl SymbolicCholesky {
    /// Analyses the pattern of a symmetric matrix with the default
    /// approximate-minimum-degree ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input and
    /// [`SparseError::InvalidStructure`] if the matrix is not symmetric.
    pub fn analyze(a: &CsrMatrix) -> Result<Self> {
        Self::analyze_with(a, OrderingChoice::default())
    }

    /// Analyses with an explicit ordering choice.
    ///
    /// # Example
    ///
    /// AMD (the default) never produces more fill than RCM on the mesh-like
    /// matrices this workspace factors; an explicit choice makes the
    /// trade-off observable:
    ///
    /// ```
    /// use opera_sparse::{OrderingChoice, SymbolicCholesky, TripletMatrix};
    ///
    /// # fn main() -> Result<(), opera_sparse::SparseError> {
    /// // 4x4 grid Laplacian + diagonal shift (SPD).
    /// let (nx, ny) = (4, 4);
    /// let mut t = TripletMatrix::new(nx * ny, nx * ny);
    /// for y in 0..ny {
    ///     for x in 0..nx {
    ///         t.push(y * nx + x, y * nx + x, 4.0);
    ///         if x + 1 < nx {
    ///             t.add_symmetric_pair(y * nx + x, y * nx + x + 1, -1.0);
    ///         }
    ///         if y + 1 < ny {
    ///             t.add_symmetric_pair(y * nx + x, (y + 1) * nx + x, -1.0);
    ///         }
    ///     }
    /// }
    /// let a = t.to_csr();
    /// let amd = SymbolicCholesky::analyze_with(&a, OrderingChoice::ApproximateMinimumDegree)?;
    /// let rcm = SymbolicCholesky::analyze_with(&a, OrderingChoice::ReverseCuthillMckee)?;
    /// assert_eq!(amd.ordering(), OrderingChoice::default());
    /// assert!(amd.nnz_l() <= rcm.nnz_l());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`SymbolicCholesky::analyze`].
    pub fn analyze_with(a: &CsrMatrix, ordering: OrderingChoice) -> Result<Self> {
        let _span = opera_trace::span("cholesky.analyze");
        let (input, mut a_perm, mut perm) = permute_for_cholesky(a, ordering)?;
        let _symbolic_span = opera_trace::span("cholesky.symbolic");
        let n = a_perm.ncols();
        let mut parent = elimination_tree(&a_perm);
        // Relabel by a postorder of the elimination tree: fill-preserving
        // (the filled graphs are isomorphic), and it makes every supernode
        // column-contiguous with its tree parent, which is what lets the
        // relaxed amalgamation below widen the panels. `Natural` keeps its
        // identity-permutation contract and is left untouched.
        if !matches!(ordering, OrderingChoice::Natural) {
            let post = postorder(&parent);
            #[cfg(feature = "strict-invariants")]
            crate::invariants::validate_postorder(&post, &parent)?;
            if !post.iter().enumerate().all(|(i, &p)| i == p) {
                // lint: allow(L001, postorder of an n-vertex forest visits each vertex exactly once)
                let pp = Permutation::from_vec(post).expect("postorder is a permutation");
                let a2 = a_perm
                    .permute_symmetric(&pp)
                    // lint: allow(L001, a_perm was already validated square and pp has matching length)
                    .expect("permuted matrix stays square and symmetric");
                parent = elimination_tree(&a2);
                perm = pp.compose(&perm);
                a_perm = a2;
            }
        }
        let counts = column_counts(&a_perm, &parent);
        let mut exact_indptr = vec![0usize; n + 1];
        for j in 0..n {
            exact_indptr[j + 1] = exact_indptr[j] + counts[j];
        }
        let fundamental = Supernodes::from_etree(&parent, &exact_indptr);
        let (fund_rowptr, fund_rows) =
            fundamental_rows(&a_perm, &fundamental, &parent, &exact_indptr)?;
        // Merge adjacent near-identical supernodes, padding the merged
        // panels to their union pattern with explicit zeros — the numeric
        // phase is dominated by panel width, and a few percent of padded
        // storage buys panels wide enough for the blocked kernels.
        let (snodes, snode_rowptr, snode_rows) = amalgamate(
            &fundamental,
            &parent,
            &exact_indptr,
            &fund_rowptr,
            &fund_rows,
        );
        let (l_indptr, rowptr) = column_layout(&snodes, &snode_rowptr);
        let padded_nnz = l_indptr[n] - exact_indptr[n];
        let input_slots = scatter_slots(&input, &perm, &l_indptr, &rowptr, &snode_rows)?;
        opera_trace::count("cholesky.symbolic_analyses", 1);
        opera_trace::count("cholesky.supernodes", snodes.count() as u64);
        opera_trace::gauge_set("cholesky.nnz_l", l_indptr[n] as f64);
        opera_trace::gauge_set("cholesky.pattern_rows", snode_rows.len() as f64);
        opera_trace::gauge_set(
            "cholesky.padded_nnz_fraction",
            if l_indptr[n] > 0 {
                padded_nnz as f64 / l_indptr[n] as f64
            } else {
                0.0
            },
        );
        let analysis = Analysis {
            n,
            ordering,
            perm,
            l_indptr,
            snodes,
            snode_rowptr,
            snode_rows,
            rowptr,
            padded_nnz,
            input_indptr: input.indptr().to_vec(),
            input_indices: input.indices().to_vec(),
            input_slots,
        };
        #[cfg(feature = "strict-invariants")]
        {
            a_perm.validate()?;
            crate::invariants::validate_supernode_containment(
                analysis.snodes.boundaries(),
                &analysis.snode_rowptr,
                &analysis.snode_rows,
                &analysis.l_indptr,
            )?;
        }
        Ok(SymbolicCholesky {
            analysis: Arc::new(analysis),
        })
    }

    /// Dimension of the analysed matrix.
    pub fn dim(&self) -> usize {
        self.analysis.n
    }

    /// The fill-reducing ordering strategy this analysis was computed with
    /// ([`OrderingChoice::default`] for [`SymbolicCholesky::analyze`]).
    pub fn ordering(&self) -> OrderingChoice {
        self.analysis.ordering
    }

    /// Number of nonzeros the factor `L` will have.
    pub fn nnz_l(&self) -> usize {
        self.analysis.l_indptr[self.analysis.n]
    }

    /// The fill-reducing permutation chosen by the analysis.
    pub fn permutation(&self) -> &Permutation {
        &self.analysis.perm
    }

    /// Explicit zeros the relaxed supernode amalgamation added to the exact
    /// pattern of `L`: `nnz_l() − padded_nnz()` is the exact fill.
    pub fn padded_nnz(&self) -> usize {
        self.analysis.padded_nnz
    }

    /// The supernode partition the numeric phase factors the matrix by (see
    /// [`Supernodes`]).
    pub fn supernodes(&self) -> &Supernodes {
        &self.analysis.snodes
    }

    /// The row list of supernode `s` (ascending, its own columns first):
    /// column `k0 + t` of the supernode has the suffix from position `t` as
    /// its pattern in `L`. These lists are the only row indices the
    /// analysis stores.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.supernodes().count()`.
    pub fn supernode_rows(&self, s: usize) -> &[usize] {
        let a = &self.analysis;
        &a.snode_rows[a.snode_rowptr[s]..a.snode_rowptr[s + 1]]
    }

    /// `true` when `a`'s stored pattern is exactly the pattern this analysis
    /// was computed from. An analysis reads only the pattern, so analysing
    /// `a` itself would then give this very analysis, and
    /// [`factor_numeric`](Self::factor_numeric) of `a` is bit-identical to
    /// [`CholeskyFactor::factor_with`] of it under this analysis's
    /// [`ordering`](Self::ordering). A matrix with a one-sided entry
    /// never matches: its analysed pattern holds the mirrored entry too.
    pub fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        let an = &*self.analysis;
        a.nrows() == an.n
            && a.ncols() == an.n
            && a.indptr() == an.input_indptr.as_slice()
            && a.indices() == an.input_indices.as_slice()
    }

    /// Performs a numeric-only factorisation of `a` against this shared
    /// analysis: no ordering, no elimination tree, no column counts are
    /// recomputed, and the factor shares the analysis instead of copying
    /// it. The pattern of `a` must be contained in the analysed pattern
    /// (equal in practice; a strict subset — e.g. the conductance matrix
    /// `G` factored with the analysis of the companion `G + C/h` — is also
    /// fine because its fill is contained too). On an equal pattern the
    /// factor is bit-identical to [`CholeskyFactor::factor_with`] under the
    /// same ordering choice: the ordering reads only the pattern.
    ///
    /// The values go straight into `L`'s storage through the analysis's
    /// scatter map: each CSR row of `a` is walked against the analysed row,
    /// which is also the entry-by-entry containment check, and each value
    /// lands in the slot the analysis computed for it. Nothing is
    /// transposed, permuted or sorted per call.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] for a shape mismatch,
    /// [`SparseError::InvalidStructure`] if `a` is not symmetric or has an
    /// entry outside the analysed pattern, and
    /// [`SparseError::NotPositiveDefinite`] if `a` is not positive definite.
    pub fn factor_numeric(&self, a: &CsrMatrix) -> Result<CholeskyFactor> {
        self.factor_values(a.view())
    }

    /// [`factor_numeric`](Self::factor_numeric) of a matrix given as a
    /// pattern and a value array ([`CsrMatrix::with_values`]): a
    /// realisation stored as values on a shared pattern factors without a
    /// CSR of its own, bit-identically to `factor_numeric` of the CSR it
    /// describes. The symmetry check reads each entry's mirror in place
    /// instead of building a transpose.
    ///
    /// # Errors
    ///
    /// As [`factor_numeric`](Self::factor_numeric).
    pub fn factor_values(&self, a: CsrView<'_>) -> Result<CholeskyFactor> {
        let n = self.dim();
        if a.nrows() != n || a.ncols() != n {
            return Err(SparseError::DimensionMismatch {
                op: "factor_numeric",
                left: (n, n),
                right: (a.nrows(), a.ncols()),
            });
        }
        check_symmetric(a)?;
        self.numeric(self.scatter(a)?)
    }

    /// `L`'s value array holding `a`'s values where the numeric phase
    /// starts from them (the lower triangle of the permuted matrix, zeros
    /// elsewhere): each CSR row of `a` is walked against the analysed row,
    /// which is the entry-by-entry containment check, and each value lands
    /// in its scatter-map slot.
    fn scatter(&self, a: CsrView<'_>) -> Result<Vec<f64>> {
        let an = &*self.analysis;
        let mut l_data = vec![0.0; self.nnz_l()];
        for i in 0..an.n {
            let (lo, hi) = (an.input_indptr[i], an.input_indptr[i + 1]);
            let reference = &an.input_indices[lo..hi];
            let slots = &an.input_slots[lo..hi];
            let mut r = 0usize;
            let (cols, vals) = a.row(i);
            // Entry by entry: a count-based check is not enough, since a
            // matrix that drops one entry and gains another has the same nnz
            // but would silently corrupt the factorisation.
            for (&j, &v) in cols.iter().zip(vals) {
                while r < reference.len() && reference[r] < j {
                    r += 1;
                }
                if r == reference.len() || reference[r] != j {
                    return Err(SparseError::InvalidStructure {
                        reason: format!(
                            "entry ({i}, {j}) lies outside the analysed sparsity pattern; \
                             numeric refactorisation requires the same (or a sub-) pattern"
                        ),
                    });
                }
                if slots[r] != UPPER {
                    l_data[slots[r]] = v;
                }
            }
        }
        Ok(l_data)
    }

    /// Supernodal numeric phase, in place on `L`'s value array as
    /// [`SymbolicCholesky::scatter`] fills it: value-only dense-panel work
    /// over the shared pattern (see [`crate::Supernodes`]).
    fn numeric(&self, mut l_data: Vec<f64>) -> Result<CholeskyFactor> {
        let _span = opera_trace::span("cholesky.numeric");
        opera_trace::count("cholesky.numeric_factorizations", 1);
        let a = &*self.analysis;
        factor_supernodal(
            &a.snodes,
            &a.l_indptr,
            &a.snode_rowptr,
            &a.snode_rows,
            &mut l_data,
        )?;
        Ok(CholeskyFactor {
            symbolic: self.clone(),
            l_data,
        })
    }
}

/// Rejects a matrix that is not symmetric to within `1e-10·max(‖A‖_F, 1)`:
/// the factorisation reads one triangle, so it would factor another matrix.
fn check_symmetric(a: CsrView<'_>) -> Result<()> {
    let scale = a.frobenius_norm().max(1.0);
    if a.is_symmetric(1e-10 * scale) {
        Ok(())
    } else {
        Err(SparseError::InvalidStructure {
            reason: "Cholesky factorisation requires a symmetric matrix".to_string(),
        })
    }
}

/// Whether every stored entry `(i, j)` of `a` has its mirror `(j, i)` stored
/// too (rows are sorted, so each mirror is one binary search away).
fn is_structurally_symmetric(a: &CsrMatrix) -> bool {
    (0..a.nrows()).all(|i| {
        a.row(i)
            .0
            .iter()
            .all(|&j| a.row(j).0.binary_search(&i).is_ok())
    })
}

/// Front end of the analysis: symmetry and shape checks, ordering selection
/// and the symmetric permutation. Returns the input with its one-sided
/// entries mirrored (in CSC, whose columns are then also its CSR rows), the
/// permuted matrix and the permutation.
fn permute_for_cholesky(
    a: &CsrMatrix,
    ordering_choice: OrderingChoice,
) -> Result<(CscMatrix, CscMatrix, Permutation)> {
    let _span = opera_trace::span("cholesky.ordering");
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            shape: (a.nrows(), a.ncols()),
        });
    }
    check_symmetric(a.view())?;
    // The elimination tree and column counts read A's pattern from the
    // upper triangle, the supernode row lists and the numeric scatter from
    // the lower one. A zero stored on one side only passes the value check
    // above, so mirror every such entry as an explicit zero first: both
    // triangles then hold the same pattern.
    let a_csc = if is_structurally_symmetric(a) {
        a.to_csc()
    } else {
        let mut mirror = a.transpose();
        mirror.data_mut().fill(0.0);
        a.add_scaled(&mirror, 1.0)?.to_csc()
    };
    let perm = match ordering_choice {
        OrderingChoice::Natural => Permutation::identity(a.nrows()),
        OrderingChoice::ReverseCuthillMckee => ordering::reverse_cuthill_mckee(&a_csc),
        OrderingChoice::MinimumDegree => ordering::minimum_degree(&a_csc),
        OrderingChoice::ApproximateMinimumDegree => ordering::approximate_minimum_degree(&a_csc),
    };
    let a_perm = a_csc.permute_symmetric(&perm)?;
    Ok((a_csc, a_perm, perm))
}

/// The scatter map of an analysis: for each entry `(i, j)` of the
/// structurally symmetric `input`, in CSR order (row `i` of the pattern is
/// column `i` of its CSC form), the position in `L`'s values of the
/// permuted entry `(inv[i], inv[j])`, or [`UPPER`] when that lies above the
/// diagonal. `L`'s pattern contains the permuted matrix's lower triangle,
/// so every other entry has a slot.
///
/// The sweep runs down the columns `j`, so every entry it meets lands in
/// the one column `inv[j]` of `L`, whose row list stays in cache; a cursor
/// per row hands out the CSR positions, since row `i` meets its columns in
/// ascending order.
fn scatter_slots(
    input: &CscMatrix,
    perm: &Permutation,
    l_indptr: &[usize],
    rowptr: &[usize],
    snode_rows: &[usize],
) -> Result<Vec<usize>> {
    let inv = perm.inverse_slice();
    let mut slots = vec![UPPER; input.nnz()];
    let mut cursor = input.indptr()[..input.ncols()].to_vec();
    for j in 0..input.ncols() {
        let col = inv[j];
        let (start, len) = (l_indptr[col], l_indptr[col + 1] - l_indptr[col]);
        let pattern = &snode_rows[rowptr[col]..rowptr[col] + len];
        for &i in input.col(j).0 {
            let q = cursor[i];
            cursor[i] += 1;
            let row = inv[i];
            if row < col {
                continue;
            }
            let offset =
                pattern
                    .binary_search(&row)
                    .map_err(|_| SparseError::InvalidStructure {
                        reason: format!("entry ({i}, {j}) is missing from the pattern of L"),
                    })?;
            slots[q] = start + offset;
        }
    }
    Ok(slots)
}

/// A sparse Cholesky factorisation `P·A·Pᵀ = L·Lᵀ` of a symmetric positive
/// definite matrix.
///
/// The ordering and the pattern of `L` belong to the [`SymbolicCholesky`]
/// analysis the factor was computed against, which it shares; the factor
/// itself stores the values of `L` only. To factor another matrix with the
/// same pattern, keep the analysis and call
/// [`SymbolicCholesky::factor_numeric`].
///
/// # Example
///
/// ```
/// use opera_sparse::{TripletMatrix, CholeskyFactor};
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// // Small SPD grid Laplacian + I.
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 3.0);
/// }
/// t.add_symmetric_pair(0, 1, 1.0);
/// t.add_symmetric_pair(1, 2, 1.0);
/// let a = t.to_csr();
/// let chol = CholeskyFactor::factor(&a)?;
/// let b = vec![1.0, 0.0, -1.0];
/// let x = chol.solve(&b);
/// assert!(a.residual_inf_norm(&x, &b) < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// The shared analysis: permutation, pattern of `L` and supernodes.
    symbolic: SymbolicCholesky,
    /// Values of `L`, laid out by the shared pattern.
    l_data: Vec<f64>,
}

impl CholeskyFactor {
    /// Factors a symmetric positive definite matrix given in CSR format,
    /// using the default approximate-minimum-degree ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input,
    /// [`SparseError::InvalidStructure`] if the matrix is not symmetric, and
    /// [`SparseError::NotPositiveDefinite`] if a non-positive pivot appears.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        Self::factor_with(a, OrderingChoice::default())
    }

    /// Factors with an explicit ordering choice: a fresh analysis, then the
    /// numeric phase of [`SymbolicCholesky::factor_numeric`] (whose symmetry
    /// check the analysis already ran).
    ///
    /// # Errors
    ///
    /// Same as [`CholeskyFactor::factor`].
    pub fn factor_with(a: &CsrMatrix, ordering_choice: OrderingChoice) -> Result<Self> {
        let symbolic = SymbolicCholesky::analyze_with(a, ordering_choice)?;
        symbolic.numeric(symbolic.scatter(a.view())?)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.symbolic.dim()
    }

    /// Number of nonzeros in the factor `L`.
    pub fn nnz_l(&self) -> usize {
        self.l_data.len()
    }

    /// The fill-reducing permutation used (`P·A·Pᵀ = L·Lᵀ`).
    pub fn permutation(&self) -> &Permutation {
        self.symbolic.permutation()
    }

    /// Returns the factor `L` as a CSC matrix (in the permuted ordering),
    /// expanding each column's suffix of its supernode's row list into a
    /// per-column index array the factor itself never stores.
    pub fn lower(&self) -> CscMatrix {
        let a = &self.symbolic.analysis;
        let mut indices = Vec::with_capacity(self.nnz_l());
        for (j, &r0) in a.rowptr.iter().enumerate() {
            let len = a.l_indptr[j + 1] - a.l_indptr[j];
            indices.extend_from_slice(&a.snode_rows[r0..r0 + len]);
        }
        CscMatrix::from_raw_parts(a.n, a.n, a.l_indptr.clone(), indices, self.l_data.clone())
            // lint: allow(L001, the factorization emits sorted in-bounds columns by construction)
            .expect("factor storage is structurally valid")
    }

    /// Log-determinant of the original matrix: `log det A = 2 Σ log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        let diagonal = &self.symbolic.analysis.l_indptr[..self.dim()];
        let logs = diagonal.iter().map(|&p| self.l_data[p].ln());
        2.0 * logs.fold(0.0, |acc, x| acc + x)
    }

    /// Solves `A·x = b`, allocating the result (and a fresh scratch buffer).
    /// In hot loops prefer [`CholeskyFactor::solve_in_place`] with a reused
    /// [`SolveWorkspace`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x, &mut SolveWorkspace::new());
        x
    }

    /// Solves `A·x = b` in place, borrowing the permutation scratch from
    /// `ws`: once the workspace is warm, the solve performs zero heap
    /// allocations. A length-`n` slice is a one-column column-major panel,
    /// so this runs the scalar panel kernels with `k = 1`; bit-identical to
    /// [`CholeskyFactor::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_in_place(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        assert_eq!(b.len(), self.dim(), "rhs dimension mismatch");
        self.solve_columns(b, ws);
    }

    /// Solves `A·X = B` in place for every column of the panel through the
    /// blocked triangular kernels: the factor is streamed once per 8-wide
    /// column strip instead of once per right-hand side. Each panel column is
    /// bit-identical to [`CholeskyFactor::solve`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if the panel row count does not match the matrix dimension.
    pub fn solve_panel(&self, b: &mut Panel, ws: &mut SolveWorkspace) {
        assert_eq!(b.nrows(), self.dim(), "panel row count mismatch");
        opera_trace::count("panel.solves", 1);
        opera_trace::count("panel.columns", b.ncols() as u64);
        self.solve_columns(b.data_mut(), ws);
    }

    /// Solves every length-`n` column of the column-major buffer `b` in
    /// place — [`CholeskyFactor::solve_panel`] on a borrowed slice. Each
    /// column is bit-identical to [`CholeskyFactor::solve`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not a multiple of the matrix dimension.
    pub fn solve_columns(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        self.solve_strips(Columns::InPlace(b), ws);
    }

    /// Solves `A·Z = R·M` into `z`: the `p` length-`n` columns of the
    /// column-major `r` are mixed by the row-major `p × p` matrix `mix`
    /// (column `j` of the right-hand side is `Σ_i mix[i·p + j]·r_i`, summed
    /// from `+0.0` in ascending `i` with zero weights skipped) as they are
    /// packed for the solve. Bit-identical to zeroing `z`, adding
    /// `mix[i·p + j]·r_i` into column `j` for each nonzero weight in
    /// ascending `i`, and then [`CholeskyFactor::solve_columns`] on `z`.
    ///
    /// # Panics
    ///
    /// Panics unless `r` and `z` have the same length, a multiple of the
    /// matrix dimension, and `mix` has `p²` entries.
    pub fn solve_mixed_into(&self, r: &[f64], mix: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
        self.solve_strips(Columns::Mixed { r, mix, z }, ws);
    }

    /// `P·A·Pᵀ = L·Lᵀ`: the permutation gathers each strip's rows as it is
    /// packed and scatters them back as it is unpacked, and `L` and `Lᵀ`
    /// are solved back to back on the packed strip.
    fn solve_strips(&self, columns: Columns<'_>, ws: &mut SolveWorkspace) {
        let a = &self.symbolic.analysis;
        let l = Triangle {
            indptr: &a.l_indptr,
            rowptr: &a.rowptr,
            indices: &a.snode_rows,
            data: &self.l_data,
        };
        let perm = Some(a.perm.as_slice());
        let sweeps = [Sweep::Lower(l), Sweep::LowerTranspose(l)];
        solve_panel(a.n, columns, perm, &sweeps, perm, Some(ws));
    }
}

/// Up to [`LOCKSTEP_LANES`] numeric factors of **one** [`SymbolicCholesky`]
/// analysis, stepped in lock step: their values are interleaved lane by
/// lane (`data[p·lanes + c]` is member `c`'s value of stored entry `p`), so
/// one sweep over the shared pattern advances every member's solve.
///
/// A single-column triangular solve is one serial chain of dependent
/// subtractions; the members' chains are independent, so a group solve
/// keeps several in flight per stored entry. Each member's column is
/// bit-identical to [`CholeskyFactor::solve_in_place`] with that member's
/// factor. Members are added with [`CholeskyGroup::push`], which copies the
/// values in and drops the factor, so each member's values exist once.
///
/// # Example
///
/// ```
/// use opera_sparse::{CholeskyGroup, Panel, SolveWorkspace, SymbolicCholesky, TripletMatrix};
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 3.0);
/// }
/// t.add_symmetric_pair(0, 1, 1.0);
/// let a = t.to_csr();
/// let symbolic = SymbolicCholesky::analyze(&a)?;
/// let mut group = CholeskyGroup::new(&symbolic, 2);
/// group.push(symbolic.factor_numeric(&a)?)?;
/// group.push(symbolic.factor_numeric(&a.scaled(2.0))?)?;
/// let b = vec![1.0, 0.0, -1.0];
/// let mut x = Panel::from_columns(&[b.clone(), b.clone()]);
/// group.solve_panel(&mut x, &mut SolveWorkspace::new());
/// assert_eq!(x.col(0), &symbolic.factor_numeric(&a)?.solve(&b)[..]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyGroup {
    symbolic: SymbolicCholesky,
    /// Lane count (the interleave stride).
    lanes: usize,
    /// Members pushed so far: lanes `0..members`.
    members: usize,
    /// Interleaved values; lanes without a member hold the identity.
    data: Vec<f64>,
}

impl CholeskyGroup {
    /// An empty group of `lanes` lanes over `symbolic`. Until a member
    /// fills it, a lane holds the identity factor.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ lanes ≤ LOCKSTEP_LANES`.
    pub fn new(symbolic: &SymbolicCholesky, lanes: usize) -> Self {
        assert!(
            (1..=LOCKSTEP_LANES).contains(&lanes),
            "a Cholesky group has 1..={LOCKSTEP_LANES} lanes, got {lanes}"
        );
        let a = &symbolic.analysis;
        let mut data = vec![0.0; a.l_indptr[a.n] * lanes];
        for &p in &a.l_indptr[..a.n] {
            data[p * lanes..(p + 1) * lanes].fill(1.0);
        }
        CholeskyGroup {
            symbolic: symbolic.clone(),
            lanes,
            members: 0,
            data,
        }
    }

    /// Number of members pushed so far.
    pub fn len(&self) -> usize {
        self.members
    }

    /// Whether no member has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Adds `factor` as the next member: its values are interleaved into
    /// the next free lane and the factor itself is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `factor` was computed
    /// against another analysis (even one of an equal pattern: the group
    /// checks identity, not equality) or the group is full.
    pub fn push(&mut self, factor: CholeskyFactor) -> Result<()> {
        if !Arc::ptr_eq(&factor.symbolic.analysis, &self.symbolic.analysis) {
            return Err(SparseError::InvalidStructure {
                reason: "a Cholesky group holds factors of one symbolic analysis only".to_string(),
            });
        }
        if self.members == self.lanes {
            return Err(SparseError::InvalidStructure {
                reason: format!("the Cholesky group is full ({} lanes)", self.lanes),
            });
        }
        let (k, c) = (self.lanes, self.members);
        for (slot, &v) in self.data.iter_mut().skip(c).step_by(k).zip(&factor.l_data) {
            *slot = v;
        }
        self.members += 1;
        Ok(())
    }

    /// Solves member `j`'s system for column `j` of `b`, every member in
    /// one lock-step sweep: the permutation gather is fused into the pack
    /// into the interleaved scratch (borrowed from `ws`), both triangular
    /// solves run on it, and the scatter back is fused into the unpack.
    /// Column `j` is bit-identical to [`CholeskyFactor::solve_in_place`]
    /// with member `j`'s factor. Zero heap allocations once `ws` is warm.
    ///
    /// # Panics
    ///
    /// Panics unless `b` has one column per member and the analysed row
    /// count.
    pub fn solve_panel(&self, b: &mut Panel, ws: &mut SolveWorkspace) {
        let a = &*self.symbolic.analysis;
        let (n, k, w) = (a.n, self.lanes, self.members);
        assert_eq!(b.nrows(), n, "panel row count mismatch");
        assert_eq!(b.ncols(), w, "one panel column per group member");
        if n == 0 {
            return;
        }
        let perm = a.perm.as_slice();
        let x = ws.scratch(n * k);
        let cols = b.data_mut();
        for (row, &p) in x.chunks_exact_mut(k).zip(perm) {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = if c < w { cols[c * n + p] } else { 0.0 };
            }
        }
        let (indptr, rowptr, indices) = (&a.l_indptr, &a.rowptr, &a.snode_rows);
        lower_solve_lockstep(indptr, rowptr, indices, &self.data, k, n, x);
        lower_transpose_solve_lockstep(indptr, rowptr, indices, &self.data, k, n, x);
        for (row, &p) in x.chunks_exact(k).zip(perm) {
            for (c, &v) in row.iter().take(w).enumerate() {
                cols[c * n + p] = v;
            }
        }
    }
}

/// Convenience: factor-and-solve for a single right-hand side.
///
/// # Errors
///
/// Propagates any factorisation error from [`CholeskyFactor::factor`].
pub fn cholesky_solve(a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>> {
    Ok(CholeskyFactor::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// SPD matrix of a 2-D grid Laplacian plus a diagonal shift.
    fn grid_spd(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                t.push(idx(x, y), idx(x, y), 0.5);
                if x + 1 < nx {
                    t.add_symmetric_pair(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < ny {
                    t.add_symmetric_pair(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn factorises_and_solves_small_spd_system() {
        let a = CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0], 0.0);
        let chol = CholeskyFactor::factor(&a).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = chol.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solves_grid_laplacian_with_all_orderings() {
        let a = grid_spd(7, 9);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
        for ord in [
            OrderingChoice::Natural,
            OrderingChoice::ReverseCuthillMckee,
            OrderingChoice::MinimumDegree,
            OrderingChoice::ApproximateMinimumDegree,
        ] {
            let chol = CholeskyFactor::factor_with(&a, ord).unwrap();
            let x = chol.solve(&b);
            assert!(
                a.residual_inf_norm(&x, &b) < 1e-10,
                "ordering {ord:?} gave a large residual"
            );
        }
    }

    #[test]
    fn rejects_non_symmetric_and_non_square() {
        let ns = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 0.0, 1.0], 0.0);
        assert!(matches!(
            CholeskyFactor::factor(&ns),
            Err(SparseError::InvalidStructure { .. })
        ));
        let rect = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            CholeskyFactor::factor(&rect),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 2.0, 1.0], 0.0);
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn factor_numeric_reuses_symbolic_analysis() {
        let a = grid_spd(6, 6);
        let symbolic = SymbolicCholesky::analyze(&a).unwrap();
        let chol = symbolic.factor_numeric(&a).unwrap();
        let b: Vec<f64> = vec![1.0; a.nrows()];
        let x1 = chol.solve(&b);
        assert!(a.residual_inf_norm(&x1, &b) < 1e-10);

        // Scale the matrix: same pattern, new values.
        let a2 = a.scaled(2.0);
        let chol2 = symbolic.factor_numeric(&a2).unwrap();
        let x2 = chol2.solve(&b);
        assert!(a2.residual_inf_norm(&x2, &b) < 1e-10);
        // Solutions should differ by exactly a factor of 2.
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - 2.0 * v).abs() < 1e-10);
        }
        // Both factors point at the one analysis instead of copying it.
        assert!(Arc::ptr_eq(&chol.symbolic.analysis, &symbolic.analysis));
        assert!(Arc::ptr_eq(&chol2.symbolic.analysis, &symbolic.analysis));
    }

    #[test]
    fn log_determinant_matches_dense_determinant() {
        let a = CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0], 0.0);
        let chol = CholeskyFactor::factor(&a).unwrap();
        let det = a.to_dense().determinant().unwrap();
        assert!((chol.log_determinant() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn lower_factor_reconstructs_matrix() {
        let a = grid_spd(4, 4);
        let chol = CholeskyFactor::factor_with(&a, OrderingChoice::Natural).unwrap();
        let l = chol.lower().to_csr().to_dense();
        let lt = l.transpose();
        let llt = l.matmul(&lt);
        let dense = a.to_dense();
        assert!(llt.max_abs_diff(&dense) < 1e-10);
    }

    #[test]
    fn shared_symbolic_analysis_factors_many_value_sets() {
        let a = grid_spd(6, 5);
        let symbolic = SymbolicCholesky::analyze(&a).unwrap();
        assert_eq!(symbolic.dim(), a.nrows());
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.21).cos()).collect();
        for scale in [0.5, 1.0, 2.5] {
            let scaled = a.scaled(scale);
            let from_symbolic = symbolic.factor_numeric(&scaled).unwrap();
            let from_scratch = CholeskyFactor::factor(&scaled).unwrap();
            // Bit equality, not closeness: the ordering reads only the
            // pattern, so sharing one analysis across value sets changes
            // nothing — the property Monte Carlo relies on.
            assert_eq!(from_symbolic.permutation(), from_scratch.permutation());
            assert_eq!(from_symbolic.l_data, from_scratch.l_data);
            let x = from_symbolic.solve(&b);
            assert!(scaled.residual_inf_norm(&x, &b) < 1e-10);
            assert_eq!(x, from_scratch.solve(&b));
        }
    }

    #[test]
    fn symbolic_analysis_accepts_sub_patterns_and_rejects_new_entries() {
        // Analyse the "companion" pattern A + D (denser), then numerically
        // factor the plain A (sub-pattern) against it.
        let a = grid_spd(5, 4);
        let mut extra = TripletMatrix::new(a.nrows(), a.ncols());
        extra.add_symmetric_pair(0, a.nrows() - 1, 0.3);
        let denser = a.add_scaled(&extra.to_csr(), 1.0).unwrap();
        let symbolic = SymbolicCholesky::analyze(&denser).unwrap();
        let chol = symbolic.factor_numeric(&a).unwrap();
        let b = vec![1.0; a.nrows()];
        let x = chol.solve(&b);
        assert!(a.residual_inf_norm(&x, &b) < 1e-10);
        // The reverse direction — an entry outside the analysed pattern —
        // must be rejected, not silently mis-factored.
        let narrow = SymbolicCholesky::analyze(&a).unwrap();
        assert!(matches!(
            narrow.factor_numeric(&denser),
            Err(SparseError::InvalidStructure { .. })
        ));
        // Shape mismatches are dimension errors.
        let small = grid_spd(2, 2);
        assert!(matches!(
            symbolic.factor_numeric(&small),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn an_analysis_matches_exactly_the_pattern_it_was_computed_from() {
        let a = grid_spd(5, 4);
        // Same pattern, other values (a diagonal shift, like `C` of grounded
        // capacitors): the analysis matches, and factoring against it gives
        // the one-shot factor's bits.
        let mut shift = TripletMatrix::new(a.nrows(), a.ncols());
        for i in 0..a.nrows() {
            shift.push(i, i, 0.25 + i as f64 * 1e-3);
        }
        let shifted = a.add_scaled(&shift.to_csr(), 1.0).unwrap();
        let symbolic = SymbolicCholesky::analyze(&shifted).unwrap();
        assert!(symbolic.matches_pattern(&a));
        let shared = symbolic.factor_numeric(&a).unwrap();
        let own = CholeskyFactor::factor(&a).unwrap();
        let bits = |f: &CholeskyFactor| f.l_data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&shared), bits(&own));
        // A strict sub-pattern and a different shape do not match.
        let mut extra = TripletMatrix::new(a.nrows(), a.ncols());
        extra.add_symmetric_pair(0, a.nrows() - 1, 0.3);
        let denser = a.add_scaled(&extra.to_csr(), 1.0).unwrap();
        assert!(!SymbolicCholesky::analyze(&denser)
            .unwrap()
            .matches_pattern(&a));
        assert!(!symbolic.matches_pattern(&grid_spd(2, 2)));
    }

    /// The numeric path before the scatter map: transpose and permute `a`,
    /// then place the permuted lower triangle in `L`'s layout column by
    /// column (the scatter the supernodal phase used to run itself), and
    /// factor.
    fn factor_numeric_by_permuting(symbolic: &SymbolicCholesky, a: &CsrMatrix) -> Vec<f64> {
        let a_perm = a
            .to_csc()
            .permute_symmetric(symbolic.permutation())
            .unwrap();
        let an = &*symbolic.analysis;
        let mut l_data = vec![0.0; symbolic.nnz_l()];
        for c in 0..a_perm.ncols() {
            let s = an.snodes.containing(c);
            let pattern = &an.snode_rows[an.rowptr[c]..an.snode_rowptr[s + 1]];
            let (rows, vals) = a_perm.col(c);
            for (&r, &v) in rows.iter().zip(vals).filter(|(&r, _)| r >= c) {
                l_data[an.l_indptr[c] + pattern.binary_search(&r).unwrap()] = v;
            }
        }
        factor_supernodal(
            &an.snodes,
            &an.l_indptr,
            &an.snode_rowptr,
            &an.snode_rows,
            &mut l_data,
        )
        .unwrap();
        l_data
    }

    #[test]
    fn scatter_map_matches_the_permuting_path_on_equal_and_sub_patterns() {
        // A "companion" G + C (C diagonal plus one long-range coupling) and
        // G itself, factored under the companion's analysis as collocation
        // and Monte Carlo do.
        let g = grid_spd(7, 6);
        let n = g.nrows();
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 0.25 + (i as f64 * 0.3).sin().abs());
        }
        t.add_symmetric_pair(1, n - 2, 0.125);
        let companion = g.add_scaled(&t.to_csr(), 1.0).unwrap();
        for ord in [
            OrderingChoice::Natural,
            OrderingChoice::ReverseCuthillMckee,
            OrderingChoice::ApproximateMinimumDegree,
        ] {
            let symbolic = SymbolicCholesky::analyze_with(&companion, ord).unwrap();
            for a in [&companion, &g, &companion.scaled(1.5)] {
                let scattered = symbolic.factor_numeric(a).unwrap();
                let reference = factor_numeric_by_permuting(&symbolic, a);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scattered.l_data), bits(&reference), "{ord:?}");
            }
        }
    }

    #[test]
    fn cholesky_group_lanes_match_member_solves_bit_for_bit() {
        let a = grid_spd(6, 5);
        let n = a.nrows();
        let symbolic = SymbolicCholesky::analyze(&a).unwrap();
        let mut ws = SolveWorkspace::new();
        for members in 1..=LOCKSTEP_LANES {
            for lanes in members..=LOCKSTEP_LANES {
                let matrices: Vec<CsrMatrix> = (0..members)
                    .map(|c| a.scaled(1.0 + 0.37 * c as f64))
                    .collect();
                let mut group = CholeskyGroup::new(&symbolic, lanes);
                for m in &matrices {
                    group.push(symbolic.factor_numeric(m).unwrap()).unwrap();
                }
                assert_eq!(group.len(), members);
                let rhs: Vec<Vec<f64>> = (0..members)
                    .map(|c| (0..n).map(|i| ((i + 3 * c) as f64 * 0.29).cos()).collect())
                    .collect();
                let mut panel = Panel::from_columns(&rhs);
                group.solve_panel(&mut panel, &mut ws);
                for (c, (m, b)) in matrices.iter().zip(&rhs).enumerate() {
                    let mut x = b.clone();
                    symbolic
                        .factor_numeric(m)
                        .unwrap()
                        .solve_in_place(&mut x, &mut ws);
                    assert_eq!(panel.col(c), &x[..], "member {c} of {members}/{lanes}");
                }
            }
        }
        // A warm workspace keeps the group solve allocation-free.
        let mut group = CholeskyGroup::new(&symbolic, 1);
        group.push(symbolic.factor_numeric(&a).unwrap()).unwrap();
        let warm = ws.allocation_count();
        group.solve_panel(&mut Panel::zeros(n, 1), &mut ws);
        assert_eq!(ws.allocation_count(), warm);
    }

    #[test]
    fn cholesky_group_rejects_foreign_factors_and_overflow() {
        let a = grid_spd(4, 4);
        let symbolic = SymbolicCholesky::analyze(&a).unwrap();
        // Same pattern, same ordering, but another analysis: rejected.
        let other = SymbolicCholesky::analyze(&a).unwrap();
        let mut group = CholeskyGroup::new(&symbolic, 1);
        assert!(matches!(
            group.push(other.factor_numeric(&a).unwrap()),
            Err(SparseError::InvalidStructure { .. })
        ));
        assert!(group.is_empty());
        group.push(symbolic.factor_numeric(&a).unwrap()).unwrap();
        assert!(matches!(
            group.push(symbolic.factor_numeric(&a).unwrap()),
            Err(SparseError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn factor_numeric_rejects_same_nnz_different_pattern() {
        // Swap one symmetric off-diagonal pair for another: identical nnz,
        // different pattern. The element-wise containment check must fire.
        let n = 6;
        let build = |pair: (usize, usize)| {
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                t.push(i, i, 4.0);
            }
            t.add_symmetric_pair(pair.0, pair.1, 1.0);
            t.to_csr()
        };
        let a = build((0, 1));
        let swapped = build((2, 3));
        assert_eq!(a.nnz(), swapped.nnz());
        let symbolic = SymbolicCholesky::analyze_with(&a, OrderingChoice::Natural).unwrap();
        assert!(matches!(
            symbolic.factor_numeric(&swapped),
            Err(SparseError::InvalidStructure { .. })
        ));
        // The analysis still serves a pattern-preserving update.
        let chol = symbolic.factor_numeric(&a.scaled(3.0)).unwrap();
        let b = vec![1.0; n];
        let x = chol.solve(&b);
        assert!(a.scaled(3.0).residual_inf_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn factor_numeric_rejects_a_non_symmetric_matrix_whose_pattern_fits() {
        // diag 4, (0,1) = 3, (1,0) = 1, (1,2) = (2,1) = 1: the pattern is
        // symmetric, the values are not. Factoring one triangle would solve
        // a different matrix, so both entry points must refuse it.
        let a = CsrMatrix::from_dense(3, 3, &[4.0, 3.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, 4.0], 0.0);
        let symmetrised = a.add_scaled(&a.transpose(), 1.0).unwrap().scaled(0.5);
        let symbolic = SymbolicCholesky::analyze(&symmetrised).unwrap();
        assert!(matches!(
            symbolic.factor_numeric(&a),
            Err(SparseError::InvalidStructure { .. })
        ));
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(SparseError::InvalidStructure { .. })
        ));
        assert!(symbolic.factor_numeric(&symmetrised).is_ok());
    }

    #[test]
    fn factor_values_matches_factor_numeric_and_rejects_what_it_rejects() {
        // A matrix stored as values on another matrix's pattern factors
        // bit-identically to its own CSR; values outside the analysed
        // pattern or not symmetric fail with InvalidStructure, no panic.
        let a = CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, 4.0], 0.0);
        let symbolic = SymbolicCholesky::analyze(&a).unwrap();
        let values: Vec<f64> = a.data().iter().map(|v| 1.5 * v + 0.25).collect();
        let mut own = a.clone();
        own.data_mut().copy_from_slice(&values);
        let from_values = symbolic.factor_values(a.with_values(&values)).unwrap();
        let from_csr = symbolic.factor_numeric(&own).unwrap();
        let b = [1.0, -2.0, 0.5];
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(from_values.solve(&b)), bits(from_csr.solve(&b)));

        let mut skewed = values.clone();
        skewed[1] += 1.0; // (0, 1) no longer mirrors (1, 0)
        assert!(matches!(
            symbolic.factor_values(a.with_values(&skewed)),
            Err(SparseError::InvalidStructure { .. })
        ));
        let wider =
            CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 4.0], 0.0);
        assert!(matches!(
            symbolic.factor_values(wider.view()),
            Err(SparseError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn cholesky_solve_convenience_function() {
        let a = CsrMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 5.0], 0.0);
        let x = cholesky_solve(&a, &[2.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn solve_panel_handles_multiple_rhs_bit_identically() {
        let a = grid_spd(5, 4);
        let chol = CholeskyFactor::factor(&a).unwrap();
        let rhs: Vec<Vec<f64>> = (0..7)
            .map(|k| (0..a.nrows()).map(|i| ((i + k) as f64).cos()).collect())
            .collect();
        let mut panel = Panel::from_columns(&rhs);
        let mut ws = SolveWorkspace::new();
        chol.solve_panel(&mut panel, &mut ws);
        for (j, b) in rhs.iter().enumerate() {
            assert!(a.residual_inf_norm(panel.col(j), b) < 1e-10);
            // Panel columns must be bit-identical to scalar solves.
            assert_eq!(panel.col(j), &chol.solve(b)[..]);
        }
        // A warm workspace makes subsequent panel solves allocation-free.
        let warm = ws.allocation_count();
        let mut panel2 = Panel::from_columns(&rhs);
        chol.solve_panel(&mut panel2, &mut ws);
        assert_eq!(ws.allocation_count(), warm);
    }

    #[test]
    fn solve_in_place_matches_solve_and_reuses_workspace() {
        let a = grid_spd(4, 5);
        let chol = CholeskyFactor::factor(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.31).sin()).collect();
        let expected = chol.solve(&b);
        let mut ws = SolveWorkspace::new();
        let mut x = b.clone();
        chol.solve_in_place(&mut x, &mut ws);
        assert_eq!(x, expected);
        let warm = ws.allocation_count();
        x.copy_from_slice(&b);
        chol.solve_in_place(&mut x, &mut ws);
        assert_eq!(x, expected);
        assert_eq!(ws.allocation_count(), warm);
    }

    /// `a` plus one stored `(i, j) = 0.0` whose mirror `(j, i)` is absent.
    fn with_one_sided_zero(a: &CsrMatrix, i: usize, j: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(a.nrows(), a.ncols());
        for (r, c, v) in a.iter() {
            t.push(r, c, v);
        }
        t.push(i, j, 0.0);
        let one_sided = t.to_csr();
        assert_eq!(one_sided.nnz(), a.nnz() + 1, "explicit zero is stored");
        one_sided
    }

    #[test]
    fn one_sided_explicit_zeros_are_analysed_as_mirrored_entries() {
        // A zero stored on one side of the diagonal only passes the value
        // symmetry check; the analysis must treat it as a symmetric entry
        // whichever triangle holds it, under every ordering.
        let small =
            CsrMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0], 0.0);
        let grid = grid_spd(5, 6);
        let cases = [
            with_one_sided_zero(&small, 0, 2),
            with_one_sided_zero(&small, 2, 0),
            with_one_sided_zero(&grid, 0, 29),
            with_one_sided_zero(&grid, 29, 0),
            with_one_sided_zero(&grid, 3, 17),
        ];
        for a in &cases {
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            for ord in [
                OrderingChoice::Natural,
                OrderingChoice::ReverseCuthillMckee,
                OrderingChoice::MinimumDegree,
                OrderingChoice::ApproximateMinimumDegree,
            ] {
                let symbolic = SymbolicCholesky::analyze_with(a, ord).unwrap();
                let x = symbolic.factor_numeric(a).unwrap().solve(&b);
                assert!(a.residual_inf_norm(&x, &b) < 1e-10, "n={n} {ord:?}");
                let x = CholeskyFactor::factor_with(a, ord).unwrap().solve(&b);
                assert!(a.residual_inf_norm(&x, &b) < 1e-10, "n={n} {ord:?}");
            }
        }
    }

    #[test]
    fn analyze_honours_the_default_ordering_choice() {
        // The satellite contract: `SymbolicCholesky::analyze` must route the
        // workspace-wide default `OrderingChoice` through to the permutation
        // it computes (and report which choice it used).
        let a = grid_spd(6, 7);
        let default = SymbolicCholesky::analyze(&a).unwrap();
        assert_eq!(default.ordering(), OrderingChoice::default());
        // The measured winner (docs/PERFORMANCE.md §4) is pinned here so a
        // silent default change cannot slip past review.
        assert_eq!(
            OrderingChoice::default(),
            OrderingChoice::ApproximateMinimumDegree
        );
        let explicit = SymbolicCholesky::analyze_with(&a, OrderingChoice::default()).unwrap();
        assert_eq!(default.permutation(), explicit.permutation());
        assert_eq!(default.nnz_l(), explicit.nnz_l());
        // And an explicit non-default choice is honoured, not overridden.
        let natural = SymbolicCholesky::analyze_with(&a, OrderingChoice::Natural).unwrap();
        assert_eq!(natural.ordering(), OrderingChoice::Natural);
        assert_eq!(
            natural.permutation(),
            &crate::Permutation::identity(a.nrows())
        );
    }
}
