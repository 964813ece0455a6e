//! Supernodal numeric Cholesky: the fundamental-supernode partition of the
//! elimination tree and the dense-panel numeric phase built on it.
//!
//! A *fundamental supernode* is a maximal run of consecutive columns
//! `j, j+1, …` where each column's sub-diagonal pattern equals the next
//! column's pattern plus that column's own row — equivalently, where
//! `parent(j) = j+1` in the elimination tree and the factor column counts
//! drop by exactly one. Those columns share one sparsity pattern, so the
//! numeric phase can treat them as a single dense `m × w` panel: scatter the
//! matching entries of `A`, apply every descendant supernode's update as a
//! small dense rank-`w` product, and finish with one dense left-looking
//! Cholesky of the panel. All inner loops stream contiguous factor columns —
//! the same register-friendly discipline as the blocked triangular kernels
//! in [`crate::Panel`]-based solves — instead of the scalar
//! scatter/gather-per-column of the classic up-looking algorithm.
//!
//! The partition and its row lists — one ascending list per supernode,
//! whose suffixes are the columns' patterns — are computed once per
//! [`crate::SymbolicCholesky`] analysis and reused by every numeric
//! (re-)factorisation sharing it. On the AMD-ordered paper-grid companion
//! the mean panel is 3–4 columns wide with dense trailing supernodes of
//! 100+ columns, which is where the numeric speedup over the up-looking
//! code comes from (`docs/SPARSE.md` walks through the partition on a
//! worked example; `docs/PERFORMANCE.md` §4 has the measurements).

use crate::{CscMatrix, Result, SparseError};

/// Sentinel for "no entry" in the intra-factorisation link lists.
const NONE: usize = usize::MAX;

/// The fundamental-supernode partition of a Cholesky factor's columns.
///
/// Column indices refer to the *permuted* matrix the analysis was computed
/// for. The partition is a monotone split of `0..n`: supernode `s` owns the
/// contiguous column range [`Supernodes::columns`]`(s)`, and every column
/// belongs to exactly one supernode.
#[derive(Debug, Clone)]
pub struct Supernodes {
    /// Supernode `s` spans columns `ptr[s]..ptr[s + 1]`; `ptr.len()` is the
    /// supernode count plus one.
    ptr: Vec<usize>,
    /// Maps a column to the supernode containing it.
    of: Vec<usize>,
}

impl Supernodes {
    /// Detects the fundamental supernodes of a factor from its elimination
    /// tree and column pointers: column `j` extends the supernode of column
    /// `j − 1` exactly when `parent(j − 1) = j` and column `j − 1` has one
    /// more nonzero than column `j` (which forces the two sub-diagonal
    /// patterns to coincide).
    pub(crate) fn from_etree(parent: &[Option<usize>], l_indptr: &[usize]) -> Self {
        let n = parent.len();
        let mut ptr = Vec::new();
        ptr.push(0);
        for j in 1..n {
            let count_prev = l_indptr[j] - l_indptr[j - 1];
            let count = l_indptr[j + 1] - l_indptr[j];
            let extends = parent[j - 1] == Some(j) && count_prev == count + 1;
            if !extends {
                ptr.push(j);
            }
        }
        if n > 0 {
            ptr.push(n);
        }
        let mut of = vec![0usize; n];
        for s in 0..ptr.len() - 1 {
            of[ptr[s]..ptr[s + 1]].fill(s);
        }
        Supernodes { ptr, of }
    }

    /// Builds the partition directly from its boundary list (`ptr[s]..
    /// ptr[s+1]` are supernode `s`'s columns; the last entry is `n`).
    pub(crate) fn from_partition(ptr: Vec<usize>) -> Self {
        // lint: allow(L001, every caller seeds ptr with the leading 0 boundary, so it is non-empty)
        let n = *ptr.last().expect("partition has at least the [0] boundary");
        let mut of = vec![0usize; n];
        for s in 0..ptr.len() - 1 {
            of[ptr[s]..ptr[s + 1]].fill(s);
        }
        Supernodes { ptr, of }
    }

    /// The partition boundary list: supernode `s` spans columns
    /// `boundaries()[s]..boundaries()[s + 1]`, and the final entry is the
    /// matrix dimension. This is the slice the supernode-containment
    /// validator ([`crate::invariants::validate_supernode_containment`])
    /// consumes.
    pub fn boundaries(&self) -> &[usize] {
        &self.ptr
    }

    /// Number of supernodes in the partition.
    pub fn count(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The contiguous column range of supernode `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.count()`.
    pub fn columns(&self, s: usize) -> std::ops::Range<usize> {
        self.ptr[s]..self.ptr[s + 1]
    }

    /// The supernode containing `column`.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range.
    pub fn containing(&self, column: usize) -> usize {
        self.of[column]
    }

    /// Width of the widest supernode (0 for an empty partition).
    pub fn max_width(&self) -> usize {
        (0..self.count())
            .map(|s| self.ptr[s + 1] - self.ptr[s])
            .max()
            .unwrap_or(0)
    }
}

/// Whether merging two runs of columns into one `w`-wide panel with
/// `zeros` explicit padding zeros out of `entries` total panel entries is
/// worth it. The tiers mirror the classic relaxed-amalgamation schedule:
/// narrow panels gain so much from blocked kernels that generous padding
/// pays off, wide panels must stay nearly dense.
fn merge_is_worthwhile(w: usize, zeros: usize, entries: usize) -> bool {
    if zeros == 0 {
        return true;
    }
    let frac = zeros as f64 / entries as f64;
    (w <= 4 && frac < 0.9) || (w <= 16 && frac < 0.5) || (w <= 48 && frac < 0.2) || frac < 0.05
}

/// Row lists of the fundamental supernodes, built without a per-column
/// pattern: returns `(rowptr, rows)` with supernode `s`'s ascending list in
/// `rows[rowptr[s]..rowptr[s + 1]]`, its own columns first. Every column
/// `k0 + t` of the supernode has the suffix `list[t..]` as its pattern.
///
/// The list of a supernode is the pattern of its first column `k0`, which
/// is `k0`, the rows of `A`'s column `k0` below the diagonal, and the rows
/// below the children of `k0` in the elimination tree. A child of `k0` is
/// always the last column of its own supernode (an interior column's parent
/// is the next column of the same supernode), so its rows below itself are
/// the tail of that supernode's list past its own columns. Children precede
/// their parents, so one ascending pass over the supernodes sees every
/// child list complete. `l_indptr` holds the exact column counts and sizes
/// each list up front.
///
/// # Errors
///
/// Returns [`SparseError::InvalidStructure`] if a list's length disagrees
/// with its column count, which happens when `a_perm`'s two triangles do
/// not store the same pattern.
pub(crate) fn fundamental_rows(
    a_perm: &CscMatrix,
    snodes: &Supernodes,
    parent: &[Option<usize>],
    l_indptr: &[usize],
) -> Result<(Vec<usize>, Vec<usize>)> {
    let n = a_perm.ncols();
    let nsuper = snodes.count();
    let mut rowptr = Vec::with_capacity(nsuper + 1);
    rowptr.push(0usize);
    for s in 0..nsuper {
        let k0 = snodes.columns(s).start;
        rowptr.push(rowptr[s] + l_indptr[k0 + 1] - l_indptr[k0]);
    }
    // Child supernodes of each supernode, chained through `child_next`.
    let mut child_head = vec![NONE; nsuper];
    let mut child_next = vec![NONE; nsuper];
    for c in 0..nsuper {
        if let Some(p) = parent[snodes.columns(c).end - 1] {
            let s = snodes.containing(p);
            if snodes.columns(s).start == p {
                child_next[c] = child_head[s];
                child_head[s] = c;
            }
        }
    }
    let mut rows = Vec::with_capacity(rowptr[nsuper]);
    let mut mark = vec![NONE; n];
    for s in 0..nsuper {
        let k0 = snodes.columns(s).start;
        let begin = rows.len();
        mark[k0] = s;
        rows.push(k0);
        let (a_rows, _) = a_perm.col(k0);
        for &i in a_rows {
            if i > k0 && mark[i] != s {
                mark[i] = s;
                rows.push(i);
            }
        }
        let mut c = child_head[s];
        while c != NONE {
            for p in rowptr[c] + snodes.columns(c).len()..rowptr[c + 1] {
                let i = rows[p];
                if mark[i] != s {
                    mark[i] = s;
                    rows.push(i);
                }
            }
            c = child_next[c];
        }
        if rows.len() != rowptr[s + 1] {
            return Err(SparseError::InvalidStructure {
                reason: format!(
                    "supernode {s} collects {} rows but its first column counts {}; \
                     the matrix pattern is not structurally symmetric",
                    rows.len() - begin,
                    rowptr[s + 1] - rowptr[s]
                ),
            });
        }
        rows[begin..].sort_unstable();
    }
    Ok((rowptr, rows))
}

/// Relaxed supernode amalgamation.
///
/// Takes the fundamental partition, its row lists (`rowptr`/`rows`, as
/// [`fundamental_rows`] builds them) and the *exact* column pointers
/// `l_indptr`, and greedily merges adjacent supernodes whenever the
/// resulting panel stays dense enough ([`merge_is_worthwhile`]). A merged
/// supernode's list is the union of its members' lists, so its columns are
/// padded to that union with explicit zeros, which buys much wider panels —
/// the quantity that decides how fast the dense-panel numeric phase runs —
/// for a small, bounded amount of extra storage. Returns the merged
/// partition and its row lists in the same `(rowptr, rows)` form.
///
/// Only child→parent merges are considered (`parent[last column of the
/// group] == first column of the next supernode`): that chain is what keeps
/// every *exact* row of a merged column inside the pattern of every later
/// merged column, which in turn guarantees the descendant-scatter containment
/// the numeric phase relies on (a descendant's padded rows must land inside
/// its ancestor's panel pattern). Columns relabelled by an elimination-tree
/// postorder — which `SymbolicCholesky::analyze_permuted` applies first — make
/// such chains plentiful, because a postorder places every parent right
/// after its last child's subtree.
pub(crate) fn amalgamate(
    fundamental: &Supernodes,
    parent: &[Option<usize>],
    l_indptr: &[usize],
    fund_rowptr: &[usize],
    fund_rows: &[usize],
) -> (Supernodes, Vec<usize>, Vec<usize>) {
    let n = l_indptr.len() - 1;
    let mut boundaries = vec![0usize];
    let mut rowptr = vec![0usize];
    // A union never outgrows its members, so the merged lists fit.
    let mut rows: Vec<usize> = Vec::with_capacity(fund_rows.len());
    let mut cur_pattern: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    let mut cur_start = 0usize;
    let mut cur_exact = 0usize;
    for s in 0..fundamental.count() {
        let cols = fundamental.columns(s);
        let s_pattern = &fund_rows[fund_rowptr[s]..fund_rowptr[s + 1]];
        let s_exact: usize = l_indptr[cols.end] - l_indptr[cols.start];
        if s == 0 {
            cur_pattern.extend_from_slice(s_pattern);
            cur_exact = s_exact;
            continue;
        }
        // Candidate: extend the current group with supernode s. The union
        // pattern starts with the merged columns themselves, so the padded
        // panel holds w*M - w*(w-1)/2 entries.
        merged.clear();
        merged.reserve(cur_pattern.len() + s_pattern.len());
        let (mut i, mut j) = (0, 0);
        while i < cur_pattern.len() && j < s_pattern.len() {
            let (a, b) = (cur_pattern[i], s_pattern[j]);
            merged.push(a.min(b));
            i += (a <= b) as usize;
            j += (b <= a) as usize;
        }
        merged.extend_from_slice(&cur_pattern[i..]);
        merged.extend_from_slice(&s_pattern[j..]);

        let w = cols.end - cur_start;
        let entries = w * merged.len() - w * (w - 1) / 2;
        let zeros = entries - (cur_exact + s_exact);
        let chains = parent[cols.start - 1] == Some(cols.start);
        if chains && merge_is_worthwhile(w, zeros, entries) {
            std::mem::swap(&mut cur_pattern, &mut merged);
            cur_exact += s_exact;
        } else {
            boundaries.push(cols.start);
            rows.extend_from_slice(&cur_pattern);
            rowptr.push(rows.len());
            cur_pattern.clear();
            cur_pattern.extend_from_slice(s_pattern);
            cur_start = cols.start;
            cur_exact = s_exact;
        }
    }
    if n > 0 {
        boundaries.push(n);
        rows.extend_from_slice(&cur_pattern);
        rowptr.push(rows.len());
    }
    rows.shrink_to_fit();
    (Supernodes::from_partition(boundaries), rowptr, rows)
}

/// The per-column view of supernode row lists: the column pointers of the
/// factor values (column `k0 + t` of a supernode with an `m`-row list holds
/// `m − t` entries) and each column's start in the list storage
/// (`rowptr[s] + t`, the suffix it reads).
pub(crate) fn column_layout(snodes: &Supernodes, rowptr: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = snodes.boundaries()[snodes.count()];
    let mut l_indptr = Vec::with_capacity(n + 1);
    l_indptr.push(0usize);
    let mut col_rowptr = Vec::with_capacity(n);
    for s in 0..snodes.count() {
        let m = rowptr[s + 1] - rowptr[s];
        for t in 0..snodes.columns(s).len() {
            col_rowptr.push(rowptr[s] + t);
            l_indptr.push(l_indptr[l_indptr.len() - 1] + m - t);
        }
    }
    (l_indptr, col_rowptr)
}

/// Left-looking supernodal numeric factorisation.
///
/// Supernode `s`'s row list is `rows[rowptr[s]..rowptr[s + 1]]` (ascending,
/// its own columns first), which column `k0 + t` reads from position `t`;
/// `l_indptr` lays out the values. `l_data` arrives holding the lower
/// triangle of the permuted input matrix at its positions in `L` and zeros
/// elsewhere (the analysis's scatter map puts them there) and leaves
/// holding `L`.
pub(crate) fn factor_supernodal(
    snodes: &Supernodes,
    l_indptr: &[usize],
    rowptr: &[usize],
    rows: &[usize],
    l_data: &mut [f64],
) -> Result<()> {
    let n = l_indptr.len() - 1;
    let nsuper = snodes.count();

    // Scratch: the widest panel determines the dense buffer; `pos` maps a
    // global row to its local index inside the current panel.
    let mut max_panel = 0usize;
    for s in 0..nsuper {
        let m = rowptr[s + 1] - rowptr[s];
        max_panel = max_panel.max(m * snodes.columns(s).len());
    }
    let mut panel = vec![0.0f64; max_panel];
    let mut pos = vec![0usize; n];
    // Per-supernode descendant lists: `link_head[s]` chains (via `link_next`)
    // the factored supernodes whose below-panel rows reach s's columns next;
    // `frontier[d]` is the index into d's pattern where those rows start.
    let mut link_head = vec![NONE; nsuper];
    let mut link_next = vec![NONE; nsuper];
    let mut frontier = vec![0usize; nsuper];
    // Per-descendant scratch (relative indices and one accumulation column).
    let mut rel: Vec<usize> = Vec::new();
    let mut acc: Vec<f64> = Vec::new();
    // Dense inner loops dispatch to the active vector backend (scalar by
    // default; bit-identical by the no-FMA/independent-lane rules).
    let backend = opera_simd::active();

    // The numeric phase proper: only the pre-sized scratch above may be
    // resized (amortised O(1), cleared per descendant), never fresh buffers.
    // lint: hot(supernodal-numeric)
    for s in 0..nsuper {
        let cols = snodes.columns(s);
        let (k0, k1) = (cols.start, cols.end);
        let w = k1 - k0;
        let pat = &rows[rowptr[s]..rowptr[s + 1]];
        let m = pat.len();
        let d_panel = &mut panel[..m * w];
        d_panel.fill(0.0);
        for (local, &row) in pat.iter().enumerate() {
            pos[row] = local;
        }

        // Load the lower triangle of A's columns k0..k1 into the panel:
        // column jj's rows jj.. are its values in `L`'s layout.
        for (jj, j) in (k0..k1).enumerate() {
            d_panel[jj * m + jj..(jj + 1) * m]
                .copy_from_slice(&l_data[l_indptr[j]..l_indptr[j + 1]]);
        }

        // Apply every pending descendant update, re-queueing each descendant
        // to the supernode its next below-panel row belongs to.
        let mut d = link_head[s];
        link_head[s] = NONE;
        while d != NONE {
            let next_d = link_next[d];
            let dcols = snodes.columns(d);
            let (d0, wd) = (dcols.start, dcols.len());
            let dpat = &rows[rowptr[d]..rowptr[d + 1]];
            let dm = dpat.len();
            let f = frontier[d];

            // Relative indices of the descendant's active rows in the panel,
            // shared by all target columns of this (d, s) pair.
            rel.clear();
            rel.extend(dpat[f..].iter().map(|&r| pos[r]));

            // Target columns of this panel: descendant pattern rows < k1.
            let f_end = f + dpat[f..].partition_point(|&r| r < k1);

            // Update the targets in groups of four. For a group starting at
            // pattern row i1 the contribution is the dense product of the
            // descendant's rows i1..dm with its rows i1..i1+nb — each
            // descendant column t is a contiguous slice of `l_data` (the
            // entry for pattern row i sits at l_indptr[d0+t] + i - t), so
            // one streaming pass over lt[i1..dm] feeds all four accumulator
            // columns (4x less factor traffic than a per-target pass). The
            // upper-triangle corner of the group (row < target) is computed
            // but never scattered.
            let mut i1 = f;
            while i1 < f_end {
                let nb = (f_end - i1).min(4);
                let len = dm - i1;
                acc.clear();
                acc.resize(nb * len, 0.0);
                for t in 0..wd {
                    let lt = &l_data[l_indptr[d0 + t] - t..][..dm];
                    let c = &lt[i1..i1 + nb];
                    let src = &lt[i1..dm];
                    match nb {
                        4 => {
                            let (a0, rest) = acc.split_at_mut(len);
                            let (a1, rest) = rest.split_at_mut(len);
                            let (a2, a3) = rest.split_at_mut(len);
                            opera_simd::axpy4(
                                [a0, a1, a2, a3],
                                src,
                                [c[0], c[1], c[2], c[3]],
                                backend,
                            );
                        }
                        _ => {
                            for (b, &cb) in c.iter().enumerate() {
                                let ab = &mut acc[b * len..(b + 1) * len];
                                opera_simd::axpy(ab, src, cb, backend);
                            }
                        }
                    }
                }
                for b in 0..nb {
                    let col_base = (dpat[i1 + b] - k0) * m;
                    let ab = &acc[b * len..(b + 1) * len];
                    for off in b..len {
                        d_panel[col_base + rel[i1 - f + off]] -= ab[off];
                    }
                }
                i1 += nb;
            }

            // Rows f_end.. lie beyond this panel: hand the descendant on.
            if f_end < dm {
                frontier[d] = f_end;
                let t = snodes.containing(dpat[f_end]);
                link_next[d] = link_head[t];
                link_head[t] = d;
            }
            d = next_d;
        }

        // Dense left-looking Cholesky of the panel: column j first absorbs
        // the rank-1 updates of the panel columns before it (four at a
        // time, so each pass loads four update columns against one
        // register-resident target element), then the `i` loop from the
        // diagonal down both forms the pivot column and applies the
        // triangular solve to the below-diagonal rows.
        for j in 0..w {
            let (left, right) = d_panel.split_at_mut(j * m);
            let jcol = &mut right[..m];
            let mut t = 0;
            while t + 4 <= j {
                let cs = [
                    left[t * m + j],
                    left[(t + 1) * m + j],
                    left[(t + 2) * m + j],
                    left[(t + 3) * m + j],
                ];
                let t0 = &left[t * m + j..(t + 1) * m];
                let t1 = &left[(t + 1) * m + j..(t + 2) * m];
                let t2 = &left[(t + 2) * m + j..(t + 3) * m];
                let t3 = &left[(t + 3) * m + j..(t + 4) * m];
                opera_simd::rank4_sub(&mut jcol[j..m], [t0, t1, t2, t3], cs, backend);
                t += 4;
            }
            while t < j {
                let coef = left[t * m + j];
                let tcol = &left[t * m + j..(t + 1) * m];
                opera_simd::sub_axpy(&mut jcol[j..m], tcol, coef, backend);
                t += 1;
            }
            let pivot = jcol[j];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(SparseError::NotPositiveDefinite {
                    column: k0 + j,
                    pivot,
                });
            }
            let sq = pivot.sqrt();
            jcol[j] = sq;
            opera_simd::div_assign(&mut jcol[j + 1..m], sq, backend);
        }

        // Copy the finished panel into the factor columns.
        for j in 0..w {
            let dst = &mut l_data[l_indptr[k0 + j]..l_indptr[k0 + j + 1]];
            dst.copy_from_slice(&d_panel[j * m + j..(j + 1) * m]);
        }

        // Queue this supernode as a descendant of the supernode owning its
        // first below-panel row.
        if w < m {
            frontier[s] = w;
            let t = snodes.containing(pat[w]);
            link_next[s] = link_head[t];
            link_head[t] = s;
        }
    }
    // lint: end-hot
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_columns_exactly_once() {
        // Tridiagonal chain: parent(j) = j+1 everywhere, counts 2,2,...,2,1 —
        // the count condition only lets the final two columns merge.
        let parent = vec![Some(1), Some(2), Some(3), None];
        let l_indptr = vec![0, 2, 4, 6, 7];
        let sn = Supernodes::from_etree(&parent, &l_indptr);
        let mut seen = [false; 4];
        for s in 0..sn.count() {
            for j in sn.columns(s) {
                assert!(!seen[j], "column {j} in two supernodes");
                seen[j] = true;
                assert_eq!(sn.containing(j), s);
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(sn.columns(sn.count() - 1), 2..4);
    }

    #[test]
    fn dense_trailing_block_forms_one_supernode() {
        // A fully dense factor: counts n, n-1, ..., 1 and a chain etree —
        // one supernode spanning everything.
        let n = 5;
        let parent: Vec<Option<usize>> = (0..n)
            .map(|j| if j + 1 < n { Some(j + 1) } else { None })
            .collect();
        let mut l_indptr = vec![0usize];
        for j in 0..n {
            l_indptr.push(l_indptr[j] + (n - j));
        }
        let sn = Supernodes::from_etree(&parent, &l_indptr);
        assert_eq!(sn.count(), 1);
        assert_eq!(sn.columns(0), 0..n);
        assert_eq!(sn.max_width(), n);
    }

    #[test]
    fn empty_partition_is_valid() {
        let sn = Supernodes::from_etree(&[], &[0]);
        assert_eq!(sn.count(), 0);
        assert_eq!(sn.max_width(), 0);
    }
}
