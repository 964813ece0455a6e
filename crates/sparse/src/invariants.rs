//! Structural-invariant validators for the sparse kernels.
//!
//! The factorization and solve kernels index straight into their arrays on
//! the strength of three structural invariants:
//!
//! 1. **CSC structure** — monotone `indptr`, strictly ascending in-bounds
//!    row indices per column, finite values ([`validate_csc_slices`]);
//! 2. **postorder** — the elimination-tree relabelling is a permutation
//!    that lists every vertex after all of its children
//!    ([`validate_postorder`]);
//! 3. **supernode containment** — a supernode spanning columns `k0..k1`
//!    stores one row list that starts with its own columns and ascends,
//!    and column `k0 + t` holds exactly as many values as the suffix from
//!    position `t` has rows ([`validate_supernode_containment`]) — the
//!    suffix property that lets the numeric phase address descendant
//!    columns as contiguous `l_data` slices (`l_indptr[d0 + t] - t`) and the
//!    triangular solves read each column's rows from its supernode's list.
//!
//! A violation of any of these turns into silent out-of-bounds panics or —
//! worse — quietly wrong numerics deep in the numeric phase, far from the
//! code that introduced it. The validators below are *always compiled*
//! (tests and external tools can call them on arbitrary slices); the
//! `strict-invariants` cargo feature additionally wires them into the
//! checked constructors ([`CscMatrix::from_raw_parts`],
//! [`CscMatrix::permute_symmetric`], the symbolic analysis) so every
//! construction in a test run is revalidated at the boundary.
//!
//! [`CscMatrix::from_raw_parts`]: crate::CscMatrix::from_raw_parts
//! [`CscMatrix::permute_symmetric`]: crate::CscMatrix::permute_symmetric

use crate::{Result, SparseError};

fn invalid(reason: String) -> SparseError {
    SparseError::InvalidStructure { reason }
}

/// Validates CSC (or, transposed, CSR) storage: `indptr` must be a
/// monotone ramp from 0 to `indices.len()` with one entry per column plus
/// one, every column's row indices must be strictly ascending and within
/// `0..nrows`, and every stored value must be finite.
///
/// # Errors
///
/// Returns [`SparseError::InvalidStructure`] naming the first offending
/// column/entry.
pub fn validate_csc_slices(
    nrows: usize,
    ncols: usize,
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
) -> Result<()> {
    if indptr.len() != ncols + 1 {
        return Err(invalid(format!(
            "indptr has {} entries, expected ncols + 1 = {}",
            indptr.len(),
            ncols + 1
        )));
    }
    if indptr[0] != 0 {
        return Err(invalid(format!("indptr[0] is {}, expected 0", indptr[0])));
    }
    if indptr[ncols] != indices.len() {
        return Err(invalid(format!(
            "indptr[ncols] is {} but there are {} stored indices",
            indptr[ncols],
            indices.len()
        )));
    }
    if data.len() != indices.len() {
        return Err(invalid(format!(
            "{} values for {} stored indices",
            data.len(),
            indices.len()
        )));
    }
    for j in 0..ncols {
        let (lo, hi) = (indptr[j], indptr[j + 1]);
        if lo > hi {
            return Err(invalid(format!(
                "indptr is not monotone at column {j}: {lo} > {hi}"
            )));
        }
        let rows = &indices[lo..hi];
        for (k, &i) in rows.iter().enumerate() {
            if i >= nrows {
                return Err(invalid(format!(
                    "row index {i} out of bounds (nrows = {nrows}) in column {j}"
                )));
            }
            if k > 0 && rows[k - 1] >= i {
                return Err(invalid(format!(
                    "row indices of column {j} are not strictly ascending: \
                     {} then {i}",
                    rows[k - 1]
                )));
            }
        }
    }
    if let Some(k) = data.iter().position(|v| !v.is_finite()) {
        return Err(invalid(format!(
            "non-finite value {} at storage position {k}",
            data[k]
        )));
    }
    Ok(())
}

/// Validates a postorder `post` of the elimination forest `parent`:
/// `post[k]` is the vertex visited `k`-th, every vertex is visited exactly
/// once, and every vertex is visited *after* all of its children (i.e.
/// before its parent).
///
/// # Errors
///
/// Returns [`SparseError::InvalidStructure`] naming the first vertex
/// visited out of order, or the duplicated/missing vertex.
pub fn validate_postorder(post: &[usize], parent: &[Option<usize>]) -> Result<()> {
    let n = parent.len();
    if post.len() != n {
        return Err(invalid(format!(
            "postorder visits {} vertices, forest has {n}",
            post.len()
        )));
    }
    // `position[v]` = when vertex v is visited.
    let mut position = vec![usize::MAX; n];
    for (k, &v) in post.iter().enumerate() {
        if v >= n {
            return Err(invalid(format!(
                "postorder visits vertex {v}, forest has {n}"
            )));
        }
        if position[v] != usize::MAX {
            return Err(invalid(format!("postorder visits vertex {v} twice")));
        }
        position[v] = k;
    }
    for (v, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            if p >= n {
                return Err(invalid(format!(
                    "vertex {v} has out-of-bounds parent {p} (forest has {n})"
                )));
            }
            if position[v] >= position[p] {
                return Err(invalid(format!(
                    "postorder visits vertex {v} at {} but its parent {p} \
                     earlier, at {}",
                    position[v], position[p]
                )));
            }
        }
    }
    Ok(())
}

/// Validates the supernode-containment invariant of a factor pattern
/// stored once per supernode. For every supernode spanning columns
/// `k0..k1` (given by the `boundaries` list, `boundaries[s]..boundaries[s +
/// 1]`), its row list `rows[rowptr[s]..rowptr[s + 1]]` must start with the
/// panel diagonal (`list[t] == k0 + t` for the panel rows), be strictly
/// ascending and in bounds, and every column `k0 + t` must hold
/// `l_indptr[k0 + t + 1] − l_indptr[k0 + t] = len − t` values — the suffix
/// of the list it reads. This is the property the supernodal numeric phase
/// and the triangular solves rely on to address columns as contiguous
/// slices.
///
/// # Errors
///
/// Returns [`SparseError::InvalidStructure`] naming the first supernode
/// and column where containment is broken.
pub fn validate_supernode_containment(
    boundaries: &[usize],
    rowptr: &[usize],
    rows: &[usize],
    l_indptr: &[usize],
) -> Result<()> {
    let Some(&n) = boundaries.last() else {
        return Err(invalid("empty supernode boundary list".to_string()));
    };
    if boundaries[0] != 0 {
        return Err(invalid(format!(
            "supernode boundaries start at {}, expected 0",
            boundaries[0]
        )));
    }
    if l_indptr.len() != n + 1 {
        return Err(invalid(format!(
            "factor indptr has {} entries for {n} columns",
            l_indptr.len()
        )));
    }
    let nsuper = boundaries.len() - 1;
    if rowptr.len() != nsuper + 1 || rowptr[nsuper] > rows.len() {
        return Err(invalid(format!(
            "row-list pointers have {} entries for {nsuper} supernodes, or \
             end past the {} stored rows",
            rowptr.len(),
            rows.len()
        )));
    }
    for s in 0..nsuper {
        let (k0, k1) = (boundaries[s], boundaries[s + 1]);
        if k0 >= k1 || k1 > n {
            return Err(invalid(format!(
                "supernode {s} spans invalid column range {k0}..{k1}"
            )));
        }
        if rowptr[s] > rowptr[s + 1] {
            return Err(invalid(format!(
                "supernode {s}: row-list pointers decrease ({} > {})",
                rowptr[s],
                rowptr[s + 1]
            )));
        }
        let list = &rows[rowptr[s]..rowptr[s + 1]];
        let m = list.len();
        let w = k1 - k0;
        if m < w {
            return Err(invalid(format!(
                "supernode {s} is {w} columns wide but its row list has only \
                 {m} rows"
            )));
        }
        for (t, &row) in list[..w].iter().enumerate() {
            if row != k0 + t {
                return Err(invalid(format!(
                    "supernode {s}: row list entry {t} is {row} instead of the \
                     panel diagonal {}",
                    k0 + t
                )));
            }
        }
        if let Some(p) = (1..m).find(|&p| list[p] <= list[p - 1] || list[p] >= n) {
            return Err(invalid(format!(
                "supernode {s}: row list entry {p} ({}) is not strictly \
                 ascending within 0..{n}",
                list[p]
            )));
        }
        for t in 0..w {
            let j = k0 + t;
            if l_indptr[j + 1].checked_sub(l_indptr[j]) != Some(m - t) {
                return Err(invalid(format!(
                    "supernode {s}: column {j} spans values {}..{} but reads \
                     the {}-row suffix of its supernode's list",
                    l_indptr[j],
                    l_indptr[j + 1],
                    m - t
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_csc_passes() {
        // 2x2: col 0 = rows {0,1}, col 1 = row {1}.
        assert!(validate_csc_slices(2, 2, &[0, 2, 3], &[0, 1, 1], &[1.0, 2.0, 3.0]).is_ok());
    }

    #[test]
    fn postorder_of_a_chain() {
        // 0 -> 1 -> 2 (parent pointers), postorder must visit 0,1,2.
        let parent = [Some(1), Some(2), None];
        assert!(validate_postorder(&[0, 1, 2], &parent).is_ok());
        assert!(validate_postorder(&[2, 1, 0], &parent).is_err());
    }

    #[test]
    fn containment_of_a_two_column_supernode() {
        // Columns 0,1 read {0,1,2}/{1,2} from one list; column 2 is {2}.
        let (rowptr, rows) = ([0, 3, 4], [0, 1, 2, 2]);
        let l_indptr = [0, 3, 5, 6];
        assert!(validate_supernode_containment(&[0, 2, 3], &rowptr, &rows, &l_indptr).is_ok());
    }
}
