//! Elimination tree analysis for sparse Cholesky factorisation.

use crate::CscMatrix;

/// Sentinel used internally for "no parent".
const NONE: usize = usize::MAX;

/// Computes the elimination tree of a symmetric matrix given by its (full or
/// upper-triangular) CSC pattern.
///
/// The elimination tree has one node per column; `parent[j]` is the parent of
/// column `j`, or `None` for roots. Column `i` is an ancestor of column `j`
/// (with `i > j`) exactly when eliminating `j` creates fill that reaches `i`.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn elimination_tree(a: &CscMatrix) -> Vec<Option<usize>> {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "elimination tree requires a square matrix");
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        let (rows, _) = a.col(k);
        for &row in rows {
            let mut i = row;
            // Only the upper-triangular part (i < k) drives the tree.
            while i != NONE && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
        .into_iter()
        .map(|p| if p == NONE { None } else { Some(p) })
        .collect()
}

/// Computes a postordering of a forest given by `parent` pointers.
///
/// The returned vector maps postorder position to node index. Children are
/// visited before their parents, which is the order required by supernodal
/// and column-count algorithms (and a valid elimination order equivalent to
/// the original one).
pub fn postorder(parent: &[Option<usize>]) -> Vec<usize> {
    let n = parent.len();
    // Build child lists.
    let mut first_child = vec![NONE; n];
    let mut next_sibling = vec![NONE; n];
    // Insert children in reverse so that traversal visits lower indices first.
    for j in (0..n).rev() {
        if let Some(p) = parent[j] {
            next_sibling[j] = first_child[p];
            first_child[p] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for (root, par) in parent.iter().enumerate().take(n) {
        if par.is_some() {
            continue;
        }
        // Iterative DFS with explicit visit state.
        stack.push((root, false));
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                post.push(node);
            } else {
                stack.push((node, true));
                let mut c = first_child[node];
                // Push children so that the first child is processed first.
                let mut children = Vec::new();
                while c != NONE {
                    children.push(c);
                    c = next_sibling[c];
                }
                for &child in children.iter().rev() {
                    stack.push((child, false));
                }
            }
        }
    }
    post
}

/// Number of nonzeros in each column of the Cholesky factor `L`
/// (including the diagonal).
///
/// Row `k` of `L` is the elimination reach of `A`'s column `k`: the union
/// of the etree paths from each `i < k` with `A(i, k) ≠ 0` up to `k`. Each
/// path is walked until it meets a column already marked for row `k`, and
/// every newly reached column `i` gains the entry `L(k, i)`. One marker
/// array serves every row (a column is marked with the row that visited it
/// last), so the pass allocates nothing beyond the counts and runs in
/// O(|L|) — adequate for the matrix sizes used by the OPERA experiments.
///
/// # Panics
///
/// Panics if `parent.len()` does not match the matrix dimension.
pub fn column_counts(a: &CscMatrix, parent: &[Option<usize>]) -> Vec<usize> {
    let n = a.ncols();
    assert_eq!(parent.len(), n, "parent vector has wrong length");
    let mut counts = vec![1usize; n]; // diagonal entries
    let mut mark = vec![NONE; n];
    for k in 0..n {
        mark[k] = k;
        let (rows, _) = a.col(k);
        for &i0 in rows.iter().filter(|&&i| i < k) {
            let mut i = i0;
            while mark[i] != k {
                // L(k, i) is a nonzero in column i.
                counts[i] += 1;
                mark[i] = k;
                match parent[i] {
                    Some(p) => i = p,
                    None => break,
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// Arrow matrix: dense last row/column, diagonal otherwise.
    fn arrow(n: usize) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
        }
        for i in 0..n - 1 {
            t.push(i, n - 1, 1.0);
            t.push(n - 1, i, 1.0);
        }
        t.to_csc()
    }

    #[test]
    fn etree_of_arrow_matrix_points_to_last_column() {
        let a = arrow(5);
        let parent = elimination_tree(&a);
        for p in parent.iter().take(4) {
            assert_eq!(*p, Some(4));
        }
        assert_eq!(parent[4], None);
    }

    #[test]
    fn etree_of_tridiagonal_is_a_chain() {
        let n = 6;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
        }
        for i in 0..n - 1 {
            t.add_symmetric_pair(i, i + 1, 1.0);
        }
        let parent = elimination_tree(&t.to_csc());
        for (i, p) in parent.iter().enumerate().take(n - 1) {
            assert_eq!(*p, Some(i + 1));
        }
        assert_eq!(parent[n - 1], None);
    }

    #[test]
    fn postorder_visits_children_before_parents() {
        let a = arrow(5);
        let parent = elimination_tree(&a);
        let post = postorder(&parent);
        assert_eq!(post.len(), 5);
        let position: Vec<usize> = {
            let mut pos = vec![0; 5];
            for (i, &node) in post.iter().enumerate() {
                pos[node] = i;
            }
            pos
        };
        for (j, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert!(position[j] < position[*p], "child {j} after parent {p}");
            }
        }
    }

    #[test]
    fn postorder_handles_forest_of_singletons() {
        let parent = vec![None, None, None];
        let post = postorder(&parent);
        assert_eq!(post.len(), 3);
    }

    #[test]
    fn column_counts_of_diagonal_matrix_are_all_one() {
        let a = CscMatrix::identity(4);
        let parent = elimination_tree(&a);
        assert_eq!(column_counts(&a, &parent), vec![1, 1, 1, 1]);
    }

    #[test]
    fn column_counts_of_arrow_matrix() {
        // Ordered with the dense row last, the factor has no fill: each of
        // the first n-1 columns has 2 entries (diag + last row), the last has 1.
        let a = arrow(5);
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        assert_eq!(counts, vec![2, 2, 2, 2, 1]);
    }
}
