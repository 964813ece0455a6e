//! Preconditioned conjugate gradient solver.
//!
//! For the largest power grids (hundreds of thousands of nodes) a direct
//! factorisation can be memory hungry; the paper notes that iterative block
//! solvers with appropriate preconditioners can be used instead. This module
//! provides a standard preconditioned CG for symmetric positive definite
//! systems together with a zero-fill incomplete Cholesky preconditioner;
//! any [`Preconditioner`] plugs in. [`solve_in_place`] is the workspace form: it runs on an
//! implicit [`LinearOperator`], starts from the caller's initial guess and
//! borrows every vector from a [`SolveWorkspace`], so a warm solve loop
//! never touches the allocator; [`solve`] is the allocating convenience.

use crate::{CscMatrix, CsrMatrix, Result, SolveWorkspace, SparseError, TripletMatrix};

/// A symmetric positive definite preconditioner `M ≈ A` applied as `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Writes `z = M⁻¹ r`, borrowing any solve scratch from `ws` (zero heap
    /// allocations once `ws` is warm).
    fn apply_into(&self, r: &[f64], z: &mut [f64], ws: &mut SolveWorkspace);
}

/// An operator applied as `y = A·x`: a stored matrix, or an implicit one
/// such as a sum `G + s·C` that is never assembled. [`solve_in_place`]
/// accepts only square ones.
pub trait LinearOperator {
    /// Number of rows and columns.
    fn shape(&self) -> (usize, usize);

    /// Writes `y = A·x`.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);
}

impl LinearOperator for CsrMatrix {
    fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// Zero-fill incomplete Cholesky preconditioner IC(0).
///
/// The factor keeps exactly the lower-triangular sparsity pattern of `A`.
/// Applying the preconditioner performs one forward and one backward sparse
/// triangular solve.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    l: CscMatrix,
}

impl IncompleteCholesky {
    /// Builds the IC(0) factor of a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] when a pivot becomes
    /// non-positive during the incomplete factorisation (this can happen for
    /// SPD matrices that are not M-matrices; grid matrices are fine).
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                shape: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let lower = a.to_csc().lower_triangle();
        // Column-oriented IC(0): process columns left to right, keeping only
        // positions present in the original lower triangle.
        let indptr = lower.indptr().to_vec();
        let indices = lower.indices().to_vec();
        let mut data = lower.data().to_vec();

        for j in 0..n {
            let start = indptr[j];
            let end = indptr[j + 1];
            if start == end || indices[start] != j {
                return Err(SparseError::InvalidStructure {
                    reason: format!("missing diagonal entry in column {j}"),
                });
            }
            let diag = data[start];
            if diag <= 0.0 {
                return Err(SparseError::NotPositiveDefinite {
                    column: j,
                    pivot: diag,
                });
            }
            let diag_sqrt = diag.sqrt();
            data[start] = diag_sqrt;
            for v in &mut data[start + 1..end] {
                *v /= diag_sqrt;
            }
            // Update the remaining columns k > j restricted to their pattern.
            for p in (start + 1)..end {
                let k = indices[p];
                let ljk = data[p];
                if ljk == 0.0 {
                    continue;
                }
                let kstart = indptr[k];
                let kend = indptr[k + 1];
                // For every entry (i, k) in column k with i >= k, subtract
                // L(i, j) * L(k, j) if (i, j) is in the pattern of column j.
                let mut pj = start + 1;
                for pk in kstart..kend {
                    let i = indices[pk];
                    // advance pj until indices[pj] >= i
                    while pj < end && indices[pj] < i {
                        pj += 1;
                    }
                    if pj < end && indices[pj] == i {
                        data[pk] -= data[pj] * ljk;
                    }
                }
            }
        }
        let l = CscMatrix::from_raw_parts(n, n, indptr, indices, data)?;
        Ok(IncompleteCholesky { l })
    }

    /// The incomplete factor `L` (lower triangular, diagonal first per column).
    pub fn lower(&self) -> &CscMatrix {
        &self.l
    }
}

impl Preconditioner for IncompleteCholesky {
    fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
        z.copy_from_slice(r);
        crate::triangular::solve_lower_csc(&self.l, z);
        crate::triangular::solve_lower_transpose_csc(&self.l, z);
    }
}

/// Options controlling the conjugate gradient iteration.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Relative residual tolerance `‖r‖₂ / ‖b‖₂`.
    pub tolerance: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iterations: 10_000,
            tolerance: 1e-10,
        }
    }
}

/// Outcome of a conjugate gradient solve.
#[derive(Debug, Clone)]
pub struct CgSolution {
    /// The computed solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
}

/// How a converged [`solve_in_place`] got there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
}

/// Solves the SPD system `A·x = b` with preconditioned conjugate gradient,
/// starting from `x = 0`. Allocates the solution and its scratch; loops use
/// [`solve_in_place`].
///
/// # Errors
///
/// Returns [`SparseError::DidNotConverge`] if the relative residual does not
/// fall below `options.tolerance` within `options.max_iterations` iterations,
/// and [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`] for
/// shape problems.
///
/// # Example
///
/// ```
/// use opera_sparse::{cg, CsrMatrix, SolveWorkspace};
///
/// /// Diagonal (Jacobi) preconditioning: `z_i = r_i / a_ii`.
/// struct Jacobi(Vec<f64>);
///
/// impl cg::Preconditioner for Jacobi {
///     fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
///         for ((z, r), d) in z.iter_mut().zip(r).zip(&self.0) {
///             *z = r / d;
///         }
///     }
/// }
///
/// # fn main() -> Result<(), opera_sparse::SparseError> {
/// let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 3.0], 0.0);
/// let sol = cg::solve(
///     &a,
///     &[1.0, 2.0],
///     &Jacobi(a.diagonal()),
///     cg::CgOptions::default(),
/// )?;
/// assert!(a.residual_inf_norm(&sol.x, &[1.0, 2.0]) < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn solve(
    a: &CsrMatrix,
    b: &[f64],
    preconditioner: &impl Preconditioner,
    options: CgOptions,
) -> Result<CgSolution> {
    let mut x = vec![0.0; a.nrows()];
    let stats = solve_in_place(
        a,
        b,
        &mut x,
        preconditioner,
        options,
        &mut SolveWorkspace::new(),
    )?;
    Ok(CgSolution {
        x,
        iterations: stats.iterations,
        relative_residual: stats.relative_residual,
    })
}

/// Preconditioned conjugate gradient on `A·x = b`, starting from the
/// initial guess in `x` and leaving the solution there. The four iterate
/// vectors come from `ws` ([`SolveWorkspace::split`]) and the
/// preconditioner's scratch from the workspace nested in it, so once `ws`
/// is warm a solve performs zero heap allocations.
///
/// Converges when `‖b − A·x‖₂ ≤ tolerance·‖b‖₂`, counting `cg.iterations`,
/// `cg.operator_applies` and `cg.preconditioner_applies` (one each per
/// `A·x` and `M⁻¹·r`, the initial residual's included) and setting the
/// `cg.relative_residual` gauge to the final relative residual, converged
/// or not. An all-`+0.0` guess skips the initial `A·x`: `A·0` is `+0.0`
/// in every row, so the residual is `b` itself, bit for bit. A zero `b`
/// returns `x = 0` at once.
///
/// # Errors
///
/// Returns [`SparseError::DidNotConverge`] with the iterations run and the
/// final relative residual when the tolerance is not met within
/// `options.max_iterations`, [`SparseError::NotPositiveDefinite`] when a
/// search direction has non-positive curvature,
/// [`SparseError::NotSquare`] when `A` is not square, and
/// [`SparseError::DimensionMismatch`] when `b` or `x` disagrees with `A`.
pub fn solve_in_place<A, P>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    preconditioner: &P,
    options: CgOptions,
    ws: &mut SolveWorkspace,
) -> Result<CgStats>
where
    A: LinearOperator + ?Sized,
    P: Preconditioner + ?Sized,
{
    let _span = opera_trace::span("cg.solve");
    let (n, ncols) = a.shape();
    if ncols != n {
        return Err(SparseError::NotSquare { shape: (n, ncols) });
    }
    if b.len() != n || x.len() != n {
        return Err(SparseError::DimensionMismatch {
            op: "cg::solve_in_place",
            left: (n, n),
            right: (b.len(), x.len()),
        });
    }
    let (vectors, inner) = ws.split(4 * n);
    let (r, rest) = vectors.split_at_mut(n);
    let (z, rest) = rest.split_at_mut(n);
    let (p, ap) = rest.split_at_mut(n);

    // r = b − A·x. For a zero guess every `(A·x)_i` is `+0.0` and
    // `b_i − (+0.0)` is `b_i`, `−0.0` included, so r = b.
    if x.iter().all(|xi| xi.to_bits() == 0) {
        r.copy_from_slice(b);
    } else {
        opera_trace::count("cg.operator_applies", 1);
        a.apply_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }
    // Preconditioned before any convergence test, so every solve borrows
    // the same scratch whatever its data: a solve that converges at once
    // still warms the workspace for the ones that iterate. `z` is unused
    // when the loop below never runs.
    opera_trace::count("cg.preconditioner_applies", 1);
    preconditioner.apply_into(r, z, inner);
    let norm_b = dot(b, b).sqrt();
    if norm_b == 0.0 {
        x.fill(0.0);
        return Ok(CgStats {
            iterations: 0,
            relative_residual: 0.0,
        });
    }
    let mut residual = dot(r, r).sqrt() / norm_b;
    let mut iterations = 0;
    if residual >= options.tolerance {
        p.copy_from_slice(z);
        let mut rz = dot(r, z);
        while iterations < options.max_iterations {
            opera_trace::count("cg.iterations", 1);
            opera_trace::count("cg.operator_applies", 1);
            a.apply_into(p, ap);
            let pap = dot(p, ap);
            if pap <= 0.0 {
                return Err(SparseError::NotPositiveDefinite {
                    column: iterations,
                    pivot: pap,
                });
            }
            let alpha = rz / pap;
            // ‖r‖² accumulates as the update writes each `r_i`, in `dot`'s
            // order; no square is −0, so its start value cannot matter.
            let mut rr = 0.0;
            let update = x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(ap.iter()));
            for ((xi, ri), (pi, api)) in update {
                *xi += alpha * pi;
                *ri -= alpha * api;
                rr += *ri * *ri;
            }
            iterations += 1;
            residual = rr.sqrt() / norm_b;
            if residual < options.tolerance {
                break;
            }
            opera_trace::count("cg.preconditioner_applies", 1);
            preconditioner.apply_into(r, z, inner);
            let rz_new = dot(r, z);
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, zi) in p.iter_mut().zip(z.iter()) {
                *pi = zi + beta * *pi;
            }
        }
    }
    opera_trace::gauge_set("cg.relative_residual", residual);
    if residual < options.tolerance {
        Ok(CgStats {
            iterations,
            relative_residual: residual,
        })
    } else {
        Err(SparseError::DidNotConverge {
            iterations,
            residual,
        })
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Builds a small SPD test matrix: 2-D grid Laplacian plus a diagonal shift.
/// Exposed for benches and doc-tests of downstream crates.
pub fn laplacian_2d(nx: usize, ny: usize, shift: f64) -> CsrMatrix {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut t = TripletMatrix::new(n, n);
    for y in 0..ny {
        for x in 0..nx {
            t.push(idx(x, y), idx(x, y), shift);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity preconditioner (plain CG).
    struct IdentityPreconditioner;

    impl Preconditioner for IdentityPreconditioner {
        fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
            z.copy_from_slice(r);
        }
    }

    /// Diagonal (Jacobi) preconditioning from a matrix's diagonal.
    struct Jacobi(Vec<f64>);

    impl Preconditioner for Jacobi {
        fn apply_into(&self, r: &[f64], z: &mut [f64], _ws: &mut SolveWorkspace) {
            for ((z, r), d) in z.iter_mut().zip(r).zip(&self.0) {
                *z = r / d;
            }
        }
    }

    #[test]
    fn non_square_operators_are_rejected_not_panicked_on() {
        let a = CsrMatrix::from_dense(3, 4, &[1.0; 12], 0.0);
        let mut x = vec![0.0; 3];
        let err = solve_in_place(
            &a,
            &[1.0; 3],
            &mut x,
            &IdentityPreconditioner,
            CgOptions::default(),
            &mut SolveWorkspace::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { shape: (3, 4) }));
        let err = solve(&a, &[1.0; 3], &IdentityPreconditioner, CgOptions::default()).unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { shape: (3, 4) }));
    }

    #[test]
    fn plain_cg_solves_small_system() {
        let a = laplacian_2d(5, 5, 0.3);
        let x_true: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.2).cos()).collect();
        let b = a.matvec(&x_true);
        let sol = solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        assert!(a.residual_inf_norm(&sol.x, &b) < 1e-8);
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations() {
        // Badly scaled diagonal makes plain CG slow; Jacobi fixes the scaling.
        let n = 50;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0 + 1000.0 * (i as f64 / n as f64));
            if i + 1 < n {
                t.add_symmetric_pair(i, i + 1, 0.3);
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let plain = solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let jacobi = solve(&a, &b, &Jacobi(a.diagonal()), CgOptions::default()).unwrap();
        assert!(jacobi.iterations <= plain.iterations);
        assert!(a.residual_inf_norm(&jacobi.x, &b) < 1e-6);
    }

    #[test]
    fn incomplete_cholesky_preconditioner_converges_fast_on_grid() {
        let a = laplacian_2d(12, 12, 0.05);
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 13 % 7) as f64) - 3.0)
            .collect();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let plain = solve(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let pre = solve(&a, &b, &ic, CgOptions::default()).unwrap();
        assert!(pre.iterations < plain.iterations);
        assert!(a.residual_inf_norm(&pre.x, &b) < 1e-7);
    }

    #[test]
    fn ic0_is_exact_for_tridiagonal_matrices() {
        // A tridiagonal SPD matrix has no fill, so IC(0) equals the exact
        // Cholesky factor and PCG converges in very few iterations.
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.5);
            if i + 1 < n {
                t.add_symmetric_pair(i, i + 1, 1.0);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let ic = IncompleteCholesky::new(&a).unwrap();
        let sol = solve(&a, &b, &ic, CgOptions::default()).unwrap();
        assert!(sol.iterations <= 3, "took {} iterations", sol.iterations);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = laplacian_2d(4, 4, 1.0);
        let sol = solve(
            &a,
            &vec![0.0; a.nrows()],
            &IdentityPreconditioner,
            CgOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn non_convergence_is_reported() {
        let a = laplacian_2d(10, 10, 0.01);
        // A non-smooth right-hand side so CG genuinely needs many iterations
        // (a constant vector is an eigenvector of the shifted Laplacian and
        // would converge in a single step).
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 37 % 11) as f64) - 5.0)
            .collect();
        let result = solve(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                max_iterations: 2,
                tolerance: 1e-14,
            },
        );
        let Err(SparseError::DidNotConverge {
            iterations,
            residual,
        }) = result
        else {
            panic!("expected DidNotConverge, got {result:?}");
        };
        assert_eq!(iterations, 2);
        assert!(residual > 1e-14 && residual.is_finite(), "{residual}");
    }

    #[test]
    fn workspace_form_starts_from_the_guess_and_stops_allocating_once_warm() {
        let a = laplacian_2d(8, 8, 0.1);
        let x_true: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.matvec(&x_true);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let options = CgOptions::default();
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; a.nrows()];
        let cold = solve_in_place(&a, &b, &mut x, &ic, options, &mut ws).unwrap();
        assert!(cold.iterations > 0);
        assert!(a.residual_inf_norm(&x, &b) < 1e-8);
        // The allocating form runs the same iteration from a zero guess.
        let reference = solve(&a, &b, &ic, options).unwrap();
        assert_eq!(reference.x, x);
        assert_eq!(reference.iterations, cold.iterations);
        // A guess near the solution needs fewer iterations, and a warm
        // workspace allocates nothing.
        let warm = ws.allocation_count();
        for (xi, ti) in x.iter_mut().zip(&x_true) {
            *xi = ti + 1e-6;
        }
        let near = solve_in_place(&a, &b, &mut x, &ic, options, &mut ws).unwrap();
        assert!(near.iterations < cold.iterations);
        assert!(near.relative_residual < options.tolerance);
        assert_eq!(ws.allocation_count(), warm);
        // A right-hand side of the wrong length is an error, not a panic.
        assert!(solve_in_place(&a, &b[1..], &mut x, &ic, options, &mut ws).is_err());
    }

    /// Jacobi applied through a workspace buffer, like a factor-based
    /// preconditioner borrowing its solve scratch.
    struct ScratchJacobi(Jacobi);

    impl Preconditioner for ScratchJacobi {
        fn apply_into(&self, r: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
            let tmp = ws.scratch(r.len());
            self.0.apply_into(r, tmp, &mut SolveWorkspace::new());
            z.copy_from_slice(tmp);
        }
    }

    #[test]
    fn a_solve_that_converges_at_once_still_warms_the_preconditioner_scratch() {
        let a = laplacian_2d(6, 6, 0.2);
        let x_true: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = a.matvec(&x_true);
        let pre = ScratchJacobi(Jacobi(a.diagonal()));
        let options = CgOptions::default();
        let mut ws = SolveWorkspace::new();
        let mut x = x_true.clone();
        let exact = solve_in_place(&a, &b, &mut x, &pre, options, &mut ws).unwrap();
        assert_eq!(exact.iterations, 0);
        assert_eq!(x, x_true);
        let warm = ws.allocation_count();
        x.fill(0.0);
        let iterated = solve_in_place(&a, &b, &mut x, &pre, options, &mut ws).unwrap();
        assert!(iterated.iterations > 0);
        assert_eq!(ws.allocation_count(), warm);
    }

    /// Counts its own applications.
    struct Counting<T> {
        inner: T,
        applies: std::cell::Cell<u64>,
    }

    impl<T> Counting<T> {
        fn new(inner: T) -> Self {
            Counting {
                inner,
                applies: std::cell::Cell::new(0),
            }
        }
    }

    impl<T: LinearOperator> LinearOperator for Counting<T> {
        fn shape(&self) -> (usize, usize) {
            self.inner.shape()
        }

        fn apply_into(&self, x: &[f64], y: &mut [f64]) {
            self.applies.set(self.applies.get() + 1);
            self.inner.apply_into(x, y);
        }
    }

    impl<T: Preconditioner> Preconditioner for Counting<T> {
        fn apply_into(&self, r: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
            self.applies.set(self.applies.get() + 1);
            self.inner.apply_into(r, z, ws);
        }
    }

    /// A zero guess skips the initial operator application and solves bit
    /// for bit as a `−0.0` guess, which takes it.
    #[test]
    fn a_zero_guess_takes_its_residual_from_b_bit_identically() {
        let a = Counting::new(laplacian_2d(9, 7, 0.05));
        let pre = Jacobi(a.inner.diagonal());
        let n = a.inner.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut ws = SolveWorkspace::new();
        let mut solve = |guess: f64| {
            a.applies.set(0);
            let mut x = vec![guess; n];
            let stats = solve_in_place(&a, &b, &mut x, &pre, CgOptions::default(), &mut ws);
            (x, stats.unwrap(), a.applies.get())
        };
        let (x_zero, zero, zero_applies) = solve(0.0);
        let (x_negative, negative, negative_applies) = solve(-0.0);
        assert_eq!(zero_applies + 1, negative_applies);
        assert_eq!(zero.iterations, negative.iterations);
        assert_eq!(
            zero.relative_residual.to_bits(),
            negative.relative_residual.to_bits()
        );
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x_zero), bits(&x_negative));
    }

    /// `cg.operator_applies` and `cg.preconditioner_applies` count exactly
    /// the applications the solve makes — the initial residual's included
    /// unless the guess is zero — for an iterated solve from a zero guess,
    /// a solve that converges at once and a zero right-hand side.
    #[test]
    fn work_counters_count_every_operator_and_preconditioner_application() {
        let _guard = opera_trace::test_guard();
        let a = Counting::new(laplacian_2d(9, 7, 0.05));
        let pre = Counting::new(Jacobi(a.inner.diagonal()));
        let n = a.inner.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let b = a.inner.matvec(&x_true);
        let mut ws = SolveWorkspace::new();
        for (guess, rhs) in [
            (vec![0.0; n], b.clone()),
            (x_true.clone(), b.clone()),
            (x_true.clone(), vec![0.0; n]),
        ] {
            a.applies.set(0);
            pre.applies.set(0);
            let x_guess_was_nonzero = guess.iter().any(|&v| v != 0.0);
            let mut x = guess;
            opera_trace::reset();
            opera_trace::enable();
            let stats = solve_in_place(&a, &rhs, &mut x, &pre, CgOptions::default(), &mut ws);
            let snapshot = opera_trace::drain();
            opera_trace::disable();
            let iterations = stats.unwrap().iterations as u64;
            assert_eq!(snapshot.counter("cg.iterations"), iterations);
            assert_eq!(snapshot.counter("cg.operator_applies"), a.applies.get());
            assert_eq!(
                snapshot.counter("cg.preconditioner_applies"),
                pre.applies.get()
            );
            // One of each for the initial residual (no operator for a zero
            // guess, whose residual is `b`), then one operator per
            // iteration and one preconditioner per iteration that did not
            // converge.
            let initial = u64::from(x_guess_was_nonzero);
            assert_eq!(a.applies.get(), initial + iterations);
            assert_eq!(pre.applies.get(), iterations.max(1));
        }
    }
}
