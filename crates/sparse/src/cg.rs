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
/// preconditioner's scratch from the workspace nested in it, which every
/// solve sizes to `n` values up front: once `ws` is warm, a solve whose
/// preconditioner borrows at most `n` values performs zero heap
/// allocations, whether or not it iterates.
///
/// Converges when `‖b − A·x‖₂ ≤ tolerance·‖b‖₂`, counting `cg.iterations`,
/// `cg.operator_applies` and `cg.preconditioner_applies` (one each per
/// `A·x` and `M⁻¹·r`, the initial residual's `A·x` included) and
/// `cg.converged_on_guess` when the guess already meets the tolerance, and
/// setting the `cg.relative_residual` gauge to the final relative
/// residual, converged or not. The guess's residual is tested before any
/// preconditioner apply, so a solve that converges on its guess costs one
/// `A·x` and returns `x` untouched. An all-`+0.0` guess skips the initial
/// `A·x`: `A·0` is `+0.0` in every row, so the residual is `b` itself, bit
/// for bit. A zero `b` returns `x = 0` at once.
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
    let n = checked_dim(a, b, x, "cg::solve_in_place")?;
    let (vectors, inner) = ws.split(4 * n);
    residual_into(a, b, x, &mut vectors[..n]);
    iterate(a, b, x, preconditioner, options, vectors, inner)
}

/// The dimension of a square `a` that `b` and `x` agree with.
fn checked_dim<A>(a: &A, b: &[f64], x: &[f64], op: &'static str) -> Result<usize>
where
    A: LinearOperator + ?Sized,
{
    let (n, ncols) = a.shape();
    if ncols != n {
        return Err(SparseError::NotSquare { shape: (n, ncols) });
    }
    if b.len() != n || x.len() != n {
        return Err(SparseError::DimensionMismatch {
            op,
            left: (n, n),
            right: (b.len(), x.len()),
        });
    }
    Ok(n)
}

/// `r = b − A·x`. For a zero guess every `(A·x)_i` is `+0.0` and
/// `b_i − (+0.0)` is `b_i`, `−0.0` included, so r = b without an `A·x`.
fn residual_into<A>(a: &A, b: &[f64], x: &[f64], r: &mut [f64])
where
    A: LinearOperator + ?Sized,
{
    if x.iter().all(|xi| xi.to_bits() == 0) {
        r.copy_from_slice(b);
    } else {
        opera_trace::count("cg.operator_applies", 1);
        a.apply_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }
}

/// The PCG iteration from `x`, whose residual `b − A·x` is in
/// `vectors[..n]`; the rest of `vectors` (`3n` values) is scratch.
fn iterate<A, P>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    preconditioner: &P,
    options: CgOptions,
    vectors: &mut [f64],
    inner: &mut SolveWorkspace,
) -> Result<CgStats>
where
    A: LinearOperator + ?Sized,
    P: Preconditioner + ?Sized,
{
    let n = b.len();
    let (r, rest) = vectors.split_at_mut(n);
    let (z, rest) = rest.split_at_mut(n);
    let (p, ap) = rest.split_at_mut(n);
    // Sized before the convergence test, so a solve that converges on its
    // guess, and applies no preconditioner, still warms the scratch the
    // solves that iterate borrow.
    inner.scratch(n);
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
    if residual < options.tolerance {
        opera_trace::count("cg.converged_on_guess", 1);
    } else {
        opera_trace::count("cg.preconditioner_applies", 1);
        preconditioner.apply_into(r, z, inner);
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

/// How many directions a [`GuessBasis`] holds before it restarts. Each
/// costs one `n`-vector, so a basis holds `GUESS_DIRECTIONS · n` values
/// once used.
pub const GUESS_DIRECTIONS: usize = 16;

/// Earlier solutions of a sequence of solves with one SPD operator `A` and
/// changing right-hand sides, kept as directions `q_1 … q_m` that are
/// `A`-orthonormal (`q_iᵀ·A·q_j = δ_ij`), so that each solve of
/// [`GuessBasis::solve_in_place`] starts from the best guess in their span
/// in the `A`-norm, `x₀ = Σ (q_iᵀ·b)·q_i`, which needs `b` and the
/// directions only (Fischer 1998, "Projection techniques for iterative
/// solution of Ax = b with successive right-hand sides", *CMAME* 163).
///
/// The first solve seeds the basis with the state the caller passes in
/// `x`, and every solve that iterates adds the part of its correction
/// `x − x₀` that is `A`-orthogonal to the basis, so the span holds the
/// latest solution to rounding: a guess is never worse in the `A`-norm
/// than starting from that solution. When [`GUESS_DIRECTIONS`] are held, the
/// next solve restarts the basis from the state in `x`, as the first did.
///
/// The directions' storage is allocated by the first solve, so a basis
/// that is never used costs nothing; later solves allocate nothing.
#[derive(Debug, Default)]
pub struct GuessBasis {
    /// The held directions, `n` values each, then free slots:
    /// `GUESS_DIRECTIONS · n` values once used.
    directions: Vec<f64>,
    /// How many directions are held.
    held: usize,
}

impl GuessBasis {
    /// An empty basis; its storage is allocated by the first solve.
    pub fn new() -> Self {
        GuessBasis::default()
    }

    /// Solves `A·x = b` by [`solve_in_place`] from the projection of `b`
    /// onto the basis, then adds the solve's correction to the basis. On
    /// entry `x` holds the latest solution of the sequence (the state of
    /// the previous step), which seeds an empty or full basis and is the
    /// guess of that solve; otherwise it is overwritten by the
    /// projection. `A` must be the same operator for every solve of one
    /// basis.
    ///
    /// Counts what [`solve_in_place`] counts, plus one `cg.operator_applies`
    /// per solve that iterated (the correction's exact `A·δ`, which its
    /// `A`-orthogonalisation needs), and sets the `cg.guess_directions`
    /// gauge to the directions held afterwards.
    ///
    /// # Errors
    ///
    /// Those of [`solve_in_place`], and
    /// [`SparseError::DimensionMismatch`] when `A` has another dimension
    /// than the basis's earlier solves.
    pub fn solve_in_place<A, P>(
        &mut self,
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
        let op = "cg::GuessBasis::solve_in_place";
        let n = checked_dim(a, b, x, op)?;
        if self.directions.is_empty() {
            self.directions = vec![0.0; GUESS_DIRECTIONS * n];
        }
        if self.directions.len() != GUESS_DIRECTIONS * n {
            return Err(SparseError::DimensionMismatch {
                op,
                left: (n, n),
                right: (self.directions.len() / GUESS_DIRECTIONS, 1),
            });
        }
        if self.held == GUESS_DIRECTIONS {
            self.held = 0;
        }
        let (vectors, inner) = ws.split(4 * n);
        let seeding = self.held == 0;
        if !seeding {
            self.project(b, x);
        }
        residual_into(a, b, x, &mut vectors[..n]);
        if seeding {
            self.seed(x, b, &vectors[..n]);
        }
        // The guess waits in the first free slot for the correction.
        self.directions[self.held * n..][..n].copy_from_slice(x);
        let stats = iterate(a, b, x, preconditioner, options, vectors, inner)?;
        if stats.iterations > 0 {
            self.extend(a, x, &mut vectors[..n]);
        }
        opera_trace::gauge_set("cg.guess_directions", self.held as f64);
        Ok(stats)
    }

    /// `x = Σ (q_iᵀ·b)·q_i`.
    fn project(&self, b: &[f64], x: &mut [f64]) {
        let n = b.len();
        let held = &self.directions[..self.held * n];
        let mut weights = [0.0; GUESS_DIRECTIONS];
        dots_into(held, b, &mut weights[..self.held]);
        x.fill(0.0);
        add_combination(held, &weights[..self.held], x);
    }

    /// Makes `v / ‖v‖_A` the first direction, with `vᵀ·A·v = vᵀ·(b − r)`
    /// from the residual `r = b − A·v` the solve takes anyway. The
    /// subtraction `b − r` rounds each `(A·v)_i` by up to `ε·|b_i|`, so a
    /// `v` whose `A`-norm² is not well above `Σ |v_i·b_i|·√ε` is not kept.
    fn seed(&mut self, v: &[f64], b: &[f64], r: &[f64]) {
        let (mut vav, mut scale) = (0.0, 0.0);
        for ((vi, bi), ri) in v.iter().zip(b).zip(r) {
            vav += vi * (bi - ri);
            scale += (vi * bi).abs();
        }
        if vav > f64::EPSILON.sqrt() * scale && vav.is_finite() {
            let norm = vav.sqrt();
            for (q, vi) in self.directions.iter_mut().zip(v) {
                *q = vi / norm;
            }
            self.held = 1;
        }
    }

    /// Adds the correction `δ = x − x₀` (`x₀` waits in the first free
    /// slot), `A`-orthogonalised against the held directions with its exact
    /// `A·δ` (written to `ad`) and `A`-normalised. A correction that
    /// orthogonalisation cancels to below `√ε` of its `A`-norm is rounding,
    /// not a direction, and is dropped.
    fn extend<A>(&mut self, a: &A, x: &[f64], ad: &mut [f64])
    where
        A: LinearOperator + ?Sized,
    {
        let n = x.len();
        let (held, free) = self.directions.split_at_mut(self.held * n);
        let delta = &mut free[..n];
        for (d, xi) in delta.iter_mut().zip(x) {
            *d = xi - *d;
        }
        opera_trace::count("cg.operator_applies", 1);
        a.apply_into(delta, ad);
        let norm_before = dot(delta, ad);
        let mut weights = [0.0; GUESS_DIRECTIONS];
        dots_into(held, ad, &mut weights[..self.held]);
        for w in &mut weights[..self.held] {
            *w = -*w;
        }
        add_combination(held, &weights[..self.held], delta);
        // δ'ᵀ·A·δ' = δ'ᵀ·A·δ once δ' is A-orthogonal to every q_i.
        let norm = dot(delta, ad);
        if norm > f64::EPSILON * norm_before && norm.is_finite() {
            let scale = norm.sqrt();
            for d in delta.iter_mut() {
                *d /= scale;
            }
            self.held += 1;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Rows of a [`GuessBasis`] that one pass over a vector serves.
const ROWS: usize = 4;

/// `out[i] = q_iᵀ·y` for the `n`-value rows `q_i` of `rows`, each summed in
/// ascending element order; four rows share one pass over `y`, so their
/// independent sums overlap instead of each waiting on its own additions.
fn dots_into(rows: &[f64], y: &[f64], out: &mut [f64]) {
    let n = y.len();
    for (block, out) in rows.chunks(ROWS * n).zip(out.chunks_mut(ROWS)) {
        // A short last block pads its missing rows with `y`.
        let mut qs = [y; ROWS];
        for (q, row) in qs.iter_mut().zip(block.chunks_exact(n)) {
            *q = row;
        }
        let [q0, q1, q2, q3] = qs;
        let mut sums = [0.0; ROWS];
        for ((((yi, a), b), c), d) in y.iter().zip(q0).zip(q1).zip(q2).zip(q3) {
            sums[0] += a * yi;
            sums[1] += b * yi;
            sums[2] += c * yi;
            sums[3] += d * yi;
        }
        out.copy_from_slice(&sums[..out.len()]);
    }
}

/// `y += Σ w_i·q_i` for the `n`-value rows `q_i` of `rows`, four rows per
/// pass over `y`: `y_e += ((w_0·q_0e + w_1·q_1e) + w_2·q_2e) + w_3·q_3e`.
fn add_combination(rows: &[f64], weights: &[f64], y: &mut [f64]) {
    let n = y.len();
    for (block, weights) in rows.chunks(ROWS * n).zip(weights.chunks(ROWS)) {
        // A short last block pads its missing rows with weight zero.
        let mut qs = [&block[..n]; ROWS];
        for (q, row) in qs.iter_mut().zip(block.chunks_exact(n)) {
            *q = row;
        }
        let mut w = [0.0; ROWS];
        w[..weights.len()].copy_from_slice(weights);
        let [q0, q1, q2, q3] = qs;
        for ((((ye, a), b), c), d) in y.iter_mut().zip(q0).zip(q1).zip(q2).zip(q3) {
            *ye += w[0] * a + w[1] * b + w[2] * c + w[3] * d;
        }
    }
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

    /// A guess that already meets the tolerance comes back bit for bit
    /// after one operator and no preconditioner application, and its solve
    /// still warms the scratch the preconditioner of a later solve borrows.
    #[test]
    fn a_guess_that_meets_the_tolerance_is_returned_bit_for_bit_and_warms_the_scratch() {
        let a = Counting::new(laplacian_2d(6, 6, 0.2));
        let n = a.inner.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = a.inner.matvec(&x_true);
        let pre = Counting::new(ScratchJacobi(Jacobi(a.inner.diagonal())));
        let options = CgOptions::default();
        let mut ws = SolveWorkspace::new();
        let mut x = x_true.clone();
        let exact = solve_in_place(&a, &b, &mut x, &pre, options, &mut ws).unwrap();
        assert_eq!(exact.iterations, 0);
        assert_eq!(bits(&x), bits(&x_true));
        assert_eq!((a.applies.get(), pre.applies.get()), (1, 0));
        let warm = ws.allocation_count();
        x.fill(0.0);
        let iterated = solve_in_place(&a, &b, &mut x, &pre, options, &mut ws).unwrap();
        assert!(iterated.iterations > 0);
        assert_eq!(ws.allocation_count(), warm);
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
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
        assert_eq!(bits(&x_zero), bits(&x_negative));
    }

    /// `cg.operator_applies` and `cg.preconditioner_applies` count exactly
    /// the applications the solve makes — the initial residual's included
    /// unless the guess is zero — and `cg.converged_on_guess` the solves
    /// that need no iteration, for an iterated solve from a zero guess, a
    /// solve that converges at once and a zero right-hand side.
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
            // One operator for the initial residual (none for a zero guess,
            // whose residual is `b`) and one per iteration; one
            // preconditioner for a residual that fails the tolerance and
            // one per iteration that did not converge.
            let initial = u64::from(x_guess_was_nonzero);
            assert_eq!(a.applies.get(), initial + iterations);
            assert_eq!(pre.applies.get(), iterations);
            let on_guess = u64::from(iterations == 0 && rhs.iter().any(|&v| v != 0.0));
            assert_eq!(snapshot.counter("cg.converged_on_guess"), on_guess);
        }
    }

    /// The directions `basis` holds.
    fn held_directions(basis: &GuessBasis, n: usize) -> Vec<&[f64]> {
        basis.directions[..basis.held * n].chunks_exact(n).collect()
    }

    /// A right-hand side that differs from solve to solve.
    fn varying_rhs(n: usize, k: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + 1.0) * (k as f64 + 1.3)).sin())
            .collect()
    }

    /// A right-hand side met again converges on its projected guess, with
    /// one operator and no preconditioner application and no new
    /// direction; the first solve kept its correction (its zero start
    /// state seeds nothing) and counted one more operator application for
    /// it.
    #[test]
    fn a_repeated_right_hand_side_converges_on_its_projected_guess() {
        let _guard = opera_trace::test_guard();
        let a = Counting::new(laplacian_2d(9, 7, 0.05));
        let n = a.inner.nrows();
        let pre = Counting::new(Jacobi(a.inner.diagonal()));
        let b = varying_rhs(n, 0);
        let (options, mut ws, mut basis) = (
            CgOptions::default(),
            SolveWorkspace::new(),
            GuessBasis::new(),
        );
        let mut x = vec![0.0; n];
        let first = basis
            .solve_in_place(&a, &b, &mut x, &pre, options, &mut ws)
            .unwrap();
        assert!(first.iterations > 0);
        assert_eq!(basis.held, 1);
        assert_eq!(a.applies.get(), first.iterations as u64 + 1);

        let solution = x.clone();
        a.applies.set(0);
        pre.applies.set(0);
        opera_trace::reset();
        opera_trace::enable();
        let again = basis.solve_in_place(&a, &b, &mut x, &pre, options, &mut ws);
        let snapshot = opera_trace::drain();
        opera_trace::disable();
        assert_eq!(again.unwrap().iterations, 0);
        assert_eq!((a.applies.get(), pre.applies.get()), (1, 0));
        assert_eq!(snapshot.counter("cg.converged_on_guess"), 1);
        assert_eq!(snapshot.counter("cg.operator_applies"), 1);
        assert_eq!(snapshot.gauge("cg.guess_directions"), Some(1.0));
        assert_eq!(basis.held, 1);
        let scale = solution.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (x, s) in x.iter().zip(&solution) {
            assert!((x - s).abs() <= 1e-9 * scale, "{x} vs {s}");
        }
    }

    /// Solves with changing right-hand sides, each started from the
    /// previous solution as the fixed-step loop does, keep the directions
    /// `A`-orthonormal and add one per solve. At the cap the basis
    /// restarts: the next solve steps from the latest state exactly as a
    /// plain solve from it does, and leaves that state (`A`-normalised)
    /// and the solve's correction behind. Once warm, solving allocates
    /// nothing.
    #[test]
    fn the_basis_stays_a_orthonormal_and_restarts_from_the_latest_state_at_the_cap() {
        let a = laplacian_2d(10, 10, 0.1);
        let n = a.nrows();
        let pre = IncompleteCholesky::new(&a).unwrap();
        let options = CgOptions::default();
        let (mut ws, mut basis) = (SolveWorkspace::new(), GuessBasis::new());
        let mut x = vec![0.0; n];
        for k in 0..GUESS_DIRECTIONS {
            let b = varying_rhs(n, k);
            basis
                .solve_in_place(&a, &b, &mut x, &pre, options, &mut ws)
                .unwrap();
            assert_eq!(basis.held, k + 1, "solve {k}");
            assert!(a.residual_inf_norm(&x, &b) < 1e-8);
        }
        let q = held_directions(&basis, n);
        for (i, qi) in q.iter().enumerate() {
            let aqi = a.matvec(qi);
            for (j, qj) in q.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                let product = dot(qj, &aqi);
                assert!(
                    (product - expected).abs() < 1e-8,
                    "q_{j}ᵀ·A·q_{i} = {product}"
                );
            }
        }

        let latest = x.clone();
        let b = varying_rhs(n, GUESS_DIRECTIONS);
        let warm = ws.allocation_count();
        let restarted = basis
            .solve_in_place(&a, &b, &mut x, &pre, options, &mut ws)
            .unwrap();
        assert_eq!(ws.allocation_count(), warm);
        let mut plain = latest.clone();
        let reference = solve_in_place(&a, &b, &mut plain, &pre, options, &mut ws).unwrap();
        assert_eq!(restarted, reference);
        assert_eq!(bits(&x), bits(&plain));
        assert_eq!(basis.held, 2);
        let seed = held_directions(&basis, n)[0];
        let norm = dot(&latest, &a.matvec(&latest)).sqrt();
        for (q, v) in seed.iter().zip(&latest) {
            assert!((q * norm - v).abs() <= 1e-12 * norm, "{q} vs {v}");
        }
    }

    /// A basis serves one dimension: a solve of another is an error, not a
    /// panic.
    #[test]
    fn a_basis_rejects_a_system_of_another_dimension() {
        let (small, large) = (laplacian_2d(4, 4, 0.5), laplacian_2d(5, 4, 0.5));
        let mut basis = GuessBasis::new();
        let mut ws = SolveWorkspace::new();
        let options = CgOptions::default();
        let mut x = vec![0.0; 16];
        let b = varying_rhs(16, 1);
        basis
            .solve_in_place(
                &small,
                &b,
                &mut x,
                &IdentityPreconditioner,
                options,
                &mut ws,
            )
            .unwrap();
        let (b, mut x) = (varying_rhs(20, 1), vec![0.0; 20]);
        let err = basis
            .solve_in_place(
                &large,
                &b,
                &mut x,
                &IdentityPreconditioner,
                options,
                &mut ws,
            )
            .unwrap_err();
        assert!(
            matches!(err, SparseError::DimensionMismatch { .. }),
            "{err}"
        );
    }
}
