//! Sparse linear algebra substrate for the OPERA power-grid analysis suite.
//!
//! The DATE 2005 OPERA paper relies on an industrial sparse solver to
//! factorise the (augmented) MNA matrices of power grids with tens of
//! thousands to hundreds of thousands of nodes. This crate provides that
//! substrate from scratch:
//!
//! * [`TripletMatrix`] — coordinate-format builder for assembling stamps.
//! * [`CsrMatrix`] / [`CscMatrix`] — compressed row/column storage with the
//!   usual kernels (mat-vec, transpose, add, scale, pattern queries).
//! * [`Permutation`], [`ordering`] — fill-reducing orderings: quotient-graph
//!   approximate minimum degree (the default), reverse Cuthill–McKee, and
//!   exact greedy minimum degree.
//! * [`CholeskyFactor`] / [`SymbolicCholesky`] / [`Supernodes`] — sparse
//!   `L·Lᵀ` factorisation: symbolic analysis via the elimination tree
//!   (including the full factor pattern and its fundamental-supernode
//!   partition) + a supernodal dense-panel numeric phase, for the symmetric
//!   positive definite matrices produced by RC power grids.
//! * [`LuFactor`] — left-looking sparse LU with partial pivoting as a
//!   general-purpose fallback.
//! * [`MatrixFactor`] — one handle over "Cholesky, or LU when the matrix is
//!   not SPD", the factorisation policy shared by all OPERA solve paths.
//! * [`cg`] — preconditioned conjugate gradient (Jacobi and IC(0)
//!   preconditioners) for very large grids where a direct factorisation is
//!   not wanted.
//! * [`Panel`] / [`SolveWorkspace`] — column-major multi-RHS panels and
//!   reusable scratch arenas: the factor-once/solve-thousands hot loop of
//!   every transient runs through blocked panel triangular kernels with zero
//!   steady-state heap allocations.
//! * [`DenseMatrix`] — small dense kernels used by quadrature and tests.
//! * [`stepping`] — the one copy of the fixed-step integration formulas:
//!   the scheme enum, the TR-BDF2 split, the companion scale, the time grid
//!   and the stage right-hand sides every transient builds through.
//!
//! # Example
//!
//! ```
//! use opera_sparse::{TripletMatrix, CholeskyFactor};
//!
//! # fn main() -> Result<(), opera_sparse::SparseError> {
//! // 2x2 SPD system: [[4, 1], [1, 3]] x = [1, 2]
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let a = t.to_csr();
//! let chol = CholeskyFactor::factor(&a)?;
//! let x = chol.solve(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod cholesky;
mod csc;
mod csr;
mod dense;
mod error;
mod etree;
mod factor;
mod lu;
mod panel;
mod permutation;
mod simd;
mod supernodal;
mod triangular;
mod triplet;

pub mod cg;
pub mod invariants;
pub mod ordering;
pub mod stepping;

pub use cholesky::{
    cholesky_solve, CholeskyFactor, CholeskyGroup, OrderingChoice, SymbolicCholesky,
};
pub use csc::CscMatrix;
pub use csr::{CsrMatrix, CsrView};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use etree::{column_counts, elimination_tree, postorder};
pub use factor::MatrixFactor;
pub use lu::LuFactor;
/// Most members a [`CholeskyGroup`] steps at once: the lane count of the
/// lock-step triangular kernels.
pub use opera_simd::scalar::LOCKSTEP_LANES;
pub use panel::{Panel, SolveWorkspace};
pub use permutation::Permutation;
pub use supernodal::Supernodes;
pub use triangular::{
    solve_lower_csc, solve_lower_csc_panel, solve_lower_transpose_csc,
    solve_lower_transpose_csc_panel, solve_upper_csc, solve_upper_csc_panel,
};
pub use triplet::TripletMatrix;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
