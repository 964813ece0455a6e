//! A unified direct factorisation handle.
//!
//! Power-grid conductance and companion matrices are symmetric positive
//! definite in the nominal case, but Galerkin-augmented matrices can lose
//! numerical positive definiteness for large variation magnitudes. Callers
//! therefore routinely want "Cholesky, falling back to LU when the matrix is
//! not SPD". [`MatrixFactor`] packages that policy
//! behind one `solve` interface so downstream crates do not each carry their
//! own two-variant enum.

use crate::cholesky::CholeskyFactor;
use crate::csr::{CsrMatrix, CsrView};
use crate::lu::LuFactor;
use crate::panel::{Panel, SolveWorkspace};
use crate::Result;

/// A factored sparse matrix: either a sparse Cholesky factor (SPD input) or a
/// left-looking LU factor with partial pivoting (general input).
#[derive(Debug)]
pub enum MatrixFactor {
    /// Sparse Cholesky factor of an SPD matrix.
    Cholesky(CholeskyFactor),
    /// Left-looking LU factor with partial pivoting.
    Lu(LuFactor),
}

impl MatrixFactor {
    /// Factors `a` with sparse Cholesky, falling back to left-looking LU if
    /// the matrix is not numerically positive definite.
    ///
    /// # Errors
    ///
    /// Returns the LU factorisation error if both attempts fail.
    pub fn cholesky_or_lu(a: &CsrMatrix) -> Result<Self> {
        Self::from_cholesky_attempt(CholeskyFactor::factor(a), a.view())
    }

    /// Keeps a successful Cholesky `attempt` at factoring `a`, or falls back
    /// to left-looking LU of `a` (the one place a matrix given as a view is
    /// copied into a [`CsrMatrix`]). The fallback is never silent: it counts
    /// `sparse.cholesky_fallbacks` and emits a `sparse.cholesky_fallback`
    /// trace event carrying the discarded Cholesky error.
    ///
    /// # Errors
    ///
    /// Returns the LU factorisation error if the fallback fails too.
    pub fn from_cholesky_attempt(attempt: Result<CholeskyFactor>, a: CsrView<'_>) -> Result<Self> {
        match attempt {
            Ok(f) => Ok(MatrixFactor::Cholesky(f)),
            Err(err) => {
                opera_trace::count("sparse.cholesky_fallbacks", 1);
                if opera_trace::enabled() {
                    opera_trace::event("sparse.cholesky_fallback", &err.to_string());
                }
                Ok(MatrixFactor::Lu(LuFactor::factor(&a.to_csr())?))
            }
        }
    }

    /// Returns `true` if the factor is a Cholesky factor.
    pub fn is_cholesky(&self) -> bool {
        matches!(self, MatrixFactor::Cholesky(_))
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        match self {
            MatrixFactor::Cholesky(f) => f.dim(),
            MatrixFactor::Lu(f) => f.dim(),
        }
    }

    /// Solves `A·x = b`, allocating the result. In hot loops prefer
    /// [`MatrixFactor::solve_in_place`] with a reused [`SolveWorkspace`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            MatrixFactor::Cholesky(f) => f.solve(b),
            MatrixFactor::Lu(f) => f.solve(b),
        }
    }

    /// Solves `A·x = b` in place with workspace-borrowed scratch; zero heap
    /// allocations once `ws` is warm. Bit-identical to
    /// [`MatrixFactor::solve`].
    pub fn solve_in_place(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_in_place(b, ws),
            MatrixFactor::Lu(f) => f.solve_in_place(b, ws),
        }
    }

    /// Solves `A·X = B` in place for every column of the panel through the
    /// blocked multi-RHS triangular kernels. Each panel column is
    /// bit-identical to [`MatrixFactor::solve`] on that column.
    pub fn solve_panel(&self, b: &mut Panel, ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_panel(b, ws),
            MatrixFactor::Lu(f) => f.solve_panel(b, ws),
        }
    }

    /// Solves every length-`n` column of the column-major buffer `b` in
    /// place: [`MatrixFactor::solve_panel`] on a borrowed slice, for callers
    /// whose right-hand sides live in scratch rather than in a [`Panel`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not a multiple of the matrix dimension.
    pub fn solve_columns(&self, b: &mut [f64], ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_columns(b, ws),
            MatrixFactor::Lu(f) => f.solve_columns(b, ws),
        }
    }

    /// Solves `A·Z = R·M` into `z`, mixing the `p` columns of `r` by the
    /// row-major `p × p` matrix `mix` as they are packed for the solve (see
    /// [`CholeskyFactor::solve_mixed_into`]). Bit-identical to mixing into
    /// `z` first and then [`MatrixFactor::solve_columns`].
    ///
    /// # Panics
    ///
    /// Panics unless `r` and `z` have the same length, a multiple of the
    /// matrix dimension, and `mix` has `p²` entries.
    pub fn solve_mixed_into(&self, r: &[f64], mix: &[f64], z: &mut [f64], ws: &mut SolveWorkspace) {
        match self {
            MatrixFactor::Cholesky(f) => f.solve_mixed_into(r, mix, z, ws),
            MatrixFactor::Lu(f) => f.solve_mixed_into(r, mix, z, ws),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn spd2() -> CsrMatrix {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        t.to_csr()
    }

    fn indefinite2() -> CsrMatrix {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 0.0);
        t.to_csr()
    }

    #[test]
    fn spd_matrix_takes_the_cholesky_path() {
        let a = spd2();
        let f = MatrixFactor::cholesky_or_lu(&a).unwrap();
        assert!(f.is_cholesky());
        assert_eq!(f.dim(), 2);
        let x = f.solve(&[5.0, 4.0]);
        assert!((a.residual_inf_norm(&x, &[5.0, 4.0])) < 1e-12);
    }

    #[test]
    fn non_spd_matrix_falls_back_to_lu() {
        let _guard = opera_trace::test_guard();
        opera_trace::reset();
        opera_trace::enable();
        let a = indefinite2();
        let f = MatrixFactor::cholesky_or_lu(&a).unwrap();
        let snapshot = opera_trace::drain();
        opera_trace::disable();
        // The fallback is surfaced: one count, one event with the error.
        assert_eq!(snapshot.counter("sparse.cholesky_fallbacks"), 1);
        let events: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.name == "sparse.cholesky_fallback")
            .collect();
        assert_eq!(events.len(), 1);
        assert!(!events[0].message.is_empty());
        assert!(!f.is_cholesky());
        let x = f.solve(&[2.0, 3.0]);
        // A swaps the entries: x = [3, 2].
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn in_place_and_panel_solves_match_on_both_variants() {
        let rhs: Vec<Vec<f64>> = (0..3).map(|k| vec![1.0 + k as f64, -2.0]).collect();
        for factor in [
            MatrixFactor::Cholesky(CholeskyFactor::factor(&spd2()).unwrap()),
            MatrixFactor::Lu(LuFactor::factor(&indefinite2()).unwrap()),
        ] {
            let mut ws = SolveWorkspace::new();
            let mut panel = Panel::from_columns(&rhs);
            factor.solve_panel(&mut panel, &mut ws);
            for (j, b) in rhs.iter().enumerate() {
                let expected = factor.solve(b);
                assert_eq!(panel.col(j), &expected[..]);
                let mut x = b.clone();
                factor.solve_in_place(&mut x, &mut ws);
                assert_eq!(x, expected);
            }
            let mut flat: Vec<f64> = rhs.concat();
            factor.solve_columns(&mut flat, &mut ws);
            assert_eq!(&flat[..], panel.data());
        }
    }

    /// Mixing the columns as they are packed is bit-identical to mixing
    /// them into `z` first (a zeroed column, one `axpy` per nonzero weight
    /// in ascending block order) and solving `z`, on both variants, under
    /// every available backend, for one strip, a full strip and more.
    #[test]
    fn mixed_solves_match_mix_then_solve_on_both_variants() {
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + (i % 3) as f64);
            if i + 1 < n {
                t.add_symmetric_pair(i, i + 1, 1.0 + (i % 2) as f64 * 0.5);
            }
            if i + 7 < n {
                t.add_symmetric_pair(i, i + 7, 0.25);
            }
        }
        let spd = t.to_csr();
        let factors = [
            MatrixFactor::Cholesky(CholeskyFactor::factor(&spd).unwrap()),
            MatrixFactor::Lu(LuFactor::factor(&spd).unwrap()),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in [1, 3, 8, 11] {
            let r: Vec<f64> = (0..n * p)
                .map(|k| ((k * 13 % 29) as f64 - 14.0) / 3.0)
                .collect();
            let mix: Vec<f64> = (0..p * p)
                .map(|q| match q % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (q as f64 * 0.77).sin(),
                })
                .collect();
            for factor in &factors {
                for backend in opera_simd::available_backends() {
                    opera_simd::set_active(backend).unwrap();
                    let mut ws = SolveWorkspace::new();
                    let mut expected = vec![0.0; n * p];
                    for (j, z_j) in expected.chunks_exact_mut(n).enumerate() {
                        for (i, r_i) in r.chunks_exact(n).enumerate() {
                            let weight = mix[i * p + j];
                            if weight != 0.0 {
                                opera_simd::axpy(z_j, r_i, weight, backend);
                            }
                        }
                    }
                    factor.solve_columns(&mut expected, &mut ws);
                    let mut z = vec![f64::NAN; n * p];
                    factor.solve_mixed_into(&r, &mix, &mut z, &mut ws);
                    opera_simd::set_active(opera_simd::Backend::Scalar).unwrap();
                    assert_eq!(
                        bits(&z),
                        bits(&expected),
                        "{} p={p} {backend}",
                        if factor.is_cholesky() {
                            "Cholesky"
                        } else {
                            "LU"
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn pure_variants_respect_their_contract() {
        assert!(CholeskyFactor::factor(&indefinite2()).is_err());
        let f = MatrixFactor::Lu(LuFactor::factor(&spd2()).unwrap());
        assert!(!f.is_cholesky());
        let x = f.solve(&[4.0, 1.0]);
        assert!(spd2().residual_inf_norm(&x, &[4.0, 1.0]) < 1e-12);
    }
}
