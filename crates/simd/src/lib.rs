//! Runtime-dispatched vector kernels for the OPERA hot loops.
//!
//! This crate is the workspace's single SIMD surface: a **safe** API over
//! three interchangeable backends —
//!
//! * [`Backend::Scalar`] — plain Rust reference kernels, the bit-identity
//!   baseline the whole test suite is built on (and the only backend on
//!   non-x86 targets),
//! * [`Backend::Avx2`] — 4-lane `f64` kernels behind
//!   `#[target_feature(enable = "avx2")]`,
//! * [`Backend::Avx512`] — 8-lane `f64` kernels behind
//!   `#[target_feature(enable = "avx512f")]`.
//!
//! # Dispatch model
//!
//! Availability is detected at runtime with `is_x86_feature_detected!` (the
//! standard library caches the CPUID probe, so [`Backend::is_available`] is
//! an atomic load after the first call). Every public kernel takes an
//! explicit [`Backend`] argument and silently falls back to scalar when the
//! requested backend is not available on the executing CPU — that check is
//! what keeps the API safe to call with *any* `Backend` value.
//!
//! The process-wide choice lives in [`active`]/[`set_active`]: `active()`
//! reads the `OPERA_SIMD` environment variable (`auto`, `avx512`, `avx2` or
//! `scalar`) exactly once and caches the answer; unrecognised or unavailable
//! values fall back to [`Backend::Scalar`], which is also the default when
//! the variable is unset — **scalar remains the reference path unless SIMD
//! is opted into**. Engine-level code overrides the cached choice through
//! [`set_active`] (the `EngineBuilder` knob).
//!
//! # Equivalence policy
//!
//! Every vector kernel is **bit-identical** to its scalar reference — the
//! pinned ULP budget is zero. Two rules make that possible:
//!
//! 1. lanes run along an axis whose elements the scalar kernel treats
//!    independently (the RHS column of an interleaved panel strip, or the
//!    element index of an axpy/fold), so no floating-point reduction order
//!    changes; and
//! 2. no FMA contraction — kernels use only `mul`/`add`/`sub`/`div`
//!    intrinsics, each of which is IEEE-754 correctly rounded per lane,
//!    exactly like the scalar `*`/`+`/`-`//` the reference path executes.
//!
//! The scalar triangular kernels are themselves width-generic: one
//! const-generic kernel per sweep solves a row-major strip of `K` columns
//! (`K = 1..=8`, [`scalar::lower_solve_strip`] and friends), reading each
//! stored entry once for the whole row, and the `LANES`-padded
//! [`scalar::lower_solve_interleaved`] references are its `K = 8`
//! instantiation. They follow the same two rules — each column runs the
//! single-column solve's operations in its order, with no FMA — so a
//! strip of any width is bit-identical, column by column, to one-column
//! solves, and the vector kernels are bit-identical to them.
//!
//! Equivalence is enforced by unit tests here, by the property suite in
//! `tests/property_simd.rs` (which sweeps panel widths 1..=9 and 17), and
//! by the CI matrix that re-runs the kernel tests under
//! `OPERA_SIMD=scalar|avx2|auto`.

#![deny(missing_docs)]

mod aligned;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use aligned::AlignedVec;

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane count of the interleaved panel kernels: one row of the interleaved
/// scratch holds the values of [`LANES`] right-hand sides for one unknown.
/// Matches the widest RHS strip of `opera_sparse`'s blocked panel solves
/// ([`scalar::STRIP_WIDTH`]) and fills exactly one AVX-512 register (two
/// AVX2 registers).
pub const LANES: usize = 8;

/// Byte alignment of [`AlignedVec`] storage: one cache line, which is also
/// the natural alignment of a full 8-lane `f64` AVX-512 register.
pub const ALIGN: usize = 64;

/// A vector kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain Rust reference kernels; always available, bit-identity baseline.
    Scalar,
    /// 256-bit kernels (4 × f64) requiring the `avx2` CPU feature.
    Avx2,
    /// 512-bit kernels (8 × f64) requiring the `avx512f` CPU feature.
    Avx512,
}

impl Backend {
    /// All backends, scalar first.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

    /// Stable lower-case name, matching the `OPERA_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// `f64` lanes processed per vector operation (1 for scalar).
    pub fn width(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 4,
            Backend::Avx512 => 8,
        }
    }

    /// Whether the executing CPU supports this backend. Scalar is always
    /// available; on non-x86 targets the vector backends never are.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest backend the executing CPU supports (what `OPERA_SIMD=auto`
/// resolves to).
pub fn detect_best() -> Backend {
    if Backend::Avx512.is_available() {
        Backend::Avx512
    } else if Backend::Avx2.is_available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Every backend available on the executing CPU, scalar first.
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// Parses an `OPERA_SIMD`-style selector. `auto` resolves to
/// [`detect_best`]; naming a backend the CPU lacks is an error (callers in
/// infallible positions fall back to scalar instead).
pub fn parse_backend(s: &str) -> Result<Backend, String> {
    let backend = match s.trim().to_ascii_lowercase().as_str() {
        "auto" => return Ok(detect_best()),
        "scalar" => Backend::Scalar,
        "avx2" => Backend::Avx2,
        "avx512" => Backend::Avx512,
        other => {
            return Err(format!(
                "unknown SIMD backend `{other}` (expected auto|avx512|avx2|scalar)"
            ))
        }
    };
    if !backend.is_available() {
        return Err(format!(
            "SIMD backend `{}` is not available on this CPU",
            backend.name()
        ));
    }
    Ok(backend)
}

/// Sentinel: the process-wide choice has not been resolved yet.
const ACTIVE_UNSET: u8 = u8::MAX;

/// Process-wide active backend, cached after the first [`active`] call.
static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 0,
        Backend::Avx2 => 1,
        Backend::Avx512 => 2,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        1 => Backend::Avx2,
        2 => Backend::Avx512,
        _ => Backend::Scalar,
    }
}

/// The process-wide active backend.
///
/// Resolved lazily on first call from the `OPERA_SIMD` environment variable
/// (`auto|avx512|avx2|scalar`); unset, unrecognised or unavailable values
/// all resolve to [`Backend::Scalar`] — the bit-identity reference stays the
/// default unless SIMD is explicitly opted into. The resolution is cached;
/// later env changes have no effect, but [`set_active`] overrides it.
pub fn active() -> Backend {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != ACTIVE_UNSET {
        return decode(v);
    }
    let resolved = match std::env::var("OPERA_SIMD") {
        Ok(s) => parse_backend(&s).unwrap_or(Backend::Scalar),
        Err(_) => Backend::Scalar,
    };
    ACTIVE.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Overrides the process-wide active backend (the engine-builder knob and
/// the benchmark harness use this). Errors when the backend is not
/// available on the executing CPU; on success returns the backend now
/// active.
pub fn set_active(backend: Backend) -> Result<Backend, String> {
    if !backend.is_available() {
        return Err(format!(
            "SIMD backend `{}` is not available on this CPU",
            backend.name()
        ));
    }
    ACTIVE.store(encode(backend), Ordering::Relaxed);
    Ok(backend)
}

/// Clamps a requested backend to what the CPU can actually run.
fn effective(backend: Backend) -> Backend {
    if backend.is_available() {
        backend
    } else {
        Backend::Scalar
    }
}

/// Dispatches one kernel to the requested backend, falling back to scalar
/// when the backend is unavailable (which is what makes the wrappers safe).
macro_rules! dispatch_kernel {
    ($backend:expr, $fn:ident($($arg:expr),* $(,)?)) => {{
        match effective($backend) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returns Avx2 only when runtime feature
            // detection confirmed `avx2` on the executing CPU.
            Backend::Avx2 => unsafe { x86::avx2::$fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective` returns Avx512 only when runtime feature
            // detection confirmed `avx512f` on the executing CPU.
            Backend::Avx512 => unsafe { x86::avx512::$fn($($arg),*) },
            _ => scalar::$fn($($arg),*),
        }
    }};
}

/// `y[i] += c * x[i]` over the common prefix of `y` and `x`.
pub fn axpy(y: &mut [f64], x: &[f64], c: f64, backend: Backend) {
    dispatch_kernel!(backend, axpy(y, x, c))
}

/// `y[i] -= c * x[i]` over the common prefix of `y` and `x`.
pub fn sub_axpy(y: &mut [f64], x: &[f64], c: f64, backend: Backend) {
    dispatch_kernel!(backend, sub_axpy(y, x, c))
}

/// Four simultaneous axpys off one shared source: `ys[b][i] += cs[b] * x[i]`
/// for `b` in `0..4`, over the common prefix of every destination and `x`.
/// The supernodal descendant update's 4-column register block.
pub fn axpy4(ys: [&mut [f64]; 4], x: &[f64], cs: [f64; 4], backend: Backend) {
    dispatch_kernel!(backend, axpy4(ys, x, cs))
}

/// Rank-4 update `y[i] -= ((cs[0]*ts[0][i] + cs[1]*ts[1][i]) + cs[2]*ts[2][i]) + cs[3]*ts[3][i]`
/// over the common prefix — the dense-Cholesky panel update's inner loop,
/// with the scalar left-to-right summation order preserved per lane.
pub fn rank4_sub(y: &mut [f64], ts: [&[f64]; 4], cs: [f64; 4], backend: Backend) {
    dispatch_kernel!(backend, rank4_sub(y, ts, cs))
}

/// `y[i] /= d` over all of `y`.
pub fn div_assign(y: &mut [f64], d: f64, backend: Backend) {
    dispatch_kernel!(backend, div_assign(y, d))
}

/// `y[i] *= s` over all of `y`.
pub fn scale_assign(y: &mut [f64], s: f64, backend: Backend) {
    dispatch_kernel!(backend, scale_assign(y, s))
}

/// `y[i] += x[i]` over the common prefix of `y` and `x`.
pub fn add_assign(y: &mut [f64], x: &[f64], backend: Backend) {
    dispatch_kernel!(backend, add_assign(y, x))
}

/// `y[i] += a[i] + b[i]` over the common prefix of all three slices.
pub fn add2_assign(y: &mut [f64], a: &[f64], b: &[f64], backend: Backend) {
    dispatch_kernel!(backend, add2_assign(y, a, b))
}

/// Three-term weighted combination
/// `out[i] = (ws[0]*srcs[0][i] + ws[1]*srcs[1][i]) + ws[2]*srcs[2][i]`
/// over the common prefix — the TR-BDF2 dense-output interpolant and the
/// embedded error estimate share this shape.
pub fn weighted_sum3(out: &mut [f64], srcs: [&[f64]; 3], ws: [f64; 3], backend: Backend) {
    dispatch_kernel!(backend, weighted_sum3(out, srcs, ws))
}

/// One Welford fold step over a sample row: per element,
/// `delta = sample[i] - mean[i]; mean[i] += delta / count;
/// m2[i] += delta * (sample[i] - mean[i])`, over the common prefix.
pub fn welford_update(
    mean: &mut [f64],
    m2: &mut [f64],
    sample: &[f64],
    count: f64,
    backend: Backend,
) {
    dispatch_kernel!(backend, welford_update(mean, m2, sample, count))
}

/// Forward substitution `L·X = B` on an interleaved panel strip: `x` is
/// row-major `n × LANES` (row `j` holds unknown `j` of all [`LANES`]
/// right-hand sides). Column `j` of `L` holds the values
/// `data[indptr[j]..indptr[j + 1]]` at the rows `indices[rowptr[j]..]`,
/// the diagonal **first**. A CSC factor passes `indptr` as `rowptr`; a
/// supernodal factor passes per-column starts into its per-supernode row
/// lists, where each column reads a suffix of its supernode's list. Per
/// lane this performs exactly the scalar kernel's operations in the scalar
/// order.
///
/// # Panics
///
/// Panics if `x.len() != n * LANES`, if a diagonal entry is missing, or if
/// the factor arrays are inconsistent.
pub fn lower_solve_interleaved(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
    backend: Backend,
) {
    dispatch_kernel!(
        backend,
        lower_solve_interleaved(indptr, rowptr, indices, data, n, x)
    )
}

/// Backward substitution `Lᵀ·X = B` on an interleaved panel strip (same
/// layout and factor convention as [`lower_solve_interleaved`]).
///
/// # Panics
///
/// Panics under the same conditions as [`lower_solve_interleaved`].
pub fn lower_transpose_solve_interleaved(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
    backend: Backend,
) {
    dispatch_kernel!(
        backend,
        lower_transpose_solve_interleaved(indptr, rowptr, indices, data, n, x)
    )
}

/// Backward substitution `U·X = B` on an interleaved panel strip, for upper
/// triangular `U` in CSC with the diagonal stored **last** in each column.
///
/// # Panics
///
/// Panics under the same conditions as [`lower_solve_interleaved`].
pub fn upper_solve_interleaved(
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
    backend: Backend,
) {
    dispatch_kernel!(
        backend,
        upper_solve_interleaved(indptr, indices, data, n, x)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + seed) * 0.731).sin() * 3.0)
            .collect()
    }

    /// A small dense lower-triangular factor in CSC form (diag first).
    fn lower_factor(n: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for j in 0..n {
            indices.push(j);
            data.push(2.0 + (j as f64 * 0.37).cos().abs());
            for i in (j + 1)..n {
                if (i + j) % 3 != 0 {
                    continue;
                }
                indices.push(i);
                data.push(((i * 7 + j) as f64 * 0.19).sin());
            }
            indptr.push(indices.len());
        }
        (indptr, indices, data)
    }

    /// The same factor transposed into upper CSC form (diag last).
    fn upper_of(
        lower: &(Vec<usize>, Vec<usize>, Vec<f64>),
        n: usize,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let (lp, li, lv) = lower;
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for j in 0..n {
            for p in lp[j]..lp[j + 1] {
                cols[li[p]].push((j, lv[p]));
            }
        }
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for col in cols {
            for (i, v) in col {
                indices.push(i);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        (indptr, indices, data)
    }

    #[test]
    fn detection_is_consistent() {
        let best = detect_best();
        assert!(best.is_available());
        assert!(available_backends().contains(&Backend::Scalar));
        assert_eq!(parse_backend("auto"), Ok(best));
        assert_eq!(parse_backend("scalar"), Ok(Backend::Scalar));
        assert!(parse_backend("neon").is_err());
    }

    #[test]
    fn unavailable_backends_fall_back_to_scalar_results() {
        // Whatever the CPU supports, calling through any Backend value must
        // produce the scalar answer bit-for-bit (available backends by the
        // no-FMA/lane-order rules, unavailable ones by fallback).
        for backend in Backend::ALL {
            let mut y = vals(37, 1.0);
            let x = vals(37, 2.0);
            let mut reference = y.clone();
            scalar::axpy(&mut reference, &x, 1.25);
            axpy(&mut y, &x, 1.25, backend);
            assert_eq!(y, reference, "backend {backend}");
        }
    }

    #[test]
    fn elementwise_kernels_match_scalar_bit_for_bit() {
        for backend in available_backends() {
            for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 101] {
                let x = vals(n, 3.0);
                let a = vals(n, 4.0);
                let b = vals(n, 5.0);
                let d = vals(n, 6.0);

                let mut y0 = vals(n, 7.0);
                let mut y1 = y0.clone();
                scalar::sub_axpy(&mut y0, &x, 0.73);
                sub_axpy(&mut y1, &x, 0.73, backend);
                assert_eq!(y0, y1, "sub_axpy {backend} n={n}");

                let mut y0 = vals(n, 8.0);
                let mut y1 = y0.clone();
                scalar::rank4_sub(&mut y0, [&x, &a, &b, &d], [0.1, -0.2, 0.3, -0.4]);
                rank4_sub(&mut y1, [&x, &a, &b, &d], [0.1, -0.2, 0.3, -0.4], backend);
                assert_eq!(y0, y1, "rank4_sub {backend} n={n}");

                let mut y0 = vals(n, 9.0);
                let mut y1 = y0.clone();
                scalar::div_assign(&mut y0, 1.7);
                div_assign(&mut y1, 1.7, backend);
                assert_eq!(y0, y1, "div_assign {backend} n={n}");

                let mut y0 = vals(n, 10.0);
                let mut y1 = y0.clone();
                scalar::scale_assign(&mut y0, -0.3);
                scale_assign(&mut y1, -0.3, backend);
                assert_eq!(y0, y1, "scale_assign {backend} n={n}");

                let mut y0 = vals(n, 11.0);
                let mut y1 = y0.clone();
                scalar::add_assign(&mut y0, &x);
                add_assign(&mut y1, &x, backend);
                assert_eq!(y0, y1, "add_assign {backend} n={n}");

                let mut y0 = vals(n, 12.0);
                let mut y1 = y0.clone();
                scalar::add2_assign(&mut y0, &a, &b);
                add2_assign(&mut y1, &a, &b, backend);
                assert_eq!(y0, y1, "add2_assign {backend} n={n}");

                let mut o0 = vec![0.0; n];
                let mut o1 = vec![1.0; n];
                scalar::weighted_sum3(&mut o0, [&a, &b, &d], [0.25, -1.5, 2.0]);
                weighted_sum3(&mut o1, [&a, &b, &d], [0.25, -1.5, 2.0], backend);
                assert_eq!(o0, o1, "weighted_sum3 {backend} n={n}");

                let mut mean0 = vals(n, 13.0);
                let mut m20 = vals(n, 14.0).iter().map(|v| v.abs()).collect::<Vec<_>>();
                let mut mean1 = mean0.clone();
                let mut m21 = m20.clone();
                scalar::welford_update(&mut mean0, &mut m20, &x, 5.0);
                welford_update(&mut mean1, &mut m21, &x, 5.0, backend);
                assert_eq!(mean0, mean1, "welford mean {backend} n={n}");
                assert_eq!(m20, m21, "welford m2 {backend} n={n}");

                let mut y0a = vals(n, 15.0);
                let mut y1a = vals(n, 16.0);
                let mut y2a = vals(n, 17.0);
                let mut y3a = vals(n, 18.0);
                let mut y0b = y0a.clone();
                let mut y1b = y1a.clone();
                let mut y2b = y2a.clone();
                let mut y3b = y3a.clone();
                let cs = [0.9, -0.8, 0.7, -0.6];
                scalar::axpy4([&mut y0a, &mut y1a, &mut y2a, &mut y3a], &x, cs);
                axpy4([&mut y0b, &mut y1b, &mut y2b, &mut y3b], &x, cs, backend);
                assert_eq!(
                    (y0a, y1a, y2a, y3a),
                    (y0b, y1b, y2b, y3b),
                    "axpy4 {backend} n={n}"
                );
            }
        }
    }

    #[test]
    fn interleaved_triangular_kernels_match_scalar_bit_for_bit() {
        for backend in available_backends() {
            for n in [1usize, 2, 5, 8, 13, 40] {
                let lower = lower_factor(n);
                let upper = upper_of(&lower, n);
                let b = vals(n * LANES, 20.0);

                let mut x0 = b.clone();
                let mut x1 = b.clone();
                let (lp, li, lv) = (&lower.0, &lower.1, &lower.2);
                scalar::lower_solve_interleaved(lp, lp, li, lv, n, &mut x0);
                lower_solve_interleaved(lp, lp, li, lv, n, &mut x1, backend);
                assert_eq!(x0, x1, "lower {backend} n={n}");

                let mut x0 = b.clone();
                let mut x1 = b.clone();
                scalar::lower_transpose_solve_interleaved(lp, lp, li, lv, n, &mut x0);
                lower_transpose_solve_interleaved(lp, lp, li, lv, n, &mut x1, backend);
                assert_eq!(x0, x1, "lower-transpose {backend} n={n}");

                let mut x0 = b.clone();
                let mut x1 = b.clone();
                scalar::upper_solve_interleaved(&upper.0, &upper.1, &upper.2, n, &mut x0);
                upper_solve_interleaved(&upper.0, &upper.1, &upper.2, n, &mut x1, backend);
                assert_eq!(x0, x1, "upper {backend} n={n}");
            }
        }
    }

    #[test]
    fn lockstep_lanes_match_single_factor_solves_bit_for_bit() {
        // Lane `c` of the lockstep kernels steps factor `c`; the reference
        // solves that factor alone, its right-hand side in lane 0 of an
        // interleaved strip (whose lanes each run the single-column scalar
        // operations).
        for n in [1usize, 2, 5, 13, 40] {
            let (indptr, indices, base) = lower_factor(n);
            for lanes in 1..=scalar::LOCKSTEP_LANES {
                let factors: Vec<Vec<f64>> = (0..lanes)
                    .map(|c| base.iter().map(|v| v * (1.0 + 0.125 * c as f64)).collect())
                    .collect();
                let rhs: Vec<Vec<f64>> = (0..lanes).map(|c| vals(n, 30.0 + c as f64)).collect();
                let mut data = vec![0.0; base.len() * lanes];
                for (c, f) in factors.iter().enumerate() {
                    for (p, &v) in f.iter().enumerate() {
                        data[p * lanes + c] = v;
                    }
                }
                let mut fwd = vec![0.0; n * lanes];
                for (c, b) in rhs.iter().enumerate() {
                    for (j, &v) in b.iter().enumerate() {
                        fwd[j * lanes + c] = v;
                    }
                }
                let mut bwd = fwd.clone();
                scalar::lower_solve_lockstep(&indptr, &indptr, &indices, &data, lanes, n, &mut fwd);
                scalar::lower_transpose_solve_lockstep(
                    &indptr, &indptr, &indices, &data, lanes, n, &mut bwd,
                );
                for (c, (f, b)) in factors.iter().zip(&rhs).enumerate() {
                    let mut strip = vec![0.0; n * LANES];
                    for (j, &v) in b.iter().enumerate() {
                        strip[j * LANES] = v;
                    }
                    let mut strip_t = strip.clone();
                    scalar::lower_solve_interleaved(&indptr, &indptr, &indices, f, n, &mut strip);
                    scalar::lower_transpose_solve_interleaved(
                        &indptr,
                        &indptr,
                        &indices,
                        f,
                        n,
                        &mut strip_t,
                    );
                    for j in 0..n {
                        let (got, want) = (fwd[j * lanes + c], strip[j * LANES]);
                        assert_eq!(got.to_bits(), want.to_bits(), "L n={n} K={lanes} c={c}");
                        let (got, want) = (bwd[j * lanes + c], strip_t[j * LANES]);
                        assert_eq!(got.to_bits(), want.to_bits(), "Lᵀ n={n} K={lanes} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn set_active_rejects_unavailable_backends_only() {
        assert_eq!(set_active(Backend::Scalar), Ok(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        for backend in Backend::ALL {
            if backend.is_available() {
                assert_eq!(set_active(backend), Ok(backend));
                assert_eq!(active(), backend);
            } else {
                assert!(set_active(backend).is_err());
            }
        }
        // Leave the reference default behind for other tests in the process.
        let _ = set_active(Backend::Scalar);
    }
}
