//! Bridge between the strip-blocked panel kernels and the `opera_simd`
//! vector backends.
//!
//! The panel solves in [`crate::triangular`] are column-major: one factor
//! entry touches the same row of up to eight RHS columns, each a full
//! column-length apart in memory — eight scattered cache lines per entry on
//! large systems. The vector path packs each ≤8-column strip into a
//! row-major `n × LANES` **interleaved** scratch (row `j` holds unknown `j`
//! of every RHS column, one 64-byte line), runs the `opera_simd` interleaved
//! kernel on it, and unpacks. Packing is two sequential sweeps of `8·n`
//! values against `nnz(L)·8` solve operations, so it amortises for any
//! realistically filled factor.
//!
//! Strips narrower than [`LANES`] are zero-padded: pad lanes divide zeros by
//! the (nonzero, asserted) diagonal and accumulate zero updates, never
//! producing values that are read back — each real lane performs exactly the
//! scalar kernel's operations, keeping the vector path bit-identical.
//!
//! The scratch is a per-thread [`AlignedVec`] that grows to the largest
//! system seen and is reused forever after, preserving the zero
//! steady-state-allocation contract of [`crate::SolveWorkspace`].

use core::cell::RefCell;

use opera_simd::{AlignedVec, Backend, LANES};

thread_local! {
    /// Per-thread interleaved strip scratch (`n × LANES` values).
    static INTERLEAVE: RefCell<AlignedVec> = RefCell::new(AlignedVec::new());
}

/// The backend panel solves should dispatch to: the process-wide active
/// choice (scalar unless `OPERA_SIMD` or the engine knob opted in).
pub(crate) fn panel_backend() -> Backend {
    opera_simd::active()
}

/// The backend a triangular solve of the column-major `panel` (`n` rows)
/// dispatches to: [`panel_backend`], except that a one-column solve always
/// runs the scalar strip kernel — a single lane gains nothing from the
/// interleave round trip.
fn solve_backend(n: usize, panel: &[f64]) -> Backend {
    if panel.len() > n {
        panel_backend()
    } else {
        Backend::Scalar
    }
}

// lint: hot(simd-panel-bridge)

/// Runs `kernel` (one interleaved `opera_simd` triangular solve of an
/// `n × LANES` strip under the given backend) over every ≤[`LANES`]-column
/// strip of a column-major `panel`, packing each strip through the
/// per-thread interleaved scratch. Returns `false`, leaving `panel`
/// untouched, when [`solve_backend`] picks the scalar strip kernels
/// instead.
pub(crate) fn solve_panel_interleaved(
    n: usize,
    panel: &mut [f64],
    kernel: impl Fn(&mut [f64], Backend),
) -> bool {
    let backend = solve_backend(n, panel);
    if backend == Backend::Scalar {
        return false;
    }
    debug_assert_eq!(panel.len() % n, 0, "panel length must be a multiple of n");
    INTERLEAVE.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < n * LANES {
            buf.resize(n * LANES);
        }
        let scratch = &mut buf.as_mut_slice()[..n * LANES];
        let mut rest = panel;
        while !rest.is_empty() {
            let w = (rest.len() / n).min(LANES);
            let (strip, tail) = rest.split_at_mut(w * n);
            rest = tail;
            pack(strip, n, w, scratch);
            kernel(scratch, backend);
            unpack(scratch, n, w, strip);
        }
    });
    true
}

/// Runs a full permuted Cholesky panel solve (`P·A·Pᵀ = L·Lᵀ`) over every
/// ≤[`LANES`]-column strip of a column-major `panel` with **one** interleave
/// round trip per strip: the permutation gather is fused into the pack, the
/// forward and transpose solves run back-to-back on the interleaved scratch,
/// and the scatter back through the permutation is fused into the unpack.
///
/// The separate permute / pack / unpack / pack / unpack / unpermute passes
/// of the generic path are all data movement — fusing them moves each panel
/// value twice instead of six times and changes no floating-point operation,
/// so the result stays bit-identical to the scalar panel solve. Returns
/// `false`, leaving `panel` untouched, when [`solve_backend`] picks the
/// scalar strip kernels instead. The factor arrays follow the
/// `indptr`/`rowptr`/`indices` convention of
/// [`opera_simd::lower_solve_interleaved`].
pub(crate) fn cholesky_panel_interleaved(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    perm: &[usize],
    panel: &mut [f64],
) -> bool {
    let backend = solve_backend(n, panel);
    if backend == Backend::Scalar {
        return false;
    }
    debug_assert_eq!(panel.len() % n, 0, "panel length must be a multiple of n");
    debug_assert_eq!(perm.len(), n, "permutation length mismatch");
    INTERLEAVE.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < n * LANES {
            buf.resize(n * LANES);
        }
        let scratch = &mut buf.as_mut_slice()[..n * LANES];
        let mut rest = panel;
        while !rest.is_empty() {
            let w = (rest.len() / n).min(LANES);
            let (strip, tail) = rest.split_at_mut(w * n);
            rest = tail;
            pack_permuted(strip, n, w, perm, scratch);
            opera_simd::lower_solve_interleaved(indptr, rowptr, indices, data, n, scratch, backend);
            opera_simd::lower_transpose_solve_interleaved(
                indptr, rowptr, indices, data, n, scratch, backend,
            );
            unpack_permuted(scratch, n, w, perm, strip);
        }
    });
    true
}

/// Transposes a column-major `n × w` strip into the row-major interleaved
/// scratch, zero-filling the `w..LANES` pad lanes.
fn pack(strip: &[f64], n: usize, w: usize, scratch: &mut [f64]) {
    for j in 0..n {
        let row = &mut scratch[j * LANES..(j + 1) * LANES];
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = if c < w { strip[c * n + j] } else { 0.0 };
        }
    }
}

/// Transposes the interleaved scratch back into the column-major strip,
/// discarding the pad lanes.
fn unpack(scratch: &[f64], n: usize, w: usize, strip: &mut [f64]) {
    for j in 0..n {
        let row = &scratch[j * LANES..(j + 1) * LANES];
        for c in 0..w {
            strip[c * n + j] = row[c];
        }
    }
}

/// [`pack`] with the fill-reducing permutation gather fused in: interleaved
/// row `j` holds `strip[c·n + perm[j]]` per lane `c`, mirroring the
/// `y[i] = b[perm[i]]` gather of the scalar solve path.
fn pack_permuted(strip: &[f64], n: usize, w: usize, perm: &[usize], scratch: &mut [f64]) {
    for (j, &p) in perm.iter().enumerate() {
        let row = &mut scratch[j * LANES..(j + 1) * LANES];
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = if c < w { strip[c * n + p] } else { 0.0 };
        }
    }
}

/// [`unpack`] with the inverse permutation scatter fused in: lane `c` of
/// interleaved row `j` lands at `strip[c·n + perm[j]]`, mirroring the
/// `b[perm[i]] = y[i]` scatter of the scalar solve path.
fn unpack_permuted(scratch: &[f64], n: usize, w: usize, perm: &[usize], strip: &mut [f64]) {
    for (j, &p) in perm.iter().enumerate() {
        let row = &scratch[j * LANES..(j + 1) * LANES];
        for c in 0..w {
            strip[c * n + p] = row[c];
        }
    }
}

// lint: end-hot
