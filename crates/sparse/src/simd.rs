//! The one path every multi-column triangular solve takes: strips packed
//! row-major, solved by the `opera_simd` strip kernels, unpacked.
//!
//! A column-major panel puts the `k` values one factor entry updates a full
//! column length apart — `k` scattered cache lines per entry on large
//! systems. So every panel solve ([`crate::CholeskyFactor::solve_columns`],
//! [`crate::LuFactor::solve_columns`], the public CSC panel functions)
//! packs each strip of at most [`STRIP_WIDTH`] columns into a row-major
//! scratch (row `j` holds unknown `j` of every column of the strip), runs
//! its triangular sweeps on it and unpacks. The fill-reducing or pivoting
//! permutation is folded into the pack and unpack, and so is the Kronecker
//! preconditioner's block mix ([`Columns::Mixed`]): packing is two
//! sequential sweeps of `w·n` values against `nnz(L)·w` solve operations.
//!
//! Under [`Backend::Scalar`] a strip is exactly as wide as its columns and
//! is solved by the width-`K` kernels of [`opera_simd::scalar`], which read
//! each stored entry once for the whole row. Under a vector backend a strip
//! is [`LANES`] wide, zero-padded: pad lanes divide zeros by the (nonzero,
//! asserted) diagonal and accumulate zero updates, never producing values
//! that are read back. Either way each real lane performs exactly the
//! single-column solve's operations in its order, so every path is
//! bit-identical to solving the columns one at a time.
//!
//! The scalar path borrows its scratch from the caller's
//! [`SolveWorkspace`]; the vector path (and a caller without a workspace)
//! uses a per-thread [`AlignedVec`] that grows to the largest system seen
//! and is reused forever after, preserving the zero steady-state-allocation
//! contract.

use core::cell::RefCell;
use core::ops::Range;

use opera_simd::scalar::STRIP_WIDTH;
use opera_simd::{AlignedVec, Backend, LANES};

use crate::{CscMatrix, SolveWorkspace};

thread_local! {
    /// Per-thread strip scratch (`n × LANES` values).
    static INTERLEAVE: RefCell<AlignedVec> = RefCell::new(AlignedVec::new());
}

/// A triangular factor as the strip kernels read it: column `j` holds the
/// values `data[indptr[j]..indptr[j + 1]]` at the rows
/// `indices[rowptr[j]..]`. A CSC matrix passes its `indptr` as `rowptr`
/// ([`Triangle::csc`]); the supernodal [`crate::CholeskyFactor`] passes
/// each column's start in its supernode's row list.
#[derive(Clone, Copy)]
pub(crate) struct Triangle<'a> {
    pub indptr: &'a [usize],
    pub rowptr: &'a [usize],
    pub indices: &'a [usize],
    pub data: &'a [f64],
}

impl<'a> Triangle<'a> {
    /// A triangular CSC matrix.
    pub fn csc(m: &'a CscMatrix) -> Self {
        let (indptr, indices, data) = (m.indptr(), m.indices(), m.data());
        Triangle {
            indptr,
            rowptr: indptr,
            indices,
            data,
        }
    }
}

/// One triangular solve of a strip.
#[derive(Clone, Copy)]
pub(crate) enum Sweep<'a> {
    /// `L·X = B`, diagonal first in each column.
    Lower(Triangle<'a>),
    /// `Lᵀ·X = B` for the same `L`.
    LowerTranspose(Triangle<'a>),
    /// `U·X = B` for a CSC `U`, diagonal last in each column.
    Upper(Triangle<'a>),
}

/// The columns a panel solve reads and writes.
pub(crate) enum Columns<'a> {
    /// Solve the column-major panel in place.
    InPlace(&'a mut [f64]),
    /// Solve the mixed panel `R·M` into `z`: column `j` of the right-hand
    /// side is `Σ_i M[i·p + j]·r_i` over the `p` blocks `r_i` of `r`,
    /// accumulated from `+0.0` in ascending `i` with zero weights skipped —
    /// the order of one `axpy` per nonzero weight into a zeroed column.
    Mixed {
        r: &'a [f64],
        mix: &'a [f64],
        z: &'a mut [f64],
    },
}

// lint: hot(panel-strips)

/// Solves every column of `columns` (`n` rows each) through `sweeps`, in
/// strips: row `t` of a strip is gathered from row `gather[t]` of the
/// columns (row `t` without a gather), the sweeps run on the strip in
/// order, and row `t` is scattered back to row `scatter[t]`. A one-column
/// solve always runs the scalar kernel — a single lane gains nothing from
/// the vector path. `ws` lends the scalar path its scratch; without it the
/// per-thread scratch is used.
///
/// # Panics
///
/// Panics if the columns are not a multiple of `n` long, a mixed solve's
/// `r` and `z` differ in length or its `mix` is not `p × p`, or a sweep
/// finds a missing diagonal entry.
pub(crate) fn solve_panel(
    n: usize,
    mut columns: Columns<'_>,
    gather: Option<&[usize]>,
    sweeps: &[Sweep<'_>],
    scatter: Option<&[usize]>,
    ws: Option<&mut SolveWorkspace>,
) {
    if n == 0 {
        return;
    }
    let len = match &columns {
        Columns::InPlace(b) => b.len(),
        Columns::Mixed { z, .. } => z.len(),
    };
    assert_eq!(len % n, 0, "rhs length must be a multiple of n");
    let ncols = len / n;
    if let Columns::Mixed { r, mix, .. } = &columns {
        assert_eq!(r.len(), len, "mixed solve: r and z differ in length");
        assert_eq!(
            mix.len(),
            ncols * ncols,
            "mixed solve: the mix must be p × p"
        );
    }
    let backend = if len > n {
        opera_simd::active()
    } else {
        Backend::Scalar
    };
    let mut run = |scratch: &mut [f64]| {
        for c0 in (0..ncols).step_by(STRIP_WIDTH) {
            let cols = c0..(c0 + STRIP_WIDTH).min(ncols);
            let stride = if backend == Backend::Scalar {
                cols.len()
            } else {
                LANES
            };
            let strip = &mut scratch[..n * stride];
            match &columns {
                Columns::InPlace(b) => pack(b, n, &cols, gather, strip, stride),
                Columns::Mixed { r, mix, .. } => {
                    pack_mixed(r, mix, n, &cols, gather, strip, stride)
                }
            }
            for &sweep in sweeps {
                solve_strip(sweep, n, cols.len(), strip, backend);
            }
            let dst = match &mut columns {
                Columns::InPlace(b) => &mut **b,
                Columns::Mixed { z, .. } => &mut **z,
            };
            unpack(strip, stride, n, &cols, scatter, dst);
        }
    };
    match ws {
        Some(ws) if backend == Backend::Scalar => run(ws.scratch(n * ncols.min(STRIP_WIDTH))),
        _ => INTERLEAVE.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < n * LANES {
                buf.resize(n * LANES);
            }
            run(buf.as_mut_slice());
        }),
    }
}

/// One sweep over a packed strip of `width` columns: the width-exact scalar
/// kernel, or the `LANES`-wide vector kernel on a padded strip.
fn solve_strip(sweep: Sweep<'_>, n: usize, width: usize, x: &mut [f64], backend: Backend) {
    use opera_simd::scalar;
    match (sweep, backend) {
        (Sweep::Lower(l), Backend::Scalar) => {
            scalar::lower_solve_strip(l.indptr, l.rowptr, l.indices, l.data, width, n, x)
        }
        (Sweep::Lower(l), _) => opera_simd::lower_solve_interleaved(
            l.indptr, l.rowptr, l.indices, l.data, n, x, backend,
        ),
        (Sweep::LowerTranspose(l), Backend::Scalar) => {
            scalar::lower_transpose_solve_strip(l.indptr, l.rowptr, l.indices, l.data, width, n, x)
        }
        (Sweep::LowerTranspose(l), _) => opera_simd::lower_transpose_solve_interleaved(
            l.indptr, l.rowptr, l.indices, l.data, n, x, backend,
        ),
        (Sweep::Upper(u), Backend::Scalar) => {
            scalar::upper_solve_strip(u.indptr, u.indices, u.data, width, n, x)
        }
        (Sweep::Upper(u), _) => {
            opera_simd::upper_solve_interleaved(u.indptr, u.indices, u.data, n, x, backend)
        }
    }
}

/// Transposes columns `cols` of the column-major `src` into the row-major
/// `strip` of `stride` lanes per row, gathering row `t` from `gather[t]`
/// and zero-filling the pad lanes.
fn pack(
    src: &[f64],
    n: usize,
    cols: &Range<usize>,
    gather: Option<&[usize]>,
    strip: &mut [f64],
    stride: usize,
) {
    for (t, row) in strip.chunks_exact_mut(stride).enumerate() {
        let q = gather.map_or(t, |g| g[t]);
        let (lanes, pad) = row.split_at_mut(cols.len());
        for (c, slot) in (cols.start..).zip(lanes) {
            *slot = src[c * n + q];
        }
        pad.fill(0.0);
    }
}

/// [`pack`] of the mixed columns `cols` of [`Columns::Mixed`]: lane `j` of
/// row `t` is `Σ_i mix[i·p + j]·r[i·n + gather[t]]`, summed from `+0.0` in
/// ascending `i`, zero weights skipped.
fn pack_mixed(
    r: &[f64],
    mix: &[f64],
    n: usize,
    cols: &Range<usize>,
    gather: Option<&[usize]>,
    strip: &mut [f64],
    stride: usize,
) {
    let c0 = cols.start;
    match cols.len() {
        1 => pack_mixed_rows::<1>(r, mix, n, c0, gather, strip, stride),
        2 => pack_mixed_rows::<2>(r, mix, n, c0, gather, strip, stride),
        3 => pack_mixed_rows::<3>(r, mix, n, c0, gather, strip, stride),
        4 => pack_mixed_rows::<4>(r, mix, n, c0, gather, strip, stride),
        5 => pack_mixed_rows::<5>(r, mix, n, c0, gather, strip, stride),
        6 => pack_mixed_rows::<6>(r, mix, n, c0, gather, strip, stride),
        7 => pack_mixed_rows::<7>(r, mix, n, c0, gather, strip, stride),
        _ => pack_mixed_rows::<STRIP_WIDTH>(r, mix, n, c0, gather, strip, stride),
    }
}

/// [`pack_mixed`] of the `K` columns from `c0`: each row's `K` sums are
/// carried side by side, block by block. A zero weight adds `+0.0`, which
/// leaves a sum exactly as skipping it would: a sum started at `+0.0` is
/// never `−0.0`, and `0·v` (NaN for an infinite `v`) is never formed.
fn pack_mixed_rows<const K: usize>(
    r: &[f64],
    mix: &[f64],
    n: usize,
    c0: usize,
    gather: Option<&[usize]>,
    strip: &mut [f64],
    stride: usize,
) {
    let p = r.len() / n;
    for (t, row) in strip.chunks_exact_mut(stride).enumerate() {
        let q = gather.map_or(t, |g| g[t]);
        let mut acc = [0.0; K];
        for (i, weights) in mix.chunks_exact(p).enumerate() {
            let v = r[i * n + q];
            for (sum, &weight) in acc.iter_mut().zip(&weights[c0..c0 + K]) {
                *sum += if weight != 0.0 { weight * v } else { 0.0 };
            }
        }
        let (lanes, pad) = row.split_at_mut(K);
        lanes.copy_from_slice(&acc);
        pad.fill(0.0);
    }
}

/// Transposes the row-major `strip` back into columns `cols` of the
/// column-major `dst`, scattering row `t` to `scatter[t]` and discarding
/// the pad lanes.
fn unpack(
    strip: &[f64],
    stride: usize,
    n: usize,
    cols: &Range<usize>,
    scatter: Option<&[usize]>,
    dst: &mut [f64],
) {
    for (t, row) in strip.chunks_exact(stride).enumerate() {
        let q = scatter.map_or(t, |s| s[t]);
        for (c, &v) in (cols.start..cols.end).zip(row) {
            dst[c * n + q] = v;
        }
    }
}

// lint: end-hot
