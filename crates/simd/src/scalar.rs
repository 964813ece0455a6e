//! Scalar reference kernels: the bit-identity baseline every vector backend
//! must reproduce exactly (zero-ULP budget). These are plain Rust loops with
//! the same per-element operation order as the original hand-written hot
//! loops they replaced, so routing a call site through
//! [`crate::axpy`]-style dispatch with [`crate::Backend::Scalar`] is a
//! refactor, not a numerical change.

// The kernels below run on the per-step transient path and inside the
// supernodal factorisation; none of them may allocate.
// lint: hot(simd-scalar-kernels)

/// `y[i] += c * x[i]` over the common prefix.
pub fn axpy(y: &mut [f64], x: &[f64], c: f64) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += c * xv;
    }
}

/// `y[i] -= c * x[i]` over the common prefix.
pub fn sub_axpy(y: &mut [f64], x: &[f64], c: f64) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv -= c * xv;
    }
}

/// Four axpys off one shared source: `ys[b][i] += cs[b] * x[i]`.
pub fn axpy4(ys: [&mut [f64]; 4], x: &[f64], cs: [f64; 4]) {
    let [y0, y1, y2, y3] = ys;
    let len = x
        .len()
        .min(y0.len())
        .min(y1.len())
        .min(y2.len())
        .min(y3.len());
    for i in 0..len {
        let xv = x[i];
        y0[i] += cs[0] * xv;
        y1[i] += cs[1] * xv;
        y2[i] += cs[2] * xv;
        y3[i] += cs[3] * xv;
    }
}

/// Rank-4 update with left-to-right summation:
/// `y[i] -= ((cs[0]*ts[0][i] + cs[1]*ts[1][i]) + cs[2]*ts[2][i]) + cs[3]*ts[3][i]`.
pub fn rank4_sub(y: &mut [f64], ts: [&[f64]; 4], cs: [f64; 4]) {
    let [t0, t1, t2, t3] = ts;
    let len = y
        .len()
        .min(t0.len())
        .min(t1.len())
        .min(t2.len())
        .min(t3.len());
    for i in 0..len {
        y[i] -= cs[0] * t0[i] + cs[1] * t1[i] + cs[2] * t2[i] + cs[3] * t3[i];
    }
}

/// `y[i] /= d`.
pub fn div_assign(y: &mut [f64], d: f64) {
    for v in y {
        *v /= d;
    }
}

/// `y[i] *= s`.
pub fn scale_assign(y: &mut [f64], s: f64) {
    for v in y {
        *v *= s;
    }
}

/// `y[i] += x[i]` over the common prefix.
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

/// `y[i] += a[i] + b[i]` over the common prefix.
pub fn add2_assign(y: &mut [f64], a: &[f64], b: &[f64]) {
    for ((yv, &av), &bv) in y.iter_mut().zip(a).zip(b) {
        *yv += av + bv;
    }
}

/// `out[i] = (ws[0]*srcs[0][i] + ws[1]*srcs[1][i]) + ws[2]*srcs[2][i]`.
pub fn weighted_sum3(out: &mut [f64], srcs: [&[f64]; 3], ws: [f64; 3]) {
    let [a, b, d] = srcs;
    for (((o, &av), &bv), &dv) in out.iter_mut().zip(a).zip(b).zip(d) {
        *o = ws[0] * av + ws[1] * bv + ws[2] * dv;
    }
}

/// One Welford fold step over a sample row.
pub fn welford_update(mean: &mut [f64], m2: &mut [f64], sample: &[f64], count: f64) {
    for ((m, q), &v) in mean.iter_mut().zip(m2.iter_mut()).zip(sample) {
        let delta = v - *m;
        *m += delta / count;
        *q += delta * (v - *m);
    }
}

/// Forward substitution `L·X = B` on a row-major `n × LANES` interleaved
/// strip (see [`crate::lower_solve_interleaved`]). Column `j` holds the
/// values `data[indptr[j]..indptr[j + 1]]` at the rows read from
/// `indices[rowptr[j]..]`, diagonal first.
///
/// # Panics
///
/// Panics on shape mismatch or a missing diagonal entry.
pub fn lower_solve_interleaved(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
) {
    const LANES: usize = crate::LANES;
    assert_eq!(x.len(), n * LANES, "interleaved strip length mismatch");
    for j in 0..n {
        let (start, end, r0) = (indptr[j], indptr[j + 1], rowptr[j]);
        assert!(
            start < end && indices[r0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let d = data[start];
        let mut xr = [0.0; LANES];
        for (c, slot) in xr.iter_mut().enumerate() {
            *slot = x[j * LANES + c] / d;
            x[j * LANES + c] = *slot;
        }
        let rows = &indices[r0 + 1..r0 + end - start];
        for (&i, &v) in rows.iter().zip(&data[start + 1..end]) {
            let row = &mut x[i * LANES..(i + 1) * LANES];
            for (rv, &xc) in row.iter_mut().zip(&xr) {
                *rv -= v * xc;
            }
        }
    }
}

/// Backward substitution `Lᵀ·X = B` on an interleaved strip (see
/// [`crate::lower_transpose_solve_interleaved`]).
///
/// # Panics
///
/// Panics on shape mismatch or a missing diagonal entry.
pub fn lower_transpose_solve_interleaved(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
) {
    const LANES: usize = crate::LANES;
    assert_eq!(x.len(), n * LANES, "interleaved strip length mismatch");
    for j in (0..n).rev() {
        let (start, end, r0) = (indptr[j], indptr[j + 1], rowptr[j]);
        assert!(
            start < end && indices[r0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let mut acc = [0.0; LANES];
        for (c, slot) in acc.iter_mut().enumerate() {
            *slot = x[j * LANES + c];
        }
        let rows = &indices[r0 + 1..r0 + end - start];
        for (&i, &v) in rows.iter().zip(&data[start + 1..end]) {
            let row = &x[i * LANES..(i + 1) * LANES];
            for (slot, &rv) in acc.iter_mut().zip(row) {
                *slot -= v * rv;
            }
        }
        let d = data[start];
        for (c, slot) in acc.iter().enumerate() {
            x[j * LANES + c] = *slot / d;
        }
    }
}

/// Most factors [`lower_solve_lockstep`] and
/// [`lower_transpose_solve_lockstep`] step at once.
pub const LOCKSTEP_LANES: usize = 4;

/// Forward substitution `L_c·x_c = b_c` for `lanes` factors `L_c` that share
/// one pattern, in lock step. `x` is row-major `n × lanes`: lane `c` of row
/// `j` is unknown `j` of right-hand side `c`. The values are interleaved
/// the same way: lane `c` of stored entry `p` (`data[p·lanes + c]`) is
/// factor `c`'s value, and the pattern follows the `indptr`/`rowptr`/
/// `indices` convention of [`crate::lower_solve_interleaved`], diagonal
/// first. Per stored entry the kernel runs `lanes` independent recurrences,
/// and each lane performs exactly the single-column scalar solve's
/// operations in its order, so lane `c` is bit-identical to solving factor
/// `c` alone.
///
/// # Panics
///
/// Panics unless `1 ≤ lanes ≤ LOCKSTEP_LANES`, on shape mismatch, or on a
/// missing diagonal entry.
pub fn lower_solve_lockstep(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    lanes: usize,
    n: usize,
    x: &mut [f64],
) {
    match lanes {
        1 => lower_lockstep::<1>(indptr, rowptr, indices, data, n, x),
        2 => lower_lockstep::<2>(indptr, rowptr, indices, data, n, x),
        3 => lower_lockstep::<3>(indptr, rowptr, indices, data, n, x),
        _ => {
            assert_eq!(lanes, LOCKSTEP_LANES, "lockstep width must be 1..=4");
            lower_lockstep::<LOCKSTEP_LANES>(indptr, rowptr, indices, data, n, x)
        }
    }
}

/// Backward substitution `L_cᵀ·x_c = b_c` in lock step (same layout and
/// factor convention as [`lower_solve_lockstep`]). Each lane's accumulation
/// is its own dependent chain, so `lanes` chains advance per stored entry
/// where a single-column solve advances one.
///
/// # Panics
///
/// Panics under the same conditions as [`lower_solve_lockstep`].
pub fn lower_transpose_solve_lockstep(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    lanes: usize,
    n: usize,
    x: &mut [f64],
) {
    match lanes {
        1 => lower_transpose_lockstep::<1>(indptr, rowptr, indices, data, n, x),
        2 => lower_transpose_lockstep::<2>(indptr, rowptr, indices, data, n, x),
        3 => lower_transpose_lockstep::<3>(indptr, rowptr, indices, data, n, x),
        _ => {
            assert_eq!(lanes, LOCKSTEP_LANES, "lockstep width must be 1..=4");
            lower_transpose_lockstep::<LOCKSTEP_LANES>(indptr, rowptr, indices, data, n, x)
        }
    }
}

fn lower_lockstep<const K: usize>(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
) {
    assert_eq!(x.len(), n * K, "lockstep strip length mismatch");
    assert_eq!(data.len(), indptr[n] * K, "lockstep value length mismatch");
    let (x, _) = x.as_chunks_mut::<K>();
    let (data, _) = data.as_chunks::<K>();
    for j in 0..n {
        let (start, end, r0) = (indptr[j], indptr[j + 1], rowptr[j]);
        assert!(
            start < end && indices[r0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let d = &data[start];
        let xj = &mut x[j];
        for c in 0..K {
            xj[c] /= d[c];
        }
        let xr = *xj;
        let rows = &indices[r0 + 1..r0 + end - start];
        for (&i, v) in rows.iter().zip(&data[start + 1..end]) {
            let row = &mut x[i];
            for c in 0..K {
                row[c] -= v[c] * xr[c];
            }
        }
    }
}

fn lower_transpose_lockstep<const K: usize>(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
) {
    assert_eq!(x.len(), n * K, "lockstep strip length mismatch");
    assert_eq!(data.len(), indptr[n] * K, "lockstep value length mismatch");
    let (x, _) = x.as_chunks_mut::<K>();
    let (data, _) = data.as_chunks::<K>();
    for j in (0..n).rev() {
        let (start, end, r0) = (indptr[j], indptr[j + 1], rowptr[j]);
        assert!(
            start < end && indices[r0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let mut acc = x[j];
        let rows = &indices[r0 + 1..r0 + end - start];
        for (&i, v) in rows.iter().zip(&data[start + 1..end]) {
            let row = &x[i];
            for c in 0..K {
                acc[c] -= v[c] * row[c];
            }
        }
        let d = &data[start];
        for c in 0..K {
            x[j][c] = acc[c] / d[c];
        }
    }
}

/// Backward substitution `U·X = B` on an interleaved strip, diagonal last
/// per CSC column (see [`crate::upper_solve_interleaved`]).
///
/// # Panics
///
/// Panics on shape mismatch or a missing diagonal entry.
pub fn upper_solve_interleaved(
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
    n: usize,
    x: &mut [f64],
) {
    const LANES: usize = crate::LANES;
    assert_eq!(x.len(), n * LANES, "interleaved strip length mismatch");
    for j in (0..n).rev() {
        let start = indptr[j];
        let end = indptr[j + 1];
        assert!(
            start < end && indices[end - 1] == j,
            "missing diagonal entry in upper triangular column {j}"
        );
        let d = data[end - 1];
        let mut xr = [0.0; LANES];
        for (c, slot) in xr.iter_mut().enumerate() {
            *slot = x[j * LANES + c] / d;
            x[j * LANES + c] = *slot;
        }
        for e in start..end - 1 {
            let i = indices[e];
            let v = data[e];
            let row = &mut x[i * LANES..(i + 1) * LANES];
            for (rv, &xc) in row.iter_mut().zip(&xr) {
                *rv -= v * xc;
            }
        }
    }
}

// lint: end-hot
