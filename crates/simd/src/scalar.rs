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

/// Widest strip [`lower_solve_strip`] and friends solve at once: wider
/// panels are cut into strips of at most this many columns.
pub const STRIP_WIDTH: usize = crate::LANES;

/// Calls the width-`K` instantiation of a shared-value strip kernel for a
/// runtime width of `1..=STRIP_WIDTH`.
macro_rules! by_width {
    ($width:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $width {
            1 => $kernel::<1, f64>($($arg),*),
            2 => $kernel::<2, f64>($($arg),*),
            3 => $kernel::<3, f64>($($arg),*),
            4 => $kernel::<4, f64>($($arg),*),
            5 => $kernel::<5, f64>($($arg),*),
            6 => $kernel::<6, f64>($($arg),*),
            7 => $kernel::<7, f64>($($arg),*),
            width => {
                assert_eq!(width, STRIP_WIDTH, "a strip is 1..={STRIP_WIDTH} columns wide");
                $kernel::<STRIP_WIDTH, f64>($($arg),*)
            }
        }
    };
}

/// Forward substitution `L·X = B` on a row-major `n × width` strip: row `j`
/// of `x` holds unknown `j` of `width` right-hand sides, `1 ≤ width ≤`
/// [`STRIP_WIDTH`]. Column `j` of `L` holds the values
/// `data[indptr[j]..indptr[j + 1]]` at the rows `indices[rowptr[j]..]`,
/// diagonal first (see [`crate::lower_solve_interleaved`]). Each stored
/// entry is read once and applied to the whole row, and each column of `x`
/// sees exactly the single-column solve's operations in its order.
///
/// # Panics
///
/// Panics on a width outside `1..=STRIP_WIDTH`, shape mismatch or a missing
/// diagonal entry.
pub fn lower_solve_strip(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    width: usize,
    n: usize,
    x: &mut [f64],
) {
    by_width!(width, lower_rows(indptr, rowptr, indices, data, n, x))
}

/// Backward substitution `Lᵀ·X = B` on a row-major `n × width` strip (same
/// layout and factor convention as [`lower_solve_strip`]).
///
/// # Panics
///
/// Panics under the same conditions as [`lower_solve_strip`].
pub fn lower_transpose_solve_strip(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[f64],
    width: usize,
    n: usize,
    x: &mut [f64],
) {
    by_width!(
        width,
        lower_transpose_rows(indptr, rowptr, indices, data, n, x)
    )
}

/// Backward substitution `U·X = B` on a row-major `n × width` strip, for
/// upper triangular `U` in CSC with the diagonal stored last in each column.
///
/// # Panics
///
/// Panics under the same conditions as [`lower_solve_strip`].
pub fn upper_solve_strip(
    indptr: &[usize],
    indices: &[usize],
    data: &[f64],
    width: usize,
    n: usize,
    x: &mut [f64],
) {
    by_width!(width, upper_rows(indptr, indices, data, n, x))
}

/// Forward substitution `L·X = B` on a row-major `n × LANES` interleaved
/// strip (see [`crate::lower_solve_interleaved`]): the
/// [`lower_solve_strip`] kernel at its full width.
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
    lower_rows::<{ crate::LANES }, f64>(indptr, rowptr, indices, data, n, x);
}

/// Backward substitution `Lᵀ·X = B` on an interleaved strip (see
/// [`crate::lower_transpose_solve_interleaved`]): the
/// [`lower_transpose_solve_strip`] kernel at its full width.
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
    lower_transpose_rows::<{ crate::LANES }, f64>(indptr, rowptr, indices, data, n, x);
}

/// Backward substitution `U·X = B` on an interleaved strip, diagonal last
/// per CSC column (see [`crate::upper_solve_interleaved`]): the
/// [`upper_solve_strip`] kernel at its full width.
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
    upper_rows::<{ crate::LANES }, f64>(indptr, indices, data, n, x);
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
    assert_eq!(
        data.len(),
        indptr[n] * lanes,
        "lockstep value length mismatch"
    );
    match lanes {
        1 => lower_rows::<1, [f64; 1]>(indptr, rowptr, indices, data.as_chunks().0, n, x),
        2 => lower_rows::<2, [f64; 2]>(indptr, rowptr, indices, data.as_chunks().0, n, x),
        3 => lower_rows::<3, [f64; 3]>(indptr, rowptr, indices, data.as_chunks().0, n, x),
        _ => {
            assert_eq!(lanes, LOCKSTEP_LANES, "lockstep width must be 1..=4");
            let data = data.as_chunks().0;
            lower_rows::<LOCKSTEP_LANES, [f64; LOCKSTEP_LANES]>(indptr, rowptr, indices, data, n, x)
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
    assert_eq!(
        data.len(),
        indptr[n] * lanes,
        "lockstep value length mismatch"
    );
    match lanes {
        1 => lower_transpose_rows::<1, [f64; 1]>(indptr, rowptr, indices, data.as_chunks().0, n, x),
        2 => lower_transpose_rows::<2, [f64; 2]>(indptr, rowptr, indices, data.as_chunks().0, n, x),
        3 => lower_transpose_rows::<3, [f64; 3]>(indptr, rowptr, indices, data.as_chunks().0, n, x),
        _ => {
            assert_eq!(lanes, LOCKSTEP_LANES, "lockstep width must be 1..=4");
            let data = data.as_chunks().0;
            lower_transpose_rows::<LOCKSTEP_LANES, [f64; LOCKSTEP_LANES]>(
                indptr, rowptr, indices, data, n, x,
            )
        }
    }
}

/// One stored factor entry as the `K` lanes of a strip read it: one value
/// every lane shares (one factor, `K` right-hand sides) or one value per
/// lane (`K` lock-step factors of one pattern).
trait Entry<const K: usize>: Copy {
    /// The value lane `c` applies.
    fn lane(self, c: usize) -> f64;
}

impl<const K: usize> Entry<K> for f64 {
    #[inline(always)]
    fn lane(self, _c: usize) -> f64 {
        self
    }
}

impl<const K: usize> Entry<K> for [f64; K] {
    #[inline(always)]
    fn lane(self, c: usize) -> f64 {
        self[c]
    }
}

/// The forward kernel behind [`lower_solve_strip`],
/// [`lower_solve_interleaved`] and [`lower_solve_lockstep`]: `x` is
/// row-major `n × K`, and lane `c` divides by and subtracts with
/// `entry.lane(c)` in the single-column order.
fn lower_rows<const K: usize, V: Entry<K>>(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[V],
    n: usize,
    x: &mut [f64],
) {
    assert_eq!(x.len(), n * K, "strip length mismatch");
    let (x, _) = x.as_chunks_mut::<K>();
    for j in 0..n {
        let (start, end, r0) = (indptr[j], indptr[j + 1], rowptr[j]);
        assert!(
            start < end && indices[r0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let d = data[start];
        let xj = &mut x[j];
        for (c, slot) in xj.iter_mut().enumerate() {
            *slot /= d.lane(c);
        }
        let xr = *xj;
        let rows = &indices[r0 + 1..r0 + end - start];
        for (&i, &v) in rows.iter().zip(&data[start + 1..end]) {
            let row = &mut x[i];
            for c in 0..K {
                row[c] -= v.lane(c) * xr[c];
            }
        }
    }
}

/// The transpose kernel behind [`lower_transpose_solve_strip`],
/// [`lower_transpose_solve_interleaved`] and
/// [`lower_transpose_solve_lockstep`] (layout of [`lower_rows`]).
fn lower_transpose_rows<const K: usize, V: Entry<K>>(
    indptr: &[usize],
    rowptr: &[usize],
    indices: &[usize],
    data: &[V],
    n: usize,
    x: &mut [f64],
) {
    assert_eq!(x.len(), n * K, "strip length mismatch");
    let (x, _) = x.as_chunks_mut::<K>();
    for j in (0..n).rev() {
        let (start, end, r0) = (indptr[j], indptr[j + 1], rowptr[j]);
        assert!(
            start < end && indices[r0] == j,
            "missing diagonal entry in lower triangular column {j}"
        );
        let mut acc = x[j];
        let rows = &indices[r0 + 1..r0 + end - start];
        for (&i, &v) in rows.iter().zip(&data[start + 1..end]) {
            let row = &x[i];
            for c in 0..K {
                acc[c] -= v.lane(c) * row[c];
            }
        }
        let d = data[start];
        for (c, slot) in x[j].iter_mut().enumerate() {
            *slot = acc[c] / d.lane(c);
        }
    }
}

/// The upper kernel behind [`upper_solve_strip`] and
/// [`upper_solve_interleaved`] (layout of [`lower_rows`], diagonal last).
fn upper_rows<const K: usize, V: Entry<K>>(
    indptr: &[usize],
    indices: &[usize],
    data: &[V],
    n: usize,
    x: &mut [f64],
) {
    assert_eq!(x.len(), n * K, "strip length mismatch");
    let (x, _) = x.as_chunks_mut::<K>();
    for j in (0..n).rev() {
        let (start, end) = (indptr[j], indptr[j + 1]);
        assert!(
            start < end && indices[end - 1] == j,
            "missing diagonal entry in upper triangular column {j}"
        );
        let d = data[end - 1];
        let xj = &mut x[j];
        for (c, slot) in xj.iter_mut().enumerate() {
            *slot /= d.lane(c);
        }
        let xr = *xj;
        for (&i, &v) in indices[start..end - 1].iter().zip(&data[start..end - 1]) {
            let row = &mut x[i];
            for c in 0..K {
                row[c] -= v.lane(c) * xr[c];
            }
        }
    }
}

// lint: end-hot
