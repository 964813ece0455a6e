//! AVX2 and AVX-512 kernel backends, generated from one width-generic macro.
//!
//! Every function here is an `unsafe fn` gated on a `#[target_feature]`
//! attribute; the *only* safety obligation is that the named CPU feature is
//! present at runtime, which the dispatch layer in `lib.rs` verifies before
//! every call. All memory accesses are derived from slices with explicit
//! in-bounds arithmetic (`i + W <= len`, or `LANES`-sized row sub-slices),
//! so no kernel can read or write out of bounds even for malformed factor
//! inputs — those panic on the same asserts as the scalar kernels.
//!
//! Bit-identity with the scalar reference holds because the kernels use only
//! `mul`/`add`/`sub`/`div` intrinsics (IEEE-754 correctly rounded per lane,
//! never FMA-contracted) and keep each lane's operation order equal to the
//! scalar loop's.

/// Expands one complete kernel backend for a vector width of `$w` f64 lanes.
macro_rules! vector_backend {
    ($mod_name:ident, $feature:literal, $w:literal,
     $loadu:ident, $storeu:ident, $set1:ident,
     $add:ident, $sub:ident, $mul:ident, $div:ident) => {
        pub mod $mod_name {
            use core::arch::x86_64::*;

            /// f64 lanes per vector register for this backend.
            const W: usize = $w;
            /// Vector registers per interleaved row of `crate::LANES` lanes.
            const CHUNKS: usize = crate::LANES / $w;

            // These kernels run on the per-step transient path and inside
            // the supernodal factorisation; none of them may allocate.
            // lint: hot(simd-vector-kernels)

            // SAFETY: every function in this module requires only that the
            // `$feature` CPU feature is available at runtime; the dispatch
            // layer in lib.rs checks availability before each call.
            #[target_feature(enable = $feature)]
            pub unsafe fn axpy(y: &mut [f64], x: &[f64], c: f64) {
                let len = y.len().min(x.len());
                let cv = $set1(c);
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    $storeu(yp, $add($loadu(yp), $mul(cv, $loadu(x.as_ptr().add(i)))));
                    i += W;
                }
                while i < len {
                    y[i] += c * x[i];
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn sub_axpy(y: &mut [f64], x: &[f64], c: f64) {
                let len = y.len().min(x.len());
                let cv = $set1(c);
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    $storeu(yp, $sub($loadu(yp), $mul(cv, $loadu(x.as_ptr().add(i)))));
                    i += W;
                }
                while i < len {
                    y[i] -= c * x[i];
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn axpy4(ys: [&mut [f64]; 4], x: &[f64], cs: [f64; 4]) {
                let [y0, y1, y2, y3] = ys;
                let len = x
                    .len()
                    .min(y0.len())
                    .min(y1.len())
                    .min(y2.len())
                    .min(y3.len());
                let c0 = $set1(cs[0]);
                let c1 = $set1(cs[1]);
                let c2 = $set1(cs[2]);
                let c3 = $set1(cs[3]);
                let mut i = 0;
                while i + W <= len {
                    let xv = $loadu(x.as_ptr().add(i));
                    let p0 = y0.as_mut_ptr().add(i);
                    let p1 = y1.as_mut_ptr().add(i);
                    let p2 = y2.as_mut_ptr().add(i);
                    let p3 = y3.as_mut_ptr().add(i);
                    $storeu(p0, $add($loadu(p0), $mul(c0, xv)));
                    $storeu(p1, $add($loadu(p1), $mul(c1, xv)));
                    $storeu(p2, $add($loadu(p2), $mul(c2, xv)));
                    $storeu(p3, $add($loadu(p3), $mul(c3, xv)));
                    i += W;
                }
                while i < len {
                    let xv = x[i];
                    y0[i] += cs[0] * xv;
                    y1[i] += cs[1] * xv;
                    y2[i] += cs[2] * xv;
                    y3[i] += cs[3] * xv;
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn rank4_sub(y: &mut [f64], ts: [&[f64]; 4], cs: [f64; 4]) {
                let [t0, t1, t2, t3] = ts;
                let len = y
                    .len()
                    .min(t0.len())
                    .min(t1.len())
                    .min(t2.len())
                    .min(t3.len());
                let c0 = $set1(cs[0]);
                let c1 = $set1(cs[1]);
                let c2 = $set1(cs[2]);
                let c3 = $set1(cs[3]);
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    let s01 = $add(
                        $mul(c0, $loadu(t0.as_ptr().add(i))),
                        $mul(c1, $loadu(t1.as_ptr().add(i))),
                    );
                    let s012 = $add(s01, $mul(c2, $loadu(t2.as_ptr().add(i))));
                    let s = $add(s012, $mul(c3, $loadu(t3.as_ptr().add(i))));
                    $storeu(yp, $sub($loadu(yp), s));
                    i += W;
                }
                while i < len {
                    y[i] -= cs[0] * t0[i] + cs[1] * t1[i] + cs[2] * t2[i] + cs[3] * t3[i];
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn div_assign(y: &mut [f64], d: f64) {
                let len = y.len();
                let dv = $set1(d);
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    $storeu(yp, $div($loadu(yp), dv));
                    i += W;
                }
                while i < len {
                    y[i] /= d;
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn scale_assign(y: &mut [f64], s: f64) {
                let len = y.len();
                let sv = $set1(s);
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    $storeu(yp, $mul($loadu(yp), sv));
                    i += W;
                }
                while i < len {
                    y[i] *= s;
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn add_assign(y: &mut [f64], x: &[f64]) {
                let len = y.len().min(x.len());
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    $storeu(yp, $add($loadu(yp), $loadu(x.as_ptr().add(i))));
                    i += W;
                }
                while i < len {
                    y[i] += x[i];
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn add2_assign(y: &mut [f64], a: &[f64], b: &[f64]) {
                let len = y.len().min(a.len()).min(b.len());
                let mut i = 0;
                while i + W <= len {
                    let yp = y.as_mut_ptr().add(i);
                    let s = $add($loadu(a.as_ptr().add(i)), $loadu(b.as_ptr().add(i)));
                    $storeu(yp, $add($loadu(yp), s));
                    i += W;
                }
                while i < len {
                    y[i] += a[i] + b[i];
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn weighted_sum3(out: &mut [f64], srcs: [&[f64]; 3], ws: [f64; 3]) {
                let [a, b, d] = srcs;
                let len = out.len().min(a.len()).min(b.len()).min(d.len());
                let wa = $set1(ws[0]);
                let wb = $set1(ws[1]);
                let wd = $set1(ws[2]);
                let mut i = 0;
                while i + W <= len {
                    let s = $add(
                        $add(
                            $mul(wa, $loadu(a.as_ptr().add(i))),
                            $mul(wb, $loadu(b.as_ptr().add(i))),
                        ),
                        $mul(wd, $loadu(d.as_ptr().add(i))),
                    );
                    $storeu(out.as_mut_ptr().add(i), s);
                    i += W;
                }
                while i < len {
                    out[i] = ws[0] * a[i] + ws[1] * b[i] + ws[2] * d[i];
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); all accesses bounded by `i + W <= len`.
            #[target_feature(enable = $feature)]
            pub unsafe fn welford_update(
                mean: &mut [f64],
                m2: &mut [f64],
                sample: &[f64],
                count: f64,
            ) {
                let len = mean.len().min(m2.len()).min(sample.len());
                let cv = $set1(count);
                let mut i = 0;
                while i + W <= len {
                    let mp = mean.as_mut_ptr().add(i);
                    let qp = m2.as_mut_ptr().add(i);
                    let sv = $loadu(sample.as_ptr().add(i));
                    let mv = $loadu(mp);
                    let delta = $sub(sv, mv);
                    let mnew = $add(mv, $div(delta, cv));
                    $storeu(mp, mnew);
                    $storeu(qp, $add($loadu(qp), $mul(delta, $sub(sv, mnew))));
                    i += W;
                }
                while i < len {
                    let delta = sample[i] - mean[i];
                    mean[i] += delta / count;
                    m2[i] += delta * (sample[i] - mean[i]);
                    i += 1;
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); row sub-slices have exactly `crate::LANES`
            // elements, so chunk offsets `c * W + W <= LANES` stay in
            // bounds; factor indices are bounds-checked by the slicing.
            #[target_feature(enable = $feature)]
            pub unsafe fn lower_solve_interleaved(
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
                    let d = $set1(data[start]);
                    let mut xv = [$set1(0.0); CHUNKS];
                    {
                        let row = &mut x[j * LANES..(j + 1) * LANES];
                        for (c, slot) in xv.iter_mut().enumerate() {
                            let p = row.as_mut_ptr().add(c * W);
                            *slot = $div($loadu(p), d);
                            $storeu(p, *slot);
                        }
                    }
                    let rows = &indices[r0 + 1..r0 + end - start];
                    for (&i, &v) in rows.iter().zip(&data[start + 1..end]) {
                        let v = $set1(v);
                        let row = &mut x[i * LANES..(i + 1) * LANES];
                        for (c, xc) in xv.iter().enumerate() {
                            let p = row.as_mut_ptr().add(c * W);
                            $storeu(p, $sub($loadu(p), $mul(v, *xc)));
                        }
                    }
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); same in-bounds argument as
            // `lower_solve_interleaved`.
            #[target_feature(enable = $feature)]
            pub unsafe fn lower_transpose_solve_interleaved(
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
                    let mut acc = [$set1(0.0); CHUNKS];
                    {
                        let row = &x[j * LANES..(j + 1) * LANES];
                        for (c, slot) in acc.iter_mut().enumerate() {
                            *slot = $loadu(row.as_ptr().add(c * W));
                        }
                    }
                    let rows = &indices[r0 + 1..r0 + end - start];
                    for (&i, &v) in rows.iter().zip(&data[start + 1..end]) {
                        let v = $set1(v);
                        let row = &x[i * LANES..(i + 1) * LANES];
                        for (c, slot) in acc.iter_mut().enumerate() {
                            *slot = $sub(*slot, $mul(v, $loadu(row.as_ptr().add(c * W))));
                        }
                    }
                    let d = $set1(data[start]);
                    let row = &mut x[j * LANES..(j + 1) * LANES];
                    for (c, slot) in acc.iter().enumerate() {
                        $storeu(row.as_mut_ptr().add(c * W), $div(*slot, d));
                    }
                }
            }

            // SAFETY: requires only the `$feature` CPU feature (checked by
            // the dispatcher); same in-bounds argument as
            // `lower_solve_interleaved`.
            #[target_feature(enable = $feature)]
            pub unsafe fn upper_solve_interleaved(
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
                    let d = $set1(data[end - 1]);
                    let mut xv = [$set1(0.0); CHUNKS];
                    {
                        let row = &mut x[j * LANES..(j + 1) * LANES];
                        for (c, slot) in xv.iter_mut().enumerate() {
                            let p = row.as_mut_ptr().add(c * W);
                            *slot = $div($loadu(p), d);
                            $storeu(p, *slot);
                        }
                    }
                    for e in start..end - 1 {
                        let i = indices[e];
                        let v = $set1(data[e]);
                        let row = &mut x[i * LANES..(i + 1) * LANES];
                        for (c, xc) in xv.iter().enumerate() {
                            let p = row.as_mut_ptr().add(c * W);
                            $storeu(p, $sub($loadu(p), $mul(v, *xc)));
                        }
                    }
                }
            }

            // lint: end-hot
        }
    };
}

vector_backend!(
    avx2,
    "avx2",
    4,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_set1_pd,
    _mm256_add_pd,
    _mm256_sub_pd,
    _mm256_mul_pd,
    _mm256_div_pd
);

vector_backend!(
    avx512,
    "avx512f",
    8,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_set1_pd,
    _mm512_add_pd,
    _mm512_sub_pd,
    _mm512_mul_pd,
    _mm512_div_pd
);
