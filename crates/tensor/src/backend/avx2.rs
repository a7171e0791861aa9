//! AVX2 bodies, lane-parallel across independent outputs only.
//!
//! Every function is the vector mirror of its twin in [`super::scalar`]:
//! main loop over `LANES`-wide chunks, scalar tail for the sub-lane
//! remainder. No `fmadd` anywhere — `_mm256_mul_ps` + `_mm256_add_ps`
//! round exactly like the scalar `*` then `+`, which is what makes the
//! whole path bit-identical (see the parent module's determinism
//! argument). NaN handling is explicit: `_CMP_*_OQ` predicates return
//! *false* on unordered operands, so each kernel documents which side of a
//! blend a NaN lands on and matches the scalar branch for it.
//!
//! # Safety
//!
//! All functions are safe `#[target_feature(enable = "avx2")]` functions:
//! calling one from a context that does not enable AVX2 is `unsafe`, and
//! the `Backend` methods in the parent module are the sole such callers —
//! each checks `is_x86_feature_detected!("avx2")` on every call (std
//! caches the CPUID result) and asserts the kernel's slice-length
//! preconditions first. Within the bodies, `unsafe` is confined to the
//! raw-pointer load/store intrinsics; each site carries a `// SAFETY:`
//! bound argument (main loops stop at `len - len % LANES` and tails
//! re-enter safe scalar code), backed by `debug_assert!` contracts at
//! function entry that restate the caller's release-mode asserts.

use super::scalar;
use super::{MR, NR};
use core::arch::x86_64::*;

/// f32 lanes per AVX2 vector.
const LANES: usize = 8;

/// Lane permutation that repairs `_mm256_shuffle_ps`'s 128-bit-lane
/// interleaving into a linear even/odd split (see [`deinterleave`]).
macro_rules! fixup_idx {
    () => {
        _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7)
    };
}

/// Splits 16 consecutive floats (`lo` = 0..8, `hi` = 8..16) into their
/// even-indexed and odd-indexed halves, each in linear order.
#[inline]
#[target_feature(enable = "avx2")]
fn deinterleave(lo: __m256, hi: __m256) -> (__m256, __m256) {
    // shuffle picks within 128-bit lanes: evens = [x0,x2,x8,x10 | x4,x6,x12,x14]
    let evens = _mm256_shuffle_ps(lo, hi, 0x88);
    let odds = _mm256_shuffle_ps(lo, hi, 0xDD);
    (
        _mm256_permutevar8x32_ps(evens, fixup_idx!()),
        _mm256_permutevar8x32_ps(odds, fixup_idx!()),
    )
}

#[target_feature(enable = "avx2")]
pub fn microkernel(k: usize, ap: &[f32], b: &[f32], rows: &[usize], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= k * MR, "packed A shorter than k tiles");
    // SAFETY: each `acc[i]` is a live `[f32; NR]` with NR == LANES == 8,
    // so an unaligned 8-lane load from its base pointer stays in bounds.
    let (mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6, mut r7) = unsafe {
        (
            _mm256_loadu_ps(acc[0].as_ptr()),
            _mm256_loadu_ps(acc[1].as_ptr()),
            _mm256_loadu_ps(acc[2].as_ptr()),
            _mm256_loadu_ps(acc[3].as_ptr()),
            _mm256_loadu_ps(acc[4].as_ptr()),
            _mm256_loadu_ps(acc[5].as_ptr()),
            _mm256_loadu_ps(acc[6].as_ptr()),
            _mm256_loadu_ps(acc[7].as_ptr()),
        )
    };
    let a = ap.as_ptr();
    let starts = super::row_starts(b.len());
    for (p, &r) in rows[..k].iter().enumerate() {
        if r >= starts {
            super::row_out_of_bounds(r, b.len());
        }
        // One rank-1 update: the B panel row broadcast against each of the
        // MR packed A values. Lanes are the NR *independent* output
        // columns; each still accumulates mul-then-add in scalar order.
        //
        // SAFETY: the B load covers `b[r .. r + NR]`, in bounds because
        // `r < row_starts(b.len())` was checked just above, in every build.
        // `p < k`, so the A reads cover `ap[p*MR .. p*MR + MR]` (in bounds:
        // `ap.len() >= k * MR`, checked by the `debug_assert!` above and
        // asserted again by the `Backend::microkernel` method in release
        // builds).
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(r));
            let ac = a.add(p * MR);
            r0 = _mm256_add_ps(r0, _mm256_mul_ps(_mm256_set1_ps(*ac), bv));
            r1 = _mm256_add_ps(r1, _mm256_mul_ps(_mm256_set1_ps(*ac.add(1)), bv));
            r2 = _mm256_add_ps(r2, _mm256_mul_ps(_mm256_set1_ps(*ac.add(2)), bv));
            r3 = _mm256_add_ps(r3, _mm256_mul_ps(_mm256_set1_ps(*ac.add(3)), bv));
            r4 = _mm256_add_ps(r4, _mm256_mul_ps(_mm256_set1_ps(*ac.add(4)), bv));
            r5 = _mm256_add_ps(r5, _mm256_mul_ps(_mm256_set1_ps(*ac.add(5)), bv));
            r6 = _mm256_add_ps(r6, _mm256_mul_ps(_mm256_set1_ps(*ac.add(6)), bv));
            r7 = _mm256_add_ps(r7, _mm256_mul_ps(_mm256_set1_ps(*ac.add(7)), bv));
        }
    }
    // SAFETY: same bound as the loads — each `acc[i]` holds exactly NR
    // (== LANES) floats, written back unaligned.
    unsafe {
        _mm256_storeu_ps(acc[0].as_mut_ptr(), r0);
        _mm256_storeu_ps(acc[1].as_mut_ptr(), r1);
        _mm256_storeu_ps(acc[2].as_mut_ptr(), r2);
        _mm256_storeu_ps(acc[3].as_mut_ptr(), r3);
        _mm256_storeu_ps(acc[4].as_mut_ptr(), r4);
        _mm256_storeu_ps(acc[5].as_mut_ptr(), r5);
        _mm256_storeu_ps(acc[6].as_mut_ptr(), r6);
        _mm256_storeu_ps(acc[7].as_mut_ptr(), r7);
    }
}

/// Expands to a standard `main vector loop + scalar tail` elementwise body
/// so every kernel splits its slices the same way.
macro_rules! zip2 {
    ($a:ident, $b:ident, $out:ident, |$va:ident, $vb:ident| $vec:expr, $tail:path) => {{
        debug_assert!($a.len() == $out.len() && $b.len() == $out.len());
        let n = $out.len();
        let main = n - n % LANES;
        let (pa, pb, po) = ($a.as_ptr(), $b.as_ptr(), $out.as_mut_ptr());
        let mut i = 0;
        while i < main {
            // SAFETY: `i + LANES <= main <= len` for all three slices
            // (equal lengths checked above), so the loads and the store
            // stay inside their allocations.
            unsafe {
                let $va = _mm256_loadu_ps(pa.add(i));
                let $vb = _mm256_loadu_ps(pb.add(i));
                _mm256_storeu_ps(po.add(i), $vec);
            }
            i += LANES;
        }
        $tail(&$a[main..], &$b[main..], &mut $out[main..]);
    }};
}

#[target_feature(enable = "avx2")]
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    zip2!(a, b, out, |va, vb| _mm256_add_ps(va, vb), scalar::add);
}

#[target_feature(enable = "avx2")]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let main = n - n % LANES;
    let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both equal-length slices.
        unsafe {
            let d = _mm256_loadu_ps(pd.add(i));
            let s = _mm256_loadu_ps(ps.add(i));
            _mm256_storeu_ps(pd.add(i), _mm256_add_ps(d, s));
        }
        i += LANES;
    }
    scalar::add_assign(&mut dst[main..], &src[main..]);
}

#[target_feature(enable = "avx2")]
pub fn axpy(dst: &mut [f32], src: &[f32], s: f32) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let main = n - n % LANES;
    let vs = _mm256_set1_ps(s);
    let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both equal-length slices.
        unsafe {
            let d = _mm256_loadu_ps(pd.add(i));
            let x = _mm256_loadu_ps(ps.add(i));
            // s * x first, then add — the scalar `add_scaled` order.
            _mm256_storeu_ps(pd.add(i), _mm256_add_ps(d, _mm256_mul_ps(vs, x)));
        }
        i += LANES;
    }
    scalar::axpy(&mut dst[main..], &src[main..], s);
}

/// One-input one-output map body (`out` may alias a distinct buffer; the
/// in-place variants pass the same logical data as both).
macro_rules! map1 {
    ($src:ident, $out:ident, |$v:ident| $vec:expr, $tail:expr) => {{
        debug_assert_eq!($src.len(), $out.len());
        let n = $out.len();
        let main = n - n % LANES;
        let (ps, po) = ($src.as_ptr(), $out.as_mut_ptr());
        let mut i = 0;
        while i < main {
            // SAFETY: `i + LANES <= main <= len` for both equal-length
            // slices, so the load and store stay in bounds.
            unsafe {
                let $v = _mm256_loadu_ps(ps.add(i));
                _mm256_storeu_ps(po.add(i), $vec);
            }
            i += LANES;
        }
        $tail(&$src[main..], &mut $out[main..]);
    }};
}

/// In-place unary map body.
macro_rules! map1_inplace {
    ($dst:ident, |$v:ident| $vec:expr, $tail:expr) => {{
        let n = $dst.len();
        let main = n - n % LANES;
        let pd = $dst.as_mut_ptr();
        let mut i = 0;
        while i < main {
            // SAFETY: `i + LANES <= main <= len`, so the read-modify-write
            // stays inside the slice.
            unsafe {
                let $v = _mm256_loadu_ps(pd.add(i));
                _mm256_storeu_ps(pd.add(i), $vec);
            }
            i += LANES;
        }
        $tail(&mut $dst[main..]);
    }};
}

#[target_feature(enable = "avx2")]
pub fn scale_inplace(dst: &mut [f32], s: f32) {
    let vs = _mm256_set1_ps(s);
    map1_inplace!(dst, |v| _mm256_mul_ps(v, vs), |d_: &mut [f32]| {
        scalar::scale_inplace(d_, s)
    });
}

#[target_feature(enable = "avx2")]
pub fn add_scalar(src: &[f32], s: f32, out: &mut [f32]) {
    let vs = _mm256_set1_ps(s);
    map1!(src, out, |v| _mm256_add_ps(v, vs), |s_, o_: &mut [f32]| {
        scalar::add_scalar(s_, s, o_)
    });
}

#[target_feature(enable = "avx2")]
pub fn add_scalar_inplace(dst: &mut [f32], s: f32) {
    let vs = _mm256_set1_ps(s);
    map1_inplace!(dst, |v| _mm256_add_ps(v, vs), |d_: &mut [f32]| {
        scalar::add_scalar_inplace(d_, s)
    });
}

#[target_feature(enable = "avx2")]
pub fn clamp(src: &[f32], lo: f32, hi: f32, out: &mut [f32]) {
    let vlo = _mm256_set1_ps(lo);
    let vhi = _mm256_set1_ps(hi);
    // Operand order is load-bearing: max/min return the SECOND operand
    // when either input is NaN or the values compare equal, so putting `v`
    // second propagates NaN and keeps the input's zero sign on ties —
    // exactly `f32::clamp`.
    map1!(
        src,
        out,
        |v| _mm256_min_ps(vhi, _mm256_max_ps(vlo, v)),
        |s_, o_: &mut [f32]| scalar::clamp(s_, lo, hi, o_)
    );
}

#[target_feature(enable = "avx2")]
pub fn relu_inplace(dst: &mut [f32]) {
    let zero = _mm256_setzero_ps();
    // `v <= 0` with an ORDERED predicate is false for NaN, so andnot
    // zeroes exactly the non-positive ordered lanes and passes NaN through
    // — the `v > 0 || v.is_nan()` branch, vectorized.
    map1_inplace!(
        dst,
        |v| _mm256_andnot_ps(_mm256_cmp_ps(v, zero, _CMP_LE_OQ), v),
        scalar::relu_inplace
    );
}

#[target_feature(enable = "avx2")]
pub fn leaky_relu_inplace(dst: &mut [f32], a: f32) {
    let zero = _mm256_setzero_ps();
    let va = _mm256_set1_ps(a);
    // blendv picks `v` where `v > 0` (ordered, so NaN falls to the a*v
    // side: a * NaN = NaN, same as the scalar else-branch).
    map1_inplace!(
        dst,
        |v| _mm256_blendv_ps(_mm256_mul_ps(va, v), v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ)),
        |d_: &mut [f32]| scalar::leaky_relu_inplace(d_, a)
    );
}

#[target_feature(enable = "avx2")]
pub fn relu_mask(src: &[f32], mask: &mut [f32]) {
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);
    // `v > 0` ordered: NaN lanes get mask 0.0, matching `v > 0.0`.
    map1!(
        src,
        mask,
        |v| _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ), one),
        scalar::relu_mask
    );
}

#[target_feature(enable = "avx2")]
pub fn relu_backward(mask: &[f32], g: &[f32], out: &mut [f32]) {
    let zero = _mm256_setzero_ps();
    // Select, not multiply: and-ing the comparison mask with g yields g
    // where mask != 0 and +0.0 elsewhere, even for NaN gradients.
    zip2!(
        mask,
        g,
        out,
        // `_CMP_NEQ_UQ` (unordered): a NaN mask entry compares true, just
        // like Rust's `m != 0.0`.
        |vm, vg| _mm256_and_ps(_mm256_cmp_ps(vm, zero, _CMP_NEQ_UQ), vg),
        scalar::relu_backward
    );
}

#[target_feature(enable = "avx2")]
pub fn leaky_relu_backward(mask: &[f32], g: &[f32], a: f32, out: &mut [f32]) {
    debug_assert!(mask.len() == out.len() && g.len() == out.len());
    let zero = _mm256_setzero_ps();
    let va = _mm256_set1_ps(a);
    let n = out.len();
    let main = n - n % LANES;
    let (pm, pg, po) = (mask.as_ptr(), g.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for all three equal-length
        // slices.
        unsafe {
            let vm = _mm256_loadu_ps(pm.add(i));
            let vg = _mm256_loadu_ps(pg.add(i));
            let scaled = _mm256_mul_ps(vg, va); // g * a, scalar order
            let keep = _mm256_cmp_ps(vm, zero, _CMP_NEQ_UQ);
            _mm256_storeu_ps(po.add(i), _mm256_blendv_ps(scaled, vg, keep));
        }
        i += LANES;
    }
    scalar::leaky_relu_backward(&mask[main..], &g[main..], a, &mut out[main..]);
}

#[target_feature(enable = "avx2")]
pub fn bn_affine(src: &[f32], out: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
    let vmean = _mm256_set1_ps(mean);
    let vinv = _mm256_set1_ps(inv_std);
    let vg = _mm256_set1_ps(g);
    let vb = _mm256_set1_ps(b);
    // Exactly the scalar sequence: sub, mul, mul, add — never a
    // precomputed g*inv_std and never fmadd.
    map1!(
        src,
        out,
        |v| {
            let xh = _mm256_mul_ps(_mm256_sub_ps(v, vmean), vinv);
            _mm256_add_ps(_mm256_mul_ps(vg, xh), vb)
        },
        |s_, o_: &mut [f32]| scalar::bn_affine(s_, o_, mean, inv_std, g, b)
    );
}

/// Sequential dependence chain (exp then running sum) — deliberately the
/// scalar body, exactly like the f64 plane reductions: vectorizing would
/// reassociate the sum and break the determinism goldens.
#[target_feature(enable = "avx2")]
pub fn exp_sum(dst: &mut [f32]) -> f32 {
    scalar::exp_sum(dst)
}

#[target_feature(enable = "avx2")]
pub fn row_max(xs: &[f32]) -> f32 {
    let n = xs.len();
    let main = n - n % LANES;
    let p = xs.as_ptr();
    let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= xs.len()`.
        let v = unsafe { _mm256_loadu_ps(p.add(i)) };
        // f32::max semantics per lane: a NaN candidate never replaces the
        // accumulator (ordered self-compare is false for NaN).
        let not_nan = _mm256_cmp_ps(v, v, _CMP_ORD_Q);
        let m = _mm256_max_ps(acc, v);
        acc = _mm256_blendv_ps(acc, m, not_nan);
        i += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly LANES floats.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    // Lanes are NaN-free by construction; fold them and the tail with the
    // scalar twin so the end result is the same f32::max fold.
    let head = scalar::row_max(&lanes);
    head.max(scalar::row_max(&xs[main..]))
}

#[target_feature(enable = "avx2")]
pub fn avg_pool_k2(r0: &[f32], r1: &[f32], out: &mut [f32], inv: f32) {
    debug_assert!(r0.len() == out.len() * 2 && r1.len() == out.len() * 2);
    let n = out.len();
    let main = n - n % LANES;
    let vinv = _mm256_set1_ps(inv);
    let (p0, p1, po) = (r0.as_ptr(), r1.as_ptr(), out.as_mut_ptr());
    let mut j = 0;
    while j < main {
        // 8 outputs consume 16 consecutive inputs per row; deinterleaving
        // gives each lane its own window's (even, odd) pair so the
        // per-output sum runs in the scalar order e0+o0+e1+o1.
        //
        // SAFETY: `j + LANES <= main <= out.len()` bounds the store, and
        // the input loads cover `r[2j .. 2j + 2*LANES]` with
        // `2j + 2*LANES <= 2*main <= r.len()` (rows are exactly twice the
        // output, checked above).
        let ((e0, o0), (e1, o1)) = unsafe {
            (
                deinterleave(
                    _mm256_loadu_ps(p0.add(2 * j)),
                    _mm256_loadu_ps(p0.add(2 * j + LANES)),
                ),
                deinterleave(
                    _mm256_loadu_ps(p1.add(2 * j)),
                    _mm256_loadu_ps(p1.add(2 * j + LANES)),
                ),
            )
        };
        let acc = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(e0, o0), e1), o1);
        // SAFETY: store bound argued above (`j + LANES <= out.len()`).
        unsafe { _mm256_storeu_ps(po.add(j), _mm256_mul_ps(acc, vinv)) };
        j += LANES;
    }
    scalar::avg_pool_k2(&r0[2 * main..], &r1[2 * main..], &mut out[main..], inv);
}

#[target_feature(enable = "avx2")]
pub fn max_pool_k2(r0: &[f32], r1: &[f32], out: &mut [f32]) {
    debug_assert!(r0.len() == out.len() * 2 && r1.len() == out.len() * 2);
    let n = out.len();
    let main = n - n % LANES;
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    let (p0, p1, po) = (r0.as_ptr(), r1.as_ptr(), out.as_mut_ptr());
    let mut j = 0;
    while j < main {
        // SAFETY: same bound as `avg_pool_k2` — loads cover
        // `r[2j .. 2j + 2*LANES] ⊆ r[0 .. 2*main]` and rows are exactly
        // twice the output length.
        let ((e0, o0), (e1, o1)) = unsafe {
            (
                deinterleave(
                    _mm256_loadu_ps(p0.add(2 * j)),
                    _mm256_loadu_ps(p0.add(2 * j + LANES)),
                ),
                deinterleave(
                    _mm256_loadu_ps(p1.add(2 * j)),
                    _mm256_loadu_ps(p1.add(2 * j + LANES)),
                ),
            )
        };
        // Running `if v > best` per lane, in window order; a NaN candidate
        // never wins (`>` ordered), matching the scalar loop.
        let mut best = neg_inf;
        for v in [e0, o0, e1, o1] {
            let gt = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, v, gt);
        }
        // SAFETY: `j + LANES <= main <= out.len()`.
        unsafe { _mm256_storeu_ps(po.add(j), best) };
        j += LANES;
    }
    scalar::max_pool_k2(&r0[2 * main..], &r1[2 * main..], &mut out[main..]);
}
