//! Scalar reference bodies for every kernel.
//!
//! These are the *semantic definitions* and, for most kernels, the only
//! source: the AVX2 and fast-math variants of a kernel without a
//! hand-written body run these same functions compiled with AVX2 enabled,
//! which is why every body here is `#[inline]` (it must inline into that
//! `#[target_feature]` wrapper to be vectorized at 8 lanes). The
//! hand-written bodies in the sibling modules must reproduce them bit for
//! bit (the conformance suite in
//! `crates/tensor/tests/backend_conformance.rs` enforces it), and
//! `quantize_q8` / `requant_i32` here also finish the int8 AVX2 bodies'
//! sub-lane tails. Non-x86 targets run them exclusively.

use super::{MR, NR};

/// Scalar `MR x NR` register-tile update: one rank-1 update per k step,
/// B row `p` read at `b[rows[p]..]`, each accumulator fed by a single
/// in-order chain (no `mul_add`).
#[inline]
pub fn microkernel(k: usize, ap: &[f32], b: &[f32], rows: &[usize], acc: &mut [[f32; NR]; MR]) {
    let starts = super::row_starts(b.len());
    for (p, &r) in rows[..k].iter().enumerate() {
        if r >= starts {
            super::row_out_of_bounds(r, b.len());
        }
        let a: &[f32; MR] = ap[p * MR..(p + 1) * MR].try_into().unwrap();
        let b: &[f32; NR] = b[r..r + NR].try_into().unwrap();
        for i in 0..MR {
            let ai = a[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] += ai * b[j];
            }
        }
    }
}

/// `out[i] = a[i] + b[i]`.
#[inline]
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `dst[i] += src[i]`.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] += s * src[i]` (`s * src` first, the historical `add_scaled`
/// order).
#[inline]
pub fn axpy(dst: &mut [f32], src: &[f32], s: f32) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += s * x;
    }
}

/// `dst[i] *= s`.
#[inline]
pub fn scale_inplace(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d *= s;
    }
}

/// `out[i] = src[i] + s`.
#[inline]
pub fn add_scalar(src: &[f32], s: f32, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = x + s;
    }
}

/// `dst[i] += s`.
#[inline]
pub fn add_scalar_inplace(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d += s;
    }
}

/// `out[i] = src[i].clamp(lo, hi)`.
#[inline]
pub fn clamp(src: &[f32], lo: f32, hi: f32, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = x.clamp(lo, hi);
    }
}

/// NaN-preserving in-place ReLU: keep `v > 0` or NaN, else `0.0`.
#[inline]
pub fn relu_inplace(dst: &mut [f32]) {
    for v in dst.iter_mut() {
        if !(*v > 0.0 || v.is_nan()) {
            *v = 0.0;
        }
    }
}

/// `mask[i] = 1.0` where `src[i] > 0.0`, else `0.0`.
#[inline]
pub fn relu_mask(src: &[f32], mask: &mut [f32]) {
    for (m, &v) in mask.iter_mut().zip(src) {
        *m = if v > 0.0 { 1.0 } else { 0.0 };
    }
}

/// `out[i] = mask[i] != 0 ? g[i] : 0.0` (select, never `g * mask`).
#[inline]
pub fn relu_backward(mask: &[f32], g: &[f32], out: &mut [f32]) {
    for ((o, &m), &gv) in out.iter_mut().zip(mask).zip(g) {
        *o = if m != 0.0 { gv } else { 0.0 };
    }
}

/// `out[i] = g * ((src[i] - mean) * inv_std) + b`, exactly that sequence.
#[inline]
pub fn bn_affine(src: &[f32], out: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
    for (o, &x) in out.iter_mut().zip(src) {
        let xh = (x - mean) * inv_std;
        *o = g * xh + b;
    }
}

/// In-place exponential + running sum: exactly the historical sequential
/// softmax chain (`*v = v.exp(); z += *v;`), preserved verbatim so the
/// scalar path keeps producing every pre-existing golden bit for bit.
#[inline]
pub fn exp_sum(dst: &mut [f32]) -> f32 {
    let mut z = 0.0f32;
    for v in dst.iter_mut() {
        *v = v.exp();
        z += *v;
    }
    z
}

/// `f32::max` fold from `NEG_INFINITY` (NaN operands are skipped), with a
/// zero maximum returned as `+0.0`. The compiler vectorizes the fold at
/// whatever width the build enables, and `f32::max` leaves the sign of a
/// `±0.0` tie unspecified, so the fold alone could return either zero;
/// adding `+0.0` maps `-0.0` to `+0.0` and leaves every other value as is.
#[inline]
pub fn row_max(xs: &[f32]) -> f32 {
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max) + 0.0
}

/// `out[i] = transcendental::box_muller(u1[i], u2[i])`: branch-free, so
/// the AVX2 variant runs it 8 wide (4 lanes per `f64` half). Always
/// inlined, so the AVX2 wrapper compiles this loop for AVX2.
#[inline(always)]
pub fn box_muller(u1: &[f32], u2: &[f32], out: &mut [f32]) {
    for ((o, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        *o = super::transcendental::box_muller(a, b);
    }
}

// ---------------------------------------------------------------------
// Int8 tier
// ---------------------------------------------------------------------

/// Scalar quantized `MR x NR` register-tile update over **i16-pair packed**
/// operands.
///
/// Both operands hold zero-point-corrected values widened to `i16` and
/// grouped in pairs along the reduction axis (`kp2 = k.div_ceil(2)` pair
/// steps; odd `k` is zero-padded). Layouts:
/// `ap[p2 * MR * 2 + i * 2 + r]`, `bp[p2 * NR * 2 + j * 2 + r]` with
/// `r ∈ {0, 1}` the position within the pair.
///
/// Each pair contributes `a0*b0 + a1*b1` computed exactly in i32 (operands
/// are bounded by `|q - zp| ≤ 254`, so a pair product sum is ≤ 2·254·254 ≪
/// i32::MAX) and folded with `wrapping_add` — the same pairwise order the
/// AVX2 `_mm256_madd_epi16` body uses, so accumulators match bit for bit
/// even in the (unreachable in practice) event of i32 wraparound.
#[inline]
pub fn qmicrokernel(kp2: usize, ap: &[i16], bp: &[i16], acc: &mut [[i32; NR]; MR]) {
    for p2 in 0..kp2 {
        let a: &[i16; MR * 2] = ap[p2 * MR * 2..(p2 + 1) * MR * 2].try_into().unwrap();
        let b: &[i16; NR * 2] = bp[p2 * NR * 2..(p2 + 1) * NR * 2].try_into().unwrap();
        for i in 0..MR {
            let a0 = a[i * 2] as i32;
            let a1 = a[i * 2 + 1] as i32;
            let row = &mut acc[i];
            for j in 0..NR {
                let pair = a0 * b[j * 2] as i32 + a1 * b[j * 2 + 1] as i32;
                row[j] = row[j].wrapping_add(pair);
            }
        }
    }
}

/// f32 → i8 quantize pass: `out[i] = clamp(rne(src[i] * inv) + zp)`.
///
/// `rne` is round-ties-to-even (the x86 `cvtps2dq` default), and the
/// scaled value is clamped into ±1e9 *before* rounding so the f32→i32
/// conversion is well-defined on both paths. Inputs must be finite —
/// callers that cannot guarantee it go through `quant::check_finite`.
#[inline]
pub fn quantize_q8(src: &[f32], inv: f32, zp: i32, out: &mut [i8]) {
    for (o, &x) in out.iter_mut().zip(src) {
        let r = (x * inv).clamp(-1.0e9, 1.0e9).round_ties_even() as i32 + zp;
        *o = r.clamp(crate::quant::QMIN, crate::quant::QMAX) as i8;
    }
}

/// i32 accumulator → i8 requantize pass with fused bias and optional ReLU:
/// `q = clamp(rne(acc[i] as f32 * m + b) + zp)`, then `max(q, zp)` when
/// `relu` (the zero point *is* real zero on the output grid).
#[inline]
pub fn requant_i32(acc: &[i32], m: f32, b: f32, zp: i32, relu: bool, out: &mut [i8]) {
    for (o, &a) in out.iter_mut().zip(acc) {
        let v = (a as f32) * m + b;
        let r = v.clamp(-1.0e9, 1.0e9).round_ties_even() as i32 + zp;
        let mut q = r.clamp(crate::quant::QMIN, crate::quant::QMAX);
        if relu {
            q = q.max(zp);
        }
        *o = q as i8;
    }
}

/// i32 accumulator → f32 dequantize pass with fused bias:
/// `out[i] = acc[i] as f32 * m + b` (cvt, mul, add — no FMA).
#[inline]
pub fn dequant_i32(acc: &[i32], m: f32, b: f32, out: &mut [f32]) {
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = (a as f32) * m + b;
    }
}
