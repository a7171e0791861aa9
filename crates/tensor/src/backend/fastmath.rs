//! Fast-math bodies: FMA-contracted kernels and a vectorized polynomial
//! `exp`, **not** bit-exact with the scalar oracle.
//!
//! This module backs [`super::FastMathBackend`], the opt-in relaxed
//! tier (`LECA_BACKEND=fastmath`). Three kinds of function live here:
//!
//! 1. **FMA specializations** — the GEMM [`microkernel`] and the
//!    mul-add-shaped epilogues ([`axpy`], [`bn_affine`], [`dequant_i32`])
//!    re-expressed with `_mm256_fmadd_ps`. The fused operation skips the
//!    intermediate rounding of the separate multiply, so results differ
//!    from the scalar chain by at most one rounding step per fused pair —
//!    the tolerance parity suite bounds the accumulated relative error.
//! 2. **The vectorized exponential** — [`exp`] / [`exp_sum`] evaluate a
//!    Cephes-style degree-6 polynomial after range reduction
//!    (`x = n·ln2 + r`, `|r| ≤ ln2/2`), accurate to a few ULP on normal
//!    results, with explicit saturation (`+inf` above the overflow knee,
//!    `0.0` below the underflow knee — true denormal results flush to
//!    zero) and NaN-in → NaN-out propagation. [`exp_sum`] also vectorizes
//!    the softmax sum as eight lane-partial sums folded at the end, which
//!    reassociates the reduction — exactly the trade the bit-exact tiers
//!    refuse.
//! 3. **Exact forwarders** — every remaining kernel calls its
//!    [`super::avx2`] / [`super::qavx2`] body unchanged (a safe call: these
//!    functions enable a superset of the callees' target features). The
//!    integer tier in particular (`qmicrokernel`, `quantize_q8`,
//!    `requant_i32`) stays bit-identical, so fastmath perturbs only f32
//!    outputs.
//!
//! # Safety
//!
//! All functions are safe `#[target_feature(enable = "avx2,fma")]`
//! functions; the dispatcher in the parent module is the sole unsafe
//! caller and checks `fastmath_available()` (AVX2 **and** FMA) first.
//! Within the bodies, `unsafe` is confined to raw-pointer load/store
//! intrinsics with the same bound discipline as the `avx2` module.

use super::{avx2, qavx2, scalar};
use super::{MR, NR};
use core::arch::x86_64::*;

/// f32 lanes per AVX2 vector.
const LANES: usize = 8;

/// Expands to an exact forwarder per kernel: same signature, body is a
/// plain (safe — superset target features) call into the bit-exact AVX2
/// module. Keeping these one-liners in a macro makes "everything else is
/// exact" auditable at a glance.
macro_rules! forward {
    ($( $to:ident :: $name:ident ( $($arg:ident : $ty:ty),* ) $(-> $ret:ty)?; )*) => {
        $(
            #[target_feature(enable = "avx2", enable = "fma")]
            pub fn $name($($arg: $ty),*) $(-> $ret)? {
                $to::$name($($arg),*)
            }
        )*
    };
}

forward! {
    // Int8 tier: forwarded exactly — quantized codes and i32 accumulators
    // are integer-exact, and keeping them identical means fastmath never
    // changes a stored checkpoint or a requantized activation byte.
    qavx2::qmicrokernel(kp2: usize, ap: &[i16], bp: &[i16], acc: &mut [[i32; NR]; MR]);
    qavx2::quantize_q8(src: &[f32], inv: f32, zp: i32, out: &mut [i8]);
    qavx2::requant_i32(acc: &[i32], m: f32, b: f32, zp: i32, relu: bool, out: &mut [i8]);
    // Elementwise kernels with no mul-add shape: nothing for FMA to fuse,
    // so the AVX2 bodies are already optimal and stay bit-exact here.
    avx2::add(a: &[f32], b: &[f32], out: &mut [f32]);
    avx2::sub(a: &[f32], b: &[f32], out: &mut [f32]);
    avx2::mul(a: &[f32], b: &[f32], out: &mut [f32]);
    avx2::add_assign(dst: &mut [f32], src: &[f32]);
    avx2::scale(src: &[f32], s: f32, out: &mut [f32]);
    avx2::scale_inplace(dst: &mut [f32], s: f32);
    avx2::add_scalar(src: &[f32], s: f32, out: &mut [f32]);
    avx2::add_scalar_inplace(dst: &mut [f32], s: f32);
    avx2::clamp(src: &[f32], lo: f32, hi: f32, out: &mut [f32]);
    avx2::relu(src: &[f32], out: &mut [f32]);
    avx2::relu_inplace(dst: &mut [f32]);
    avx2::leaky_relu(src: &[f32], a: f32, out: &mut [f32]);
    avx2::leaky_relu_inplace(dst: &mut [f32], a: f32);
    avx2::relu_mask(src: &[f32], mask: &mut [f32]);
    avx2::relu_backward(mask: &[f32], g: &[f32], out: &mut [f32]);
    avx2::leaky_relu_backward(mask: &[f32], g: &[f32], a: f32, out: &mut [f32]);
    avx2::row_max(xs: &[f32]) -> f32;
    avx2::avg_pool_k2(r0: &[f32], r1: &[f32], out: &mut [f32], inv: f32);
    avx2::max_pool_k2(r0: &[f32], r1: &[f32], out: &mut [f32]);
}

/// FMA GEMM microkernel: the rank-1 update uses `_mm256_fmadd_ps`, halving
/// the FP µop count per element versus the mul+add pair and skipping its
/// intermediate rounding. Chunked and unchunked calls still agree bit for
/// bit *with each other* (the accumulator round-trips through `acc`), just
/// not with the scalar chain.
#[target_feature(enable = "avx2", enable = "fma")]
pub fn microkernel(k: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= k * MR, "packed A shorter than k tiles");
    debug_assert!(bp.len() >= k * NR, "packed B shorter than k panels");
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
    let b = bp.as_ptr();
    for p in 0..k {
        // SAFETY: `p < k`, so the B load covers `bp[p*NR .. p*NR + NR]`
        // (in bounds: `bp.len() >= k * NR`) and the A reads cover
        // `ap[p*MR .. p*MR + MR]` (in bounds: `ap.len() >= k * MR`), both
        // checked by the `debug_assert!`s above and asserted again by the
        // `microkernel_with` wrapper in release builds.
        unsafe {
            let bv = _mm256_loadu_ps(b.add(p * NR));
            let ac = a.add(p * MR);
            r0 = _mm256_fmadd_ps(_mm256_set1_ps(*ac), bv, r0);
            r1 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(1)), bv, r1);
            r2 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(2)), bv, r2);
            r3 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(3)), bv, r3);
            r4 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(4)), bv, r4);
            r5 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(5)), bv, r5);
            r6 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(6)), bv, r6);
            r7 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(7)), bv, r7);
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

/// FMA axpy: `dst[i] = fma(s, src[i], dst[i])`.
#[target_feature(enable = "avx2", enable = "fma")]
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
            _mm256_storeu_ps(pd.add(i), _mm256_fmadd_ps(vs, x, d));
        }
        i += LANES;
    }
    scalar::axpy(&mut dst[main..], &src[main..], s);
}

/// FMA BatchNorm affine: `fma(g, (x - mean) * inv_std, b)` — one fused
/// rounding where the exact sequence has two.
#[target_feature(enable = "avx2", enable = "fma")]
pub fn bn_affine(src: &[f32], out: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
    debug_assert_eq!(src.len(), out.len());
    let n = out.len();
    let main = n - n % LANES;
    let vmean = _mm256_set1_ps(mean);
    let vinv = _mm256_set1_ps(inv_std);
    let vg = _mm256_set1_ps(g);
    let vb = _mm256_set1_ps(b);
    let (ps, po) = (src.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both equal-length slices.
        unsafe {
            let v = _mm256_loadu_ps(ps.add(i));
            let xh = _mm256_mul_ps(_mm256_sub_ps(v, vmean), vinv);
            _mm256_storeu_ps(po.add(i), _mm256_fmadd_ps(vg, xh, vb));
        }
        i += LANES;
    }
    scalar::bn_affine(&src[main..], &mut out[main..], mean, inv_std, g, b);
}

/// FMA dequantize: `out[i] = fma(acc[i] as f32, m, b)`.
#[target_feature(enable = "avx2", enable = "fma")]
pub fn dequant_i32(acc: &[i32], m: f32, b: f32, out: &mut [f32]) {
    debug_assert_eq!(acc.len(), out.len());
    let n = out.len();
    let main = n - n % LANES;
    let vm = _mm256_set1_ps(m);
    let vb = _mm256_set1_ps(b);
    let (pa, po) = (acc.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both slices (equal
        // lengths checked above), so the load and store stay in bounds.
        unsafe {
            let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(pa.add(i).cast()));
            _mm256_storeu_ps(po.add(i), _mm256_fmadd_ps(v, vm, vb));
        }
        i += LANES;
    }
    scalar::dequant_i32(&acc[main..], m, b, &mut out[main..]);
}

// ---------------------------------------------------------------------
// Vectorized exponential
// ---------------------------------------------------------------------

/// Overflow knee: the largest f32 whose exponential is finite
/// (`exp(88.72284) ≈ f32::MAX`). Inputs strictly above saturate to `+inf`.
const EXP_HI: f32 = 88.722_84;
/// Underflow knee: below this the true result is denormal or zero
/// (`exp(-87.33655)` is the smallest *normal* result). Inputs strictly
/// below flush to `0.0` — the polynomial path never produces denormals.
const EXP_LO: f32 = -87.336_55;
/// `ln 2` split into a coarse high part exactly representable in 10
/// mantissa bits and the low-order remainder, so `x - n·ln2_hi` is exact
/// for `|n| ≤ 2^13` and the remainder correction restores full precision.
/// The full decimal expansion is the value (355/512, all trailing
/// mantissa bits zero) — truncating the literal would hide that.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` minimax polynomial for `e^r` on `|r| ≤ ln2/2`:
/// `e^r ≈ 1 + r + r²·(((((C0·r + C1)·r + C2)·r + C3)·r + C4)·r + C5)`.
const C0: f32 = 1.987_569_1e-4;
const C1: f32 = 1.398_199_9e-3;
const C2: f32 = 8.333_452e-3;
const C3: f32 = 4.166_579_6e-2;
const C4: f32 = 1.666_666_5e-1;
const C5: f32 = 5.000_000_4e-1;

/// Eight-lane polynomial `e^x`, the core shared by [`exp`] and
/// [`exp_sum`]. Accuracy: a few ULP against libm on normal results;
/// saturation and NaN behavior per the [`super::exp`] wrapper contract.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn exp_ps(x: __m256) -> __m256 {
    // Classify before clamping: the saturating blends at the end also
    // give ±inf inputs their exact answers (`+inf → +inf`, `-inf → 0`).
    let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_HI));
    let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_LO));
    let xc = _mm256_min_ps(
        _mm256_set1_ps(EXP_HI),
        _mm256_max_ps(_mm256_set1_ps(EXP_LO), x),
    );

    // Range reduction: x = n·ln2 + r with n integral and |r| ≤ ln2/2,
    // using the split-constant trick so r keeps full precision.
    let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm256_mul_ps(
        xc,
        _mm256_set1_ps(std::f32::consts::LOG2_E),
    ));
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), xc);
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);

    // Horner evaluation of the minimax polynomial, one fmadd per degree.
    let mut p = _mm256_set1_ps(C0);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(C1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(C2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(C3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(C4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(C5));
    let r2 = _mm256_mul_ps(r, r);
    let y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), _mm256_set1_ps(1.0));

    // Scale by 2^n in two halves (n ∈ [-126, 128] after clamping, and
    // 2^128 alone would overflow the exponent-field construction): build
    // 2^(n/2)·2^(n - n/2) from biased exponents and multiply twice.
    let ni = _mm256_cvtps_epi32(n);
    let n1 = _mm256_srai_epi32::<1>(ni);
    let n2 = _mm256_sub_epi32(ni, n1);
    let bias = _mm256_set1_epi32(127);
    let p1 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n1, bias)));
    let p2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n2, bias)));
    let y = _mm256_mul_ps(_mm256_mul_ps(y, p1), p2);

    // Saturate, then restore NaN inputs verbatim (NaN in → NaN out).
    let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
    let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), under);
    _mm256_blendv_ps(y, x, nan_mask)
}

/// Runs [`exp_ps`] over a sub-vector tail by staging it through a stack
/// buffer, so tail elements get byte-identical treatment to main-loop
/// lanes (no scalar-libm seam inside one call).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn exp_tail(src: &[f32], out: &mut [f32]) {
    debug_assert!(src.len() == out.len() && src.len() < LANES);
    let mut buf = [0.0f32; LANES];
    buf[..src.len()].copy_from_slice(src);
    // SAFETY: `buf` is a live `[f32; LANES]`, in bounds for one unaligned
    // 8-lane load and store.
    unsafe {
        let v = exp_ps(_mm256_loadu_ps(buf.as_ptr()));
        _mm256_storeu_ps(buf.as_mut_ptr(), v);
    }
    out.copy_from_slice(&buf[..src.len()]);
}

/// Vectorized elementwise `e^x` (see [`super::exp`] for the accuracy
/// contract).
#[target_feature(enable = "avx2", enable = "fma")]
pub fn exp(src: &[f32], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    let n = out.len();
    let main = n - n % LANES;
    let (ps, po) = (src.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both equal-length slices.
        unsafe {
            _mm256_storeu_ps(po.add(i), exp_ps(_mm256_loadu_ps(ps.add(i))));
        }
        i += LANES;
    }
    exp_tail(&src[main..], &mut out[main..]);
}

/// Fused in-place `e^x` + sum, the softmax hot loop: polynomial exp per
/// lane and eight partial sums folded low-to-high at the end. The fold
/// order is fixed, so results are deterministic and thread-invariant —
/// just not the scalar summation order.
#[target_feature(enable = "avx2", enable = "fma")]
pub fn exp_sum(dst: &mut [f32]) -> f32 {
    let n = dst.len();
    let main = n - n % LANES;
    let p = dst.as_mut_ptr();
    let mut vsum = _mm256_setzero_ps();
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len`, one in-place load/store.
        unsafe {
            let e = exp_ps(_mm256_loadu_ps(p.add(i)));
            _mm256_storeu_ps(p.add(i), e);
            vsum = _mm256_add_ps(vsum, e);
        }
        i += LANES;
    }
    let tail = &mut dst[main..];
    if !tail.is_empty() {
        let mut buf = [0.0f32; LANES];
        buf[..tail.len()].copy_from_slice(tail);
        // SAFETY: `buf` is a live `[f32; LANES]`, in bounds for one
        // unaligned 8-lane load and store.
        unsafe {
            let v = exp_ps(_mm256_loadu_ps(buf.as_ptr()));
            _mm256_storeu_ps(buf.as_mut_ptr(), v);
        }
        tail.copy_from_slice(&buf[..tail.len()]);
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is a live `[f32; LANES]`, in bounds for one store.
    unsafe {
        _mm256_storeu_ps(lanes.as_mut_ptr(), vsum);
    }
    let mut z = lanes.iter().sum::<f32>();
    for &v in dst[main..].iter() {
        z += v;
    }
    z
}
