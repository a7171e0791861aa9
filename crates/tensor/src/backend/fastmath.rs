//! Fast-math bodies: the FMA GEMM microkernel and a vectorized polynomial
//! exponential, **not** bit-exact with the scalar oracle.
//!
//! This module backs [`super::Backend::FastMath`], the opt-in relaxed
//! tier (`LECA_BACKEND=fastmath`). It holds the tier's only two bodies of
//! its own:
//!
//! 1. **The FMA microkernel** — the GEMM [`microkernel`] re-expressed with
//!    `_mm256_fmadd_ps`. The fused operation skips the intermediate
//!    rounding of the separate multiply, so results differ from the scalar
//!    chain by at most one rounding step per fused pair — the tolerance
//!    parity suite bounds the accumulated relative error.
//! 2. **The vectorized exponential** — [`exp_sum`], the softmax core,
//!    evaluates a Cephes-style degree-6 polynomial after range reduction
//!    (`x = n·ln2 + r`, `|r| ≤ ln2/2`), accurate to a few ULP on normal
//!    results, with explicit saturation (`+inf` above the overflow knee,
//!    `0.0` below the underflow knee — true denormal results flush to
//!    zero) and NaN-in → NaN-out propagation. It also vectorizes the
//!    softmax sum as eight lane-partial sums folded at the end, which
//!    reassociates the reduction — exactly the trade the bit-exact tiers
//!    refuse.
//!
//! Every other kernel runs its bit-exact body on this tier too (the int8
//! hand bodies in `qavx2`, the rest compiled from their scalar bodies), so
//! fastmath perturbs only the GEMM and the softmax exponential.
//!
//! # Safety
//!
//! Both functions are safe `#[target_feature(enable = "avx2,fma")]`
//! functions; the `Backend` methods in the parent module are the sole
//! unsafe callers and check `fastmath_available()` (AVX2 **and** FMA) on
//! every call, after asserting the kernel's preconditions.
//! Within the bodies, `unsafe` is confined to raw-pointer load/store
//! intrinsics with the same bound discipline as the `avx2` module.

use super::{MR, NR};
use core::arch::x86_64::*;

/// f32 lanes per AVX2 vector.
const LANES: usize = 8;

/// FMA GEMM microkernel: the rank-1 update uses `_mm256_fmadd_ps`, halving
/// the FP µop count per element versus the mul+add pair and skipping its
/// intermediate rounding. Chunked and unchunked calls still agree bit for
/// bit *with each other* (the accumulator round-trips through `acc`), just
/// not with the scalar chain.
#[target_feature(enable = "avx2", enable = "fma")]
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
        // SAFETY: the B load covers `b[r .. r + NR]`, in bounds because
        // `r < row_starts(b.len())` was checked just above, in every build.
        // `p < k`, so the A reads cover `ap[p*MR .. p*MR + MR]` (in bounds:
        // `ap.len() >= k * MR`, checked by the `debug_assert!` above and
        // asserted again by the `Backend::microkernel` method in release
        // builds).
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(r));
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

/// Eight-lane polynomial `e^x`, the core of [`exp_sum`]. Accuracy: a few
/// ULP against libm on normal results; saturation and NaN behavior per the
/// [`super::exp_sum`] wrapper contract.
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

/// Runs [`exp_ps`] in place over a sub-vector tail by staging it through
/// a stack buffer, so tail elements get byte-identical treatment to
/// main-loop lanes (no scalar-libm seam inside one call).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn exp_tail(tail: &mut [f32]) {
    debug_assert!(tail.len() < LANES);
    let mut buf = [0.0f32; LANES];
    buf[..tail.len()].copy_from_slice(tail);
    // SAFETY: `buf` is a live `[f32; LANES]`, in bounds for one unaligned
    // 8-lane load and store.
    unsafe {
        let v = exp_ps(_mm256_loadu_ps(buf.as_ptr()));
        _mm256_storeu_ps(buf.as_mut_ptr(), v);
    }
    tail.copy_from_slice(&buf[..tail.len()]);
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
    if main < n {
        exp_tail(&mut dst[main..]);
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
