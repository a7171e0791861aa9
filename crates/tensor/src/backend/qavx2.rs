//! AVX2 bodies for the int8 tier, bit-exact with [`super::scalar`]'s
//! quantized kernels: the GEMM core and the two passes whose
//! round-to-even float-to-int conversion the compiler does not vectorize.
//! (`dequant_i32` converts the other way and runs its compiled scalar
//! body; see the parent module.)
//!
//! The GEMM core is `_mm256_madd_epi16`: both operands are packed as
//! zero-point-corrected i16 **pairs** along the reduction axis, so one
//! `vpmaddwd` computes `a0*b0 + a1*b1` per i32 lane — exactly in i32,
//! because `|q - zp| ≤ 254` keeps every pair sum at ≤ 2·254·254, far from
//! saturation (this is why the tier never emits the code −128 and why the
//! `maddubs` u8×i8 form, which *does* saturate, is not used). The running
//! i32 accumulation uses `_mm256_add_epi32`, i.e. two's-complement
//! wraparound — the scalar twin mirrors it with `wrapping_add` in the same
//! pairwise order, so accumulators agree bit for bit unconditionally.
//!
//! The f32↔i8 passes round with `_mm256_cvtps_epi32`, whose
//! round-to-nearest-even (default MXCSR mode, which this codebase never
//! alters) matches the scalar `f32::round_ties_even`; scaled values are
//! clamped into ±1e9 before conversion so the f32→i32 cast is well-defined
//! and identical on both paths, and i32 codes are clamped into the i8 grid
//! *before* the saturating narrowing packs, which therefore never actually
//! saturate.
//!
//! # Safety
//!
//! Same contract as `avx2.rs`: all functions are safe
//! `#[target_feature(enable = "avx2")]` functions reached only through the
//! parent module's `Backend` methods, after the per-call
//! `is_x86_feature_detected!("avx2")` guard and the precondition asserts;
//! `unsafe` is confined to raw-pointer load/store intrinsics with per-site
//! `// SAFETY:` bound arguments, backed by `debug_assert!` contracts at
//! function entry.

use super::scalar;
use super::{MR, NR};
use crate::quant::{QMAX, QMIN};
use core::arch::x86_64::*;

/// f32 / i32 lanes per AVX2 vector.
const LANES: usize = 8;

#[target_feature(enable = "avx2")]
pub fn qmicrokernel(kp2: usize, ap: &[i16], bp: &[i16], acc: &mut [[i32; NR]; MR]) {
    debug_assert!(ap.len() >= kp2 * MR * 2, "packed A shorter than kp2 tiles");
    debug_assert!(bp.len() >= kp2 * NR * 2, "packed B shorter than kp2 panels");
    // SAFETY: each `acc[i]` is a live `[i32; NR]` with NR == LANES == 8,
    // so an unaligned 8-lane load from its base pointer stays in bounds.
    let (mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6, mut r7) = unsafe {
        (
            _mm256_loadu_si256(acc[0].as_ptr().cast()),
            _mm256_loadu_si256(acc[1].as_ptr().cast()),
            _mm256_loadu_si256(acc[2].as_ptr().cast()),
            _mm256_loadu_si256(acc[3].as_ptr().cast()),
            _mm256_loadu_si256(acc[4].as_ptr().cast()),
            _mm256_loadu_si256(acc[5].as_ptr().cast()),
            _mm256_loadu_si256(acc[6].as_ptr().cast()),
            _mm256_loadu_si256(acc[7].as_ptr().cast()),
        )
    };
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p2 in 0..kp2 {
        // One pair-step: the 16-value B panel (NR columns × 2 reduction
        // positions) against each row's broadcast i16 pair. `vpmaddwd`
        // yields the exact pair sum per i32 lane; `vpaddd` folds it into
        // the accumulator with the same wraparound as the scalar twin.
        //
        // SAFETY: `p2 < kp2`, so the B load covers
        // `bp[p2*NR*2 .. p2*NR*2 + 16]` (in bounds: `bp.len() >= kp2*NR*2`)
        // and each A pair read covers `ap[p2*MR*2 + i*2 ..+2]` for
        // `i < MR` (in bounds: `ap.len() >= kp2*MR*2`), both checked by
        // the `debug_assert!`s above and asserted again in release builds
        // by the `Backend::qmicrokernel` method. The pair reads go through
        // `read_unaligned` because packed i16 buffers carry no 4-byte
        // alignment guarantee.
        unsafe {
            let bv = _mm256_loadu_si256(b.add(p2 * NR * 2).cast());
            let ac = a.add(p2 * MR * 2);
            let pair = |i: usize| -> __m256i {
                _mm256_set1_epi32(ac.add(i * 2).cast::<i32>().read_unaligned())
            };
            r0 = _mm256_add_epi32(r0, _mm256_madd_epi16(bv, pair(0)));
            r1 = _mm256_add_epi32(r1, _mm256_madd_epi16(bv, pair(1)));
            r2 = _mm256_add_epi32(r2, _mm256_madd_epi16(bv, pair(2)));
            r3 = _mm256_add_epi32(r3, _mm256_madd_epi16(bv, pair(3)));
            r4 = _mm256_add_epi32(r4, _mm256_madd_epi16(bv, pair(4)));
            r5 = _mm256_add_epi32(r5, _mm256_madd_epi16(bv, pair(5)));
            r6 = _mm256_add_epi32(r6, _mm256_madd_epi16(bv, pair(6)));
            r7 = _mm256_add_epi32(r7, _mm256_madd_epi16(bv, pair(7)));
        }
    }
    // SAFETY: same bound as the loads — each `acc[i]` holds exactly NR
    // (== LANES) i32 values, written back unaligned.
    unsafe {
        _mm256_storeu_si256(acc[0].as_mut_ptr().cast(), r0);
        _mm256_storeu_si256(acc[1].as_mut_ptr().cast(), r1);
        _mm256_storeu_si256(acc[2].as_mut_ptr().cast(), r2);
        _mm256_storeu_si256(acc[3].as_mut_ptr().cast(), r3);
        _mm256_storeu_si256(acc[4].as_mut_ptr().cast(), r4);
        _mm256_storeu_si256(acc[5].as_mut_ptr().cast(), r5);
        _mm256_storeu_si256(acc[6].as_mut_ptr().cast(), r6);
        _mm256_storeu_si256(acc[7].as_mut_ptr().cast(), r7);
    }
}

/// Clamps 8 f32 lanes into ±1e9 (both paths do this before any f32→i32
/// conversion so the cast is well-defined), converts with
/// round-to-nearest-even, and shifts by the zero point.
#[inline]
#[target_feature(enable = "avx2")]
fn scale_round_shift(v: __m256, zp: __m256i) -> __m256i {
    let lo = _mm256_set1_ps(-1.0e9);
    let hi = _mm256_set1_ps(1.0e9);
    let c = _mm256_min_ps(hi, _mm256_max_ps(lo, v));
    _mm256_add_epi32(_mm256_cvtps_epi32(c), zp)
}

/// Clamps 8 i32 lanes into the `[QMIN, QMAX]` grid and narrows them to 8
/// i8 codes in the low 64 bits. The saturating packs cannot actually
/// saturate — the epi32 clamp runs first.
#[inline]
#[target_feature(enable = "avx2")]
fn clamp_narrow_q8(q: __m256i) -> __m128i {
    let qmin = _mm256_set1_epi32(QMIN);
    let qmax = _mm256_set1_epi32(QMAX);
    let q = _mm256_min_epi32(qmax, _mm256_max_epi32(qmin, q));
    let lo = _mm256_castsi256_si128(q);
    let hi = _mm256_extracti128_si256(q, 1);
    let p16 = _mm_packs_epi32(lo, hi);
    _mm_packs_epi16(p16, p16)
}

#[target_feature(enable = "avx2")]
pub fn quantize_q8(src: &[f32], inv: f32, zp: i32, out: &mut [i8]) {
    debug_assert_eq!(src.len(), out.len());
    let n = out.len();
    let main = n - n % LANES;
    let vinv = _mm256_set1_ps(inv);
    let vzp = _mm256_set1_epi32(zp);
    let (ps, po) = (src.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both slices (equal
        // lengths checked above), so the 8-lane load and the 8-byte store
        // stay inside their allocations.
        unsafe {
            let v = _mm256_loadu_ps(ps.add(i));
            let q = scale_round_shift(_mm256_mul_ps(v, vinv), vzp);
            _mm_storel_epi64(po.add(i).cast(), clamp_narrow_q8(q));
        }
        i += LANES;
    }
    scalar::quantize_q8(&src[main..], inv, zp, &mut out[main..]);
}

#[target_feature(enable = "avx2")]
pub fn requant_i32(acc: &[i32], m: f32, b: f32, zp: i32, relu: bool, out: &mut [i8]) {
    debug_assert_eq!(acc.len(), out.len());
    let n = out.len();
    let main = n - n % LANES;
    let vm = _mm256_set1_ps(m);
    let vb = _mm256_set1_ps(b);
    let vzp = _mm256_set1_epi32(zp);
    let (pa, po) = (acc.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= len` for both slices (equal
        // lengths checked above), so the 8-lane load and the 8-byte store
        // stay inside their allocations.
        unsafe {
            let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(pa.add(i).cast()));
            let s = _mm256_add_ps(_mm256_mul_ps(v, vm), vb);
            let mut q = scale_round_shift(s, vzp);
            q = _mm256_min_epi32(
                _mm256_set1_epi32(QMAX),
                _mm256_max_epi32(_mm256_set1_epi32(QMIN), q),
            );
            if relu {
                // max(q, zp): the zero point is real zero on the output
                // grid, so this is exactly the fused ReLU.
                q = _mm256_max_epi32(q, vzp);
            }
            let lo = _mm256_castsi256_si128(q);
            let hi = _mm256_extracti128_si256(q, 1);
            let p16 = _mm_packs_epi32(lo, hi);
            _mm_storel_epi64(po.add(i).cast(), _mm_packs_epi16(p16, p16));
        }
        i += LANES;
    }
    scalar::requant_i32(&acc[main..], m, b, zp, relu, &mut out[main..]);
}
