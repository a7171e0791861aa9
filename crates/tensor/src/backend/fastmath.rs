//! Fast-math body: the FMA GEMM microkernel, **not** bit-exact with the
//! scalar oracle.
//!
//! This module backs [`super::Backend::FastMath`], the opt-in relaxed
//! tier (`LECA_BACKEND=fastmath`). It holds the tier's one body of its
//! own, the GEMM [`microkernel`] re-expressed with `_mm256_fmadd_ps`. The
//! fused operation skips the intermediate rounding of the separate
//! multiply, so results differ from the scalar chain by at most one
//! rounding step per fused pair — the conformance suite bounds the
//! accumulated relative error.
//!
//! Every other kernel runs its bit-exact body on this tier too (the int8
//! hand bodies in `qavx2`, the rest compiled from their scalar bodies), so
//! fastmath perturbs only the GEMM.
//!
//! # Safety
//!
//! [`microkernel`] is a safe `#[target_feature(enable = "avx2,fma")]`
//! function; the `Backend` method in the parent module is its sole unsafe
//! caller and checks `fastmath_available()` (AVX2 **and** FMA) on every
//! call, after asserting the kernel's preconditions. Within the body,
//! `unsafe` is confined to raw-pointer load/store intrinsics with the same
//! bound discipline as the `avx2` module.

#![allow(
    unsafe_code,
    reason = "FMA GEMM microkernel (bounds argued per load/store, Miri-exempt via cfg)"
)]

use super::{MR, NR};
use core::arch::x86_64::*;

/// FMA GEMM microkernel: the rank-1 update uses `_mm256_fmadd_ps`, halving
/// the FP µop count per element versus the mul+add pair and skipping its
/// intermediate rounding. Chunked and unchunked calls still agree bit for
/// bit *with each other* (the accumulator round-trips through `acc`), just
/// not with the scalar chain.
#[target_feature(enable = "avx2", enable = "fma")]
pub fn microkernel(k: usize, ap: &[f32], b: &[f32], rows: &[usize], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= k * MR, "packed A shorter than k tiles");
    // SAFETY: each `acc[i]` is a live `[f32; NR]` with NR == 8 (one f32x8),
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
    // floats, written back unaligned.
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
