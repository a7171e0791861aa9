//! The hand-written AVX2 f32 GEMM microkernel, the one f32 kernel whose
//! compiled scalar body loses to intrinsics (every other f32 kernel's AVX2
//! variant is its scalar body compiled with AVX2 enabled; see the parent
//! module).
//!
//! Lanes are the [`NR`] independent output columns of the register tile,
//! and there is no `fmadd`: `_mm256_mul_ps` + `_mm256_add_ps` round exactly
//! like the scalar `*` then `+`, so each output element sees the scalar
//! chain and the body is bit-identical to [`super::scalar::microkernel`].
//!
//! # Safety
//!
//! [`microkernel`] is a safe `#[target_feature(enable = "avx2")]` function:
//! calling it from a context that does not enable AVX2 is `unsafe`, and the
//! `Backend` method in the parent module is the sole such caller — it
//! checks `is_x86_feature_detected!("avx2")` on every call (std caches the
//! CPUID result) and asserts the kernel's slice-length preconditions first.
//! Within the body, `unsafe` is confined to the raw-pointer load/store
//! intrinsics; each site carries a `// SAFETY:` bound argument, backed by a
//! `debug_assert!` contract at function entry that restates the caller's
//! release-mode assert.

use super::{MR, NR};
use core::arch::x86_64::*;

#[target_feature(enable = "avx2")]
pub fn microkernel(k: usize, ap: &[f32], b: &[f32], rows: &[usize], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= k * MR, "packed A shorter than k tiles");
    // SAFETY: each `acc[i]` is a live `[f32; NR]` with NR == 8,
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
    // (== 8) floats, written back unaligned.
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
