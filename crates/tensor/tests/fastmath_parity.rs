//! Characterization of the fast-math tier's vectorized exponential.
//!
//! The conformance suite holds the fastmath microkernel and `exp_sum` to
//! relative-error bounds against the scalar oracle on NaN-poisoned
//! workloads (every other fastmath kernel bit for bit); this file pins
//! down the *numerics of the polynomial `exp` itself* across the full
//! f32 input range — denormals, every binade, the overflow/underflow
//! cutoffs, and the IEEE specials — in ULPs against an f64 reference.
//! The polynomial's only entry point is `exp_sum`, which overwrites each
//! element with its exponential, so every check runs it on a copy of its
//! inputs and reads the elements back (the returned sum is ignored where
//! the inputs saturate it).
//! The advertised contract (a few ULP on normal results, exact specials)
//! is what DESIGN.md documents; this test is the proof.
//!
//! Every test skips (passes vacuously) on hosts where the fastmath tier
//! is not available — there is nothing to characterize there.

use leca_tensor::backend::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fastmath backend, if this host can run its bodies.
fn fastmath_backend() -> Option<Backend> {
    Backend::FastMath.available().then_some(Backend::FastMath)
}

/// Sign-magnitude ordered key: adjacent floats map to adjacent integers,
/// so a difference of keys is a distance in ULPs.
fn ulp_key(x: f32) -> i64 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        -i64::from(b & 0x7fff_ffff)
    } else {
        i64::from(b)
    }
}

fn ulp_diff(a: f32, b: f32) -> u64 {
    (ulp_key(a) - ulp_key(b)).unsigned_abs()
}

/// Bit-stepped sweep over every finite f32 magnitude, both signs: for
/// normal results the polynomial must sit within 4 ULP of the f64
/// reference; in the underflow band (true result below the smallest
/// normal) it may flush to zero but never stray more than one smallest
/// normal in absolute terms.
#[test]
fn exp_ulp_characterization_across_full_f32_range() {
    let Some(be) = fastmath_backend() else {
        eprintln!("fastmath not available on this host; skipping");
        return;
    };

    // Every 2^15-th bit pattern of every finite magnitude, both signs
    // (~130k samples), plus the overflow/underflow cutoff neighborhoods
    // where the range-reduction blends switch on.
    const STRIDE: u32 = 1 << 15;
    let mut inputs = Vec::new();
    let mut bits = 0u32;
    while bits < 0x7f80_0000 {
        inputs.push(f32::from_bits(bits));
        inputs.push(f32::from_bits(bits | 0x8000_0000));
        bits += STRIDE;
    }
    for x in [
        88.0f32,
        88.722_83,
        88.722_84,
        88.9,
        -87.0,
        -87.336_54,
        -87.336_55,
        -87.4,
        -103.0,
        -103.972_08,
        -104.0,
    ] {
        inputs.push(x);
    }

    let mut out = inputs.clone();
    be.exp_sum(&mut out);

    let mut worst = 0u64;
    for (&x, &got) in inputs.iter().zip(&out) {
        let want = f64::from(x).exp() as f32;
        if want.is_infinite() {
            assert!(
                got.is_infinite() || ulp_diff(got, f32::MAX) <= 4,
                "exp({x:e}) = {got:e}, want overflow to +inf"
            );
            continue;
        }
        if want < f32::MIN_POSITIVE {
            let err = (f64::from(got) - f64::from(want)).abs();
            assert!(
                err <= f64::from(f32::MIN_POSITIVE),
                "exp({x:e}) = {got:e} in the underflow band, want {want:e}"
            );
            continue;
        }
        let d = ulp_diff(got, want);
        worst = worst.max(d);
        assert!(d <= 4, "exp({x:e}) = {got:e}, want {want:e} ({d} ULP off)");
    }
    eprintln!(
        "vectorized exp: worst error {worst} ULP over {} samples",
        inputs.len()
    );
}

/// IEEE specials are exact, not approximate: NaN propagates, +inf maps
/// to +inf, -inf and deeply negative inputs map to +0, zero maps to
/// exactly 1, and denormal inputs land within 1 ULP of 1.
#[test]
fn exp_specials_are_exact() {
    let Some(be) = fastmath_backend() else {
        eprintln!("fastmath not available on this host; skipping");
        return;
    };
    let inputs = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MAX,
        -f32::MAX,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-42, // denormal
        -1.0e-42,
        100.0,  // overflow: exp(100) > f32::MAX
        -150.0, // underflow: exp(-150) < smallest denormal
    ];
    let mut out = inputs;
    be.exp_sum(&mut out);

    assert!(out[0].is_nan(), "exp(NaN) must be NaN");
    assert_eq!(out[1], f32::INFINITY, "exp(+inf)");
    assert_eq!(out[2].to_bits(), 0.0f32.to_bits(), "exp(-inf) is +0");
    assert_eq!(out[3], 1.0, "exp(+0)");
    assert_eq!(out[4], 1.0, "exp(-0)");
    assert_eq!(out[5], f32::INFINITY, "exp(MAX) overflows");
    assert_eq!(out[6].to_bits(), 0.0f32.to_bits(), "exp(-MAX) is +0");
    assert!(ulp_diff(out[7], 1.0) <= 1, "exp(min normal) ~ 1");
    assert!(ulp_diff(out[8], 1.0) <= 1, "exp(-min normal) ~ 1");
    assert!(ulp_diff(out[9], 1.0) <= 1, "exp(denormal) ~ 1");
    assert!(ulp_diff(out[10], 1.0) <= 1, "exp(-denormal) ~ 1");
    assert_eq!(out[11], f32::INFINITY, "exp(100) overflows");
    assert_eq!(out[12].to_bits(), 0.0f32.to_bits(), "exp(-150) is +0");
}

/// The fused softmax core: per-element results within 4 ULP of the f64
/// reference, and the returned sum within 1e-5 relative of an f64
/// accumulation — across lengths that exercise the vector body, the
/// padded tail, and full softmax-row widths.
#[test]
fn exp_sum_matches_f64_reference() {
    let Some(be) = fastmath_backend() else {
        eprintln!("fastmath not available on this host; skipping");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0xe45);
    for len in [1usize, 7, 8, 9, 31, 64, 255, 1000, 1003] {
        let src = leca_tensor::Tensor::rand_uniform(&[len], -10.0, 10.0, &mut rng);
        let mut dst = src.as_slice().to_vec();
        let z = be.exp_sum(&mut dst);

        let mut want_sum = 0.0f64;
        for (i, (&x, &got)) in src.as_slice().iter().zip(&dst).enumerate() {
            let want = f64::from(x).exp();
            want_sum += want;
            let d = ulp_diff(got, want as f32);
            assert!(
                d <= 4,
                "exp_sum len={len} lane {i}: {got:e} vs {:e} ({d} ULP)",
                want as f32
            );
        }
        let rel = (f64::from(z) - want_sum).abs() / want_sum;
        assert!(
            rel <= 1e-5,
            "exp_sum len={len}: sum {z:e} vs {want_sum:e} (rel {rel:e})"
        );
    }
}

/// The precision split: fastmath is the one relaxed tier, everything else
/// promises bit-exactness.
#[test]
fn fastmath_is_the_only_relaxed_precision_backend() {
    for be in Backend::ALL {
        assert_eq!(
            be.bit_exact(),
            be != Backend::FastMath,
            "{}: wrong precision contract",
            be.name()
        );
    }
}
