//! Backend conformance suite.
//!
//! The suite walks [`Backend::ALL`] and exercises **every available
//! backend's kernel methods directly** (no env pinning needed — method
//! calls bypass the process-wide selection). Backends that promise
//! `bit_exact()` are held to bitwise equality against the [`scalar`]
//! reference definitions on NaN-poisoned inputs whose lengths straddle
//! the vector width. The relaxed-precision tier (fastmath) is held to the
//! same bitwise batteries on every kernel but its one own body, the FMA
//! `microkernel`, which runs under a relative-error bound plus
//! NaN-position agreement.
//!
//! The suite also locks down a selection-adjacent contract: the dispatched
//! GEMM and softmax of every bit-exact backend (env-pinned, serialized)
//! match the scalar backend's end to end.

use leca_tensor::backend::{self, scalar, Backend, MR, NR};
use leca_tensor::ops::{matmul, softmax_rows};
use leca_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes tests that mutate process-global state (`LECA_BACKEND` and
/// the cached backend selection).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Every backend that can run its own bodies on this host. Always
/// contains scalar; contains avx2 (and fastmath) exactly when the host
/// supports them.
fn available_backends() -> impl Iterator<Item = Backend> {
    Backend::ALL.into_iter().filter(|be| be.available())
}

/// The available backends bound by the **bit-exact** contract — the
/// population for the bitwise batteries below. Non-bit-exact tiers
/// (fastmath) are excluded here and covered by the tolerance section.
fn bit_exact_backends() -> impl Iterator<Item = Backend> {
    available_backends().filter(|be| be.bit_exact())
}

/// The available relaxed-precision backends (fastmath when the host has
/// AVX2+FMA), whose microkernel is held to a relative-error bound instead
/// of bitwise equality.
fn tolerance_backends() -> impl Iterator<Item = Backend> {
    available_backends().filter(|be| !be.bit_exact())
}

/// Lengths below, at and straddling the 8-lane AVX2 width, plus empty and
/// ragged multi-vector tails.
const EDGE_LENS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65];

/// Deterministic pseudo-random data with roughly a quarter of the
/// elements NaN-poisoned: vector lanes must propagate (or deliberately
/// drop) NaN exactly as the scalar bodies do.
fn gen_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f32> = Tensor::rand_uniform(&[len.max(1)], -4.0, 4.0, &mut rng)
        .as_slice()
        .to_vec();
    v.truncate(len);
    for (i, x) in v.iter_mut().enumerate() {
        if (seed.rotate_left(i as u32 % 64)) & 3 == 3 {
            *x = f32::NAN;
        }
    }
    v
}

fn assert_bits(ctx: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: lane {i} diverged from scalar ({g} vs {w})"
        );
    }
}

#[test]
fn scalar_is_always_available_and_the_active_choice_is_available() {
    assert!(
        available_backends().any(|be| be == Backend::Scalar),
        "scalar must always be available"
    );
    // The active selection (whatever the ambient env says) must be
    // available — selection may never pick a backend the host lacks.
    let active = backend::active();
    assert!(
        active.available(),
        "active backend {} is not available",
        active.name()
    );
}

/// `len` Box–Muller input pairs as the uniform generator makes them
/// (`k · 2^-24`), each side led by the extremes `k = 0` and
/// `k = 2^24 − 1`.
fn box_muller_inputs(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let u: Vec<f32> = (0..2 * len)
        .map(|i| match i % len {
            0 => 0.0,
            1 => 1.0 - f32::EPSILON / 2.0,
            _ => rng.gen(),
        })
        .collect();
    let u1 = u[..len].iter().map(|&x| 1.0 - x).collect();
    (u1, u[len..].to_vec())
}

/// Every elementwise kernel on every bit-exact backend, bit-for-bit
/// against the scalar definition, across the edge-length set.
#[test]
fn elementwise_kernels_conform_on_every_backend() {
    for be in bit_exact_backends() {
        assert_elementwise_exact(be);
    }
}

/// The elementwise battery behind [`elementwise_kernels_conform_on_every_backend`]:
/// every elementwise kernel of `be`, bit for bit against scalar on
/// NaN-poisoned edge-length inputs, plus the ReLU family's NaN semantics at
/// the lane boundary.
fn assert_elementwise_exact(be: Backend) {
    let name = be.name();
    for (sel, &len) in EDGE_LENS.iter().enumerate() {
        let seed = 0x5eed_0000 + sel as u64;
        let a = gen_vec(len, seed);
        let b = gen_vec(len, seed ^ 0xffff);
        let mut got = vec![0.0f32; len];
        let mut want = vec![0.0f32; len];

        let ctx = |k: &str| format!("{name}/{k}/len={len}");

        be.add(&a, &b, &mut got);
        scalar::add(&a, &b, &mut want);
        assert_bits(&ctx("add"), &got, &want);

        got.copy_from_slice(&b);
        want.copy_from_slice(&b);
        be.add_assign(&mut got, &a);
        scalar::add_assign(&mut want, &a);
        assert_bits(&ctx("add_assign"), &got, &want);

        got.copy_from_slice(&b);
        want.copy_from_slice(&b);
        be.axpy(&mut got, &a, 0.37);
        scalar::axpy(&mut want, &a, 0.37);
        assert_bits(&ctx("axpy"), &got, &want);

        got.copy_from_slice(&a);
        want.copy_from_slice(&a);
        be.scale_inplace(&mut got, 0.93);
        scalar::scale_inplace(&mut want, 0.93);
        assert_bits(&ctx("scale_inplace"), &got, &want);

        be.add_scalar(&a, -2.5, &mut got);
        scalar::add_scalar(&a, -2.5, &mut want);
        assert_bits(&ctx("add_scalar"), &got, &want);

        got.copy_from_slice(&a);
        want.copy_from_slice(&a);
        be.add_scalar_inplace(&mut got, 1.75);
        scalar::add_scalar_inplace(&mut want, 1.75);
        assert_bits(&ctx("add_scalar_inplace"), &got, &want);

        be.clamp(&a, -1.0, 2.0, &mut got);
        scalar::clamp(&a, -1.0, 2.0, &mut want);
        assert_bits(&ctx("clamp"), &got, &want);

        got.copy_from_slice(&a);
        want.copy_from_slice(&a);
        be.relu_inplace(&mut got);
        scalar::relu_inplace(&mut want);
        assert_bits(&ctx("relu_inplace"), &got, &want);

        be.relu_mask(&a, &mut got);
        scalar::relu_mask(&a, &mut want);
        assert_bits(&ctx("relu_mask"), &got, &want);

        // Backward passes: `a` doubles as mask (NaN mask entries are
        // "on": NaN != 0.0), `b` as the (NaN-poisoned) gradient.
        be.relu_backward(&a, &b, &mut got);
        scalar::relu_backward(&a, &b, &mut want);
        assert_bits(&ctx("relu_backward"), &got, &want);

        be.bn_affine(&a, &mut got, 0.4, 1.9, 1.1, -0.3);
        scalar::bn_affine(&a, &mut want, 0.4, 1.9, 1.1, -0.3);
        assert_bits(&ctx("bn_affine"), &got, &want);

        got.copy_from_slice(&a);
        want.copy_from_slice(&a);
        let gz = be.exp_sum(&mut got);
        let wz = scalar::exp_sum(&mut want);
        assert_bits(&ctx("exp_sum"), &got, &want);
        assert!(
            gz.to_bits() == wz.to_bits(),
            "{name}/exp_sum-sum/len={len}: {gz} vs {wz}"
        );

        // Box–Muller on its domain: the generator's uniforms `k · 2^-24`,
        // `u1 = 1 − u ∈ (0, 1]` and `u2 = u ∈ [0, 1)`, extremes included.
        let (u1, u2) = box_muller_inputs(len, seed);
        be.box_muller(&u1, &u2, &mut got);
        scalar::box_muller(&u1, &u2, &mut want);
        assert_bits(&ctx("box_muller"), &got, &want);

        let gm = be.row_max(&a);
        let wm = scalar::row_max(&a);
        assert!(
            gm.to_bits() == wm.to_bits(),
            "{name}/row_max/len={len}: {gm} vs {wm}"
        );
    }

    // NaN semantics at the exact lane boundary: the forward ReLU passes
    // NaN through (never launders it to zero)...
    for len in [7usize, 8, 9] {
        let mut src: Vec<f32> = (0..len).map(|i| (i as f32 - 3.5) * 0.5).collect();
        src[len / 2] = f32::NAN;
        let mut out = src.clone();
        be.relu_inplace(&mut out);
        assert!(
            out[len / 2].is_nan(),
            "{name}/relu_inplace/len={len} dropped NaN"
        );
    }
    // ...and the backward is a select, not `g * mask`: a NaN gradient
    // at a masked-off position becomes exactly +0.0.
    let mask = [0.0f32, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
    let mut out = [7.0f32; 9];
    be.relu_backward(&mask, &[f32::NAN; 9], &mut out);
    for (m, v) in mask.iter().zip(&out) {
        if *m == 0.0 {
            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "{name}/relu_backward");
        } else {
            assert!(v.is_nan(), "{name}/relu_backward dropped NaN");
        }
    }
}

/// `row_max` where the maximum is a zero tie, on rows of lengths 1–64: all
/// `±0.0` (one odd zero first, last, or alone among the other sign, plus
/// pseudo-random sign mixes), and zeros of both signs among `-1.0` and NaN.
/// Every bit-exact backend returns scalar's bits, `+0.0`, however its
/// vector width splits the row.
#[test]
fn row_max_signed_zero_ties_conform_on_every_backend() {
    for be in bit_exact_backends() {
        let name = be.name();
        for len in 1usize..=64 {
            let mut masks = vec![
                1u64,
                1 << (len - 1),
                !1,
                !(1 << (len - 1)),
                0xaaaa_aaaa_aaaa_aaaa,
            ];
            masks.extend(
                (0..8u64).map(|s| (len as u64 ^ s << 8).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            );
            for (m, &mask) in masks.iter().enumerate() {
                let zeros = (0..len).map(|i| if mask >> i & 1 == 1 { 0.0 } else { -0.0 });
                // The same signs, with every third element -1.0 and every
                // fifth NaN (a row whose first element is either still has
                // a zero maximum once len > 2).
                let mixed = zeros
                    .clone()
                    .enumerate()
                    .map(|(i, z)| match (i % 3, i % 5) {
                        (_, 4) => f32::NAN,
                        (2, _) => -1.0,
                        _ => z,
                    });
                for (kind, xs) in [
                    ("zeros", zeros.collect::<Vec<f32>>()),
                    ("mixed", mixed.collect()),
                ] {
                    let (got, want) = (be.row_max(&xs), scalar::row_max(&xs));
                    assert!(
                        got.to_bits() == want.to_bits() && want.to_bits() == 0.0f32.to_bits(),
                        "{name}/row_max/{kind}/len={len}/mask#{m}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}

/// One B source of the f32 microkernel: `(b, rows)` and the packed panel
/// holding the same rows.
type BSource = (Vec<f32>, Vec<usize>, Vec<f32>);

/// The two B sources of the f32 microkernel for a `k`-step test: a packed
/// panel with its `p * NR` rows, and a wider buffer read in place through
/// overlapping, unaligned row offsets (the forward conv's shape) with the
/// panel that packs those same rows.
fn microkernel_b_sources(k: usize, seed: u64) -> [BSource; 2] {
    let packed_rows: Vec<usize> = (0..k).map(|p| p * NR).collect();
    let bp = gen_vec(k * NR, seed);
    let wide = gen_vec(3 * k + NR, seed ^ 0x5A);
    let rows: Vec<usize> = (0..k).map(|p| (5 * p + 3) % (3 * k + 1)).collect();
    let gathered = rows
        .iter()
        .flat_map(|&r| wide[r..r + NR].to_vec())
        .collect();
    [(bp.clone(), packed_rows, bp), (wide, rows, gathered)]
}

/// f32 microkernel on every bit-exact backend, for both B sources: fresh
/// accumulation and chunked continuation (load-accumulate-store across
/// split reductions) must both match the scalar chain over the packed
/// panel bit for bit.
#[test]
fn microkernel_conforms_including_chunked_continuation() {
    for be in bit_exact_backends() {
        let name = be.name();
        for k in [0usize, 1, 2, 3, 7, 8, 17, 64] {
            let ap = gen_vec(k * MR, 0x11 + k as u64);
            for (src, (b, rows, bp)) in microkernel_b_sources(k, 0x22 + k as u64)
                .into_iter()
                .enumerate()
            {
                let packed_rows: Vec<usize> = (0..k).map(|p| p * NR).collect();
                let mut got = [[0.1f32; NR]; MR];
                let mut want = [[0.1f32; NR]; MR];
                be.microkernel(k, &ap, &b, &rows, &mut got);
                scalar::microkernel(k, &ap, &bp, &packed_rows, &mut want);
                for i in 0..MR {
                    assert_bits(
                        &format!("{name}/microkernel/src={src}/k={k}/row={i}"),
                        &got[i],
                        &want[i],
                    );
                }

                // Split the reduction at every interior point: the two-chunk
                // result must equal the one-shot result on the SAME backend
                // (this is the exact property the kc-blocked GEMM driver
                // relies on).
                for split in 0..=k {
                    let mut acc = [[0.1f32; NR]; MR];
                    be.microkernel(split, &ap[..split * MR], &b, &rows[..split], &mut acc);
                    be.microkernel(k - split, &ap[split * MR..], &b, &rows[split..], &mut acc);
                    for i in 0..MR {
                        assert_bits(
                            &format!(
                                "{name}/microkernel-chunked/src={src}/k={k}/split={split}/row={i}"
                            ),
                            &acc[i],
                            &want[i],
                        );
                    }
                }
            }
        }
    }
}

/// Int8 tier: qmicrokernel plus the quantize / requantize / dequantize
/// passes, exact against the scalar bodies on every bit-exact backend.
#[test]
fn quant_kernels_conform_on_every_backend() {
    for be in bit_exact_backends() {
        assert_quant_exact(be);
    }
}

fn assert_quant_exact(be: Backend) {
    let name = be.name();
    for kp2 in [0usize, 1, 2, 5, 16] {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(kp2 as u64 + 7);
        let ap: Vec<i16> = (0..kp2 * MR * 2)
            .map(|_| rng.gen_range(-127i16..128))
            .collect();
        let bp: Vec<i16> = (0..kp2 * NR * 2)
            .map(|_| rng.gen_range(-127i16..128))
            .collect();
        let mut got = [[3i32; NR]; MR];
        let mut want = [[3i32; NR]; MR];
        be.qmicrokernel(kp2, &ap, &bp, &mut got);
        scalar::qmicrokernel(kp2, &ap, &bp, &mut want);
        assert_eq!(got, want, "{name}/qmicrokernel/kp2={kp2}");
    }

    for &len in EDGE_LENS {
        let mut rng = StdRng::seed_from_u64(len as u64 + 99);
        let src: Vec<f32> =
            Tensor::rand_uniform(&[len.max(1)], -30.0, 30.0, &mut rng).as_slice()[..len].to_vec();
        let mut got8 = vec![0i8; len];
        let mut want8 = vec![0i8; len];
        be.quantize_q8(&src, 4.2, 3, &mut got8);
        scalar::quantize_q8(&src, 4.2, 3, &mut want8);
        assert_eq!(got8, want8, "{name}/quantize_q8/len={len}");

        let acc: Vec<i32> = (0..len as i32).map(|i| i * 1717 - 20_000).collect();
        for relu in [false, true] {
            be.requant_i32(&acc, 0.004, 1.5, -2, relu, &mut got8);
            scalar::requant_i32(&acc, 0.004, 1.5, -2, relu, &mut want8);
            assert_eq!(got8, want8, "{name}/requant_i32/len={len}/relu={relu}");
        }

        let mut gotf = vec![0.0f32; len];
        let mut wantf = vec![0.0f32; len];
        be.dequant_i32(&acc, 0.031, -0.7, &mut gotf);
        scalar::dequant_i32(&acc, 0.031, -0.7, &mut wantf);
        assert_bits(&format!("{name}/dequant_i32/len={len}"), &gotf, &wantf);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized cross-backend agreement on a representative kernel mix:
    /// any bit-exact backend, any length, half-NaN inputs.
    #[test]
    fn prop_backends_agree_with_scalar(
        len in 0usize..200,
        seed in 0u64..u64::MAX,
        s in -4.0f32..4.0,
    ) {
        let a = gen_vec(len, seed);
        let b = gen_vec(len, seed ^ 0x9e37_79b9);
        for be in bit_exact_backends() {
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];

            be.axpy(&mut got, &a, s);
            scalar::axpy(&mut want, &a, s);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}/axpy", be.name()
            );

            be.relu_backward(&a, &b, &mut got);
            scalar::relu_backward(&a, &b, &mut want);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}/relu_backward", be.name()
            );

            let gm = be.row_max(&a);
            prop_assert_eq!(gm.to_bits(), scalar::row_max(&a).to_bits(), "{}/row_max", be.name());
        }
    }
}

// ---------------------------------------------------------------------
// Tolerance parity for relaxed-precision (fastmath) backends
// ---------------------------------------------------------------------

/// Tolerance analogue of [`assert_bits`] for the fast-math tier: lanes
/// must be NaN exactly where the scalar oracle is NaN (poison may neither
/// be dropped nor invented), infinities must match exactly, and finite
/// lanes must satisfy `|got - want| <= atol + rtol * |want|`.
fn assert_close(ctx: &str, got: &[f32], want: &[f32], rtol: f32, atol: f32) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{ctx}: lane {i} dropped NaN (got {g})");
            continue;
        }
        assert!(!g.is_nan(), "{ctx}: lane {i} invented NaN (want {w})");
        if w.is_infinite() {
            assert!(
                g.to_bits() == w.to_bits(),
                "{ctx}: lane {i} infinity mismatch ({g} vs {w})"
            );
            continue;
        }
        let err = (g - w).abs();
        let bound = atol + rtol * w.abs();
        assert!(
            err <= bound,
            "{ctx}: lane {i} off by {err:e} (> {bound:e}): {g} vs {w}"
        );
    }
}

/// The fast-math f32 microkernel: within accumulation-scaled tolerance of
/// the scalar chain on fresh accumulation, and — critically — chunked
/// continuation must be bit-identical to one-shot *on the same backend*
/// (the kc-blocked GEMM driver depends on this even on the relaxed tier;
/// it is what keeps fastmath results independent of the blocking).
#[test]
fn fastmath_microkernel_tolerance_and_exact_chunking() {
    for be in tolerance_backends() {
        let name = be.name();
        for k in [0usize, 1, 2, 3, 7, 8, 17, 64] {
            let ap = gen_vec(k * MR, 0x31 + k as u64);
            for (src, (b, rows, bp)) in microkernel_b_sources(k, 0x42 + k as u64)
                .into_iter()
                .enumerate()
            {
                let packed_rows: Vec<usize> = (0..k).map(|p| p * NR).collect();
                let mut got = [[0.1f32; NR]; MR];
                let mut want = [[0.1f32; NR]; MR];
                be.microkernel(k, &ap, &b, &rows, &mut got);
                scalar::microkernel(k, &ap, &bp, &packed_rows, &mut want);
                // FMA contraction shifts rounding per term; scale the absolute
                // slack with the reduction depth (|terms| <= 16 each).
                let atol = 1e-6 + k as f32 * 16.0 * 1e-6;
                for i in 0..MR {
                    assert_close(
                        &format!("{name}/microkernel/src={src}/k={k}/row={i}"),
                        &got[i],
                        &want[i],
                        1e-4,
                        atol,
                    );
                }

                for split in 0..=k {
                    let mut acc = [[0.1f32; NR]; MR];
                    be.microkernel(split, &ap[..split * MR], &b, &rows[..split], &mut acc);
                    be.microkernel(k - split, &ap[split * MR..], &b, &rows[split..], &mut acc);
                    for i in 0..MR {
                        assert_bits(
                            &format!(
                                "{name}/microkernel-chunked/src={src}/k={k}/split={split}/row={i}"
                            ),
                            &acc[i],
                            &got[i],
                        );
                    }
                }
            }
        }
    }
}

/// Fast-math relaxes only its one own body, the FMA `microkernel`: every
/// other kernel — `exp_sum` and the int8 tier included — runs a bit-exact
/// body there and must match scalar bit for bit, on the same NaN-poisoned
/// batteries as the bit-exact backends.
#[test]
fn fastmath_is_exact_outside_microkernel() {
    for be in tolerance_backends() {
        assert_elementwise_exact(be);
        assert_quant_exact(be);
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

// ---------------------------------------------------------------------
// Dispatched ops under every bit-exact backend
// ---------------------------------------------------------------------

/// Runs `body` with `LECA_BACKEND` pinned to `name`, restoring the
/// previous selection afterwards. Callers hold `ENV_LOCK`.
#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_BACKEND for one leg and restores the previous value"
)]
fn pin_backend<T>(name: &str, body: impl FnOnce() -> T) -> T {
    let old = std::env::var("LECA_BACKEND").ok();
    std::env::set_var("LECA_BACKEND", name);
    backend::refresh_backend();
    let out = body();
    match old {
        Some(v) => std::env::set_var("LECA_BACKEND", v),
        None => std::env::remove_var("LECA_BACKEND"),
    }
    backend::refresh_backend();
    out
}

/// The outputs of every bit-exact backend must equal the scalar backend's
/// bit for bit: the blocked GEMM (over edge shapes that straddle the 8x8
/// tile) and softmax, end to end through the free kernel functions.
#[test]
fn dispatched_ops_match_scalar_on_every_backend() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut scalar_outputs: Option<Vec<(String, Tensor)>> = None;
    for be in bit_exact_backends() {
        let name = be.name();
        let outputs = pin_backend(name, || {
            let mut outputs = Vec::new();
            let mut rng = StdRng::seed_from_u64(2024);
            let shapes = [
                (1, 1, 1),
                (7, 9, 8),
                (8, 17, 65),
                (13, 21, 37),
                (33, 16, 9),
                (65, 31, 15),
            ];
            for (m, n, k) in shapes {
                let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
                let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
                outputs.push((format!("matmul/{m}x{n}x{k}"), matmul(&a, &b).unwrap()));
            }
            for cols in [1, 8, 9, 33, 65] {
                let logits = Tensor::rand_uniform(&[3, cols], -6.0, 6.0, &mut rng);
                outputs.push((
                    format!("softmax_rows/cols={cols}"),
                    softmax_rows(&logits).unwrap(),
                ));
            }
            outputs
        });
        match &scalar_outputs {
            None => {
                assert_eq!(name, "scalar", "Backend::ALL lists scalar first");
                scalar_outputs = Some(outputs);
            }
            Some(reference) => {
                for ((op, got), (_, want)) in outputs.iter().zip(reference) {
                    assert_bits(
                        &format!("{name}-vs-scalar/{op}"),
                        got.as_slice(),
                        want.as_slice(),
                    );
                }
            }
        }
    }
}
