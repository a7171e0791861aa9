//! Bit-exactness parity suite for the int8 tier.
//!
//! Each case computes the scalar reference via `backend::scalar::*`
//! directly, then the dispatched wrapper on the AVX2 backend, and
//! asserts **bitwise** equality: i32 accumulators and i8 codes compare
//! with `==`, f32 dequant outputs with `to_bits`. The int8 conv driver
//! `qconv` is additionally checked against the unpacked, unpaired,
//! unthreaded `reference::qmatmul_naive` oracle on a materialized im2col
//! matrix, so a packing bug cannot hide behind a matching bug in both
//! kernel bodies. On hosts without AVX2 the AVX2 backend runs the scalar
//! bodies and every assertion holds trivially.

use leca_tensor::backend::{self as backend, scalar, Backend, MR, NR};
use leca_tensor::ops::reference::qmatmul_naive;
use leca_tensor::ops::{qconv, PackedQMat, QIm2col};
use leca_tensor::quant::{QuantParams, QMAX, QMIN};
use leca_tensor::{QTensor, Tensor, TensorError};
use proptest::prelude::*;
use std::sync::Mutex;

/// The backend selection is process-wide; serialize every test that pins
/// it.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` on the AVX2 backend (whose bodies fall back to scalar on
/// hosts without it), restoring the previous selection afterwards.
fn with_avx2<T>(body: impl FnOnce() -> T) -> T {
    pinned(Backend::Avx2, body)
}

fn pinned<T>(be: Backend, body: impl FnOnce() -> T) -> T {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    backend::with_backend(be, body)
}

/// The int8 conv driver on the scalar and AVX2 backends, bitwise against
/// `qmatmul_naive` on the materialized `(channel pair, ky, kx)` im2col
/// matrix (padding, and the zero channel that pads an odd `c`,
/// materialized as the code `zp`, i.e. the real value zero), scattered to
/// NCHW. The output is sentinel-filled first and each element carries the
/// output channel its epilogue was called with, so an unwritten or
/// misrouted plane fails.
#[test]
fn qconv_is_bit_identical_to_im2col_oracle() {
    // [n, c, h, w, kh, kw, stride, pad]: panels inside one output row are
    // copied from the padded pair image, panels straddling output rows
    // gathered from it, at every stride and channel parity.
    const SHAPES: &[[usize; 8]] = &[
        [2, 4, 9, 16, 3, 3, 1, 1],
        [1, 6, 16, 16, 3, 3, 2, 1],
        [2, 3, 8, 8, 3, 3, 1, 1],
        [1, 4, 7, 5, 2, 2, 1, 0],
        [1, 2, 16, 16, 5, 5, 1, 2],
        // 1x1 s1 p0 (the upsample), even and odd channels.
        [2, 4, 5, 12, 1, 1, 1, 0],
        [1, 3, 8, 8, 1, 1, 1, 0],
        // Odd c with ow >= NR.
        [1, 5, 6, 11, 3, 3, 1, 1],
        // ow = NR - 1 with even c: panels straddle output rows by one.
        [3, 2, 7, 7, 3, 3, 1, 1],
        // pad > kw: panels wholly in the horizontal padding.
        [1, 2, 1, 5, 5, 1, 1, 2],
        [1, 2, 3, 3, 1, 1, 5, 2],
        // tiny_cnn's conv 0 (c = 3, stride 2) and the decoder's dncnn.0
        // (c = 3, stride 1).
        [2, 3, 16, 16, 3, 3, 2, 1],
        [2, 3, 16, 16, 3, 3, 1, 1],
        // Even c at stride 2, ow = 20: in-row panels at ox = 0 and 8,
        // then one straddling output rows.
        [1, 4, 9, 40, 3, 3, 2, 1],
    ];
    for (case, &[n, c, h, w, kh, kw, stride, pad]) in SHAPES.iter().enumerate() {
        let (oh, ow) = (
            (h + 2 * pad - kh) / stride + 1,
            (w + 2 * pad - kw) / stride + 1,
        );
        let (k, ohw) = (c.next_multiple_of(2) * kh * kw, oh * ow);
        let zp = [-5, QMAX, 0, QMIN][case % 4];
        let x = gen_codes(n * c * h * w, case as u64 + 1);
        // Materialize im2col: row p = ((ci/2*kh + ky)*kw + kx)*2 + ci%2,
        // column img*ohw + oy*ow + ox.
        let cols = n * ohw;
        let mut mat = vec![zp as i8; k * cols];
        for (p, row) in mat.chunks_exact_mut(cols).enumerate() {
            let (ci, kx, ky) = (p / 2 / (kh * kw) * 2 + p % 2, p / 2 % kw, p / 2 / kw % kh);
            if ci == c {
                continue;
            }
            for (j, slot) in row.iter_mut().enumerate() {
                let (img, oy, ox) = (j / ohw, (j % ohw) / ow, j % ow);
                let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                if (pad..h + pad).contains(&iy) && (pad..w + pad).contains(&ix) {
                    *slot = x[((img * c + ci) * h + iy - pad) * w + ix - pad];
                }
            }
        }
        for m in [10, 16] {
            let wts = gen_codes(m * k, case as u64 ^ 0x77);
            let oracle = qmatmul_naive(&wts, m, k, &mat, cols, zp);
            let packed = PackedQMat::pack(&wts, m, k, &vec![1.0; m]);
            let view = QIm2col {
                data: &x,
                c,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                oh,
                ow,
                zp,
            };
            for be in [Backend::Scalar, Backend::Avx2] {
                let mut out = vec![(usize::MAX, i32::MIN); n * m * ohw];
                pinned(be, || {
                    qconv(&packed, &view, n, &mut out, |o, acc, dst| {
                        for (d, &a) in dst.iter_mut().zip(acc) {
                            *d = (o, a);
                        }
                    });
                });
                for (e, &got) in out.iter().enumerate() {
                    let (img, o, pos) = (e / (m * ohw), (e / ohw) % m, e % ohw);
                    assert_eq!(
                        got,
                        (o, oracle[o * cols + img * ohw + pos]),
                        "{}: shape {:?} m={m} at (img {img}, o {o}, pos {pos})",
                        be.name(),
                        SHAPES[case]
                    );
                }
            }
        }
    }
}

/// Lengths below, at and straddling the 8-lane width, plus empty and a
/// multi-vector ragged tail.
const EDGE_LENS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 31, 33];

fn pick_len(sel: usize) -> usize {
    if sel < EDGE_LENS.len() {
        EDGE_LENS[sel]
    } else {
        sel - EDGE_LENS.len() + 1
    }
}

const LEN_SEL: std::ops::Range<usize> = 0..(10 + 64);

/// Deterministic pseudo-random i8 codes in the tier's `[-127, 127]` grid.
fn gen_codes(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 255) as i32 - 127
        })
        .map(|v| v as i8)
        .collect()
}

/// Zero-point-corrected i16 operand values (`|q - zp| ≤ 254`).
fn gen_corrected(len: usize, seed: u64) -> Vec<i16> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) % 509) as i32 - 254) as i16
        })
        .collect()
}

fn gen_f32(len: usize, seed: u64) -> Vec<f32> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut v: Vec<f32> = Tensor::rand_uniform(&[len.max(1)], -4.0, 4.0, &mut rng)
        .as_slice()
        .to_vec();
    v.truncate(len);
    v
}

fn gen_i32(len: usize, seed: u64) -> Vec<i32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Conv-realistic accumulator magnitudes (|acc| ≲ 8.4M: k·254·127
            // at k ≈ 260) plus sign coverage.
            ((state >> 33) % 16_777_216) as i32 - 8_388_608
        })
        .collect()
}

fn assert_f32_bits_eq(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "lane {}: dispatched {} vs scalar {}",
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register-tile microkernel: i32 accumulators bit-exact between
    /// the dispatched (AVX2) body and the scalar twin, from a nonzero
    /// starting accumulator so the running-sum fold is exercised too.
    #[test]
    fn qmicrokernel_matches_scalar(
        kp2 in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let ap = gen_corrected(kp2 * MR * 2, seed);
        let bp = gen_corrected(kp2 * NR * 2, seed ^ 0x0b);
        let mut want = [[17i32; NR]; MR];
        let mut got = [[17i32; NR]; MR];
        with_avx2(|| {
            scalar::qmicrokernel(kp2, &ap, &bp, &mut want);
            backend::qmicrokernel(kp2, &ap, &bp, &mut got);
        });
        prop_assert_eq!(got, want);
    }

    /// The elementwise quantization passes: i8 codes and f32 dequants
    /// bit-exact between the dispatched and scalar bodies, across lane
    /// edge lengths, fused-ReLU on and off.
    #[test]
    fn quant_passes_match_scalar(
        lsel in LEN_SEL,
        seed in 0u64..u64::MAX,
        scale in 0.001f32..2.0,
        zp in QMIN..(QMAX + 1),
        relu_sel in 0u8..2,
    ) {
        let relu = relu_sel == 1;
        let len = pick_len(lsel);
        let src = gen_f32(len, seed);
        let acc = gen_i32(len, seed ^ 0xacc);
        let inv = 1.0 / scale;
        let (m, b) = (scale * 0.731, -0.4375f32);
        with_avx2(|| -> Result<(), TestCaseError> {
            let mut want8 = vec![0i8; len];
            let mut got8 = vec![0i8; len];
            scalar::quantize_q8(&src, inv, zp, &mut want8);
            backend::quantize_q8(&src, inv, zp, &mut got8);
            prop_assert_eq!(&got8, &want8, "quantize_q8");

            scalar::requant_i32(&acc, m, b, zp, relu, &mut want8);
            backend::requant_i32(&acc, m, b, zp, relu, &mut got8);
            prop_assert_eq!(&got8, &want8, "requant_i32");

            let mut wantf = vec![0.0f32; len];
            let mut gotf = vec![0.0f32; len];
            scalar::dequant_i32(&acc, m, b, &mut wantf);
            backend::dequant_i32(&acc, m, b, &mut gotf);
            assert_f32_bits_eq(&gotf, &wantf)
        })?;
    }

    /// Round-trip bound: `|dequant(quant(x)) - x| ≤ scale/2` per channel,
    /// for symmetric per-channel weight grids (values inside the
    /// representable range by construction of the scale).
    #[test]
    fn dequant_quant_roundtrip_bounded_by_half_scale(
        rows in 1usize..5,
        cols in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let data = gen_f32(rows * cols, seed);
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let q = QTensor::quantize_per_channel(&t).unwrap();
        let back = q.dequantize();
        for c in 0..rows {
            let scale = q.scales()[c];
            for j in 0..cols {
                let x = t.as_slice()[c * cols + j];
                let r = back.as_slice()[c * cols + j];
                prop_assert!(
                    (r - x).abs() <= scale * 0.5 + scale * 1e-5,
                    "channel {} col {}: x={} r={} scale={}", c, j, x, r, scale
                );
            }
        }
    }

    /// Activation grids from [`QuantParams::from_range`] obey the same
    /// half-step bound for values inside the observed range.
    #[test]
    fn activation_roundtrip_bounded_by_half_scale(
        lo in -8.0f32..0.0,
        span in 0.01f32..16.0,
        frac in 0.0f32..1.0,
    ) {
        let hi = lo + span;
        let p = QuantParams::from_range(lo, hi);
        // from_range widens to include zero; sample within the widened span.
        let (wlo, whi) = (lo.min(0.0), hi.max(0.0));
        let x = wlo + (whi - wlo) * frac;
        let r = p.dequantize(p.quantize(x));
        prop_assert!(
            (r - x).abs() <= p.scale * 0.5 + p.scale * 1e-5,
            "x={} r={} scale={} zp={}", x, r, p.scale, p.zero_point
        );
    }
}

/// NaN- and inf-poisoned f32 inputs are rejected with typed errors — the
/// tier refuses to launder non-finite values into the i8 grid.
#[test]
fn poisoned_inputs_rejected_with_typed_errors() {
    for (poison, name) in [
        (f32::NAN, "nan"),
        (f32::INFINITY, "+inf"),
        (f32::NEG_INFINITY, "-inf"),
    ] {
        let mut v = vec![0.5f32; 11];
        v[6] = poison;
        let t = Tensor::from_vec(v, &[11]).unwrap();

        let err = QTensor::quantize_per_channel(&t).unwrap_err();
        assert_eq!(
            err,
            TensorError::NonFinite {
                op: "quantize_per_channel",
                index: 6
            },
            "{name}"
        );

        let err = QTensor::quantize_per_tensor(&t, QuantParams::UNIT).unwrap_err();
        assert!(
            matches!(err, TensorError::NonFinite { index: 6, .. }),
            "{name}: {err}"
        );

        let err = QTensor::observe_range(&t).unwrap_err();
        assert!(
            matches!(err, TensorError::NonFinite { index: 6, .. }),
            "{name}: {err}"
        );
    }
}

/// Deterministic spot check at the exact rounding boundaries: ties round
/// to even on both paths (the x86 `cvtps2dq` default the scalar twin
/// mirrors with `round_ties_even`).
#[test]
fn rounding_ties_to_even_on_both_paths() {
    // With inv = 1 and zp = 0, inputs ±0.5, ±1.5, ±2.5 are exact ties.
    let src = [0.5f32, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5, 126.5];
    let want: Vec<i8> = vec![0, 0, 2, -2, 2, -2, 4, -4, 126];
    with_avx2(|| {
        let mut got = vec![0i8; src.len()];
        backend::quantize_q8(&src, 1.0, 0, &mut got);
        assert_eq!(got, want, "dispatched path");
        let mut got_scalar = vec![0i8; src.len()];
        scalar::quantize_q8(&src, 1.0, 0, &mut got_scalar);
        assert_eq!(got_scalar, want, "scalar path");
    });
}
