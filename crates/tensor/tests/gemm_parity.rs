//! Parity suite: blocked GEMM vs the retained naive reference.
//!
//! The blocked kernels in `ops::matmul*` go through packed panels, an 8x8
//! microkernel, and zero-padded edge tiles; this suite hammers exactly the
//! shapes where that machinery can go wrong — dimensions of 1, tile-size
//! +/-1 stragglers, odd primes — and random rectangles, asserting
//! elementwise agreement with `ops::reference::matmul_naive` to within
//! 1e-4 relative error. `matmul_bt_into` is held to `matmul_naive` bit for
//! bit whenever the active backend is bit-exact, and every convolution op
//! to its im2col + `matmul_naive` oracle on every bit-exact backend. Every
//! op writing into a caller's tensor rejects one of the wrong shape.

use leca_tensor::ops::reference::matmul_naive;
use leca_tensor::ops::{
    conv2d_grad_input, conv2d_grad_weight, conv2d_into, conv_transpose2d_into, im2col, matmul,
    matmul_at, matmul_bt_into,
};
use leca_tensor::Tensor;
use proptest::prelude::*;

/// Microkernel tile edge (MR == NR == 8 in ops::gemm).
const TILE: usize = 8;

/// Dimensions that historically break blocked kernels: degenerate 1,
/// the tile size and its neighbours, odd primes, and a multi-tile prime.
const EDGE_DIMS: &[usize] = &[1, TILE - 1, TILE, TILE + 1, 3, 5, 7, 13, 17, 29];

/// Maps a raw sampled selector onto a dimension: the first slots pick the
/// edge cases above, the rest fall through to a 1..=48 range, so every
/// generated shape mixes adversarial and ordinary sizes.
fn pick_dim(sel: usize) -> usize {
    if sel < EDGE_DIMS.len() {
        EDGE_DIMS[sel]
    } else {
        sel - EDGE_DIMS.len() + 1
    }
}

/// Selector range for [`pick_dim`]: edge cases plus dims 1..=48.
const DIM_SEL: std::ops::Range<usize> = 0..(10 + 48);

fn assert_rel_close(got: &Tensor, want: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let tol = 1e-4f32.max(w.abs() * 1e-4);
        prop_assert!(
            (g - w).abs() <= tol,
            "blocked {} vs naive {} (tol {})",
            g,
            w,
            tol
        );
    }
    Ok(())
}

fn fill(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        assert_rel_close(&matmul(&a, &b).unwrap(), &matmul_naive(&a, &b).unwrap())?;
    }

    #[test]
    fn matmul_bt_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        let want = matmul_naive(&a, &b.transpose().unwrap()).unwrap();
        let mut got = Tensor::full(&[m, n], f32::NAN);
        matmul_bt_into(&a, &b, &mut got).unwrap();
        if leca_tensor::backend::active().bit_exact() {
            // Every element written, each one the naive in-order chain.
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        } else {
            assert_rel_close(&got, &want)?;
        }
    }

    #[test]
    fn matmul_at_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let want = matmul_naive(&a.transpose().unwrap(), &b).unwrap();
        assert_rel_close(&matmul_at(&a, &b).unwrap(), &want)?;
    }

    #[test]
    fn matmul_values_from_strategy(
        av in fill(6 * 9),
        bv in fill(9 * 7),
    ) {
        // Non-uniform values (exact strategy output, including repeats and
        // zeros) through a fixed straggler-heavy shape.
        let a = Tensor::from_vec(av, &[6, 9]).unwrap();
        let b = Tensor::from_vec(bv, &[9, 7]).unwrap();
        assert_rel_close(&matmul(&a, &b).unwrap(), &matmul_naive(&a, &b).unwrap())?;
    }
}

/// Exhaustive sweep over every combination of the edge dimensions for the
/// plain variant — cheap (dims <= 29) and deterministic. Each `(m, n)`
/// pair also runs the empty reduction `(m, 0) · (n, 0)ᵀ` through
/// `matmul_bt_into`, which must overwrite a NaN-poisoned output with
/// `+0.0` everywhere.
#[test]
fn edge_dim_cross_product() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for &m in EDGE_DIMS {
        for &n in EDGE_DIMS {
            let mut out = Tensor::full(&[m, n], f32::NAN);
            matmul_bt_into(&Tensor::zeros(&[m, 0]), &Tensor::zeros(&[n, 0]), &mut out).unwrap();
            assert!(
                out.as_slice().iter().all(|v| v.to_bits() == 0),
                "m={m} n={n} k=0: output not all +0.0"
            );
            for &k in EDGE_DIMS {
                let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
                let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
                let got = matmul(&a, &b).unwrap();
                let want = matmul_naive(&a, &b).unwrap();
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g - w).abs() <= 1e-4f32.max(w.abs() * 1e-4),
                        "m={m} n={n} k={k}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn into_ops_reject_wrong_out_shapes() {
    let mut bad = Tensor::zeros(&[4, 2]);
    let (a, b) = (Tensor::zeros(&[2, 3]), Tensor::zeros(&[4, 3]));
    assert!(matmul_bt_into(&a, &b, &mut bad).is_err());

    let x = Tensor::zeros(&[1, 2, 4, 4]);
    let w = Tensor::zeros(&[3, 2, 2, 2]);
    assert!(conv2d_into(&x, &w, None, 2, 0, &mut bad).is_err());
    let wt = Tensor::zeros(&[2, 3, 2, 2]);
    assert!(conv_transpose2d_into(&x, &wt, None, 2, 0, &mut bad).is_err());
}

/// Bitwise oracle for forward convolution: `ops::im2col`, then
/// `matmul_naive` (one in-order chain from `0.0` per element, the order
/// the bit-exact microkernels keep), then `acc + b`, scattered to NCHW.
/// `weight` is `(O, C, kh, kw)`.
fn conv_oracle(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, s) = (x.shape()[0], weight.shape());
    let (o, ckk) = (s[0], s[1] * s[2] * s[3]);
    let cols = im2col(x, s[2], s[3], stride, pad).unwrap();
    let y = matmul_naive(&weight.reshape(&[o, ckk]).unwrap(), &cols).unwrap();
    let ohw = cols.shape()[1] / n;
    let mut out = vec![0.0f32; n * o * ohw];
    for oi in 0..o {
        for img in 0..n {
            for p in 0..ohw {
                let acc = y.as_slice()[oi * n * ohw + img * ohw + p];
                out[(img * o + oi) * ohw + p] = match bias {
                    Some(b) => acc + b.as_slice()[oi],
                    None => acc,
                };
            }
        }
    }
    let (oh, ow) = {
        let h = x.shape()[2] + 2 * pad - s[2];
        let w = x.shape()[3] + 2 * pad - s[3];
        (h / stride + 1, w / stride + 1)
    };
    Tensor::from_vec(out, &[n, o, oh, ow]).unwrap()
}

/// The `(C, N*H*W)` channel-major matrix of an NCHW tensor.
fn channel_major(x: &Tensor) -> Tensor {
    let (n, c, hw) = (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]);
    let planes = x.as_slice().chunks(hw);
    let m: Vec<f32> = (0..c)
        .flat_map(|ci| planes.clone().skip(ci).step_by(c).flatten().copied())
        .collect();
    Tensor::from_vec(m, &[c, n * hw]).unwrap()
}

/// Bitwise oracle for the scatter-shaped ops (`conv2d_grad_input`, and
/// `conv_transpose2d` before its bias): `cols = matmul_naive(Wᵀ, g_mat)`
/// with `weight` read as the `(Ci, O*kh*kw)` matrix, then each column
/// entry added onto a zeroed `(N, O, h, w)` output in `(o, ky, kx)`, then
/// `(oy, ox)` order. Positions no window reaches stay `+0.0`.
fn scatter_oracle(
    g: &Tensor,
    weight: &Tensor,
    (h, w): (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, gh, gw) = (g.shape()[0], g.shape()[2], g.shape()[3]);
    let s = weight.shape();
    let (ci, o, kh, kw) = (s[0], s[1], s[2], s[3]);
    let wt = weight.reshape(&[ci, o * kh * kw]).unwrap();
    let cols = matmul_naive(&wt.transpose().unwrap(), &channel_major(g)).unwrap();
    let mut out = Tensor::zeros(&[n, o, h, w]);
    for img in 0..n {
        for r in 0..o * kh * kw {
            let (oi, ky, kx) = (r / (kh * kw), r / kw % kh, r % kw);
            for j in 0..gh * gw {
                // Out-of-image (padding) positions wrap past h or w.
                let y = (j / gw * stride + ky).wrapping_sub(pad);
                let x = (j % gw * stride + kx).wrapping_sub(pad);
                if y < h && x < w {
                    let v = cols.at(&[r, img * gh * gw + j]);
                    out.as_mut_slice()[((img * o + oi) * h + y) * w + x] += v;
                }
            }
        }
    }
    out
}

/// Bitwise oracle for `conv2d_grad_weight` of a weight shaped `s`:
/// `matmul_naive(g_mat, im2col(x)ᵀ)`, one in-order chain over `N*oh*ow`.
fn grad_weight_oracle(x: &Tensor, g: &Tensor, s: &[usize], stride: usize, pad: usize) -> Tensor {
    let cols = im2col(x, s[2], s[3], stride, pad).unwrap();
    let gw = matmul_naive(&channel_major(g), &cols.transpose().unwrap()).unwrap();
    gw.reshape(s).unwrap()
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Every conv op is bit-identical to its im2col + `matmul_naive` oracle on
/// every bit-exact backend: `conv2d_into` (with and without bias) and
/// `conv_transpose2d_into` (with bias) into NaN-filled outputs, plus
/// `conv2d_grad_input` and `conv2d_grad_weight`. Each shape's transposed
/// conv takes the forward conv's output grid as its input and the conv
/// weight read as `(Ci, O, kh, kw)`. The shapes cover `ow % NR != 0`
/// (panels that straddle output rows), panels read in place from the
/// padded image at strides 1, 2 and 3 (from `ox != 0`, and a partial last
/// panel that reads into the buffer's slack), padded sizes the stride
/// does not divide, kernels with fewer taps than the stride has phases,
/// `O % MR != 0`, strides 1/2/3/5,
/// pads 0/1/2, `kh != kw`, 1x1 kernels, `C = 1`, `N = 1`/`3`, pad > kw (a
/// panel wholly in the left or right padding), and forward convs that
/// drop trailing input rows or columns, whose input gradient there is
/// `+0.0`.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_BACKEND per bit-exact backend and restores the previous value"
)]
fn conv_is_bit_identical_to_im2col_oracle() {
    use leca_tensor::backend::{refresh_backend, Backend};
    use leca_tensor::ops::conv_transpose2d_out_shape;
    use rand::SeedableRng;
    // (n, c, h, w, o, kh, kw, stride, pad)
    const SHAPES: &[[usize; 9]] = &[
        [3, 2, 9, 11, 5, 3, 3, 1, 1],
        [1, 1, 7, 7, 9, 3, 2, 2, 0],
        [3, 3, 10, 13, 8, 1, 1, 1, 0],
        [1, 4, 12, 9, 17, 3, 3, 3, 2],
        [3, 16, 8, 8, 16, 3, 3, 1, 1],
        [1, 2, 6, 20, 3, 2, 5, 1, 2],
        [3, 1, 4, 4, 3, 3, 3, 1, 2],
        [1, 3, 16, 16, 16, 3, 3, 2, 1],
        [3, 5, 7, 10, 7, 2, 3, 2, 2],
        [1, 6, 5, 6, 11, 1, 1, 3, 1],
        // pad > kw: a panel wholly inside the right or left padding.
        [1, 1, 1, 5, 1, 5, 1, 1, 2],
        [1, 1, 1, 1, 1, 3, 1, 5, 2],
        // The forward conv drops the last input row and column.
        [3, 3, 5, 5, 4, 2, 2, 2, 0],
        // The upsample geometry (stride == kernel, no padding).
        [2, 8, 8, 8, 3, 2, 2, 2, 0],
        // Stride 1 reads in-row panels in place from a padded image. The
        // image's last panel is a partial one inside the last output row,
        // whose reads run into the buffer's slack.
        [1, 2, 3, 13, 3, 3, 3, 1, 1],
        // In-row panels that do not start at `ox = 0`, mixed with
        // panels straddling output rows.
        [2, 4, 5, 21, 9, 3, 3, 1, 1],
        // Stride 1 without padding.
        [2, 3, 10, 10, 8, 3, 3, 1, 0],
        // A 1x1 kernel with pad > kw.
        [1, 2, 4, 9, 3, 1, 1, 1, 2],
        // Strides 2 and 3 with ow > NR and ow % NR != 0: in-row panels
        // read in place from a phase plane at ox = 0 and ox = 8, then a
        // panel straddling output rows. No padded size is a multiple of
        // the stride, so the phase planes differ in size.
        [2, 3, 7, 41, 5, 3, 3, 2, 1],
        [1, 2, 8, 59, 4, 3, 3, 3, 1],
        // kh != kw at stride 2, no padding.
        [2, 4, 11, 37, 9, 2, 3, 2, 0],
        // Fewer taps than phases: a 1x1 kernel at stride 2 and a 2x2
        // kernel at stride 3 store only the phases they read.
        [1, 3, 5, 35, 4, 1, 1, 2, 0],
        [1, 2, 9, 50, 3, 2, 2, 3, 1],
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0_11);
    let cases: Vec<_> = SHAPES
        .iter()
        .map(|&[n, c, h, w, o, kh, kw, stride, pad]| {
            let x = Tensor::rand_uniform(&[n, c, h, w], -2.0, 2.0, &mut rng);
            let wt = Tensor::rand_uniform(&[o, c, kh, kw], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
            let want = conv_oracle(&x, &wt, None, stride, pad);
            let want_b = conv_oracle(&x, &wt, Some(&b), stride, pad);
            // A gradient on the forward output grid, which is also the
            // transposed conv's input.
            let g = Tensor::rand_uniform(want.shape(), -2.0, 2.0, &mut rng);
            let want_gx = scatter_oracle(&g, &wt, (h, w), stride, pad);
            let want_gw = grad_weight_oracle(&x, &g, wt.shape(), stride, pad);
            // The transposed conv is only defined where its padding fits.
            let tb = Tensor::rand_uniform(&[c], -1.0, 1.0, &mut rng);
            let want_t = conv_transpose2d_out_shape(&g, &wt, stride, pad)
                .ok()
                .map(|s| {
                    let mut t = scatter_oracle(&g, &wt, (s[2], s[3]), stride, pad);
                    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                        *v += tb.as_slice()[(i / (s[2] * s[3])) % c];
                    }
                    t
                });
            (
                x,
                wt,
                b,
                g,
                tb,
                [stride, pad],
                [want, want_b, want_gx, want_gw],
                want_t,
            )
        })
        .collect();

    let old = std::env::var("LECA_BACKEND").ok();
    for be in Backend::ALL
        .into_iter()
        .filter(|be| be.bit_exact() && be.available())
    {
        std::env::set_var("LECA_BACKEND", be.name());
        refresh_backend();
        for (x, wt, b, g, tb, [stride, pad], [want, want_b, want_gx, want_gw], want_t) in &cases {
            let (s, p) = (*stride, *pad);
            let what = format!("{} x{:?} w{:?} s{s} p{p}", be.name(), x.shape(), wt.shape());
            let mut out = Tensor::full(want.shape(), f32::NAN);
            conv2d_into(x, wt, None, s, p, &mut out).unwrap();
            assert_bits_eq(&out, want, &format!("conv2d_into {what}"));
            let mut out = Tensor::full(want.shape(), f32::NAN);
            conv2d_into(x, wt, Some(b), s, p, &mut out).unwrap();
            assert_bits_eq(&out, want_b, &format!("conv2d_into+bias {what}"));
            let gx = conv2d_grad_input(g, wt, x.shape(), s, p).unwrap();
            assert_bits_eq(&gx, want_gx, &format!("conv2d_grad_input {what}"));
            let (kh, kw) = (wt.shape()[2], wt.shape()[3]);
            let gw = conv2d_grad_weight(x, g, kh, kw, s, p).unwrap();
            assert_bits_eq(&gw, want_gw, &format!("conv2d_grad_weight {what}"));
            if let Some(want_t) = want_t {
                let mut out = Tensor::full(want_t.shape(), f32::NAN);
                conv_transpose2d_into(g, wt, Some(tb), s, p, &mut out).unwrap();
                assert_bits_eq(&out, want_t, &format!("conv_transpose2d_into+bias {what}"));
            }
        }
    }
    match old {
        Some(v) => std::env::set_var("LECA_BACKEND", v),
        None => std::env::remove_var("LECA_BACKEND"),
    }
    refresh_backend();
}
