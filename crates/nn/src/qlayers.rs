//! Int8 inference convolutions over the `leca-tensor` int8 conv driver
//! ([`qconv`]).
//!
//! These are **inference-only** counterparts of the f32 [`crate::layers`]
//! convolutions: each is compiled from a trained f32 layer by quantizing
//! its weights per output channel (symmetric, zero-point 0) and
//! prepacking them into [`PackedQMat`] tiles, so the per-call work is only
//! the activation pack, the integer microkernels, and a fused
//! requantize/dequantize epilogue. They do
//! not implement [`crate::Layer`] — there is no backward pass, and their
//! operands are raw i8 code buffers rather than f32 tensors.
//!
//! Numerical contract: everything here inherits the tensor tier's
//! bit-determinism — integer accumulation has no rounding and every
//! f32→i32 conversion rounds to nearest-even on both dispatch paths, so
//! int8 inference is bit-identical across `LECA_BACKEND` and `LECA_THREADS`.

use crate::layers::{BatchNorm2d, Conv2d, ConvTranspose2d};
use crate::{NnError, Result};
use leca_tensor::backend;
use leca_tensor::ops::{qconv, Conv2dGeometry, PackedQMat, QIm2col};
use leca_tensor::{QTensor, QuantParams, Tensor};

/// Folds an eval-mode [`BatchNorm2d`] into the preceding convolution's
/// weights and bias: `w'_o = w_o * γ_o / sqrt(var_o + eps)`,
/// `b'_o = β_o + (b_o - mean_o) * γ_o / sqrt(var_o + eps)`.
///
/// # Errors
///
/// Returns [`NnError::BatchMismatch`] when the channel counts disagree.
pub fn fold_batchnorm(conv: &Conv2d, bn: &BatchNorm2d) -> Result<(Tensor, Vec<f32>)> {
    let o = conv.weight().shape()[0];
    if bn.channels() != o {
        return Err(NnError::BatchMismatch {
            what: "batch-norm fold channels",
            expected: o,
            actual: bn.channels(),
        });
    }
    let per_out = conv.weight().len() / o;
    let mut w = conv.weight().clone();
    let mut b = vec![0.0f32; o];
    for (oi, bo) in b.iter_mut().enumerate() {
        let g = bn.gamma().as_slice()[oi] / (bn.running_var().as_slice()[oi] + bn.eps()).sqrt();
        for v in &mut w.as_mut_slice()[oi * per_out..(oi + 1) * per_out] {
            *v *= g;
        }
        let b0 = conv.bias().map_or(0.0, |t| t.as_slice()[oi]);
        *bo = bn.beta().as_slice()[oi] + (b0 - bn.running_mean().as_slice()[oi]) * g;
    }
    Ok((w, b))
}

/// What a [`QConv2d`] emits: i8 codes on a fixed output grid (feeding the
/// next quantized layer) or dequantized f32 (leaving the int8 domain).
#[derive(Debug, Clone, Copy)]
pub enum QConvEpilogue {
    /// Requantize onto `out`'s grid, optionally fusing ReLU as
    /// `max(q, zero_point)`.
    Requant {
        /// The output activation grid.
        out: QuantParams,
        /// Fuse ReLU into the requantization.
        relu: bool,
    },
    /// Dequantize to f32, optionally applying ReLU afterwards.
    Dequant {
        /// Apply f32 ReLU to the dequantized output.
        relu: bool,
    },
}

/// An int8 2-D convolution compiled from a trained [`Conv2d`] (optionally
/// with a folded [`BatchNorm2d`]), run by the int8 conv driver.
#[derive(Debug)]
pub struct QConv2d {
    weights: PackedQMat,
    bias: Vec<f32>,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    input: QuantParams,
    epilogue: QConvEpilogue,
}

/// Quantizes a rank-4 `(O, ·, ·, ·)` weight tensor per output channel and
/// packs it as the `(O, rest)` weight matrix.
fn pack_weight(w: &Tensor) -> Result<PackedQMat> {
    let qt = QTensor::quantize_per_channel(w)?;
    let o = w.shape()[0];
    Ok(PackedQMat::pack(
        qt.data(),
        o,
        w.len() / o.max(1),
        qt.scales(),
    ))
}

/// Quantizes a conv weight `(O, C, KH, KW)` per output channel and packs
/// it with the reduction axis reordered from the weight's natural
/// `(ci, ky, kx)` to the `(channel pair, ky, kx)` order [`QIm2col`]
/// serves, an odd `C` padded by a zero channel. A reduction pair is then
/// one contiguous run of the padded pair copy [`qconv`] reads; i32
/// accumulation is exact under any reduction permutation, so results are
/// bit-identical.
fn pack_conv_weight(w: &Tensor) -> Result<PackedQMat> {
    let qt = QTensor::quantize_per_channel(w)?;
    let d = w.shape();
    let (o, c, kh, kw) = (d[0], d[1], d[2], d[3]);
    let (k, kpad) = (c * kh * kw, c.next_multiple_of(2) * kh * kw);
    let mut perm = vec![0i8; o * kpad];
    for oi in 0..o {
        let src = &qt.data()[oi * k..(oi + 1) * k];
        let row = &mut perm[oi * kpad..(oi + 1) * kpad];
        for ci in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    row[((ci / 2 * kh + ky) * kw + kx) * 2 + ci % 2] =
                        src[(ci * kh + ky) * kw + kx];
                }
            }
        }
    }
    Ok(PackedQMat::pack(&perm, o, kpad, qt.scales()))
}

impl QConv2d {
    /// Compiles `conv` for inputs on the `input` grid.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when the weights are non-finite.
    pub fn from_conv(conv: &Conv2d, input: QuantParams, epilogue: QConvEpilogue) -> Result<Self> {
        let o = conv.weight().shape()[0];
        let bias = match conv.bias() {
            Some(b) => b.as_slice().to_vec(),
            None => vec![0.0; o],
        };
        Self::from_parts(
            conv.weight(),
            bias,
            conv.stride(),
            conv.pad(),
            input,
            epilogue,
        )
    }

    /// Compiles `conv` with `bn` folded into its weights and bias.
    ///
    /// # Errors
    ///
    /// As [`QConv2d::from_conv`] and [`fold_batchnorm`].
    pub fn from_conv_bn(
        conv: &Conv2d,
        bn: &BatchNorm2d,
        input: QuantParams,
        epilogue: QConvEpilogue,
    ) -> Result<Self> {
        let (w, b) = fold_batchnorm(conv, bn)?;
        Self::from_parts(&w, b, conv.stride(), conv.pad(), input, epilogue)
    }

    fn from_parts(
        weight: &Tensor,
        bias: Vec<f32>,
        stride: usize,
        pad: usize,
        input: QuantParams,
        epilogue: QConvEpilogue,
    ) -> Result<Self> {
        Ok(QConv2d {
            weights: pack_conv_weight(weight)?,
            bias,
            in_ch: weight.shape()[1],
            kernel: weight.shape()[2],
            stride,
            pad,
            input,
            epilogue,
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weights.rows()
    }

    /// The configured epilogue.
    pub fn epilogue(&self) -> QConvEpilogue {
        self.epilogue
    }

    /// Output spatial dims for an `h x w` input.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid geometry.
    pub fn out_dims(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        Ok(Conv2dGeometry {
            in_h: h,
            in_w: w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
        .out_dims()?)
    }

    /// Checks the buffer sizes, then runs [`qconv`] on the i8 NCHW batch
    /// `x` with `epilogue` writing each output-channel plane of `out`.
    fn run<T: Send>(
        &self,
        x: &[i8],
        n_imgs: usize,
        h: usize,
        w: usize,
        out: &mut [T],
        epilogue: impl Fn(usize, &[i32], &mut [T]) + Sync,
    ) -> Result<()> {
        if x.len() != n_imgs * self.in_ch * h * w {
            return Err(NnError::BatchMismatch {
                what: "qconv2d input codes",
                expected: n_imgs * self.in_ch * h * w,
                actual: x.len(),
            });
        }
        let (oh, ow) = self.out_dims(h, w)?;
        if out.len() != n_imgs * self.out_channels() * oh * ow {
            return Err(NnError::BatchMismatch {
                what: "qconv2d output",
                expected: n_imgs * self.out_channels() * oh * ow,
                actual: out.len(),
            });
        }
        let view = QIm2col {
            data: x,
            c: self.in_ch,
            h,
            w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
            oh,
            ow,
            zp: self.input.zero_point,
        };
        qconv(&self.weights, &view, n_imgs, out, epilogue);
        Ok(())
    }

    /// Convolves the i8 NCHW batch `x` and requantizes into `out` (i8
    /// NCHW). Requires a [`QConvEpilogue::Requant`] epilogue.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a dequantizing epilogue and
    /// [`NnError::BatchMismatch`] for wrong buffer sizes.
    pub fn run_q(&self, x: &[i8], n_imgs: usize, h: usize, w: usize, out: &mut [i8]) -> Result<()> {
        let QConvEpilogue::Requant { out: oq, relu } = self.epilogue else {
            return Err(NnError::InvalidConfig(
                "qconv2d: run_q requires a requantizing epilogue".into(),
            ));
        };
        let scales = self.weights.scales();
        self.run(x, n_imgs, h, w, out, |o, acc, dst| {
            let m = self.input.scale * scales[o] / oq.scale;
            let b = self.bias[o] / oq.scale;
            backend::requant_i32(acc, m, b, oq.zero_point, relu, dst);
        })
    }

    /// Convolves the i8 NCHW batch `x` and dequantizes into `out` (f32
    /// NCHW). Requires a [`QConvEpilogue::Dequant`] epilogue.
    ///
    /// # Errors
    ///
    /// As [`QConv2d::run_q`], with the epilogue roles swapped.
    pub fn run_f(
        &self,
        x: &[i8],
        n_imgs: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
    ) -> Result<()> {
        let QConvEpilogue::Dequant { relu } = self.epilogue else {
            return Err(NnError::InvalidConfig(
                "qconv2d: run_f requires a dequantizing epilogue".into(),
            ));
        };
        let scales = self.weights.scales();
        self.run(x, n_imgs, h, w, out, |o, acc, dst| {
            backend::dequant_i32(acc, self.input.scale * scales[o], self.bias[o], dst);
            if relu {
                backend::relu_inplace(dst);
            }
        })
    }
}

/// An int8 `K x` upsampling transposed convolution (`stride == kernel`,
/// no padding — the LeCA decoder's upsample stage), always dequantizing
/// to f32.
///
/// Runs as a 1×1, stride-1, unpadded [`qconv`] whose weight is the
/// `(out_ch·k·k, in_ch)` reshaped kernel, dequantizing into one f32
/// `(n, out_ch·k·k, h, w)` plane per tap; with `stride == kernel` every
/// output pixel is written by exactly one `(ky, kx)` tap, so scattering
/// those planes is a disjoint copy.
#[derive(Debug)]
pub struct QConvTranspose2d {
    weights: PackedQMat,
    bias: Vec<f32>,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    input: QuantParams,
    /// Dequantized tap planes, grown once and reused (warm runs never
    /// allocate).
    planes: Vec<f32>,
}

impl QConvTranspose2d {
    /// Compiles `ct` for inputs on the `input` grid.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] unless `stride == kernel` and
    /// `pad == 0`, and a tensor error for non-finite weights.
    pub fn from_conv_transpose(ct: &ConvTranspose2d, input: QuantParams) -> Result<Self> {
        if ct.stride() != ct.kernel() || ct.pad() != 0 {
            return Err(NnError::InvalidConfig(format!(
                "qconv_transpose2d supports stride == kernel, pad == 0; got stride {}, kernel {}, pad {}",
                ct.stride(),
                ct.kernel(),
                ct.pad()
            )));
        }
        let d = ct.weight().shape();
        let (ci, co, k) = (d[0], d[1], d[2]);
        // Reshape (in, out, k, k) into the (out*k*k, in) weight matrix so
        // each row gets its own symmetric scale.
        let mut a = Tensor::zeros(&[co * k * k, ci]);
        for cin in 0..ci {
            for cout in 0..co {
                for ky in 0..k {
                    for kx in 0..k {
                        let v = ct.weight().as_slice()[((cin * co + cout) * k + ky) * k + kx];
                        a.as_mut_slice()[((cout * k + ky) * k + kx) * ci + cin] = v;
                    }
                }
            }
        }
        let bias = match ct.bias() {
            Some(b) => b.as_slice().to_vec(),
            None => vec![0.0; co],
        };
        Ok(QConvTranspose2d {
            weights: pack_weight(&a)?,
            bias,
            in_ch: ci,
            out_ch: co,
            kernel: k,
            input,
            planes: Vec::new(),
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// The upsampling factor (`kernel == stride`).
    pub fn factor(&self) -> usize {
        self.kernel
    }

    /// Upsamples the i8 NCHW batch `x` (`n_imgs x in_ch x h x w`) into
    /// the f32 NCHW buffer `out` (`n_imgs x out_ch x h*k x w*k`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BatchMismatch`] for wrong buffer sizes.
    pub fn run(
        &mut self,
        x: &[i8],
        n_imgs: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
    ) -> Result<()> {
        if x.len() != n_imgs * self.in_ch * h * w {
            return Err(NnError::BatchMismatch {
                what: "qconv_transpose2d input codes",
                expected: n_imgs * self.in_ch * h * w,
                actual: x.len(),
            });
        }
        let k = self.kernel;
        let (oh, ow) = (h * k, w * k);
        if out.len() != n_imgs * self.out_ch * oh * ow {
            return Err(NnError::BatchMismatch {
                what: "qconv_transpose2d output",
                expected: n_imgs * self.out_ch * oh * ow,
                actual: out.len(),
            });
        }
        if out.is_empty() {
            return Ok(());
        }
        let view = QIm2col {
            data: x,
            c: self.in_ch,
            h,
            w,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            oh: h,
            ow: w,
            zp: self.input.zero_point,
        };
        let taps = self.out_ch * k * k;
        let hw = h * w;
        self.planes.resize(n_imgs * taps * hw, 0.0);
        let scales = self.weights.scales();
        qconv(
            &self.weights,
            &view,
            n_imgs,
            &mut self.planes,
            |r, acc, dst| {
                let m = self.input.scale * scales[r];
                backend::dequant_i32(acc, m, self.bias[r / (k * k)], dst);
            },
        );
        for (p, plane) in self.planes.chunks_exact(hw).enumerate() {
            let (img, r) = (p / taps, p % taps);
            let (oc, ky, kx) = (r / (k * k), (r / k) % k, r % k);
            for (iy, src) in plane.chunks_exact(w).enumerate() {
                let base = ((img * self.out_ch + oc) * oh + iy * k + ky) * ow + kx;
                for (ix, &v) in src.iter().enumerate() {
                    out[base + ix * k] = v;
                }
            }
        }
        Ok(())
    }
}

/// Quantizes the f32 batch `src` onto `params`'s grid (used between f32
/// stages and the int8 tier; vectorized on the AVX2 path).
pub fn quantize_batch(src: &[f32], params: QuantParams, out: &mut [i8]) {
    backend::quantize_q8(src, 1.0 / params.scale, params.zero_point, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Integer-valued tensor with |v| <= 127 so symmetric per-channel
    /// quantization (scale 1 when maxabs == 127) is exact.
    fn int_tensor(shape: &[usize], seed: u64, lim: i32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        let mut state = seed | 1;
        for v in t.as_mut_slice() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = ((state >> 33) % (2 * lim as u64 + 1)) as i32 - lim;
            *v = r as f32;
        }
        t
    }

    /// Forces one weight to ±127 per channel so each channel's scale is
    /// exactly 1.0 and quantization is the identity on integer weights.
    fn pin_scales(w: &mut Tensor) {
        let o = w.shape()[0];
        let per = w.len() / o;
        for oi in 0..o {
            w.as_mut_slice()[oi * per] = 127.0;
        }
    }

    const UNIT: QuantParams = QuantParams::UNIT;

    fn codes_of(t: &Tensor) -> Vec<i8> {
        t.as_slice().iter().map(|&v| v as i8).collect()
    }

    #[test]
    fn qconv_dequant_matches_f32_conv_exactly_on_integer_grids() {
        let mut w = int_tensor(&[3, 2, 3, 3], 7, 5);
        pin_scales(&mut w);
        let bias = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        let mut conv = Conv2d::from_weights(w, Some(bias), 1, 1);
        let x = int_tensor(&[2, 2, 6, 6], 11, 7);
        let expected = conv.forward(&x, Mode::Eval).unwrap();

        let qc = QConv2d::from_conv(&conv, UNIT, QConvEpilogue::Dequant { relu: false }).unwrap();
        let mut out = vec![0.0f32; expected.len()];
        qc.run_f(&codes_of(&x), 2, 6, 6, &mut out).unwrap();
        assert_eq!(out, expected.as_slice(), "integer conv must be exact");
    }

    #[test]
    fn qconv_requant_matches_manual_requantization() {
        let mut w = int_tensor(&[4, 3, 3, 3], 3, 4);
        pin_scales(&mut w);
        let mut conv = Conv2d::from_weights(w, None, 2, 1);
        let x = int_tensor(&[1, 3, 8, 8], 5, 6);
        let f32_out = conv.forward(&x, Mode::Eval).unwrap();

        let oq = QuantParams {
            scale: 2.0,
            zero_point: -3,
        };
        let qc = QConv2d::from_conv(
            &conv,
            UNIT,
            QConvEpilogue::Requant {
                out: oq,
                relu: true,
            },
        )
        .unwrap();
        let mut out = vec![0i8; f32_out.len()];
        qc.run_q(&codes_of(&x), 1, 8, 8, &mut out).unwrap();
        for (got, &f) in out.iter().zip(f32_out.as_slice()) {
            let want = oq.quantize(f.max(0.0));
            // ReLU is fused as max(q, zp); on exact grids they agree.
            assert_eq!(*got, want.max(oq.zero_point as i8), "f32 value {f}");
        }
    }

    #[test]
    fn epilogue_mismatch_is_a_typed_error() {
        let mut w = int_tensor(&[1, 1, 1, 1], 1, 3);
        pin_scales(&mut w);
        let conv = Conv2d::from_weights(w, None, 1, 0);
        let q = QConv2d::from_conv(&conv, UNIT, QConvEpilogue::Dequant { relu: false }).unwrap();
        let mut out = vec![0i8; 4];
        assert!(matches!(
            q.run_q(&[0i8; 4], 1, 2, 2, &mut out),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn qconv_transpose_matches_f32_upsample_exactly() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ct = ConvTranspose2d::new(3, 2, 2, 2, 0, true, &mut rng);
        // Overwrite with exact integer weights through the param visitor.
        let wshape = ct.weight().shape().to_vec();
        let mut wi = int_tensor(&wshape, 13, 6);
        // Per-row scale pinning happens on the reshaped (out*k*k, in)
        // matrix: pin column 0 of every (oc, ky, kx) row, i.e. in-channel
        // 0 of every tap.
        {
            let d = wi.shape().to_vec();
            for cout in 0..d[1] {
                for ky in 0..d[2] {
                    for kx in 0..d[3] {
                        wi.as_mut_slice()[(cout * d[2] + ky) * d[3] + kx] = 127.0;
                    }
                }
            }
        }
        ct.visit_params(&mut |p| {
            if p.value.rank() == 4 {
                p.value = wi.clone();
            } else {
                p.value = Tensor::from_slice(&[0.25, -1.5]);
            }
        });
        let x = int_tensor(&[2, 3, 4, 5], 17, 5);
        let expected = ct.forward(&x, Mode::Eval).unwrap();

        let mut qct = QConvTranspose2d::from_conv_transpose(&ct, UNIT).unwrap();
        let mut out = vec![0.0f32; expected.len()];
        qct.run(&codes_of(&x), 2, 4, 5, &mut out).unwrap();
        assert_eq!(out, expected.as_slice(), "integer upsample must be exact");
    }

    #[test]
    fn qconv_transpose_rejects_general_geometry() {
        let mut rng = StdRng::seed_from_u64(1);
        let ct = ConvTranspose2d::new(2, 2, 3, 2, 0, false, &mut rng);
        assert!(matches!(
            QConvTranspose2d::from_conv_transpose(&ct, UNIT),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn folded_batchnorm_matches_conv_then_bn() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        // Drive the running stats away from the (0, 1) init.
        let warm = Tensor::rand_uniform(&[4, 3, 5, 5], -2.0, 3.0, &mut rng);
        bn.forward(&warm, Mode::Train).unwrap();
        let x = Tensor::rand_uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut rng);
        let expected = bn
            .forward(&conv.forward(&x, Mode::Eval).unwrap(), Mode::Eval)
            .unwrap();

        let (w, b) = fold_batchnorm(&conv, &bn).unwrap();
        let mut folded = Conv2d::from_weights(w, Some(Tensor::from_slice(&b)), 1, 1);
        let got = folded.forward(&x, Mode::Eval).unwrap();
        for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((g - e).abs() < 1e-4, "folded {g} vs {e}");
        }
    }

    #[test]
    fn quantize_batch_uses_grid() {
        let p = QuantParams {
            scale: 0.5,
            zero_point: 1,
        };
        let mut out = vec![0i8; 3];
        quantize_batch(&[0.0, 1.0, -2.0], p, &mut out);
        assert_eq!(out, vec![1, 3, -3]);
    }
}
