//! Int8 quantized inference engine for a trained LeCA pipeline.
//!
//! [`QuantizedEngine`] compiles a trained (soft-modality) pipeline into a
//! chain of prepacked int8 kernels from `leca_nn::qlayers`, carrying the
//! encoder's ADC codes straight into the decoder's first layer without an
//! f32 round-trip:
//!
//! 1. The encoder convolution runs in f32 (exactly the f32 eval kernel),
//!    and the ADC quantizer output is re-expressed as its *integer code*:
//!    the soft path emits `round(clamp(u)·max_code) / max_code`, so the
//!    code fits an `i8` exactly and the grid `scale = 1/max_code`,
//!    `zero_point = 0` represents the f32 ofmap with **zero additional
//!    quantization error**.
//! 2. The decoder's upsampling transposed convolution consumes those codes
//!    through the int8 conv driver and dequantizes to f32 (adding its bias).
//! 3. The DnCNN residual branch runs as a chain of int8 convolutions with
//!    batch-norm folded into the weights; intermediate activations stay on
//!    calibrated i8 grids with fused ReLU, and only the final projection
//!    returns to f32 for the residual add + `[0, 1]` clamp.
//! 4. The decoded image is quantized onto the fixed `[0, 1]` grid and the
//!    backbone's convolution stages run in int8; the last stage
//!    dequantizes for the f32 global-average-pool and classifier head.
//!
//! [`QuantizedEngine::compile`] takes the activation grids from the
//! ranges one staged f32 eval forward of a representative batch
//! observes.
//!
//! Everything downstream of the f32 encoder conv is integer arithmetic
//! with round-to-nearest-even epilogues that are bit-identical across the
//! `LECA_BACKEND` kernel backends and `LECA_THREADS` counts (see
//! `leca_tensor::ops::qconv`), and the f32 stages use the same
//! scalar-order kernels on every path — int8 logits are bit-deterministic
//! across every runtime knob.
//!
//! The engine owns all its scratch buffers and grows them on first use;
//! warm same-shape batches perform no heap allocation, matching the f32
//! [`crate::InferenceSession`] contract.

use crate::encoder::Modality;
use crate::pipeline::LecaPipeline;
use crate::{LecaError, Result as LecaResult};
use leca_circuit::adc::AdcResolution;
use leca_nn::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu, Sequential};
use leca_nn::qlayers::{quantize_batch, QConv2d, QConvEpilogue, QConvTranspose2d};
use leca_nn::{Layer, Mode};
use leca_tensor::ops::{self, Conv2dGeometry};
use leca_tensor::{QTensor, QuantParams, Tensor};

/// One `Conv2d [+ BatchNorm2d] [+ Relu]` group inside a [`Sequential`],
/// recorded by layer index so parsing can outlive the borrow.
#[derive(Debug, Clone, Copy)]
struct ConvStage {
    conv: usize,
    bn: Option<usize>,
    relu: bool,
}

/// Downcasts a sequential slot to a concrete layer type via
/// [`Layer::as_any`].
fn cast<T: 'static>(layer: Option<&dyn Layer>) -> Option<&T> {
    layer?.as_any()?.downcast_ref::<T>()
}

/// Greedily parses `seq[..upto]` as a chain of conv stages.
fn parse_conv_chain(seq: &Sequential, upto: usize, what: &str) -> LecaResult<Vec<ConvStage>> {
    let mut stages = Vec::new();
    let mut i = 0;
    while i < upto {
        if cast::<Conv2d>(seq.get(i)).is_none() {
            return Err(LecaError::InvalidConfig(format!(
                "{what}: expected Conv2d at layer {i}, got `{}` (int8 lowering supports \
                 Conv2d [+ BatchNorm2d] [+ Relu] chains only)",
                seq.get(i).map_or("<none>", |l| l.name())
            )));
        }
        let conv = i;
        i += 1;
        let mut bn = None;
        if i < upto && cast::<BatchNorm2d>(seq.get(i)).is_some() {
            bn = Some(i);
            i += 1;
        }
        let mut relu = false;
        if i < upto && cast::<Relu>(seq.get(i)).is_some() {
            relu = true;
            i += 1;
        }
        stages.push(ConvStage { conv, bn, relu });
    }
    Ok(stages)
}

/// The parsed shape of a pipeline's quantizable stages.
struct QuantPlan {
    dncnn: Vec<ConvStage>,
    backbone: Vec<ConvStage>,
    /// Index of the backbone's final [`Linear`].
    linear: usize,
}

impl QuantPlan {
    fn of(pipeline: &LecaPipeline) -> LecaResult<QuantPlan> {
        let dn = pipeline.decoder().dncnn();
        let dncnn = parse_conv_chain(dn, dn.len(), "decoder dncnn")?;
        if dncnn.is_empty() {
            return Err(LecaError::InvalidConfig(
                "decoder dncnn has no convolution stages".into(),
            ));
        }
        let net = pipeline.backbone().net();
        let Some(gap) = (0..net.len()).find(|&i| cast::<GlobalAvgPool>(net.get(i)).is_some())
        else {
            return Err(LecaError::InvalidConfig(
                "backbone has no GlobalAvgPool head (int8 lowering supports \
                 conv-chain → GlobalAvgPool → Linear backbones)"
                    .into(),
            ));
        };
        if cast::<Linear>(net.get(gap + 1)).is_none() || gap + 2 != net.len() {
            return Err(LecaError::InvalidConfig(
                "backbone must end with GlobalAvgPool followed by a single Linear".into(),
            ));
        }
        let backbone = parse_conv_chain(net, gap, "backbone")?;
        if backbone.is_empty() {
            return Err(LecaError::InvalidConfig(
                "backbone has no convolution stages before GlobalAvgPool".into(),
            ));
        }
        Ok(QuantPlan {
            dncnn,
            backbone,
            linear: gap + 1,
        })
    }

    /// Number of calibration points the plan observes: the upsample output,
    /// every dncnn stage output except the final projection, and every
    /// backbone stage output except the last (which dequantizes to f32).
    fn points(&self) -> usize {
        1 + (self.dncnn.len() - 1) + (self.backbone.len() - 1)
    }
}

/// The ADC code grid of the soft encoder: codes are exact `i8` integers
/// and `value = code * scale`.
fn code_params(resolution: AdcResolution) -> QuantParams {
    let scale = match resolution {
        // Ternary codes {-1, 0, 1} carry values {-2/3, 0, 2/3}.
        AdcResolution::Ternary => 2.0 / 3.0,
        AdcResolution::Sar(_) => 1.0 / resolution.max_code() as f32,
    };
    QuantParams {
        scale,
        zero_point: 0,
    }
}

/// An int8 inference engine compiled from a trained pipeline. See the
/// module docs for the dataflow.
pub struct QuantizedEngine {
    channels: usize,
    k: usize,
    n_ch: usize,
    enc_weight: Tensor,
    inv_vfs: f32,
    resolution: AdcResolution,
    upsample: QConvTranspose2d,
    up_params: QuantParams,
    dncnn: Vec<QConv2d>,
    dec_params: QuantParams,
    backbone: Vec<QConv2d>,
    lin_w: Vec<f32>,
    lin_b: Vec<f32>,
    lin_in: usize,
    classes: usize,
    // Scratch buffers: grown on first use, reused on warm batches.
    enc_f: Tensor,
    codes: Vec<i8>,
    up_f: Vec<f32>,
    qa: Vec<i8>,
    qb: Vec<i8>,
    resid_f: Vec<f32>,
    bb_f: Vec<f32>,
    gap_f: Vec<f32>,
    logits_f: Vec<f32>,
}

impl std::fmt::Debug for QuantizedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QuantizedEngine(K={}, N_ch={}, dncnn {} + backbone {} int8 convs, {} classes)",
            self.k,
            self.n_ch,
            self.dncnn.len(),
            self.backbone.len(),
            self.classes
        )
    }
}

impl QuantizedEngine {
    /// Compiles `pipeline` into an int8 engine whose activation grids
    /// cover the ranges a staged f32 eval forward of `batch` observes.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::InvalidConfig`] when the pipeline structure is
    /// unsupported or the encoder is not in [`Modality::Soft`]; propagates
    /// layer errors (e.g. non-finite activations) and weight-quantization
    /// errors (non-finite weights).
    pub fn compile(pipeline: &mut LecaPipeline, batch: &Tensor) -> LecaResult<Self> {
        let plan = QuantPlan::of(pipeline)?;
        let grids = calibrate(pipeline, batch, &plan)?;
        Self::build(pipeline, &plan, &grids)
    }

    /// Compiles `pipeline` using one activation grid per calibration
    /// point of `plan`.
    fn build(pipeline: &LecaPipeline, plan: &QuantPlan, calib: &[QuantParams]) -> LecaResult<Self> {
        let enc = pipeline.encoder();
        if enc.modality() != Modality::Soft {
            return Err(LecaError::InvalidConfig(format!(
                "int8 engine requires the soft encoder modality, got {:?} \
                 (hardware modalities simulate the circuit and stay f32)",
                enc.modality()
            )));
        }
        let resolution = enc.resolution();
        let codes = code_params(resolution);

        let decoder = pipeline.decoder();
        let upsample = QConvTranspose2d::from_conv_transpose(decoder.upsample(), codes)?;
        let up_params = calib[0];

        // DnCNN chain: stage si reads the grid of point si (point 0 being
        // the quantized upsample output) and writes point si + 1; the
        // final projection dequantizes for the residual add.
        let dn = decoder.dncnn();
        let mut dncnn = Vec::with_capacity(plan.dncnn.len());
        for (si, stage) in plan.dncnn.iter().enumerate() {
            let input = calib[si];
            let epilogue = if si + 1 < plan.dncnn.len() {
                QConvEpilogue::Requant {
                    out: calib[si + 1],
                    relu: stage.relu,
                }
            } else {
                QConvEpilogue::Dequant { relu: stage.relu }
            };
            dncnn.push(compile_stage(dn, stage, input, epilogue)?);
        }

        // The decoded image is clamped to [0, 1]; its grid is fixed, not
        // calibrated.
        let dec_params = QuantParams::from_range(0.0, 1.0);
        let base = plan.dncnn.len(); // first backbone point index
        let net = pipeline.backbone().net();
        let mut backbone = Vec::with_capacity(plan.backbone.len());
        for (si, stage) in plan.backbone.iter().enumerate() {
            let input = if si == 0 {
                dec_params
            } else {
                calib[base + si - 1]
            };
            let epilogue = if si + 1 < plan.backbone.len() {
                QConvEpilogue::Requant {
                    out: calib[base + si],
                    relu: stage.relu,
                }
            } else {
                QConvEpilogue::Dequant { relu: stage.relu }
            };
            backbone.push(compile_stage(net, stage, input, epilogue)?);
        }

        let lin = cast::<Linear>(net.get(plan.linear)).ok_or_else(|| {
            LecaError::InvalidConfig("backbone classifier head is not Linear".into())
        })?;
        let last_out = backbone
            .last()
            .map_or(0, leca_nn::qlayers::QConv2d::out_channels);
        if lin.in_features() != last_out {
            return Err(LecaError::InvalidConfig(format!(
                "classifier expects {} features, last conv emits {}",
                lin.in_features(),
                last_out
            )));
        }

        let cfg = pipeline.config();
        Ok(QuantizedEngine {
            channels: cfg.channels,
            k: enc.k(),
            n_ch: enc.n_ch(),
            enc_weight: enc.weight().clone(),
            inv_vfs: 1.0 / enc.v_fs(),
            resolution,
            upsample,
            up_params,
            dncnn,
            dec_params,
            backbone,
            lin_w: lin.weight().as_slice().to_vec(),
            lin_b: lin.bias().as_slice().to_vec(),
            lin_in: lin.in_features(),
            classes: lin.out_features(),
            enc_f: Tensor::zeros(&[0]),
            codes: Vec::new(),
            up_f: Vec::new(),
            qa: Vec::new(),
            qb: Vec::new(),
            resid_f: Vec::new(),
            bb_f: Vec::new(),
            gap_f: Vec::new(),
            logits_f: Vec::new(),
        })
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Int8 logits for an f32 image batch `(N, C, H, W)`; the returned
    /// slice is `(N * classes)` row-major and lives in engine-owned
    /// scratch. Warm same-shape calls perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::InvalidConfig`] for wrong input shapes and
    /// propagates kernel errors.
    pub fn logits(&mut self, x: &Tensor) -> LecaResult<&[f32]> {
        if x.rank() != 4 || x.shape()[1] != self.channels {
            return Err(LecaError::InvalidConfig(format!(
                "int8 engine expects (N, {}, H, W) input, got {:?}",
                self.channels,
                x.shape()
            )));
        }
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (eh, ew) = Conv2dGeometry {
            in_h: h,
            in_w: w,
            kh: self.k,
            kw: self.k,
            stride: self.k,
            pad: 0,
        }
        .out_dims()
        .map_err(LecaError::Tensor)?;

        // 1. f32 encoder conv — the exact eval kernel of the f32 path.
        if self.enc_f.shape() != [n, self.n_ch, eh, ew] {
            self.enc_f = Tensor::zeros(&[n, self.n_ch, eh, ew]);
        }
        ops::conv2d_into(x, &self.enc_weight, None, self.k, 0, &mut self.enc_f)?;

        // 2. ADC codes, exactly as `quant_norm` produces them: the code is
        // the integer the f32 path divides by max_code, so no extra error.
        self.codes.resize(self.enc_f.len(), 0);
        match self.resolution {
            AdcResolution::Ternary => {
                for (q, &v) in self.codes.iter_mut().zip(self.enc_f.as_slice()) {
                    let u = v * self.inv_vfs;
                    *q = if u > 1.0 / 3.0 {
                        1
                    } else if u < -1.0 / 3.0 {
                        -1
                    } else {
                        0
                    };
                }
            }
            AdcResolution::Sar(_) => {
                let max = self.resolution.max_code() as f32;
                for (q, &v) in self.codes.iter_mut().zip(self.enc_f.as_slice()) {
                    let u = v * self.inv_vfs;
                    // f32::round ties away from zero, same as quant_norm.
                    *q = (u.clamp(-1.0, 1.0) * max).round() as i8;
                }
            }
        }

        // 3. int8 upsample, dequantizing to f32 (bias included).
        let (uh, uw) = (eh * self.k, ew * self.k);
        let up_len = n * self.channels * uh * uw;
        self.up_f.resize(up_len, 0.0);
        self.upsample.run(&self.codes, n, eh, ew, &mut self.up_f)?;

        // 4-5. DnCNN residual branch on calibrated i8 grids.
        self.qa.resize(up_len, 0);
        quantize_batch(&self.up_f, self.up_params, &mut self.qa);
        let last_dn = self.dncnn.len() - 1;
        for si in 0..last_dn {
            let conv = &mut self.dncnn[si];
            self.qb.resize(n * conv.out_channels() * uh * uw, 0);
            conv.run_q(&self.qa, n, uh, uw, &mut self.qb)?;
            std::mem::swap(&mut self.qa, &mut self.qb);
        }
        self.resid_f.resize(up_len, 0.0);
        self.dncnn[last_dn].run_f(&self.qa, n, uh, uw, &mut self.resid_f)?;

        // 6. Residual add + [0, 1] clamp (reusing the upsample buffer).
        for (u, &r) in self.up_f.iter_mut().zip(&self.resid_f) {
            *u = (*u + r).clamp(0.0, 1.0);
        }

        // 7-8. Backbone conv stages in int8; the last dequantizes.
        self.qa.resize(up_len, 0);
        quantize_batch(&self.up_f, self.dec_params, &mut self.qa);
        let (mut bh, mut bw) = (uh, uw);
        let last_bb = self.backbone.len() - 1;
        for si in 0..last_bb {
            let conv = &mut self.backbone[si];
            let (oh, ow) = conv.out_dims(bh, bw).map_err(LecaError::Nn)?;
            self.qb.resize(n * conv.out_channels() * oh * ow, 0);
            conv.run_q(&self.qa, n, bh, bw, &mut self.qb)?;
            std::mem::swap(&mut self.qa, &mut self.qb);
            (bh, bw) = (oh, ow);
        }
        let conv = &mut self.backbone[last_bb];
        let (oh, ow) = conv.out_dims(bh, bw).map_err(LecaError::Nn)?;
        let c_out = conv.out_channels();
        self.bb_f.resize(n * c_out * oh * ow, 0.0);
        conv.run_f(&self.qa, n, bh, bw, &mut self.bb_f)?;

        // 9. f32 global average pool.
        let hw = oh * ow;
        let inv = 1.0 / hw.max(1) as f32;
        self.gap_f.resize(n * c_out, 0.0);
        for (g, plane) in self.gap_f.iter_mut().zip(self.bb_f.chunks_exact(hw)) {
            *g = plane.iter().sum::<f32>() * inv;
        }

        // 10. f32 classifier head.
        self.logits_f.resize(n * self.classes, 0.0);
        for j in 0..n {
            let row = &self.gap_f[j * self.lin_in..(j + 1) * self.lin_in];
            for o in 0..self.classes {
                let wrow = &self.lin_w[o * self.lin_in..(o + 1) * self.lin_in];
                let mut acc = self.lin_b[o];
                for (&wi, &xi) in wrow.iter().zip(row) {
                    acc += wi * xi;
                }
                self.logits_f[j * self.classes + o] = acc;
            }
        }
        Ok(&self.logits_f)
    }
}

/// The activation grids of `plan`'s calibration points, in point order,
/// from one staged f32 eval forward of `batch`.
fn calibrate(
    pipeline: &mut LecaPipeline,
    batch: &Tensor,
    plan: &QuantPlan,
) -> LecaResult<Vec<QuantParams>> {
    let mut grids = Vec::with_capacity(plan.points());
    let ofmap = pipeline.encoder_mut().forward(batch, Mode::Eval)?;
    let decoder = pipeline.decoder_mut();
    let up = decoder.upsample_mut().forward(&ofmap, Mode::Eval)?;
    grids.push(grid_of(&up)?);
    let dn = decoder.dncnn_mut();
    let mut cur = up.clone();
    for (si, stage) in plan.dncnn.iter().enumerate() {
        cur = run_stage(dn, stage, &cur)?;
        if si + 1 < plan.dncnn.len() {
            grids.push(grid_of(&cur)?);
        }
    }
    let decoded = up.add(&cur)?.clamp(0.0, 1.0);
    let net = pipeline.backbone_mut().net_mut();
    let mut cur = decoded;
    for (si, stage) in plan.backbone.iter().enumerate() {
        cur = run_stage(net, stage, &cur)?;
        if si + 1 < plan.backbone.len() {
            grids.push(grid_of(&cur)?);
        }
    }
    Ok(grids)
}

/// The affine grid covering every value of `t`.
///
/// # Errors
///
/// Returns a tensor error when `t` holds a non-finite value.
fn grid_of(t: &Tensor) -> LecaResult<QuantParams> {
    let (lo, hi) = QTensor::observe_range(t)?;
    Ok(QuantParams::from_range(lo, hi))
}

/// Runs one parsed conv stage of `seq` in f32 eval mode (calibration).
fn run_stage(seq: &mut Sequential, stage: &ConvStage, x: &Tensor) -> LecaResult<Tensor> {
    let mut cur = seq
        .get_mut(stage.conv)
        .expect("parsed stage index")
        .forward(x, Mode::Eval)?;
    if let Some(bn) = stage.bn {
        cur = seq
            .get_mut(bn)
            .expect("parsed stage index")
            .forward(&cur, Mode::Eval)?;
    }
    if stage.relu {
        cur.map_inplace(|v| v.max(0.0));
    }
    Ok(cur)
}

/// Compiles one parsed conv stage into a [`QConv2d`] (folding the stage's
/// batch norm, if any, into the weights).
fn compile_stage(
    seq: &Sequential,
    stage: &ConvStage,
    input: QuantParams,
    epilogue: QConvEpilogue,
) -> LecaResult<QConv2d> {
    let conv = cast::<Conv2d>(seq.get(stage.conv))
        .ok_or_else(|| LecaError::InvalidConfig("parsed stage is not Conv2d".into()))?;
    let q = match stage.bn {
        Some(bi) => {
            let bn = cast::<BatchNorm2d>(seq.get(bi)).ok_or_else(|| {
                LecaError::InvalidConfig("parsed stage is not BatchNorm2d".into())
            })?;
            QConv2d::from_conv_bn(conv, bn, input, epilogue)?
        }
        None => QConv2d::from_conv(conv, input, epilogue)?,
    };
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LecaConfig;
    use leca_nn::backbone::tiny_cnn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline() -> LecaPipeline {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bb = tiny_cnn(4, &mut rng);
        LecaPipeline::new(&cfg, Modality::Soft, bb, 7).unwrap()
    }

    fn batch(n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(&[n, 3, 16, 16], 0.1, 0.9, &mut rng)
    }

    #[test]
    fn calibration_point_count_matches_structure() {
        let p = pipeline();
        // tiny_cnn: 2 conv stages; dncnn: 1 + decoder_layers + 1 stages.
        let m = p.config().decoder_layers;
        let expect = 1 + (m + 2 - 1) + (2 - 1);
        assert_eq!(QuantPlan::of(&p).unwrap().points(), expect);
    }

    #[test]
    fn compile_and_run_produce_finite_logits() {
        let mut p = pipeline();
        let x = batch(4, 1);
        let mut engine = QuantizedEngine::compile(&mut p, &x).unwrap();
        assert_eq!(engine.classes(), 4);
        let logits = engine.logits(&x).unwrap();
        assert_eq!(logits.len(), 4 * 4);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn int8_and_f32_agree_on_most_predictions() {
        let mut p = pipeline();
        let calib = batch(8, 2);
        let mut engine = QuantizedEngine::compile(&mut p, &calib).unwrap();
        let x = batch(16, 3);
        let f32_preds = p.forward(&x, Mode::Eval).unwrap().argmax_rows().unwrap();
        let logits = engine.logits(&x).unwrap().to_vec();
        let int8_preds: Vec<usize> = logits
            .chunks_exact(4)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            })
            .collect();
        let agree = f32_preds
            .iter()
            .zip(&int8_preds)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree * 10 >= f32_preds.len() * 8,
            "int8 agrees on only {agree}/{} predictions",
            f32_preds.len()
        );
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let mut p = pipeline();
        let calib = batch(4, 4);
        let mut engine = QuantizedEngine::compile(&mut p, &calib).unwrap();
        let x = batch(3, 5);
        let first = engine.logits(&x).unwrap().to_vec();
        for _ in 0..3 {
            assert_eq!(engine.logits(&x).unwrap(), &first[..]);
        }
    }

    #[test]
    fn adc_codes_are_exact_for_the_soft_encoder() {
        // The ofmap the f32 path computes is code * scale by construction;
        // verify by dequantizing the engine's codes against the pipeline's
        // encode() output.
        let mut p = pipeline();
        let calib = batch(2, 6);
        let mut engine = QuantizedEngine::compile(&mut p, &calib).unwrap();
        let x = batch(2, 7);
        engine.logits(&x).unwrap();
        let ofmap = p.encode(&x, Mode::Eval).unwrap();
        let max = p.encoder().resolution().max_code() as f32;
        assert_eq!(engine.codes.len(), ofmap.len());
        for (&code, &v) in engine.codes.iter().zip(ofmap.as_slice()) {
            assert_eq!(code as f32 / max, v, "code {code} vs ofmap {v}");
        }
    }

    #[test]
    fn compile_rejects_hardware_modalities() {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = LecaPipeline::new(&cfg, Modality::Hard, tiny_cnn(4, &mut rng), 9).unwrap();
        let err = QuantizedEngine::compile(&mut p, &batch(2, 8)).unwrap_err();
        assert!(matches!(err, LecaError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn unsupported_backbone_is_a_typed_error() {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // resnet_proxy contains ResidualBlock, which the lowering rejects.
        let bb = leca_nn::backbone::resnet_proxy(4, &mut rng);
        let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 11).unwrap();
        let err = QuantizedEngine::compile(&mut p, &batch(2, 9)).unwrap_err();
        assert!(matches!(err, LecaError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn calibration_rejects_non_finite_activations() {
        assert!(grid_of(&Tensor::from_slice(&[0.5, f32::NAN])).is_err());
        assert!(grid_of(&Tensor::from_slice(&[f32::INFINITY])).is_err());
    }
}
