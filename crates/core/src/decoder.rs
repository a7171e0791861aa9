//! The LeCA decoder (Table 2): transposed-convolution upsampling followed
//! by a DnCNN-style convolutional denoiser.
//!
//! The decoder runs off-chip in the digital domain at full precision
//! (Sec. 3.4: "since the decoder comes after the ADC, we use full-precision
//! for its weights and activations"). It recovers the *task-relevant*
//! structure from the quantized ofmap — not a high-PSNR reconstruction.
//!
//! Following DnCNN's *residual learning* (the paper's cited denoiser), the
//! convolutional stack predicts a correction that is **added to the
//! upsampled base image**, and the sum is clamped to the `[0, 1]` pixel
//! range the frozen backbone was pre-trained on. Both choices matter under
//! the strict frozen-backbone protocol: the decoder's output distribution
//! must match the backbone's training distribution from the first step.

use crate::config::LecaConfig;
use crate::Result as LecaResult;
use leca_nn::layers::{BatchNorm2d, Conv2d, ConvTranspose2d, Relu, Sequential};
use leca_nn::{Layer, Mode, Param};
use leca_tensor::{PooledTensor, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gradient pass-band of the output clamp: slightly wider than `[0, 1]` so
/// early training is not stalled by saturated pixels (clipped STE).
const CLAMP_PASS_LO: f32 = -0.25;
const CLAMP_PASS_HI: f32 = 1.25;

/// The LeCA decoder network.
pub struct LecaDecoder {
    upsample: ConvTranspose2d,
    dncnn: Sequential,
    n_ch: usize,
    k: usize,
    /// Pre-clamp sum cached for the backward mask.
    cache: Option<Tensor>,
}

impl std::fmt::Debug for LecaDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LecaDecoder(N_ch={}, K={}, residual {:?})",
            self.n_ch, self.k, self.dncnn
        )
    }
}

impl LecaDecoder {
    /// Builds the decoder for `cfg`: ConvT(K, stride K) upsampling, an
    /// input conv, `decoder_layers` DnCNN blocks (3x3 conv + BN + ReLU) and
    /// a final 3x3 projection whose output is *added back* to the upsampled
    /// base (residual learning), then clamped to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(cfg: &LecaConfig, seed: u64) -> LecaResult<Self> {
        cfg.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let f = cfg.decoder_filters;
        // Upsample the ofmap back to image resolution.
        let upsample =
            ConvTranspose2d::new(cfg.n_ch, cfg.channels, cfg.k, cfg.k, 0, true, &mut rng);
        // DnCNN residual branch: widen to F channels, M blocks, project
        // back to an RGB correction.
        let mut dncnn = Sequential::new();
        dncnn.push(Conv2d::new(cfg.channels, f, 3, 1, 1, true, &mut rng));
        dncnn.push(Relu::new());
        for _ in 0..cfg.decoder_layers {
            dncnn.push(Conv2d::new(f, f, 3, 1, 1, false, &mut rng));
            dncnn.push(BatchNorm2d::new(f));
            dncnn.push(Relu::new());
        }
        dncnn.push(Conv2d::new(f, cfg.channels, 3, 1, 1, true, &mut rng));
        Ok(LecaDecoder {
            upsample,
            dncnn,
            n_ch: cfg.n_ch,
            k: cfg.k,
            cache: None,
        })
    }

    /// The expected number of input channels (`N_ch`).
    pub fn n_ch(&self) -> usize {
        self.n_ch
    }

    /// The transposed-convolution upsampling stage.
    pub fn upsample(&self) -> &ConvTranspose2d {
        &self.upsample
    }

    /// Mutable access to the upsampling stage (staged forwards, e.g. int8
    /// calibration).
    pub fn upsample_mut(&mut self) -> &mut ConvTranspose2d {
        &mut self.upsample
    }

    /// The DnCNN residual branch.
    pub fn dncnn(&self) -> &Sequential {
        &self.dncnn
    }

    /// Mutable access to the DnCNN residual branch.
    pub fn dncnn_mut(&mut self) -> &mut Sequential {
        &mut self.dncnn
    }
}

impl Layer for LecaDecoder {
    fn backward(&mut self, grad_out: &Tensor) -> leca_nn::Result<Tensor> {
        let pre = self
            .cache
            .take()
            .ok_or(leca_nn::NnError::NoForwardCache("leca_decoder"))?;
        // Clipped STE through the output clamp.
        let mut g_pre = grad_out.clone();
        for (g, &p) in g_pre.as_mut_slice().iter_mut().zip(pre.as_slice()) {
            if !(CLAMP_PASS_LO..=CLAMP_PASS_HI).contains(&p) {
                *g = 0.0;
            }
        }
        // The sum feeds both branches; the residual branch's input grad
        // adds to the skip path.
        let g_up_branch = self.dncnn.backward(&g_pre)?;
        let g_up = g_pre.add(&g_up_branch)?;
        self.upsample.backward(&g_up)
    }

    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &Workspace,
    ) -> leca_nn::Result<PooledTensor> {
        let up = self.upsample.forward_ws(x, mode, ws)?;
        let residual = self.dncnn.forward_ws(&up, mode, ws)?;
        let mut pre = ws.take(up.shape());
        up.add_into(&residual, &mut pre)?;
        drop(up);
        drop(residual);
        if mode.is_train() {
            self.cache = Some(Tensor::clone(&pre));
        }
        pre.map_inplace(|v| v.clamp(0.0, 1.0));
        Ok(pre)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.upsample.visit_params(f);
        self.dncnn.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.upsample.visit_buffers(f);
        self.dncnn.visit_buffers(f);
    }

    fn name(&self) -> &'static str {
        "leca_decoder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LecaConfig;

    fn cfg() -> LecaConfig {
        LecaConfig::new(2, 4, 3.0).unwrap()
    }

    #[test]
    fn upsamples_ofmap_to_image() {
        let mut dec = LecaDecoder::new(&cfg(), 0).unwrap();
        let ofmap = Tensor::zeros(&[2, 4, 8, 8]);
        let y = dec.forward(&ofmap, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 3, 16, 16]);
        assert_eq!(dec.n_ch(), 4);
    }

    #[test]
    fn k3_decoder_upsamples_3x() {
        let c = LecaConfig::new(3, 4, 3.0).unwrap();
        let mut dec = LecaDecoder::new(&c, 0).unwrap();
        let y = dec
            .forward(&Tensor::zeros(&[1, 4, 4, 4]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 3, 12, 12]);
    }

    #[test]
    fn gradients_flow_end_to_end() {
        let mut dec = LecaDecoder::new(&cfg(), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let ofmap = Tensor::rand_uniform(&[1, 4, 4, 4], -1.0, 1.0, &mut rng);
        dec.zero_grad();
        let y = dec.forward(&ofmap, Mode::Train).unwrap();
        let gx = dec.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(gx.shape(), ofmap.shape());
        let mut grads = 0.0;
        dec.visit_params(&mut |p| grads += p.grad.norm_sq());
        assert!(grads > 0.0);
    }

    #[test]
    fn depth_follows_config() {
        let mut c = cfg();
        c.decoder_layers = 5;
        let mut dec5 = LecaDecoder::new(&c, 0).unwrap();
        c.decoder_layers = 1;
        let mut dec1 = LecaDecoder::new(&c, 0).unwrap();
        assert!(dec5.num_params() > dec1.num_params());
    }

    #[test]
    fn parameter_budget_is_fraction_of_backbone() {
        // The paper stresses the decoder is lightweight relative to the
        // backbone.
        let mut dec = LecaDecoder::new(&cfg(), 0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut bb = leca_nn::backbone::resnet_proxy(10, &mut rng);
        assert!(dec.num_params() < bb.num_params() / 3);
    }

    #[test]
    fn output_is_clamped_to_pixel_range() {
        let mut dec = LecaDecoder::new(&cfg(), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let ofmap = Tensor::rand_uniform(&[2, 4, 4, 4], -1.0, 1.0, &mut rng);
        let y = dec.forward(&ofmap, Mode::Eval).unwrap();
        assert!(y.min() >= 0.0 && y.max() <= 1.0);
    }

    #[test]
    fn residual_branch_corrects_the_upsampled_base() {
        // Zeroing the residual branch's final projection makes the decoder
        // exactly clamp(upsample(x)): the DnCNN is a *correction*, not a
        // replacement — DnCNN-style residual learning.
        let mut dec = LecaDecoder::new(&cfg(), 6).unwrap();
        // Zero every dncnn parameter (conv weights, biases, BN beta; set
        // gamma to 0 too so the branch output is exactly zero).
        dec.dncnn.visit_params(&mut |p| p.value.fill(0.0));
        let mut rng = StdRng::seed_from_u64(7);
        let ofmap = Tensor::rand_uniform(&[1, 4, 4, 4], -1.0, 1.0, &mut rng);
        let y = dec.forward(&ofmap, Mode::Eval).unwrap();
        let up = dec.upsample.forward(&ofmap, Mode::Eval).unwrap();
        for (a, b) in y.as_slice().iter().zip(up.clamp(0.0, 1.0).as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut dec = LecaDecoder::new(&cfg(), 8).unwrap();
        assert!(dec.backward(&Tensor::zeros(&[1, 3, 8, 8])).is_err());
    }

    #[test]
    fn buffers_exposed_for_checkpointing() {
        let mut dec = LecaDecoder::new(&cfg(), 0).unwrap();
        let mut buffers = 0;
        dec.visit_buffers(&mut |_| buffers += 1);
        // One BN per DnCNN block, 2 buffers each.
        assert_eq!(buffers, 2 * cfg().decoder_layers);
    }
}
