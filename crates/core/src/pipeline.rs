//! The full LeCA machine-vision pipeline: encoder → decoder → frozen
//! backbone, trained end to end with cross-entropy (Fig. 3(a)).

use crate::config::LecaConfig;
use crate::decoder::LecaDecoder;
use crate::encoder::{LecaEncoder, Modality};
use crate::Result as LecaResult;
use leca_nn::backbone::Backbone;
use leca_nn::{Layer, Mode, Param};
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Encoder + decoder + frozen downstream model.
pub struct LecaPipeline {
    encoder: LecaEncoder,
    decoder: LecaDecoder,
    backbone: Backbone,
    config: LecaConfig,
}

impl std::fmt::Debug for LecaPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LecaPipeline({:?} -> {:?} -> {:?})",
            self.encoder, self.decoder, self.backbone
        )
    }
}

impl LecaPipeline {
    /// Assembles the pipeline. The backbone is frozen here: its parameters
    /// keep propagating gradients but are never updated (Sec. 3.4,
    /// "Freezing the backbone weights is a deliberate choice").
    ///
    /// # Errors
    ///
    /// Propagates encoder/decoder construction errors.
    pub fn new(
        cfg: &LecaConfig,
        modality: Modality,
        mut backbone: Backbone,
        seed: u64,
    ) -> LecaResult<Self> {
        let encoder = LecaEncoder::new(cfg, modality, seed)?;
        let decoder = LecaDecoder::new(cfg, seed.wrapping_add(101))?;
        backbone.set_frozen(true);
        Ok(LecaPipeline {
            encoder,
            decoder,
            backbone,
            config: cfg.clone(),
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &LecaConfig {
        &self.config
    }

    /// The encoder.
    pub fn encoder(&self) -> &LecaEncoder {
        &self.encoder
    }

    /// Mutable encoder access (modality switches, Q_bit annealing).
    pub fn encoder_mut(&mut self) -> &mut LecaEncoder {
        &mut self.encoder
    }

    /// The decoder.
    pub fn decoder(&self) -> &LecaDecoder {
        &self.decoder
    }

    /// Mutable decoder access.
    pub fn decoder_mut(&mut self) -> &mut LecaDecoder {
        &mut self.decoder
    }

    /// The frozen backbone.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// Mutable access to the frozen backbone.
    pub fn backbone_mut(&mut self) -> &mut Backbone {
        &mut self.backbone
    }

    /// Unfreezes the backbone (the Sec. 6.4 ablation).
    pub fn set_backbone_frozen(&mut self, frozen: bool) {
        self.backbone.set_frozen(frozen);
    }

    /// Encoded feature map for `x` (what would leave the sensor).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn encode(&mut self, x: &Tensor, mode: Mode) -> LecaResult<Tensor> {
        Ok(self.encoder.forward(x, mode)?)
    }

    /// Decoded (reconstructed) image for an encoded feature map.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn decode(&mut self, ofmap: &Tensor, mode: Mode) -> LecaResult<Tensor> {
        Ok(self.decoder.forward(ofmap, mode)?)
    }

    /// Full forward pass to logits.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> LecaResult<Tensor> {
        Ok(Layer::forward(self, x, mode)?)
    }
}

impl Layer for LecaPipeline {
    /// Back-propagates through backbone, decoder and encoder in turn.
    /// Parameter gradients accumulate in all three (the frozen backbone's
    /// are skipped by optimizers); the encoder reads the scene, so the
    /// returned input gradient is empty.
    fn backward(&mut self, grad_out: &Tensor) -> leca_nn::Result<Tensor> {
        let g = self.backbone.backward(grad_out)?;
        let g = self.decoder.backward(&g)?;
        self.encoder.backward(&g)
    }

    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &Workspace,
    ) -> leca_nn::Result<PooledTensor> {
        let ofmap = self.encoder.forward_ws(x, mode, ws)?;
        let decoded = self.decoder.forward_ws(&ofmap, mode, ws)?;
        drop(ofmap);
        self.backbone.forward_ws(&decoded, mode, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(f);
        self.decoder.visit_params(f);
        self.backbone.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.encoder.visit_buffers(f);
        self.decoder.visit_buffers(f);
        self.backbone.visit_buffers(f);
    }

    fn name(&self) -> &'static str {
        "leca_pipeline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leca_nn::backbone::tiny_cnn;
    use leca_nn::loss::SoftmaxCrossEntropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline(modality: Modality) -> LecaPipeline {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bb = tiny_cnn(4, &mut rng);
        LecaPipeline::new(&cfg, modality, bb, 7).unwrap()
    }

    fn batch(seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
        (x, vec![0, 1, 2, 3])
    }

    /// One training step's forward and backward; returns the batch loss.
    fn train_step(p: &mut LecaPipeline, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = p.forward(x, Mode::Train).unwrap();
        let (loss, grad) = SoftmaxCrossEntropy::new().forward(&logits, labels).unwrap();
        p.backward(&grad).unwrap();
        loss
    }

    #[test]
    fn forward_produces_logits() {
        let mut p = pipeline(Modality::Soft);
        let (x, _) = batch(1);
        let logits = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(logits.shape(), &[4, 4]);
    }

    #[test]
    fn train_step_accumulates_encoder_grads_only_on_unfrozen() {
        let mut p = pipeline(Modality::Soft);
        let (x, labels) = batch(2);
        let loss = train_step(&mut p, &x, &labels);
        assert!(loss > 0.0);
        // Encoder + decoder grads non-zero.
        let mut enc_dec = 0.0;
        p.encoder_mut()
            .visit_params(&mut |pp| enc_dec += pp.grad.norm_sq());
        assert!(enc_dec > 0.0, "encoder must receive gradients");
        // Backbone params are frozen.
        let mut any_unfrozen = false;
        p.backbone_mut()
            .visit_params(&mut |pp| any_unfrozen |= !pp.frozen);
        assert!(!any_unfrozen, "backbone must be frozen");
    }

    #[test]
    fn hard_pipeline_trains_too() {
        let mut p = pipeline(Modality::Hard);
        let (x, labels) = batch(3);
        let loss = train_step(&mut p, &x, &labels);
        assert!(loss.is_finite() && loss > 0.0);
        let mut enc = 0.0;
        p.encoder_mut()
            .visit_params(&mut |pp| enc += pp.grad.norm_sq());
        assert!(
            enc > 0.0,
            "hard encoder must receive gradients through Eq.(3)"
        );
    }

    #[test]
    fn encode_decode_shapes() {
        let mut p = pipeline(Modality::Soft);
        let (x, _) = batch(4);
        let ofmap = p.encode(&x, Mode::Eval).unwrap();
        assert_eq!(ofmap.shape(), &[4, 4, 8, 8]);
        let decoded = p.decode(&ofmap, Mode::Eval).unwrap();
        assert_eq!(decoded.shape(), x.shape());
    }

    #[test]
    fn unfreeze_ablation_flag() {
        let mut p = pipeline(Modality::Soft);
        p.set_backbone_frozen(false);
        let mut any_frozen = false;
        p.backbone_mut()
            .visit_params(&mut |pp| any_frozen |= pp.frozen);
        assert!(!any_frozen);
    }
}
