//! Zero-steady-state-allocation inference driver.
//!
//! [`InferenceSession`] owns one [`Workspace`] for a pipeline (or bare
//! backbone) and drives every eval-mode forward through the layers'
//! `forward_ws` with that one pool. After [`InferenceSession::warm_up`] (or the
//! first batch of a fixed shape), every activation a `classify_batch` call
//! needs is served from the pool and returned to it when the call ends —
//! steady-state inference performs **no heap allocations** and produces
//! outputs bit-identical to `forward` on a fresh pool.
//!
//! The session is the single entry point used by the evaluation protocol
//! ([`crate::eval`]), the hardware-in-the-loop check ([`crate::deploy`])
//! and the examples, so the whole inference side of the repo shares one
//! memory plan.

use crate::pipeline::LecaPipeline;
use crate::quantized::QuantizedEngine;
use crate::{LecaError, Result as LecaResult};
use leca_nn::backbone::Backbone;
use leca_nn::{Layer, Mode};
use leca_tensor::{PooledTensor, Tensor, Workspace, WorkspaceStats};

/// Numeric precision of a classify call: the f32 workspace path or the
/// int8 quantized engine (see [`crate::QuantizedEngine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision f32 inference through the pooled workspace.
    #[default]
    F32,
    /// Int8 quantized inference; requires
    /// [`InferenceSession::enable_int8`] first.
    Int8,
}

/// The model a session drives: a full LeCA pipeline or a bare backbone
/// (the baseline-codec evaluation path), either borrowed from the caller
/// or owned outright (the serving tier pins one owned session per
/// worker).
enum ModelRef<'a> {
    Pipeline(&'a mut LecaPipeline),
    Backbone(&'a mut Backbone),
    Owned(Box<LecaPipeline>),
}

/// A reusable inference context: one model, one workspace.
///
/// All forwards run in [`Mode::Eval`]; training goes through
/// [`leca_nn::Layer::forward`], whose backward caches outlive the call.
pub struct InferenceSession<'a> {
    model: ModelRef<'a>,
    ws: Workspace,
    engine: Option<QuantizedEngine>,
}

impl<'a> InferenceSession<'a> {
    /// Wraps a full pipeline (encoder → decoder → frozen backbone).
    pub fn for_pipeline(pipeline: &'a mut LecaPipeline) -> Self {
        InferenceSession {
            model: ModelRef::Pipeline(pipeline),
            ws: Workspace::new(),
            engine: None,
        }
    }

    /// Wraps a bare backbone (scores already-reconstructed images).
    pub fn for_backbone(backbone: &'a mut Backbone) -> Self {
        InferenceSession {
            model: ModelRef::Backbone(backbone),
            ws: Workspace::new(),
            engine: None,
        }
    }

    /// Takes ownership of a pipeline, yielding a `'static` session.
    ///
    /// This is the serving-tier constructor: a worker thread owns its
    /// session outright (after a panic the supervisor builds a fresh
    /// session rather than repairing this one).
    pub fn owning(pipeline: LecaPipeline) -> InferenceSession<'static> {
        InferenceSession {
            model: ModelRef::Owned(Box::new(pipeline)),
            ws: Workspace::new(),
            engine: None,
        }
    }

    /// Compiles the int8 engine for this session's pipeline: calibrates
    /// activation ranges on `calib_batch` (f32 eval forward) and prepacks
    /// the quantized kernels. Int8 batches then run through
    /// [`InferenceSession::classify_batch_with`] with [`Precision::Int8`]
    /// or [`InferenceSession::logits_int8`]; `classify_batch` stays f32.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::InvalidConfig`] on a backbone-only session or
    /// an unsupported pipeline structure; propagates calibration errors.
    pub fn enable_int8(&mut self, calib_batch: &Tensor) -> LecaResult<()> {
        validate_batch(calib_batch)?;
        let p: &mut LecaPipeline = match &mut self.model {
            ModelRef::Pipeline(p) => p,
            ModelRef::Owned(p) => p,
            ModelRef::Backbone(_) => {
                return Err(LecaError::InvalidConfig(
                    "int8 needs a pipeline session (no encoder/decoder on a bare backbone)".into(),
                ));
            }
        };
        self.engine = Some(QuantizedEngine::compile(p, calib_batch)?);
        Ok(())
    }

    /// True once [`InferenceSession::enable_int8`] has compiled an engine.
    pub fn int8_ready(&self) -> bool {
        self.engine.is_some()
    }

    /// Eval-mode logits for a batch, computed through the workspace.
    ///
    /// The returned [`PooledTensor`] rejoins the pool when dropped.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn logits(&mut self, x: &Tensor) -> LecaResult<PooledTensor> {
        let out = match &mut self.model {
            ModelRef::Pipeline(p) => p.forward_ws(x, Mode::Eval, &self.ws)?,
            ModelRef::Backbone(b) => b.forward_ws(x, Mode::Eval, &self.ws)?,
            ModelRef::Owned(p) => p.forward_ws(x, Mode::Eval, &self.ws)?,
        };
        Ok(out)
    }

    /// Classifies a batch in f32, writing one predicted class index per
    /// sample into `preds` (cleared first). Reusing the same `preds`
    /// vector across calls keeps the steady state allocation-free.
    ///
    /// The batch is validated first: garbage in no longer means garbage
    /// (or a panic) out, which is what lets the serving tier accept
    /// arbitrary sensor traffic. The validation pass is a single linear
    /// scan and performs no allocation on the accept path.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::EmptyBatch`] for zero-sample input,
    /// [`LecaError::ZeroDim`] when any dimension is zero, and
    /// [`LecaError::NonFinite`] when the batch contains NaN/inf;
    /// otherwise propagates layer errors.
    pub fn classify_batch(&mut self, x: &Tensor, preds: &mut Vec<usize>) -> LecaResult<()> {
        self.classify_batch_with(x, preds, Precision::F32)
    }

    /// Classifies a batch at an explicit precision. The serving tier uses
    /// this to route mixed-tenant batches through one session.
    ///
    /// # Errors
    ///
    /// As [`InferenceSession::classify_batch`], plus
    /// [`LecaError::Int8Unavailable`] when [`Precision::Int8`] is
    /// requested with no compiled engine.
    pub fn classify_batch_with(
        &mut self,
        x: &Tensor,
        preds: &mut Vec<usize>,
        precision: Precision,
    ) -> LecaResult<()> {
        validate_batch(x)?;
        match precision {
            Precision::F32 => {
                let logits = self.logits(x)?;
                predict_into(&logits, preds)
            }
            Precision::Int8 => {
                let engine = self.engine.as_mut().ok_or(LecaError::Int8Unavailable)?;
                let classes = engine.classes();
                let logits = engine.logits(x)?;
                predict_slice(logits, classes, preds)
            }
        }
    }

    /// Int8 logits for a batch (the quantized analogue of
    /// [`InferenceSession::logits`]); the slice lives in engine-owned
    /// scratch and is valid until the next int8 call.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::Int8Unavailable`] with no compiled engine;
    /// otherwise as [`InferenceSession::classify_batch`].
    pub fn logits_int8(&mut self, x: &Tensor) -> LecaResult<&[f32]> {
        validate_batch(x)?;
        let engine = self.engine.as_mut().ok_or(LecaError::Int8Unavailable)?;
        engine.logits(x)
    }

    /// Classifies a batch of *captured ofmaps* (what [`crate::deploy`]'s
    /// sensor simulator emits): decoder → backbone, skipping the encoder.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::InvalidConfig`] on a backbone-only session and
    /// propagates layer errors.
    pub fn classify_ofmaps(&mut self, ofmaps: &Tensor, preds: &mut Vec<usize>) -> LecaResult<()> {
        validate_batch(ofmaps)?;
        let p: &mut LecaPipeline = match &mut self.model {
            ModelRef::Pipeline(p) => p,
            ModelRef::Owned(p) => p,
            ModelRef::Backbone(_) => {
                return Err(LecaError::InvalidConfig(
                    "classify_ofmaps needs a pipeline session (no decoder on a bare backbone)"
                        .into(),
                ));
            }
        };
        let decoded = p.decoder_mut().forward_ws(ofmaps, Mode::Eval, &self.ws)?;
        let logits = p
            .backbone_mut()
            .forward_ws(&decoded, Mode::Eval, &self.ws)?;
        drop(decoded);
        predict_into(&logits, preds)
    }

    /// Pre-warms the pool for inputs of `input_shape`: runs two throwaway
    /// f32 batches so every buffer shape the forward needs is resident and
    /// subsequent same-shape batches hit the free list exclusively, then,
    /// when an int8 engine is compiled, two int8 batches to grow its
    /// scratch.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. a shape the model rejects).
    pub fn warm_up(&mut self, input_shape: &[usize]) -> LecaResult<()> {
        eprintln!(
            "leca: warm-up {:?} on `{}` kernels, {} thread(s)",
            input_shape,
            leca_tensor::backend::active().name(),
            leca_tensor::parallel::num_threads(),
        );
        let x = Tensor::zeros(input_shape);
        let mut preds = Vec::new();
        for _ in 0..2 {
            self.classify_batch(&x, &mut preds)?;
        }
        if self.engine.is_some() {
            for _ in 0..2 {
                self.classify_batch_with(&x, &mut preds, Precision::Int8)?;
            }
        }
        Ok(())
    }

    /// Workspace occupancy and hit-rate counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }
}

/// Input hardening shared by the classify entry points: empty batches,
/// zero dimensions and non-finite payloads become typed errors instead of
/// panics deeper in the kernel stack (or silently garbage logits).
fn validate_batch(x: &Tensor) -> LecaResult<()> {
    if x.rank() == 0 || x.shape().first() == Some(&0) {
        return Err(LecaError::EmptyBatch);
    }
    if x.shape().contains(&0) {
        return Err(LecaError::ZeroDim {
            shape: x.shape().to_vec(),
        });
    }
    if let Some(index) = x.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(LecaError::NonFinite { index });
    }
    Ok(())
}

/// Row-wise argmax into a reused vector; ties resolve to the first index,
/// matching [`Tensor::argmax_rows`] (and therefore `loss::accuracy`).
fn predict_into(logits: &Tensor, preds: &mut Vec<usize>) -> LecaResult<()> {
    if logits.rank() != 2 || logits.shape()[1] == 0 {
        return Err(LecaError::InvalidConfig(format!(
            "classify expects (N, classes) logits, got {:?}",
            logits.shape()
        )));
    }
    predict_slice(logits.as_slice(), logits.shape()[1], preds)
}

/// Argmax over row-major `(n, classes)` logits stored in a flat slice
/// (the int8 engine's output form); same tie-breaking as `predict_into`.
fn predict_slice(logits: &[f32], classes: usize, preds: &mut Vec<usize>) -> LecaResult<()> {
    if classes == 0 || !logits.len().is_multiple_of(classes) {
        return Err(LecaError::InvalidConfig(format!(
            "classify expects (N, {classes}) logits, got {} values",
            logits.len()
        )));
    }
    preds.clear();
    preds.reserve(logits.len() / classes);
    for row in logits.chunks_exact(classes) {
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        preds.push(best);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LecaConfig;
    use crate::encoder::Modality;
    use leca_nn::backbone::tiny_cnn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline(modality: Modality) -> LecaPipeline {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bb = tiny_cnn(4, &mut rng);
        LecaPipeline::new(&cfg, modality, bb, 7).unwrap()
    }

    #[test]
    fn session_logits_match_allocating_forward_bitwise() {
        let mut p = pipeline(Modality::Soft);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&[3, 3, 16, 16], 0.1, 0.9, &mut rng);
        let expect = p.forward(&x, Mode::Eval).unwrap();
        let mut session = InferenceSession::for_pipeline(&mut p);
        for _ in 0..3 {
            let got = session.logits(&x).unwrap();
            assert_eq!(got.as_slice(), expect.as_slice());
            assert_eq!(got.shape(), expect.shape());
        }
        let stats = session.stats();
        assert_eq!(stats.live, 0, "all pooled buffers must have been returned");
        assert!(stats.hit_rate() > 0.0, "later passes must reuse buffers");
    }

    #[test]
    fn classify_batch_matches_argmax_of_forward() {
        let mut p = pipeline(Modality::Soft);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
        let expect = p.forward(&x, Mode::Eval).unwrap().argmax_rows().unwrap();
        let mut session = InferenceSession::for_pipeline(&mut p);
        let mut preds = Vec::new();
        session.classify_batch(&x, &mut preds).unwrap();
        assert_eq!(preds, expect);
    }

    #[test]
    fn backbone_session_classifies_images() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bb = tiny_cnn(5, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let expect = bb.forward(&x, Mode::Eval).unwrap().argmax_rows().unwrap();
        let mut session = InferenceSession::for_backbone(&mut bb);
        let mut preds = Vec::new();
        session.classify_batch(&x, &mut preds).unwrap();
        assert_eq!(preds, expect);
        assert!(session.classify_ofmaps(&x, &mut preds).is_err());
    }

    #[test]
    fn classify_ofmaps_matches_decode_plus_backbone() {
        let mut p = pipeline(Modality::Soft);
        let mut rng = StdRng::seed_from_u64(4);
        let ofmap = Tensor::rand_uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        let decoded = p.decode(&ofmap, Mode::Eval).unwrap();
        let expect = p
            .backbone_mut()
            .forward(&decoded, Mode::Eval)
            .unwrap()
            .argmax_rows()
            .unwrap();
        let mut session = InferenceSession::for_pipeline(&mut p);
        let mut preds = Vec::new();
        session.classify_ofmaps(&ofmap, &mut preds).unwrap();
        assert_eq!(preds, expect);
    }

    #[test]
    fn warm_up_populates_the_pool() {
        let mut p = pipeline(Modality::Soft);
        let mut session = InferenceSession::for_pipeline(&mut p);
        session.warm_up(&[2, 3, 16, 16]).unwrap();
        let warm = session.stats();
        assert!(warm.free > 0, "warm-up must leave buffers in the pool");
        assert!(warm.bytes_resident > 0);
        // A post-warm-up batch of the same shape is served entirely from
        // the free list: misses do not grow.
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut rng);
        let mut preds = Vec::new();
        session.classify_batch(&x, &mut preds).unwrap();
        assert_eq!(session.stats().misses, warm.misses);
    }

    #[test]
    fn hard_modality_still_works_through_the_session() {
        // The hardware encoder builds an owned output (with its voltage
        // traces) and adopts it; the decoder/backbone run through the pool.
        let mut p = pipeline(Modality::Hard);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut rng);
        let expect = p.forward(&x, Mode::Eval).unwrap();
        let mut session = InferenceSession::for_pipeline(&mut p);
        let got = session.logits(&x).unwrap();
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn predict_into_rejects_bad_shapes() {
        let mut preds = Vec::new();
        assert!(predict_into(&Tensor::zeros(&[4]), &mut preds).is_err());
        assert!(predict_into(&Tensor::zeros(&[4, 0]), &mut preds).is_err());
    }

    #[test]
    fn classify_batch_rejects_empty_batch() {
        let mut p = pipeline(Modality::Soft);
        let mut session = InferenceSession::for_pipeline(&mut p);
        let mut preds = Vec::new();
        let err = session
            .classify_batch(&Tensor::zeros(&[0, 3, 16, 16]), &mut preds)
            .unwrap_err();
        assert!(matches!(err, LecaError::EmptyBatch), "{err}");
    }

    #[test]
    fn classify_batch_rejects_zero_dims() {
        let mut p = pipeline(Modality::Soft);
        let mut session = InferenceSession::for_pipeline(&mut p);
        let mut preds = Vec::new();
        let err = session
            .classify_batch(&Tensor::zeros(&[2, 3, 0, 16]), &mut preds)
            .unwrap_err();
        assert!(matches!(err, LecaError::ZeroDim { .. }), "{err}");
    }

    #[test]
    fn classify_batch_rejects_non_finite_inputs() {
        let mut p = pipeline(Modality::Soft);
        let mut session = InferenceSession::for_pipeline(&mut p);
        let mut preds = Vec::new();
        let mut x = Tensor::zeros(&[2, 3, 16, 16]);
        x.as_mut_slice()[37] = f32::NAN;
        let err = session.classify_batch(&x, &mut preds).unwrap_err();
        assert!(matches!(err, LecaError::NonFinite { index: 37 }), "{err}");
        x.as_mut_slice()[37] = f32::INFINITY;
        let err = session.classify_batch(&x, &mut preds).unwrap_err();
        assert!(matches!(err, LecaError::NonFinite { index: 37 }), "{err}");
        assert!(preds.is_empty(), "rejected batches must not emit preds");
    }

    #[test]
    fn owning_session_matches_borrowed() {
        let mut p = pipeline(Modality::Soft);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::rand_uniform(&[3, 3, 16, 16], 0.1, 0.9, &mut rng);
        let expect = p.forward(&x, Mode::Eval).unwrap().argmax_rows().unwrap();
        let mut session = InferenceSession::owning(p);
        let mut preds = Vec::new();
        session.classify_batch(&x, &mut preds).unwrap();
        assert_eq!(preds, expect);
        assert!(session.classify_ofmaps(&x, &mut preds).is_err()); // wrong shape propagates
    }

    #[test]
    fn int8_requires_enable_first() {
        let mut p = pipeline(Modality::Soft);
        let mut session = InferenceSession::for_pipeline(&mut p);
        assert!(!session.int8_ready());
        let mut preds = Vec::new();
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let err = session
            .classify_batch_with(&x, &mut preds, Precision::Int8)
            .unwrap_err();
        assert!(matches!(err, LecaError::Int8Unavailable), "{err}");
        let err = session.logits_int8(&x).unwrap_err();
        assert!(matches!(err, LecaError::Int8Unavailable), "{err}");
    }

    #[test]
    fn int8_session_classifies_and_mostly_agrees_with_f32() {
        let mut p = pipeline(Modality::Soft);
        let mut rng = StdRng::seed_from_u64(20);
        let calib = Tensor::rand_uniform(&[8, 3, 16, 16], 0.1, 0.9, &mut rng);
        let x = Tensor::rand_uniform(&[16, 3, 16, 16], 0.1, 0.9, &mut rng);
        let mut session = InferenceSession::for_pipeline(&mut p);
        session.enable_int8(&calib).unwrap();
        assert!(session.int8_ready());
        let mut f32_preds = Vec::new();
        session.classify_batch(&x, &mut f32_preds).unwrap();
        let mut int8_preds = Vec::new();
        session
            .classify_batch_with(&x, &mut int8_preds, Precision::Int8)
            .unwrap();
        assert_eq!(int8_preds.len(), f32_preds.len());
        let agree = f32_preds
            .iter()
            .zip(&int8_preds)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree * 10 >= f32_preds.len() * 8,
            "int8 agrees on only {agree}/{}",
            f32_preds.len()
        );
    }

    #[test]
    fn int8_rejected_on_backbone_session() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut bb = tiny_cnn(3, &mut rng);
        let mut session = InferenceSession::for_backbone(&mut bb);
        let calib = Tensor::zeros(&[1, 3, 16, 16]);
        let err = session.enable_int8(&calib).unwrap_err();
        assert!(matches!(err, LecaError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn warm_up_covers_the_int8_path_too() {
        let p = pipeline(Modality::Soft);
        let mut session = InferenceSession::owning(p);
        let mut rng = StdRng::seed_from_u64(23);
        let calib = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut rng);
        session.enable_int8(&calib).unwrap();
        session.warm_up(&[2, 3, 16, 16]).unwrap();
        // Both paths now classify without error.
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut rng);
        let mut preds = Vec::new();
        session
            .classify_batch_with(&x, &mut preds, Precision::F32)
            .unwrap();
        session
            .classify_batch_with(&x, &mut preds, Precision::Int8)
            .unwrap();
        assert_eq!(preds.len(), 2);
    }
}
