//! Training loops: backbone pre-training and joint LeCA training.
//!
//! Implements the paper's methodology (Sec. 3.4 / 5.2):
//!
//! * Adam with the step-decay schedule (`1e-3`, ×0.1 every N epochs).
//! * Backbone pre-trained first, then **frozen** for all LeCA trainings.
//! * **Incremental training**: pipelines targeting `Q_bit ≤ 4` first train
//!   at `Q_bit = 8`, then fine-tune at the target depth ("this strategy
//!   helps the model converge faster").
//! * Noisy training initializes from hard-trained weights ("we first
//!   pre-train a noise-free pipeline, and then finetune it").
//! * Optional paper augmentation (rotation ≤ 20°, horizontal flip).

use crate::encoder::Modality;
use crate::pipeline::LecaPipeline;
use crate::{LecaError, Result as LecaResult};
use leca_data::augment::paper_augment;
use leca_data::Dataset;
use leca_nn::backbone::{resnet_full, resnet_proxy, Backbone};
use leca_nn::loss::{self, SoftmaxCrossEntropy};
use leca_nn::optim::{Adam, StepDecay};
use leca_nn::{Layer, Mode};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepDecay,
    /// Apply the paper's augmentation during training.
    pub augment: bool,
    /// Use incremental Q_bit annealing for aggressive quantization.
    pub incremental: bool,
    /// Shuffling / augmentation seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The experiment-scale recipe (sized for the single-core budget).
    pub fn experiment() -> Self {
        TrainConfig {
            epochs: 4,
            batch_size: 32,
            schedule: StepDecay {
                base_lr: 2e-3,
                gamma: 0.3,
                every: 2,
            },
            augment: false,
            incremental: true,
            seed: 0,
        }
    }

    /// A minimal recipe for unit tests.
    pub fn fast_test() -> Self {
        TrainConfig {
            epochs: 1,
            batch_size: 8,
            schedule: StepDecay::paper(30),
            augment: false,
            incremental: false,
            seed: 0,
        }
    }
}

/// Per-run training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch (finite by construction: diverged
    /// epochs are rolled back and retried, never recorded).
    pub epoch_losses: Vec<f32>,
    /// Validation accuracy after the final epoch.
    pub val_accuracy: f32,
    /// Divergence rollbacks taken: each one restored the last finite-loss
    /// snapshot and backed the learning rate off by [`LR_BACKOFF`].
    pub rollbacks: usize,
}

/// Learning-rate multiplier applied on every divergence rollback.
pub const LR_BACKOFF: f32 = 0.1;

/// Rollbacks allowed before training reports [`LecaError::Diverged`].
pub const MAX_ROLLBACKS: usize = 10;

/// Divergence-rollback state of the shared epoch loop: a byte
/// snapshot of the last model that produced a finite epoch loss, plus the
/// accumulated learning-rate backoff.
struct EpochGuard {
    snapshot: Vec<u8>,
    lr_scale: f32,
    rollbacks: usize,
}

impl EpochGuard {
    fn new<L: Layer + ?Sized>(model: &mut L) -> Self {
        EpochGuard {
            snapshot: leca_nn::serialize::to_bytes(model),
            lr_scale: 1.0,
            rollbacks: 0,
        }
    }

    /// Accepts a finite epoch: re-snapshots the model. Call after pushing
    /// the epoch loss.
    fn accept<L: Layer + ?Sized>(&mut self, model: &mut L) {
        self.snapshot = leca_nn::serialize::to_bytes(model);
    }

    /// Handles a non-finite epoch loss: restores the last good snapshot
    /// and backs off the learning rate. The caller retries the epoch with
    /// a fresh optimizer (NaN-poisoned Adam moments must not survive).
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::Diverged`] once the rollback budget is spent.
    fn rollback<L: Layer + ?Sized>(&mut self, model: &mut L, epoch: usize) -> LecaResult<()> {
        self.rollbacks += 1;
        if self.rollbacks > MAX_ROLLBACKS {
            return Err(LecaError::Diverged {
                rollbacks: self.rollbacks - 1,
            });
        }
        self.lr_scale *= LR_BACKOFF;
        eprintln!(
            "trainer: non-finite loss in epoch {epoch}; rolling back to last good snapshot, \
             lr scale now {}",
            self.lr_scale
        );
        leca_nn::serialize::from_bytes(model, &self.snapshot)?;
        Ok(())
    }
}

/// Builds the right backbone architecture for a dataset's image size.
pub fn backbone_for(train: &Dataset, seed: u64) -> Backbone {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = train.image_shape().map(|s| s[1]).unwrap_or(32);
    if size <= 32 {
        resnet_proxy(train.num_classes(), &mut rng)
    } else {
        resnet_full(train.num_classes(), &mut rng)
    }
}

/// Pre-trains a backbone classifier on raw (uncompressed) images — the
/// stand-in for the paper's PyTorch-pretrained ResNets.
///
/// # Errors
///
/// Propagates layer/optimizer errors.
pub fn train_backbone(
    backbone: &mut Backbone,
    train: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
) -> LecaResult<TrainReport> {
    fit(backbone, train, val, cfg, cfg.seed, |_, _| Ok(()), |_| {})
}

/// Jointly trains a LeCA pipeline's encoder/decoder against the frozen
/// backbone, with optional incremental Q_bit annealing.
///
/// # Errors
///
/// Propagates layer/optimizer errors.
pub fn train_pipeline(
    pipeline: &mut LecaPipeline,
    train: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
) -> LecaResult<TrainReport> {
    let target_qbit = pipeline.encoder().qbit();
    let anneal = cfg.incremental && target_qbit < 4.0 && cfg.epochs >= 2;
    if anneal {
        pipeline.encoder_mut().set_qbit(8.0)?;
    }
    let hw_modality = pipeline.encoder().modality() != Modality::Soft;
    fit(
        pipeline,
        train,
        val,
        cfg,
        cfg.seed.wrapping_add(17),
        |p, epoch| {
            if anneal && epoch == cfg.epochs / 2 {
                p.encoder_mut().set_qbit(target_qbit)?;
            }
            Ok(())
        },
        |p| {
            if hw_modality {
                p.encoder_mut().clamp_weights();
            }
        },
    )
}

/// The epoch loop both trainers share. Each epoch runs `start_epoch`,
/// shuffles with the generator seeded by `seed`, then per batch clears the
/// gradients, runs a Train forward, cross-entropy, backward and an Adam
/// step, then `after_step`. A non-finite epoch loss rolls the model back
/// to its last finite snapshot and retries the epoch with a fresh
/// optimizer at a backed-off rate (NaN-poisoned Adam moments must not
/// survive). Reports validation accuracy on `val` at the end.
fn fit<L: Layer>(
    model: &mut L,
    train: &Dataset,
    val: &Dataset,
    cfg: &TrainConfig,
    seed: u64,
    mut start_epoch: impl FnMut(&mut L, usize) -> LecaResult<()>,
    mut after_step: impl FnMut(&mut L),
) -> LecaResult<TrainReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Adam::new(cfg.schedule.base_lr)?;
    let mut data = train.clone();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut guard = EpochGuard::new(model);
    let mut epoch = 0;
    while epoch < cfg.epochs {
        start_epoch(model, epoch)?;
        opt.set_lr(cfg.schedule.lr_at(epoch) * guard.lr_scale);
        data.shuffle(&mut rng);
        let mut total = 0.0;
        let mut batches = 0;
        for (x, labels) in data.iter_batches(cfg.batch_size) {
            let x = maybe_augment(&x, cfg.augment, &mut rng)?;
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train)?;
            let (loss, grad) = SoftmaxCrossEntropy::new().forward(&logits, &labels)?;
            model.backward(&grad)?;
            opt.step(model);
            after_step(model);
            total += loss;
            batches += 1;
            if !loss.is_finite() {
                break; // the epoch is already lost; stop poisoning weights
            }
        }
        let mean = total / batches.max(1) as f32;
        if !mean.is_finite() {
            guard.rollback(model, epoch)?;
            opt = Adam::new(cfg.schedule.base_lr)?;
            continue; // retry the epoch at the backed-off rate
        }
        epoch_losses.push(mean);
        guard.accept(model);
        epoch += 1;
    }
    Ok(TrainReport {
        epoch_losses,
        val_accuracy: accuracy(model, val)?,
        rollbacks: guard.rollbacks,
    })
}

/// Eval batch size: large enough that the blocked GEMM's panel packing
/// amortizes per batch, small enough to keep activation memory bounded.
const EVAL_BATCH: usize = 64;

/// Classification accuracy of a backbone (on raw images) or a LeCA
/// pipeline over a dataset, in Eval mode.
///
/// # Errors
///
/// Propagates layer errors.
pub fn accuracy<L: Layer + ?Sized>(model: &mut L, ds: &Dataset) -> LecaResult<f32> {
    let mut correct = 0.0;
    let mut count = 0usize;
    for (x, labels) in ds.iter_batches(EVAL_BATCH) {
        let logits = model.forward(&x, Mode::Eval)?;
        correct += loss::accuracy(&logits, &labels)? * labels.len() as f32;
        count += labels.len();
    }
    Ok(if count == 0 {
        0.0
    } else {
        correct / count as f32
    })
}

/// Applies the paper's augmentation when enabled; borrows the batch
/// untouched otherwise, so the no-augmentation hot loop (every fast_test
/// config and all eval paths) never copies activations.
fn maybe_augment<'a>(
    x: &'a Tensor,
    enabled: bool,
    rng: &mut StdRng,
) -> LecaResult<std::borrow::Cow<'a, Tensor>> {
    if !enabled {
        return Ok(std::borrow::Cow::Borrowed(x));
    }
    let n = x.shape()[0];
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        let img = x.slice0(i, 1)?;
        let chw = img.reshape(&[x.shape()[1], x.shape()[2], x.shape()[3]])?;
        let aug = paper_augment(&chw, rng);
        parts.push(aug.reshape(&[1, x.shape()[1], x.shape()[2], x.shape()[3]])?);
    }
    let refs: Vec<&Tensor> = parts.iter().collect();
    Ok(std::borrow::Cow::Owned(Tensor::concat0(&refs)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LecaConfig;
    use leca_data::{SynthConfig, SynthVision};
    use leca_nn::backbone::tiny_cnn;

    fn tiny_data() -> SynthVision {
        SynthVision::generate(&SynthConfig::tiny_test(), 3)
    }

    #[test]
    fn backbone_training_reduces_loss() {
        let data = tiny_data();
        let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(0));
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 6;
        let report = train_backbone(&mut bb, data.train(), data.val(), &cfg).unwrap();
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss must fall: {:?}",
            report.epoch_losses
        );
        assert!((0.0..=1.0).contains(&report.val_accuracy));
    }

    #[test]
    fn pipeline_training_runs_soft() {
        let data = tiny_data();
        let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(1));
        // Minimal pre-training so logits aren't degenerate.
        train_backbone(&mut bb, data.train(), data.val(), &TrainConfig::fast_test()).unwrap();
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 5).unwrap();
        let report =
            train_pipeline(&mut p, data.train(), data.val(), &TrainConfig::fast_test()).unwrap();
        assert_eq!(report.epoch_losses.len(), 1);
        assert!(report.epoch_losses[0].is_finite());
    }

    #[test]
    fn incremental_annealing_restores_target_qbit() {
        let data = tiny_data();
        let bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(2));
        let cfg = LecaConfig::new(2, 4, 1.5).unwrap();
        let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 6).unwrap();
        let mut tc = TrainConfig::fast_test();
        tc.epochs = 2;
        tc.incremental = true;
        train_pipeline(&mut p, data.train(), data.val(), &tc).unwrap();
        assert_eq!(p.encoder().qbit(), 1.5, "annealing must end at the target");
    }

    #[test]
    fn hard_training_clamps_weights() {
        let data = tiny_data();
        let bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(3));
        let cfg = LecaConfig::new(2, 2, 3.0).unwrap();
        let mut p = LecaPipeline::new(&cfg, Modality::Hard, bb, 7).unwrap();
        train_pipeline(&mut p, data.train(), data.val(), &TrainConfig::fast_test()).unwrap();
        assert!(p.encoder().weight().max() <= 1.0);
        assert!(p.encoder().weight().min() >= -1.0);
    }

    #[test]
    fn epoch_guard_restores_last_finite_snapshot() {
        let mut net = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
        let mut guard = EpochGuard::new(&mut net);
        // A good epoch moves the weights and accepts the new snapshot.
        net.visit_params(&mut |p| p.value.fill(0.125));
        guard.accept(&mut net);
        // Divergence poisons the weights; rollback must restore the last
        // *accepted* state — not the initialization — and back off the LR.
        net.visit_params(&mut |p| p.value.fill(f32::NAN));
        guard.rollback(&mut net, 1).unwrap();
        let mut ok = true;
        net.visit_params(&mut |p| ok &= p.value.as_slice().iter().all(|&v| v == 0.125));
        assert!(ok, "rollback must restore the last finite-loss snapshot");
        assert_eq!(guard.lr_scale, LR_BACKOFF);
        assert_eq!(guard.rollbacks, 1);
    }

    #[test]
    fn epoch_guard_budget_is_finite() {
        let mut net = tiny_cnn(2, &mut StdRng::seed_from_u64(1));
        let mut guard = EpochGuard::new(&mut net);
        for _ in 0..MAX_ROLLBACKS {
            guard.rollback(&mut net, 0).unwrap();
        }
        assert!(matches!(
            guard.rollback(&mut net, 0),
            Err(LecaError::Diverged {
                rollbacks: MAX_ROLLBACKS
            })
        ));
    }

    #[test]
    fn nan_loss_is_detected_backed_off_and_reported() {
        // A NaN pixel makes every epoch's loss non-finite: the trainer
        // must detect it, roll back with LR backoff rather than keep
        // stepping on poisoned weights, and — since no learning rate can
        // fix broken data — report Diverged instead of silently returning
        // NaN losses.
        let mut img = Tensor::zeros(&[3, 8, 8]);
        img.as_mut_slice()[0] = f32::NAN;
        let images = vec![img.clone(), img.clone(), img.clone(), img];
        let ds = Dataset::new(images, vec![0, 1, 0, 1], 2).unwrap();
        let mut bb = tiny_cnn(2, &mut StdRng::seed_from_u64(2));
        match train_backbone(&mut bb, &ds, &ds, &TrainConfig::fast_test()) {
            Err(LecaError::Diverged { rollbacks }) => assert_eq!(rollbacks, MAX_ROLLBACKS),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn healthy_training_reports_zero_rollbacks() {
        let data = tiny_data();
        let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(5));
        let report =
            train_backbone(&mut bb, data.train(), data.val(), &TrainConfig::fast_test()).unwrap();
        assert_eq!(report.rollbacks, 0);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn accuracy_in_unit_range_for_backbone_and_pipeline() {
        let data = tiny_data();
        let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(6));
        let acc = accuracy(&mut bb, data.val()).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 8).unwrap();
        let acc = accuracy(&mut p, data.val()).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn backbone_for_picks_architecture() {
        let small = tiny_data();
        let bb = backbone_for(small.train(), 0);
        assert_eq!(bb.arch(), "resnet_proxy");
    }

    #[test]
    fn augmentation_path_runs() {
        let data = tiny_data();
        let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(4));
        let mut cfg = TrainConfig::fast_test();
        cfg.augment = true;
        let report = train_backbone(&mut bb, data.train(), data.val(), &cfg).unwrap();
        assert!(report.epoch_losses[0].is_finite());
    }
}
