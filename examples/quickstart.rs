//! Quickstart: train and evaluate a small LeCA pipeline end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a SynthVision dataset, pre-trains a small backbone, freezes it,
//! jointly trains a hard-modality LeCA encoder/decoder at the paper's
//! CR = 8 design point (N_ch|Q_bit = 4|3), and reports the accuracy with
//! and without compression.

use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::trainer::{self, TrainConfig};
use leca::core::{InferenceSession, LecaPipeline};
use leca::data::{SynthConfig, SynthVision};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // A small dataset so the example finishes in about a minute.
    let mut dcfg = SynthConfig::proxy();
    dcfg.train_per_class = 40;
    dcfg.val_per_class = 15;
    let data = SynthVision::generate(&dcfg, 1);
    println!(
        "dataset: {} train / {} val images, {} classes, {:?} px",
        data.train().len(),
        data.val().len(),
        data.train().num_classes(),
        data.train().image_shape().expect("non-empty dataset")
    );

    // 1. Pre-train the downstream backbone on raw images, then freeze it.
    let mut backbone = trainer::backbone_for(data.train(), 0);
    let mut tc = TrainConfig::experiment();
    tc.epochs = 6;
    let report = trainer::train_backbone(&mut backbone, data.train(), data.val(), &tc)?;
    println!(
        "backbone accuracy on raw images: {:.1}%",
        report.val_accuracy * 100.0
    );

    // 2. Joint LeCA training: hard modality (analytical circuit models),
    //    CR = 8 via N_ch|Q_bit = 4|3 (Fig. 4(b) optimum).
    let cfg = LecaConfig::paper_for_cr(8)?;
    println!(
        "LeCA config: K={}, N_ch={}, Q_bit={}, CR={} (Eq. 1)",
        cfg.k,
        cfg.n_ch,
        cfg.qbit,
        cfg.compression_ratio()
    );
    let mut pipeline = LecaPipeline::new(&cfg, Modality::Hard, backbone, 42)?;
    let mut tc = TrainConfig::experiment();
    tc.epochs = 3;
    let report = trainer::train_pipeline(&mut pipeline, data.train(), data.val(), &tc)?;
    println!(
        "LeCA pipeline accuracy at 8x compression: {:.1}% (losses per epoch: {:?})",
        report.val_accuracy * 100.0,
        report
            .epoch_losses
            .iter()
            .map(|l| format!("{l:.2}"))
            .collect::<Vec<_>>()
    );
    println!(
        "accuracy cost of compressing 8x before digitization: {:.1} pp",
        (trainer::accuracy(pipeline.backbone_mut(), data.val())? - report.val_accuracy) * 100.0
    );

    // 3. Deployment-style inference: an `InferenceSession` reuses one
    //    workspace across batches, so steady-state classification makes no
    //    heap allocations.
    let image_shape = data.val().image_shape().expect("non-empty dataset");
    let batch = 8.min(data.val().len());
    let mut session = InferenceSession::for_pipeline(&mut pipeline);
    session.warm_up(&[batch, image_shape[0], image_shape[1], image_shape[2]])?;
    let mut preds = Vec::new();
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut start = 0;
    while start < data.val().len() {
        let n = batch.min(data.val().len() - start);
        let (x, labels) = data.val().batch(start, n)?;
        session.classify_batch(&x, &mut preds)?;
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        total += n;
        start += n;
    }
    println!(
        "session inference over val: {:.1}% ({correct}/{total}); workspace: {}",
        correct as f32 / total.max(1) as f32 * 100.0,
        session.stats()
    );
    Ok(())
}
