//! Accuracy lockdown for the int8 quantized inference path.
//!
//! The quantized engine is only worth its speed if it classifies like
//! the f32 pipeline it was compiled from. This file trains a small
//! Soft-modality pipeline on SynthVision, calibrates the engine on the
//! evaluation set, and pins the contract from the issue: **int8 top-1
//! accuracy within 0.5 percentage points of f32** on the same images —
//! plus a stronger per-image agreement bound, because two paths can
//! match in aggregate while disagreeing everywhere.

use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::session::{InferenceSession, Precision};
use leca::core::trainer::{self, TrainConfig};
use leca::core::LecaPipeline;
use leca::data::{Dataset, SynthConfig, SynthVision};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 4 classes x 100 validation images: enough that the 0.5 pp budget
/// (two net flips) is a real constraint, small enough to stay fast.
fn data() -> SynthVision {
    let cfg = SynthConfig {
        size: 16,
        num_classes: 4,
        train_per_class: 30,
        val_per_class: 100,
        noise_std: 0.01,
        clutter: 1,
    };
    SynthVision::generate(&cfg, 1)
}

fn trained_pipeline(data: &SynthVision) -> LecaPipeline {
    let mut rng = StdRng::seed_from_u64(0);
    let mut bb = leca::nn::backbone::tiny_cnn(data.train().num_classes(), &mut rng);
    let mut tc = TrainConfig::fast_test();
    tc.epochs = 4;
    trainer::train_backbone(&mut bb, data.train(), data.val(), &tc).expect("backbone trains");
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let mut pipeline = LecaPipeline::new(&cfg, Modality::Soft, bb, 3).expect("pipeline");
    tc.epochs = 3;
    trainer::train_pipeline(&mut pipeline, data.train(), data.val(), &tc).expect("joint trains");
    pipeline
}

/// Top-1 predictions for every image in `set` at the given precision.
fn predictions(
    session: &mut InferenceSession<'_>,
    set: &Dataset,
    precision: Precision,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(set.len());
    let mut preds = Vec::new();
    let bs = 20;
    let mut start = 0;
    while start < set.len() {
        let n = bs.min(set.len() - start);
        let (x, _) = set.batch(start, n).expect("batch");
        session
            .classify_batch_with(&x, &mut preds, precision)
            .expect("classify");
        out.extend_from_slice(&preds);
        start += n;
    }
    out
}

fn accuracy(preds: &[usize], labels: &[usize]) -> f64 {
    let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / labels.len() as f64
}

#[test]
fn int8_top1_accuracy_within_half_a_point_of_f32() {
    let data = data();
    let mut pipeline = trained_pipeline(&data);
    let mut session = InferenceSession::for_pipeline(&mut pipeline);

    // Calibrate activation ranges on the evaluation distribution itself
    // (the deployment recipe: a representative unlabeled batch).
    let (calib, _) = data.val().batch(0, 100).expect("calibration batch");
    session.enable_int8(&calib).expect("engine compiles");

    let labels = data.val().labels();
    let f32_preds = predictions(&mut session, data.val(), Precision::F32);
    let int8_preds = predictions(&mut session, data.val(), Precision::Int8);
    assert_eq!(f32_preds.len(), labels.len());
    assert_eq!(int8_preds.len(), labels.len());

    let f32_acc = accuracy(&f32_preds, labels);
    let int8_acc = accuracy(&int8_preds, labels);
    let delta_pp = (f32_acc - int8_acc) * 100.0;
    println!(
        "top-1: f32 {:.2}% vs int8 {:.2}% (delta {delta_pp:+.2} pp)",
        f32_acc * 100.0,
        int8_acc * 100.0
    );
    assert!(
        delta_pp <= 0.5 + 1e-9,
        "int8 lost {delta_pp:.2} pp top-1 vs f32 (budget 0.5 pp): \
         f32 {f32_acc:.4} vs int8 {int8_acc:.4}"
    );

    // Aggregate accuracy can hide compensating flips; also require the
    // two paths to agree on nearly every individual image.
    let disagree = f32_preds
        .iter()
        .zip(&int8_preds)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        disagree * 100 <= f32_preds.len() * 4,
        "int8 flips {disagree}/{} individual predictions (>4%)",
        f32_preds.len()
    );
}
