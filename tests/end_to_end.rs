//! End-to-end integration tests spanning the whole workspace: dataset →
//! backbone → joint LeCA training → sensor deployment.

use leca::core::config::LecaConfig;
use leca::core::deploy::{hardware_accuracy, program_sensor, sensor_encode};
use leca::core::encoder::Modality;
use leca::core::trainer::{self, TrainConfig};
use leca::core::LecaPipeline;
use leca::data::{SynthConfig, SynthVision};
use leca::nn::Mode;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_data(seed: u64) -> SynthVision {
    let cfg = SynthConfig {
        size: 16,
        num_classes: 4,
        train_per_class: 12,
        val_per_class: 6,
        noise_std: 0.01,
        clutter: 1,
    };
    SynthVision::generate(&cfg, seed)
}

fn trained_backbone(data: &SynthVision, epochs: usize) -> leca::nn::backbone::Backbone {
    let mut rng = StdRng::seed_from_u64(0);
    let mut bb = leca::nn::backbone::tiny_cnn(data.train().num_classes(), &mut rng);
    let mut tc = TrainConfig::fast_test();
    tc.epochs = epochs;
    trainer::train_backbone(&mut bb, data.train(), data.val(), &tc).expect("backbone trains");
    bb
}

#[test]
fn backbone_learns_synthvision() {
    // Shape-only classes with randomized colors/poses need the residual
    // proxy backbone and a few hundred images before generalization kicks
    // in; the GAP-pooled tiny_cnn at 48 images memorizes without learning.
    let cfg = SynthConfig {
        size: 16,
        num_classes: 4,
        train_per_class: 40,
        val_per_class: 10,
        noise_std: 0.01,
        clutter: 1,
    };
    let data = SynthVision::generate(&cfg, 1);
    let mut rng = StdRng::seed_from_u64(0);
    let mut bb = leca::nn::backbone::resnet_proxy(data.train().num_classes(), &mut rng);
    let mut tc = TrainConfig::fast_test();
    tc.epochs = 8;
    trainer::train_backbone(&mut bb, data.train(), data.val(), &tc).expect("backbone trains");
    let acc = trainer::accuracy(&mut bb, data.val()).expect("eval runs");
    // 4 classes, 160 train images: clearly above the 25% chance level.
    assert!(acc > 0.35, "backbone accuracy only {acc}");
}

#[test]
fn joint_training_improves_over_untrained_decoder() {
    let data = tiny_data(2);
    let bb = trained_backbone(&data, 8);
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let mut pipeline = LecaPipeline::new(&cfg, Modality::Soft, bb, 3).expect("pipeline");
    let before = trainer::accuracy(&mut pipeline, data.val()).expect("eval");
    let mut tc = TrainConfig::fast_test();
    tc.epochs = 6;
    let report =
        trainer::train_pipeline(&mut pipeline, data.train(), data.val(), &tc).expect("trains");
    // With 24 validation images a couple of flipped predictions are noise;
    // require "no large regression" rather than strict improvement.
    assert!(
        report.val_accuracy >= before - 0.15,
        "training regressed badly: {} -> {}",
        before,
        report.val_accuracy
    );
    assert!(
        report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
        "loss must fall: {:?}",
        report.epoch_losses
    );
}

#[test]
fn hard_training_then_sensor_deployment_is_consistent() {
    let data = tiny_data(3);
    let bb = trained_backbone(&data, 6);
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let mut pipeline = LecaPipeline::new(&cfg, Modality::Hard, bb, 4).expect("pipeline");
    let mut tc = TrainConfig::fast_test();
    tc.epochs = 2;
    trainer::train_pipeline(&mut pipeline, data.train(), data.val(), &tc).expect("trains");

    // The deployed sensor must agree with the training-time hard model.
    let img = data.val().images()[0].clone();
    let sensor = program_sensor(pipeline.encoder(), 16, 16).expect("programs");
    let hw = sensor_encode(&sensor, &img, false, 0).expect("captures");
    let x = img.reshape(&[1, 3, 16, 16]).expect("batch dim");
    let sw = pipeline.encode(&x, Mode::Eval).expect("software encode");
    let step = 2.0 / 3.0; // one 3-bit code step in normalized units
    let close = hw
        .as_slice()
        .iter()
        .zip(sw.as_slice())
        .filter(|(a, b)| (*a - *b).abs() <= step + 1e-4)
        .count();
    assert!(
        close as f32 / hw.len() as f32 > 0.8,
        "sensor and training model diverge: {close}/{}",
        hw.len()
    );

    // Hardware-in-the-loop accuracy is comparable to the software eval.
    let sw_acc = trainer::accuracy(&mut pipeline, data.val()).expect("sw eval");
    let hw_acc = hardware_accuracy(&mut pipeline, data.val(), false, 0).expect("hw eval");
    assert!(
        (sw_acc - hw_acc).abs() <= 0.35,
        "software {sw_acc} vs hardware {hw_acc}"
    );
}

#[test]
fn checkpoint_roundtrip_preserves_pipeline_behaviour() {
    let data = tiny_data(4);
    let bb = trained_backbone(&data, 4);
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let mut a = LecaPipeline::new(&cfg, Modality::Soft, bb, 5).expect("pipeline");
    let mut tc = TrainConfig::fast_test();
    tc.epochs = 1;
    trainer::train_pipeline(&mut a, data.train(), data.val(), &tc).expect("trains");

    let bytes = leca::nn::serialize::to_bytes(&mut a);
    let mut rng = StdRng::seed_from_u64(9);
    let bb2 = leca::nn::backbone::tiny_cnn(data.train().num_classes(), &mut rng);
    let mut b = LecaPipeline::new(&cfg, Modality::Soft, bb2, 6).expect("pipeline");
    leca::nn::serialize::from_bytes(&mut b, &bytes).expect("restores");

    let (x, _) = data.val().batch(0, 4).expect("batch");
    let ya = a.forward(&x, Mode::Eval).expect("a forward");
    let yb = b.forward(&x, Mode::Eval).expect("b forward");
    assert_eq!(ya, yb, "restored pipeline must match exactly");
}

#[test]
fn modality_transfer_direction_matches_paper() {
    // Soft-trained weights evaluated on the hard modality lose accuracy
    // relative to soft eval (Fig. 11's "no trivial soft→hard mapping").
    let data = tiny_data(5);
    let bb = trained_backbone(&data, 8);
    let cfg = LecaConfig::new(2, 4, 4.0).expect("config");
    let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 7).expect("pipeline");
    let mut tc = TrainConfig::fast_test();
    tc.epochs = 4;
    trainer::train_pipeline(&mut p, data.train(), data.val(), &tc).expect("trains");
    let soft_acc = trainer::accuracy(&mut p, data.val()).expect("soft eval");
    p.encoder_mut()
        .set_modality(Modality::Hard)
        .expect("switch");
    let hard_acc = trainer::accuracy(&mut p, data.val()).expect("hard eval");
    // The hard modality computes a very different function (charge-sharing
    // average with inversion), so naive transfer should not *gain*
    // accuracy beyond noise.
    assert!(
        hard_acc <= soft_acc + 0.15,
        "unexpected: naive soft->hard transfer improved accuracy ({soft_acc} -> {hard_acc})"
    );
}
