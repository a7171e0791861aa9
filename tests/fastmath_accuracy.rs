//! End-to-end accuracy guard for the fast-math tier.
//!
//! The kernel-level parity suites bound per-kernel relative error; this
//! test bounds what actually matters to a deployment: top-1 predictions.
//! The same pinned pipeline classifies the same 1024 images on the scalar
//! and the fast-math backend, and the tiers may disagree on at most 1
//! image in 1024 (< 0.1 percentage points) — fast-math buys throughput
//! with rounding differences, never with visible accuracy.
//!
//! Skips (passes vacuously) on hosts without AVX2+FMA, where the
//! fastmath tier is not available.

use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::InferenceSession;
use leca::nn::backbone::tiny_cnn;
use leca::tensor::backend::{with_backend, Backend};
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Top-1 predictions for 32 batches x 32 images through a pinned Soft
/// pipeline, under whatever backend is currently selected.
fn predictions() -> Vec<usize> {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 7).unwrap();
    let mut session = InferenceSession::for_pipeline(&mut p);
    let mut rng = StdRng::seed_from_u64(1234);
    let mut preds = Vec::new();
    let mut batch_preds = Vec::new();
    for _ in 0..32 {
        let x = Tensor::rand_uniform(&[32, 3, 16, 16], 0.1, 0.9, &mut rng);
        session.classify_batch(&x, &mut batch_preds).unwrap();
        preds.extend_from_slice(&batch_preds);
    }
    preds
}

#[test]
fn fastmath_top1_within_a_tenth_of_a_point_of_scalar() {
    if !Backend::FastMath.available() {
        eprintln!("fastmath not available on this host; skipping");
        return;
    }

    let scalar = with_backend(Backend::Scalar, predictions);
    let fast = with_backend(Backend::FastMath, predictions);
    assert_eq!(scalar.len(), 1024);
    assert_eq!(scalar.len(), fast.len());

    let mismatches = scalar.iter().zip(&fast).filter(|(s, f)| s != f).count();
    eprintln!("fastmath top-1 disagreements: {mismatches}/1024");
    assert!(
        mismatches <= 1,
        "fastmath flipped {mismatches}/1024 top-1 predictions (> 0.1 pp)"
    );
}
