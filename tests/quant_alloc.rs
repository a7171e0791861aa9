//! Allocation lockdown for the int8 warm inference path.
//!
//! The quantized engine owns every scratch buffer it needs — ADC code
//! planes, per-stage int8 activation buffers, the f32 residual/GAP/logit
//! tails — all grown during [`leca::core::session::InferenceSession::warm_up`].
//! After warm-up, a steady-state int8 `classify_batch_with` must perform
//! **zero heap allocations**, exactly like the f32 workspace path pinned
//! by `tests/alloc_regression.rs`.
//!
//! The thread count is pinned to 1 with `with_threads` (the thread
//! pool's chunked dispatch allocates per parallel region). This file deliberately holds exactly
//! one `#[test]` so no concurrent test pollutes the counters (each
//! integration-test file is its own process and allocator).

mod counting_alloc;

use counting_alloc::alloc_count;
use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::{InferenceSession, Precision};
use leca::nn::backbone::tiny_cnn;
use leca::tensor::parallel::with_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn int8_steady_state_makes_no_heap_allocations() {
    with_threads(1, int8_steady_state);
}

fn int8_steady_state() {
    let lc = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let pipeline = LecaPipeline::new(&lc, Modality::Soft, bb, 7).unwrap();
    let mut session = InferenceSession::owning(pipeline);

    let mut rng = StdRng::seed_from_u64(5);
    let calib = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    session.enable_int8(&calib).unwrap();

    // With an engine compiled, `warm_up` also runs throwaway int8
    // batches, growing the engine's scratch for this exact shape.
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    let mut preds = Vec::new();
    session.warm_up(&[4, 3, 16, 16]).unwrap();
    for _ in 0..4 {
        session
            .classify_batch_with(&x, &mut preds, Precision::Int8)
            .unwrap();
    }

    let before = alloc_count();
    const ITERS: usize = 50;
    let mut guard = 0usize;
    for _ in 0..ITERS {
        session
            .classify_batch_with(&x, &mut preds, Precision::Int8)
            .unwrap();
        guard += preds.iter().sum::<usize>();
    }
    let steady = alloc_count() - before;
    println!("int8: {steady} heap allocations across {ITERS} warm classify_batch_with calls");
    assert_eq!(
        steady, 0,
        "warm int8 classify_batch_with must not touch the heap \
         ({steady} allocations across {ITERS} batches)"
    );
    assert!(guard < ITERS * 4 * 4, "predictions stayed in range");
}
