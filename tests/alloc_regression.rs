//! Allocation lockdown for the workspace memory plan.
//!
//! A counting global allocator wraps `System`; after an
//! [`InferenceSession`] warm-up, repeated same-shape `classify_batch`
//! calls must perform **zero heap allocations**: every activation comes
//! from the workspace free list, the GEMM scratch thread-locals are
//! already grown, and the prediction vector reuses its capacity.
//!
//! `LECA_THREADS` is pinned to 1 because the thread pool's chunked
//! dispatch allocates per parallel region; the single-threaded path runs
//! inline. This file deliberately holds exactly one `#[test]` so no
//! concurrent test pollutes the counters (each integration-test file is
//! its own process and allocator).

mod counting_alloc;

use counting_alloc::alloc_count;
use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::InferenceSession;
use leca::nn::backbone::tiny_cnn;
use leca::nn::Mode;
use leca::tensor::parallel::refresh_num_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn classify_batch_steady_state_makes_no_heap_allocations() {
    std::env::set_var("LECA_THREADS", "1");
    refresh_num_threads();

    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 7).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut rng);

    // Reference point: what the allocating forward path costs per batch.
    let expect = {
        let before = alloc_count();
        let logits = p.forward(&x, Mode::Eval).unwrap();
        let allocating_per_batch = alloc_count() - before;
        assert!(
            allocating_per_batch > 0,
            "the plain forward path is expected to allocate"
        );
        println!("allocating forward: {allocating_per_batch} heap allocations per batch");
        logits.argmax_rows().unwrap()
    };

    let mut session = InferenceSession::for_pipeline(&mut p);
    let mut preds: Vec<usize> = Vec::new();
    // Warm-up: populate the pool, grow the GEMM scratch thread-locals and
    // the prediction vector.
    for _ in 0..3 {
        session.classify_batch(&x, &mut preds).unwrap();
    }
    let warm_misses = session.stats().misses;

    let before = alloc_count();
    const ITERS: usize = 10;
    for _ in 0..ITERS {
        session.classify_batch(&x, &mut preds).unwrap();
    }
    let steady = alloc_count() - before;
    println!(
        "workspace session: {steady} heap allocations across {ITERS} steady-state batches; {}",
        session.stats()
    );
    assert_eq!(
        steady, 0,
        "steady-state classify_batch must not touch the heap \
         ({steady} allocations across {ITERS} batches)"
    );

    // And the pooled path still agrees with the allocating reference.
    assert_eq!(preds, expect);
    let stats = session.stats();
    assert_eq!(
        stats.live, 0,
        "every pooled buffer must be back in the pool"
    );
    assert_eq!(
        stats.misses, warm_misses,
        "steady-state batches must be served entirely from the free list"
    );
}
