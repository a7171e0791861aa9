//! Allocation lockdown for the serving warm path.
//!
//! A counting global allocator wraps `System`; after the service has
//! warmed (sessions warmed per batch size, reply slots pooled, queue and
//! scratch storage at capacity), the steady-state request path —
//! `submit` → enqueue → batch → `classify_batch` → reply → `wait` —
//! must perform **zero heap allocations** end to end, for both
//! single-request batches and coalesced bursts.
//!
//! `LECA_THREADS` is pinned to 1 (the thread pool's chunked dispatch
//! allocates per parallel region) and the service runs one shard. The
//! client reuses one `Arc<Tensor>` payload: cloning an `Arc` is a
//! refcount bump, so request payloads cost nothing either. This file
//! deliberately holds exactly one `#[test]` so no concurrent test
//! pollutes the counters (each integration-test file is its own process
//! and allocator).

mod counting_alloc;

use counting_alloc::alloc_count;
use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::InferenceSession;
use leca::nn::backbone::tiny_cnn;
use leca::serve::{ServeConfig, Service};
use leca::tensor::parallel::refresh_num_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const SAMPLE_SHAPE: [usize; 4] = [1, 3, 16, 16];
const HANG: Duration = Duration::from_secs(30);

/// One single-request round trip plus one 4-deep burst (coalesced into
/// larger batches by the dynamic batcher).
fn one_round(service: &Service, payload: &Arc<Tensor>) {
    let t = service.submit(0, Arc::clone(payload)).unwrap();
    t.wait_for(HANG).expect("must resolve").expect("no chaos");
    // A fixed array, not a Vec: the harness itself must not allocate.
    let burst: [leca::serve::Ticket; 4] =
        std::array::from_fn(|_| service.submit(0, Arc::clone(payload)).unwrap());
    for t in burst {
        t.wait_for(HANG).expect("must resolve").expect("no chaos");
    }
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_THREADS=1 before the first pool use, so the counted warm loop runs on the test thread"
)]
fn serving_steady_state_makes_no_heap_allocations() {
    std::env::set_var("LECA_THREADS", "1");
    refresh_num_threads();

    let cfg = ServeConfig {
        shards: 1,
        max_batch: 4,
        queue_cap: 16,
        linger_us: 100,
        warm_shape: Some(SAMPLE_SHAPE.to_vec()),
        ..Default::default()
    };
    let service = Service::start(cfg, || {
        let lc = LecaConfig::new(2, 4, 3.0).unwrap();
        let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
        InferenceSession::owning(LecaPipeline::new(&lc, Modality::Soft, bb, 7).unwrap())
    })
    .unwrap();

    let payload = Arc::new(Tensor::zeros(&SAMPLE_SHAPE));

    // Warm phase: populate the slot pool, the per-batch-size tensor
    // cache, the prediction vector and the queue's scratch storage. The
    // burst in `one_round` means every batch size the steady state will
    // see has already been exercised.
    for _ in 0..20 {
        one_round(&service, &payload);
    }

    let before = alloc_count();
    const ITERS: usize = 40;
    for _ in 0..ITERS {
        one_round(&service, &payload);
    }
    let steady = alloc_count() - before;
    println!("serving: {steady} heap allocations across {ITERS} steady-state rounds");
    assert_eq!(
        steady, 0,
        "steady-state serving must not touch the heap \
         ({steady} allocations across {ITERS} rounds of 5 requests)"
    );

    let report = service.shutdown();
    assert_eq!(report.admitted, report.resolved());
    assert_eq!(report.completed, 60 * 5, "every request must succeed");
    assert!(report.timed_out == 0 && report.worker_failed == 0);
}
