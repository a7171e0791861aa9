//! Allocation lockdown for **training-mode** activations.
//!
//! ReLU historically collected a fresh `Vec<bool>` mask on every training
//! forward; the mask is now a pooled `1.0/0.0` tensor checked out of the
//! workspace, so a warm `forward_ws(Train)` must not touch the heap at
//! all. Same counting-allocator setup as
//! `alloc_regression.rs`, and the same rule: exactly one `#[test]` in
//! this file so no concurrent test pollutes the counters.

mod counting_alloc;

use counting_alloc::alloc_count;
use leca::nn::layers::Relu;
use leca::nn::{Layer, Mode};
use leca::tensor::parallel::refresh_num_threads;
use leca::tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_THREADS=1 before the first pool use, so the counted warm loop runs on the test thread"
)]
fn train_mode_activation_forward_makes_no_steady_state_allocations() {
    std::env::set_var("LECA_THREADS", "1");
    refresh_num_threads();

    let ws = Workspace::new();
    let mut rng = StdRng::seed_from_u64(3);
    let x = Tensor::rand_uniform(&[4, 64], -1.0, 1.0, &mut rng);
    let g = Tensor::rand_uniform(&[4, 64], -1.0, 1.0, &mut rng);

    let mut relu = Relu::new();

    // Warm-up with the exact steady-state checkout pattern (mask and
    // output live at once, so the pool grows to the true peak), pinning
    // the reference gradient for the correctness check below.
    let mut expect = None;
    for _ in 0..3 {
        let y = relu.forward_ws(&x, Mode::Train, &ws).unwrap();
        drop(y);
        expect = Some(relu.backward(&g).unwrap());
    }
    let expect = expect.unwrap();

    // Steady state: count heap traffic of the training forwards only (the
    // backward still returns a freshly allocated gradient tensor by API).
    const ITERS: usize = 10;
    let mut forward_allocs = 0;
    for _ in 0..ITERS {
        let before = alloc_count();
        let y = relu.forward_ws(&x, Mode::Train, &ws).unwrap();
        forward_allocs += alloc_count() - before;
        drop(y);
        let gr = relu.backward(&g).unwrap();
        assert_eq!(gr.as_slice(), expect.as_slice());
    }
    assert_eq!(
        forward_allocs, 0,
        "warm train-mode activation forwards must not allocate \
         ({forward_allocs} allocations across {ITERS} iterations)"
    );
}
