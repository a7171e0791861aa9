//! Bit-exactness lockdown for the blocked-GEMM kernel rewrite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Thread-count invariance** — the blocked GEMM runs one fixed
//!    schedule: it accumulates every output element in a single in-order
//!    chain over `k` and threads only split output tiles, so pipeline
//!    losses are bit-identical under `LECA_THREADS=1` and
//!    `LECA_THREADS=8`.
//! 2. **Golden values** — the Noisy-modality training losses and the
//!    fault-plan (Faulty) results below were captured on the *pre-rewrite*
//!    naive kernels. The rewrite must keep reproducing them bit-for-bit;
//!    any change to reduction order (split-k, `mul_add`, a reduction
//!    split across packed slabs) trips these constants.
//!
//! The golden tests pin `LECA_BACKEND` to each bit-exact backend in
//! turn, so an ambient `LECA_BACKEND=fastmath` never reaches the goldens.
//! The tests mutate the process-global `LECA_THREADS` and `LECA_BACKEND` via
//! the `refresh_*` hooks, so they serialize on a mutex.

use leca::circuit::fault::FaultPlan;
use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::nn::backbone::tiny_cnn;
use leca::nn::optim::Adam;
use leca::nn::{Layer, Mode};
use leca::tensor::backend::refresh_backend;
use leca::tensor::parallel::refresh_num_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Pre-rewrite golden bit patterns (captured on the naive kernels at
/// commit 43807a0, LECA_THREADS unset).
const GOLDEN_NOISY_LOSS1: u32 = 0x3fb13162;
const GOLDEN_NOISY_LOSS2: u32 = 0x3fb08e07;
const GOLDEN_FAULTY_LOGITS_CHECKSUM: u64 = 0x9e2abb0697a247cc;
const GOLDEN_FAULTY_LOSS: u32 = 0x3fb3698f;

/// Int8 golden, captured when the quantized engine landed (scalar qgemm,
/// `LECA_BACKEND=scalar` and `LECA_THREADS=1`).
/// The int8 path quantizes with round-to-nearest-even and requantizes
/// through exact i32 accumulators, so every backend/thread leg must
/// reproduce this bit pattern — and the f32 goldens above must stay
/// untouched by the quantization machinery.
const GOLDEN_INT8_LOGITS_CHECKSUM: u64 = 0xed4e9cb5aa79e081;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with `LECA_THREADS` set to `threads`, restoring the
/// previous value (and cached count) afterwards.
fn with_threads<T>(threads: usize, body: impl FnOnce() -> T) -> T {
    let old = std::env::var("LECA_THREADS").ok();
    std::env::set_var("LECA_THREADS", threads.to_string());
    refresh_num_threads();
    let out = body();
    match old {
        Some(v) => std::env::set_var("LECA_THREADS", v),
        None => std::env::remove_var("LECA_THREADS"),
    }
    refresh_num_threads();
    out
}

/// Runs `body` with `LECA_BACKEND` set to `name`, restoring the previous
/// value (and cached dispatch) afterwards.
fn with_backend<T>(name: &str, body: impl FnOnce() -> T) -> T {
    let old = std::env::var("LECA_BACKEND").ok();
    std::env::set_var("LECA_BACKEND", name);
    refresh_backend();
    let out = body();
    match old {
        Some(v) => std::env::set_var("LECA_BACKEND", v),
        None => std::env::remove_var("LECA_BACKEND"),
    }
    refresh_backend();
    out
}

/// Order-sensitive bit-level checksum of a tensor's contents.
fn checksum(t: &Tensor) -> u64 {
    t.as_slice()
        .iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ u64::from(v.to_bits()))
}

/// The golden workload: two Noisy-modality joint training steps (forward +
/// backward + Adam update between them), all seeds pinned. Returns the two
/// loss bit patterns.
fn noisy_train_losses() -> (u32, u32) {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let mut p = LecaPipeline::new(&cfg, Modality::Noisy, bb, 7).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    let labels = vec![0usize, 1, 2, 3];
    let l1 = p.train_step(&x, &labels).unwrap();
    let mut opt = Adam::new(1e-3).unwrap();
    opt.step(&mut p);
    let l2 = p.train_step(&x, &labels).unwrap();
    (l1.to_bits(), l2.to_bits())
}

/// The fault-plan workload from PR 1: Faulty modality with a deterministic
/// uniform plan, one eval forward and one training step. Returns (logits
/// checksum, loss bits).
fn faulty_results() -> (u64, u32) {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(1));
    let mut p = LecaPipeline::new(&cfg, Modality::Faulty, bb, 21).unwrap();
    p.encoder_mut().set_fault_plan(FaultPlan::uniform(99, 0.05));
    let mut rng = StdRng::seed_from_u64(42);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    let labels = vec![0usize, 1, 2, 3];
    let logits = Layer::forward(&mut p, &x, Mode::Eval).unwrap();
    let loss = p.train_step(&x, &labels).unwrap();
    (checksum(&logits), loss.to_bits())
}

/// The int8 workload: compile a quantized engine from a pinned Soft
/// pipeline + calibration batch, run one eval batch, checksum the f32
/// logits it produces.
fn int8_logits_checksum() -> u64 {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 7).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let calib = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    let mut engine = leca::core::quantized::QuantizedEngine::compile(&mut p, &calib).unwrap();
    let logits = engine.logits(&x).unwrap();
    logits
        .iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ u64::from(v.to_bits()))
}

#[test]
fn losses_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let single = with_threads(1, noisy_train_losses);
    let eight = with_threads(8, noisy_train_losses);
    assert_eq!(
        single, eight,
        "forward+backward losses must not depend on LECA_THREADS"
    );
    let faulty_single = with_threads(1, faulty_results);
    let faulty_eight = with_threads(8, faulty_results);
    assert_eq!(faulty_single, faulty_eight);
}

#[test]
fn noisy_training_matches_pre_rewrite_goldens() {
    // Crossed with LECA_BACKEND: every registered kernel backend must
    // reproduce the pre-rewrite scalar goldens bit for bit.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in ["scalar", "avx2"] {
        for threads in [1, 8] {
            let (l1, l2) = with_backend(backend, || with_threads(threads, noisy_train_losses));
            assert_eq!(
                (l1, l2),
                (GOLDEN_NOISY_LOSS1, GOLDEN_NOISY_LOSS2),
                "Noisy-modality losses drifted from pre-rewrite goldens at \
                 LECA_BACKEND={backend} LECA_THREADS={threads} (got 0x{l1:08x} / 0x{l2:08x})"
            );
        }
    }
}

#[test]
fn int8_logits_match_golden_across_simd_and_threads() {
    // The precision axis of the determinism matrix: the int8 engine's
    // logits are pinned to one golden across every LECA_BACKEND x
    // LECA_THREADS leg, while the f32 goldens above stay untouched
    // (asserted by their own tests in this same process).
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in ["scalar", "avx2"] {
        for threads in [1, 8] {
            let ck = with_backend(backend, || with_threads(threads, int8_logits_checksum));
            assert_eq!(
                ck, GOLDEN_INT8_LOGITS_CHECKSUM,
                "int8 logits drifted from the golden at LECA_BACKEND={backend} \
                 LECA_THREADS={threads} (got 0x{ck:016x})"
            );
        }
    }
}

#[test]
fn fault_plan_results_match_pre_rewrite_goldens() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in ["scalar", "avx2"] {
        for threads in [1, 8] {
            let (ck, loss) = with_backend(backend, || with_threads(threads, faulty_results));
            assert_eq!(
                (ck, loss),
                (GOLDEN_FAULTY_LOGITS_CHECKSUM, GOLDEN_FAULTY_LOSS),
                "Faulty-modality results drifted from pre-rewrite goldens at \
                 LECA_BACKEND={backend} LECA_THREADS={threads} (got 0x{ck:016x} / 0x{loss:08x})"
            );
        }
    }
}
