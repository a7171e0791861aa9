//! Bit-exactness lockdown for the blocked-GEMM kernel rewrite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Thread-count invariance** — the blocked GEMM runs one fixed
//!    schedule: it accumulates every output element in a single in-order
//!    chain over `k` and threads only split output tiles, so pipeline
//!    losses are bit-identical at 1 and 8 threads.
//! 2. **Golden values** — the Noisy-modality training losses and the
//!    fault-plan (Noisy plus a plan) results below were captured on the
//!    *pre-rewrite* naive kernels. The rewrite must keep reproducing them bit-for-bit;
//!    any change to reduction order (split-k, `mul_add`, a reduction
//!    split across packed slabs) trips these constants. The session
//!    goldens pin the pooled inference path the same way: f32 logits
//!    from the owned-tensor forward and from warm session passes, and
//!    the int8 session's logits and predictions.
//!
//! The golden tests run each leg inside `with_backend` on each bit-exact
//! backend in turn, so an ambient `LECA_BACKEND=fastmath` never reaches
//! the goldens, and inside `with_threads` at 1 and 8 threads. Both
//! selections are process-wide, so the tests serialize on a mutex.

use leca::circuit::fault::FaultPlan;
use leca::circuit::noise::PixelNoise;
use leca::core::config::LecaConfig;
use leca::core::deploy::{program_sensor, sensor_encode};
use leca::core::encoder::{LecaEncoder, Modality};
use leca::core::pipeline::LecaPipeline;
use leca::core::session::{InferenceSession, Precision};
use leca::core::trainer::{train_backbone, train_pipeline, TrainConfig};
use leca::data::{SynthConfig, SynthVision};
use leca::nn::backbone::tiny_cnn;
use leca::nn::loss::SoftmaxCrossEntropy;
use leca::nn::optim::Adam;
use leca::nn::{Layer, Mode};
use leca::sensor::{LecaSensor, SensorGeometry};
use leca::tensor::backend::{with_backend, Backend};
use leca::tensor::parallel::with_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
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

/// Noisy sensor-capture goldens, recorded on the serial capture chain
/// (one Box–Muller draw at a time through std `ln`/`cos`) before capture
/// drew its normals in batches. `GOLDEN_NOISY_ENCODE` pins a noisy 32x32
/// `sensor_encode` at two seeds; `GOLDEN_SUCCESSIVE_CAPTURES` pins three
/// captures on one `StdRng` plus the stream's next word, so it also pins
/// how many uniforms each capture draws.
const GOLDEN_NOISY_ENCODE: [u64; 2] = [0xa02e7a07b4bc7594, 0xb74347b3155199c8];
const GOLDEN_SUCCESSIVE_CAPTURES: u64 = 0x6bc2b8a04352ab8c;

/// Capture goldens recorded on the block-at-a-time capture chain before
/// capture ran the blocks of an ofmap row in lockstep, one per case of
/// [`capture_cases`]: each folds every code of each capture, then the
/// generator's next word after it.
const GOLDEN_CAPTURE_CASES: [u64; 4] = [
    0xdbbd60ebe37e4844,
    0x00bb6b91938adbf2,
    0x15287de681a5633c,
    0x86a6be401e2438a6,
];

/// Training-step goldens, recorded before the encoder stopped computing
/// its input gradient and before the Faulty modality folded into Noisy.
/// Per modality (Soft, Hard, Noisy, Noisy with a uniform fault plan), after
/// one backward: the loss bits, the encoder weight and `v_fs` gradient
/// checksums, and the decoder and backbone gradients folded into one. A
/// small Adam step may leave every 4-bit weight code where it was, so
/// these pin the gradients themselves.
const GOLDEN_STEP_GRADS: [[u64; 4]; 4] = [
    [
        0x3fb3b2fe,
        0x38683b3b1bb65bd8,
        0x3d06ec4d,
        0x67a94f50d70a8917,
    ],
    [
        0x3fb3a0b1,
        0xee61dc2bc794e05c,
        0x3da87a42,
        0x8ae37d8f5b9c0099,
    ],
    [
        0x3fb1fee6,
        0x458fae74f576a2ff,
        0x3d4b4f1d,
        0xe10da092331fe957,
    ],
    [
        0x3fb3831e,
        0x527c15e9a1c48213,
        0x3dbe3cae,
        0xdb2b5d5e981e531e,
    ],
];

/// Trainer golden, recorded with the step goldens: a `fast_test`
/// `train_backbone` run (parameter checksum, epoch-loss and accuracy
/// bits), then a 2-epoch Hard `train_pipeline` at Q_bit 3 with
/// incremental annealing, so the warm-up switch and the weight clamp
/// both run.
const GOLDEN_TRAINER: (u64, [u32; 2], u64, [u32; 3]) = (
    0x6f9e888d2e26ebe0,
    [0x3fb78520, 0x3e800000],
    0xf6f10ff2ba7f6531,
    [0x3fbadec4, 0x3fb8c5da, 0x3e800000],
);

/// Session goldens, recorded while a separate suite only compared these
/// values with each other. Eval-mode logits of the Soft and Hard
/// pipelines: the owned-tensor `Layer::forward` and three warm
/// `InferenceSession::logits` passes (pooled buffers reused) all produce
/// these bits.
const GOLDEN_SESSION_LOGITS: [u64; 2] = [0xeaccedb655e0c785, 0x2d7c8bbe7b177c57];

/// Int8 session golden, recorded with the f32 one: three warm
/// `logits_int8` passes (engine scratch reused) and the
/// `classify_batch_with(.., Precision::Int8)` predictions.
const GOLDEN_SESSION_INT8: ([u64; 3], [usize; 4]) = ([0x97daca0710938dab; 3], [2, 2, 2, 2]);

/// Int8 predictions on [`spread_batch`], recorded at the commit before
/// this golden was added. Unlike the session batch's, they span more than
/// one class, so a per-image routing or ordering error shows.
const GOLDEN_SESSION_INT8_SPREAD: [usize; 8] = [2, 3, 2, 3, 2, 3, 3, 3];

/// The backends the goldens hold on. On hosts without AVX2 the AVX2
/// backend runs the scalar bodies.
const BIT_EXACT: [Backend; 2] = [Backend::Scalar, Backend::Avx2];

/// The backend and thread count are process-wide: the tests serialize.
static LOCK: Mutex<()> = Mutex::new(());

/// Order-sensitive bit-level checksum of a tensor's contents.
fn checksum(t: &Tensor) -> u64 {
    t.as_slice()
        .iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ u64::from(v.to_bits()))
}

/// One training step's forward and backward through the pipeline:
/// cross-entropy on Train-mode logits, gradients accumulated in place.
/// Returns the batch loss.
fn train_step(p: &mut LecaPipeline, x: &Tensor, labels: &[usize]) -> f32 {
    let logits = Layer::forward(p, x, Mode::Train).unwrap();
    let (loss, grad) = SoftmaxCrossEntropy::new().forward(&logits, labels).unwrap();
    Layer::backward(p, &grad).unwrap();
    loss
}

/// Checksum of every parameter value, in `visit_params` order.
fn params_checksum(model: &mut dyn Layer) -> u64 {
    let mut h = 0u64;
    model.visit_params(&mut |q| h = h.rotate_left(7) ^ checksum(&q.value));
    h
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
    let l1 = train_step(&mut p, &x, &labels);
    let mut opt = Adam::new(1e-3).unwrap();
    opt.step(&mut p);
    let l2 = train_step(&mut p, &x, &labels);
    (l1.to_bits(), l2.to_bits())
}

/// The fault-plan workload: the Noisy modality with a deterministic
/// uniform plan, one eval forward and one training step. Returns (logits
/// checksum, loss bits). Its goldens date from a separate Faulty modality
/// that applied the plan on top of Noisy.
fn faulty_results() -> (u64, u32) {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(1));
    let mut p = LecaPipeline::new(&cfg, Modality::Noisy, bb, 21).unwrap();
    p.encoder_mut().set_fault_plan(FaultPlan::uniform(99, 0.05));
    let mut rng = StdRng::seed_from_u64(42);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng);
    let labels = vec![0usize, 1, 2, 3];
    let logits = Layer::forward(&mut p, &x, Mode::Eval).unwrap();
    let loss = train_step(&mut p, &x, &labels);
    (checksum(&logits), loss.to_bits())
}

/// One training step in the given modality, with `plan` installed on the
/// encoder when given: the loss bits, a checksum of each encoder
/// parameter's gradient (weight, then `v_fs`), and one checksum folding
/// the decoder's and backbone's parameter gradients in `visit_params`
/// order.
fn step_grad_checksums(modality: Modality, plan: Option<FaultPlan>) -> [u64; 4] {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(2));
    let mut p = LecaPipeline::new(&cfg, modality, bb, 31).unwrap();
    if let Some(plan) = plan {
        p.encoder_mut().set_fault_plan(plan);
    }
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut StdRng::seed_from_u64(43));
    let loss = train_step(&mut p, &x, &[0, 1, 2, 3]);
    let mut sums = [u64::from(loss.to_bits()), 0, 0, 0];
    let mut i = 0;
    p.visit_params(&mut |q| {
        let slot = (i + 1).min(3);
        sums[slot] = sums[slot].rotate_left(7) ^ checksum(&q.grad);
        i += 1;
    });
    sums
}

/// The four step-gradient workloads, in `GOLDEN_STEP_GRADS` order.
fn all_step_grad_checksums() -> [[u64; 4]; 4] {
    [
        step_grad_checksums(Modality::Soft, None),
        step_grad_checksums(Modality::Hard, None),
        step_grad_checksums(Modality::Noisy, None),
        step_grad_checksums(Modality::Noisy, Some(FaultPlan::uniform(7, 0.1))),
    ]
}

/// A `fast_test` backbone run on a tiny synthetic set, then a 2-epoch
/// incremental Hard pipeline run at Q_bit 3 on top of it.
fn trainer_results() -> (u64, [u32; 2], u64, [u32; 3]) {
    let data = SynthVision::generate(&SynthConfig::tiny_test(), 3);
    let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(4));
    let tc = TrainConfig::fast_test();
    let bb_report = train_backbone(&mut bb, data.train(), data.val(), &tc).unwrap();
    let bb_bits = [
        bb_report.epoch_losses[0].to_bits(),
        bb_report.val_accuracy.to_bits(),
    ];
    let bb_params = params_checksum(&mut bb);
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let mut p = LecaPipeline::new(&cfg, Modality::Hard, bb, 9).unwrap();
    let tc = TrainConfig {
        epochs: 2,
        incremental: true,
        ..TrainConfig::fast_test()
    };
    let report = train_pipeline(&mut p, data.train(), data.val(), &tc).unwrap();
    let bits = [
        report.epoch_losses[0].to_bits(),
        report.epoch_losses[1].to_bits(),
        report.val_accuracy.to_bits(),
    ];
    (bb_params, bb_bits, params_checksum(&mut p), bits)
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

/// The pipeline and eval batch of the session goldens.
fn session_pipeline(modality: Modality) -> (LecaPipeline, Tensor) {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let p = LecaPipeline::new(&cfg, modality, bb, 7).unwrap();
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut StdRng::seed_from_u64(42));
    (p, x)
}

/// A second eval batch for the session goldens. The untrained `tiny_cnn`
/// predicts class 2 for every image of the session batch, so those
/// predictions cannot catch a per-image routing or ordering error; its
/// predictions on this wider-range batch span more than one class.
fn spread_batch() -> Tensor {
    Tensor::rand_uniform(&[8, 3, 16, 16], -3.0, 3.0, &mut StdRng::seed_from_u64(42))
}

/// Checksums of the Eval-mode `Layer::forward` logits, then of three warm
/// session `logits` passes; whether the session's `classify_batch` picks
/// the forward logits' argmax on the session batch and on
/// [`spread_batch`]; and its predictions on the latter.
fn session_logits(modality: Modality) -> ([u64; 4], bool, Vec<usize>) {
    let (mut p, x) = session_pipeline(modality);
    let spread = spread_batch();
    let forward = Layer::forward(&mut p, &x, Mode::Eval).unwrap();
    let spread_forward = Layer::forward(&mut p, &spread, Mode::Eval).unwrap();
    let mut session = InferenceSession::for_pipeline(&mut p);
    let mut cks = [checksum(&forward); 4];
    for ck in &mut cks[1..] {
        *ck = checksum(&session.logits(&x).unwrap());
    }
    let mut preds = Vec::new();
    session.classify_batch(&x, &mut preds).unwrap();
    let mut spread_preds = Vec::new();
    session.classify_batch(&spread, &mut spread_preds).unwrap();
    let agrees = preds == forward.argmax_rows().unwrap()
        && spread_preds == spread_forward.argmax_rows().unwrap();
    (cks, agrees, spread_preds)
}

/// The int8 session leg: compile the engine from a pinned calibration
/// batch, checksum three `logits_int8` passes and collect the int8
/// predictions; then the int8 predictions on [`spread_batch`], checked
/// against its int8 logits' argmax.
fn int8_session_results() -> (([u64; 3], [usize; 4]), [usize; 8]) {
    let (mut p, x) = session_pipeline(Modality::Soft);
    let calib = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut StdRng::seed_from_u64(7));
    let mut session = InferenceSession::for_pipeline(&mut p);
    session.enable_int8(&calib).unwrap();
    let cks = [(); 3].map(|()| {
        session
            .logits_int8(&x)
            .unwrap()
            .iter()
            .fold(0u64, |h, v| h.rotate_left(7) ^ u64::from(v.to_bits()))
    });
    let mut preds = Vec::new();
    session
        .classify_batch_with(&x, &mut preds, Precision::Int8)
        .unwrap();
    let spread = spread_batch();
    let mut spread_preds = Vec::new();
    session
        .classify_batch_with(&spread, &mut spread_preds, Precision::Int8)
        .unwrap();
    let logits = Tensor::from_vec(session.logits_int8(&spread).unwrap().to_vec(), &[8, 4]);
    assert_eq!(spread_preds, logits.unwrap().argmax_rows().unwrap());
    let one_per_image = "one prediction per image";
    let preds = preds.try_into().expect(one_per_image);
    ((cks, preds), spread_preds.try_into().expect(one_per_image))
}

/// Noisy `sensor_encode` of one 32x32 RGB image through a sensor
/// programmed from a K = 2, 8-channel encoder (two readout passes), at two
/// capture seeds.
fn noisy_encode_checksums() -> [u64; 2] {
    let cfg = LecaConfig::new(2, 8, 6.0).unwrap();
    let enc = LecaEncoder::new(&cfg, Modality::Hard, 5).unwrap();
    let sensor = program_sensor(&enc, 32, 32).unwrap();
    let img = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut StdRng::seed_from_u64(3));
    [11, 12].map(|seed| checksum(&sensor_encode(&sensor, &img, true, seed).unwrap()))
}

/// Three captures on one `StdRng` through a mismatched, faulty 8-bit
/// sensor: two with the typical pixel noise, one with a noiseless pixel
/// array. `gen_range(-15..16) / 2` leaves about one code in ten zero, so
/// most kernel sites transfer charge. Folds every code, then the stream's
/// next word.
fn successive_captures_checksum() -> u64 {
    let geometry = SensorGeometry {
        rows: 16,
        cols: 16,
        n_ch: 8,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let mut sensor = LecaSensor::with_mismatch(geometry, 8.0, &mut rng).unwrap();
    let weights: Vec<Vec<i32>> = (0..8)
        .map(|_| (0..16).map(|_| rng.gen_range(-15..16) / 2).collect())
        .collect();
    sensor.program_weights(weights).unwrap();
    sensor.set_fault_plan(FaultPlan::uniform(5, 0.05)).unwrap();
    let scene: Vec<f32> = (0..256).map(|_| rng.gen()).collect();
    let mut h = 0u64;
    for noise in [
        PixelNoise::typical(),
        PixelNoise::typical(),
        PixelNoise::none(),
    ] {
        *sensor.pixels_mut() = sensor.pixels_mut().clone().with_noise(noise);
        let (ofmap, _) = sensor.capture(&scene, Some(&mut rng)).unwrap();
        for &c in ofmap.codes() {
            h = h.rotate_left(7) ^ (c as u32 as u64);
        }
    }
    h.rotate_left(7) ^ rng.next_u64()
}

/// Folds an ofmap's codes into `h`.
fn fold_codes(h: u64, codes: &[i32]) -> u64 {
    codes
        .iter()
        .fold(h, |h, &c| h.rotate_left(7) ^ (c as u32 as u64))
}

/// A sensor of `rows x cols` raw pixels and `n_ch` kernels of random
/// codes in `±15` (about one in 31 zero), typical-corner or with sampled
/// PE mismatch.
fn capture_sensor(
    rows: usize,
    cols: usize,
    n_ch: usize,
    qbit: f32,
    mismatch: bool,
    rng: &mut StdRng,
) -> LecaSensor {
    let geometry = SensorGeometry { rows, cols, n_ch };
    let mut sensor = if mismatch {
        LecaSensor::with_mismatch(geometry, qbit, rng).unwrap()
    } else {
        LecaSensor::new(geometry, qbit).unwrap()
    };
    let weights: Vec<Vec<i32>> = (0..n_ch)
        .map(|_| (0..16).map(|_| rng.gen_range(-15..16)).collect())
        .collect();
    sensor.program_weights(weights).unwrap();
    sensor
}

/// Captures `scene` once per entry of `noisy` (`true` draws from `rng`,
/// `false` is a clean capture) and folds each ofmap, then `rng`'s next
/// word.
fn fold_captures(sensor: &LecaSensor, scene: &[f32], noisy: &[bool], rng: &mut StdRng) -> u64 {
    let mut h = 0u64;
    for &noisy in noisy {
        let (ofmap, _) = if noisy {
            sensor.capture(scene, Some(&mut *rng)).unwrap()
        } else {
            sensor.capture::<StdRng>(scene, None).unwrap()
        };
        h = fold_codes(h, ofmap.codes()).rotate_left(7) ^ rng.next_u64();
    }
    h
}

/// Capture shapes the two goldens above leave out:
/// 0. ofmap width 11 (not a multiple of 8), two readout passes, 4-bit
///    ADC, typical corner, two noisy captures;
/// 1. ternary ADC on a mismatched sensor, ofmap width 10, noisy;
/// 2. clean captures of a mismatched sensor, 4-bit, two passes;
/// 3. dead columns, ADC faults and weight flips under nonzero codes,
///    n_ch 6 (a full pass and a half one), 3-bit, noisy then clean.
fn capture_cases() -> [u64; 4] {
    let mut rng = StdRng::seed_from_u64(21);
    let scene = |rows: usize, cols: usize, rng: &mut StdRng| -> Vec<f32> {
        (0..rows * cols).map(|_| rng.gen()).collect()
    };
    let s = capture_sensor(8, 44, 8, 4.0, false, &mut rng);
    let x = scene(8, 44, &mut rng);
    let tail = fold_captures(&s, &x, &[true, true], &mut rng);

    let s = capture_sensor(12, 40, 4, 1.5, true, &mut rng);
    let x = scene(12, 40, &mut rng);
    let ternary = fold_captures(&s, &x, &[true], &mut rng);

    let s = capture_sensor(8, 36, 8, 4.0, true, &mut rng);
    let x = scene(8, 36, &mut rng);
    let clean = fold_captures(&s, &x, &[false, false], &mut rng);

    let mut s = capture_sensor(8, 52, 6, 3.0, true, &mut rng);
    let plan = FaultPlan::new(17)
        .with_dead_columns(0.15)
        .with_adc_faults(0.15)
        .with_weight_bit_flips(0.1);
    assert!((0..52).any(|x| plan.column_dead(x)), "no dead column");
    assert!(
        (0..13).any(|pe| (0..6).any(|k| plan.adc_fault(pe, k, 3).is_some())),
        "no ADC fault"
    );
    s.set_fault_plan(plan).unwrap();
    let x = scene(8, 52, &mut rng);
    let faulty = fold_captures(&s, &x, &[true, false], &mut rng);
    [tail, ternary, clean, faulty]
}

#[test]
fn capture_cases_match_block_chain_goldens() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let got = with_backend(backend, || with_threads(threads, capture_cases));
            assert_eq!(
                got, GOLDEN_CAPTURE_CASES,
                "capture drifted from the block-chain goldens at \
                 {backend:?} x {threads} threads (got {got:#018x?})"
            );
        }
    }
}

#[test]
fn noisy_capture_matches_serial_chain_goldens() {
    // Capture draws no tensor kernel but the Box–Muller transform, so the
    // backend leg is the one that matters; threads are crossed for the
    // matrix's sake.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let got = with_backend(backend, || {
                with_threads(threads, || {
                    (noisy_encode_checksums(), successive_captures_checksum())
                })
            });
            assert_eq!(
                got,
                (GOLDEN_NOISY_ENCODE, GOLDEN_SUCCESSIVE_CAPTURES),
                "noisy capture drifted from the serial-chain goldens at \
                 {backend:?} x {threads} threads (got {got:#018x?})"
            );
        }
    }
}

#[test]
fn losses_bit_identical_across_thread_counts() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let single = with_threads(1, noisy_train_losses);
    let eight = with_threads(8, noisy_train_losses);
    assert_eq!(
        single, eight,
        "forward+backward losses must not depend on the thread count"
    );
    let faulty_single = with_threads(1, faulty_results);
    let faulty_eight = with_threads(8, faulty_results);
    assert_eq!(faulty_single, faulty_eight);
}

#[test]
fn noisy_training_matches_pre_rewrite_goldens() {
    // Crossed with LECA_BACKEND: every bit-exact kernel backend must
    // reproduce the pre-rewrite scalar goldens bit for bit.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let (l1, l2) = with_backend(backend, || with_threads(threads, noisy_train_losses));
            assert_eq!(
                (l1, l2),
                (GOLDEN_NOISY_LOSS1, GOLDEN_NOISY_LOSS2),
                "Noisy-modality losses drifted from pre-rewrite goldens at \
                 {backend:?} x {threads} threads (got 0x{l1:08x} / 0x{l2:08x})"
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
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let ck = with_backend(backend, || with_threads(threads, int8_logits_checksum));
            assert_eq!(
                ck, GOLDEN_INT8_LOGITS_CHECKSUM,
                "int8 logits drifted from the golden at {backend:?} \
                 x {threads} threads (got 0x{ck:016x})"
            );
        }
    }
}

#[test]
fn fault_plan_results_match_pre_rewrite_goldens() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let (ck, loss) = with_backend(backend, || with_threads(threads, faulty_results));
            assert_eq!(
                (ck, loss),
                (GOLDEN_FAULTY_LOGITS_CHECKSUM, GOLDEN_FAULTY_LOSS),
                "fault-plan results drifted from pre-rewrite goldens at \
                 {backend:?} x {threads} threads (got 0x{ck:016x} / 0x{loss:08x})"
            );
        }
    }
}

#[test]
fn step_gradients_match_goldens() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let got = with_backend(backend, || with_threads(threads, all_step_grad_checksums));
            assert_eq!(
                got, GOLDEN_STEP_GRADS,
                "training-step gradients drifted from their goldens at \
                 {backend:?} x {threads} threads (got {got:#018x?})"
            );
        }
    }
}

#[test]
fn trainer_runs_match_goldens() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let got = with_backend(backend, || with_threads(threads, trainer_results));
            assert_eq!(
                got, GOLDEN_TRAINER,
                "backbone and pipeline training drifted from their goldens at \
                 {backend:?} x {threads} threads (got {got:#x?})"
            );
        }
    }
}

#[test]
fn session_logits_match_goldens() {
    // The pooled session path and the owned-tensor forward agree bit for
    // bit on every leg, and repeated passes through the reused buffers
    // do not drift.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            for (modality, golden) in [Modality::Soft, Modality::Hard]
                .into_iter()
                .zip(GOLDEN_SESSION_LOGITS)
            {
                let (cks, argmax_agrees, spread_preds) = with_backend(backend, || {
                    with_threads(threads, || session_logits(modality))
                });
                assert_eq!(
                    cks, [golden; 4],
                    "{modality:?} forward and session logits drifted from the golden at \
                     {backend:?} x {threads} threads (got {cks:#018x?})"
                );
                assert!(
                    argmax_agrees,
                    "{modality:?} classify_batch disagrees with the logits' argmax at \
                     {backend:?} x {threads} threads"
                );
                assert!(
                    spread_preds.iter().any(|&c| c != spread_preds[0]),
                    "{modality:?} predictions on the spread batch name one class (got {spread_preds:?})"
                );
            }
        }
    }
    // Fast-math is not bit-exact with scalar, so it has no golden. Its
    // forward and warm session passes still agree bit for bit, and do not
    // depend on the thread count.
    if !Backend::FastMath.available() {
        return;
    }
    for modality in [Modality::Soft, Modality::Hard] {
        let legs = [1, 8].map(|threads| {
            let (cks, argmax_agrees, _) = with_backend(Backend::FastMath, || {
                with_threads(threads, || session_logits(modality))
            });
            assert_eq!(
                cks, [cks[0]; 4],
                "{modality:?} fast-math forward and session logits disagree at \
                 {threads} threads (got {cks:#018x?})"
            );
            assert!(
                argmax_agrees,
                "{modality:?} fast-math classify_batch disagrees with the logits' argmax at \
                 {threads} threads"
            );
            cks
        });
        assert_eq!(
            legs[0], legs[1],
            "{modality:?} fast-math logits depend on the thread count"
        );
    }
}

#[test]
fn int8_session_matches_golden() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in BIT_EXACT {
        for threads in [1, 8] {
            let (got, spread_preds) =
                with_backend(backend, || with_threads(threads, int8_session_results));
            assert_eq!(
                (got, spread_preds),
                (GOLDEN_SESSION_INT8, GOLDEN_SESSION_INT8_SPREAD),
                "int8 session logits or predictions drifted from the goldens at \
                 {backend:?} x {threads} threads (got {got:#018x?}, {spread_preds:?})"
            );
        }
    }
}
