//! Micro-benchmarks of the component models, emitted as
//! `BENCH_micro.json` in the current directory.
//!
//! Five groups, each a set of named [`Workload`]s timed by the shared
//! [`Profiler`] under the ambient backend and thread count:
//!
//! * `circuit` — analog SCM MAC chain and gradients, SAR ADC, PE block
//!   encode (one lane of the lane pass);
//! * `codecs` — 32x32 transcode through every baseline codec;
//! * `leca_encoder` — the encoder's three modalities, plus one
//!   forward/backward step;
//! * `sensor` — full-frame capture (noise-free and noisy) and the energy /
//!   timing models;
//! * `leca_inference` — the workspace-backed `InferenceSession`, logits
//!   alone and the full classify path, on the same batch.
//!
//! Workload names are stable keys (EXPERIMENTS.md quotes them).
//! `--smoke` runs every workload end to end with the cut-down timing
//! policy and **does not** write `BENCH_micro.json`.
//!
//! Run from the repo root, where the record is checked in:
//! `cargo run --release -p leca-bench --bin micro_bench [-- --smoke]`.

use leca_baselines::agt::Agt;
use leca_baselines::cnv::Cnv;
use leca_baselines::cs::Cs;
use leca_baselines::jpeg::Jpeg;
use leca_baselines::lr::Lr;
use leca_baselines::ms::Ms;
use leca_baselines::sd::Sd;
use leca_baselines::Codec;
use leca_bench::profiler::Profiler;
use leca_bench::workload::Workload;
use leca_circuit::adc::{AdcModel, AdcResolution};
use leca_circuit::pe::{AnalogPe, LanePass, BLOCK_PIXELS, LANES};
use leca_circuit::scm::ScmModel;
use leca_circuit::CircuitParams;
use leca_core::config::LecaConfig;
use leca_core::encoder::{LecaEncoder, Modality};
use leca_core::pipeline::LecaPipeline;
use leca_core::InferenceSession;
use leca_nn::backbone::tiny_cnn;
use leca_nn::{Layer, Mode};
use leca_sensor::energy::EnergyModel;
use leca_sensor::timing::TimingModel;
use leca_sensor::{LecaSensor, SensorGeometry};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn pipeline() -> LecaPipeline {
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    LecaPipeline::new(&cfg, Modality::Soft, bb, 7).expect("pipeline")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profiler = if smoke {
        Profiler::smoke()
    } else {
        Profiler::standard()
    };
    // Inputs first: every workload below borrows from them.
    let params = CircuitParams::paper_65nm();
    let scm = ScmModel::new(params.clone());
    let adc = AdcModel::new(AdcResolution::Sar(4), 0.35).expect("adc");
    let pe = AnalogPe::typical(&params, AdcResolution::Sar(3)).expect("pe");
    let pe_pass = LanePass::new(&[pe], &vec![vec![7i32; BLOCK_PIXELS]; 4]).expect("pass");
    // One block, in lane 0.
    let mut block = [[0.0f32; LANES]; BLOCK_PIXELS];
    for (i, px) in block.iter_mut().enumerate() {
        px[0] = i as f32 / 15.0;
    }

    let img = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut StdRng::seed_from_u64(0));
    // (name, nominal iterations, codec)
    let codecs: Vec<(&'static str, u32, Box<dyn Codec>)> = vec![
        ("transcode_32x32_cnv", 5_000, Box::new(Cnv::new())),
        (
            "transcode_32x32_sd_cr4",
            1_000,
            Box::new(Sd::for_cr(4).expect("cfg")),
        ),
        (
            "transcode_32x32_lr_cr4",
            2_000,
            Box::new(Lr::for_cr(4).expect("cfg")),
        ),
        ("transcode_32x32_ms", 500, Box::new(Ms::new())),
        ("transcode_32x32_agt", 2_000, Box::new(Agt::paper())),
        (
            "transcode_32x32_jpeg_q50",
            200,
            Box::new(Jpeg::new(50).expect("cfg")),
        ),
        (
            "transcode_32x32_cs_4x",
            3,
            Box::new(Cs::paper_4x(0).expect("cfg")),
        ),
    ];

    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let x32 = Tensor::rand_uniform(&[8, 3, 32, 32], 0.05, 0.95, &mut StdRng::seed_from_u64(0));
    let new_encoder = |m| LecaEncoder::new(&cfg, m, 0).expect("encoder");
    // (name, nominal iterations, encoder)
    let mut encoders = [
        ("forward_soft_8x3x32x32", 500, new_encoder(Modality::Soft)),
        ("forward_hard_8x3x32x32", 30, new_encoder(Modality::Hard)),
        ("forward_noisy_8x3x32x32", 5, new_encoder(Modality::Noisy)),
    ];
    let mut trained = new_encoder(Modality::Hard);

    // A 64x64 raw array (32x32 RGB) — the proxy deployment size.
    let geom = SensorGeometry {
        rows: 64,
        cols: 64,
        n_ch: 4,
    };
    let mut sensor = LecaSensor::new(geom, 3.0).expect("sensor");
    sensor
        .program_weights(vec![vec![7i32; 16]; 4])
        .expect("weights");
    let scene: Vec<f32> = (0..64 * 64).map(|i| (i % 64) as f32 / 63.0).collect();
    let mut capture_rng = StdRng::seed_from_u64(2);
    let energy = EnergyModel::paper();
    let timing = TimingModel::paper();

    // Logits alone and the full classify path on the same batch.
    let batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.05, 0.95, &mut StdRng::seed_from_u64(1));
    let mut for_logits = pipeline();
    let mut session = InferenceSession::for_pipeline(&mut for_logits);
    session.warm_up(batch.shape()).expect("warm-up");
    let mut for_classify = pipeline();
    let mut classifier = InferenceSession::for_pipeline(&mut for_classify);
    classifier.warm_up(batch.shape()).expect("warm-up");
    let mut preds = Vec::new();

    let mut set: Vec<(&str, Workload<'_>)> = vec![
        (
            "circuit",
            Workload::new("scm_mac_chain_16", 1_000_000, || {
                let mut v = params.vcm;
                for i in 0..16u32 {
                    v = scm.step(v, 0.5 + (i as f32) * 0.01, 60.0);
                }
                black_box(v);
            }),
        ),
        (
            "circuit",
            Workload::new("scm_step_grads", 10_000_000, || {
                black_box(scm.step_grads(0.58, 0.7, 60.0));
            }),
        ),
        (
            "circuit",
            Workload::new("adc_quantize_4bit", 100_000, || {
                let mut acc = 0i32;
                for i in 0..64 {
                    acc += adc.quantize(-0.35 + i as f32 * 0.011);
                }
                black_box(acc);
            }),
        ),
        (
            "circuit",
            Workload::new("pe_encode_block_4_kernels", 50_000, || {
                black_box(pe_pass.encode(&block, None)[0][0]);
            }),
        ),
    ];
    for (name, iters, codec) in &codecs {
        let img = &img;
        set.push((
            "codecs",
            Workload::new(name, *iters, move || {
                black_box(codec.transcode(img).expect("transcode"));
            }),
        ));
    }
    for (name, iters, enc) in &mut encoders {
        let x = &x32;
        set.push((
            "leca_encoder",
            Workload::new(name, *iters, move || {
                black_box(enc.forward(x, Mode::Eval).expect("forward"));
            }),
        ));
    }
    set.extend([
        (
            "leca_encoder",
            Workload::new("forward_backward_hard_8x3x32x32", 10, || {
                trained.zero_grad();
                let y = trained.forward(&x32, Mode::Train).expect("forward");
                black_box(
                    trained
                        .backward(&Tensor::ones(y.shape()))
                        .expect("backward"),
                );
            }),
        ),
        (
            "sensor",
            Workload::new("capture_64x64_leca", 200, || {
                black_box(sensor.capture::<StdRng>(&scene, None).expect("capture"));
            }),
        ),
        (
            "sensor",
            Workload::new("capture_64x64_leca_noisy", 50, || {
                black_box(
                    sensor
                        .capture(&scene, Some(&mut capture_rng))
                        .expect("capture"),
                );
            }),
        ),
        (
            "sensor",
            Workload::new("capture_64x64_normal", 1_000, || {
                black_box(
                    sensor
                        .capture_normal::<StdRng>(&scene, None)
                        .expect("capture"),
                );
            }),
        ),
        (
            "sensor",
            Workload::new("energy_model_full_sweep", 500_000, || {
                let g4 = SensorGeometry::paper(8);
                let g8 = SensorGeometry::paper(4);
                black_box((
                    energy.cnv_frame(448, 448).expect("cnv"),
                    energy.leca_frame(&g4, 3.0).expect("cr4"),
                    energy.leca_frame(&g8, 3.0).expect("cr8"),
                    energy.cs_frame(448, 448).expect("cs"),
                ));
            }),
        ),
        (
            "sensor",
            Workload::new("timing_model", 5_000_000, || {
                black_box((
                    timing.fps(&SensorGeometry::paper(4)),
                    timing.fps(&SensorGeometry::hd1080(4)),
                ));
            }),
        ),
        (
            "leca_inference",
            Workload::new("workspace_session_8x3x32x32", 5, || {
                black_box(session.logits(&batch).expect("logits"));
            }),
        ),
        (
            "leca_inference",
            Workload::new("workspace_classify_batch_8x3x32x32", 5, || {
                classifier
                    .classify_batch(&batch, &mut preds)
                    .expect("classify");
                black_box(preds.len());
            }),
        ),
    ]);

    let mut rows = Vec::new();
    for (group, wl) in &mut set {
        let s = profiler.time(wl.iters, || wl.step());
        println!(
            "{:<16} {:<36} {:>14.1} ns  (min {:.1}, max {:.1})",
            group, wl.name, s.median_ns, s.min_ns, s.max_ns
        );
        rows.push(format!(
            "    {{\"group\": \"{group}\", \"name\": \"{}\", \"median_ns\": {:.1}, \
             \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"iters\": {}}}",
            wl.name, s.median_ns, s.min_ns, s.max_ns, s.samples, s.iters
        ));
    }

    if smoke {
        println!("\nsmoke mode: all workloads exercised; BENCH_micro.json left untouched");
        return;
    }
    let json = format!(
        "{{\n  \"threads\": {},\n  \"backend\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        leca_tensor::parallel::num_threads(),
        leca_tensor::backend::active().name(),
        rows.join(",\n")
    );
    // The current directory: run from the repo root to update the
    // checked-in record, from anywhere else to leave it alone.
    std::fs::write("BENCH_micro.json", json).expect("write BENCH_micro.json");
    println!("\nwrote BENCH_micro.json in the current directory");
}
