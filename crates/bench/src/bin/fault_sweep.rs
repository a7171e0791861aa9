//! Robustness: accuracy vs hardware fault rate, LeCA vs codec baselines.
//!
//! Sweeps a per-site defect rate (stuck/hot pixels, dead columns, weight
//! SRAM bit flips, stuck/missing ADC codes — see `leca_circuit::fault`)
//! and scores three paths at each point:
//!
//! * **LeCA (noisy-trained)** — the Fig. 11 noisy pipeline deployed on a
//!   faulty sensor it never saw during training;
//! * **LeCA (fault-aware ft)** — the same Noisy pipeline fine-tuned for a
//!   few epochs with its own die's defect map installed as the encoder's
//!   fault plan (same fault seed: sites active at low rates are a subset
//!   of those at high rates, so calibration transfers across the sweep);
//! * **codec baselines** — a conventional sensor with the same per-site
//!   defects captures the image, then the codec compresses it.

use leca_baselines::cnv::Cnv;
use leca_baselines::jpeg::Jpeg;
use leca_baselines::Codec;
use leca_bench as harness;
use leca_circuit::fault::FaultPlan;
use leca_core::cache;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::eval::fault_sweep;
use leca_core::LecaPipeline;
use leca_data::SynthVision;

/// One deterministic defect draw shared by training and evaluation.
const FAULT_SEED: u64 = 0xfa017;

/// The rate the fault-aware pipeline is fine-tuned against.
const TRAIN_RATE: f64 = 0.02;

fn rates() -> Vec<f64> {
    if harness::fast_mode() {
        vec![0.0, 0.02, 0.05]
    } else {
        vec![0.0, 0.005, 0.01, 0.02, 0.05, 0.1]
    }
}

/// The noisy-trained CR=6 pipeline from the shared cache.
fn noisy_pipeline(data: &SynthVision) -> harness::Result<(LecaPipeline, f32)> {
    let (bb, _) = harness::cached_backbone("backbone-proxy", data)?;
    let cfg = LecaConfig::paper_for_cr(6)?;
    harness::cached_pipeline("pipe-fault-noisy", &cfg, Modality::Noisy, data, bb)
}

fn main() {
    let data = harness::proxy_data();
    let (_, baseline) = harness::cached_backbone("backbone-proxy", &data).expect("backbone trains");

    // Path 1: noisy-trained, fault-unaware.
    let (mut unaware, unaware_acc) = noisy_pipeline(&data).expect("noisy pipeline trains");

    // Path 2: the same weights fine-tuned against this die's defect map.
    // The Noisy chain applies the plan, so training sees the defects.
    let (mut aware, _) = noisy_pipeline(&data).expect("noisy pipeline cached");
    aware
        .encoder_mut()
        .set_fault_plan(FaultPlan::uniform(FAULT_SEED, TRAIN_RATE));
    let suffix = if harness::fast_mode() { "-fast" } else { "" };
    cache::load_or_train(&mut aware, &format!("pipe-fault-awareft{suffix}"), |p| {
        let epochs = harness::leca_epochs().div_ceil(2);
        harness::finetune(p, &data, epochs)?;
        Ok(())
    })
    .expect("fault-aware fine-tune runs");

    // Codec baselines score through their own (full-resolution) backbone.
    let (mut codec_bb, _) =
        harness::cached_backbone("backbone-proxy", &data).expect("backbone cached");
    let jpeg = Jpeg::new(50).expect("quality in range");
    let codecs: [&dyn Codec; 2] = [&Cnv::new(), &jpeg];

    let rates = rates();
    let unaware_curve = fault_sweep(
        &mut unaware,
        &codecs,
        &mut codec_bb,
        data.val(),
        &rates,
        FAULT_SEED,
    )
    .expect("sweep runs");
    let aware_curve = fault_sweep(
        &mut aware,
        &[],
        &mut codec_bb,
        data.val(),
        &rates,
        FAULT_SEED,
    )
    .expect("sweep runs");

    let rows: Vec<Vec<String>> = unaware_curve
        .iter()
        .zip(&aware_curve)
        .map(|(u, a)| {
            vec![
                format!("{:.3}", u.rate),
                harness::pct(u.leca_accuracy),
                harness::pct(a.leca_accuracy),
                harness::pct(u.codecs[0].accuracy),
                harness::pct(u.codecs[1].accuracy),
            ]
        })
        .collect();
    harness::print_table(
        &format!(
            "Robustness — accuracy vs per-site fault rate (CR=6, clean noisy acc {}, \
             backbone baseline {})",
            harness::pct(unaware_acc),
            harness::pct(baseline)
        ),
        &[
            "Fault rate",
            "LeCA (noisy)",
            "LeCA (fault-aware ft)",
            "CNV (raw)",
            "JPEG q50",
        ],
        &rows,
    );
    println!(
        "expected shape: all paths degrade with rate; fault-aware fine-tuning recovers \
         part of the drop at the rates it calibrated against (same die seed {FAULT_SEED:#x})."
    );
}
