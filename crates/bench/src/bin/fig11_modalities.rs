//! Fig. 11: accuracy of the three training modalities under hardware
//! non-idealities.
//!
//! For each pipeline this reproduces the paper's six bars:
//!
//! * **soft** training — evaluated on its own modality and on the noisy
//!   hardware (naive transfer, including the soft→hard mapping drop);
//! * **hard** training — evaluated on hard and on noisy hardware;
//! * **noisy** fine-tuning from hard weights — evaluated on the noisy
//!   hardware (recovers most of the lost accuracy).

use leca_bench as harness;
use leca_core::cache;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::trainer::accuracy;
use leca_data::SynthVision;

/// Evaluates a pipeline under a (possibly different) modality, restoring
/// the original afterwards.
fn eval_under(
    pipeline: &mut leca_core::LecaPipeline,
    modality: Modality,
    data: &SynthVision,
) -> f32 {
    let original = pipeline.encoder().modality();
    pipeline
        .encoder_mut()
        .set_modality(modality)
        .expect("K=2 pipelines");
    let acc = accuracy(pipeline, data.val()).expect("evaluation runs");
    pipeline
        .encoder_mut()
        .set_modality(original)
        .expect("restore modality");
    acc
}

fn run(pipeline_name: &str, data: &SynthVision) {
    let (_, baseline) = harness::cached_backbone(&format!("backbone-{pipeline_name}"), data)
        .expect("backbone trains");
    // The paper's CR = 6 design point (4|4).
    let cfg = LecaConfig::paper_for_cr(6).expect("paper design point");

    // Soft training.
    let (bb, _) = harness::cached_backbone(&format!("backbone-{pipeline_name}"), data)
        .expect("backbone cached");
    let (mut soft, soft_acc) = harness::cached_pipeline(
        &format!("pipe-{pipeline_name}-n4q4-soft"),
        &cfg,
        Modality::Soft,
        data,
        bb,
    )
    .expect("soft trains");
    let soft_on_hard = eval_under(&mut soft, Modality::Hard, data);
    let soft_on_noisy = eval_under(&mut soft, Modality::Noisy, data);

    // Hard training.
    let (bb, _) = harness::cached_backbone(&format!("backbone-{pipeline_name}"), data)
        .expect("backbone cached");
    let (mut hard, hard_acc) = harness::cached_pipeline(
        &format!("pipe-{pipeline_name}-n4q4-hard"),
        &cfg,
        Modality::Hard,
        data,
        bb,
    )
    .expect("hard trains");
    let hard_on_noisy = eval_under(&mut hard, Modality::Noisy, data);

    // Noisy fine-tuning from the hard weights (Fig. 9 step 3).
    hard.encoder_mut()
        .set_modality(Modality::Noisy)
        .expect("K=2");
    let suffix = if harness::fast_mode() { "-fast" } else { "" };
    cache::load_or_train(
        &mut hard,
        &format!("pipe-{pipeline_name}-n4q4-noisyft{suffix}"),
        |p| {
            let epochs = harness::leca_epochs().div_ceil(2);
            harness::finetune(p, data, epochs)?;
            Ok(())
        },
    )
    .expect("noisy fine-tune runs");
    let noisy_acc = accuracy(&mut hard, data.val()).expect("noisy eval");

    harness::print_table(
        &format!(
            "Fig. 11 — training modalities on the {pipeline_name} pipeline \
             (CR=6, baseline {})",
            harness::pct(baseline)
        ),
        &["Training", "Eval (own modality)", "Eval (noisy hardware)"],
        &[
            vec![
                "soft".into(),
                harness::pct(soft_acc),
                harness::pct(soft_on_noisy),
            ],
            vec![
                "soft → hard mapping".into(),
                harness::pct(soft_on_hard),
                String::from("(see row above)"),
            ],
            vec![
                "hard".into(),
                harness::pct(hard_acc),
                harness::pct(hard_on_noisy),
            ],
            vec![
                "noisy (fine-tuned from hard)".into(),
                harness::pct(noisy_acc),
                harness::pct(noisy_acc),
            ],
        ],
    );
    println!(
        "expected shape (paper): soft ≈ hard on their own modalities; naive soft→hard and \
         hard→noisy transfers drop accuracy; noisy fine-tuning recovers most of it."
    );
}

fn main() {
    run("proxy", &harness::proxy_data());
    // The full pipeline triples the training cost; opt in explicitly.
    if leca_tensor::runtime_env::flag("LECA_FULL").unwrap_or(false) {
        run("full", &harness::full_data());
    } else {
        println!("\n(set LECA_FULL=1 to additionally run the full pipeline)");
    }
}
