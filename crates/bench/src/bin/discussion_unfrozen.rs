//! Sec. 6.4 "Task accuracy": unfreezing the downstream model.
//!
//! The paper reports that letting the backbone adapt during joint training
//! shrinks the loss to 0.02 pp (CR 4) and 0.78 pp (CR 8). This bench
//! trains frozen and unfrozen variants at CR 8 and compares (extend the
//! `for cr in` list to add CR 4).

use leca_bench as harness;
use leca_core::cache;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::trainer::accuracy;
use leca_core::LecaPipeline;

fn main() {
    let data = harness::proxy_data();
    let (_, baseline) = harness::cached_backbone("backbone-proxy", &data).expect("backbone trains");
    println!(
        "frozen backbone baseline accuracy: {}",
        harness::pct(baseline)
    );

    let suffix = if harness::fast_mode() { "-fast" } else { "" };
    let mut rows = Vec::new();
    {
        let cr = 8usize;
        let cfg = LecaConfig::paper_for_cr(cr).expect("design point");

        // Frozen (the cached standard pipeline).
        let (bb, _) = harness::cached_backbone("backbone-proxy", &data).expect("cached");
        let (_, frozen_acc) = harness::cached_pipeline(
            &format!("pipe-proxy-n{}q{}-hard", cfg.n_ch, cfg.qbit),
            &cfg,
            Modality::Hard,
            &data,
            bb,
        )
        .expect("frozen pipeline trains");

        // Unfrozen: same setup, backbone parameters free to adapt.
        let (bb, _) = harness::cached_backbone("backbone-proxy", &data).expect("cached");
        let mut unfrozen =
            LecaPipeline::new(&cfg, Modality::Hard, bb, 0x1eca).expect("pipeline builds");
        unfrozen.set_backbone_frozen(false);
        cache::load_or_train(
            &mut unfrozen,
            &format!(
                "pipe-proxy-n{}q{}-hard-unfrozen{suffix}",
                cfg.n_ch, cfg.qbit
            ),
            |p| {
                let mut tc = leca_core::trainer::TrainConfig::experiment();
                tc.epochs = harness::leca_epochs();
                leca_core::trainer::train_pipeline(p, data.train(), data.val(), &tc)?;
                Ok(())
            },
        )
        .expect("unfrozen pipeline trains");
        let unfrozen_acc = accuracy(&mut unfrozen, data.val()).expect("eval");

        rows.push(vec![
            format!("{cr}x"),
            harness::pct(frozen_acc),
            format!("{:.2}pp", (baseline - frozen_acc) * 100.0),
            harness::pct(unfrozen_acc),
            format!("{:.2}pp", (baseline - unfrozen_acc) * 100.0),
        ]);
    }
    harness::print_table(
        "Sec. 6.4 — frozen vs unfrozen backbone (proxy pipeline, hard training)",
        &[
            "CR",
            "Frozen acc",
            "Frozen loss",
            "Unfrozen acc",
            "Unfrozen loss",
        ],
        &rows,
    );
    println!(
        "\npaper reference: unfreezing shrinks the loss to 0.02pp (CR 4) / 0.78pp (CR 8), at \
         the cost of retraining the whole vision pipeline per deployment."
    );
}
