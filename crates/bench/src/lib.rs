//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library centralizes dataset
//! construction, backbone/pipeline caching and table printing so results
//! are consistent across experiments.
//!
//! Environment knobs:
//!
//! * `LECA_FAST=1` — shrink datasets and epochs for smoke-testing.
//! * `LECA_EPOCHS=N` — override the LeCA training epoch count.
//! * `LECA_CACHE_DIR` — checkpoint directory (default `.leca-cache/`).
//!
//! The structured kernel-speed harness lives in [`workload`] (named
//! benchmark bodies), [`profiler`] (warmup + median-of-N timing policy,
//! with a `--smoke` variant) and [`harness`] (per-backend driver); the
//! `kernel_speed` binary composes them into `BENCH_kernels.json`.

// This crate promises memory safety by construction: no `unsafe` at all.
// Stricter than the workspace's `unsafe_code = "deny"`: no `allow` lifts it.
#![forbid(unsafe_code)]

pub mod harness;
pub mod profiler;
pub mod workload;

use leca_core::cache;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::pipeline::LecaPipeline;
use leca_core::trainer::{self, TrainConfig};
use leca_core::LecaError;
use leca_data::{SynthConfig, SynthVision};
use leca_nn::backbone::Backbone;

/// Result alias for harness operations.
pub type Result<T> = std::result::Result<T, LecaError>;

/// True when `LECA_FAST=1` smoke-test mode is active.
pub fn fast_mode() -> bool {
    leca_tensor::runtime_env::flag("LECA_FAST").unwrap_or(false)
}

/// LeCA training epochs (default 4; `LECA_EPOCHS` overrides; 1 in fast
/// mode). A zero or unparsable override degrades to the default.
pub fn leca_epochs() -> usize {
    if fast_mode() {
        return 1;
    }
    leca_tensor::runtime_env::positive_u64("LECA_EPOCHS").map_or(4, |n| n as usize)
}

/// The proxy dataset (stands in for TinyImageNet; see DESIGN.md).
pub fn proxy_data() -> SynthVision {
    let mut cfg = SynthConfig::proxy();
    if fast_mode() {
        cfg.train_per_class = 6;
        cfg.val_per_class = 4;
        cfg.num_classes = 4;
    }
    SynthVision::generate(&cfg, 42)
}

/// The full dataset (stands in for ImageNet; see DESIGN.md).
pub fn full_data() -> SynthVision {
    let mut cfg = SynthConfig::full();
    if fast_mode() {
        cfg.train_per_class = 5;
        cfg.val_per_class = 3;
        cfg.num_classes = 4;
    }
    SynthVision::generate(&cfg, 43)
}

/// Backbone training epochs per pipeline.
fn backbone_epochs() -> usize {
    if fast_mode() {
        2
    } else {
        10
    }
}

/// The pre-trained frozen backbone for a dataset, cached on disk.
///
/// # Errors
///
/// Propagates training errors.
pub fn cached_backbone(tag: &str, data: &SynthVision) -> Result<(Backbone, f32)> {
    let mut bb = trainer::backbone_for(data.train(), 0xbace);
    let tag = format!("{tag}{}", if fast_mode() { "-fast" } else { "" });
    cache::load_or_train(&mut bb, &tag, |bb| {
        let mut cfg = TrainConfig::experiment();
        cfg.epochs = backbone_epochs();
        cfg.schedule = leca_nn::optim::StepDecay {
            base_lr: 2e-3,
            gamma: 0.3,
            every: 5,
        };
        let report = trainer::train_backbone(bb, data.train(), data.val(), &cfg)?;
        eprintln!(
            "[harness] trained backbone {tag}: val acc {:.3}",
            report.val_accuracy
        );
        Ok(())
    })?;
    let acc = trainer::accuracy(&mut bb, data.val())?;
    Ok((bb, acc))
}

/// A jointly-trained LeCA pipeline, cached on disk by tag.
///
/// Returns the pipeline and its validation accuracy.
///
/// # Errors
///
/// Propagates training errors.
pub fn cached_pipeline(
    tag: &str,
    cfg: &LecaConfig,
    modality: Modality,
    data: &SynthVision,
    backbone: Backbone,
) -> Result<(LecaPipeline, f32)> {
    let mut pipeline = LecaPipeline::new(cfg, modality, backbone, 0x1eca)?;
    let tag = format!("{tag}{}", if fast_mode() { "-fast" } else { "" });
    cache::load_or_train(&mut pipeline, &tag, |p| {
        let mut tc = TrainConfig::experiment();
        tc.epochs = leca_epochs();
        let report = trainer::train_pipeline(p, data.train(), data.val(), &tc)?;
        eprintln!(
            "[harness] trained pipeline {tag}: val acc {:.3} (losses {:?})",
            report.val_accuracy, report.epoch_losses
        );
        Ok(())
    })?;
    let acc = trainer::accuracy(&mut pipeline, data.val())?;
    Ok((pipeline, acc))
}

/// Fine-tunes an existing pipeline for a few epochs in its current
/// modality (used for noisy fine-tuning from hard weights).
///
/// # Errors
///
/// Propagates training errors.
pub fn finetune(pipeline: &mut LecaPipeline, data: &SynthVision, epochs: usize) -> Result<f32> {
    let mut tc = TrainConfig::experiment();
    tc.epochs = epochs.max(1);
    tc.incremental = false;
    tc.schedule.base_lr = 5e-4;
    let report = trainer::train_pipeline(pipeline, data.train(), data.val(), &tc)?;
    Ok(report.val_accuracy)
}

/// Prints a fixed-width table: a header row and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    fmt_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        fmt_row(row);
    }
}

/// Formats a ratio like `6.3x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.1}x")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_and_fast_mode_defaults() {
        // Do not mutate the environment here (tests run in parallel with
        // other env-sensitive tests); just exercise the defaults.
        let e = leca_epochs();
        assert!(e >= 1);
    }

    #[test]
    fn table_printer_handles_ragged_rows() {
        print_table(
            "test",
            &["a", "long-header"],
            &[vec!["1".into()], vec!["22".into(), "x".into()]],
        );
    }

    #[test]
    fn format_helpers() {
        assert_eq!(ratio(6.31), "6.3x");
        assert_eq!(pct(0.7505), "75.1%");
    }
}
