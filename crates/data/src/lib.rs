//! Datasets and image utilities for the LeCA reproduction.
//!
//! The paper evaluates on TinyImageNet (proxy pipeline) and ImageNet (full
//! pipeline). Neither dataset can ship with this reproduction, so this crate
//! provides **SynthVision** — a seeded, procedurally generated image
//! classification dataset with the spatial/color/bit-depth redundancy that
//! the compared compression schemes exploit. Classes are defined by
//! *geometry and texture*, not color, so a CNN must genuinely learn shape
//! features. See `DESIGN.md` for the substitution rationale.
//!
//! Also here:
//!
//! * [`bayer`] — RGGB mosaic and the Fig. 5(a) kernel flattening,
//!   matching the sensor's color filter array (Sec. 2.1).
//! * [`io`] — PPM/PGM image writers for the Fig. 12 visualizations.
//! * [`augment`] — the paper's training augmentation (random rotation up to
//!   20°, random horizontal flip).
//! * [`metrics`] — PSNR and SSIM, the task-agnostic quality metrics the
//!   paper contrasts against task accuracy.
//!
//! # Example
//!
//! ```
//! use leca_data::synth::{SynthConfig, SynthVision};
//!
//! let ds = SynthVision::generate(&SynthConfig::tiny_test(), 0);
//! assert_eq!(ds.len(), ds.labels().len());
//! let (batch, labels) = ds.batch(0, 4).unwrap();
//! assert_eq!(batch.shape()[0], 4);
//! assert_eq!(labels.len(), 4);
//! ```

// This crate promises memory safety by construction: no `unsafe` at all.
// `leca-audit` verifies this header is present; the compiler enforces it.
#![forbid(unsafe_code)]

pub mod augment;
pub mod bayer;
pub mod dataset;
pub mod io;
pub mod metrics;
pub mod synth;

pub use dataset::{Dataset, DatasetError};
pub use synth::{SynthConfig, SynthVision};
