//! LeCA: learned compressive acquisition (the paper's core contribution).
//!
//! This crate assembles the substrates (`leca-nn`, `leca-circuit`,
//! `leca-sensor`, `leca-data`, `leca-baselines`) into the full
//! hardware/algorithm co-design of Sec. 3:
//!
//! * [`config`] — encoder/decoder geometry, the Eq. (1) compression ratio,
//!   and the Table 2 shape algebra.
//! * [`encoder`] — the single-layer analog encoder with its three training
//!   modalities (**soft** ideal convolution, **hard** analytical circuit
//!   models, **noisy** full non-ideality models), all with exact gradients
//!   through the Eq. (3) switched-capacitor recursion and STE quantization
//!   with a *trainable* ADC boundary.
//! * [`decoder`] — transposed-convolution upsampling + DnCNN-style denoiser
//!   (Table 2).
//! * [`pipeline`] — encoder → decoder → frozen backbone, trained end to end
//!   with cross-entropy.
//! * [`trainer`] — joint training with the frozen backbone, the paper's
//!   Adam + step-decay recipe, and incremental bit-depth annealing
//!   (pre-train at Q_bit = 8, fine-tune at the target).
//! * [`eval`] — the shared evaluation protocol: any codec or pipeline
//!   against the same frozen backbone.
//! * [`session`] — the workspace-backed inference driver: one buffer pool
//!   per pipeline, zero steady-state heap allocations, bit-identical to
//!   the owned-tensor `forward`.
//! * [`deploy`] — kernel flattening (RGB → Bayer, Fig. 5(a)), programming
//!   the trained codes into the [`leca_sensor::LecaSensor`], and an
//!   end-to-end hardware-in-the-loop check.
//! * [`cache`] — on-disk checkpoint caching for pre-trained backbones.

// This crate promises memory safety by construction: no `unsafe` at all.
// Stricter than the workspace's `unsafe_code = "deny"`: no `allow` lifts it.
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod decoder;
pub mod deploy;
pub mod encoder;
pub mod eval;
pub mod pipeline;
pub mod quantized;
pub mod session;
pub mod trainer;

mod error;

pub use config::LecaConfig;
pub use decoder::LecaDecoder;
pub use encoder::{LecaEncoder, Modality};
pub use error::LecaError;
pub use pipeline::LecaPipeline;
pub use quantized::QuantizedEngine;
pub use session::{InferenceSession, Precision};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LecaError>;
