//! Baseline sensor-side compression methods (Sec. 5.1).
//!
//! The paper compares LeCA against five alternative compression schemes
//! plus the conventional full-precision sensor, all evaluated through the
//! *same frozen downstream network*:
//!
//! | Codec | Paper tag | Module |
//! |---|---|---|
//! | Conventional 8-bit        | CNV | [`cnv`] |
//! | Spatial down-sampling     | SD  | [`sd`]  |
//! | Low-resolution quantizer  | LR  | [`lr`]  |
//! | Compressive sensing       | CS  | [`cs`]  |
//! | Microshift                | MS  | [`ms`]  |
//! | Accumulated-gradient thresholding | AGT | [`agt`] |
//!
//! plus the JPEG-like DCT codec from the Sec. 6.4 discussion ([`jpeg`]).
//!
//! Every method implements [`Codec`]: *transcode* an RGB image (encode +
//! decode back to full resolution) and report the achieved compression
//! ratio, so the evaluation harness can feed any codec's reconstruction to
//! the frozen backbone and measure end-to-end task accuracy — the paper's
//! evaluation protocol.

// This crate promises memory safety by construction: no `unsafe` at all.
// Stricter than the workspace's `unsafe_code = "deny"`: no `allow` lifts it.
#![forbid(unsafe_code)]

pub mod agt;
pub mod cnv;
pub mod cs;
pub mod dct;
pub mod jpeg;
pub mod lr;
pub mod ms;
pub mod sd;

mod error;
mod traits;

pub use error::CodecError;
pub use traits::{
    Codec, CodecOutput, CodecTraits, EncodingDomain, HwOverhead, Objective, QualityMetric,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodecError>;
