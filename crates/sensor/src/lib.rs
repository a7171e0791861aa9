//! Event-driven simulator of the LeCA image sensor system.
//!
//! Implements the architecture of Sec. 4: a rolling-shutter pixel array
//! whose columns feed a **column-parallel array of analog PEs** (one PE per
//! four pixel columns), coordinated by two controllers in different clock
//! domains, with a variable-resolution ADC array and a global SRAM for the
//! quantized ofmap.
//!
//! * [`geometry`] — array sizing: pixel plane, PE count, ofmap dimensions,
//!   repetitive-readout passes.
//! * [`pixels`] — exposure model turning normalized scene values into noisy
//!   raw Bayer samples.
//! * [`controller`] — the Sec. 4.2 operation sequence (steps ①–④) as an
//!   event trace in the 100 MHz / 400 MHz clock domains.
//! * [`timing`] — frame latency / frame rate from the event schedule
//!   (209 fps at 448x448, 86 fps at 1080p — Sec. 4.2 and 6.4).
//! * [`energy`] — the per-component energy model behind Fig. 13, calibrated
//!   to the paper's anchors (12.1 pJ/pixel exposure+readout, 10.1x ADC and
//!   5x communication reduction at CR = 4, 6.3x total vs CNV and 2.2x vs
//!   the CS sensor at CR = 8).
//! * [`sensor`] — the top-level [`sensor::LecaSensor`]: programs trained
//!   weight codes into the PE array and captures frames end to end
//!   (LeCA encoding mode and conventional 8-bit bypass mode).
//! * [`survey`] — the Fig. 2(c) CIS survey aggregates.

// This crate promises memory safety by construction: no `unsafe` at all.
// Stricter than the workspace's `unsafe_code = "deny"`: no `allow` lifts it.
#![forbid(unsafe_code)]

pub mod controller;
pub mod energy;
pub mod geometry;
pub mod pixels;
pub mod sensor;
pub mod survey;
pub mod timing;

mod error;

pub use error::SensorError;
pub use geometry::SensorGeometry;
pub use sensor::{FrameStats, LecaSensor};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SensorError>;
