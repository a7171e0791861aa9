//! LeCA — In-Sensor Learned Compressive Acquisition (ISCA 2023), a
//! pure-Rust reproduction.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the LeCA encoder/decoder, training modalities, joint
//!   trainer and deployment onto the sensor simulator.
//! * [`nn`] — the from-scratch neural-network stack (layers, Adam,
//!   quantizer grids, ResNet backbones).
//! * [`tensor`] — dense f32 tensor kernels.
//! * [`data`] — the SynthVision dataset, Bayer utilities, image I/O and
//!   quality metrics.
//! * [`circuit`] — behavioral analog models (PSF, SCM, FVF, ADC, noise,
//!   mismatch Monte Carlo).
//! * [`sensor`] — the event-driven sensor simulator with timing and energy
//!   models.
//! * [`baselines`] — the compression baselines (CNV, SD, LR, CS, MS, AGT,
//!   JPEG).
//! * [`serve`] — the fault-tolerant multi-tenant inference service
//!   (dynamic batching, deadlines, backpressure, circuit breaking, chaos
//!   replay).
//!
//! # Quickstart
//!
//! ```
//! use leca::core::config::LecaConfig;
//!
//! // The paper's CR = 8 design point: N_ch|Q_bit = 4|3 at K = 2.
//! let cfg = LecaConfig::paper_for_cr(8)?;
//! assert_eq!(cfg.compression_ratio(), 8.0);
//! # Ok::<(), leca::core::LecaError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end pipelines and `crates/bench`
//! for the binaries regenerating every table and figure of the paper.

// This crate promises memory safety by construction: no `unsafe` at all.
// `leca-audit` verifies this header is present; the compiler enforces it.
#![forbid(unsafe_code)]

pub use leca_baselines as baselines;
pub use leca_circuit as circuit;
pub use leca_core as core;
pub use leca_data as data;
pub use leca_nn as nn;
pub use leca_sensor as sensor;
pub use leca_serve as serve;
pub use leca_tensor as tensor;
