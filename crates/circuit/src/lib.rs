//! Behavioral analog-circuit models for the LeCA sensor.
//!
//! The paper implements the LeCA encoder with a column-parallel analog
//! processing element (PE) built from three circuit stages plus an ADC
//! (Sec. 4.3):
//!
//! 1. **PSF** — a PMOS source follower buffering the i-buffer voltage into
//!    the multiplier ([`psf`]).
//! 2. **SCM** — a switched-capacitor multiplier performing charge-domain
//!    multiply-accumulate per Eq. (3) ([`scm`]).
//! 3. **FVF** — a flipped voltage follower driving the SAR ADC ([`fvf`]).
//! 4. **ADC** — a resolution-reconfigurable quantizer: ternary comparator at
//!    1.5 bit, SAR at 2–8 bit ([`adc`]).
//!
//! The authors validate their design with transistor-level SPICE simulation
//! and then extract *behavioral models* (look-up tables plus Gaussian
//! disturbances, Sec. 5.3) for hardware-aware training. SPICE is not
//! available to this reproduction, so the **device-accurate models here play
//! the role of the transistor-level netlists**: they extend the ideal
//! analytical equations with the non-idealities the paper names
//! (non-linear buffer transfer functions, incomplete charge transfer,
//! charge-injection offsets, component mismatch, shot/read/kTC noise), with
//! magnitudes calibrated so the Fig. 8 validation lands within 1 LSB at
//! 4-bit resolution — exactly the paper's reported envelope.
//!
//! [`mismatch`] performs the 200-sample Monte-Carlo extraction of the
//! training-time LUT + sigma models, and [`validate`] reruns the Fig. 8
//! sweep.

// This crate promises memory safety by construction: no `unsafe` at all.
// Stricter than the workspace's `unsafe_code = "deny"`: no `allow` lifts it.
#![forbid(unsafe_code)]

pub mod adc;
pub mod fault;
pub mod fvf;
pub mod mismatch;
pub mod noise;
pub mod params;
pub mod pe;
pub mod psf;
pub mod scm;
pub mod validate;

mod error;

pub use error::CircuitError;
pub use params::CircuitParams;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
