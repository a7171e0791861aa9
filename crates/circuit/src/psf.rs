//! PMOS source follower (PSF) — the i-buffer's output driver.
//!
//! The PSF buffers the sampled pixel voltage onto the SCM input. The paper
//! models its transfer function as linear for training ("both transfer
//! functions in PSF and FVF are modeled as linear functions") and captures
//! the residual non-linearity and device mismatch with a Monte-Carlo
//! extracted LUT + Gaussian disturbance. [`PsfModel`] is that linear
//! analytical model; [`PsfDevice`] is the device-accurate stand-in for the
//! transistor-level netlist.

use crate::params::CircuitParams;
use crate::{CircuitError, Result};
use leca_tensor::standard_normal;
use rand::Rng;

/// Nominal (typical-corner) PSF parameters.
const NOMINAL_GAIN: f32 = 0.94;
const NOMINAL_OFFSET: f32 = 0.085;
/// Quadratic compression coefficient of the device model (V⁻¹).
const NONLIN_COEFF: f32 = -0.055;
/// Mismatch sigmas (fractional gain, volts offset).
const SIGMA_GAIN: f32 = 0.004;
const SIGMA_OFFSET: f32 = 0.0025;
/// Input-referred thermal noise floor and signal-dependent slope (V).
const NOISE_FLOOR: f32 = 2.5e-4;
const NOISE_SLOPE: f32 = 1.5e-4;

/// Ideal analytical PSF: an affine level shifter `v_out = g·v_in + off`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsfModel {
    /// Small-signal gain (< 1 for a source follower).
    pub gain: f32,
    /// Output offset (V).
    pub offset: f32,
}

impl PsfModel {
    /// The nominal linear model used for hard training.
    pub fn nominal() -> Self {
        PsfModel {
            gain: NOMINAL_GAIN,
            offset: NOMINAL_OFFSET,
        }
    }

    /// Linear transfer function.
    pub fn transfer(&self, v_in: f32) -> f32 {
        self.gain * v_in + self.offset
    }
}

impl Default for PsfModel {
    fn default() -> Self {
        PsfModel::nominal()
    }
}

/// Device-accurate PSF instance: non-linear transfer + sampled mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct PsfDevice {
    base: PsfModel,
    gain_err: f32,
    offset_err: f32,
    v_lo: f32,
    v_hi: f32,
}

impl PsfDevice {
    /// The typical-corner device (no mismatch), for deterministic sweeps.
    pub fn typical(params: &CircuitParams) -> Self {
        PsfDevice {
            base: PsfModel::nominal(),
            gain_err: 0.0,
            offset_err: 0.0,
            v_lo: params.v_dark,
            v_hi: params.v_dark + params.v_swing,
        }
    }

    /// Samples a Monte-Carlo mismatch instance.
    pub fn sample<R: Rng + ?Sized>(params: &CircuitParams, rng: &mut R) -> Self {
        let mut d = PsfDevice::typical(params);
        d.gain_err = SIGMA_GAIN * standard_normal(rng);
        d.offset_err = SIGMA_OFFSET * standard_normal(rng);
        d
    }

    /// Valid input window (pixel voltage range).
    pub fn input_window(&self) -> (f32, f32) {
        (self.v_lo, self.v_hi)
    }

    /// Noiseless device transfer: affine + quadratic compression toward the
    /// top of the swing (the PMOS follower loses gain as `V_SG` shrinks).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::VoltageOutOfRange`] outside the pixel window
    /// (the real circuit would clip; training must clamp first).
    #[inline]
    pub fn transfer(&self, v_in: f32) -> Result<f32> {
        if v_in < self.v_lo - 1e-6 || v_in > self.v_hi + 1e-6 {
            return Err(CircuitError::VoltageOutOfRange {
                stage: "psf",
                value: v_in,
                lo: self.v_lo,
                hi: self.v_hi,
            });
        }
        let [gain, offset, offset_err] = self.lane_terms();
        Ok(curve(gain, offset, offset_err, self.mid(), v_in))
    }

    /// Centre of the input window, where the compression vanishes.
    pub(crate) fn mid(&self) -> f32 {
        0.5 * (self.v_lo + self.v_hi)
    }

    /// This instance's terms of [`curve`]: the gain with its mismatch, the
    /// nominal offset and the offset mismatch.
    pub(crate) fn lane_terms(&self) -> [f32; 3] {
        [
            self.base.gain + self.gain_err,
            self.base.offset,
            self.offset_err,
        ]
    }
}

/// The device transfer on one value, from an instance's
/// [`PsfDevice::lane_terms`] and window centre `mid`:
/// `gain·v + offset + offset_err + NONLIN·(v − mid)²`, in that order.
#[inline(always)]
pub(crate) fn curve(gain: f32, offset: f32, offset_err: f32, mid: f32, v: f32) -> f32 {
    let lin = gain * v + offset + offset_err;
    let bend = NONLIN_COEFF * (v - mid) * (v - mid);
    lin + bend
}

/// Input-dependent noise sigma (V), as in the paper's
/// `N(LUT_PSF(v), σ_PSF)` model, for a window starting at `lo`, `span`
/// wide.
#[inline(always)]
pub(crate) fn sigma(lo: f32, span: f32, v: f32) -> f32 {
    NOISE_FLOOR + NOISE_SLOPE * ((v - lo) / span).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> CircuitParams {
        CircuitParams::paper_65nm()
    }

    #[test]
    fn nominal_linear_model() {
        let m = PsfModel::nominal();
        assert!((m.transfer(0.5) - (0.94 * 0.5 + 0.085)).abs() < 1e-6);
        assert_eq!(PsfModel::default(), m);
    }

    #[test]
    fn device_close_to_linear_model() {
        // The linear model must be a good approximation of the device —
        // that is what makes hard training transferable.
        let p = params();
        let d = PsfDevice::typical(&p);
        let m = PsfModel::nominal();
        let (lo, hi) = d.input_window();
        for i in 0..=20 {
            let v = lo + (hi - lo) * i as f32 / 20.0;
            let err = (d.transfer(v).unwrap() - m.transfer(v)).abs();
            assert!(err < 0.02, "deviation {err} V at {v} V");
        }
    }

    #[test]
    fn device_is_monotonic() {
        let p = params();
        let d = PsfDevice::typical(&p);
        let (lo, hi) = d.input_window();
        let mut prev = d.transfer(lo).unwrap();
        for i in 1..=50 {
            let v = lo + (hi - lo) * i as f32 / 50.0;
            let out = d.transfer(v).unwrap();
            assert!(out > prev, "PSF must be monotonic");
            prev = out;
        }
    }

    #[test]
    fn out_of_window_rejected() {
        let p = params();
        let d = PsfDevice::typical(&p);
        assert!(d.transfer(0.0).is_err());
        assert!(d.transfer(1.19).is_err());
    }

    #[test]
    fn mismatch_spreads_instances() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(0);
        let outs: Vec<f32> = (0..200)
            .map(|_| PsfDevice::sample(&p, &mut rng).transfer(0.6).unwrap())
            .collect();
        let mean: f32 = outs.iter().sum::<f32>() / outs.len() as f32;
        let std: f32 =
            (outs.iter().map(|o| (o - mean).powi(2)).sum::<f32>() / outs.len() as f32).sqrt();
        assert!(std > 1e-4, "mismatch must spread outputs, std {std}");
        assert!(std < 0.02, "mismatch unreasonably large, std {std}");
    }

    #[test]
    fn noise_sigma_grows_with_signal() {
        let p = params();
        let (lo, hi) = PsfDevice::typical(&p).input_window();
        assert!(sigma(lo, hi - lo, 0.9) > sigma(lo, hi - lo, 0.3));
        assert!(sigma(lo, hi - lo, 0.3) > 0.0);
    }
}
