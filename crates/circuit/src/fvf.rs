//! Flipped voltage follower (FVF) — the o-buffer's ADC driver.
//!
//! The FVF samples the differential o-buffer voltages into the SAR ADC
//! (Sec. 4.3, [Carvajal et al. 2005]). As with the PSF, the analytical model
//! is affine and the device model adds compression near the rails plus
//! mismatch and thermal noise.

use crate::params::CircuitParams;
use crate::{CircuitError, Result};
use leca_tensor::standard_normal;
use rand::Rng;

const NOMINAL_GAIN: f32 = 0.985;
const NOMINAL_OFFSET: f32 = -0.012;
/// Cubic rail-compression coefficient (V⁻²).
const NONLIN_COEFF: f32 = -0.09;
const SIGMA_GAIN: f32 = 0.003;
const SIGMA_OFFSET: f32 = 0.0018;
const NOISE_FLOOR: f32 = 2.0e-4;
const NOISE_SLOPE: f32 = 1.0e-4;

/// Ideal analytical FVF: `v_out = g·v_in + off`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FvfModel {
    /// Small-signal gain (near 1; the FVF has low output impedance).
    pub gain: f32,
    /// Output offset (V).
    pub offset: f32,
}

impl FvfModel {
    /// The nominal linear model used for hard training.
    pub fn nominal() -> Self {
        FvfModel {
            gain: NOMINAL_GAIN,
            offset: NOMINAL_OFFSET,
        }
    }

    /// Linear transfer function.
    pub fn transfer(&self, v_in: f32) -> f32 {
        self.gain * v_in + self.offset
    }
}

impl Default for FvfModel {
    fn default() -> Self {
        FvfModel::nominal()
    }
}

/// Device-accurate FVF instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FvfDevice {
    base: FvfModel,
    gain_err: f32,
    offset_err: f32,
    vcm: f32,
    v_lo: f32,
    v_hi: f32,
}

impl FvfDevice {
    /// The typical-corner device (no mismatch).
    pub fn typical(params: &CircuitParams) -> Self {
        FvfDevice {
            base: FvfModel::nominal(),
            gain_err: 0.0,
            offset_err: 0.0,
            vcm: params.vcm,
            v_lo: 0.0,
            v_hi: params.vdd,
        }
    }

    /// Samples a Monte-Carlo mismatch instance.
    pub fn sample<R: Rng + ?Sized>(params: &CircuitParams, rng: &mut R) -> Self {
        let mut d = FvfDevice::typical(params);
        d.gain_err = SIGMA_GAIN * standard_normal(rng);
        d.offset_err = SIGMA_OFFSET * standard_normal(rng);
        d
    }

    /// Valid input window (rail to rail).
    pub fn input_window(&self) -> (f32, f32) {
        (self.v_lo, self.v_hi)
    }

    /// Noiseless device transfer with cubic compression away from `V_CM`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::VoltageOutOfRange`] outside the rails.
    #[inline]
    pub fn transfer(&self, v_in: f32) -> Result<f32> {
        if v_in < self.v_lo - 1e-6 || v_in > self.v_hi + 1e-6 {
            return Err(CircuitError::VoltageOutOfRange {
                stage: "fvf",
                value: v_in,
                lo: self.v_lo,
                hi: self.v_hi,
            });
        }
        let [gain, offset, offset_err] = self.lane_terms();
        Ok(curve(gain, offset, offset_err, self.vcm, v_in))
    }

    /// The common-mode voltage the compression and noise centre on.
    pub(crate) fn vcm(&self) -> f32 {
        self.vcm
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
/// [`FvfDevice::lane_terms`]: `gain·v + offset + offset_err +
/// NONLIN·(v − vcm)³`, in that order.
#[inline(always)]
pub(crate) fn curve(gain: f32, offset: f32, offset_err: f32, vcm: f32, v: f32) -> f32 {
    let d = v - vcm;
    let lin = gain * v + offset + offset_err;
    lin + NONLIN_COEFF * d * d * d
}

/// Input-dependent noise sigma (V), growing away from `vcm`.
#[inline(always)]
pub(crate) fn sigma(vcm: f32, v: f32) -> f32 {
    NOISE_FLOOR + NOISE_SLOPE * ((v - vcm).abs() / 0.6).clamp(0.0, 1.0)
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
    fn nominal_linear() {
        let m = FvfModel::nominal();
        assert!((m.transfer(0.6) - (0.985 * 0.6 - 0.012)).abs() < 1e-6);
    }

    #[test]
    fn device_tracks_linear_model_near_vcm() {
        let p = params();
        let d = FvfDevice::typical(&p);
        let m = FvfModel::nominal();
        for i in 0..=10 {
            let v = 0.4 + 0.4 * i as f32 / 10.0; // vcm ± 0.2
            let err = (d.transfer(v).unwrap() - m.transfer(v)).abs();
            assert!(err < 5e-3, "deviation {err} at {v}");
        }
    }

    #[test]
    fn compression_grows_toward_rails() {
        let p = params();
        let d = FvfDevice::typical(&p);
        let m = FvfModel::nominal();
        let near = (d.transfer(0.65).unwrap() - m.transfer(0.65)).abs();
        let far = (d.transfer(1.15).unwrap() - m.transfer(1.15)).abs();
        assert!(far > near);
    }

    #[test]
    fn monotonic_over_rails() {
        let p = params();
        let d = FvfDevice::typical(&p);
        let mut prev = d.transfer(0.0).unwrap();
        for i in 1..=60 {
            let v = 1.2 * i as f32 / 60.0;
            let out = d.transfer(v).unwrap();
            assert!(out > prev, "FVF must be monotonic at {v}");
            prev = out;
        }
    }

    #[test]
    fn rejects_out_of_rail() {
        let p = params();
        let d = FvfDevice::typical(&p);
        assert!(d.transfer(-0.1).is_err());
        assert!(d.transfer(1.3).is_err());
    }

    #[test]
    fn mismatch_and_noise_behave() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(0);
        let a = FvfDevice::sample(&p, &mut rng);
        let b = FvfDevice::sample(&p, &mut rng);
        assert_ne!(
            a.transfer(0.6).unwrap(),
            b.transfer(0.6).unwrap(),
            "instances must differ"
        );
        assert!(sigma(a.vcm(), 1.1) > sigma(a.vcm(), 0.6));
    }
}
