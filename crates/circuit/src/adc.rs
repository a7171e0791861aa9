//! Resolution-reconfigurable ADC: ternary comparator (1.5 bit) and SAR
//! (2–8 bit).
//!
//! The LeCA ofmap is held as a *differential* pair of o-buffer voltages
//! (positive-weight and negative-weight accumulators); the ADC digitizes
//! `V_p − V_n` into a signed, centrally-symmetric code (Sec. 4.4 notes the
//! central symmetry explicitly). In normal sensing mode the same ADC runs at
//! 8 bit on single-ended pixel values.

use crate::{CircuitError, Result};
use leca_tensor::standard_normal;
use rand::Rng;

/// Comparator noise sigma (V) of a device-accurate ADC
/// ([`AdcModel::device`]).
pub const DEVICE_NOISE: f32 = 2.5e-4;

/// ADC operating resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdcResolution {
    /// 1.5-bit ternary comparator (codes −1, 0, +1).
    Ternary,
    /// SAR mode with `n` bits, `2 ≤ n ≤ 8`.
    Sar(u8),
}

impl AdcResolution {
    /// Parses the paper's `Q_bit` notation (`1.5` → ternary).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnsupportedResolution`] outside
    /// `{1.5, 2, …, 8}`.
    pub fn from_qbit(qbit: f32) -> Result<Self> {
        if (qbit - 1.5).abs() < 1e-6 {
            return Ok(AdcResolution::Ternary);
        }
        let rounded = qbit.round();
        if (qbit - rounded).abs() < 1e-6 && (2.0..=8.0).contains(&rounded) {
            return Ok(AdcResolution::Sar(rounded as u8));
        }
        Err(CircuitError::UnsupportedResolution(qbit))
    }

    /// Maximum code magnitude: codes span `[-max, +max]`.
    pub fn max_code(&self) -> i32 {
        match self {
            AdcResolution::Ternary => 1,
            AdcResolution::Sar(n) => (1i32 << (n - 1)) - 1,
        }
    }

    /// Number of distinct output codes (`2·max + 1`, centrally symmetric).
    pub fn num_codes(&self) -> usize {
        (2 * self.max_code() + 1) as usize
    }

    /// Effective bit depth for compression accounting.
    pub fn qbit(&self) -> f32 {
        match self {
            AdcResolution::Ternary => 1.5,
            AdcResolution::Sar(n) => *n as f32,
        }
    }
}

/// Differential-input quantizer with offset and comparator noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcModel {
    resolution: AdcResolution,
    /// Full-scale differential input: codes saturate at `±v_fs` (V).
    v_fs: f32,
    offset: f32,
    noise_sigma: f32,
}

impl AdcModel {
    /// Creates an ideal ADC (no offset, no noise).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for a non-positive full
    /// scale.
    pub fn new(resolution: AdcResolution, v_fs: f32) -> Result<Self> {
        if v_fs <= 0.0 {
            return Err(CircuitError::InvalidConfig(format!(
                "ADC full scale must be positive, got {v_fs}"
            )));
        }
        Ok(AdcModel {
            resolution,
            v_fs,
            offset: 0.0,
            noise_sigma: 0.0,
        })
    }

    /// Creates a device-accurate ADC with a sampled offset and comparator
    /// noise. The paper notes ADC offset/nonlinearity "can be easily
    /// calibrated digitally"; the residual modeled here is post-calibration.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for a non-positive full
    /// scale.
    pub fn device<R: Rng + ?Sized>(
        resolution: AdcResolution,
        v_fs: f32,
        rng: &mut R,
    ) -> Result<Self> {
        let mut adc = AdcModel::new(resolution, v_fs)?;
        adc.offset = 4.0e-4 * standard_normal(rng);
        adc.noise_sigma = DEVICE_NOISE;
        Ok(adc)
    }

    /// The configured resolution.
    pub fn resolution(&self) -> AdcResolution {
        self.resolution
    }

    /// Full-scale differential voltage.
    pub fn v_fs(&self) -> f32 {
        self.v_fs
    }

    /// Updates the full-scale voltage (the trainable quantization boundary
    /// of Sec. 3.4 — "we directly train the ADC's quantization boundary").
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for a non-positive value.
    pub fn set_v_fs(&mut self, v_fs: f32) -> Result<()> {
        if v_fs <= 0.0 {
            return Err(CircuitError::InvalidConfig(format!(
                "ADC full scale must be positive, got {v_fs}"
            )));
        }
        self.v_fs = v_fs;
        Ok(())
    }

    /// Quantizes a differential voltage to a signed code.
    #[inline]
    pub fn quantize(&self, v_diff: f32) -> i32 {
        let v = v_diff + self.offset;
        let max = self.resolution.max_code();
        match self.resolution {
            AdcResolution::Ternary => {
                // Ternary comparator with thresholds at ±v_fs/3 — the
                // standard 1.5-bit flash window.
                let th = self.v_fs / 3.0;
                if v > th {
                    1
                } else if v < -th {
                    -1
                } else {
                    0
                }
            }
            AdcResolution::Sar(_) => {
                let scaled = v / self.v_fs * max as f32;
                (scaled.round() as i32).clamp(-max, max)
            }
        }
    }

    /// Quantizes with comparator noise, `z` a standard normal.
    #[inline]
    pub fn quantize_noisy(&self, v_diff: f32, z: f32) -> i32 {
        self.quantize(v_diff + self.noise_sigma * z)
    }

    /// Reconstruction voltage of a code (the dequantization the decoder
    /// applies after off-chip transmission).
    pub fn dequantize(&self, code: i32) -> f32 {
        let max = self.resolution.max_code();
        match self.resolution {
            AdcResolution::Ternary => code.clamp(-1, 1) as f32 * self.v_fs * 2.0 / 3.0,
            AdcResolution::Sar(_) => code.clamp(-max, max) as f32 / max as f32 * self.v_fs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leca_tensor::NormalStream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn resolution_parsing() {
        assert_eq!(
            AdcResolution::from_qbit(1.5).unwrap(),
            AdcResolution::Ternary
        );
        assert_eq!(
            AdcResolution::from_qbit(4.0).unwrap(),
            AdcResolution::Sar(4)
        );
        assert_eq!(
            AdcResolution::from_qbit(8.0).unwrap(),
            AdcResolution::Sar(8)
        );
        assert!(AdcResolution::from_qbit(1.0).is_err());
        assert!(AdcResolution::from_qbit(9.0).is_err());
        assert!(AdcResolution::from_qbit(3.3).is_err());
    }

    #[test]
    fn code_ranges_are_centrally_symmetric() {
        assert_eq!(AdcResolution::Ternary.max_code(), 1);
        assert_eq!(AdcResolution::Ternary.num_codes(), 3);
        assert_eq!(AdcResolution::Sar(4).max_code(), 7);
        assert_eq!(AdcResolution::Sar(4).num_codes(), 15);
        assert_eq!(AdcResolution::Sar(8).max_code(), 127);
    }

    #[test]
    fn qbit_is_the_bit_depth() {
        assert_eq!(AdcResolution::Ternary.qbit(), 1.5);
        assert_eq!(AdcResolution::Sar(3).qbit(), 3.0);
    }

    #[test]
    fn sar_quantize_known_values() {
        let adc = AdcModel::new(AdcResolution::Sar(4), 0.7).unwrap();
        assert_eq!(adc.quantize(0.0), 0);
        assert_eq!(adc.quantize(0.7), 7);
        assert_eq!(adc.quantize(-0.7), -7);
        assert_eq!(adc.quantize(1.5), 7, "saturates");
        assert_eq!(adc.quantize(-1.5), -7, "saturates");
        assert_eq!(adc.quantize(0.35), (0.35f32 / 0.7 * 7.0).round() as i32);
    }

    #[test]
    fn quantize_is_central_symmetric() {
        let adc = AdcModel::new(AdcResolution::Sar(4), 0.6).unwrap();
        for i in 0..50 {
            let v = i as f32 / 50.0 * 0.8;
            assert_eq!(adc.quantize(v), -adc.quantize(-v));
        }
    }

    #[test]
    fn ternary_thresholds() {
        let adc = AdcModel::new(AdcResolution::Ternary, 0.6).unwrap();
        assert_eq!(adc.quantize(0.0), 0);
        assert_eq!(adc.quantize(0.15), 0);
        assert_eq!(adc.quantize(0.3), 1);
        assert_eq!(adc.quantize(-0.3), -1);
    }

    #[test]
    fn dequantize_roundtrip_within_lsb() {
        let adc = AdcModel::new(AdcResolution::Sar(6), 0.5).unwrap();
        for i in -31..=31 {
            let v = adc.dequantize(i);
            assert_eq!(adc.quantize(v), i);
        }
    }

    #[test]
    fn trainable_boundary_updates() {
        let mut adc = AdcModel::new(AdcResolution::Sar(4), 0.7).unwrap();
        adc.set_v_fs(0.35).unwrap();
        assert_eq!(adc.quantize(0.35), 7);
        assert!(adc.set_v_fs(0.0).is_err());
        assert!(AdcModel::new(AdcResolution::Sar(4), -1.0).is_err());
    }

    #[test]
    fn device_adc_noise_flips_near_threshold_only() {
        let mut rng = StdRng::seed_from_u64(0);
        let adc = AdcModel::device(AdcResolution::Sar(4), 0.7, &mut rng).unwrap();
        let mut normals = NormalStream::new(&mut rng, 300);
        // Far from a decision boundary the code is stable under noise.
        let stable = adc.dequantize(3);
        let codes: Vec<i32> = (0..100)
            .map(|_| adc.quantize_noisy(stable, normals.draw()))
            .collect();
        assert!(codes.iter().all(|&c| c == 3));
        // At a decision boundary the noisy comparator dithers.
        let boundary = (stable + adc.dequantize(4)) / 2.0;
        let codes: Vec<i32> = (0..200)
            .map(|_| adc.quantize_noisy(boundary, normals.draw()))
            .collect();
        let n3 = codes.iter().filter(|&&c| c == 3).count();
        let n4 = codes.iter().filter(|&&c| c == 4).count();
        assert!(n3 > 0 && n4 > 0, "dithering expected: {n3} vs {n4}");
    }
}
