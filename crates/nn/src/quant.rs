//! Software quantizers.
//!
//! Bit depths in the paper's `Q_bit` notation, the uniform quantizer of
//! the low-resolution (LR) baseline, and the SCM's signed-magnitude weight
//! grid. The straight-through estimator of Eq. (2),
//! `f(x) = q(x) + x - stop_gradient(x)`, is applied where these grids are
//! trained through: the encoder and the trainable-boundary ADC quantizer
//! in `leca-core`.

use crate::{NnError, Result};

/// A quantization bit depth, including the paper's 1.5-bit (ternary) mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitDepth {
    levels: usize,
}

impl BitDepth {
    /// Creates a bit depth from a level count (≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for fewer than 2 levels.
    pub fn from_levels(levels: usize) -> Result<Self> {
        if levels < 2 {
            return Err(NnError::InvalidConfig(format!(
                "quantizer needs at least 2 levels, got {levels}"
            )));
        }
        Ok(BitDepth { levels })
    }

    /// Creates a bit depth from the paper's `Q_bit` notation.
    ///
    /// Integer values `q` map to `2^q` levels; `1.5` maps to 3 levels
    /// (ternary).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for unsupported values.
    pub fn from_qbit(qbit: f32) -> Result<Self> {
        if (qbit - 1.5).abs() < 1e-6 {
            return Self::from_levels(3);
        }
        if (1.0..=16.0).contains(&qbit) && (qbit - qbit.round()).abs() < 1e-6 {
            return Self::from_levels(1usize << qbit.round() as usize);
        }
        Err(NnError::InvalidConfig(format!("unsupported Q_bit {qbit}")))
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Effective bits for compression-ratio accounting (Eq. (1)): `log2` of
    /// the level count, so 3 levels report ≈1.585 bits; by the paper's
    /// convention ternary is reported as 1.5 bits.
    pub fn effective_bits(&self) -> f32 {
        if self.levels == 3 {
            1.5
        } else {
            (self.levels as f32).log2()
        }
    }
}

/// Quantizes `x` to the nearest of `levels` uniform steps over `[lo, hi]`,
/// after clamping.
pub fn quantize_uniform(x: f32, lo: f32, hi: f32, levels: usize) -> f32 {
    let x = x.clamp(lo, hi);
    let step = (hi - lo) / (levels - 1) as f32;
    lo + ((x - lo) / step).round() * step
}

/// The signed-magnitude weight code of `v` with `mag_bits` magnitude bits
/// (the SCM's ±4-bit precision): `v` clamped to `±scale`, then rounded to
/// an integer `k` in `[-(2^mag_bits - 1), 2^mag_bits - 1]`.
pub fn signed_magnitude_code(v: f32, mag_bits: u32, scale: f32) -> i32 {
    let max_code = ((1u32 << mag_bits) - 1) as f32;
    (v.clamp(-scale, scale) / scale * max_code).round() as i32
}

/// `v` snapped to the signed-magnitude grid: the value
/// `scale * k / (2^mag_bits - 1)` of its [`signed_magnitude_code`] `k`.
pub fn signed_magnitude_quantize(v: f32, mag_bits: u32, scale: f32) -> f32 {
    let max_code = ((1u32 << mag_bits) - 1) as f32;
    (v.clamp(-scale, scale) / scale * max_code).round() / max_code * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_depth_from_qbit() {
        assert_eq!(BitDepth::from_qbit(1.0).unwrap().levels(), 2);
        assert_eq!(BitDepth::from_qbit(1.5).unwrap().levels(), 3);
        assert_eq!(BitDepth::from_qbit(3.0).unwrap().levels(), 8);
        assert_eq!(BitDepth::from_qbit(8.0).unwrap().levels(), 256);
        assert!(BitDepth::from_qbit(0.5).is_err());
        assert!(BitDepth::from_qbit(2.7).is_err());
    }

    #[test]
    fn effective_bits_reporting() {
        assert_eq!(BitDepth::from_levels(3).unwrap().effective_bits(), 1.5);
        assert_eq!(BitDepth::from_levels(8).unwrap().effective_bits(), 3.0);
        assert!(BitDepth::from_levels(1).is_err());
    }

    #[test]
    fn quantize_uniform_endpoints_and_midpoints() {
        // 3 levels over [0, 1]: {0, 0.5, 1}.
        assert_eq!(quantize_uniform(0.0, 0.0, 1.0, 3), 0.0);
        assert_eq!(quantize_uniform(0.4, 0.0, 1.0, 3), 0.5);
        assert_eq!(quantize_uniform(0.9, 0.0, 1.0, 3), 1.0);
        assert_eq!(quantize_uniform(2.0, 0.0, 1.0, 3), 1.0, "clamps above");
        assert_eq!(quantize_uniform(-1.0, 0.0, 1.0, 3), 0.0, "clamps below");
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let levels = 8;
        let step = 1.0 / (levels - 1) as f32;
        for i in 0..1000 {
            let x = i as f32 / 999.0;
            let q = quantize_uniform(x, 0.0, 1.0, levels);
            assert!((x - q).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn signed_magnitude_grid() {
        let q = [0.5, -0.5, 0.04, 2.0].map(|v| signed_magnitude_quantize(v, 4, 1.0));
        // Grid step is 1/15.
        assert!((q[0] - 7.0 / 15.0).abs() < 1e-6 || (q[0] - 8.0 / 15.0).abs() < 1e-6);
        assert_eq!(q[1], -q[0]);
        assert_eq!(q[2], 1.0 / 15.0);
        assert_eq!(q[3], 1.0, "clamps to scale");
        assert_eq!(signed_magnitude_code(1.0, 4, 1.0), 15);
        assert_eq!(signed_magnitude_code(-1.0, 4, 1.0), -15);
        assert_eq!(signed_magnitude_code(0.0, 4, 1.0), 0);
    }

    #[test]
    fn quantized_value_is_the_code_on_the_grid() {
        for i in 0..200 {
            let v = (i as f32 - 100.0) / 80.0; // spans beyond ±1
            let k = signed_magnitude_code(v, 4, 1.0);
            assert!(k.abs() <= 15, "v = {v}");
            assert_eq!(
                signed_magnitude_quantize(v, 4, 1.0),
                k as f32 / 15.0,
                "v = {v}"
            );
        }
    }
}
