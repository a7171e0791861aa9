//! Straight-through-estimator (STE) quantization.
//!
//! The paper's Eq. (2): `f(x) = q(x) + x - stop_gradient(x)` — the forward
//! pass emits quantized values while gradients flow through as if `q` were
//! the identity, clipped to the quantizer's input range. This module
//! provides the software quantizers used for soft LeCA training and the
//! low-resolution (LR) baseline; the trainable-boundary ADC quantizer lives
//! in `leca-core`.

use crate::{Layer, Mode, NnError, Result};
use leca_tensor::{PooledTensor, Tensor, Workspace};

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

/// Maps `x` to its integer code `0..levels` over `[lo, hi]`.
pub fn quantize_code(x: f32, lo: f32, hi: f32, levels: usize) -> usize {
    let x = x.clamp(lo, hi);
    let step = (hi - lo) / (levels - 1) as f32;
    (((x - lo) / step).round() as usize).min(levels - 1)
}

/// Reconstruction value of integer `code` over `[lo, hi]`.
pub fn dequantize_code(code: usize, lo: f32, hi: f32, levels: usize) -> f32 {
    let step = (hi - lo) / (levels - 1) as f32;
    lo + code.min(levels - 1) as f32 * step
}

/// Uniform quantizer layer with straight-through gradients.
///
/// Forward: clamp to `[lo, hi]`, snap to one of `levels` uniform values.
/// Backward: pass the gradient through wherever the (pre-clamp) input was
/// inside the range; zero outside (clipped STE).
#[derive(Debug)]
pub struct UniformQuantSte {
    depth: BitDepth,
    lo: f32,
    hi: f32,
    mask: Option<Vec<bool>>,
}

impl UniformQuantSte {
    /// Creates a quantizer over `[lo, hi]` with the given bit depth.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `lo >= hi`.
    pub fn new(depth: BitDepth, lo: f32, hi: f32) -> Result<Self> {
        if lo >= hi {
            return Err(NnError::InvalidConfig(format!(
                "quantizer range [{lo}, {hi}] is empty"
            )));
        }
        Ok(UniformQuantSte {
            depth,
            lo,
            hi,
            mask: None,
        })
    }

    /// The quantizer's bit depth.
    pub fn depth(&self) -> BitDepth {
        self.depth
    }

    /// The quantizer's input range.
    pub fn range(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }
}

impl Layer for UniformQuantSte {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if mode.is_train() {
            self.mask = Some(
                x.as_slice()
                    .iter()
                    .map(|&v| v >= self.lo && v <= self.hi)
                    .collect(),
            );
        }
        let (lo, hi, levels) = (self.lo, self.hi, self.depth.levels());
        Ok(ws.adopt(x.map(|v| quantize_uniform(v, lo, hi, levels))))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::NoForwardCache("uniform_quant_ste"))?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BatchMismatch {
                what: "quantizer backward",
                expected: mask.len(),
                actual: grad_out.len(),
            });
        }
        let mut g = grad_out.clone();
        for (v, m) in g.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "uniform_quant_ste"
    }
}

/// Quantizes a weight tensor to signed magnitude codes with `mag_bits`
/// magnitude bits (the SCM's ±4-bit precision), STE-style.
///
/// Returns the quantized tensor; values are snapped to
/// `scale * k / (2^mag_bits - 1)` for integer `k` in `[-(2^mag_bits - 1),
/// 2^mag_bits - 1]`.
pub fn quantize_signed_magnitude(w: &Tensor, mag_bits: u32, scale: f32) -> Tensor {
    let max_code = ((1u32 << mag_bits) - 1) as f32;
    w.map(|v| {
        let clipped = v.clamp(-scale, scale);
        let code = (clipped / scale * max_code).round();
        code / max_code * scale
    })
}

/// The signed-magnitude code grid used by [`quantize_signed_magnitude`].
pub fn signed_magnitude_code(v: f32, mag_bits: u32, scale: f32) -> i32 {
    let max_code = ((1u32 << mag_bits) - 1) as f32;
    (v.clamp(-scale, scale) / scale * max_code).round() as i32
}

/// Scalar form of [`quantize_signed_magnitude`] for hot loops (no tensor
/// allocation per element).
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
    fn code_roundtrip() {
        for levels in [2usize, 3, 4, 8, 16] {
            for code in 0..levels {
                let v = dequantize_code(code, -1.0, 1.0, levels);
                assert_eq!(quantize_code(v, -1.0, 1.0, levels), code);
            }
        }
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
    fn ste_forward_quantizes() {
        let depth = BitDepth::from_qbit(1.5).unwrap();
        let mut q = UniformQuantSte::new(depth, -1.0, 1.0).unwrap();
        let x = Tensor::from_slice(&[-0.9, -0.2, 0.3, 0.8]);
        let y = q.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn ste_backward_passes_in_range_only() {
        let depth = BitDepth::from_qbit(2.0).unwrap();
        let mut q = UniformQuantSte::new(depth, 0.0, 1.0).unwrap();
        let x = Tensor::from_slice(&[-0.5, 0.5, 1.5]);
        q.forward(&x, Mode::Train).unwrap();
        let g = q.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn ste_gradient_is_exact_passthrough_in_range() {
        // The STE gradient is *defined* as the identity inside the range
        // (Eq. (2) of the paper); finite differences of the staircase do not
        // apply. Verify the definition directly with an arbitrary upstream
        // gradient.
        let depth = BitDepth::from_qbit(8.0).unwrap();
        let mut q = UniformQuantSte::new(depth, -2.0, 2.0).unwrap();
        let x = Tensor::from_slice(&[-1.0, -0.25, 0.4, 1.2]);
        q.forward(&x, Mode::Train).unwrap();
        let upstream = Tensor::from_slice(&[0.3, -0.7, 1.1, 2.5]);
        let g = q.backward(&upstream).unwrap();
        assert_eq!(g.as_slice(), upstream.as_slice());
    }

    #[test]
    fn invalid_range_rejected() {
        let depth = BitDepth::from_qbit(2.0).unwrap();
        assert!(UniformQuantSte::new(depth, 1.0, 1.0).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let depth = BitDepth::from_qbit(2.0).unwrap();
        let mut q = UniformQuantSte::new(depth, 0.0, 1.0).unwrap();
        assert!(q.backward(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn signed_magnitude_grid() {
        let w = Tensor::from_slice(&[0.5, -0.5, 0.04, 2.0]);
        let q = quantize_signed_magnitude(&w, 4, 1.0);
        // Grid step is 1/15.
        assert!(
            (q.as_slice()[0] - 7.0 / 15.0).abs() < 1e-6
                || (q.as_slice()[0] - 8.0 / 15.0).abs() < 1e-6
        );
        assert_eq!(q.as_slice()[1], -q.as_slice()[0]);
        assert_eq!(q.as_slice()[3], 1.0, "clamps to scale");
        assert_eq!(signed_magnitude_code(1.0, 4, 1.0), 15);
        assert_eq!(signed_magnitude_code(-1.0, 4, 1.0), -15);
        assert_eq!(signed_magnitude_code(0.0, 4, 1.0), 0);
    }

    #[test]
    fn scalar_quantize_matches_tensor_form() {
        for i in 0..200 {
            let v = (i as f32 - 100.0) / 80.0; // spans beyond ±1
            let t = quantize_signed_magnitude(&Tensor::from_slice(&[v]), 4, 1.0).as_slice()[0];
            assert_eq!(signed_magnitude_quantize(v, 4, 1.0), t, "v = {v}");
        }
    }
}
