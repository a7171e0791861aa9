//! Int8 quantized storage: [`QTensor`] and its scale/zero-point math.
//!
//! The int8 tier keeps values on an affine grid `v ≈ (q - zero_point) *
//! scale` with `q` stored as `i8`. Two schemes are used:
//!
//! - **Weights** are quantized *symmetrically per output channel* (axis 0):
//!   `zero_point = 0`, `scale = max|w| / 127`. Symmetric weights keep the
//!   conv epilogue a single multiply per channel and make the i16 packed
//!   operand `q - 0` trivially in range.
//! - **Activations** are quantized *per tensor, affine*: the range
//!   `[lo, hi]` observed over a calibration batch is widened to include
//!   zero (so `zero_point` is exactly representable and padding/ReLU are
//!   exact grid points), then `scale = (hi - lo) / 254` maps it onto the
//!   symmetric code range `[-127, 127]`.
//!
//! The code `-128` is never produced: restricting to `[-127, 127]` keeps
//! `q - zero_point` inside `[-254, 254]`, which lets the AVX2 kernel use
//! `_mm256_madd_epi16` (pairwise i16×i16 → i32) with no saturation — see
//! `crate::backend` for the kernel-level argument.
//!
//! Quantization **refuses non-finite input** with a typed
//! [`TensorError::NonFinite`]: NaN or ±inf would otherwise be silently
//! clamped into the grid and surface as an accuracy mystery three layers
//! downstream.

use crate::{Tensor, TensorError};

/// Smallest code the int8 tier produces (note: not `i8::MIN`; see the
/// module docs for why `-128` is excluded).
pub const QMIN: i32 = -127;
/// Largest code the int8 tier produces.
pub const QMAX: i32 = 127;

/// An affine quantization grid: `value = (code - zero_point) * scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Grid step; always positive and finite.
    pub scale: f32,
    /// Code representing real zero; always inside `[QMIN, QMAX]`.
    pub zero_point: i32,
}

impl QuantParams {
    /// Identity-ish grid used as a placeholder (`scale = 1`, `zp = 0`).
    pub const UNIT: QuantParams = QuantParams {
        scale: 1.0,
        zero_point: 0,
    };

    /// Builds activation parameters from an observed `[lo, hi]` range.
    ///
    /// The range is first widened to include zero, so the zero point is an
    /// exact grid code; a degenerate (single-point) range falls back to
    /// `scale = 1`. `lo`/`hi` must be finite (callers observe them with
    /// [`QTensor::observe_range`], which rejects non-finite data).
    pub fn from_range(lo: f32, hi: f32) -> QuantParams {
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let span = hi - lo;
        if span <= 0.0 || !span.is_finite() {
            return QuantParams::UNIT;
        }
        let scale = span / (QMAX - QMIN) as f32;
        // Nudge the zero point onto the grid; clamping keeps pathological
        // ranges (all-positive or all-negative spans) representable.
        let zp = (QMIN as f32 - lo / scale).round_ties_even() as i32;
        QuantParams {
            scale,
            zero_point: zp.clamp(QMIN, QMAX),
        }
    }

    /// Quantizes one value onto the grid (round-to-nearest-even, clamped).
    pub fn quantize(self, v: f32) -> i8 {
        let inv = 1.0 / self.scale;
        // Mirrors the SIMD pass exactly: scale, clamp into cvt-safe range,
        // round ties-to-even, shift by the zero point, clamp to the grid.
        let r = (v * inv).clamp(-1.0e9, 1.0e9).round_ties_even() as i32 + self.zero_point;
        r.clamp(QMIN, QMAX) as i8
    }

    /// Maps a code back to the real line.
    pub fn dequantize(self, q: i8) -> f32 {
        (q as i32 - self.zero_point) as f32 * self.scale
    }
}

/// A dense int8 tensor: `i8` codes plus per-channel grids.
///
/// `scales`/`zero_points` have one entry per channel (axis-0 slice) for
/// per-channel weights, or exactly one entry for per-tensor activations.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    shape: Vec<usize>,
    scales: Vec<f32>,
    zero_points: Vec<i32>,
}

impl QTensor {
    /// Symmetric per-output-channel weight quantization (axis 0).
    ///
    /// Each channel `c` gets `scale = max|w_c| / 127`, `zero_point = 0`;
    /// an all-zero channel degenerates to `scale = 1`. Requires rank ≥ 1
    /// and rejects non-finite values with [`TensorError::NonFinite`].
    pub fn quantize_per_channel(t: &Tensor) -> crate::Result<QTensor> {
        let shape = t.shape().to_vec();
        if shape.is_empty() {
            return Err(TensorError::RankMismatch {
                op: "quantize_per_channel",
                expected: 1,
                actual: 0,
            });
        }
        let src = t.as_slice();
        check_finite("quantize_per_channel", src)?;
        let channels = shape[0];
        let per = src.len().checked_div(channels).unwrap_or(0);
        let mut scales = Vec::with_capacity(channels);
        let mut data = Vec::with_capacity(src.len());
        for c in 0..channels {
            let row = &src[c * per..(c + 1) * per];
            let maxabs = crate::ops::reduce::max_abs_f32(row);
            let scale = if maxabs > 0.0 {
                maxabs / QMAX as f32
            } else {
                1.0
            };
            let params = QuantParams {
                scale,
                zero_point: 0,
            };
            scales.push(scale);
            data.extend(row.iter().map(|&v| params.quantize(v)));
        }
        Ok(QTensor {
            data,
            shape,
            zero_points: vec![0; channels],
            scales,
        })
    }

    /// Per-tensor affine quantization with caller-supplied parameters
    /// (typically from a calibration observer via
    /// [`QuantParams::from_range`]). Rejects non-finite values.
    pub fn quantize_per_tensor(t: &Tensor, params: QuantParams) -> crate::Result<QTensor> {
        let src = t.as_slice();
        check_finite("quantize_per_tensor", src)?;
        let data = src.iter().map(|&v| params.quantize(v)).collect();
        Ok(QTensor {
            data,
            shape: t.shape().to_vec(),
            scales: vec![params.scale],
            zero_points: vec![params.zero_point],
        })
    }

    /// Min/max observation pass for calibration. Rejects non-finite
    /// values; returns `(lo, hi)` over the whole tensor.
    pub fn observe_range(t: &Tensor) -> crate::Result<(f32, f32)> {
        let src = t.as_slice();
        check_finite("observe_range", src)?;
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in src {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if src.is_empty() {
            return Ok((0.0, 0.0));
        }
        Ok((lo, hi))
    }

    /// Expands the codes back to an f32 [`Tensor`] on the stored grids.
    pub fn dequantize(&self) -> Tensor {
        let channels = self.scales.len();
        let mut out = Vec::with_capacity(self.data.len());
        if channels <= 1 {
            let p = self.params(0);
            out.extend(self.data.iter().map(|&q| p.dequantize(q)));
        } else {
            let per = self.data.len() / channels;
            for c in 0..channels {
                let p = self.params(c);
                out.extend(
                    self.data[c * per..(c + 1) * per]
                        .iter()
                        .map(|&q| p.dequantize(q)),
                );
            }
        }
        Tensor::from_vec(out, &self.shape).expect("dequantize preserves the element count")
    }

    /// The raw i8 codes, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Per-channel scales (length 1 for per-tensor grids).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-channel zero points (length 1 for per-tensor grids).
    pub fn zero_points(&self) -> &[i32] {
        &self.zero_points
    }

    /// Grid parameters for channel `c` (channel 0 for per-tensor grids).
    pub fn params(&self, c: usize) -> QuantParams {
        QuantParams {
            scale: self.scales[c],
            zero_point: self.zero_points[c],
        }
    }
}

/// Scans for NaN/inf and reports the first offender with a typed error.
pub fn check_finite(op: &'static str, data: &[f32]) -> crate::Result<()> {
    match data.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(TensorError::NonFinite { op, index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_range_includes_zero() {
        let p = QuantParams::from_range(0.5, 2.0);
        // Widened to [0, 2]: zero must be exactly representable.
        assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
        assert_eq!(p.zero_point, QMIN);
    }

    #[test]
    fn from_range_degenerate_is_unit() {
        assert_eq!(QuantParams::from_range(0.0, 0.0), QuantParams::UNIT);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let p = QuantParams::from_range(-1.5, 3.0);
        for i in 0..1000 {
            let v = -1.5 + 4.5 * (i as f32 / 999.0);
            let r = p.dequantize(p.quantize(v));
            assert!(
                (r - v).abs() <= p.scale * 0.5 + 1e-6,
                "v={v} r={r} scale={}",
                p.scale
            );
        }
    }

    #[test]
    fn per_channel_symmetric_zero_points() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5, 4.0, 0.0, -0.25], &[2, 3]).unwrap();
        let q = QTensor::quantize_per_channel(&t).unwrap();
        assert_eq!(q.zero_points(), &[0, 0]);
        assert_eq!(q.scales().len(), 2);
        // max|row0| = 2 → code for -2.0 is -127.
        assert_eq!(q.data()[1], -127);
        assert_eq!(q.data()[3], 127);
    }

    #[test]
    fn per_channel_never_emits_negative_128() {
        let t = Tensor::from_vec(vec![-1.0, 1.0, -0.5, 0.5], &[1, 4]).unwrap();
        let q = QTensor::quantize_per_channel(&t).unwrap();
        assert!(q.data().iter().all(|&v| (-127..=127).contains(&(v as i32))));
    }

    #[test]
    fn nan_rejected_with_typed_error() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN, 2.0], &[3]).unwrap();
        let err = QTensor::quantize_per_channel(&t).unwrap_err();
        assert_eq!(
            err,
            TensorError::NonFinite {
                op: "quantize_per_channel",
                index: 1
            }
        );
    }

    #[test]
    fn inf_rejected_in_observer() {
        let t = Tensor::from_vec(vec![0.0, f32::INFINITY], &[2]).unwrap();
        let err = QTensor::observe_range(&t).unwrap_err();
        assert!(matches!(err, TensorError::NonFinite { index: 1, .. }));
    }

    #[test]
    fn dequantize_roundtrip_per_tensor() {
        let t = Tensor::from_vec(vec![0.1, -0.9, 0.4, 0.0], &[2, 2]).unwrap();
        let p = QuantParams::from_range(-1.0, 1.0);
        let q = QTensor::quantize_per_tensor(&t, p).unwrap();
        let back = q.dequantize();
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= p.scale * 0.5 + 1e-6);
        }
    }
}
