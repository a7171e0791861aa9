//! Axis reductions and row softmax used by the classifier head and
//! normalization layers.

use crate::{Result, Tensor, TensorError};

/// In-order sum of an `f32` slice — THE canonical reduction order of the
/// determinism contract. Every library-side float sum outside the kernel
/// backends goes through here (the audit's `float-reduction-order` rule
/// enforces it), so reassociating an accumulation is a one-file, clearly
/// visible decision instead of a scattered `.sum::<f32>()`.
#[inline]
#[must_use]
pub fn sum_slice_f32(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>()
}

/// Largest absolute value of a slice, reduced in order; `0.0` for an
/// empty slice. The quantizer's scale derivation depends on this exact
/// fold (NaN-propagation aside, callers pre-check finiteness).
#[inline]
#[must_use]
pub fn max_abs_f32(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Sums a rank-2 tensor over axis 0, producing a `(cols,)` vector.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix input.
pub fn sum_axis0(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "sum_axis0",
            expected: 2,
            actual: x.rank(),
        });
    }
    let (rows, cols) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[cols]);
    let o = out.as_mut_slice();
    for r in 0..rows {
        for (c, v) in o.iter_mut().enumerate() {
            *v += x.as_slice()[r * cols + c];
        }
    }
    Ok(out)
}

/// Sums an `(N, C, H, W)` tensor over N, H, W producing a `(C,)` vector —
/// the shape of a convolution bias gradient.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input.
pub fn sum_spatial_per_channel(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "sum_spatial_per_channel",
            expected: 4,
            actual: x.rank(),
        });
    }
    let d = x.shape();
    let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
    let mut out = Tensor::zeros(&[c]);
    let o = out.as_mut_slice();
    let src = x.as_slice();
    for ni in 0..n {
        for (ci, v) in o.iter_mut().enumerate() {
            let plane = &src[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
            *v += plane.iter().map(|&p| p as f64).sum::<f64>() as f32;
        }
    }
    Ok(out)
}

/// Numerically-stable softmax of each row of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix input.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: x.rank(),
        });
    }
    let (rows, cols) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[rows, cols]);
    let src = x.as_slice();
    let data = out.as_mut_slice();
    for r in 0..rows {
        let xrow = &src[r * cols..(r + 1) * cols];
        let row = &mut data[r * cols..(r + 1) * cols];
        let m = crate::backend::row_max(xrow);
        // The subtraction rides the vectorized add kernel: IEEE-754
        // guarantees `v - m == v + (-m)` bit for bit, so shifting by the
        // negated max is the exact same value the scalar loop produced,
        // and `x - m` goes straight into `out` without copying `x`.
        crate::backend::add_scalar(xrow, -m, row);
        // The exp + running-sum pass is the backend's fused `exp_sum`
        // kernel: the historical sequential chain verbatim on every
        // backend (vectorizing would reassociate the sum and break the
        // determinism goldens).
        let z = crate::backend::exp_sum(row);
        let inv = 1.0 / z;
        crate::backend::scale_inplace(row, inv);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_axis0_known() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(sum_axis0(&x).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert!(sum_axis0(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn sum_spatial_per_channel_known() {
        let mut x = Tensor::zeros(&[2, 2, 1, 2]);
        x.set4(0, 0, 0, 0, 1.0);
        x.set4(0, 0, 0, 1, 2.0);
        x.set4(1, 0, 0, 0, 3.0);
        x.set4(0, 1, 0, 1, 10.0);
        let s = sum_spatial_per_channel(&x).unwrap();
        assert_eq!(s.as_slice(), &[6.0, 10.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax_rows(&x).unwrap();
        for r in 0..2 {
            let row_sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
        // Softmax is shift-invariant: both rows differ by a constant 2.
        for c in 0..3 {
            assert!((s.at(&[0, c]) - s.at(&[1, c])).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = softmax_rows(&x).unwrap();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!(s.at(&[0, 1]) > s.at(&[0, 0]));
    }

    #[test]
    fn softmax_rank_checked() {
        assert!(softmax_rows(&Tensor::zeros(&[3])).is_err());
    }
}
