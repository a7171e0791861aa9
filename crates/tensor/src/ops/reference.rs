//! Naive reference kernels, retained after the blocked-GEMM rewrite.
//!
//! These are the textbook triple-loop implementations the optimized
//! kernels are validated against. They exist **only** for the parity test
//! suite — nothing on the
//! training path may call them. They are deliberately unblocked and
//! unthreaded so they stay an independent oracle.

use crate::{Result, Tensor, TensorError};

/// Textbook `C = A · B` for `A: (m, k)`, `B: (k, n)`: three nested loops,
/// one dot product per output element, no blocking, no threading.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// exactly like [`crate::ops::matmul`].
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul_naive",
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_naive",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let od = out.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ad[i * k + p] * bd[p * n + j];
            }
            od[i * n + j] = acc;
        }
    }
    Ok(out)
}

/// Direct 7-loop 2-D convolution: `x (N,C,H,W) * w (O,C,kh,kw)`, same
/// semantics as [`crate::ops::conv2d`] (without bias), computed without
/// im2col lowering.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry, like
/// [`crate::ops::conv2d`].
pub fn conv2d_naive(x: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> Result<Tensor> {
    if x.rank() != 4 || weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_naive",
            expected: 4,
            actual: if x.rank() != 4 {
                x.rank()
            } else {
                weight.rank()
            },
        });
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (o, wc, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_naive",
            lhs: x.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    let geom = crate::ops::Conv2dGeometry {
        in_h: h,
        in_w: w,
        kh,
        kw,
        stride,
        pad,
    };
    let (oh, ow) = geom.out_dims()?;
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    for ni in 0..n {
        for oi in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = oy * stride + ky;
                                let ix = ox * stride + kx;
                                if iy < pad || ix < pad {
                                    continue;
                                }
                                let (iy, ix) = (iy - pad, ix - pad);
                                if iy >= h || ix >= w {
                                    continue;
                                }
                                acc += x.at4(ni, ci, iy, ix) * weight.at4(oi, ci, ky, kx);
                            }
                        }
                    }
                    out.set4(ni, oi, oy, ox, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Textbook quantized matmul oracle: `acc[i][j] = Σ_p w[i,p] · (b[p,j] -
/// zp)`, computed directly in i32 with no packing, pairing, or SIMD — the
/// independent reference the int8 conv parity suite checks both dispatch
/// paths against.
pub fn qmatmul_naive(w: &[i8], m: usize, k: usize, b: &[i8], n: usize, zp: i32) -> Vec<i32> {
    assert_eq!(w.len(), m * k, "qmatmul_naive: weight buffer mismatch");
    assert_eq!(b.len(), k * n, "qmatmul_naive: operand buffer mismatch");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += w[i * k + p] as i32 * (b[p * n + j] as i32 - zp);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = matmul_naive(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn naive_shape_errors() {
        assert!(matmul_naive(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 5])).is_err());
        assert!(matmul_naive(&Tensor::zeros(&[3]), &Tensor::zeros(&[3, 3])).is_err());
        assert!(conv2d_naive(
            &Tensor::zeros(&[1, 3, 4, 4]),
            &Tensor::zeros(&[2, 4, 2, 2]),
            1,
            0
        )
        .is_err());
    }
}
