//! Average / max pooling with backward passes.
//!
//! Average pooling doubles as the paper's **spatial down-sampling (SD)**
//! baseline encoder; max-pool backs the ResNet stem.

use crate::{Result, Tensor, TensorError};

fn expect_rank4(op: &'static str, t: &Tensor) -> Result<[usize; 4]> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.rank(),
        });
    }
    let d = t.shape();
    Ok([d[0], d[1], d[2], d[3]])
}

/// Average-pools `x: (N,C,H,W)` with a `k x k` window and stride `k`.
///
/// Requires `H` and `W` to be divisible by `k` (the non-overlapping case the
/// LeCA pipeline uses everywhere).
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when `k == 0` or the spatial
/// dimensions are not divisible by `k`.
pub fn avg_pool2d(x: &Tensor, k: usize) -> Result<Tensor> {
    let mut out = Tensor::zeros(&pool2d_out_shape("avg_pool2d", x, k)?);
    avg_pool2d_into(x, k, &mut out)?;
    Ok(out)
}

/// Output shape `(N, C, H/k, W/k)` of the `k x k`, stride-`k` pool `op`
/// (`"avg_pool2d"` or `"max_pool2d"`, which names it in errors) over `x`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-rank-4 `x` and
/// [`TensorError::InvalidGeometry`] when `k == 0` or the spatial
/// dimensions are not divisible by `k`.
pub fn pool2d_out_shape(op: &'static str, x: &Tensor, k: usize) -> Result<[usize; 4]> {
    let [n, c, h, w] = expect_rank4(op, x)?;
    if k == 0 || h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidGeometry(format!(
            "{op}: {h}x{w} not divisible by window {k}"
        )));
    }
    Ok([n, c, h / k, w / k])
}

/// [`avg_pool2d`] writing into the caller-provided `(N, C, H/k, W/k)`
/// tensor `out`, bit-identical to the allocating variant.
///
/// # Errors
///
/// As [`avg_pool2d`], plus [`TensorError::ShapeMismatch`] when `out` has
/// the wrong shape.
pub fn avg_pool2d_into(x: &Tensor, k: usize, out: &mut Tensor) -> Result<()> {
    let [n, c, oh, ow] = pool2d_out_shape("avg_pool2d", x, k)?;
    let (h, w) = (oh * k, ow * k);
    if out.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2d_into",
            lhs: out.shape().to_vec(),
            rhs: vec![n, c, oh, ow],
        });
    }
    let inv = 1.0 / (k * k) as f32;
    if k == 2 {
        // The ubiquitous 2x2 case gets a row-sliced pass through the SIMD
        // layer. Window summation order matches the generic loop below
        // (dy-outer, dx-inner), so the two paths are bit-identical.
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for plane in 0..n * c {
            for oy in 0..oh {
                let r0 = &src[(plane * h + 2 * oy) * w..(plane * h + 2 * oy) * w + w];
                let r1 = &src[(plane * h + 2 * oy + 1) * w..(plane * h + 2 * oy + 1) * w + w];
                let o = &mut dst[(plane * oh + oy) * ow..(plane * oh + oy + 1) * ow];
                crate::backend::avg_pool_k2(r0, r1, o, inv);
            }
        }
        return Ok(());
    }
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for dy in 0..k {
                        for dx in 0..k {
                            acc += x.at4(ni, ci, oy * k + dy, ox * k + dx);
                        }
                    }
                    out.set4(ni, ci, oy, ox, acc * inv);
                }
            }
        }
    }
    Ok(())
}

/// Backward of [`avg_pool2d`]: spreads each output gradient uniformly over
/// its `k x k` window.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 gradient input and
/// [`TensorError::InvalidGeometry`] for `k == 0`.
pub fn avg_pool2d_backward(grad_out: &Tensor, k: usize) -> Result<Tensor> {
    let [n, c, oh, ow] = expect_rank4("avg_pool2d_backward", grad_out)?;
    if k == 0 {
        return Err(TensorError::InvalidGeometry(
            "window must be non-zero".into(),
        ));
    }
    let mut gx = Tensor::zeros(&[n, c, oh * k, ow * k]);
    let inv = 1.0 / (k * k) as f32;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at4(ni, ci, oy, ox) * inv;
                    for dy in 0..k {
                        for dx in 0..k {
                            gx.set4(ni, ci, oy * k + dy, ox * k + dx, g);
                        }
                    }
                }
            }
        }
    }
    Ok(gx)
}

/// Flat argmax indices recorded by [`max_pool2d`] for use in the backward
/// pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxPoolIndices {
    indices: Vec<usize>,
    input_shape: [usize; 4],
}

impl MaxPoolIndices {
    /// Shape of the pooled-over input.
    pub fn input_shape(&self) -> [usize; 4] {
        self.input_shape
    }
}

/// Max-pools `x: (N,C,H,W)` with a `k x k` window and stride `k`,
/// returning the pooled tensor and the winner indices for the backward pass.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when `k == 0` or the spatial
/// dimensions are not divisible by `k`.
pub fn max_pool2d(x: &Tensor, k: usize) -> Result<(Tensor, MaxPoolIndices)> {
    let [n, c, oh, ow] = pool2d_out_shape("max_pool2d", x, k)?;
    let (h, w) = (oh * k, ow * k);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut indices = Vec::with_capacity(n * c * oh * ow);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..k {
                        for dx in 0..k {
                            let (iy, ix) = (oy * k + dy, ox * k + dx);
                            let v = x.at4(ni, ci, iy, ix);
                            if v > best {
                                best = v;
                                best_idx = ((ni * c + ci) * h + iy) * w + ix;
                            }
                        }
                    }
                    out.set4(ni, ci, oy, ox, best);
                    indices.push(best_idx);
                }
            }
        }
    }
    Ok((
        out,
        MaxPoolIndices {
            indices,
            input_shape: [n, c, h, w],
        },
    ))
}

/// Inference-only [`max_pool2d`] writing into the caller-provided
/// `(N, C, H/k, W/k)` tensor `out`; skips recording argmax indices
/// entirely, so a warm call allocates nothing. Pooled values are
/// bit-identical to the allocating variant.
///
/// # Errors
///
/// As [`max_pool2d`], plus [`TensorError::ShapeMismatch`] when `out` has
/// the wrong shape.
pub fn max_pool2d_into(x: &Tensor, k: usize, out: &mut Tensor) -> Result<()> {
    let [n, c, oh, ow] = pool2d_out_shape("max_pool2d", x, k)?;
    let (h, w) = (oh * k, ow * k);
    if out.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2d_into",
            lhs: out.shape().to_vec(),
            rhs: vec![n, c, oh, ow],
        });
    }
    if k == 2 {
        // Row-sliced 2x2 fast path; the running `v > best` update visits
        // the window in the same order as the generic loop, so winners
        // (and NaN behaviour) are identical.
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for plane in 0..n * c {
            for oy in 0..oh {
                let r0 = &src[(plane * h + 2 * oy) * w..(plane * h + 2 * oy) * w + w];
                let r1 = &src[(plane * h + 2 * oy + 1) * w..(plane * h + 2 * oy + 1) * w + w];
                let o = &mut dst[(plane * oh + oy) * ow..(plane * oh + oy + 1) * ow];
                crate::backend::max_pool_k2(r0, r1, o);
            }
        }
        return Ok(());
    }
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..k {
                        for dx in 0..k {
                            let v = x.at4(ni, ci, oy * k + dy, ox * k + dx);
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    out.set4(ni, ci, oy, ox, best);
                }
            }
        }
    }
    Ok(())
}

/// Backward of [`max_pool2d`]: routes each output gradient to the recorded
/// argmax position.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grad_out` does not have one
/// element per recorded index.
pub fn max_pool2d_backward(grad_out: &Tensor, idx: &MaxPoolIndices) -> Result<Tensor> {
    if grad_out.len() != idx.indices.len() {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2d_backward",
            lhs: grad_out.shape().to_vec(),
            rhs: vec![idx.indices.len()],
        });
    }
    let [n, c, h, w] = idx.input_shape;
    let mut gx = Tensor::zeros(&[n, c, h, w]);
    let gxs = gx.as_mut_slice();
    for (&i, &g) in idx.indices.iter().zip(grad_out.as_slice()) {
        gxs[i] += g;
    }
    Ok(gx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let p = avg_pool2d(&x, 2).unwrap();
        assert_eq!(p.shape(), &[1, 1, 2, 2]);
        assert_eq!(p.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_full_window_is_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let p = avg_pool2d(&x, 4).unwrap();
        assert!((p.as_slice()[0] - x.mean()).abs() < 1e-6);
    }

    #[test]
    fn avg_pool_rejects_indivisible() {
        let x = Tensor::zeros(&[1, 1, 5, 4]);
        assert!(avg_pool2d(&x, 2).is_err());
        assert!(avg_pool2d(&x, 0).is_err());
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let gx = avg_pool2d_backward(&g, 2).unwrap();
        assert_eq!(gx.shape(), &[1, 1, 2, 2]);
        assert!(gx.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn avg_pool_backward_is_adjoint() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let lhs = avg_pool2d(&x, 2).unwrap().mul(&y).unwrap().sum();
        let rhs = avg_pool2d_backward(&y, 2).unwrap().mul(&x).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn max_pool_picks_maximum() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let (p, _) = max_pool2d(&x, 2).unwrap();
        assert_eq!(p.as_slice(), &[5.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_winner() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let (_, idx) = max_pool2d(&x, 2).unwrap();
        let g = Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]).unwrap();
        let gx = max_pool2d_backward(&g, &idx).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_backward_checks_len() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let (_, idx) = max_pool2d(&x, 2).unwrap();
        let g = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d_backward(&g, &idx).is_err());
    }

    #[test]
    fn max_pool_negative_inputs() {
        let x = Tensor::from_vec(vec![-5.0, -1.0, -3.0, -2.0], &[1, 1, 2, 2]).unwrap();
        let (p, _) = max_pool2d(&x, 2).unwrap();
        assert_eq!(p.as_slice(), &[-1.0]);
    }

    #[test]
    fn pool_rank_checked() {
        let x = Tensor::zeros(&[4, 4]);
        assert!(avg_pool2d(&x, 2).is_err());
        assert!(max_pool2d(&x, 2).is_err());
    }
}
