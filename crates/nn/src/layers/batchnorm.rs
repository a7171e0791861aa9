use crate::{Layer, Mode, NnError, Param, Result};
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Batch normalization over the channel dimension of NCHW activations.
///
/// In `Train` mode the layer normalizes with batch statistics and updates
/// exponential running statistics (momentum 0.1, PyTorch convention); in
/// `Eval` mode it uses the running statistics. Used by the LeCA decoder's
/// `CONV + BatchNorm + ReLU` block (Table 2) and by the ResNet backbones.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    eps: f32,
    momentum: f32,
    cache: Option<BnCache>,
}

/// What a training forward leaves for backward: the normalized input and
/// the per-channel inverse batch standard deviations.
#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// Running mean (for inspection in tests).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance (for inspection in tests).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Learned per-channel scale γ.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma.value
    }

    /// Learned per-channel shift β.
    pub fn beta(&self) -> &Tensor {
        &self.beta.value
    }

    /// Numerical stabilizer added to the variance.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    fn check_input(&self, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
        if x.rank() != 4 {
            return Err(NnError::Tensor(leca_tensor::TensorError::RankMismatch {
                op: "batch_norm2d",
                expected: 4,
                actual: x.rank(),
            }));
        }
        let d = x.shape();
        if d[1] != self.channels() {
            return Err(NnError::BatchMismatch {
                what: "batch_norm2d channels",
                expected: self.channels(),
                actual: d[1],
            });
        }
        Ok((d[0], d[1], d[2], d[3]))
    }

    /// Training forward of the `(n, c, hw)`-shaped `x` into `out`:
    /// normalizes with batch statistics, updates the running statistics
    /// and caches x̂ and `1/σ` for backward.
    ///
    /// The statistics update even when the parameters are frozen
    /// (`Param::frozen`, PyTorch's `requires_grad=False`): the paper's
    /// frozen backbone keeps its weights fixed while its batch-norm
    /// statistics track the incoming distribution.
    fn normalize_batch(&mut self, x: &Tensor, (n, c, hw): (usize, usize, usize), out: &mut Tensor) {
        let m = (n * hw) as f32;
        let mut x_hat = Tensor::zeros(x.shape());
        let mut inv_stds = Vec::with_capacity(c);
        for ci in 0..c {
            // Batch statistics for this channel.
            let mut mean = 0.0f64;
            for ni in 0..n {
                for p in 0..hw {
                    mean += x.as_slice()[(ni * c + ci) * hw + p] as f64;
                }
            }
            let mean = (mean / m as f64) as f32;
            let mut var = 0.0f64;
            for ni in 0..n {
                for p in 0..hw {
                    let d = x.as_slice()[(ni * c + ci) * hw + p] - mean;
                    var += (d * d) as f64;
                }
            }
            let var = (var / m as f64) as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);

            let (g, b) = (
                self.gamma.value.as_slice()[ci],
                self.beta.value.as_slice()[ci],
            );
            for ni in 0..n {
                for p in 0..hw {
                    let idx = (ni * c + ci) * hw + p;
                    let xh = (x.as_slice()[idx] - mean) * inv_std;
                    x_hat.as_mut_slice()[idx] = xh;
                    out.as_mut_slice()[idx] = g * xh + b;
                }
            }

            // Exponential running statistics (unbiased variance, as in
            // PyTorch).
            let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
            let rm = &mut self.running_mean.as_mut_slice()[ci];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
            let rv = &mut self.running_var.as_mut_slice()[ci];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * unbiased;
        }
        self.cache = Some(BnCache {
            x_hat,
            inv_std: inv_stds,
        });
    }
}

impl Layer for BatchNorm2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let (n, c, h, w) = self.check_input(x)?;
        let hw = h * w;
        let mut out = ws.take(x.shape());
        if mode.is_train() {
            self.normalize_batch(x, (n, c, hw), &mut out);
            return Ok(out);
        }
        // Pure inference: normalize with running statistics without
        // building the x̂ backward cache. Any stale cache is dropped so a
        // later backward fails loudly instead of using old activations.
        self.cache = None;
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for ci in 0..c {
            let mean = self.running_mean.as_slice()[ci];
            let inv_std = 1.0 / (self.running_var.as_slice()[ci] + self.eps).sqrt();
            let (g, b) = (
                self.gamma.value.as_slice()[ci],
                self.beta.value.as_slice()[ci],
            );
            for ni in 0..n {
                let plane = (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
                leca_tensor::backend::bn_affine(
                    &src[plane.clone()],
                    &mut dst[plane],
                    mean,
                    inv_std,
                    g,
                    b,
                );
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache("batch_norm2d"))?;
        let (n, c, h, w) = self.check_input(grad_out)?;
        let m = (n * h * w) as f32;
        let hw = h * w;
        let mut gx = Tensor::zeros(grad_out.shape());

        for ci in 0..c {
            // Reductions: dbeta = Σ dy, dgamma = Σ dy · x̂.
            let mut dbeta = 0.0f64;
            let mut dgamma = 0.0f64;
            for ni in 0..n {
                for p in 0..hw {
                    let idx = (ni * c + ci) * hw + p;
                    let dy = grad_out.as_slice()[idx] as f64;
                    dbeta += dy;
                    dgamma += dy * cache.x_hat.as_slice()[idx] as f64;
                }
            }
            self.gamma.grad.as_mut_slice()[ci] += dgamma as f32;
            self.beta.grad.as_mut_slice()[ci] += dbeta as f32;

            // Batch statistics depend on x:
            // dx = γ/σ · (dy - mean(dy) - x̂ · mean(dy·x̂))
            let scale = self.gamma.value.as_slice()[ci] * cache.inv_std[ci];
            let mean_dy = dbeta as f32 / m;
            let mean_dyxh = dgamma as f32 / m;
            for ni in 0..n {
                for p in 0..hw {
                    let idx = (ni * c + ci) * hw + p;
                    let dy = grad_out.as_slice()[idx];
                    let xh = cache.x_hat.as_slice()[idx];
                    gx.as_mut_slice()[idx] = scale * (dy - mean_dy - xh * mean_dyxh);
                }
            }
        }
        Ok(gx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> &'static str {
        "batch_norm2d"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::rand_uniform(&[4, 3, 5, 5], -2.0, 5.0, &mut rng);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per channel: mean ≈ 0, var ≈ 1 (gamma=1, beta=0).
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for hy in 0..5 {
                    for wx in 0..5 {
                        vals.push(y.at4(ni, ci, hy, wx));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batches() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 4.0);
        for _ in 0..60 {
            bn.forward(&x, Mode::Train).unwrap();
        }
        // Constant input: mean converges to 4, variance to 0.
        assert!((bn.running_mean().as_slice()[0] - 4.0).abs() < 1e-2);
        assert!(bn.running_var().as_slice()[0] < 1e-2);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_slice(&[2.0]);
        bn.running_var = Tensor::from_slice(&[4.0]);
        let x = Tensor::full(&[1, 1, 1, 1], 6.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        // (6 - 2) / sqrt(4 + eps) ≈ 2.
        assert!((y.as_slice()[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial gamma/beta so the parameter gradients are exercised.
        bn.gamma.value = Tensor::from_slice(&[1.5, 0.5]);
        bn.beta.value = Tensor::from_slice(&[0.2, -0.3]);
        let x = Tensor::rand_uniform(&[2, 2, 3, 3], -1.0, 1.0, &mut rng);
        check_layer(&mut bn, &x, 2e-2).unwrap();
    }

    #[test]
    fn channel_mismatch_errors() {
        let mut bn = BatchNorm2d::new(2);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 3, 2, 2]), Mode::Train)
            .is_err());
        assert!(bn.forward(&Tensor::zeros(&[4, 4]), Mode::Train).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut bn = BatchNorm2d::new(1);
        assert!(bn.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn frozen_params_still_track_stats() {
        // Param::frozen does not lock statistics (PyTorch convention).
        let mut bn = BatchNorm2d::new(1);
        let before_mean = bn.running_mean().clone();
        bn.set_frozen(true);
        bn.forward(&Tensor::full(&[2, 1, 2, 2], 4.0), Mode::Train)
            .unwrap();
        assert_ne!(bn.running_mean(), &before_mean);
    }

    #[test]
    fn buffers_are_visited() {
        let mut bn = BatchNorm2d::new(3);
        let mut count = 0;
        bn.visit_buffers(&mut |_| count += 1);
        assert_eq!(count, 2);
        assert_eq!(bn.num_params(), 6);
    }
}
