use crate::{Layer, Mode, NnError, Result};
use leca_tensor::ops::reduce;
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Global average pooling: `(N, C, H, W)` → `(N, C)`.
///
/// The standard ResNet head before the final linear classifier.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_shape: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if x.rank() != 4 {
            return Err(NnError::Tensor(leca_tensor::TensorError::RankMismatch {
                op: "global_avg_pool",
                expected: 4,
                actual: x.rank(),
            }));
        }
        let d = x.shape();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        if mode.is_train() {
            self.in_shape = Some([d[0], d[1], d[2], d[3]]);
        }
        let mut out = ws.take(&[n, c]);
        let inv = 1.0 / hw.max(1) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let plane = &x.as_slice()[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
                out.as_mut_slice()[ni * c + ci] = reduce::sum_slice_f32(plane) * inv;
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let [n, c, h, w] = self
            .in_shape
            .take()
            .ok_or(NnError::NoForwardCache("global_avg_pool"))?;
        if grad_out.shape() != [n, c] {
            return Err(NnError::BatchMismatch {
                what: "global_avg_pool backward",
                expected: n * c,
                actual: grad_out.len(),
            });
        }
        let hw = h * w;
        let inv = 1.0 / hw.max(1) as f32;
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_out.as_slice()[ni * c + ci] * inv;
                for p in 0..hw {
                    gx.as_mut_slice()[(ni * c + ci) * hw + p] = g;
                }
            }
        }
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
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
    fn gap_computes_plane_means() {
        let mut g = GlobalAvgPool::new();
        let mut x = Tensor::zeros(&[1, 2, 2, 2]);
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            x.as_mut_slice()[i] = *v;
        }
        x.as_mut_slice()[4..8].copy_from_slice(&[10.0, 10.0, 10.0, 10.0]);
        let y = g.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = GlobalAvgPool::new();
        let x = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        check_layer(&mut g, &x, 1e-3).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        assert!(GlobalAvgPool::new()
            .backward(&Tensor::zeros(&[1, 4]))
            .is_err());
    }

    #[test]
    fn gap_rejects_wrong_rank() {
        let mut g = GlobalAvgPool::new();
        assert!(g.forward(&Tensor::zeros(&[2, 4]), Mode::Eval).is_err());
    }
}
