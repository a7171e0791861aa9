use crate::{Layer, Mode, NnError, Result};
use leca_tensor::ops::{self, MaxPoolIndices};
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Non-overlapping average pooling (`k x k` window, stride `k`).
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    did_forward: bool,
}

impl AvgPool2d {
    /// Creates an average-pool layer with window `k`.
    pub fn new(k: usize) -> Self {
        AvgPool2d {
            k,
            did_forward: false,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let mut out = ws.take(&ops::pool2d_out_shape("avg_pool2d", x, self.k)?);
        ops::avg_pool2d_into(x, self.k, &mut out)?;
        if mode.is_train() {
            self.did_forward = true;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        if !self.did_forward {
            return Err(NnError::NoForwardCache("avg_pool2d"));
        }
        self.did_forward = false;
        Ok(ops::avg_pool2d_backward(grad_out, self.k)?)
    }

    fn name(&self) -> &'static str {
        "avg_pool2d"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Non-overlapping max pooling (`k x k` window, stride `k`).
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    indices: Option<MaxPoolIndices>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with window `k`.
    pub fn new(k: usize) -> Self {
        MaxPool2d { k, indices: None }
    }
}

impl Layer for MaxPool2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if mode.is_train() {
            // Training needs the argmax indices, which only the allocating
            // kernel records.
            let (out, idx) = ops::max_pool2d(x, self.k)?;
            self.indices = Some(idx);
            return Ok(ws.adopt(out));
        }
        let mut out = ws.take(&ops::pool2d_out_shape("max_pool2d", x, self.k)?);
        // Inference never runs backward: the index-free kernel avoids the
        // argmax vector allocation entirely.
        ops::max_pool2d_into(x, self.k, &mut out)?;
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let idx = self
            .indices
            .take()
            .ok_or(NnError::NoForwardCache("max_pool2d"))?;
        Ok(ops::max_pool2d_backward(grad_out, &idx)?)
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
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
    fn avg_pool_shape() {
        let mut p = AvgPool2d::new(2);
        let y = p
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = AvgPool2d::new(2);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut p, &x, 1e-2).unwrap();
    }

    #[test]
    fn max_pool_gradcheck_distinct_values() {
        // Use well-separated values so the argmax is stable under the
        // finite-difference perturbation.
        let vals: Vec<f32> = (0..32).map(|i| i as f32 * 0.37 - 5.0).collect();
        let x = Tensor::from_vec(vals, &[1, 2, 4, 4]).unwrap();
        let mut p = MaxPool2d::new(2);
        check_layer(&mut p, &x, 1e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        assert!(AvgPool2d::new(2)
            .backward(&Tensor::zeros(&[1, 1, 2, 2]))
            .is_err());
        assert!(MaxPool2d::new(2)
            .backward(&Tensor::zeros(&[1, 1, 2, 2]))
            .is_err());
    }

    #[test]
    fn pools_have_no_params() {
        assert_eq!(AvgPool2d::new(2).num_params(), 0);
        assert_eq!(MaxPool2d::new(2).num_params(), 0);
    }
}
