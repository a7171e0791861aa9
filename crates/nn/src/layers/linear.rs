use crate::{Layer, Mode, NnError, Param, Result};
use leca_tensor::{ops, xavier_uniform, PooledTensor, Tensor, TensorError, Workspace};
use rand::Rng;

/// Fully-connected layer: `y = x · Wᵀ + b` for `x: (N, in)`, `W: (out, in)`.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Linear {
            weight: Param::new(xavier_uniform(
                &[out_features, in_features],
                in_features,
                out_features,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// The current weight matrix, `(out, in)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The current bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Linear {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if x.rank() != 2 {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                op: "matmul_bt",
                expected: 2,
                actual: x.rank(),
            }));
        }
        let (n, o) = (x.shape()[0], self.out_features());
        let mut y = ws.take(&[n, o]);
        ops::matmul_bt_into(x, &self.weight.value, &mut y)?;
        let data = y.as_mut_slice();
        let bias = &self.bias.value.as_slice()[..o];
        for r in 0..n {
            leca_tensor::backend::add_assign(&mut data[r * o..(r + 1) * o], bias);
        }
        if mode.is_train() {
            self.cache = Some(x.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cache.take().ok_or(NnError::NoForwardCache("linear"))?;
        // dW = gᵀ · x ; db = sum over batch ; dx = g · W
        let gw = ops::matmul_at(grad_out, &x)?;
        self.weight.accumulate(&gw);
        self.bias.accumulate(&ops::sum_axis0(grad_out)?);
        Ok(ops::matmul(grad_out, &self.weight.value)?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "linear"
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
    fn output_shape_and_features() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(5, 3, &mut rng);
        assert_eq!(l.in_features(), 5);
        assert_eq!(l.out_features(), 3);
        let y = l.forward(&Tensor::zeros(&[4, 5]), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[4, 3]);
    }

    #[test]
    fn bias_applied_per_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        l.visit_params(&mut |p| {
            if p.value.rank() == 1 {
                p.value = Tensor::from_slice(&[1.0, -1.0]);
            } else {
                p.value.fill(0.0);
            }
        });
        let y = l.forward(&Tensor::zeros(&[1, 2]), Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut l, &x, 1e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new(10, 7, &mut rng);
        assert_eq!(l.num_params(), 10 * 7 + 7);
    }
}
