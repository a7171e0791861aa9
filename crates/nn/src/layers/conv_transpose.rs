use crate::{Layer, Mode, NnError, Param, Result};
use leca_tensor::{kaiming_uniform, ops, PooledTensor, Tensor, Workspace};
use rand::Rng;

/// 2-D transposed convolution (fractionally-strided convolution).
///
/// Weight layout `(in_channels, out_channels, k, k)`. With `stride == k` and
/// no padding this performs the exact `K x` spatial upsampling the LeCA
/// decoder uses to blow the encoded ofmap back up to image resolution
/// (Table 2 of the paper).
#[derive(Debug)]
pub struct ConvTranspose2d {
    weight: Param,
    bias: Option<Param>,
    stride: usize,
    pad: usize,
    kernel: usize,
    cache: Option<Tensor>,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with Kaiming-uniform weights.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let weight = Param::new(kaiming_uniform(
            &[in_ch, out_ch, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_ch])));
        ConvTranspose2d {
            weight,
            bias,
            stride,
            pad,
            kernel,
            cache: None,
        }
    }

    /// The current weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The current bias vector, if any.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|p| &p.value)
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }
}

impl Layer for ConvTranspose2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let shape = ops::conv_transpose2d_out_shape(x, &self.weight.value, self.stride, self.pad)?;
        let mut out = ws.take(&shape);
        ops::conv_transpose2d_into(
            x,
            &self.weight.value,
            self.bias.as_ref().map(|p| &p.value),
            self.stride,
            self.pad,
            &mut out,
        )?;
        if mode.is_train() {
            self.cache = Some(x.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache("conv_transpose2d"))?;
        // convT(x, w) = conv2d_grad_input(x, w): dx = conv2d(g, w), dw = conv2d_grad_weight(g, x).
        let gw = ops::conv2d_grad_weight(
            grad_out,
            &x,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
        )?;
        self.weight.accumulate(&gw);
        if let Some(b) = &mut self.bias {
            b.accumulate(&ops::sum_spatial_per_channel(grad_out)?);
        }
        Ok(ops::conv2d(
            grad_out,
            &self.weight.value,
            None,
            self.stride,
            self.pad,
        )?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn name(&self) -> &'static str {
        "conv_transpose2d"
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
    fn upsamples_by_stride() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ct = ConvTranspose2d::new(4, 3, 2, 2, 0, true, &mut rng);
        let y = ct
            .forward(&Tensor::zeros(&[1, 4, 4, 4]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 3, 8, 8]);
    }

    #[test]
    fn gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ct = ConvTranspose2d::new(2, 2, 2, 2, 0, true, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        check_layer(&mut ct, &x, 1e-2).unwrap();
    }

    #[test]
    fn gradients_check_out_no_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ct = ConvTranspose2d::new(3, 1, 2, 2, 0, false, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        check_layer(&mut ct, &x, 1e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ct = ConvTranspose2d::new(1, 1, 2, 2, 0, false, &mut rng);
        assert!(ct.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ct = ConvTranspose2d::new(4, 3, 2, 2, 0, true, &mut rng);
        assert_eq!(ct.num_params(), 4 * 3 * 4 + 3);
    }
}
