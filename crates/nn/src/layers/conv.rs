use crate::{Layer, Mode, NnError, Param, Result};
use leca_tensor::{kaiming_uniform, ops, PooledTensor, Tensor, Workspace};
use rand::Rng;

/// 2-D convolution layer with optional bias.
///
/// Weight layout `(out_channels, in_channels, k, k)`; activations are NCHW.
///
/// # Example
///
/// ```
/// use leca_nn::layers::Conv2d;
/// use leca_nn::{Layer, Mode};
/// use leca_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // The LeCA encoder geometry: 2x2 kernel, stride 2, no padding.
/// let mut conv = Conv2d::new(3, 8, 2, 2, 0, true, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[1, 3, 8, 8]), Mode::Eval)?;
/// assert_eq!(y.shape(), &[1, 8, 4, 4]);
/// # Ok::<(), leca_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    stride: usize,
    pad: usize,
    kernel: usize,
    cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights.
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
            &[out_ch, in_ch, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_ch])));
        Conv2d {
            weight,
            bias,
            stride,
            pad,
            kernel,
            cache: None,
        }
    }

    /// Creates a convolution from explicit weights (and optional bias).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 4 or non-square.
    pub fn from_weights(weight: Tensor, bias: Option<Tensor>, stride: usize, pad: usize) -> Self {
        assert_eq!(weight.rank(), 4, "conv weight must be rank 4");
        assert_eq!(
            weight.shape()[2],
            weight.shape()[3],
            "kernel must be square"
        );
        let kernel = weight.shape()[2];
        Conv2d {
            weight: Param::new(weight),
            bias: bias.map(Param::new),
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

impl Layer for Conv2d {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let shape = ops::conv2d_out_shape(x, &self.weight.value, self.stride, self.pad)?;
        let mut out = ws.take(&shape);
        ops::conv2d_into(
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
        let x = self.cache.take().ok_or(NnError::NoForwardCache("conv2d"))?;
        let gw = ops::conv2d_grad_weight(
            &x,
            grad_out,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
        )?;
        self.weight.accumulate(&gw);
        if let Some(b) = &mut self.bias {
            let gb = ops::sum_spatial_per_channel(grad_out)?;
            b.accumulate(&gb);
        }
        Ok(ops::conv2d_grad_input(
            grad_out,
            &self.weight.value,
            x.shape(),
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
        "conv2d"
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
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(3, 4, 3, 1, 1, true, &mut rng);
        let y = c
            .forward(&Tensor::zeros(&[2, 3, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        assert_eq!(c.num_params(), 4 * 3 * 9 + 4);
    }

    #[test]
    fn gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(2, 3, 2, 2, 0, true, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut c, &x, 1e-2).unwrap();
    }

    #[test]
    fn gradients_check_out_padded_stride1() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::new(2, 2, 3, 1, 1, false, &mut rng);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut c, &x, 1e-2).unwrap();
    }

    #[test]
    fn from_weights_identity() {
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let mut c = Conv2d::from_weights(w, None, 1, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = c.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
        assert!(c.bias().is_none());
        assert_eq!(c.kernel(), 1);
        assert_eq!(c.stride(), 1);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        assert!(c.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn freezing_marks_all_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv2d::new(1, 2, 1, 1, 0, true, &mut rng);
        c.set_frozen(true);
        let mut all_frozen = true;
        c.visit_params(&mut |p| all_frozen &= p.frozen);
        assert!(all_frozen);
    }
}
