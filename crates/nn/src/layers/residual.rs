use crate::layers::{BatchNorm2d, Conv2d, Relu, Sequential};
use crate::{Layer, Mode, NnError, Param, Result};
use leca_tensor::{PooledTensor, Tensor, Workspace};
use rand::Rng;

/// A ResNet basic block: two 3x3 conv+BN stages with an additive skip
/// connection and a final ReLU.
///
/// When `stride > 1` or the channel count changes, the skip path is a 1x1
/// strided convolution + BN (the standard "option B" projection shortcut).
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    final_relu: Relu,
    /// Set by a training forward; backward consumes it.
    did_forward: bool,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResidualBlock(projection: {})", self.shortcut.is_some())
    }
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_ch` → `out_ch` with the given
    /// stride on the first convolution.
    pub fn new<R: Rng + ?Sized>(in_ch: usize, out_ch: usize, stride: usize, rng: &mut R) -> Self {
        let mut main = Sequential::new();
        main.push(Conv2d::new(in_ch, out_ch, 3, stride, 1, false, rng));
        main.push(BatchNorm2d::new(out_ch));
        main.push(Relu::new());
        main.push(Conv2d::new(out_ch, out_ch, 3, 1, 1, false, rng));
        main.push(BatchNorm2d::new(out_ch));

        let shortcut = if stride != 1 || in_ch != out_ch {
            let mut s = Sequential::new();
            s.push(Conv2d::new(in_ch, out_ch, 1, stride, 0, false, rng));
            s.push(BatchNorm2d::new(out_ch));
            Some(s)
        } else {
            None
        };

        ResidualBlock {
            main,
            shortcut,
            final_relu: Relu::new(),
            did_forward: false,
        }
    }

    /// True when the skip path uses a projection convolution.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }
}

impl Layer for ResidualBlock {
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        if !std::mem::take(&mut self.did_forward) {
            return Err(NnError::NoForwardCache("residual_block"));
        }
        let g_sum = self.final_relu.backward(grad_out)?;
        let g_main = self.main.backward(&g_sum)?;
        let g_skip = match &mut self.shortcut {
            Some(s) => s.backward(&g_sum)?,
            None => g_sum,
        };
        Ok(g_main.add(&g_skip)?)
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let main_out = self.main.forward_ws(x, mode, ws)?;
        let mut sum = ws.take(main_out.shape());
        match &mut self.shortcut {
            Some(s) => {
                let skip_out = s.forward_ws(x, mode, ws)?;
                main_out.add_into(&skip_out, &mut sum)?;
            }
            // Identity skip adds `x` directly — no clone of the input.
            None => main_out.add_into(x, &mut sum)?,
        }
        drop(main_out);
        if mode.is_train() {
            self.did_forward = true;
        }
        self.final_relu.forward_ws(&sum, mode, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.main.visit_buffers(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_buffers(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual_block"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_block_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = ResidualBlock::new(4, 4, 1, &mut rng);
        assert!(!b.has_projection());
        let y = b
            .forward(&Tensor::zeros(&[1, 4, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 4, 8, 8]);
    }

    #[test]
    fn strided_block_downsamples_and_projects() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = ResidualBlock::new(4, 8, 2, &mut rng);
        assert!(b.has_projection());
        let y = b
            .forward(&Tensor::zeros(&[2, 4, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn gradcheck_identity_block() {
        // Seed chosen away from ReLU kinks: finite differences at ±1e-3
        // disagree with the analytic gradient when a pre-activation sits
        // within ~1e-3 of zero, which a handful of seeds hit by chance.
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut b, &x, 3e-2).unwrap();
    }

    #[test]
    fn gradcheck_projection_block() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = ResidualBlock::new(2, 4, 2, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut b, &x, 3e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = ResidualBlock::new(2, 2, 1, &mut rng);
        assert!(b.backward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
    }

    #[test]
    fn param_and_buffer_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = ResidualBlock::new(2, 2, 1, &mut rng);
        // Two 3x3 convs (2*2*9 each) + two BNs (2*2 each).
        assert_eq!(b.num_params(), 2 * (2 * 2 * 9) + 2 * 4);
        let mut buffers = 0;
        b.visit_buffers(&mut |_| buffers += 1);
        assert_eq!(buffers, 4);
    }
}
