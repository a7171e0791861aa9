//! ResNet-style classifier backbones.
//!
//! These stand in for the paper's pre-trained ResNet-18 (proxy pipeline) and
//! ResNet-50 (full pipeline). They are trained from scratch on the
//! SynthVision datasets by the experiment harness, then **frozen** — exactly
//! mirroring the paper's methodology of keeping the downstream DNN fixed
//! while LeCA's encoder/decoder learn through it.

use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu, ResidualBlock, Sequential};
use crate::{Layer, Mode, Param, Result};
use leca_tensor::{PooledTensor, Tensor, Workspace};
use rand::Rng;

/// A classification backbone: a CNN ending in `(N, num_classes)` logits.
pub struct Backbone {
    net: Sequential,
    num_classes: usize,
    arch: &'static str,
}

impl std::fmt::Debug for Backbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backbone({}, {} classes)", self.arch, self.num_classes)
    }
}

impl Backbone {
    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Architecture name.
    pub fn arch(&self) -> &'static str {
        self.arch
    }

    /// The underlying layer chain.
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the underlying layer chain.
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }
}

impl Layer for Backbone {
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.net.backward(grad_out)
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        self.net.forward_ws(x, mode, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.net.visit_buffers(f);
    }

    fn name(&self) -> &'static str {
        "backbone"
    }
}

/// ResNet-style proxy backbone (stands in for ResNet-18 on TinyImageNet).
///
/// Geometry is tuned for 32x32 RGB inputs: a 3x3 stem and three residual
/// stages at 16/32/64 channels.
pub fn resnet_proxy<R: Rng + ?Sized>(num_classes: usize, rng: &mut R) -> Backbone {
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 16, 3, 1, 1, false, rng));
    net.push(BatchNorm2d::new(16));
    net.push(Relu::new());
    net.push(ResidualBlock::new(16, 16, 1, rng));
    net.push(ResidualBlock::new(16, 32, 2, rng));
    net.push(ResidualBlock::new(32, 64, 2, rng));
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(64, num_classes, rng));
    Backbone {
        net,
        num_classes,
        arch: "resnet_proxy",
    }
}

/// Deeper backbone for the full pipeline (stands in for ResNet-50 on
/// ImageNet); tuned for 64x64 RGB inputs.
pub fn resnet_full<R: Rng + ?Sized>(num_classes: usize, rng: &mut R) -> Backbone {
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 24, 3, 2, 1, false, rng));
    net.push(BatchNorm2d::new(24));
    net.push(Relu::new());
    net.push(ResidualBlock::new(24, 24, 1, rng));
    net.push(ResidualBlock::new(24, 48, 2, rng));
    net.push(ResidualBlock::new(48, 48, 1, rng));
    net.push(ResidualBlock::new(48, 96, 2, rng));
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(96, num_classes, rng));
    Backbone {
        net,
        num_classes,
        arch: "resnet_full",
    }
}

/// A very small CNN used by fast tests.
pub fn tiny_cnn<R: Rng + ?Sized>(num_classes: usize, rng: &mut R) -> Backbone {
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 8, 3, 2, 1, true, rng));
    net.push(Relu::new());
    net.push(Conv2d::new(8, 16, 3, 2, 1, true, rng));
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(16, num_classes, rng));
    Backbone {
        net,
        num_classes,
        arch: "tiny_cnn",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn proxy_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = resnet_proxy(10, &mut rng);
        let y = b
            .forward(&Tensor::zeros(&[2, 3, 32, 32]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        assert_eq!(b.num_classes(), 10);
        assert_eq!(b.arch(), "resnet_proxy");
    }

    #[test]
    fn full_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = resnet_full(16, &mut rng);
        let y = b
            .forward(&Tensor::zeros(&[1, 3, 64, 64]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 16]);
    }

    #[test]
    fn tiny_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = tiny_cnn(4, &mut rng);
        let y = b
            .forward(&Tensor::zeros(&[3, 3, 16, 16]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[3, 4]);
    }

    #[test]
    fn freezing_keeps_gradient_flow() {
        // The core LeCA mechanism: frozen params still propagate gradients.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = tiny_cnn(2, &mut rng);
        b.set_frozen(true);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = b.forward(&x, Mode::Train).unwrap();
        let gx = b.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(gx.shape(), x.shape());
        assert!(
            gx.norm_sq() > 0.0,
            "gradient must flow through frozen layers"
        );
    }

    #[test]
    fn backbone_train_and_eval_modes_differ_after_updates() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = resnet_proxy(5, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 32, 32], 0.0, 1.0, &mut rng);
        // Run a train pass to move running stats away from init.
        b.forward(&x, Mode::Train).unwrap();
        let y_train = b.forward(&x, Mode::Train).unwrap();
        let y_eval = b.forward(&x, Mode::Eval).unwrap();
        let diff = y_train.sub(&y_eval).unwrap().norm_sq();
        assert!(
            diff > 0.0,
            "batch vs running stats must differ early in training"
        );
    }

    #[test]
    fn param_counts_are_plausible() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut proxy = resnet_proxy(10, &mut rng);
        let mut full = resnet_full(10, &mut rng);
        let np = proxy.num_params();
        let nf = full.num_params();
        assert!(np > 50_000, "proxy has {np}");
        assert!(nf > np, "full backbone should be larger: {nf} vs {np}");
    }
}
