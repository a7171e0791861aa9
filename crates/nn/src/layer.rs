use crate::{Param, Result};
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Whether a forward pass updates training-time statistics (batch norm) and
/// samples stochastic effects (noise injection in the LeCA encoder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: use batch statistics, sample noise, cache for backward.
    Train,
    /// Inference: use running statistics; forward-only use is allowed.
    Eval,
}

impl Mode {
    /// True for [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A differentiable computation stage with owned parameters.
///
/// The contract mirrors classic layer-wise backpropagation:
///
/// 1. `forward(x, Mode::Train)` computes the output and caches whatever the
///    gradient needs.
/// 2. `backward(grad_out)` consumes the cache, **accumulates** parameter
///    gradients into each [`Param::grad`], and returns `dL/dx`. A layer
///    that reads the scene itself (the LeCA encoder) has no upstream to
///    hand `dL/dx` to, so it skips computing it and returns a
///    zero-element tensor.
///
/// `backward` must be preceded by a `Train`-mode forward on the same layer;
/// implementations return [`crate::NnError::NoForwardCache`] otherwise.
pub trait Layer {
    /// Computes the layer output for `x`, drawing the output and any
    /// intermediates from the [`Workspace`] buffer pool `ws`.
    ///
    /// This is the one forward every layer implements. [`Mode::Eval`]
    /// and [`Mode::Train`] run the same body; training additionally
    /// records the backward cache.
    ///
    /// # Errors
    ///
    /// Returns an error when `x` has an incompatible shape.
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor>;

    /// [`Layer::forward_ws`] on a fresh [`Workspace`], returning an owned
    /// tensor. Bit-identical to `forward_ws`; only the allocation strategy
    /// differs.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward_ws`].
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        Ok(self.forward_ws(x, mode, &Workspace::new())?.detach())
    }

    /// Back-propagates `grad_out`, returning the gradient wrt the input
    /// (zero-element from a first layer that computes none; see the trait
    /// docs).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::NoForwardCache`] when no training forward
    /// preceded this call, or a shape error when `grad_out` does not match
    /// the cached output shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Visits every parameter in a deterministic order.
    ///
    /// The default implementation visits nothing (stateless layers).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits non-trainable persistent state (e.g. batch-norm running
    /// statistics) in a deterministic order, for checkpointing.
    ///
    /// The default implementation visits nothing.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    /// Clears all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Sets the freeze flag on every parameter of this layer.
    fn set_frozen(&mut self, frozen: bool) {
        self.visit_params(&mut |p| p.frozen = frozen);
    }

    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// A short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Downcasting hook for graph compilers (the int8 quantizer walks a
    /// [`crate::layers::Sequential`] and pattern-matches concrete layers
    /// through this). Concrete in-tree layers override it to return
    /// `Some(self)`; the default `None` makes any unrecognized external
    /// layer an explicit "unsupported" case rather than a silent skip.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NnError;

    /// Minimal layer for exercising the trait's default methods.
    struct Scale {
        factor: Param,
        cache: Option<Tensor>,
    }

    impl Layer for Scale {
        fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
            if mode.is_train() {
                self.cache = Some(x.clone());
            }
            Ok(ws.adopt(x.scale(self.factor.value.as_slice()[0])))
        }

        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            let x = self.cache.take().ok_or(NnError::NoForwardCache("scale"))?;
            let gf = x.mul(grad_out)?.sum();
            self.factor.accumulate(&Tensor::from_slice(&[gf]));
            Ok(grad_out.scale(self.factor.value.as_slice()[0]))
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.factor);
        }

        fn name(&self) -> &'static str {
            "scale"
        }
    }

    fn make() -> Scale {
        Scale {
            factor: Param::new(Tensor::from_slice(&[2.0])),
            cache: None,
        }
    }

    #[test]
    fn mode_is_train() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn default_zero_grad_and_freeze() {
        let mut s = make();
        let x = Tensor::ones(&[2]);
        s.forward(&x, Mode::Train).unwrap();
        s.backward(&Tensor::ones(&[2])).unwrap();
        assert_eq!(s.factor.grad.sum(), 2.0);
        s.zero_grad();
        assert_eq!(s.factor.grad.sum(), 0.0);
        s.set_frozen(true);
        assert!(s.factor.frozen);
        assert_eq!(s.num_params(), 1);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut s = make();
        assert!(matches!(
            s.backward(&Tensor::ones(&[2])),
            Err(NnError::NoForwardCache("scale"))
        ));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut s = make();
        s.forward(&Tensor::ones(&[2]), Mode::Eval).unwrap();
        assert!(s.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn default_ws_paths_match_allocating() {
        let ws = Workspace::new();
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let ya = make().forward(&x, Mode::Train).unwrap();
        let yb = make().forward_ws(&x, Mode::Train, &ws).unwrap();
        assert_eq!(&ya, &*yb);
        // The adopted buffer joined the pool on drop.
        drop(yb);
        assert_eq!(ws.stats().live, 0);
        assert_eq!(ws.stats().free, 1);
    }
}
