use crate::{Layer, Mode, NnError, Result};
use leca_tensor::backend;
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// Rectified linear unit: `y = max(x, 0)`.
///
/// The forward mask is a pooled `1.0 / 0.0` tensor rather than a
/// `Vec<bool>`: checked out of the caller's [`Workspace`] and returned on
/// [`Layer::backward`], so steady-state training allocates nothing here.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<PooledTensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }

    fn cache_mask(&mut self, x: &Tensor, ws: &Workspace) {
        let mut mask = ws.take(x.shape());
        backend::relu_mask(x.as_slice(), mask.as_mut_slice());
        self.mask = Some(mask);
    }
}

impl Layer for Relu {
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        if mode.is_train() {
            self.cache_mask(x, ws);
        }
        // Not `v.max(0.0)`: f32::max drops NaN operands, which would
        // silently launder a poisoned activation into a healthy zero and
        // hide divergence from the trainer's non-finite-loss detector.
        // `backend::relu_inplace` keeps the NaN-passing branch.
        let mut out = ws.take_from(x);
        backend::relu_inplace(out.as_mut_slice());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self.mask.take().ok_or(NnError::NoForwardCache("relu"))?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BatchMismatch {
                what: "relu backward",
                expected: mask.len(),
                actual: grad_out.len(),
            });
        }
        let mut out = Tensor::zeros(grad_out.shape());
        backend::relu_backward(mask.as_slice(), grad_out.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn relu_clips_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = r.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relus_propagate_nan() {
        // A poisoned activation must stay poisoned — `max(0.0)` would
        // launder NaN to 0 and mask divergence from the trainer.
        let x = Tensor::from_slice(&[f32::NAN, -1.0, 2.0]);
        let y = Relu::new().forward(&x, Mode::Eval).unwrap();
        assert!(y.as_slice()[0].is_nan());
        assert_eq!(&y.as_slice()[1..], &[0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        r.forward(&x, Mode::Train).unwrap();
        let g = r.backward(&Tensor::from_slice(&[5.0, 5.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-2.0, -0.7, 0.6, 1.5, 3.0]);
        check_layer(&mut r, &x, 1e-2).unwrap();
    }

    #[test]
    fn backward_requires_forward() {
        assert!(Relu::new().backward(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn backward_checks_length() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros(&[3]), Mode::Train).unwrap();
        assert!(r.backward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn activations_are_stateless_params() {
        assert_eq!(Relu::new().num_params(), 0);
    }

    #[test]
    fn forward_ws_matches_forward() {
        let ws = leca_tensor::Workspace::new();
        let x = Tensor::from_slice(&[-2.0, -0.0, 0.0, 1.5, f32::NAN]);
        let mut r = Relu::new();
        let expected = r.forward(&x, Mode::Eval).unwrap();
        let got = r.forward_ws(&x, Mode::Eval, &ws).unwrap();
        assert_eq!(expected.as_slice()[..4], got.as_slice()[..4]);
        assert!(got.as_slice()[4].is_nan());
    }

    #[test]
    fn train_mode_ws_still_caches_for_backward() {
        let ws = leca_tensor::Workspace::new();
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        let y = r.forward_ws(&x, Mode::Train, &ws).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 3.0]);
        let g = r.backward(&Tensor::from_slice(&[5.0, 5.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }
}
