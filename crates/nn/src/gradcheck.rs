//! Finite-difference gradient verification.
//!
//! Every layer's analytic gradients (input and parameters) are compared to
//! central finite differences of the scalar loss `L = sum(forward(x))`.
//! This is the backbone of the crate's test suite: a layer whose
//! `backward` disagrees with `check_layer` cannot ship.

use crate::{Layer, Mode, NnError, Result};
use leca_tensor::Tensor;

/// Relative/absolute tolerance comparison for gradient checking.
fn close(analytic: f32, numeric: f32, tol: f32) -> bool {
    let denom = 1.0f32.max(analytic.abs()).max(numeric.abs());
    (analytic - numeric).abs() / denom <= tol
}

/// Verifies a layer's input and parameter gradients against central finite
/// differences of `L = sum(forward(x))`, with every forward pass run in
/// `Train` mode.
///
/// Side effects of a train forward that its output does not read
/// (batch-norm running-statistics updates) do not disturb the probes.
///
/// Checks up to 24 evenly-spaced coordinates of the input and of every
/// parameter to keep the cost bounded for larger layers.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] describing the first coordinate whose
/// analytic and numeric gradients disagree beyond `tol`, or propagates any
/// layer error.
pub fn check_layer<L: Layer + ?Sized>(layer: &mut L, x: &Tensor, tol: f32) -> Result<()> {
    const EPS: f32 = 1e-3;
    const MAX_COORDS: usize = 24;

    // Analytic pass.
    layer.zero_grad();
    let out = layer.forward(x, Mode::Train)?;
    let gx = layer.backward(&Tensor::ones(out.shape()))?;
    if gx.shape() != x.shape() {
        return Err(NnError::InvalidConfig(format!(
            "{}: input gradient shape {:?} != input shape {:?}",
            layer.name(),
            gx.shape(),
            x.shape()
        )));
    }

    // Numeric input gradients.
    let coords = sample_coords(x.len(), MAX_COORDS);
    for &i in &coords {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += EPS;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= EPS;
        let fp = layer.forward(&xp, Mode::Train)?.sum();
        let fm = layer.forward(&xm, Mode::Train)?.sum();
        let numeric = (fp - fm) / (2.0 * EPS);
        let analytic = gx.as_slice()[i];
        if !close(analytic, numeric, tol) {
            return Err(NnError::InvalidConfig(format!(
                "{}: input grad mismatch at {i}: analytic {analytic} vs numeric {numeric}",
                layer.name()
            )));
        }
    }

    // Numeric parameter gradients. Snapshot analytic grads first, then
    // perturb each parameter value in place.
    let mut param_grads: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| param_grads.push(p.grad.clone()));
    for (pi, pg) in param_grads.iter().enumerate() {
        for &i in &sample_coords(pg.len(), MAX_COORDS) {
            let numeric = {
                perturb_param(layer, pi, i, EPS);
                let fp = layer.forward(x, Mode::Train)?.sum();
                perturb_param(layer, pi, i, -2.0 * EPS);
                let fm = layer.forward(x, Mode::Train)?.sum();
                perturb_param(layer, pi, i, EPS);
                (fp - fm) / (2.0 * EPS)
            };
            let analytic = pg.as_slice()[i];
            if !close(analytic, numeric, tol) {
                return Err(NnError::InvalidConfig(format!(
                    "{}: param {pi} grad mismatch at {i}: analytic {analytic} vs numeric {numeric}",
                    layer.name()
                )));
            }
        }
    }
    Ok(())
}

fn perturb_param<L: Layer + ?Sized>(layer: &mut L, param_idx: usize, coord: usize, delta: f32) {
    let mut seen = 0usize;
    layer.visit_params(&mut |p| {
        if seen == param_idx {
            p.value.as_mut_slice()[coord] += delta;
        }
        seen += 1;
    });
}

fn sample_coords(len: usize, max: usize) -> Vec<usize> {
    if len <= max {
        (0..len).collect()
    } else {
        (0..max).map(|k| k * len / max).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Param;
    use leca_tensor::{PooledTensor, Workspace};

    /// y = w * x elementwise — trivially correct gradients.
    struct Elementwise {
        w: Param,
        cache: Option<Tensor>,
    }

    impl Layer for Elementwise {
        fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
            if mode.is_train() {
                self.cache = Some(x.clone());
            }
            Ok(ws.adopt(x.mul(&self.w.value)?))
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            let x = self.cache.take().ok_or(NnError::NoForwardCache("ew"))?;
            self.w.accumulate(&x.mul(grad_out)?);
            Ok(grad_out.mul(&self.w.value)?)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
        fn name(&self) -> &'static str {
            "elementwise"
        }
    }

    /// Deliberately wrong backward: doubles the true gradient.
    struct Buggy {
        cache: Option<Tensor>,
    }

    impl Layer for Buggy {
        fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
            if mode.is_train() {
                self.cache = Some(x.clone());
            }
            Ok(ws.adopt(x.scale(3.0)))
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            self.cache.take().ok_or(NnError::NoForwardCache("buggy"))?;
            Ok(grad_out.scale(6.0))
        }
        fn name(&self) -> &'static str {
            "buggy"
        }
    }

    #[test]
    fn accepts_correct_layer() {
        let mut l = Elementwise {
            w: Param::new(Tensor::from_slice(&[2.0, -1.0, 0.5])),
            cache: None,
        };
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        check_layer(&mut l, &x, 1e-2).unwrap();
    }

    #[test]
    fn rejects_buggy_layer() {
        let mut l = Buggy { cache: None };
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let err = check_layer(&mut l, &x, 1e-2).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn sample_coords_spans_range() {
        let c = sample_coords(100, 10);
        assert_eq!(c.len(), 10);
        assert_eq!(c[0], 0);
        assert!(c[9] >= 90);
        assert_eq!(sample_coords(5, 10), vec![0, 1, 2, 3, 4]);
    }
}
