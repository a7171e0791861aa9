//! Optimizers and learning-rate schedules.
//!
//! The paper trains LeCA with Adam, learning rate `1e-3`, decayed by `0.1`
//! every 30 epochs (proxy) or 10 epochs (full pipeline) — see Sec. 5.2.
//! Frozen parameters ([`crate::Param::frozen`]) are skipped, which is how
//! the backbone stays fixed during joint training.

use crate::{Layer, NnError, Result};
use leca_tensor::Tensor;

/// Step-decay learning-rate schedule: `lr = base * gamma^(epoch / every)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecay {
    /// Initial learning rate.
    pub base_lr: f32,
    /// Multiplicative decay factor applied every `every` epochs.
    pub gamma: f32,
    /// Epoch interval between decays.
    pub every: usize,
}

impl StepDecay {
    /// The paper's schedule: `1e-3`, ×0.1 every `every` epochs.
    pub fn paper(every: usize) -> Self {
        StepDecay {
            base_lr: 1e-3,
            gamma: 0.1,
            every,
        }
    }

    /// Learning rate at a given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.gamma.powi((epoch / self.every.max(1)) as i32)
    }
}

/// Adam's first-moment decay rate.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay rate.
const BETA2: f32 = 0.999;
/// Adam's denominator stabilizer.
const EPS: f32 = 1e-8;
/// L2 weight decay, folded into the gradient as `g + WEIGHT_DECAY * w`.
/// Zero, but the term stays so every update keeps its bits: it can turn a
/// `-0.0` gradient into `+0.0`, and it turns an infinite weight's update
/// into NaN.
const WEIGHT_DECAY: f32 = 0.0;

/// Adam optimizer (Kingma & Ba, 2014), the paper's choice, with the
/// standard betas (0.9, 0.999) and eps 1e-8.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    t: i32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with learning rate `lr`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for non-positive learning rates.
    pub fn new(lr: f32) -> Result<Self> {
        if lr <= 0.0 {
            return Err(NnError::InvalidConfig(format!(
                "lr must be positive, got {lr}"
            )));
        }
        Ok(Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        })
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> i32 {
        self.t
    }

    /// Applies one Adam step to every non-frozen parameter of `model`.
    pub fn step<L: Layer + ?Sized>(&mut self, model: &mut L) {
        self.t += 1;
        let (lr, b1, b2, eps, wd, t) = (self.lr, BETA1, BETA2, EPS, WEIGHT_DECAY, self.t);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(p.value.shape()));
                vs.push(Tensor::zeros(p.value.shape()));
            }
            if !p.frozen {
                let m = &mut ms[idx];
                let v = &mut vs[idx];
                for (((mi, vi), gi), wi) in m
                    .as_mut_slice()
                    .iter_mut()
                    .zip(v.as_mut_slice())
                    .zip(p.grad.as_slice())
                    .zip(p.value.as_mut_slice())
                {
                    let g = gi + wd * *wi;
                    *mi = b1 * *mi + (1.0 - b1) * g;
                    *vi = b2 * *vi + (1.0 - b2) * g * g;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *wi -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::loss::SoftmaxCrossEntropy;
    use crate::{Mode, Param};
    use leca_tensor::{PooledTensor, Tensor, Workspace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct OneParam {
        p: Param,
    }

    impl Layer for OneParam {
        fn forward_ws(
            &mut self,
            x: &Tensor,
            _mode: Mode,
            ws: &Workspace,
        ) -> crate::Result<PooledTensor> {
            Ok(ws.take_from(x))
        }
        fn backward(&mut self, g: &Tensor) -> crate::Result<Tensor> {
            Ok(g.clone())
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
        fn name(&self) -> &'static str {
            "one_param"
        }
    }

    #[test]
    fn step_decay_schedule() {
        let s = StepDecay::paper(30);
        assert_eq!(s.lr_at(0), 1e-3);
        assert_eq!(s.lr_at(29), 1e-3);
        assert!((s.lr_at(30) - 1e-4).abs() < 1e-9);
        assert!((s.lr_at(65) - 1e-5).abs() < 1e-10);
    }

    #[test]
    fn frozen_params_not_updated() {
        let mut layer = OneParam {
            p: Param::new(Tensor::from_slice(&[1.0])),
        };
        layer.p.frozen = true;
        layer.p.grad = Tensor::from_slice(&[5.0]);
        let mut adam = Adam::new(0.1).unwrap();
        adam.step(&mut layer);
        assert_eq!(layer.p.value.as_slice()[0], 1.0);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut layer = OneParam {
            p: Param::new(Tensor::from_slice(&[0.0])),
        };
        layer.p.grad = Tensor::from_slice(&[3.0]);
        let mut opt = Adam::new(0.01).unwrap();
        opt.step(&mut layer);
        // Bias-corrected first step ≈ lr regardless of gradient scale.
        assert!((layer.p.value.as_slice()[0] + 0.01).abs() < 1e-4);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Adam::new(-1.0).is_err());
    }

    #[test]
    fn adam_trains_a_separable_problem() {
        // Two clearly separable gaussian blobs; a linear classifier must get
        // to 100% train accuracy quickly.
        let mut rng = StdRng::seed_from_u64(0);
        let n = 64;
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let cx = if cls == 0 { -2.0 } else { 2.0 };
            xs.push(cx + 0.3 * leca_tensor::kaiming_normal(&[1], 2, &mut rng).as_slice()[0]);
            xs.push(cx * 0.5);
            labels.push(cls);
        }
        let x = Tensor::from_vec(xs, &[n, 2]).unwrap();
        let mut model = Linear::new(2, 2, &mut rng);
        let mut opt = Adam::new(0.05).unwrap();
        let lossfn = SoftmaxCrossEntropy::new();
        let mut last_loss = f32::INFINITY;
        for _ in 0..60 {
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train).unwrap();
            let (loss, grad) = lossfn.forward(&logits, &labels).unwrap();
            model.backward(&grad).unwrap();
            opt.step(&mut model);
            last_loss = loss;
        }
        assert!(last_loss < 0.05, "loss {last_loss}");
        let logits = model.forward(&x, Mode::Eval).unwrap();
        assert_eq!(crate::loss::accuracy(&logits, &labels).unwrap(), 1.0);
    }

    #[test]
    fn set_lr_works() {
        let mut a = Adam::new(0.1).unwrap();
        a.set_lr(0.02);
        assert_eq!(a.lr(), 0.02);
    }
}
