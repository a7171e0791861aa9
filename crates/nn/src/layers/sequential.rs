use crate::{Layer, Mode, Param, Result};
use leca_tensor::{PooledTensor, Tensor, Workspace};

/// A chain of layers executed in order.
///
/// `Sequential` is itself a [`Layer`], so stages compose arbitrarily — the
/// LeCA pipeline is a `Sequential` of encoder, quantizer, decoder and a
/// frozen backbone.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({})", names.join(" -> "))
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the chain.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to a layer by position.
    pub fn get(&self, idx: usize) -> Option<&dyn Layer> {
        self.layers.get(idx).map(|b| b.as_ref())
    }

    /// Mutable access to a layer by position.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut (dyn Layer + 'static)> {
        self.layers.get_mut(idx).map(|b| b.as_mut())
    }
}

impl Layer for Sequential {
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return Ok(grad_out.clone());
        };
        let mut g = last.backward(grad_out)?;
        for layer in layers {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &Workspace) -> Result<PooledTensor> {
        let mut layers = self.layers.iter_mut();
        // The first layer consumes `x` by reference — no head-of-chain
        // copy. Only the empty chain (identity) copies.
        let Some(first) = layers.next() else {
            return Ok(ws.take_from(x));
        };
        let mut cur = first.forward_ws(x, mode, ws)?;
        for layer in layers {
            // The previous stage's buffer returns to the pool as soon as
            // `cur` is reassigned, so at most two activations are live.
            cur = layer.forward_ws(&cur, mode, ws)?;
        }
        Ok(cur)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::layers::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(rng: &mut StdRng) -> Sequential {
        let mut s = Sequential::new();
        s.push(Linear::new(4, 6, rng));
        s.push(Relu::new());
        s.push(Linear::new(6, 3, rng));
        s
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(&mut rng);
        let y = net.forward(&Tensor::ones(&[2, 4]), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn gradcheck_through_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = mlp(&mut rng);
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        check_layer(&mut net, &x, 1e-2).unwrap();
    }

    #[test]
    fn visits_all_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = mlp(&mut rng);
        assert_eq!(net.num_params(), (4 * 6 + 6) + (6 * 3 + 3));
    }

    #[test]
    fn freezing_cascades() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = mlp(&mut rng);
        net.set_frozen(true);
        let mut all = true;
        net.visit_params(&mut |p| all &= p.frozen);
        assert!(all);
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = mlp(&mut rng);
        let dbg = format!("{net:?}");
        assert!(dbg.contains("linear -> relu -> linear"));
    }

    #[test]
    fn get_and_get_mut() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = mlp(&mut rng);
        assert_eq!(net.get(1).unwrap().name(), "relu");
        assert!(net.get(9).is_none());
        assert_eq!(net.get_mut(0).unwrap().name(), "linear");
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y, x);
        let g = net.backward(&Tensor::from_slice(&[3.0, 4.0])).unwrap();
        assert_eq!(g.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn empty_sequential_ws_is_identity() {
        let ws = leca_tensor::Workspace::new();
        let mut net = Sequential::new();
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = net.forward_ws(&x, Mode::Eval, &ws).unwrap();
        assert_eq!(&*y, &x);
    }

    #[test]
    fn forward_ws_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = mlp(&mut rng);
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let expected = net.forward(&x, Mode::Eval).unwrap();
        let ws = leca_tensor::Workspace::new();
        for _ in 0..3 {
            let got = net.forward_ws(&x, Mode::Eval, &ws).unwrap();
            assert_eq!(&*got, &expected);
        }
        // Chain of 3 layers, two passes after warm-up: no live leaks.
        assert_eq!(ws.stats().live, 0);
    }
}
