//! Table-driven finite-difference gradient check over **every** layer in
//! `leca_nn::layers`.
//!
//! One entry per layer configuration worth distinguishing: conv with and
//! without stride/bias, transposed conv, batch norm, residual blocks with
//! identity and projection shortcuts, ReLU, global average pooling, and a
//! conv-bn-relu `Sequential` sandwich. A layer added to `layers/` without a
//! row here is a review failure.

use leca_nn::gradcheck::check_layer;
use leca_nn::layers::{
    BatchNorm2d, Conv2d, ConvTranspose2d, GlobalAvgPool, Linear, Relu, ResidualBlock, Sequential,
};
use leca_nn::{Layer, Mode, NnError};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One gradcheck case: a fresh layer, an input and a tolerance.
struct Case {
    name: &'static str,
    layer: Box<dyn Layer>,
    x: Tensor,
    tol: f32,
}

fn cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut cases = Vec::new();
    let mut push = |name: &'static str, layer: Box<dyn Layer>, x: Tensor, tol: f32| {
        cases.push(Case {
            name,
            layer,
            x,
            tol,
        });
    };

    push(
        "conv2d_3x3_pad1_bias",
        Box::new(Conv2d::new(2, 3, 3, 1, 1, true, &mut rng)),
        Tensor::rand_uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut rng),
        1e-2,
    );
    push(
        "conv2d_2x2_stride2_nobias",
        Box::new(Conv2d::new(3, 4, 2, 2, 0, false, &mut rng)),
        Tensor::rand_uniform(&[1, 3, 6, 6], -1.0, 1.0, &mut rng),
        1e-2,
    );
    push(
        "conv_transpose2d_2x2_stride2_bias",
        Box::new(ConvTranspose2d::new(2, 3, 2, 2, 0, true, &mut rng)),
        Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng),
        1e-2,
    );
    push(
        "linear",
        Box::new(Linear::new(6, 4, &mut rng)),
        Tensor::rand_uniform(&[3, 6], -1.0, 1.0, &mut rng),
        1e-2,
    );

    // Batch norm, train mode: normalizes with batch statistics. The
    // running-stat EMA update the FD probes trigger is a side effect that
    // the train-mode output does not read.
    let mut bn_train = BatchNorm2d::new(2);
    let mut nontrivial = [
        Tensor::from_slice(&[1.5, 0.5]),
        Tensor::from_slice(&[0.2, -0.3]),
    ]
    .into_iter();
    bn_train.visit_params(&mut |p| p.value = nontrivial.next().unwrap());
    push(
        "batchnorm_train",
        Box::new(bn_train),
        Tensor::rand_uniform(&[2, 2, 3, 3], -1.0, 1.0, &mut rng),
        2e-2,
    );

    // Residual blocks contain BatchNorm + ReLU pairs; batch norm centers
    // activations at zero, which parks half of them on the ReLU kink where
    // finite differences are meaningless. Squash gamma and lift beta so
    // post-BN activations sit away from the kink — the *gradient
    // formulas* under test are unchanged by the parameter values.
    fn debias_batchnorms(block: &mut ResidualBlock) {
        let mut idx = 0usize;
        block.visit_params(&mut |p| {
            if p.value.rank() == 1 {
                let v = if idx.is_multiple_of(2) { 0.25 } else { 1.0 };
                p.value = Tensor::full(p.value.shape(), v);
                idx += 1;
            }
        });
    }
    let mut res_id = ResidualBlock::new(4, 4, 1, &mut rng);
    debias_batchnorms(&mut res_id);
    push(
        "residual_identity",
        Box::new(res_id),
        Tensor::rand_uniform(&[2, 4, 4, 4], 0.1, 1.0, &mut rng),
        2e-2,
    );
    let mut res_proj = ResidualBlock::new(2, 4, 2, &mut rng);
    debias_batchnorms(&mut res_proj);
    push(
        "residual_projection",
        Box::new(res_proj),
        Tensor::rand_uniform(&[2, 2, 4, 4], 0.1, 1.0, &mut rng),
        2e-2,
    );

    push(
        "relu",
        Box::new(Relu::new()),
        Tensor::rand_uniform(&[3, 7], -1.0, 1.0, &mut rng),
        1e-2,
    );
    push(
        "global_avg_pool",
        Box::new(GlobalAvgPool::new()),
        Tensor::rand_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng),
        1e-2,
    );

    // Composite: the decoder's CONV + BatchNorm + ReLU block. Same
    // kink-avoidance treatment for the BN affine params as above (the
    // conv bias is rank 1 too, so match on the BN params' lengths).
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(2, 3, 3, 1, 1, false, &mut rng));
    seq.push(BatchNorm2d::new(3));
    seq.push(Relu::new());
    let mut idx = 0usize;
    seq.visit_params(&mut |p| {
        if p.value.rank() == 1 {
            p.value = Tensor::full(
                p.value.shape(),
                if idx.is_multiple_of(2) { 0.25 } else { 1.0 },
            );
            idx += 1;
        }
    });
    push(
        "sequential_conv_bn_relu",
        Box::new(seq),
        Tensor::rand_uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut rng),
        2e-2,
    );

    cases
}

#[test]
fn every_layer_gradchecks() {
    let mut failures = Vec::new();
    for Case {
        name,
        mut layer,
        x,
        tol,
    } in cases()
    {
        if let Err(e) = check_layer(&mut *layer, &x, tol) {
            failures.push(format!("{name}: {e}"));
        }
    }
    assert!(
        failures.is_empty(),
        "gradient check failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn backward_after_an_eval_forward_has_no_cache() {
    // `backward` needs a Train-mode forward on every layer: an Eval
    // forward leaves nothing to differentiate.
    for Case {
        name, mut layer, x, ..
    } in cases()
    {
        let y = layer.forward(&x, Mode::Eval).unwrap();
        let err = layer.backward(&Tensor::ones(y.shape())).unwrap_err();
        assert!(
            matches!(err, NnError::NoForwardCache(_)),
            "{name}: expected NoForwardCache, got {err}"
        );
    }
}
