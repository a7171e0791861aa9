//! Bit-exact parity between every `_into` kernel and its allocating twin.
//!
//! The workspace memory plan routes hot inference paths through `_into`
//! variants that write into pooled buffers. The contract (DESIGN.md,
//! "Memory plan & workspace") is that each variant fully overwrites its
//! destination and reproduces the allocating kernel **bit for bit** — so
//! the destinations here are pre-poisoned with a sentinel value and the
//! comparisons are exact equality, not tolerance checks.

use leca_tensor::ops;
use leca_tensor::Tensor;
use proptest::prelude::*;

fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// A destination tensor pre-filled with a sentinel, so parity failures
/// catch partially-written outputs as well as wrong values.
fn poisoned(shape: &[usize]) -> Tensor {
    Tensor::full(shape, f32::from_bits(0x7fc0dead)) // a NaN payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_into_parity(a in values(12), b in values(20)) {
        let a = Tensor::from_vec(a, &[3, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 5]).unwrap();
        let expect = ops::matmul(&a, &b).unwrap();
        let mut out = poisoned(&[3, 5]);
        ops::matmul_into(&a, &b, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn matmul_bt_into_parity(a in values(12), b in values(20)) {
        let a = Tensor::from_vec(a, &[3, 4]).unwrap();
        let b = Tensor::from_vec(b, &[5, 4]).unwrap();
        let expect = ops::matmul_bt(&a, &b).unwrap();
        let mut out = poisoned(&[3, 5]);
        ops::matmul_bt_into(&a, &b, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn matmul_at_into_parity(a in values(12), b in values(20)) {
        let a = Tensor::from_vec(a, &[4, 3]).unwrap();
        let b = Tensor::from_vec(b, &[4, 5]).unwrap();
        let expect = ops::matmul_at(&a, &b).unwrap();
        let mut out = poisoned(&[3, 5]);
        ops::matmul_at_into(&a, &b, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn avg_pool2d_into_parity(x in values(2 * 3 * 8 * 8), k in 1usize..5) {
        prop_assume!(8 % k == 0);
        let x = Tensor::from_vec(x, &[2, 3, 8, 8]).unwrap();
        let expect = ops::avg_pool2d(&x, k).unwrap();
        let mut out = poisoned(expect.shape());
        ops::avg_pool2d_into(&x, k, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn max_pool2d_into_parity(x in values(2 * 3 * 8 * 8), k in 1usize..5) {
        prop_assume!(8 % k == 0);
        let x = Tensor::from_vec(x, &[2, 3, 8, 8]).unwrap();
        let (expect, _indices) = ops::max_pool2d(&x, k).unwrap();
        let mut out = poisoned(expect.shape());
        ops::max_pool2d_into(&x, k, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn softmax_rows_into_parity(x in values(4 * 7)) {
        let x = Tensor::from_vec(x, &[4, 7]).unwrap();
        let expect = ops::softmax_rows(&x).unwrap();
        let mut out = poisoned(&[4, 7]);
        ops::softmax_rows_into(&x, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
    }
}

#[test]
fn into_kernels_reject_wrong_out_shapes() {
    let a = Tensor::zeros(&[2, 3]);
    let b = Tensor::zeros(&[3, 4]);
    let mut bad = Tensor::zeros(&[4, 2]);
    assert!(ops::matmul_into(&a, &b, &mut bad).is_err());

    let x = Tensor::zeros(&[1, 2, 4, 4]);
    let w = Tensor::zeros(&[3, 2, 2, 2]);
    assert!(ops::conv2d_into(&x, &w, None, 2, 0, &mut bad).is_err());
    assert!(ops::avg_pool2d_into(&x, 2, &mut bad).is_err());
    assert!(ops::max_pool2d_into(&x, 2, &mut bad).is_err());
    assert!(ops::softmax_rows_into(&Tensor::zeros(&[2, 2]), &mut bad).is_err());

    let wt = Tensor::zeros(&[2, 3, 2, 2]);
    assert!(ops::conv_transpose2d_into(&x, &wt, None, 2, 0, &mut bad).is_err());
}
