//! Property-based tests for the tensor kernels.

use leca_tensor::ops;
use leca_tensor::Tensor;
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(12),
        b in tensor_strategy(20),
        c in tensor_strategy(20),
    ) {
        let a = Tensor::from_vec(a, &[3, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 5]).unwrap();
        let c = Tensor::from_vec(c, &[4, 5]).unwrap();
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_scales_linearly(a in tensor_strategy(6), b in tensor_strategy(6), s in -3.0f32..3.0) {
        let a = Tensor::from_vec(a, &[2, 3]).unwrap();
        let b = Tensor::from_vec(b, &[3, 2]).unwrap();
        let lhs = a.scale(s).matmul(&b).unwrap();
        let rhs = a.matmul(&b).unwrap().scale(s);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involution(v in tensor_strategy(15)) {
        let t = Tensor::from_vec(v, &[3, 5]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(t, tt);
    }

    #[test]
    fn conv2d_is_linear_in_input(
        x1 in tensor_strategy(48),
        x2 in tensor_strategy(48),
        w in tensor_strategy(24),
    ) {
        let x1 = Tensor::from_vec(x1, &[1, 3, 4, 4]).unwrap();
        let x2 = Tensor::from_vec(x2, &[1, 3, 4, 4]).unwrap();
        let w = Tensor::from_vec(w, &[2, 3, 2, 2]).unwrap();
        let lhs = ops::conv2d(&x1.add(&x2).unwrap(), &w, None, 2, 0).unwrap();
        let rhs = ops::conv2d(&x1, &w, None, 2, 0).unwrap()
            .add(&ops::conv2d(&x2, &w, None, 2, 0).unwrap()).unwrap();
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn conv2d_grad_input_is_adjoint_of_conv2d(
        x in tensor_strategy(50),
        w in tensor_strategy(32),
        y in tensor_strategy(36),
    ) {
        // <conv2d(x, w), y> == <x, conv2d_grad_input(y, w)> for arbitrary
        // x, w, y (k2, stride 2, pad 1 over 5x5: a 3x3 output grid).
        let x = Tensor::from_vec(x, &[1, 2, 5, 5]).unwrap();
        let w = Tensor::from_vec(w, &[4, 2, 2, 2]).unwrap();
        let y = Tensor::from_vec(y, &[1, 4, 3, 3]).unwrap();
        let lhs = ops::conv2d(&x, &w, None, 2, 1).unwrap().mul(&y).unwrap().sum();
        let back = ops::conv2d_grad_input(&y, &w, x.shape(), 2, 1).unwrap();
        let rhs = x.mul(&back).unwrap().sum();
        // Both sides round the same Σ x·w·y terms; bound by their magnitude.
        let abs = |t: &Tensor| t.map(f32::abs);
        let mag = ops::conv2d_grad_input(&abs(&y), &abs(&w), x.shape(), 2, 1).unwrap();
        let mag = abs(&x).mul(&mag).unwrap().sum();
        prop_assert!((lhs - rhs).abs() <= 1e-4 * mag + 1e-6, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn softmax_rows_are_probabilities(v in tensor_strategy(20)) {
        let x = Tensor::from_vec(v, &[4, 5]).unwrap();
        let s = ops::softmax_rows(&x).unwrap();
        for r in 0..4 {
            let row = &s.as_slice()[r * 5..(r + 1) * 5];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn clamp_bounds_respected(v in tensor_strategy(16), lo in -5.0f32..0.0, hi in 0.0f32..5.0) {
        let t = Tensor::from_vec(v, &[16]).unwrap().clamp(lo, hi);
        prop_assert!(t.min() >= lo && t.max() <= hi);
    }

    #[test]
    fn reshape_preserves_sum(v in tensor_strategy(24)) {
        let t = Tensor::from_vec(v, &[2, 3, 4]).unwrap();
        let r = t.reshape(&[4, 6]).unwrap();
        prop_assert!((t.sum() - r.sum()).abs() < 1e-4);
    }
}
