//! Threaded, cache-blocked matrix multiplication.
//!
//! Three variants cover every use in the training stack without explicit
//! transposition copies:
//!
//! * [`matmul`]   — `C = A · B`
//! * [`matmul_bt_into`] — `C = A · Bᵀ` into a caller-provided `C` (the
//!   `Linear` forward)
//! * [`matmul_at`] — `C = Aᵀ · B` (input-gradient shapes)
//!
//! All three lower onto the packed-panel GEMM in [`super::gemm`]; the
//! transposed variants are expressed as strided views, so no operand is
//! ever copied into transposed form. See the `gemm` module docs for the
//! blocking scheme and the bit-exactness guarantee.

use super::gemm::{gemm, Operand};
use crate::{Result, Tensor, TensorError};

fn check_rank2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.shape()[0], t.shape()[1]))
}

/// `C = A · B` for row-major matrices `A: (m, k)`, `B: (k, n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix operands and
/// [`TensorError::ShapeMismatch`] when `A.cols != B.rows`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2("matmul", a)?;
    let (k2, n) = check_rank2("matmul", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm(
        m,
        n,
        k,
        a.as_slice(),
        k,
        1,
        &Operand::Strided {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        },
        out.as_mut_slice(),
    );
    Ok(out)
}

/// `C = A · Bᵀ` for `A: (m, k)`, `B: (n, k)`, written into the
/// caller-provided `(m, n)` tensor `out`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] as
/// for [`matmul`], plus [`TensorError::ShapeMismatch`] when `out` has the
/// wrong shape.
pub fn matmul_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k) = check_rank2("matmul_bt", a)?;
    let (n, k2) = check_rank2("matmul_bt", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bt",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    if out.shape() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bt_into",
            lhs: out.shape().to_vec(),
            rhs: vec![m, n],
        });
    }
    // Bᵀ as a view: element (p, j) of the logical operand is B[j][p].
    gemm(
        m,
        n,
        k,
        a.as_slice(),
        k,
        1,
        &Operand::Strided {
            data: b.as_slice(),
            rs: 1,
            cs: k,
        },
        out.as_mut_slice(),
    );
    Ok(())
}

/// `C = Aᵀ · B` for `A: (k, m)`, `B: (k, n)` producing `(m, n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] as
/// for [`matmul`].
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_rank2("matmul_at", a)?;
    let (k2, n) = check_rank2("matmul_at", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    // Aᵀ as a strided view: element (i, p) of the logical A is A[p][i].
    gemm(
        m,
        n,
        k,
        a.as_slice(),
        1,
        m,
        &Operand::Strided {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        },
        out.as_mut_slice(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference::matmul_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::rand_uniform(&[5, 5], -1.0, 1.0, &mut rng);
        assert_close(&matmul(&a, &Tensor::eye(5)).unwrap(), &a, 1e-6);
        assert_close(&matmul(&Tensor::eye(5), &a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matches_naive_rectangular() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(&[7, 13], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[13, 5], -1.0, 1.0, &mut rng);
        assert_close(
            &matmul(&a, &b).unwrap(),
            &matmul_naive(&a, &b).unwrap(),
            1e-4,
        );
    }

    #[test]
    fn matches_naive_threaded_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform(&[130, 40], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[40, 33], -1.0, 1.0, &mut rng);
        assert_close(
            &matmul(&a, &b).unwrap(),
            &matmul_naive(&a, &b).unwrap(),
            1e-3,
        );
    }

    #[test]
    fn bt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&[9, 6], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[11, 6], -1.0, 1.0, &mut rng);
        let expected = matmul(&a, &b.transpose().unwrap()).unwrap();
        let mut got = Tensor::zeros(&[9, 11]);
        matmul_bt_into(&a, &b, &mut got).unwrap();
        assert_close(&got, &expected, 1e-4);
    }

    #[test]
    fn at_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::rand_uniform(&[6, 9], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[6, 11], -1.0, 1.0, &mut rng);
        let expected = matmul(&a.transpose().unwrap(), &b).unwrap();
        assert_close(&matmul_at(&a, &b).unwrap(), &expected, 1e-4);
    }

    #[test]
    fn tile_edge_shapes_match_naive() {
        // Exercise m/n/k straddling the 8x8 microkernel tile boundaries.
        let mut rng = StdRng::seed_from_u64(5);
        for (m, n, k) in [(1, 1, 1), (7, 9, 8), (8, 8, 8), (9, 7, 17), (16, 24, 1)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            assert_close(
                &matmul(&a, &b).unwrap(),
                &matmul_naive(&a, &b).unwrap(),
                1e-4,
            );
        }
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        let mut out = Tensor::zeros(&[2, 5]);
        assert!(matmul_bt_into(&a, &Tensor::zeros(&[5, 4]), &mut out).is_err());
        assert!(matmul_at(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 5])).is_err());
    }

    #[test]
    fn rank_checked() {
        let v = Tensor::zeros(&[3]);
        let m = Tensor::zeros(&[3, 3]);
        assert!(matmul(&v, &m).is_err());
        assert!(matmul(&m, &v).is_err());
    }

    #[test]
    fn zero_sized_edges() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[0, 4]);
    }
}
