//! Parity suite: blocked GEMM vs the retained naive reference.
//!
//! The blocked kernels in `ops::matmul*` go through packed panels, an 8x8
//! microkernel, and zero-padded edge tiles; this suite hammers exactly the
//! shapes where that machinery can go wrong — dimensions of 1, tile-size
//! +/-1 stragglers, odd primes — and random rectangles, asserting
//! elementwise agreement with `ops::reference::matmul_naive` to within
//! 1e-4 relative error.

use leca_tensor::ops::reference::matmul_naive;
use leca_tensor::ops::{matmul, matmul_at, matmul_bt, matmul_into};
use leca_tensor::Tensor;
use proptest::prelude::*;

/// Microkernel tile edge (MR == NR == 8 in ops::gemm).
const TILE: usize = 8;

/// Dimensions that historically break blocked kernels: degenerate 1,
/// the tile size and its neighbours, odd primes, and a multi-tile prime.
const EDGE_DIMS: &[usize] = &[1, TILE - 1, TILE, TILE + 1, 3, 5, 7, 13, 17, 29];

/// Maps a raw sampled selector onto a dimension: the first slots pick the
/// edge cases above, the rest fall through to a 1..=48 range, so every
/// generated shape mixes adversarial and ordinary sizes.
fn pick_dim(sel: usize) -> usize {
    if sel < EDGE_DIMS.len() {
        EDGE_DIMS[sel]
    } else {
        sel - EDGE_DIMS.len() + 1
    }
}

/// Selector range for [`pick_dim`]: edge cases plus dims 1..=48.
const DIM_SEL: std::ops::Range<usize> = 0..(10 + 48);

fn assert_rel_close(got: &Tensor, want: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let tol = 1e-4f32.max(w.abs() * 1e-4);
        prop_assert!(
            (g - w).abs() <= tol,
            "blocked {} vs naive {} (tol {})",
            g,
            w,
            tol
        );
    }
    Ok(())
}

fn fill(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        assert_rel_close(&matmul(&a, &b).unwrap(), &matmul_naive(&a, &b).unwrap())?;
    }

    #[test]
    fn matmul_bt_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        let want = matmul_naive(&a, &b.transpose().unwrap()).unwrap();
        assert_rel_close(&matmul_bt(&a, &b).unwrap(), &want)?;
    }

    #[test]
    fn matmul_at_matches_naive(
        msel in DIM_SEL,
        nsel in DIM_SEL,
        ksel in DIM_SEL,
        seed in 0u64..u64::MAX,
    ) {
        let (m, n, k) = (pick_dim(msel), pick_dim(nsel), pick_dim(ksel));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let a = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let want = matmul_naive(&a.transpose().unwrap(), &b).unwrap();
        assert_rel_close(&matmul_at(&a, &b).unwrap(), &want)?;
    }

    #[test]
    fn matmul_values_from_strategy(
        av in fill(6 * 9),
        bv in fill(9 * 7),
    ) {
        // Non-uniform values (exact strategy output, including repeats and
        // zeros) through a fixed straggler-heavy shape.
        let a = Tensor::from_vec(av, &[6, 9]).unwrap();
        let b = Tensor::from_vec(bv, &[9, 7]).unwrap();
        assert_rel_close(&matmul(&a, &b).unwrap(), &matmul_naive(&a, &b).unwrap())?;
    }
}

/// Exhaustive sweep over every combination of the edge dimensions for the
/// plain variant — cheap (dims <= 29) and deterministic. Each `(m, n)`
/// pair also runs the empty reduction `(m, 0) · (0, n)`, which must
/// overwrite a NaN-poisoned output with `+0.0` everywhere.
#[test]
fn edge_dim_cross_product() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for &m in EDGE_DIMS {
        for &n in EDGE_DIMS {
            let mut out = Tensor::full(&[m, n], f32::NAN);
            matmul_into(&Tensor::zeros(&[m, 0]), &Tensor::zeros(&[0, n]), &mut out).unwrap();
            assert!(
                out.as_slice().iter().all(|v| v.to_bits() == 0),
                "m={m} n={n} k=0: output not all +0.0"
            );
            for &k in EDGE_DIMS {
                let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
                let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
                let got = matmul(&a, &b).unwrap();
                let want = matmul_naive(&a, &b).unwrap();
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g - w).abs() <= 1e-4f32.max(w.abs() * 1e-4),
                        "m={m} n={n} k={k}: {g} vs {w}"
                    );
                }
            }
        }
    }
}
