//! Bayer color-filter-array mosaic and the Fig. 5(a) kernel flattening.
//!
//! The LeCA sensor captures a `2W x 2H` Bayer-patterned pixel plane for a
//! `W x H` RGB image, with the green filter duplicated (Sec. 2.1). The
//! paper's Fig. 5(a) *kernel flattening* maps each trained `2x2x3` RGB
//! kernel onto the corresponding `4x4` patch of raw Bayer pixels — the
//! functions here produce exactly that raw layout.
//!
//! Pattern (RGGB), repeated over every `2x2` block:
//!
//! ```text
//! R  G
//! G  B
//! ```

use leca_tensor::{Tensor, TensorError};

/// The Fig. 5(a) rule for the raw Bayer site at `(row, col)`: the RGB
/// channel its RGGB filter samples, and the factor the flattened kernel
/// weight at that site carries. Green is duplicated onto two sites of
/// each 2x2 block, so each green site carries half the green weight.
///
/// [`flatten_kernel`], the encoder's hardware MAC schedule and the sensor
/// weight export all derive their site layout from this rule.
pub fn bayer_site(row: usize, col: usize) -> (usize, f32) {
    match (row % 2, col % 2) {
        (0, 0) => (0, 1.0), // R
        (1, 1) => (2, 1.0), // B
        _ => (1, 0.5),      // G (duplicated)
    }
}

/// Expands a `(3, H, W)` RGB image into its `(2H, 2W)` raw Bayer plane.
///
/// Each RGB pixel maps to a 2x2 RGGB block whose sites sample the
/// corresponding channel; the two green sites both carry the pixel's green
/// value (the "duplicated green" of the paper's 448x448 → 224x224x3
/// mapping).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-`(3, H, W)` input.
pub fn mosaic(rgb: &Tensor) -> Result<Tensor, TensorError> {
    if rgb.rank() != 3 || rgb.shape()[0] != 3 {
        return Err(TensorError::RankMismatch {
            op: "bayer_mosaic",
            expected: 3,
            actual: rgb.rank(),
        });
    }
    let (h, w) = (rgb.shape()[1], rgb.shape()[2]);
    let mut raw = Tensor::zeros(&[2 * h, 2 * w]);
    let src = rgb.as_slice();
    let dst = raw.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            let r = src[y * w + x];
            let g = src[(h + y) * w + x];
            let b = src[(2 * h + y) * w + x];
            let base = (2 * y) * (2 * w) + 2 * x;
            dst[base] = r; // (0,0) R
            dst[base + 1] = g; // (0,1) G
            dst[base + 2 * w] = g; // (1,0) G
            dst[base + 2 * w + 1] = b; // (1,1) B
        }
    }
    Ok(raw)
}

/// Flattens a `(N_ch, 3, K, K)` RGB encoder kernel into the `(N_ch, 2K, 2K)`
/// raw-Bayer kernel of Fig. 5(a) ([`bayer_site`]): the green weight is
/// **halved and duplicated** onto both green sites of each 2x2 block, so
/// convolving the flattened kernel over the [`mosaic`] plane equals
/// convolving the original kernel over the RGB image.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-`(N, 3, K, K)` kernel.
pub fn flatten_kernel(kernel: &Tensor) -> Result<Tensor, TensorError> {
    if kernel.rank() != 4 || kernel.shape()[1] != 3 {
        return Err(TensorError::RankMismatch {
            op: "flatten_kernel",
            expected: 4,
            actual: kernel.rank(),
        });
    }
    let (n, k) = (kernel.shape()[0], kernel.shape()[2]);
    let mut flat = Tensor::zeros(&[n, 2 * k, 2 * k]);
    for ni in 0..n {
        for fy in 0..2 * k {
            for fx in 0..2 * k {
                let (c, factor) = bayer_site(fy, fx);
                flat.set(&[ni, fy, fx], kernel.at4(ni, c, fy / 2, fx / 2) * factor);
            }
        }
    }
    Ok(flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn site_pattern_is_rggb_with_halved_green() {
        assert_eq!(bayer_site(0, 0), (0, 1.0));
        assert_eq!(bayer_site(0, 1), (1, 0.5));
        assert_eq!(bayer_site(1, 0), (1, 0.5));
        assert_eq!(bayer_site(1, 1), (2, 1.0));
        assert_eq!(bayer_site(2, 2), (0, 1.0), "pattern repeats");
    }

    #[test]
    fn mosaic_places_channels() {
        let mut rgb = Tensor::zeros(&[3, 1, 1]);
        rgb.set(&[0, 0, 0], 0.9); // R
        rgb.set(&[1, 0, 0], 0.5); // G
        rgb.set(&[2, 0, 0], 0.1); // B
        let raw = mosaic(&rgb).unwrap();
        assert_eq!(raw.at(&[0, 0]), 0.9);
        assert_eq!(raw.at(&[0, 1]), 0.5);
        assert_eq!(raw.at(&[1, 0]), 0.5);
        assert_eq!(raw.at(&[1, 1]), 0.1);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(mosaic(&Tensor::zeros(&[4, 2, 2])).is_err());
        assert!(mosaic(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn flattened_kernel_matches_rgb_convolution() {
        // <flatten(k), mosaic(x)> over a 2K x 2K patch must equal
        // <k, x> over the K x K RGB patch — the Fig. 5(a) guarantee.
        let mut rng = StdRng::seed_from_u64(1);
        let k = 2;
        let kernel = Tensor::rand_uniform(&[4, 3, k, k], -1.0, 1.0, &mut rng);
        let rgb = Tensor::rand_uniform(&[3, k, k], 0.0, 1.0, &mut rng);
        let raw = mosaic(&rgb).unwrap();
        let flat = flatten_kernel(&kernel).unwrap();
        for ni in 0..4 {
            let mut rgb_dot = 0.0;
            for c in 0..3 {
                for y in 0..k {
                    for x in 0..k {
                        rgb_dot += kernel.at4(ni, c, y, x) * rgb.at(&[c, y, x]);
                    }
                }
            }
            let mut raw_dot = 0.0;
            for y in 0..2 * k {
                for x in 0..2 * k {
                    raw_dot += flat.at(&[ni, y, x]) * raw.at(&[y, x]);
                }
            }
            assert!((rgb_dot - raw_dot).abs() < 1e-5, "{rgb_dot} vs {raw_dot}");
        }
    }

    #[test]
    fn flatten_kernel_rejects_bad_shapes() {
        assert!(flatten_kernel(&Tensor::zeros(&[4, 2, 2, 2])).is_err());
        assert!(flatten_kernel(&Tensor::zeros(&[3, 2, 2])).is_err());
    }
}
