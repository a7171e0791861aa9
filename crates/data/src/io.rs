//! Minimal PPM (P6) / PGM (P5) image writers.
//!
//! Used by the Fig. 12 experiment to dump encoded feature maps and decoded
//! reconstructions for visual inspection without any image-codec
//! dependency.

use leca_tensor::{Tensor, TensorError};
use std::io::{self, Write};
use std::path::Path;

/// Errors from image file I/O.
#[derive(Debug)]
pub enum ImageIoError {
    /// Filesystem failure.
    Io(io::Error),
    /// The tensor is not a writable image shape.
    Shape(TensorError),
}

impl std::fmt::Display for ImageIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageIoError::Io(e) => write!(f, "image io error: {e}"),
            ImageIoError::Shape(e) => write!(f, "image shape error: {e}"),
        }
    }
}

impl std::error::Error for ImageIoError {}

impl From<io::Error> for ImageIoError {
    fn from(e: io::Error) -> Self {
        ImageIoError::Io(e)
    }
}

fn to_byte(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Writes a `(3, H, W)` tensor in `[0, 1]` as a binary PPM file.
///
/// # Errors
///
/// Returns [`ImageIoError::Shape`] for non-`(3, H, W)` tensors and
/// [`ImageIoError::Io`] on filesystem failures.
pub fn write_ppm<P: AsRef<Path>>(path: P, rgb: &Tensor) -> Result<(), ImageIoError> {
    if rgb.rank() != 3 || rgb.shape()[0] != 3 {
        return Err(ImageIoError::Shape(TensorError::RankMismatch {
            op: "write_ppm",
            expected: 3,
            actual: rgb.rank(),
        }));
    }
    let (h, w) = (rgb.shape()[1], rgb.shape()[2]);
    let mut out = Vec::with_capacity(3 * h * w + 32);
    out.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
    let src = rgb.as_slice();
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                out.push(to_byte(src[(c * h + y) * w + x]));
            }
        }
    }
    std::fs::File::create(path)?.write_all(&out)?;
    Ok(())
}

/// Writes an `(H, W)` (or `(1, H, W)`) tensor in `[0, 1]` as a binary PGM.
///
/// # Errors
///
/// Returns [`ImageIoError::Shape`] for unsupported shapes and
/// [`ImageIoError::Io`] on filesystem failures.
pub fn write_pgm<P: AsRef<Path>>(path: P, gray: &Tensor) -> Result<(), ImageIoError> {
    let (h, w) = match gray.shape() {
        [h, w] => (*h, *w),
        [1, h, w] => (*h, *w),
        _ => {
            return Err(ImageIoError::Shape(TensorError::RankMismatch {
                op: "write_pgm",
                expected: 2,
                actual: gray.rank(),
            }))
        }
    };
    let mut out = Vec::with_capacity(h * w + 32);
    out.extend_from_slice(format!("P5\n{w} {h}\n255\n").as_bytes());
    for &v in gray.as_slice() {
        out.push(to_byte(v));
    }
    std::fs::File::create(path)?.write_all(&out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leca_data_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn ppm_writes_header_then_interleaved_rgb_bytes() {
        let mut rng = StdRng::seed_from_u64(0);
        let img = Tensor::rand_uniform(&[3, 5, 7], 0.0, 1.0, &mut rng);
        let p = tmp("interleaved.ppm");
        write_ppm(&p, &img).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let header = b"P6\n7 5\n255\n";
        assert_eq!(&bytes[..header.len()], header);
        let px = &bytes[header.len()..];
        assert_eq!(px.len(), 3 * 5 * 7);
        for y in 0..5 {
            for x in 0..7 {
                for c in 0..3 {
                    let v = img.at(&[c, y, x]);
                    let b = px[(y * 7 + x) * 3 + c];
                    assert!((f32::from(b) / 255.0 - v).abs() <= 0.5 / 255.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn ppm_rejects_bad_shape() {
        assert!(write_ppm(tmp("bad.ppm"), &Tensor::zeros(&[1, 2, 2])).is_err());
        assert!(write_ppm(tmp("bad.ppm"), &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn pgm_accepts_2d_and_3d_gray() {
        write_pgm(tmp("a.pgm"), &Tensor::zeros(&[4, 4])).unwrap();
        write_pgm(tmp("b.pgm"), &Tensor::zeros(&[1, 4, 4])).unwrap();
        assert!(write_pgm(tmp("c.pgm"), &Tensor::zeros(&[2, 4, 4])).is_err());
    }

    #[test]
    fn values_clamped_to_unit_range() {
        let img = Tensor::from_vec(vec![-1.0, 0.5, 2.0, 0.0], &[1, 2, 2]).unwrap();
        let p = tmp("clamp.pgm");
        write_pgm(&p, &img).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let px = &bytes[bytes.len() - 4..];
        assert_eq!(px[0], 0);
        assert_eq!(px[1], 128);
        assert_eq!(px[2], 255);
    }
}
