//! Minimal PPM (P6) / PGM (P5) image files.
//!
//! Used by the Fig. 12 experiment to dump encoded feature maps and decoded
//! reconstructions for visual inspection without any image-codec
//! dependency.

use leca_tensor::{Tensor, TensorError};
use std::io::{self, Read, Write};
use std::path::Path;

/// Errors from image file I/O.
#[derive(Debug)]
pub enum ImageIoError {
    /// Filesystem failure.
    Io(io::Error),
    /// The tensor is not a writable image shape.
    Shape(TensorError),
    /// The file is not a supported PPM/PGM.
    Format(String),
}

impl std::fmt::Display for ImageIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageIoError::Io(e) => write!(f, "image io error: {e}"),
            ImageIoError::Shape(e) => write!(f, "image shape error: {e}"),
            ImageIoError::Format(m) => write!(f, "image format error: {m}"),
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

fn parse_header(data: &[u8], magic: &str) -> Result<(usize, usize, usize), ImageIoError> {
    let text: Vec<u8> = data.iter().take(64).copied().collect();
    let header = String::from_utf8_lossy(&text);
    let mut fields = header.split_ascii_whitespace();
    let m = fields.next().unwrap_or("");
    if m != magic {
        return Err(ImageIoError::Format(format!("expected {magic}, got {m}")));
    }
    let w: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ImageIoError::Format("missing width".into()))?;
    let h: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ImageIoError::Format("missing height".into()))?;
    let maxv: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ImageIoError::Format("missing maxval".into()))?;
    if maxv != 255 {
        return Err(ImageIoError::Format(format!("unsupported maxval {maxv}")));
    }
    // Data starts after the fourth whitespace-delimited token + 1 byte.
    let mut seen = 0;
    let mut pos = 0;
    let mut in_token = false;
    for (i, &b) in data.iter().enumerate() {
        let ws = b.is_ascii_whitespace();
        if !ws && !in_token {
            in_token = true;
        } else if ws && in_token {
            in_token = false;
            seen += 1;
            if seen == 4 {
                pos = i + 1;
                break;
            }
        }
    }
    if seen < 4 {
        return Err(ImageIoError::Format("no whitespace after maxval".into()));
    }
    Ok((w, h, pos))
}

/// Reads a binary PPM (P6) file into a `(3, H, W)` tensor in `[0, 1]`.
///
/// # Errors
///
/// Returns [`ImageIoError::Format`] for malformed files and
/// [`ImageIoError::Io`] on filesystem failures.
pub fn read_ppm<P: AsRef<Path>>(path: P) -> Result<Tensor, ImageIoError> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    let (w, h, pos) = parse_header(&data, "P6")?;
    let end = w
        .checked_mul(h)
        .and_then(|px| px.checked_mul(3))
        .and_then(|need| need.checked_add(pos));
    if end.is_none_or(|end| data.len() < end) {
        return Err(ImageIoError::Format("truncated pixel data".into()));
    }
    let mut t = Tensor::zeros(&[3, h, w]);
    let dst = t.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                dst[(c * h + y) * w + x] = data[pos + (y * w + x) * 3 + c] as f32 / 255.0;
            }
        }
    }
    Ok(t)
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
    fn ppm_roundtrip_within_quantization() {
        let mut rng = StdRng::seed_from_u64(0);
        let img = Tensor::rand_uniform(&[3, 5, 7], 0.0, 1.0, &mut rng);
        let p = tmp("roundtrip.ppm");
        write_ppm(&p, &img).unwrap();
        let back = read_ppm(&p).unwrap();
        assert_eq!(back.shape(), img.shape());
        for (a, b) in img.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
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

    #[test]
    fn read_rejects_wrong_magic() {
        let p = tmp("notppm.ppm");
        std::fs::write(&p, b"P5\n2 2\n255\n0000").unwrap();
        assert!(matches!(read_ppm(&p), Err(ImageIoError::Format(_))));
    }

    #[test]
    fn read_rejects_truncated() {
        let p = tmp("trunc.ppm");
        std::fs::write(&p, b"P6\n4 4\n255\nxx").unwrap();
        assert!(read_ppm(&p).is_err());
    }

    #[test]
    fn read_rejects_overflowing_dims() {
        let p = tmp("huge.ppm");
        std::fs::write(&p, b"P6\n4294967296 4294967296\n255\n").unwrap();
        assert!(matches!(read_ppm(&p), Err(ImageIoError::Format(_))));
    }

    #[test]
    fn read_rejects_header_without_pixel_separator() {
        let p = tmp("noseparator.ppm");
        std::fs::write(&p, b"P6 1 1 255").unwrap();
        assert!(matches!(read_ppm(&p), Err(ImageIoError::Format(_))));
    }

    #[test]
    fn read_missing_file() {
        assert!(matches!(
            read_ppm("/definitely/missing.ppm"),
            Err(ImageIoError::Io(_))
        ));
    }
}
