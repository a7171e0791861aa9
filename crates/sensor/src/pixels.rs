//! Pixel-array exposure model.
//!
//! Turns an ideal scene (normalized raw-Bayer irradiance in `[0, 1]`) into
//! the sampled pixel values a rolling-shutter 4-T array would read out,
//! applying the Sec. 5.3 shot/read noise model.

use crate::geometry::SensorGeometry;
use crate::{Result, SensorError};
use leca_circuit::fault::FaultPlan;
use leca_circuit::noise::PixelNoise;
use leca_tensor::NormalStream;
use rand::Rng;

/// The pixel plane: geometry plus the noise operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PixelArray {
    rows: usize,
    cols: usize,
    noise: PixelNoise,
    faults: FaultPlan,
}

impl PixelArray {
    /// Creates a pixel array matching a sensor geometry with typical noise.
    pub fn new(geom: &SensorGeometry) -> Self {
        PixelArray {
            rows: geom.rows,
            cols: geom.cols,
            noise: PixelNoise::typical(),
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the noise model (e.g. [`PixelNoise::none`] for ablations).
    pub fn with_noise(mut self, noise: PixelNoise) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the manufacturing-fault plan (stuck/hot photosites).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan in use.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Array dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The noise model in use.
    pub fn noise(&self) -> &PixelNoise {
        &self.noise
    }

    /// Exposes the array to `scene` (row-major, `rows*cols` values in
    /// `[0, 1]`), returning sampled pixel values. Takes
    /// [`PixelArray::exposure_normals`] normals from `normals`, photosite
    /// by photosite in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::FrameShapeMismatch`] when the scene size does
    /// not match the array.
    pub fn expose<R: Rng + ?Sized>(
        &self,
        scene: &[f32],
        normals: &mut NormalStream<'_, R>,
    ) -> Result<Vec<f32>> {
        if scene.len() != self.rows * self.cols {
            return Err(SensorError::FrameShapeMismatch {
                expected: self.rows * self.cols,
                actual: scene.len(),
            });
        }
        if self.noise.normals_per_pixel() == 0 {
            return self.expose_ideal(scene);
        }
        // Both normals of every photosite of a row, as one slice.
        let mut out = Vec::with_capacity(scene.len());
        for row in scene.chunks(self.cols) {
            let z = normals.take_lanes(1, 2 * row.len(), 1);
            out.extend(
                row.iter()
                    .zip(z.chunks_exact(2))
                    .map(|(&x, z)| self.noise.perturb(x, z[0], z[1])),
            );
        }
        self.apply_faults(&mut out);
        Ok(out)
    }

    /// Normals one noisy [`PixelArray::expose`] takes: the noise model's
    /// per-pixel count for every photosite.
    pub fn exposure_normals(&self) -> usize {
        self.rows * self.cols * self.noise.normals_per_pixel()
    }

    /// Noiseless exposure (clamps only); used by deterministic experiments.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::FrameShapeMismatch`] on size mismatch.
    pub fn expose_ideal(&self, scene: &[f32]) -> Result<Vec<f32>> {
        if scene.len() != self.rows * self.cols {
            return Err(SensorError::FrameShapeMismatch {
                expected: self.rows * self.cols,
                actual: scene.len(),
            });
        }
        let mut out: Vec<f32> = scene.iter().map(|&x| x.clamp(0.0, 1.0)).collect();
        self.apply_faults(&mut out);
        Ok(out)
    }

    /// Overwrites faulty photosites in a sampled frame. A no-op plan
    /// (the default) skips the per-pixel queries entirely.
    fn apply_faults(&self, frame: &mut [f32]) {
        if self.faults.is_none() {
            return;
        }
        for (idx, v) in frame.iter_mut().enumerate() {
            *v = self.faults.apply_pixel(idx, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array() -> PixelArray {
        PixelArray::new(&SensorGeometry {
            rows: 8,
            cols: 8,
            n_ch: 4,
        })
    }

    #[test]
    fn expose_preserves_mean() {
        let a = array();
        let scene = vec![0.5f32; 64];
        let mut rng = StdRng::seed_from_u64(0);
        let mut normals = NormalStream::new(&mut rng, 200 * a.exposure_normals());
        let mut acc = 0.0;
        for _ in 0..200 {
            acc += a.expose(&scene, &mut normals).unwrap().iter().sum::<f32>() / 64.0;
        }
        assert_eq!(normals.remaining(), 0);
        assert!((acc / 200.0 - 0.5).abs() < 5e-3);
    }

    #[test]
    fn expose_checks_shape() {
        let a = array();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            a.expose(&vec![0.0; 63], &mut NormalStream::new(&mut rng, 0)),
            Err(SensorError::FrameShapeMismatch {
                expected: 64,
                actual: 63
            })
        ));
        assert!(a.expose_ideal(&[0.0; 10]).is_err());
    }

    #[test]
    fn ideal_exposure_clamps() {
        let a = array();
        let mut scene = vec![0.3f32; 64];
        scene[0] = -1.0;
        scene[1] = 2.0;
        let out = a.expose_ideal(&scene).unwrap();
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 1.0);
        assert_eq!(out[2], 0.3);
    }

    #[test]
    fn noiseless_mode_is_deterministic() {
        let a = array().with_noise(PixelNoise::none());
        let scene: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(a.exposure_normals(), 0);
        let mut normals = NormalStream::new(&mut rng, 0);
        assert_eq!(a.expose(&scene, &mut normals).unwrap(), scene);
        assert_eq!(a.dims(), (8, 8));
    }
}
