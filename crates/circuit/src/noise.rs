//! Pixel-array noise models: photon shot noise and read noise.
//!
//! Sec. 5.3: *"The pixel array noise is added to the images to emulate real
//! CIS sensing effect, including shot noise and read noise, which are
//! formulated as Poisson and Gaussian distribution, respectively. We first
//! convert the digital image to its voltage intensity, add the equivalent
//! noise in the voltage domain, and finally convert it back."*

use leca_tensor::NormalStream;
use rand::Rng;

/// Pixel noise model in the electron domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelNoise {
    /// Full-well capacity in electrons (signal at pixel value 1.0).
    pub full_well_e: f32,
    /// RMS read noise in electrons.
    pub read_noise_e: f32,
}

impl PixelNoise {
    /// A typical 65 nm CIS operating point: 9 ke⁻ full well, 2.5 e⁻ read
    /// noise.
    pub fn typical() -> Self {
        PixelNoise {
            full_well_e: 9_000.0,
            read_noise_e: 2.5,
        }
    }

    /// A noiseless model (for ablation).
    pub fn none() -> Self {
        PixelNoise {
            full_well_e: f32::INFINITY,
            read_noise_e: 0.0,
        }
    }

    /// Applies shot + read noise to a normalized pixel value in `[0, 1]`.
    ///
    /// Shot noise is Poisson in the photo-electron count; above ~20 e⁻ the
    /// Gaussian approximation `N(n, √n)` is indistinguishable and far
    /// cheaper, so that is what we sample. Takes
    /// [`PixelNoise::normals_per_pixel`] normals from `normals`: the shot
    /// term's, then the read term's.
    pub fn apply<R: Rng + ?Sized>(&self, x: f32, normals: &mut NormalStream<'_, R>) -> f32 {
        if !self.full_well_e.is_finite() {
            return x.clamp(0.0, 1.0);
        }
        self.perturb(x, normals.draw(), normals.draw())
    }

    /// [`PixelNoise::apply`] with its two normals given: `shot` for the
    /// shot term, `read` for the read term. Only for a finite full well
    /// (`normals_per_pixel() == 2`).
    #[inline]
    pub fn perturb(&self, x: f32, shot: f32, read: f32) -> f32 {
        let electrons = x.clamp(0.0, 1.0) * self.full_well_e;
        let shot_sigma = electrons.max(0.0).sqrt();
        let noisy = electrons + shot_sigma * shot + self.read_noise_e * read;
        (noisy / self.full_well_e).clamp(0.0, 1.0)
    }

    /// Normals [`PixelNoise::apply`] takes per pixel: two (shot and read)
    /// with a finite full well, none for the noiseless model.
    pub fn normals_per_pixel(&self) -> usize {
        if self.full_well_e.is_finite() {
            2
        } else {
            0
        }
    }

    /// Standard deviation (in normalized pixel units) the model adds at
    /// signal level `x` — used to build analytic noise budgets.
    pub fn sigma_at(&self, x: f32) -> f32 {
        if !self.full_well_e.is_finite() {
            return 0.0;
        }
        let electrons = x.clamp(0.0, 1.0) * self.full_well_e;
        (electrons + self.read_noise_e * self.read_noise_e).sqrt() / self.full_well_e
    }
}

/// kTC (reset) noise sigma in volts for a capacitance in femtofarads at
/// 300 K.
pub fn ktc_noise_v(c_ff: f32) -> f32 {
    // kT at 300 K = 4.1419e-21 J; sigma = sqrt(kT / C).
    const KT: f32 = 4.1419e-21;
    (KT / (c_ff * 1e-15)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = PixelNoise::none();
        assert_eq!(n.normals_per_pixel(), 0);
        assert_eq!(n.apply(0.47, &mut NormalStream::new(&mut rng, 0)), 0.47);
        assert_eq!(n.sigma_at(0.47), 0.0);
    }

    #[test]
    fn shot_noise_scales_with_sqrt_signal() {
        let n = PixelNoise::typical();
        // sigma(x) ∝ √x ⇒ sigma(0.64)/sigma(0.16) ≈ 2.
        let ratio = n.sigma_at(0.64) / n.sigma_at(0.16);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn read_noise_dominates_in_the_dark() {
        let n = PixelNoise::typical();
        let dark_sigma_e = n.sigma_at(0.0) * n.full_well_e;
        assert!((dark_sigma_e - n.read_noise_e).abs() < 0.1);
    }

    #[test]
    fn empirical_sigma_matches_analytic() {
        let n = PixelNoise::typical();
        let mut rng = StdRng::seed_from_u64(1);
        let mut normals = NormalStream::new(&mut rng, 8000 * n.normals_per_pixel());
        let x = 0.5;
        let samples: Vec<f32> = (0..8000).map(|_| n.apply(x, &mut normals)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        let std: f32 =
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / samples.len() as f32).sqrt();
        assert!((mean - x).abs() < 1e-3, "mean {mean}");
        let expected = n.sigma_at(x);
        assert!(
            (std - expected).abs() / expected < 0.1,
            "{std} vs {expected}"
        );
    }

    #[test]
    fn output_stays_in_unit_range() {
        let n = PixelNoise::typical();
        let mut rng = StdRng::seed_from_u64(2);
        let mut normals = NormalStream::new(&mut rng, 1000 * n.normals_per_pixel());
        for _ in 0..1000 {
            let v = n.apply(1.0, &mut normals);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn ktc_magnitude() {
        // 135 fF at 300 K → ~175 µV.
        let sigma = ktc_noise_v(135.0);
        assert!((sigma - 1.75e-4).abs() < 2e-5, "sigma {sigma}");
        // Bigger caps are quieter.
        assert!(ktc_noise_v(270.0) < sigma);
    }
}
