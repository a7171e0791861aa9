//! The full analog processing element: i-buffer → PSF → SCM → o-buffers →
//! FVF → ADC.
//!
//! One PE serves four pixel columns (Sec. 4.1) and processes the
//! non-overlapping `2K x 2K` raw-Bayer block under an **input-stationary**
//! dataflow: each buffered ifmap row is reused across all kernels while
//! partial sums accumulate in the differential o-buffers (positive-weight
//! charge on one, negative on the other). After all rows, the FVF drives
//! the differential voltage into the ADC.

use crate::adc::{AdcModel, AdcResolution};
use crate::fvf::FvfDevice;
use crate::noise::ktc_noise_v;
use crate::params::CircuitParams;
use crate::psf::PsfDevice;
use crate::scm::ScmDevice;
use crate::{CircuitError, Result};
use leca_tensor::NormalStream;
use rand::Rng;

/// Default full-scale differential voltage of the ofmap ADC.
///
/// The o-buffers settle inside the PSF output window, so the differential
/// swing is bounded by roughly ±0.35 V around balance; this default centers
/// the code range on that swing. The trained pipeline overrides it (the
/// quantization boundary is a learned parameter).
pub const DEFAULT_VFS: f32 = 0.35;

/// Reusable buffers for [`AnalogPe::encode_block`]: the differential
/// o-buffers, one buffered pixel row and the output codes. A scratch grows
/// to the largest block it has served and then stops allocating.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    vp: Vec<f32>,
    vn: Vec<f32>,
    row_v: Vec<f32>,
    codes: Vec<i32>,
}

/// A device-accurate analog PE instance.
#[derive(Debug, Clone)]
pub struct AnalogPe {
    params: CircuitParams,
    psf: PsfDevice,
    scm: ScmDevice,
    fvf: FvfDevice,
    adc: AdcModel,
}

impl AnalogPe {
    /// Builds a typical-corner PE (deterministic non-idealities, no
    /// mismatch) at the given ADC resolution.
    ///
    /// # Errors
    ///
    /// Propagates ADC configuration errors.
    pub fn typical(params: &CircuitParams, resolution: AdcResolution) -> Result<Self> {
        Ok(AnalogPe {
            params: params.clone(),
            psf: PsfDevice::typical(params),
            scm: ScmDevice::typical(params),
            fvf: FvfDevice::typical(params),
            adc: AdcModel::new(resolution, DEFAULT_VFS)?,
        })
    }

    /// Samples a Monte-Carlo PE instance (mismatched PSF/SCM/FVF/ADC).
    ///
    /// # Errors
    ///
    /// Propagates ADC configuration errors.
    pub fn sample<R: Rng + ?Sized>(
        params: &CircuitParams,
        resolution: AdcResolution,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(AnalogPe {
            params: params.clone(),
            psf: PsfDevice::sample(params, rng),
            scm: ScmDevice::sample(params, rng),
            fvf: FvfDevice::sample(params, rng),
            adc: AdcModel::device(resolution, DEFAULT_VFS, rng)?,
        })
    }

    /// The ADC model (e.g. for dequantization by a downstream decoder).
    pub fn adc(&self) -> &AdcModel {
        &self.adc
    }

    /// Overrides the ADC full-scale (trained quantization boundary).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for non-positive values.
    pub fn set_adc_vfs(&mut self, v_fs: f32) -> Result<()> {
        self.adc.set_v_fs(v_fs)
    }

    /// Encodes one pixel block through the full analog chain.
    ///
    /// * `pixels` — normalized `[0, 1]` raw-Bayer values, row-major, one
    ///   block of `rows x width` (the paper's block is 4x4).
    /// * `width` — pixels per row (= i-buffer count = 4 in the paper).
    /// * `weights` — per kernel, one signed weight code per pixel
    ///   (`±(2^mag_bits − 1)` max magnitude), same layout as `pixels`.
    /// * `normals` — `Some` enables the stochastic noise sources (noisy
    ///   mode) and takes [`AnalogPe::normals_per_block`] normals from the
    ///   stream; `None` runs the deterministic device model.
    /// * `scratch` — the working buffers, reused across calls.
    ///
    /// Returns one signed ADC code per kernel, held in `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for layout mismatches and
    /// propagates stage errors.
    pub fn encode_block<'s, R: Rng + ?Sized>(
        &self,
        pixels: &[f32],
        width: usize,
        weights: &[Vec<i32>],
        mut normals: Option<&mut NormalStream<'_, R>>,
        scratch: &'s mut BlockScratch,
    ) -> Result<&'s [i32]> {
        if width == 0 || !pixels.len().is_multiple_of(width) {
            return Err(CircuitError::InvalidConfig(format!(
                "pixel block of {} values is not rows x {width}",
                pixels.len()
            )));
        }
        for (k, w) in weights.iter().enumerate() {
            if w.len() != pixels.len() {
                return Err(CircuitError::InvalidConfig(format!(
                    "kernel {k} has {} weights for {} pixels",
                    w.len(),
                    pixels.len()
                )));
            }
        }
        let rows = pixels.len() / width;
        let max_code = self.params.max_weight_code();
        let BlockScratch {
            vp,
            vn,
            row_v,
            codes,
        } = scratch;

        // Differential o-buffers per kernel, reset to VCM.
        vp.clear();
        vp.resize(weights.len(), self.params.vcm);
        vn.clear();
        vn.resize(weights.len(), self.params.vcm);

        // Input-stationary dataflow: buffer one ifmap row, sweep kernels.
        for r in 0..rows {
            // i-buffer sampling (kTC noise when noisy).
            row_v.clear();
            for c in 0..width {
                let x = pixels[r * width + c].clamp(0.0, 1.0);
                let mut v = self.params.pixel_to_voltage(x);
                if let Some(normals) = normals.as_deref_mut() {
                    v += ktc_noise_v(self.params.c_ibuf_ff) * normals.draw();
                }
                // PSF buffers the i-buffer voltage into the SCM.
                let (lo, hi) = self.psf.input_window();
                let v = v.clamp(lo, hi);
                let buffered = match normals.as_deref_mut() {
                    Some(normals) => self.psf.transfer_noisy(v, normals)?,
                    None => self.psf.transfer(v)?,
                };
                row_v.push(buffered);
            }
            // Consecutive MACs: kernel-by-kernel, cycling the i-buffers.
            for (k, kernel) in weights.iter().enumerate() {
                for (c, &vin) in row_v.iter().enumerate() {
                    let w = kernel[r * width + c];
                    if w == 0 {
                        continue;
                    }
                    let mag = w.unsigned_abs().min(max_code as u32);
                    let acc = if w > 0 { &mut vp[k] } else { &mut vn[k] };
                    *acc = match normals.as_deref_mut() {
                        Some(normals) => self.scm.step_noisy(*acc, vin, mag, normals)?,
                        None => self.scm.step(*acc, vin, mag)?,
                    };
                }
            }
        }

        // FVF + differential ADC per kernel.
        codes.clear();
        for k in 0..weights.len() {
            let (vp, vn) = (
                vp[k].clamp(0.0, self.params.vdd),
                vn[k].clamp(0.0, self.params.vdd),
            );
            let code = match normals.as_deref_mut() {
                Some(normals) => {
                    let bp = self.fvf.transfer_noisy(vp, normals)?;
                    let bn = self.fvf.transfer_noisy(vn, normals)?;
                    self.adc.quantize_noisy(bp - bn, normals)
                }
                None => self
                    .adc
                    .quantize(self.fvf.transfer(vp)? - self.fvf.transfer(vn)?),
            };
            codes.push(code);
        }
        Ok(codes)
    }

    /// Normals one noisy [`AnalogPe::encode_block`] call takes for a block
    /// of `pixels` values under `weights`: two per pixel (kTC, PSF), one
    /// per nonzero weight code (the SCM step; a zero code transfers no
    /// charge) and three per kernel (both FVFs, the ADC comparator).
    pub fn normals_per_block(pixels: usize, weights: &[Vec<i32>]) -> usize {
        let nonzero: usize = weights
            .iter()
            .map(|w| w.iter().filter(|&&c| c != 0).count())
            .sum();
        2 * pixels + nonzero + 3 * weights.len()
    }

    /// Normal sensing mode: bypasses the PE and digitizes one pixel at
    /// 8-bit single-ended resolution (Sec. 4.3, "the ADC is configurable to
    /// 8-bit resolution to support normal sensing mode").
    ///
    /// # Errors
    ///
    /// Propagates ADC configuration errors.
    pub fn digitize_pixel(&self, x: f32) -> Result<u8> {
        // Full scale = half the swing: the signed code then spans the whole
        // single-ended pixel range once re-centered.
        let adc = AdcModel::new(AdcResolution::Sar(8), self.params.v_swing / 2.0)?;
        let v = self.params.pixel_to_voltage(x.clamp(0.0, 1.0)) - self.params.v_dark;
        let code = adc.quantize(v - self.params.v_swing / 2.0) + 127;
        Ok(code.clamp(0, 255) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The deterministic chain's codes for one block.
    fn clean(pe: &AnalogPe, pixels: &[f32], weights: &[Vec<i32>]) -> Vec<i32> {
        pe.encode_block::<StdRng>(pixels, 4, weights, None, &mut BlockScratch::default())
            .unwrap()
            .to_vec()
    }

    fn pe(q: f32) -> AnalogPe {
        AnalogPe::typical(
            &CircuitParams::paper_65nm(),
            AdcResolution::from_qbit(q).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn zero_weights_give_zero_code() {
        let pe = pe(4.0);
        let pixels = vec![0.5; 16];
        let weights = vec![vec![0i32; 16]];
        let codes = clean(&pe, &pixels, &weights);
        assert_eq!(codes, vec![0]);
    }

    #[test]
    fn positive_weights_respond_to_brightness() {
        let pe = pe(4.0);
        let weights = vec![vec![8i32; 16]];
        let dark = clean(&pe, &[0.05; 16], &weights)[0];
        let bright = clean(&pe, &[0.95; 16], &weights)[0];
        // Charge-domain MAC inverts: brighter pixels pull the accumulator
        // down (2·V_CM − V_in), so the bright code is lower.
        assert!(bright < dark, "bright {bright} !< dark {dark}");
        assert_ne!(dark, 0);
    }

    #[test]
    fn negated_weights_mirror_the_code() {
        let pe = pe(4.0);
        let wpos = vec![vec![9i32; 16]];
        let wneg = vec![vec![-9i32; 16]];
        let pixels: Vec<f32> = (0..16).map(|i| i as f32 / 15.0).collect();
        let cp = clean(&pe, &pixels, &wpos)[0];
        let cn = clean(&pe, &pixels, &wneg)[0];
        // Sign routing swaps the differential pair: codes mirror to within
        // one LSB (charge injection is common-mode but transfer loss isn't
        // perfectly symmetric).
        assert!((cp + cn).abs() <= 1, "{cp} vs {cn}");
    }

    #[test]
    fn multiple_kernels_processed_together() {
        let pe = pe(4.0);
        let pixels: Vec<f32> = (0..16).map(|i| (i % 4) as f32 / 4.0).collect();
        let weights = vec![
            vec![5i32; 16],
            vec![-5i32; 16],
            vec![0i32; 16],
            vec![12i32; 16],
        ];
        let codes = clean(&pe, &pixels, &weights);
        assert_eq!(codes.len(), 4);
        assert_eq!(codes[2], 0);
        assert!((codes[0] + codes[1]).abs() <= 1);
    }

    #[test]
    fn noisy_mode_dithers_but_tracks_clean() {
        let pe = pe(4.0);
        let pixels = vec![0.4; 16];
        let weights = vec![vec![10i32; 16]];
        let clean = clean(&pe, &pixels, &weights)[0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut normals =
            NormalStream::new(&mut rng, 50 * AnalogPe::normals_per_block(16, &weights));
        let mut scratch = BlockScratch::default();
        let noisy: Vec<i32> = (0..50)
            .map(|_| {
                pe.encode_block(&pixels, 4, &weights, Some(&mut normals), &mut scratch)
                    .unwrap()[0]
            })
            .collect();
        assert_eq!(normals.remaining(), 0);
        let mean: f32 = noisy.iter().map(|&c| c as f32).sum::<f32>() / noisy.len() as f32;
        assert!(
            (mean - clean as f32).abs() <= 1.0,
            "mean {mean} vs clean {clean}"
        );
    }

    #[test]
    fn ternary_mode_emits_signs() {
        let pe = pe(1.5);
        let weights = vec![vec![15i32; 16]];
        let dark = clean(&pe, &[0.0; 16], &weights)[0];
        let bright = clean(&pe, &[1.0; 16], &weights)[0];
        assert_eq!(dark, 1);
        assert_eq!(bright, -1);
    }

    #[test]
    fn layout_validation() {
        let pe = pe(4.0);
        let mut s = BlockScratch::default();
        assert!(pe
            .encode_block::<StdRng>(&[0.5; 15], 4, &[vec![0; 15]], None, &mut s)
            .is_err());
        assert!(pe
            .encode_block::<StdRng>(&[0.5; 16], 4, &[vec![0; 12]], None, &mut s)
            .is_err());
        assert!(pe
            .encode_block::<StdRng>(&[0.5; 16], 0, &[vec![0; 16]], None, &mut s)
            .is_err());
    }

    #[test]
    fn mismatched_instances_differ() {
        let params = CircuitParams::paper_65nm();
        let mut rng = StdRng::seed_from_u64(3);
        let a = AnalogPe::sample(&params, AdcResolution::Sar(8), &mut rng).unwrap();
        let b = AnalogPe::sample(&params, AdcResolution::Sar(8), &mut rng).unwrap();
        // At 8-bit resolution the inter-instance mismatch is visible on at
        // least one of a spread of operating points.
        let mut any_differ = false;
        for w in [3i32, 7, 11, 15] {
            for base in [0.1f32, 0.35, 0.6, 0.85] {
                let pixels: Vec<f32> = (0..16).map(|i| base + i as f32 / 160.0).collect();
                let weights = vec![vec![w; 16]];
                let ca = clean(&a, &pixels, &weights);
                let cb = clean(&b, &pixels, &weights);
                any_differ |= ca != cb;
            }
        }
        assert!(any_differ, "mismatch never changed an 8-bit code");
    }

    #[test]
    fn normal_mode_digitizes_8bit() {
        let pe = pe(4.0);
        assert_eq!(pe.digitize_pixel(0.0).unwrap(), 0);
        assert_eq!(pe.digitize_pixel(1.0).unwrap(), 254);
        let mid = pe.digitize_pixel(0.5).unwrap();
        assert!((mid as i32 - 127).abs() <= 1);
        // Monotonic.
        let mut prev = 0u8;
        for i in 0..=20 {
            let c = pe.digitize_pixel(i as f32 / 20.0).unwrap();
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn trained_vfs_changes_codes() {
        let mut pe = pe(4.0);
        let pixels = vec![0.15; 16];
        let weights = vec![vec![6i32; 16]];
        let before = clean(&pe, &pixels, &weights)[0];
        pe.set_adc_vfs(0.08).unwrap();
        let after = clean(&pe, &pixels, &weights)[0];
        assert!(after.abs() >= before.abs());
        assert!(pe.set_adc_vfs(-1.0).is_err());
    }
}
