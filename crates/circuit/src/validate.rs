//! Fig. 8 validation: device model vs ideal analytical model.
//!
//! The paper sweeps `{V_pixel, w}` with the ADC at 4-bit resolution and all
//! weights positive, reporting output codes in offset-binary (0–7) that fall
//! from 7 to 0 as `{V_pixel, w}` grow, with the device-vs-analytical error
//! within 1 LSB. This module reruns that experiment against our
//! device-accurate models.

use crate::adc::{AdcModel, AdcResolution};
use crate::fvf::FvfModel;
use crate::params::CircuitParams;
use crate::pe::{AnalogPe, LanePass, BLOCK_PIXELS, LANES};
use crate::psf::PsfModel;
use crate::scm::ScmModel;
use crate::Result;

/// One grid point of the Fig. 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// Normalized pixel value in `[0, 1]`.
    pub pixel: f32,
    /// Positive SCM weight magnitude code.
    pub w_code: u32,
    /// Offset-binary output code of the device-accurate chain (0–7).
    pub code_device: i32,
    /// Offset-binary output code of the ideal analytical chain (0–7).
    pub code_ideal: i32,
}

impl ValidationPoint {
    /// Absolute device-vs-ideal error in LSB.
    pub fn err_lsb(&self) -> i32 {
        (self.code_device - self.code_ideal).abs()
    }
}

/// Results of the full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSweep {
    /// All grid points.
    pub points: Vec<ValidationPoint>,
    /// Maximum absolute error across the grid (LSB).
    pub max_err_lsb: i32,
    /// Mean absolute error across the grid (LSB).
    pub mean_err_lsb: f32,
}

/// Full-scale used for the Fig. 8 ADC so the positive-weight sweep spans
/// the whole 0–7 code range.
const FIG8_VFS: f32 = 0.33;

/// Ideal analytical chain: linear PSF, exact Eq. (3), linear FVF, ideal
/// ADC. This is exactly the model hard training differentiates.
fn ideal_chain(params: &CircuitParams, pixel: f32, w_code: u32, n_macs: usize) -> Result<i32> {
    let psf = PsfModel::nominal();
    let scm = ScmModel::new(params.clone());
    let fvf = FvfModel::nominal();
    let adc = AdcModel::new(AdcResolution::Sar(4), FIG8_VFS)?;
    let vin = psf.transfer(params.pixel_to_voltage(pixel));
    let cs = params.csample_for_code(w_code);
    let mut vp = params.vcm;
    for _ in 0..n_macs {
        vp = scm.step(vp, vin, cs);
    }
    let vdiff = fvf.transfer(vp) - fvf.transfer(params.vcm);
    Ok(adc.quantize(vdiff))
}

/// Device-accurate chain through [`AnalogPe`] (typical corner — the SPICE
/// stand-in): one block of `pixel`, one lane of a [`LanePass`].
fn device_chain(params: &CircuitParams, pixel: f32, w_code: u32) -> Result<i32> {
    let mut pe = AnalogPe::typical(params, AdcResolution::Sar(4))?;
    pe.set_adc_vfs(FIG8_VFS)?;
    let pass = LanePass::new(&[pe], &[vec![w_code as i32; BLOCK_PIXELS]])?;
    Ok(pass.encode(&[[pixel; LANES]; BLOCK_PIXELS], None)[0][0])
}

/// Runs the Fig. 8 sweep: a grid over pixel values and positive weight
/// codes, 16 MACs per point (one 4x4 block), 4-bit ADC.
///
/// # Errors
///
/// Propagates circuit-model errors.
pub fn fig8_sweep(params: &CircuitParams) -> Result<ValidationSweep> {
    let mut points = Vec::new();
    let mut max_err = 0i32;
    let mut err_sum = 0.0f32;
    let offset = AdcResolution::Sar(4).max_code(); // signed → offset-binary
    for wi in 1..=params.max_weight_code() as u32 {
        for pi in 0..=16 {
            let pixel = pi as f32 / 16.0;
            let ideal = ideal_chain(params, pixel, wi, BLOCK_PIXELS)?;
            let device = device_chain(params, pixel, wi)?;
            // Offset-binary presentation, clipped to the paper's 0–7 plot
            // range.
            let p = ValidationPoint {
                pixel,
                w_code: wi,
                code_device: (device + offset).clamp(0, 7),
                code_ideal: (ideal + offset).clamp(0, 7),
            };
            max_err = max_err.max(p.err_lsb());
            err_sum += p.err_lsb() as f32;
            points.push(p);
        }
    }
    let mean_err_lsb = err_sum / points.len() as f32;
    Ok(ValidationSweep {
        points,
        max_err_lsb: max_err,
        mean_err_lsb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> ValidationSweep {
        fig8_sweep(&CircuitParams::paper_65nm()).unwrap()
    }

    #[test]
    fn device_error_within_one_lsb() {
        // The paper's headline Fig. 8(b) claim.
        let s = sweep();
        assert!(s.max_err_lsb <= 1, "max error {} LSB", s.max_err_lsb);
        assert!(s.mean_err_lsb < 0.5, "mean error {} LSB", s.mean_err_lsb);
    }

    #[test]
    fn codes_fall_with_pixel_value() {
        // Fig. 8(a): output code decreases from 7 toward 0 as {V_pixel, w}
        // increase.
        let s = sweep();
        let w = 15;
        let line: Vec<i32> = s
            .points
            .iter()
            .filter(|p| p.w_code == w)
            .map(|p| p.code_device)
            .collect();
        assert!(line.first().unwrap() > line.last().unwrap());
        for pair in line.windows(2) {
            assert!(pair[1] <= pair[0], "non-monotonic: {line:?}");
        }
    }

    #[test]
    fn codes_fall_with_weight_at_bright_pixel() {
        let s = sweep();
        let bright: Vec<i32> = s
            .points
            .iter()
            .filter(|p| (p.pixel - 1.0).abs() < 1e-6)
            .map(|p| p.code_device)
            .collect();
        assert!(bright.first().unwrap() >= bright.last().unwrap());
    }

    #[test]
    fn sweep_covers_full_code_range() {
        let s = sweep();
        let min = s.points.iter().map(|p| p.code_device).min().unwrap();
        let max = s.points.iter().map(|p| p.code_device).max().unwrap();
        assert_eq!(min, 0, "sweep should reach code 0");
        assert_eq!(max, 7, "sweep should reach code 7");
    }

    #[test]
    fn grid_dimensions() {
        let s = sweep();
        assert_eq!(s.points.len(), 15 * 17);
    }
}
