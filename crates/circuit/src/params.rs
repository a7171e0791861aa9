//! Shared physical constants and conversions for the 65 nm LeCA sensor.

/// Physical parameters of the LeCA analog signal chain.
///
/// Values follow the paper where stated (65 nm CMOS, `C_sample,tot` =
/// 135 fF, `C_out` = 135 fF so the charge-sharing ratio is 1, i-buffer
/// 109 fF, ±4-bit SCM precision) and use typical 65 nm CIS figures where the
/// paper is silent (1.2 V supply, pixel swing).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitParams {
    /// Supply voltage (V).
    pub vdd: f32,
    /// SCM common-mode voltage `V_CM` in Eq. (3) (V).
    pub vcm: f32,
    /// Pixel output voltage at zero light (V).
    pub v_dark: f32,
    /// Pixel output swing from dark to full-well (V).
    pub v_swing: f32,
    /// Total SCM sampling capacitance `C_sample,tot` (fF).
    pub c_sample_tot_ff: f32,
    /// O-buffer capacitance `C_out` (fF). The paper sets the ratio
    /// `C_out / C_sample,tot` to 1 and relies on hardware-aware training to
    /// tolerate the resulting incomplete transfer.
    pub c_out_ff: f32,
    /// I-buffer capacitance (fF).
    pub c_ibuf_ff: f32,
    /// SCM magnitude precision in bits (the sign is a separate routing bit).
    pub weight_mag_bits: u32,
}

impl CircuitParams {
    /// The paper's 65 nm design point.
    pub fn paper_65nm() -> Self {
        CircuitParams {
            vdd: 1.2,
            vcm: 0.6,
            v_dark: 0.25,
            v_swing: 0.7,
            c_sample_tot_ff: 135.0,
            c_out_ff: 135.0,
            c_ibuf_ff: 109.0,
            weight_mag_bits: 4,
        }
    }

    /// Converts a normalized pixel value in `[0, 1]` to a pixel voltage.
    #[inline]
    pub fn pixel_to_voltage(&self, x: f32) -> f32 {
        self.v_dark + x.clamp(0.0, 1.0) * self.v_swing
    }

    /// Maximum legal SCM weight magnitude code (`2^mag_bits - 1`).
    pub fn max_weight_code(&self) -> i32 {
        (1i32 << self.weight_mag_bits) - 1
    }

    /// Sampling capacitance (fF) selected by a magnitude code.
    ///
    /// The binary-weighted capacitor bank connects
    /// `code / max_code * C_sample,tot`.
    pub fn csample_for_code(&self, magnitude: u32) -> f32 {
        let max = self.max_weight_code() as f32;
        (magnitude.min(self.max_weight_code() as u32) as f32 / max) * self.c_sample_tot_ff
    }
}

impl Default for CircuitParams {
    fn default() -> Self {
        CircuitParams::paper_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let p = CircuitParams::paper_65nm();
        assert_eq!(p.c_sample_tot_ff, 135.0);
        assert_eq!(p.c_out_ff, 135.0);
        assert_eq!(p.c_ibuf_ff, 109.0);
        assert_eq!(p.weight_mag_bits, 4);
        assert_eq!(p.max_weight_code(), 15);
    }

    #[test]
    fn pixel_voltage_spans_dark_to_swing() {
        let p = CircuitParams::default();
        assert_eq!(p.pixel_to_voltage(0.0), p.v_dark);
        assert_eq!(p.pixel_to_voltage(1.0), p.v_dark + p.v_swing);
    }

    #[test]
    fn pixel_conversion_clamps() {
        let p = CircuitParams::default();
        assert_eq!(p.pixel_to_voltage(-1.0), p.v_dark);
        assert_eq!(p.pixel_to_voltage(2.0), p.v_dark + p.v_swing);
    }

    #[test]
    fn csample_scales_linearly_with_code() {
        let p = CircuitParams::default();
        assert_eq!(p.csample_for_code(0), 0.0);
        assert_eq!(p.csample_for_code(15), 135.0);
        assert!((p.csample_for_code(5) - 45.0).abs() < 1e-4);
        // Codes beyond the precision saturate.
        assert_eq!(p.csample_for_code(99), 135.0);
    }

    #[test]
    fn voltages_fit_rails() {
        let p = CircuitParams::default();
        let (lo, hi) = (0.0, p.vdd);
        assert!(p.pixel_to_voltage(1.0) <= hi);
        assert!(p.pixel_to_voltage(0.0) >= lo);
        assert!(p.vcm > lo && p.vcm < hi);
    }
}
