//! Switched-capacitor multiplier (SCM) — the charge-domain MAC engine.
//!
//! Each `φ_sample`/`φ_transfer` cycle samples the buffered pixel voltage
//! onto a digitally-programmed fraction of `C_sample` and redistributes the
//! charge onto the o-buffer capacitor `C_out`, realizing Eq. (3):
//!
//! ```text
//! V_out[i] = (C_s[i]·(2·V_CM − V_in[i]) + C_out·V_out[i−1]) / (C_out + C_s[i])
//! ```
//!
//! With the paper's aggressive `C_out / C_sample,tot = 1` sizing, charge
//! transfer is *intentionally* incomplete — each MAC leaks part of the
//! accumulated value. Hardware-aware training absorbs this (Sec. 4.3
//! "O-buffer"); naive soft-to-hard weight transfer does not, which is what
//! Fig. 11 demonstrates.
//!
//! [`ScmModel`] is the exact analytical recursion (used for hard training,
//! where its closed-form partial derivatives back-propagate through the MAC
//! chain); [`ScmDevice`] adds switch charge injection, incomplete-transfer
//! gain error and per-code capacitor mismatch.

use crate::params::CircuitParams;
use leca_tensor::standard_normal;
use rand::Rng;

/// Fraction of sampled charge lost to parasitics in the device model.
pub const TRANSFER_LOSS: f32 = 0.015;
/// Switch charge-injection offset per transfer (V onto `C_out`).
pub const CHARGE_INJECTION: f32 = 0.0012;
/// Per-unit-capacitor mismatch sigma (fractional).
const SIGMA_CAP: f32 = 0.006;
/// Output-referred noise per MAC step (V, kTC + switch noise).
pub const STEP_NOISE: f32 = 1.8e-4;

/// Exact analytical SCM (Eq. (3)).
#[derive(Debug, Clone, PartialEq)]
pub struct ScmModel {
    params: CircuitParams,
}

impl ScmModel {
    /// Creates the analytical model from circuit parameters.
    pub fn new(params: CircuitParams) -> Self {
        ScmModel { params }
    }

    /// The underlying circuit parameters.
    pub fn params(&self) -> &CircuitParams {
        &self.params
    }

    /// One MAC cycle of Eq. (3): returns the new o-buffer voltage.
    ///
    /// `c_sample` is the connected sampling capacitance in fF (0 = no-op).
    #[inline]
    pub fn step(&self, v_out_prev: f32, v_in: f32, c_sample: f32) -> f32 {
        if c_sample <= 0.0 {
            return v_out_prev;
        }
        let c_out = self.params.c_out_ff;
        charge_share(
            c_sample,
            2.0 * self.params.vcm - v_in,
            c_out,
            v_out_prev,
            c_out + c_sample,
        )
    }

    /// Partial derivatives of [`ScmModel::step`] wrt `(v_out_prev,
    /// c_sample)` — used by hard/noisy training to back-propagate through
    /// the MAC recursion. The encoder reads the scene first, so no caller
    /// needs the partial wrt `v_in`.
    pub fn step_grads(&self, v_out_prev: f32, v_in: f32, c_sample: f32) -> (f32, f32) {
        let c_out = self.params.c_out_ff;
        if c_sample <= 0.0 {
            // Degenerate no-op step: output == v_out_prev. The derivative
            // wrt c_sample at 0⁺ still exists and drives learning away from
            // dead weights.
            return (1.0, (2.0 * self.params.vcm - v_in - v_out_prev) / c_out);
        }
        let denom = c_out + c_sample;
        let d_prev = c_out / denom;
        let d_cs = c_out * (2.0 * self.params.vcm - v_in - v_out_prev) / (denom * denom);
        (d_prev, d_cs)
    }
}

/// Device-accurate SCM instance with mismatch and noise.
#[derive(Debug, Clone, PartialEq)]
pub struct ScmDevice {
    model: ScmModel,
    /// Per-magnitude-code multiplicative capacitance error (index = code).
    cap_err: Vec<f32>,
    transfer_loss: f32,
    charge_injection: f32,
}

impl ScmDevice {
    /// The typical-corner device (no mismatch, but with the deterministic
    /// non-idealities: transfer loss and charge injection).
    pub fn typical(params: &CircuitParams) -> Self {
        let codes = params.max_weight_code() as usize + 1;
        ScmDevice {
            model: ScmModel::new(params.clone()),
            cap_err: vec![0.0; codes],
            transfer_loss: TRANSFER_LOSS,
            charge_injection: CHARGE_INJECTION,
        }
    }

    /// Samples a Monte-Carlo mismatch instance: each binary-weighted unit
    /// capacitor gets an independent fractional error, accumulated per code.
    pub fn sample<R: Rng + ?Sized>(params: &CircuitParams, rng: &mut R) -> Self {
        let mut d = ScmDevice::typical(params);
        let bits = params.weight_mag_bits as usize;
        // One error per binary-weighted unit in the capacitor DAC.
        let unit_errs: Vec<f32> = (0..bits)
            .map(|_| SIGMA_CAP * standard_normal(rng))
            .collect();
        for code in 0..d.cap_err.len() {
            let mut total = 0.0f32;
            let mut weight_sum = 0.0f32;
            for (b, e) in unit_errs.iter().enumerate() {
                if code & (1 << b) != 0 {
                    let w = (1usize << b) as f32;
                    total += w * e;
                    weight_sum += w;
                }
            }
            d.cap_err[code] = if weight_sum > 0.0 {
                total / weight_sum
            } else {
                0.0
            };
        }
        d
    }

    /// The analytical model this device deviates from.
    pub fn model(&self) -> &ScmModel {
        &self.model
    }

    /// Effective connected capacitance (fF) for a code, with mismatch.
    #[inline]
    pub fn effective_csample(&self, magnitude: u32) -> f32 {
        let nominal = self.model.params().csample_for_code(magnitude);
        let err = self.cap_err.get(magnitude as usize).copied().unwrap_or(0.0);
        nominal * (1.0 + err)
    }

    /// The capacitance a MAC step with code `magnitude` shares charge
    /// through: the effective capacitance less the transfer loss.
    #[inline]
    pub(crate) fn transfer_csample(&self, magnitude: u32) -> f32 {
        self.effective_csample(magnitude) * (1.0 - self.transfer_loss)
    }

    /// The switch charge-injection offset each transfer adds (V).
    pub(crate) fn charge_injection(&self) -> f32 {
        self.charge_injection
    }
}

/// Eq. (3)'s charge sharing, `(c_sample·(2·V_CM − V_in) + c_out·V_prev) /
/// (c_out + c_sample)`, with `two_vcm_minus_vin = 2·V_CM − V_in` and
/// `denom = c_out + c_sample` passed in as computed.
#[inline(always)]
pub(crate) fn charge_share(
    c_sample: f32,
    two_vcm_minus_vin: f32,
    c_out: f32,
    v_out_prev: f32,
    denom: f32,
) -> f32 {
    (c_sample * two_vcm_minus_vin + c_out * v_out_prev) / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> ScmModel {
        ScmModel::new(CircuitParams::paper_65nm())
    }

    #[test]
    fn eq3_known_value() {
        let m = model();
        // Cs = Cout = 135 fF: Vout = ((2Vcm - Vin) + Vprev) / 2.
        let v = m.step(0.6, 0.8, 135.0);
        let expected = ((2.0 * 0.6 - 0.8) + 0.6) / 2.0;
        assert!((v - expected).abs() < 1e-6);
    }

    #[test]
    fn zero_cap_is_noop() {
        let m = model();
        assert_eq!(m.step(0.55, 0.9, 0.0), 0.55);
    }

    #[test]
    fn step_converges_to_2vcm_minus_vin() {
        // Repeatedly MACing the same input converges to 2Vcm − Vin — the
        // fixed point of Eq. (3).
        let m = model();
        let mut v = 0.6;
        for _ in 0..200 {
            v = m.step(v, 0.9, 135.0);
        }
        assert!((v - (1.2 - 0.9)).abs() < 1e-4);
    }

    #[test]
    fn grads_match_finite_difference() {
        let m = model();
        let (v0, vin, cs) = (0.58, 0.82, 60.0);
        let (d_prev, d_cs) = m.step_grads(v0, vin, cs);
        let eps = 1e-3;
        let num_prev = (m.step(v0 + eps, vin, cs) - m.step(v0 - eps, vin, cs)) / (2.0 * eps);
        // Capacitance derivative needs a larger probe step: the f32 voltage
        // difference underflows at eps = 1e-3 fF.
        let ceps = 0.5;
        let num_cs = (m.step(v0, vin, cs + ceps) - m.step(v0, vin, cs - ceps)) / (2.0 * ceps);
        assert!((d_prev - num_prev).abs() < 1e-4, "{d_prev} vs {num_prev}");
        assert!((d_cs - num_cs).abs() < 1e-5, "{d_cs} vs {num_cs}");
    }

    #[test]
    fn grads_at_zero_cap_are_continuous() {
        let m = model();
        let (_, d_cs0) = m.step_grads(0.6, 0.8, 0.0);
        let (_, d_cs1) = m.step_grads(0.6, 0.8, 1.0);
        assert!((d_cs0 - d_cs1).abs() < 1e-3, "{d_cs0} vs {d_cs1}");
    }

    #[test]
    fn mismatch_instances_differ_per_code() {
        let p = CircuitParams::paper_65nm();
        let mut rng = StdRng::seed_from_u64(1);
        let a = ScmDevice::sample(&p, &mut rng);
        let b = ScmDevice::sample(&p, &mut rng);
        assert_ne!(a.effective_csample(7), b.effective_csample(7));
        // Mismatch is small relative to the nominal value.
        let nom = p.csample_for_code(7);
        assert!((a.effective_csample(7) - nom).abs() / nom < 0.05);
    }
}
