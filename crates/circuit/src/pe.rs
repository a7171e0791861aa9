//! The full analog processing element: i-buffer → PSF → SCM → o-buffers →
//! FVF → ADC.
//!
//! One PE serves four pixel columns (Sec. 4.1) and processes the
//! non-overlapping `2K x 2K` raw-Bayer block under an **input-stationary**
//! dataflow: each buffered ifmap row is reused across all kernels while
//! partial sums accumulate in the differential o-buffers (positive-weight
//! charge on one, negative on the other). After all rows, the FVF drives
//! the differential voltage into the ADC.
//!
//! [`LanePass`] is the one encode path. Programming it folds everything
//! that depends only on the weights and the devices into constants: per
//! kernel site the charge-sharing capacitance, per instance the buffers'
//! gains and offsets, and the kTC σ and window bounds. Encoding then runs
//! [`LANES`] blocks (one per PE of an ofmap row) through the chain in
//! lockstep, each element in the single-block chain's operation order, so
//! every lane's codes are the ones that block alone would get.

use crate::adc::{AdcModel, AdcResolution};
use crate::fvf::{self, FvfDevice};
use crate::noise::ktc_noise_v;
use crate::params::CircuitParams;
use crate::psf::{self, PsfDevice};
use crate::scm::{self, ScmDevice};
use crate::{CircuitError, Result};
use rand::Rng;

/// Default full-scale differential voltage of the ofmap ADC.
///
/// The o-buffers settle inside the PSF output window, so the differential
/// swing is bounded by roughly ±0.35 V around balance; this default centers
/// the code range on that swing. The trained pipeline overrides it (the
/// quantization boundary is a learned parameter).
pub const DEFAULT_VFS: f32 = 0.35;

/// Pixels on a side of the block one PE encodes (the paper's `2K x 2K`
/// raw-Bayer block at `K = 2`, one row per i-buffer sweep).
pub const BLOCK_SIDE: usize = 4;

/// Pixels in one PE block.
pub const BLOCK_PIXELS: usize = BLOCK_SIDE * BLOCK_SIDE;

/// Kernels one readout pass holds: a PE has this many differential
/// o-buffer pairs.
pub const KERNELS_PER_PASS: usize = 4;

/// Blocks a [`LanePass`] encodes side by side.
pub const LANES: usize = 8;

/// One block per lane: `block[pixel][lane]`, pixels row-major.
pub type LaneBlock = [[f32; LANES]; BLOCK_PIXELS];

/// One code per lane for each kernel of a pass: `codes[kernel][lane]`.
pub type LaneCodes = [[i32; LANES]; KERNELS_PER_PASS];

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

/// A nonzero weight code of a pass, in chain order.
#[derive(Debug, Clone, Copy)]
struct Site {
    kernel: usize,
    col: usize,
    /// Positive codes charge the `vp` o-buffer, negative ones `vn`.
    positive: bool,
}

/// One readout pass programmed into up to [`LANES`] PEs: the kernels'
/// nonzero sites and every constant the chain needs, per lane where the
/// PE instances differ.
///
/// Built when weights, faults or the ADC full scale are programmed, so
/// weight-code range errors surface there. Encoding cannot fail: the PSF
/// input is clamped to its own window and the FVF input to the rails,
/// which lie inside the FVF window (checked here).
#[derive(Debug, Clone)]
pub struct LanePass {
    kernels: usize,
    /// Nonzero sites, row by row; row `r`'s are
    /// `sites[row_start[r]..row_start[r + 1]]`.
    sites: Vec<Site>,
    row_start: [usize; BLOCK_SIDE + 1],
    /// Per site and lane, [`ScmDevice`]'s charge-sharing capacitance
    /// `effective_csample(mag) · (1 − transfer_loss)` and `c_out` plus it.
    cs: Vec<[f32; LANES]>,
    denom: Vec<[f32; LANES]>,
    params: CircuitParams,
    /// kTC σ of the i-buffer (V).
    ktc: f32,
    /// PSF input window, its centre and width.
    psf_lo: f32,
    psf_hi: f32,
    psf_mid: f32,
    psf_span: f32,
    fvf_vcm: f32,
    /// Per-lane device terms ([`PsfDevice::lane_terms`],
    /// [`FvfDevice::lane_terms`]).
    psf_terms: [[f32; LANES]; 3],
    fvf_terms: [[f32; LANES]; 3],
    charge_injection: [f32; LANES],
    adc: [AdcModel; LANES],
}

impl LanePass {
    /// Programs one pass's `weights` (at most [`KERNELS_PER_PASS`] kernels,
    /// each [`BLOCK_PIXELS`] signed codes within the SCM precision, in the
    /// block's row-major order) into `pes`, one PE per lane. Lanes past
    /// `pes.len()` repeat the first PE.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for layout errors, PEs of
    /// different circuit parameters or an FVF window narrower than the
    /// rails, and [`CircuitError::WeightCodeOutOfRange`] for codes beyond
    /// the SCM precision.
    pub fn new(pes: &[AnalogPe], weights: &[Vec<i32>]) -> Result<Self> {
        if pes.is_empty() || pes.len() > LANES {
            return Err(CircuitError::InvalidConfig(format!(
                "{} PEs for {LANES} lanes",
                pes.len()
            )));
        }
        if weights.len() > KERNELS_PER_PASS {
            return Err(CircuitError::InvalidConfig(format!(
                "{} kernels in one pass of at most {KERNELS_PER_PASS}",
                weights.len()
            )));
        }
        let params = pes[0].params.clone();
        if pes.iter().any(|pe| pe.params != params) {
            return Err(CircuitError::InvalidConfig(
                "PEs of one pass must share circuit parameters".into(),
            ));
        }
        let max_code = params.max_weight_code();
        for (k, w) in weights.iter().enumerate() {
            if w.len() != BLOCK_PIXELS {
                return Err(CircuitError::InvalidConfig(format!(
                    "kernel {k} has {} weights for {BLOCK_PIXELS} pixels",
                    w.len()
                )));
            }
            if let Some(&code) = w.iter().find(|c| c.abs() > max_code) {
                return Err(CircuitError::WeightCodeOutOfRange {
                    code,
                    max_magnitude: max_code,
                });
            }
        }
        let lane = |l: usize| pes.get(l).unwrap_or(&pes[0]);
        for pe in pes {
            let (lo, hi) = pe.fvf.input_window();
            if lo > 0.0 || hi < params.vdd {
                return Err(CircuitError::InvalidConfig(format!(
                    "FVF window [{lo}, {hi}] V is narrower than the rails"
                )));
            }
        }

        // Chain order: row by row, kernel by kernel, column by column.
        let mut sites = Vec::new();
        let mut cs = Vec::new();
        let mut denom = Vec::new();
        let mut row_start = [0; BLOCK_SIDE + 1];
        for r in 0..BLOCK_SIDE {
            for (kernel, w) in weights.iter().enumerate() {
                for col in 0..BLOCK_SIDE {
                    let code = w[r * BLOCK_SIDE + col];
                    if code == 0 {
                        continue;
                    }
                    let c: [f32; LANES] =
                        std::array::from_fn(|l| lane(l).scm.transfer_csample(code.unsigned_abs()));
                    if c.iter().any(|&c| c <= 0.0) {
                        return Err(CircuitError::InvalidConfig(format!(
                            "code {code} connects no sampling capacitance"
                        )));
                    }
                    sites.push(Site {
                        kernel,
                        col,
                        positive: code > 0,
                    });
                    cs.push(c);
                    denom.push(c.map(|c| params.c_out_ff + c));
                }
            }
            row_start[r + 1] = sites.len();
        }
        let (psf_lo, psf_hi) = pes[0].psf.input_window();
        let terms = |f: &dyn Fn(&AnalogPe) -> [f32; 3]| -> [[f32; LANES]; 3] {
            std::array::from_fn(|t| std::array::from_fn(|l| f(lane(l))[t]))
        };
        Ok(LanePass {
            kernels: weights.len(),
            sites,
            row_start,
            cs,
            denom,
            ktc: ktc_noise_v(params.c_ibuf_ff),
            psf_lo,
            psf_hi,
            psf_mid: pes[0].psf.mid(),
            psf_span: psf_hi - psf_lo,
            fvf_vcm: pes[0].fvf.vcm(),
            psf_terms: terms(&|pe| pe.psf.lane_terms()),
            fvf_terms: terms(&|pe| pe.fvf.lane_terms()),
            charge_injection: std::array::from_fn(|l| lane(l).scm.charge_injection()),
            adc: std::array::from_fn(|l| lane(l).adc),
            params,
        })
    }

    /// Kernels in this pass: rows of [`LanePass::encode`]'s codes that
    /// hold output.
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// Normals one noisy block readout of this pass takes per lane: two
    /// per pixel (kTC, PSF), one per nonzero weight code (the SCM step; a
    /// zero code transfers no charge) and three per kernel (both FVFs, the
    /// ADC comparator).
    pub fn normals(&self) -> usize {
        2 * BLOCK_PIXELS + self.sites.len() + 3 * self.kernels
    }

    /// Encodes one block per lane through the full analog chain.
    ///
    /// * `pixels` — normalized `[0, 1]` raw-Bayer values.
    /// * `normals` — `Some` runs the stochastic noise sources (noisy mode):
    ///   normal `j` of lane `l`'s readout at `[j * LANES + l]`, for `j` below
    ///   [`LanePass::normals`] (the layout
    ///   [`leca_tensor::NormalStream::take_lanes`] returns). `None` runs the
    ///   deterministic device model.
    ///
    /// Returns one signed ADC code per kernel and lane; rows past
    /// [`LanePass::kernels`] are zero.
    ///
    /// # Panics
    ///
    /// Panics when `normals` holds fewer than `normals() * LANES` values.
    pub fn encode(&self, pixels: &LaneBlock, normals: Option<&[f32]>) -> LaneCodes {
        match normals {
            Some(z) => {
                assert!(
                    z.len() >= self.normals() * LANES,
                    "LanePass::encode: {} normals for {} per lane",
                    z.len(),
                    self.normals()
                );
                self.chain::<true>(pixels, z)
            }
            None => self.chain::<false>(pixels, &[]),
        }
    }

    /// The chain, with or without its noise sources. `z` is read only when
    /// `NOISY`, in the order the stages take their normals.
    #[inline(always)]
    fn chain<const NOISY: bool>(&self, pixels: &LaneBlock, z: &[f32]) -> LaneCodes {
        let noise = |j: usize| -> &[f32; LANES] {
            z[j * LANES..(j + 1) * LANES]
                .try_into()
                .expect("a row of LANES normals")
        };
        let p = &self.params;
        let two_vcm = 2.0 * p.vcm;
        let [psf_gain, psf_offset, psf_offset_err] = &self.psf_terms;
        let mut j = 0;
        // Differential o-buffers per kernel, reset to VCM.
        let mut vp = [[p.vcm; LANES]; KERNELS_PER_PASS];
        let mut vn = vp;
        // Input-stationary dataflow: buffer one ifmap row, sweep kernels.
        for r in 0..BLOCK_SIDE {
            // i-buffer sampling (kTC noise when noisy), then the PSF. Each
            // column keeps `2·V_CM − v` of its buffered voltage for the SCM.
            let mut row = [[0.0f32; LANES]; BLOCK_SIDE];
            for (c, out) in row.iter_mut().enumerate() {
                let x = &pixels[r * BLOCK_SIDE + c];
                for l in 0..LANES {
                    let mut v = p.pixel_to_voltage(x[l].clamp(0.0, 1.0));
                    if NOISY {
                        v += self.ktc * noise(j)[l];
                    }
                    let v = v.clamp(self.psf_lo, self.psf_hi);
                    let mut b = psf::curve(
                        psf_gain[l],
                        psf_offset[l],
                        psf_offset_err[l],
                        self.psf_mid,
                        v,
                    );
                    if NOISY {
                        b += psf::sigma(self.psf_lo, self.psf_span, v) * noise(j + 1)[l];
                    }
                    out[l] = two_vcm - b;
                }
                if NOISY {
                    j += 2;
                }
            }
            // Consecutive MACs: kernel by kernel, cycling the i-buffers.
            for s in self.row_start[r]..self.row_start[r + 1] {
                let Site {
                    kernel,
                    col,
                    positive,
                } = self.sites[s];
                let acc = if positive {
                    &mut vp[kernel]
                } else {
                    &mut vn[kernel]
                };
                let (cs, denom) = (&self.cs[s], &self.denom[s]);
                for l in 0..LANES {
                    let mut v = scm::charge_share(cs[l], row[col][l], p.c_out_ff, acc[l], denom[l])
                        + self.charge_injection[l];
                    if NOISY {
                        v += scm::STEP_NOISE * noise(j)[l];
                    }
                    acc[l] = v;
                }
                if NOISY {
                    j += 1;
                }
            }
        }

        // FVF + differential ADC per kernel.
        let [fvf_gain, fvf_offset, fvf_offset_err] = &self.fvf_terms;
        let buffer = |v: f32, l: usize| {
            fvf::curve(
                fvf_gain[l],
                fvf_offset[l],
                fvf_offset_err[l],
                self.fvf_vcm,
                v,
            )
        };
        let mut codes = [[0; LANES]; KERNELS_PER_PASS];
        for k in 0..self.kernels {
            for l in 0..LANES {
                let (vp, vn) = (vp[k][l].clamp(0.0, p.vdd), vn[k][l].clamp(0.0, p.vdd));
                let (mut bp, mut bn) = (buffer(vp, l), buffer(vn, l));
                codes[k][l] = if NOISY {
                    bp += fvf::sigma(self.fvf_vcm, vp) * noise(j)[l];
                    bn += fvf::sigma(self.fvf_vcm, vn) * noise(j + 1)[l];
                    self.adc[l].quantize_noisy(bp - bn, noise(j + 2)[l])
                } else {
                    self.adc[l].quantize(bp - bn)
                };
            }
            if NOISY {
                j += 3;
            }
        }
        codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leca_tensor::NormalStream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `pixels` in lane 0, zeros elsewhere.
    fn one_lane(pixels: &[f32]) -> LaneBlock {
        let mut block = [[0.0; LANES]; BLOCK_PIXELS];
        for (b, &x) in block.iter_mut().zip(pixels) {
            b[0] = x;
        }
        block
    }

    /// The deterministic chain's codes for one block, run in lane 0.
    fn clean(pe: &AnalogPe, pixels: &[f32], weights: &[Vec<i32>]) -> Vec<i32> {
        let codes = LanePass::new(std::slice::from_ref(pe), weights)
            .unwrap()
            .encode(&one_lane(pixels), None);
        codes[..weights.len()].iter().map(|c| c[0]).collect()
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
        let pass = LanePass::new(std::slice::from_ref(&pe), &weights).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut normals = NormalStream::new(&mut rng, 50 * pass.normals());
        let block = one_lane(&pixels);
        let noisy: Vec<i32> = (0..50)
            .map(|_| {
                let z = normals.take_lanes(1, pass.normals(), LANES);
                pass.encode(&block, Some(z))[0][0]
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
    fn each_lane_encodes_as_its_block_alone() {
        // Eight sampled PEs, eight different blocks, mixed-sign codes with
        // zeros: every lane's codes, clean and noisy, equal that block run
        // alone in lane 0 of its own PE with the same normals.
        let params = CircuitParams::paper_65nm();
        let mut rng = StdRng::seed_from_u64(8);
        let pes: Vec<AnalogPe> = (0..LANES)
            .map(|_| AnalogPe::sample(&params, AdcResolution::Sar(6), &mut rng).unwrap())
            .collect();
        let weights: Vec<Vec<i32>> = (0..3)
            .map(|k| (0..16).map(|i| (i * 7 + k * 5) % 31 - 15).collect())
            .collect();
        let pass = LanePass::new(&pes, &weights).unwrap();
        let block: LaneBlock =
            std::array::from_fn(|i| std::array::from_fn(|l| ((i * 3 + l * 5) % 17) as f32 / 16.0));
        let per_lane = pass.normals();
        // Normals in ±20, wide enough that the noise moves 6-bit codes.
        let z: Vec<f32> = (0..per_lane * LANES)
            .map(|i| ((i * 37) % 101) as f32 / 2.5 - 20.0)
            .collect();
        let (clean, noisy) = (pass.encode(&block, None), pass.encode(&block, Some(&z)));
        for l in 0..LANES {
            let alone = LanePass::new(std::slice::from_ref(&pes[l]), &weights).unwrap();
            let pixels: Vec<f32> = block.iter().map(|p| p[l]).collect();
            let mut lane_z = vec![0.0; per_lane * LANES];
            for j in 0..per_lane {
                lane_z[j * LANES] = z[j * LANES + l];
            }
            let want_clean = alone.encode(&one_lane(&pixels), None);
            let want_noisy = alone.encode(&one_lane(&pixels), Some(&lane_z));
            for k in 0..weights.len() {
                assert_eq!(clean[k][l], want_clean[k][0], "clean lane {l} kernel {k}");
                assert_eq!(noisy[k][l], want_noisy[k][0], "noisy lane {l} kernel {k}");
            }
        }
        assert_ne!(clean, noisy, "noise reached no code");
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
        let one = std::slice::from_ref(&pe);
        assert!(LanePass::new(one, &[vec![0; 15]]).is_err());
        assert!(LanePass::new(one, &vec![vec![0; 16]; KERNELS_PER_PASS + 1]).is_err());
        assert!(LanePass::new(&[], &[vec![0; 16]]).is_err());
        assert!(LanePass::new(&vec![pe.clone(); LANES + 1], &[vec![0; 16]]).is_err());
        assert!(matches!(
            LanePass::new(one, &[vec![16; 16]]),
            Err(CircuitError::WeightCodeOutOfRange { code: 16, .. })
        ));
        assert!(LanePass::new(one, &[vec![-15; 16]]).is_ok());
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
