//! The LeCA encoder: one learned compressive layer, three fidelities.
//!
//! The encoder is a single `K x K`, stride-`K` convolution whose output is
//! hard-truncated and quantized to `Q_bit` (Sec. 3.2). What distinguishes
//! LeCA is *how* that layer is computed during training (Sec. 3.4):
//!
//! * [`Modality::Soft`] — an ideal convolution (no hardware effects).
//! * [`Modality::Hard`] — the analytical circuit models with hardware
//!   constraints and offsets: linear PSF/FVF transfer functions and the
//!   exact Eq. (3) switched-capacitor recursion, with the weight expressed
//!   directly as the programmable capacitance code (quantized to the SCM's
//!   ±4-bit precision with a straight-through estimator) and the ADC's
//!   quantization boundary as a trainable parameter.
//! * [`Modality::Noisy`] — the full device behaviour: Monte-Carlo-extracted
//!   `N(LUT(v), σ(v))` buffer models, incomplete charge transfer and
//!   charge injection in the SCM, per-step kTC/switch noise, pixel
//!   shot/read noise and comparator noise — plus the permanent defects of
//!   the encoder's [`FaultPlan`] whenever that plan is non-empty.
//!
//! Gradients are exact throughout: the Eq. (3) recursion is differentiated
//! step by step (closed-form partials), quantizers use clipped STE
//! (Eq. (2)), and the LUT models back-propagate through their local slope.
//! Only the parameters (the weights and the ADC boundary) receive
//! gradients: the encoder reads the scene, so nothing upstream consumes
//! an input gradient and [`Layer::backward`] returns an empty tensor.
//!
//! For the hardware modalities the RGB kernel is expanded to the 4x4
//! raw-Bayer MAC schedule of Fig. 5(a) (green halved and duplicated), so
//! training sees *exactly* the dataflow the sensor executes.

use crate::config::LecaConfig;
use crate::{LecaError, Result as LecaResult};
use leca_circuit::adc::{self, AdcResolution};
use leca_circuit::fault::FaultPlan;
use leca_circuit::fvf::FvfModel;
use leca_circuit::mismatch::{extract_fvf_lut, extract_psf_lut, Lut, PAPER_MC_SAMPLES};
use leca_circuit::noise::PixelNoise;
use leca_circuit::psf::PsfModel;
use leca_circuit::scm::{self, ScmModel, CHARGE_INJECTION, TRANSFER_LOSS};
use leca_circuit::CircuitParams;
use leca_data::bayer::bayer_site;
use leca_nn::quant::signed_magnitude_quantize;
use leca_nn::{Layer, Mode, NnError, Param};
use leca_tensor::{ops, NormalStream, PooledTensor, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training/evaluation fidelity of the encoder forward path (Sec. 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Ideal convolution, no hardware effects.
    Soft,
    /// Analytical circuit models with constraints and offsets.
    Hard,
    /// Full device behaviour with noise and variations, plus the
    /// permanent defects of the encoder's [`FaultPlan`] (stuck/hot
    /// pixels, dead columns, weight-SRAM bit flips, stuck/missing ADC
    /// codes) when it is non-empty — fault-aware fine-tuning trains
    /// through the exact defect map the deployed sensor will exhibit.
    Noisy,
}

/// One step of the Bayer-expanded MAC schedule: which RGB weight/pixel it
/// reads and with what scale factor (greens are halved and duplicated).
#[derive(Debug, Clone, Copy)]
struct BayerStep {
    /// RGB channel index.
    c: usize,
    /// Kernel-cell row (0..K).
    dy: usize,
    /// Kernel-cell column (0..K).
    dx: usize,
    /// Weight scale factor (0.5 for the duplicated green).
    factor: f32,
}

/// The 16-step raw-Bayer MAC schedule for a 2x2x3 RGB kernel (Fig. 5(a)),
/// in row-major raw-site order.
fn bayer_schedule() -> [BayerStep; 16] {
    std::array::from_fn(|i| {
        let (row, col) = (i / 4, i % 4);
        let (c, factor) = bayer_site(row, col);
        BayerStep {
            c,
            dy: row / 2,
            dx: col / 2,
            factor,
        }
    })
}

#[derive(Debug)]
struct SoftCache {
    x: Tensor,
    u: Tensor,
}

/// Per (kernel, step) programming of the MAC array, derived from the
/// weights: effective sampling capacitance, positive-routing flag and the
/// STE pass mask of the weight that set them.
#[derive(Debug, Clone)]
struct MacProgram {
    cs: Vec<f32>,
    on_pos: Vec<bool>,
    w_mask: Vec<bool>,
}

#[derive(Debug)]
struct HwCache {
    /// Batch size.
    n: usize,
    oh: usize,
    ow: usize,
    /// Post-PSF voltage per (sample, block, step).
    vin: Vec<f32>,
    /// Accumulator value before each step, per (sample, kernel, block, step).
    prev: Vec<f32>,
    /// Final accumulators per (sample, kernel, block).
    vp: Vec<f32>,
    vn: Vec<f32>,
    /// Pre-quantization normalized value per (sample, kernel, block).
    u: Vec<f32>,
    program: MacProgram,
}

enum Cache {
    Soft(SoftCache),
    Hw(HwCache),
}

/// The LeCA encoder layer. See the module docs.
pub struct LecaEncoder {
    modality: Modality,
    k: usize,
    n_ch: usize,
    resolution: AdcResolution,
    weight: Param,
    v_fs: Param,
    params: CircuitParams,
    scm: ScmModel,
    psf: PsfModel,
    fvf: FvfModel,
    psf_lut: Lut,
    fvf_lut: Lut,
    pixel_noise: PixelNoise,
    fault_plan: FaultPlan,
    schedule: [BayerStep; 16],
    rng: StdRng,
    cache: Option<Cache>,
}

impl std::fmt::Debug for LecaEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LecaEncoder({:?}, K={}, N_ch={}, Q_bit={})",
            self.modality,
            self.k,
            self.n_ch,
            self.resolution.qbit()
        )
    }
}

impl LecaEncoder {
    /// Creates an encoder for `cfg` in the given modality. `seed` fixes the
    /// weight initialization, the Monte-Carlo LUT extraction and the noisy
    /// modality's noise stream.
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::InvalidConfig`] when a hardware modality is
    /// requested with `K != 2` (the sensor's fixed block size) and
    /// propagates configuration errors.
    pub fn new(cfg: &LecaConfig, modality: Modality, seed: u64) -> LecaResult<Self> {
        cfg.validate()?;
        if modality != Modality::Soft && cfg.k != 2 {
            return Err(LecaError::InvalidConfig(format!(
                "hardware modalities require K = 2 (sensor block size), got K = {}",
                cfg.k
            )));
        }
        let params = CircuitParams::paper_65nm();
        let mut rng = StdRng::seed_from_u64(seed);
        // Capacitance-fraction weights in [-1, 1]; a modest init spread
        // keeps early MAC chains inside the linear region.
        let weight = Param::new(Tensor::rand_uniform(
            &[cfg.n_ch, cfg.channels, cfg.k, cfg.k],
            -0.5,
            0.5,
            &mut rng,
        ));
        let v_fs = Param::new(Tensor::from_slice(&[0.3]));
        Ok(LecaEncoder {
            modality,
            k: cfg.k,
            n_ch: cfg.n_ch,
            resolution: cfg.resolution()?,
            weight,
            v_fs,
            scm: ScmModel::new(params.clone()),
            psf: PsfModel::nominal(),
            fvf: FvfModel::nominal(),
            psf_lut: extract_psf_lut(&params, PAPER_MC_SAMPLES, 33, seed ^ 0x9e37),
            fvf_lut: extract_fvf_lut(&params, PAPER_MC_SAMPLES, 33, seed ^ 0x79b9),
            params,
            pixel_noise: PixelNoise::typical(),
            fault_plan: FaultPlan::none(),
            schedule: bayer_schedule(),
            rng: StdRng::seed_from_u64(seed.wrapping_add(1)),
            cache: None,
        })
    }

    /// The active modality.
    pub fn modality(&self) -> Modality {
        self.modality
    }

    /// Switches modality in place (weights persist) — the paper's
    /// soft→hard→noisy transfer experiments.
    pub fn set_modality(&mut self, modality: Modality) -> LecaResult<()> {
        if modality != Modality::Soft && self.k != 2 {
            return Err(LecaError::InvalidConfig(
                "hardware modalities require K = 2".into(),
            ));
        }
        self.modality = modality;
        Ok(())
    }

    /// The active fault plan. [`Modality::Noisy`] applies it when it is
    /// non-empty; the other modalities ignore it.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Installs the permanent-defect plan that [`Modality::Noisy`] trains
    /// through; [`FaultPlan::none`] (the default) restores the
    /// fault-free chain bit for bit. `deploy::program_sensor` carries
    /// this plan onto the sensor, so training and deployment see
    /// identical defect maps.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// The ofmap bit depth.
    pub fn qbit(&self) -> f32 {
        self.resolution.qbit()
    }

    /// The ADC resolution (code grid) the encoder quantizes onto.
    pub fn resolution(&self) -> AdcResolution {
        self.resolution
    }

    /// Changes the ofmap bit depth (incremental training: pre-train at
    /// Q_bit = 8, fine-tune at the target).
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::Circuit`] for unsupported depths.
    pub fn set_qbit(&mut self, qbit: f32) -> LecaResult<()> {
        self.resolution = AdcResolution::from_qbit(qbit).map_err(LecaError::Circuit)?;
        Ok(())
    }

    /// Number of output channels.
    pub fn n_ch(&self) -> usize {
        self.n_ch
    }

    /// Encoder kernel size / stride.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current weight tensor (`(N_ch, C, K, K)` capacitance fractions).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Replaces the weight tensor (e.g. soft→hard transfer).
    ///
    /// # Errors
    ///
    /// Returns [`LecaError::InvalidConfig`] on shape mismatch.
    pub fn set_weight(&mut self, w: Tensor) -> LecaResult<()> {
        if w.shape() != self.weight.value.shape() {
            return Err(LecaError::InvalidConfig(format!(
                "weight shape {:?} does not match encoder {:?}",
                w.shape(),
                self.weight.value.shape()
            )));
        }
        self.weight.value = w;
        Ok(())
    }

    /// The trained ADC boundary (full-scale) value.
    pub fn v_fs(&self) -> f32 {
        self.v_fs.value.as_slice()[0].abs().max(1e-3)
    }

    /// Projects weights back onto the hardware constraint `[-1, 1]`; call
    /// after optimizer steps in hardware modalities.
    pub fn clamp_weights(&mut self) {
        self.weight.value.map_inplace(|v| v.clamp(-1.0, 1.0));
    }

    /// Normalized quantizer: input `u = v_diff / v_fs`, output in `[-1, 1]`
    /// on the centrally-symmetric code grid.
    fn quant_norm(&self, u: f32) -> f32 {
        match self.resolution {
            AdcResolution::Ternary => {
                if u > 1.0 / 3.0 {
                    2.0 / 3.0
                } else if u < -1.0 / 3.0 {
                    -2.0 / 3.0
                } else {
                    0.0
                }
            }
            AdcResolution::Sar(_) => {
                let max = self.resolution.max_code() as f32;
                (u.clamp(-1.0, 1.0) * max).round() / max
            }
        }
    }

    /// Applies the fault plan's ADC defect (if any) on PE column `pe`,
    /// kernel `kern` to a normalized quantizer output, staying on the
    /// centrally-symmetric code grid.
    fn adc_faulted(&self, pe: usize, kern: usize, q: f32) -> f32 {
        match self.resolution {
            AdcResolution::Ternary => {
                // Normalized ternary outputs {-2/3, 0, 2/3} carry codes
                // {-1, 0, 1} (the deploy normalization convention).
                let code = (q * 1.5).round() as i32;
                self.fault_plan.apply_adc(pe, kern, code, 1) as f32 * (2.0 / 3.0)
            }
            AdcResolution::Sar(_) => {
                let max = self.resolution.max_code();
                let code = (q * max as f32).round() as i32;
                self.fault_plan.apply_adc(pe, kern, code, max) as f32 / max as f32
            }
        }
    }

    fn backward_soft(&mut self, grad_out: &Tensor, cache: SoftCache) -> leca_nn::Result<Tensor> {
        let vfs = self.v_fs();
        // STE through the quantizer, clipped to the boundary.
        let mut g_u = grad_out.clone();
        let mut g_vfs = 0.0f64;
        for ((g, &u), go) in g_u
            .as_mut_slice()
            .iter_mut()
            .zip(cache.u.as_slice())
            .zip(grad_out.as_slice())
        {
            if u.abs() <= 1.0 {
                g_vfs += (*go * (-u / vfs)) as f64;
                *g = *go;
            } else {
                *g = 0.0;
            }
        }
        self.v_fs.grad.as_mut_slice()[0] += g_vfs as f32;
        let g_y = g_u.scale(1.0 / vfs);
        let gw = ops::conv2d_grad_weight(&cache.x, &g_y, self.k, self.k, self.k, 0)?;
        self.weight.accumulate(&gw);
        Ok(Tensor::zeros(&[0]))
    }

    /// PSF transfer in the current modality: with `normals` (noisy) the
    /// Monte-Carlo `N(LUT(v), σ(v))` model, taking one normal.
    fn psf_eval(&self, vpix: f32, normals: Option<&mut NormalStream<'_, StdRng>>) -> f32 {
        match normals {
            Some(normals) => self.psf_lut.value(vpix) + self.psf_lut.sigma(vpix) * normals.draw(),
            None => self.psf.transfer(vpix),
        }
    }

    /// FVF transfer in the current modality; see [`Self::psf_eval`].
    fn fvf_eval(&self, v: f32, normals: Option<&mut NormalStream<'_, StdRng>>) -> f32 {
        match normals {
            Some(normals) => self.fvf_lut.value(v) + self.fvf_lut.sigma(v) * normals.draw(),
            None => self.fvf.transfer(v),
        }
    }

    /// Fraction of the sampled charge the SCM transfers: the device model
    /// loses [`TRANSFER_LOSS`] of it, the analytical one none.
    fn loss_factor(&self) -> f32 {
        if self.modality == Modality::Noisy {
            1.0 - TRANSFER_LOSS
        } else {
            1.0
        }
    }

    /// Programs the MAC array from the current weights: each (kernel,
    /// step) weight is quantized to its capacitance code — through the
    /// fault plan's weight-SRAM flips in a faulted Noisy chain — and
    /// turned into a sampling capacitance and a routing.
    fn mac_program(&self) -> MacProgram {
        let faulty = self.modality == Modality::Noisy && !self.fault_plan.is_none();
        let (ctot, loss_factor) = (self.params.c_sample_tot_ff, self.loss_factor());
        let n_ch = self.n_ch;
        let mut cs = vec![0.0f32; n_ch * 16];
        let mut on_pos = vec![true; n_ch * 16];
        let mut w_mask = vec![true; n_ch * 16];
        let max_wcode = self.params.max_weight_code();
        for kern in 0..n_ch {
            for (j, step) in self.schedule.iter().enumerate() {
                let wv = self.weight.value.at4(kern, step.c, step.dy, step.dx) * step.factor;
                let mut wq = signed_magnitude_quantize(wv, 4, 1.0);
                if faulty {
                    // Weight-SRAM bit flips act on the programmed code,
                    // exactly as `LecaSensor::program_weights` sees them.
                    let code = (wq * max_wcode as f32).round() as i32;
                    wq = self.fault_plan.weight_code(kern, j, code, max_wcode) as f32
                        / max_wcode as f32;
                }
                cs[kern * 16 + j] = wq.abs() * ctot * loss_factor;
                on_pos[kern * 16 + j] = wq >= 0.0;
                w_mask[kern * 16 + j] = wv.abs() <= 1.0;
            }
        }
        MacProgram { cs, on_pos, w_mask }
    }

    /// Runs the analog chain on `x` with the MAC array programmed as
    /// `program`, caching the voltage traces backward reads in Train mode.
    fn forward_hw(
        &mut self,
        x: &Tensor,
        mode: Mode,
        program: MacProgram,
    ) -> leca_nn::Result<Tensor> {
        if x.rank() != 4 || x.shape()[1] != 3 {
            return Err(NnError::Tensor(leca_tensor::TensorError::RankMismatch {
                op: "leca_encoder",
                expected: 4,
                actual: x.rank(),
            }));
        }
        let noisy = self.modality == Modality::Noisy;
        let faulty = noisy && !self.fault_plan.is_none();
        let (n, _, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        if h % 2 != 0 || w % 2 != 0 {
            return Err(NnError::InvalidConfig(format!(
                "input {h}x{w} not divisible by K = 2"
            )));
        }
        let (oh, ow) = (h / 2, w / 2);
        let blocks = oh * ow;
        let n_ch = self.n_ch;
        let vfs = self.v_fs();
        let vcm = self.params.vcm;
        let (win_lo, win_hi) = (self.params.v_dark, self.params.v_dark + self.params.v_swing);
        let MacProgram { cs, on_pos, .. } = &program;

        // Noisy normals per block, in the order the loops below take them:
        // per MAC step the pixel's shot and read noise and the PSF's, then
        // per kernel one per nonzero-capacitance step and the two FVFs' and
        // the comparator's.
        let pixel_normals = self.pixel_noise.normals_per_pixel();
        let nonzero_steps = cs.iter().filter(|&&c| c > 0.0).count();
        let block_normals = 16 * (pixel_normals + 1) + nonzero_steps + 3 * n_ch;
        let total_normals = n * blocks * block_normals;
        // The stream draws from a copy of the encoder's generator so the
        // loops can still borrow `self`; the copy is stored back below.
        let mut rng = self.rng.clone();
        let mut normals = noisy.then(|| NormalStream::new(&mut rng, total_normals));

        let schedule = self.schedule;
        let mut vin = vec![0.0f32; n * blocks * 16];
        let mut prev = vec![0.0f32; n * n_ch * blocks * 16];
        let mut vp = vec![0.0f32; n * n_ch * blocks];
        let mut vn = vec![0.0f32; n * n_ch * blocks];
        let mut u = vec![0.0f32; n * n_ch * blocks];
        let mut out = Tensor::zeros(&[n, n_ch, oh, ow]);

        for ni in 0..n {
            for by in 0..oh {
                for bx in 0..ow {
                    let b = by * ow + bx;
                    // Stage 1: pixel → i-buffer → PSF, shared by kernels.
                    for (j, step) in schedule.iter().enumerate() {
                        let mut px = x.at4(ni, step.c, by * 2 + step.dy, bx * 2 + step.dx);
                        if let Some(normals) = normals.as_mut() {
                            px = self.pixel_noise.apply(px, normals);
                        }
                        if faulty {
                            // Map MAC step j onto the raw-Bayer photosite
                            // the sensor reads: block (by, bx) covers raw
                            // rows by*4.. and cols bx*4.., step j scanning
                            // row-major within the 4x4 block.
                            let (ry, rx) = (by * 4 + j / 4, bx * 4 + j % 4);
                            px = self.fault_plan.apply_pixel(ry * (ow * 4) + rx, px);
                            if self.fault_plan.column_dead(rx) {
                                px = 0.0;
                            }
                        }
                        let v = self.params.pixel_to_voltage(px).clamp(win_lo, win_hi);
                        vin[(ni * blocks + b) * 16 + j] = self.psf_eval(v, normals.as_mut());
                    }
                    // Stage 2: per-kernel MAC chains on the differential
                    // o-buffers.
                    for kern in 0..n_ch {
                        let mut acc_p = vcm;
                        let mut acc_n = vcm;
                        for j in 0..16 {
                            let ks = kern * 16 + j;
                            let acc = if on_pos[ks] { &mut acc_p } else { &mut acc_n };
                            prev[((ni * n_ch + kern) * blocks + b) * 16 + j] = *acc;
                            if cs[ks] > 0.0 {
                                let mut v =
                                    self.scm.step(*acc, vin[(ni * blocks + b) * 16 + j], cs[ks]);
                                if let Some(normals) = normals.as_mut() {
                                    v += CHARGE_INJECTION + scm::STEP_NOISE * normals.draw();
                                }
                                *acc = v;
                            }
                        }
                        let kb = (ni * n_ch + kern) * blocks + b;
                        vp[kb] = acc_p;
                        vn[kb] = acc_n;
                        // Stage 3: FVF + ADC.
                        let bp = self.fvf_eval(acc_p, normals.as_mut());
                        let bn = self.fvf_eval(acc_n, normals.as_mut());
                        let mut vdiff = bp - bn;
                        if let Some(normals) = normals.as_mut() {
                            vdiff += adc::DEVICE_NOISE * normals.draw();
                        }
                        let uu = vdiff / vfs;
                        u[kb] = uu;
                        let mut q = self.quant_norm(uu);
                        if faulty {
                            q = self.adc_faulted(bx, kern, q);
                        }
                        out.set4(ni, kern, by, bx, q);
                    }
                }
            }
        }

        if let Some(normals) = normals {
            assert_eq!(
                normals.remaining(),
                0,
                "leca_encoder: the noisy chain left normals of its {total_normals} untaken"
            );
            self.rng = rng;
        }

        if mode.is_train() {
            self.cache = Some(Cache::Hw(HwCache {
                n,
                oh,
                ow,
                vin,
                prev,
                vp,
                vn,
                u,
                program,
            }));
        }
        Ok(out)
    }

    fn backward_hw(&mut self, grad_out: &Tensor, cache: HwCache) -> leca_nn::Result<Tensor> {
        let (n, oh, ow) = (cache.n, cache.oh, cache.ow);
        let blocks = oh * ow;
        let n_ch = self.n_ch;
        if grad_out.shape() != [n, n_ch, oh, ow] {
            return Err(NnError::BatchMismatch {
                what: "leca_encoder backward",
                expected: n * n_ch * blocks,
                actual: grad_out.len(),
            });
        }
        let vfs = self.v_fs();
        let (ctot, loss_factor) = (self.params.c_sample_tot_ff, self.loss_factor());
        let program = &cache.program;
        let mut gw = Tensor::zeros(self.weight.value.shape());
        let mut g_vfs = 0.0f64;

        for ni in 0..n {
            for kern in 0..n_ch {
                for b in 0..blocks {
                    let go = grad_out.at4(ni, kern, b / ow, b % ow);
                    if go == 0.0 {
                        continue;
                    }
                    let uu = cache.u[(ni * n_ch + kern) * blocks + b];
                    if uu.abs() > 1.0 {
                        continue; // clipped STE: saturated codes block grads
                    }
                    g_vfs += (go * (-uu / vfs)) as f64;
                    let g_cs = self.chain_grads(&cache, ni, kern, b, go / vfs);
                    // Weight gradient through the capacitance code.
                    for j in (0..16).rev() {
                        let ks = kern * 16 + j;
                        if program.w_mask[ks] {
                            let step = self.schedule[j];
                            let sign = if program.on_pos[ks] { 1.0 } else { -1.0 };
                            let widx = ((kern * 3 + step.c) * self.k + step.dy) * self.k + step.dx;
                            gw.as_mut_slice()[widx] +=
                                g_cs[j] * ctot * loss_factor * step.factor * sign;
                        }
                    }
                }
            }
        }
        self.v_fs.grad.as_mut_slice()[0] += g_vfs as f32;
        self.weight.accumulate(&gw);
        Ok(Tensor::zeros(&[0]))
    }

    /// Reverses kernel `kern`'s MAC chains on block `b` of sample `ni`
    /// from `g_vdiff = dL/dv_diff`: the FVF slopes at the cached
    /// accumulators, then Eq. (3)'s partials step by step. Returns dL/dcs
    /// for each of the 16 steps.
    fn chain_grads(
        &self,
        cache: &HwCache,
        ni: usize,
        kern: usize,
        b: usize,
        g_vdiff: f32,
    ) -> [f32; 16] {
        let kb = (ni * self.n_ch + kern) * cache.oh * cache.ow + b;
        let (slope_p, slope_n) = if self.modality == Modality::Noisy {
            (
                self.fvf_lut.slope(cache.vp[kb]),
                self.fvf_lut.slope(cache.vn[kb]),
            )
        } else {
            (self.fvf.gain, self.fvf.gain)
        };
        let mut gp = g_vdiff * slope_p;
        let mut gn = -g_vdiff * slope_n;
        let mut g_cs = [0.0f32; 16];
        for j in (0..16).rev() {
            let ks = kern * 16 + j;
            let gacc = if cache.program.on_pos[ks] {
                &mut gp
            } else {
                &mut gn
            };
            if *gacc == 0.0 {
                continue;
            }
            let vin = cache.vin[(ni * cache.oh * cache.ow + b) * 16 + j];
            let (d_prev, d_cs) =
                self.scm
                    .step_grads(cache.prev[kb * 16 + j], vin, cache.program.cs[ks]);
            g_cs[j] = *gacc * d_cs;
            *gacc *= d_prev;
        }
        g_cs
    }
}

impl Layer for LecaEncoder {
    fn backward(&mut self, grad_out: &Tensor) -> leca_nn::Result<Tensor> {
        match self.cache.take() {
            Some(Cache::Soft(c)) => self.backward_soft(grad_out, c),
            Some(Cache::Hw(c)) => self.backward_hw(grad_out, c),
            None => Err(NnError::NoForwardCache("leca_encoder")),
        }
    }

    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &Workspace,
    ) -> leca_nn::Result<PooledTensor> {
        // The hardware modalities simulate the analog pipeline step by step
        // and return the output together with their voltage traces.
        if self.modality != Modality::Soft {
            let program = self.mac_program();
            return Ok(ws.adopt(self.forward_hw(x, mode, program)?));
        }
        let shape = ops::conv2d_out_shape(x, &self.weight.value, self.k, 0)?;
        let mut out = ws.take(&shape);
        ops::conv2d_into(x, &self.weight.value, None, self.k, 0, &mut out)?;
        let inv = 1.0 / self.v_fs();
        if mode.is_train() {
            // The pre-quantization codes `u` drive the clipped STE.
            let u = out.scale(inv);
            self.cache = Some(Cache::Soft(SoftCache { x: x.clone(), u }));
        }
        out.map_inplace(|v| self.quant_norm(v * inv));
        Ok(out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.v_fs);
    }

    fn name(&self) -> &'static str {
        "leca_encoder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn cfg(n_ch: usize, qbit: f32) -> LecaConfig {
        LecaConfig::new(2, n_ch, qbit).unwrap()
    }

    fn input(n: usize, hw: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(&[n, 3, hw, hw], 0.05, 0.95, &mut rng)
    }

    #[test]
    fn bayer_schedule_matches_fig5a() {
        let s = bayer_schedule();
        // Row 0: R G R G; row 1: G B G B.
        assert_eq!((s[0].c, s[0].factor), (0, 1.0));
        assert_eq!((s[1].c, s[1].factor), (1, 0.5));
        assert_eq!((s[4].c, s[4].factor), (1, 0.5));
        assert_eq!((s[5].c, s[5].factor), (2, 1.0));
        // Each RGB weight appears with total factor 1 (greens 0.5 + 0.5).
        let mut totals = [[0.0f32; 4]; 3];
        for st in &s {
            totals[st.c][st.dy * 2 + st.dx] += st.factor;
        }
        for (c, row) in totals.iter().enumerate() {
            for (cell, &t) in row.iter().enumerate() {
                assert!((t - 1.0).abs() < 1e-6, "c{c} cell{cell}");
            }
        }
    }

    #[test]
    fn soft_output_shape_and_levels() {
        let mut enc = LecaEncoder::new(&cfg(4, 3.0), Modality::Soft, 0).unwrap();
        let x = input(2, 8, 1);
        let y = enc.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
        // Codes live on the 3-bit symmetric grid {k/3} (max code 2^(3-1)-1).
        for &v in y.as_slice() {
            let scaled = v * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-4, "off-grid {v}");
            assert!(v.abs() <= 1.0);
        }
    }

    #[test]
    fn hard_output_shape_and_levels() {
        let mut enc = LecaEncoder::new(&cfg(4, 3.0), Modality::Hard, 0).unwrap();
        let x = input(2, 8, 2);
        let y = enc.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
        for &v in y.as_slice() {
            let scaled = v * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-4);
        }
    }

    #[test]
    fn ternary_mode_emits_three_levels() {
        let mut enc = LecaEncoder::new(&cfg(4, 1.5), Modality::Hard, 0).unwrap();
        let x = input(1, 8, 3);
        let y = enc.forward(&x, Mode::Eval).unwrap();
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 2.0 / 3.0).abs() < 1e-6 || (v + 2.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn hard_mode_is_deterministic_noisy_is_not() {
        let x = input(1, 8, 4);
        let mut hard = LecaEncoder::new(&cfg(4, 8.0), Modality::Hard, 0).unwrap();
        let a = hard.forward(&x, Mode::Eval).unwrap();
        let b = hard.forward(&x, Mode::Eval).unwrap();
        assert_eq!(a, b);
        let mut noisy = LecaEncoder::new(&cfg(4, 8.0), Modality::Noisy, 0).unwrap();
        noisy.set_weight(hard.weight().clone()).unwrap();
        let c = noisy.forward(&x, Mode::Eval).unwrap();
        let d = noisy.forward(&x, Mode::Eval).unwrap();
        assert_ne!(c, d, "noisy modality must sample fresh noise");
        // But it must stay close to the hard output on average.
        let diff = a.sub(&c).unwrap().map(f32::abs).mean();
        assert!(diff < 0.25, "noisy deviates too far: {diff}");
    }

    #[test]
    fn soft_gradients_equal_ste_closed_form() {
        // The STE *defines* the soft backward as the plain convolution
        // gradient scaled by 1/v_fs (within the boundary), so we can check
        // it exactly against the closed form.
        let mut enc = LecaEncoder::new(&cfg(2, 8.0), Modality::Soft, 5).unwrap();
        let x = input(1, 4, 6);
        enc.zero_grad();
        let y = enc.forward(&x, Mode::Train).unwrap();
        // Check all pre-quant values are inside the boundary so no STE
        // masking applies (v_fs init 0.3 and random weights keep |u| ~ 1;
        // enlarge the boundary to be sure).
        let gx = enc.backward(&Tensor::ones(y.shape())).unwrap();
        assert!(
            gx.is_empty(),
            "the encoder has no upstream to hand dL/dx to"
        );
        let vfs = enc.v_fs();
        // Recompute expected gradients with the tensor kernels, masking
        // saturated positions.
        let conv = leca_tensor::ops::conv2d(&x, enc.weight(), None, 2, 0).unwrap();
        let mut g_y = Tensor::full(conv.shape(), 1.0 / vfs);
        for (g, &c) in g_y.as_mut_slice().iter_mut().zip(conv.as_slice()) {
            if (c / vfs).abs() > 1.0 {
                *g = 0.0;
            }
        }
        let expect_gw = leca_tensor::ops::conv2d_grad_weight(&x, &g_y, 2, 2, 2, 0).unwrap();
        for (a, b) in enc.weight.grad.as_slice().iter().zip(expect_gw.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn hard_weight_gradients_match_finite_differences() {
        // The crucial check: backprop through the Eq. (3) recursion. The
        // forward output is a staircase, so compare against finite
        // differences of the *pre-quantization* value by probing with a
        // large epsilon across many coordinates and checking correlation.
        let c = cfg(2, 8.0);
        let mut enc = LecaEncoder::new(&c, Modality::Hard, 7).unwrap();
        let x = input(1, 4, 8);
        enc.zero_grad();
        let y = enc.forward(&x, Mode::Train).unwrap();
        enc.backward(&Tensor::ones(y.shape())).unwrap();
        let analytic = enc.weight.grad.clone();
        // Probe with a step spanning several weight-code LSBs so the
        // numeric difference quotient approximates the smooth relaxation
        // the STE differentiates.
        let eps = 0.1;
        let mut agree = 0;
        let mut total = 0;
        for i in 0..analytic.len() {
            let orig = enc.weight.value.as_slice()[i];
            enc.weight.value.as_mut_slice()[i] = orig + eps;
            let fp = enc.forward(&x, Mode::Eval).unwrap().sum();
            enc.weight.value.as_mut_slice()[i] = orig - eps;
            let fm = enc.forward(&x, Mode::Eval).unwrap().sum();
            enc.weight.value.as_mut_slice()[i] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            if numeric.abs() > 1e-2 && a.abs() > 1e-2 {
                total += 1;
                // Same sign and within 3x magnitude: quantization makes
                // exact agreement impossible, but the direction must hold.
                if a * numeric > 0.0 && (a / numeric).abs() < 3.0 && (numeric / a).abs() < 3.0 {
                    agree += 1;
                }
            }
        }
        assert!(total >= 8, "probe found too few active weights: {total}");
        assert!(
            agree as f32 / total as f32 >= 0.7,
            "only {agree}/{total} weight grads point the right way"
        );
    }

    #[test]
    fn v_fs_gradient_flows() {
        let mut enc = LecaEncoder::new(&cfg(4, 8.0), Modality::Hard, 11).unwrap();
        let x = input(1, 8, 12);
        enc.zero_grad();
        let y = enc.forward(&x, Mode::Train).unwrap();
        enc.backward(&Tensor::ones(y.shape())).unwrap();
        assert_ne!(enc.v_fs.grad.as_slice()[0], 0.0);
    }

    #[test]
    fn backward_requires_forward() {
        let mut enc = LecaEncoder::new(&cfg(2, 3.0), Modality::Soft, 0).unwrap();
        assert!(enc.backward(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
    }

    #[test]
    fn modality_switch_preserves_weights() {
        let mut enc = LecaEncoder::new(&cfg(4, 3.0), Modality::Soft, 13).unwrap();
        let w = enc.weight().clone();
        enc.set_modality(Modality::Hard).unwrap();
        assert_eq!(enc.weight(), &w);
        assert_eq!(enc.modality(), Modality::Hard);
    }

    #[test]
    fn k3_rejected_in_hw_modalities() {
        let c = LecaConfig::new(3, 4, 3.0).unwrap();
        assert!(LecaEncoder::new(&c, Modality::Hard, 0).is_err());
        assert!(LecaEncoder::new(&c, Modality::Soft, 0).is_ok());
        let mut enc = LecaEncoder::new(&c, Modality::Soft, 0).unwrap();
        assert!(enc.set_modality(Modality::Noisy).is_err());
    }

    #[test]
    fn qbit_annealing_changes_grid() {
        let mut enc = LecaEncoder::new(&cfg(4, 8.0), Modality::Hard, 14).unwrap();
        let x = input(1, 8, 15);
        let fine = enc.forward(&x, Mode::Eval).unwrap();
        enc.set_qbit(1.5).unwrap();
        assert_eq!(enc.qbit(), 1.5);
        let coarse = enc.forward(&x, Mode::Eval).unwrap();
        let distinct_fine: std::collections::HashSet<i32> = fine
            .as_slice()
            .iter()
            .map(|v| (v * 127.0).round() as i32)
            .collect();
        let distinct_coarse: std::collections::HashSet<i32> = coarse
            .as_slice()
            .iter()
            .map(|v| (v * 3.0).round() as i32)
            .collect();
        assert!(distinct_fine.len() > distinct_coarse.len());
    }

    #[test]
    fn clamp_weights_projects() {
        let mut enc = LecaEncoder::new(&cfg(2, 3.0), Modality::Hard, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let w = Tensor::from_vec(
            (0..enc.weight().len())
                .map(|_| rng.gen_range(-3.0..3.0))
                .collect(),
            enc.weight().shape(),
        )
        .unwrap();
        enc.set_weight(w).unwrap();
        enc.clamp_weights();
        assert!(enc.weight().max() <= 1.0 && enc.weight().min() >= -1.0);
        assert!(enc.set_weight(Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn encoder_param_count_matches_config() {
        let c = cfg(8, 3.0);
        let mut enc = LecaEncoder::new(&c, Modality::Hard, 17).unwrap();
        assert_eq!(enc.num_params(), c.encoder_params());
    }

    #[test]
    fn fault_plan_changes_noisy_output_and_stays_on_grid() {
        let x = input(1, 8, 22);
        let mut a = LecaEncoder::new(&cfg(4, 3.0), Modality::Noisy, 23).unwrap();
        let mut b = LecaEncoder::new(&cfg(4, 3.0), Modality::Noisy, 23).unwrap();
        b.set_fault_plan(FaultPlan::uniform(5, 0.4));
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_ne!(ya, yb, "a heavy fault plan must perturb the ofmap");
        for &v in yb.as_slice() {
            let scaled = v * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-4, "off-grid {v}");
            assert!(v.abs() <= 1.0);
        }
    }

    #[test]
    fn noisy_fault_plan_gradients_flow_for_fine_tuning() {
        let mut enc = LecaEncoder::new(&cfg(4, 8.0), Modality::Noisy, 24).unwrap();
        enc.set_fault_plan(FaultPlan::uniform(6, 0.1));
        let x = input(1, 8, 25);
        enc.zero_grad();
        let y = enc.forward(&x, Mode::Train).unwrap();
        let gx = enc.backward(&Tensor::ones(y.shape())).unwrap();
        assert!(gx.is_empty());
        assert!(enc.weight.grad.norm_sq() > 0.0, "weight gradient must flow");
    }

    /// A Train forward of `x` with the MAC array programmed as `program`,
    /// drawing its noise from a copy of `rng`. Returns the cache.
    fn hw_trace(enc: &mut LecaEncoder, x: &Tensor, program: MacProgram, rng: &StdRng) -> HwCache {
        enc.rng = rng.clone();
        enc.forward_hw(x, Mode::Train, program).unwrap();
        match enc.cache.take() {
            Some(Cache::Hw(c)) => c,
            _ => unreachable!("a hardware forward caches its traces"),
        }
    }

    /// Checks the reverse-mode partials of the pre-ADC `u` against central
    /// differences where the chain is smooth: wrt each nonzero capacitance
    /// (weight codes held fixed, so no quantizer is crossed) and wrt
    /// `v_fs`. Noise is replayed, so the ± runs see the same draws: `cs`
    /// stays nonzero, so the draw count does not change.
    ///
    /// Backward linearizes the FVF LUT's mean. A replayed draw also scales
    /// the LUT's σ(v), whose slope backward leaves out, a gap of up to
    /// 0.4%, so the check flattens σ to make the noisy chain exactly
    /// differentiable. A capacitance partial then passes within 2e-3 of
    /// the difference plus 2e-6 absolute (f32 rounding of a 0.5 fF
    /// difference quotient; the largest gaps seen are 6e-4 relative and
    /// 6e-7 absolute), and `v_fs` within 1e-3.
    fn check_chain_partials(modality: Modality, plan: FaultPlan) {
        let mut enc = LecaEncoder::new(&cfg(2, 8.0), modality, 41).unwrap();
        enc.set_fault_plan(plan);
        let (lo, hi) = (enc.fvf_lut.lo(), enc.fvf_lut.hi());
        let step = (hi - lo) / 32.0;
        let mean = (0..33)
            .map(|i| enc.fvf_lut.value(lo + i as f32 * step))
            .collect();
        let sigma = vec![enc.fvf_lut.sigma(enc.params.vcm); 33];
        enc.fvf_lut = Lut::new(lo, step, mean, sigma).unwrap();
        let x = input(1, 8, 42);
        let rng = enc.rng.clone();
        let base = enc.mac_program();
        let trace = hw_trace(&mut enc, &x, base.clone(), &rng);
        let vfs = enc.v_fs();
        let blocks = trace.oh * trace.ow;
        let ceps = 0.5; // fF; the f32 voltage difference underflows below
        let mut checked = 0;
        for kern in 0..2 {
            let g_cs: Vec<[f32; 16]> = (0..blocks)
                .map(|b| enc.chain_grads(&trace, 0, kern, b, 1.0 / vfs))
                .collect();
            for j in 0..16 {
                let ks = kern * 16 + j;
                if base.cs[ks] <= ceps {
                    continue;
                }
                let mut plus = base.clone();
                plus.cs[ks] += ceps;
                let mut minus = base.clone();
                minus.cs[ks] -= ceps;
                let up = hw_trace(&mut enc, &x, plus, &rng).u;
                let um = hw_trace(&mut enc, &x, minus, &rng).u;
                for (b, g) in g_cs.iter().enumerate() {
                    let kb = kern * blocks + b;
                    let numeric = (up[kb] - um[kb]) / (2.0 * ceps);
                    let analytic = g[j];
                    assert!(
                        (analytic - numeric).abs() <= 2e-3 * numeric.abs() + 2e-6,
                        "{modality:?} du/dcs kernel {kern} step {j} block {b}: \
                         backward {analytic} vs central difference {numeric}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 64, "too few smooth partials probed: {checked}");

        // v_fs: the backward's partial with dL/dq = 1 at every unclipped
        // output against d(sum of those u)/dv_fs.
        enc.zero_grad();
        enc.rng = rng.clone();
        let y = enc.forward(&x, Mode::Train).unwrap();
        enc.backward(&Tensor::ones(y.shape())).unwrap();
        let analytic = enc.v_fs.grad.as_slice()[0];
        let veps = 1e-3;
        let v0 = enc.v_fs.value.as_slice()[0];
        let mut sums = [0.0f32; 2];
        for (sum, v) in sums.iter_mut().zip([v0 + veps, v0 - veps]) {
            enc.v_fs.value.as_mut_slice()[0] = v;
            let u = hw_trace(&mut enc, &x, base.clone(), &rng).u;
            *sum = u
                .iter()
                .zip(&trace.u)
                .filter(|(_, u0)| u0.abs() <= 1.0)
                .map(|(u, _)| u)
                .sum();
        }
        let numeric = (sums[0] - sums[1]) / (2.0 * veps);
        assert!(
            (analytic - numeric).abs() <= 1e-3 * numeric.abs(),
            "{modality:?} dL/dv_fs: backward {analytic} vs central difference {numeric}"
        );
    }

    #[test]
    fn hard_chain_partials_match_central_differences() {
        check_chain_partials(Modality::Hard, FaultPlan::none());
    }

    #[test]
    fn noisy_chain_partials_match_central_differences_with_replayed_noise() {
        check_chain_partials(Modality::Noisy, FaultPlan::none());
        // A fault plan flips codes and pins pixels and ADC codes, all off
        // the smooth path from `cs` and `v_fs` to `u`.
        check_chain_partials(Modality::Noisy, FaultPlan::uniform(6, 0.1));
    }

    #[test]
    fn ste_clips_saturated_codes_and_masks_out_of_range_weights() {
        let mut enc = LecaEncoder::new(&cfg(2, 8.0), Modality::Hard, 43).unwrap();
        let x = input(1, 4, 44);
        // |w| > 1 on a red and a blue weight: both steps reading them are
        // masked. A green weight feeds two steps at half scale, so 1.5 is
        // still in range there and keeps its gradient.
        let mut w = enc.weight().clone();
        w.set4(0, 0, 0, 0, 1.5);
        w.set4(1, 2, 1, 1, -1.5);
        w.set4(0, 1, 0, 1, 1.5);
        enc.set_weight(w).unwrap();
        enc.zero_grad();
        let y = enc.forward(&x, Mode::Train).unwrap();
        enc.backward(&Tensor::ones(y.shape())).unwrap();
        let g = &enc.weight.grad;
        assert_eq!(g.at4(0, 0, 0, 0), 0.0, "|w| > 1 must be masked");
        assert_eq!(g.at4(1, 2, 1, 1), 0.0, "|w| > 1 must be masked");
        assert_ne!(g.at4(0, 1, 0, 1), 0.0, "green at 1.5 scales to 0.75");
        assert_ne!(g.at4(0, 0, 1, 0), 0.0, "in-range weights keep theirs");

        // One output at a time: its gradient is zero exactly when its code
        // saturated (|u| > 1). A tight boundary saturates some of them.
        enc.v_fs.value.as_mut_slice()[0] = 0.02;
        let (mut clipped, mut passed) = (0, 0);
        for o in 0..y.len() {
            enc.zero_grad();
            let y = enc.forward(&x, Mode::Train).unwrap();
            let u = match &enc.cache {
                Some(Cache::Hw(c)) => c.u[o],
                _ => unreachable!(),
            };
            let mut g = Tensor::zeros(y.shape());
            g.as_mut_slice()[o] = 1.0;
            enc.backward(&g).unwrap();
            let (gw, gv) = (enc.weight.grad.norm_sq(), enc.v_fs.grad.as_slice()[0]);
            if u.abs() > 1.0 {
                assert_eq!((gw, gv), (0.0, 0.0), "saturated output {o} (u = {u})");
                clipped += 1;
            } else {
                assert!(gw > 0.0 && gv != 0.0, "unsaturated output {o} (u = {u})");
                passed += 1;
            }
        }
        assert!(
            clipped > 0 && passed > 0,
            "{clipped} clipped, {passed} passed"
        );
    }

    /// Checks `weight.grad` against the chain's dL/dcs mapped to the
    /// weights by hand. Per (kernel, raw site), backward multiplies dL/dcs
    /// by dcs/dw = ctot · (1 − transfer loss, Noisy only) · Bayer factor ·
    /// sign(w), and drops the term when the STE mask |w · factor| > 1
    /// blocks it. Each factor is derived here from the circuit constants,
    /// the site's colour in the RGGB tile and the weight itself, not read
    /// from the programmed MAC array. Every weight code is nonzero, so
    /// the routing sign is the weight's sign. A weight's expected gradient
    /// sums up to 64 f32 terms, so it passes within 1e-5 of the sum of
    /// their magnitudes; a masked weight's gradient must be exactly zero.
    fn check_weight_map(modality: Modality) {
        let mut enc = LecaEncoder::new(&cfg(2, 8.0), modality, 45).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        let mut w = enc.weight().clone();
        for v in w.as_mut_slice() {
            let m: f32 = rng.gen_range(0.2..0.9);
            *v = if rng.gen_bool(0.5) { m } else { -m };
        }
        w.set4(0, 0, 0, 0, 1.5); // red: masked
        w.set4(1, 2, 1, 1, -1.5); // blue: masked
        w.set4(0, 1, 0, 1, -1.5); // green: -0.75 at half scale, kept
        enc.set_weight(w.clone()).unwrap();
        let x = input(2, 8, 47);
        let g_out = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);

        let noise = enc.rng.clone();
        let program = enc.mac_program();
        let trace = hw_trace(&mut enc, &x, program, &noise);
        enc.zero_grad();
        enc.rng = noise;
        enc.forward(&x, Mode::Train).unwrap();
        enc.backward(&g_out).unwrap();

        let ctot = enc.params.c_sample_tot_ff;
        let kept = match modality {
            Modality::Noisy => 1.0 - TRANSFER_LOSS,
            _ => 1.0,
        };
        let vfs = enc.v_fs();
        let (blocks, ow) = (trace.oh * trace.ow, trace.ow);
        let mut want = vec![0.0f64; w.len()];
        let mut mag = vec![0.0f64; w.len()];
        for ni in 0..2 {
            for kern in 0..2 {
                for b in 0..blocks {
                    if trace.u[(ni * 2 + kern) * blocks + b].abs() > 1.0 {
                        continue; // clipped STE
                    }
                    let go = g_out.at4(ni, kern, b / ow, b % ow);
                    let g_cs = enc.chain_grads(&trace, ni, kern, b, go / vfs);
                    for (j, &g) in g_cs.iter().enumerate() {
                        let (row, col) = (j / 4, j % 4);
                        let (c, factor) = match (row % 2, col % 2) {
                            (0, 0) => (0, 1.0), // R
                            (1, 1) => (2, 1.0), // B
                            _ => (1, 0.5),      // G, one of two sites
                        };
                        let (dy, dx) = (row / 2, col / 2);
                        let wv = w.at4(kern, c, dy, dx);
                        if (wv * factor).abs() > 1.0 {
                            continue; // STE mask
                        }
                        let term = f64::from(g) * f64::from(ctot * kept * factor * wv.signum());
                        let i = ((kern * 3 + c) * 2 + dy) * 2 + dx;
                        want[i] += term;
                        mag[i] += term.abs();
                    }
                }
            }
        }
        let got = enc.weight.grad.as_slice();
        for (i, ((&g, &e), &m)) in got.iter().zip(&want).zip(&mag).enumerate() {
            assert!(
                (f64::from(g) - e).abs() <= 1e-5 * m,
                "{modality:?} weight {i}: backward {g} vs dL/dcs mapped by hand {e}"
            );
        }
        assert_eq!(
            mag.iter().filter(|&&m| m == 0.0).count(),
            2,
            "two masked weights"
        );
    }

    #[test]
    fn weight_gradients_are_dl_dcs_through_the_capacitance_map() {
        check_weight_map(Modality::Hard);
        check_weight_map(Modality::Noisy);
    }

    #[test]
    fn brighter_input_lowers_hard_codes_with_positive_weights() {
        // The charge-domain inversion (2·V_CM − V_in) must appear in the
        // training model exactly as in the sensor.
        let c = cfg(1, 8.0);
        let mut enc = LecaEncoder::new(&c, Modality::Hard, 18).unwrap();
        enc.set_weight(Tensor::full(&[1, 3, 2, 2], 0.6)).unwrap();
        let dark = enc
            .forward(&Tensor::full(&[1, 3, 4, 4], 0.1), Mode::Eval)
            .unwrap();
        let bright = enc
            .forward(&Tensor::full(&[1, 3, 4, 4], 0.9), Mode::Eval)
            .unwrap();
        assert!(bright.mean() < dark.mean());
    }
}
