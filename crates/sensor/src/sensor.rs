//! Top-level LeCA sensor: program weights, capture frames.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::geometry::{SensorGeometry, COLUMNS_PER_PE, KERNELS_PER_PASS};
use crate::pixels::PixelArray;
use crate::timing::TimingModel;
use crate::{Result, SensorError};
use leca_circuit::adc::AdcResolution;
use leca_circuit::fault::FaultPlan;
use leca_circuit::pe::{AnalogPe, LaneBlock, LanePass, BLOCK_PIXELS, LANES};
use leca_circuit::CircuitParams;
use leca_tensor::NormalStream;
use rand::Rng;

/// The encoded output feature map: signed ADC codes laid out
/// `(n_ch, oh, ow)` row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Ofmap {
    n_ch: usize,
    oh: usize,
    ow: usize,
    codes: Vec<i32>,
}

impl Ofmap {
    /// Dimensions `(n_ch, oh, ow)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n_ch, self.oh, self.ow)
    }

    /// The raw code buffer.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Code of kernel `k` at ofmap position `(y, x)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn at(&self, k: usize, y: usize, x: usize) -> i32 {
        assert!(
            k < self.n_ch && y < self.oh && x < self.ow,
            "ofmap index out of bounds"
        );
        self.codes[(k * self.oh + y) * self.ow + x]
    }
}

/// Energy / latency accounting for one captured frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStats {
    /// Per-component energy.
    pub energy: EnergyBreakdown,
    /// Frame latency in nanoseconds.
    pub latency_ns: f64,
    /// Equivalent frame rate.
    pub fps: f64,
}

/// The LeCA sensor system (Fig. 3(b)).
#[derive(Debug, Clone)]
pub struct LecaSensor {
    geometry: SensorGeometry,
    qbit: f32,
    timing: TimingModel,
    energy: EnergyModel,
    pixels: PixelArray,
    /// One PE per column group when mismatch is enabled, else a single
    /// shared typical-corner PE.
    pes: Vec<AnalogPe>,
    /// Weights as programmed (pristine codes).
    weights: Option<Vec<Vec<i32>>>,
    /// Weights as stored in the (possibly faulty) SRAM: `weights` with the
    /// fault plan's bit flips applied. What `capture` actually uses.
    effective_weights: Option<Vec<Vec<i32>>>,
    /// `effective_weights` programmed into the PEs, one [`LanePass`] per
    /// readout pass and group of [`LANES`] PE columns (a single group
    /// when every column shares the typical PE), group by group; empty
    /// before weights are programmed.
    programs: Vec<LanePass>,
    /// Normals one noisy PE block readout (every pass) takes under
    /// `effective_weights`; 0 before weights are programmed.
    block_normals: usize,
    /// Permanent hardware defects; [`FaultPlan::none`] by default.
    faults: FaultPlan,
}

impl LecaSensor {
    /// Builds a sensor with typical-corner circuits.
    ///
    /// # Errors
    ///
    /// Returns geometry/ADC configuration errors.
    pub fn new(geometry: SensorGeometry, qbit: f32) -> Result<Self> {
        geometry.validate()?;
        let params = CircuitParams::paper_65nm();
        let resolution = AdcResolution::from_qbit(qbit)?;
        Ok(LecaSensor {
            geometry,
            qbit,
            timing: TimingModel::paper(),
            energy: EnergyModel::paper(),
            pixels: PixelArray::new(&geometry),
            pes: vec![AnalogPe::typical(&params, resolution)?],
            weights: None,
            effective_weights: None,
            programs: Vec::new(),
            block_normals: 0,
            faults: FaultPlan::none(),
        })
    }

    /// Builds a sensor whose column-parallel PEs carry independent
    /// Monte-Carlo mismatch (one sampled instance per PE column group).
    ///
    /// # Errors
    ///
    /// Returns geometry/ADC configuration errors.
    pub fn with_mismatch<R: Rng + ?Sized>(
        geometry: SensorGeometry,
        qbit: f32,
        rng: &mut R,
    ) -> Result<Self> {
        geometry.validate()?;
        let params = CircuitParams::paper_65nm();
        let resolution = AdcResolution::from_qbit(qbit)?;
        let pes = (0..geometry.num_pes())
            .map(|_| AnalogPe::sample(&params, resolution, rng))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(LecaSensor {
            geometry,
            qbit,
            timing: TimingModel::paper(),
            energy: EnergyModel::paper(),
            pixels: PixelArray::new(&geometry),
            pes,
            weights: None,
            effective_weights: None,
            programs: Vec::new(),
            block_normals: 0,
            faults: FaultPlan::none(),
        })
    }

    /// The sensor geometry.
    pub fn geometry(&self) -> &SensorGeometry {
        &self.geometry
    }

    /// The configured ofmap bit depth.
    pub fn qbit(&self) -> f32 {
        self.qbit
    }

    /// Mutable access to the pixel array (e.g. to change the noise model).
    pub fn pixels_mut(&mut self) -> &mut PixelArray {
        &mut self.pixels
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs a permanent-defect plan across the whole chain: stuck/hot
    /// photosites (via the pixel array), dead readout columns, SRAM weight
    /// bit flips (re-derived from the pristine programmed weights), and
    /// stuck/missing ADC codes. [`FaultPlan::none`] restores a pristine
    /// sensor.
    ///
    /// # Errors
    ///
    /// Propagates circuit errors from reprogramming the PEs (none for
    /// weights [`LecaSensor::program_weights`] accepted: flipped codes stay
    /// within the SCM precision).
    pub fn set_fault_plan(&mut self, faults: FaultPlan) -> Result<()> {
        self.pixels = self.pixels.clone().with_faults(faults.clone());
        self.faults = faults;
        if let Some(w) = &self.weights {
            self.effective_weights = Some(self.faulted_weights(w));
        }
        self.program_lanes()
    }

    /// Programs the effective weights into the PE lanes and counts the
    /// normals one noisy block readout takes under them. A no-op before
    /// weights are programmed.
    fn program_lanes(&mut self) -> Result<()> {
        let Some(weights) = &self.effective_weights else {
            return Ok(());
        };
        let programs = self
            .pes
            .chunks(LANES)
            .flat_map(|pes| {
                weights
                    .chunks(KERNELS_PER_PASS)
                    .map(move |pass| LanePass::new(pes, pass))
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let passes = weights.len().div_ceil(KERNELS_PER_PASS);
        self.block_normals = programs[..passes].iter().map(LanePass::normals).sum();
        self.programs = programs;
        Ok(())
    }

    /// Normals one noisy [`LecaSensor::capture`] takes: the exposure's
    /// (none with a noiseless pixel array), then every PE block's.
    fn frame_normals(&self) -> usize {
        let (oh, ow) = self.geometry.ofmap_dims();
        self.pixels.exposure_normals() + oh * ow * self.block_normals
    }

    /// Applies the plan's SRAM bit flips to pristine weight codes.
    fn faulted_weights(&self, weights: &[Vec<i32>]) -> Vec<Vec<i32>> {
        let max = CircuitParams::paper_65nm().max_weight_code();
        weights
            .iter()
            .enumerate()
            .map(|(k, kernel)| {
                kernel
                    .iter()
                    .enumerate()
                    .map(|(pos, &code)| self.faults.weight_code(k, pos, code, max))
                    .collect()
            })
            .collect()
    }

    /// Programs the encoder weights: `n_ch` kernels, each a flattened
    /// 4x4 raw-Bayer kernel of signed codes within the SCM precision.
    ///
    /// This models writing the global SRAM; the per-group local SRAM
    /// transfers happen during capture (step ① of Sec. 4.2).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::WeightShapeMismatch`] for wrong kernel
    /// counts, lengths or out-of-precision codes.
    pub fn program_weights(&mut self, weights: Vec<Vec<i32>>) -> Result<()> {
        if weights.len() != self.geometry.n_ch {
            return Err(SensorError::WeightShapeMismatch(format!(
                "{} kernels programmed, geometry expects N_ch = {}",
                weights.len(),
                self.geometry.n_ch
            )));
        }
        let max = CircuitParams::paper_65nm().max_weight_code();
        for (k, kernel) in weights.iter().enumerate() {
            if kernel.len() != BLOCK_PIXELS {
                return Err(SensorError::WeightShapeMismatch(format!(
                    "kernel {k} has {} codes, expected {BLOCK_PIXELS}",
                    kernel.len()
                )));
            }
            if let Some(&bad) = kernel.iter().find(|w| w.abs() > max) {
                return Err(SensorError::WeightShapeMismatch(format!(
                    "kernel {k} contains code {bad} beyond ±{max}"
                )));
            }
        }
        self.effective_weights = Some(self.faulted_weights(&weights));
        self.weights = Some(weights);
        self.program_lanes()
    }

    /// Overrides the ADC full-scale voltage on every PE (the trained
    /// quantization boundary).
    ///
    /// # Errors
    ///
    /// Returns circuit configuration errors.
    pub fn set_adc_vfs(&mut self, v_fs: f32) -> Result<()> {
        for pe in &mut self.pes {
            pe.set_adc_vfs(v_fs)?;
        }
        self.program_lanes()
    }

    /// Dequantizes an ofmap back to differential voltages using the PE
    /// ADC's reconstruction levels (what the off-chip decoder receives).
    pub fn dequantize(&self, ofmap: &Ofmap) -> Vec<f32> {
        let adc = self.pes[0].adc();
        ofmap.codes.iter().map(|&c| adc.dequantize(c)).collect()
    }

    /// Captures one frame in LeCA encoding mode.
    ///
    /// `scene` is the ideal raw-Bayer irradiance (row-major,
    /// `rows x cols`, `[0, 1]`). With `rng = Some(..)` the full stochastic
    /// chain runs (pixel shot/read noise, kTC, stage noise, comparator
    /// dither); with `None` the capture is deterministic.
    ///
    /// A noisy capture draws the frame's normals from `rng` in batches
    /// ([`NormalStream`]): exactly as many uniforms, in the same order, as
    /// one serial Box–Muller draw per noise source would, so `rng` ends
    /// where that chain would leave it.
    ///
    /// # Panics
    ///
    /// Panics if the chain took a different number of normals than the
    /// sensor counted for the frame (a bookkeeping bug, checked in
    /// release builds too).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::WeightShapeMismatch`] when no weights are
    /// programmed, [`SensorError::FrameShapeMismatch`] for wrong scene
    /// sizes, and propagates circuit errors.
    pub fn capture<R: Rng + ?Sized>(
        &self,
        scene: &[f32],
        rng: Option<&mut R>,
    ) -> Result<(Ofmap, FrameStats)> {
        let weights = self
            .effective_weights
            .as_ref()
            .ok_or_else(|| SensorError::WeightShapeMismatch("no weights programmed".into()))?;
        let has_faults = !self.faults.is_none();
        let adc_max = self.pes[0].adc().resolution().max_code();
        let frame_normals = self.frame_normals();
        let mut normals = rng.map(|rng| NormalStream::new(rng, frame_normals));
        let exposed = match normals.as_mut() {
            Some(normals) => self.pixels.expose(scene, normals)?,
            None => self.pixels.expose_ideal(scene)?,
        };
        let (rows, cols) = (self.geometry.rows, self.geometry.cols);
        let (oh, ow) = self.geometry.ofmap_dims();
        let n_ch = self.geometry.n_ch;
        let mut codes = vec![0i32; n_ch * oh * ow];

        // Each ofmap row runs in groups of LANES blocks, one PE column per
        // lane, through every pass; block (gy, gx)'s normals start at the
        // exposure's count plus (gy · ow + gx) · block_normals, pass by
        // pass, so one take per group hands each lane its own run.
        let passes = weights.len().div_ceil(KERNELS_PER_PASS);
        let mut block: LaneBlock = [[0.0; LANES]; BLOCK_PIXELS];
        for gy in 0..oh {
            for (group, gx0) in (0..ow).step_by(LANES).enumerate() {
                let lanes = LANES.min(ow - gx0);
                for (i, px) in block.iter_mut().enumerate() {
                    let y = gy * COLUMNS_PER_PE + i / COLUMNS_PER_PE;
                    debug_assert!(y < rows);
                    for (l, px) in px[..lanes].iter_mut().enumerate() {
                        let x = (gx0 + l) * COLUMNS_PER_PE + i % COLUMNS_PER_PE;
                        // A dead readout column never transfers charge to
                        // the PE: its samples read the reset (dark) level.
                        *px = if has_faults && self.faults.column_dead(x) {
                            0.0
                        } else {
                            exposed[y * cols + x]
                        };
                    }
                }
                let z = normals
                    .as_mut()
                    .map(|n| n.take_lanes(lanes, self.block_normals, LANES));
                let programs = if self.pes.len() == 1 {
                    &self.programs[..passes]
                } else {
                    &self.programs[group * passes..(group + 1) * passes]
                };
                // Repetitive readout: kernels in chunks of 4 per pass.
                let mut offset = 0;
                for (pass, program) in programs.iter().enumerate() {
                    let out = program.encode(&block, z.map(|z| &z[offset * LANES..]));
                    offset += program.normals();
                    for (i, row) in out[..program.kernels()].iter().enumerate() {
                        let k = pass * KERNELS_PER_PASS + i;
                        for (l, &code) in row[..lanes].iter().enumerate() {
                            let gx = gx0 + l;
                            codes[(k * oh + gy) * ow + gx] = if has_faults {
                                self.faults.apply_adc(gx, k, code, adc_max)
                            } else {
                                code
                            };
                        }
                    }
                }
            }
        }
        if let Some(normals) = &normals {
            assert_eq!(
                normals.remaining(),
                0,
                "capture: the chain left normals of the frame's {frame_normals} untaken"
            );
        }

        let stats = FrameStats {
            energy: self.energy.leca_frame(&self.geometry, self.qbit)?,
            latency_ns: self.timing.frame_latency_ns(&self.geometry),
            fps: self.timing.fps(&self.geometry),
        };
        Ok((
            Ofmap {
                n_ch,
                oh,
                ow,
                codes,
            },
            stats,
        ))
    }

    /// Captures one frame in conventional (normal sensing) mode: the PE is
    /// bypassed and every pixel is digitized at 8 bit.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::FrameShapeMismatch`] for wrong scene sizes
    /// and propagates circuit errors.
    pub fn capture_normal<R: Rng + ?Sized>(
        &self,
        scene: &[f32],
        rng: Option<&mut R>,
    ) -> Result<(Vec<u8>, FrameStats)> {
        let exposed = match rng {
            Some(rng) => {
                let mut normals = NormalStream::new(rng, self.pixels.exposure_normals());
                self.pixels.expose(scene, &mut normals)?
            }
            None => self.pixels.expose_ideal(scene)?,
        };
        let pe = &self.pes[0];
        let mut out = Vec::with_capacity(exposed.len());
        for &x in &exposed {
            out.push(pe.digitize_pixel(x)?);
        }
        let stats = FrameStats {
            energy: self
                .energy
                .cnv_frame(self.geometry.rows, self.geometry.cols)?,
            // One pass, no PE processing: readout-only rows.
            latency_ns: self.geometry.rows as f64 * self.timing.t_row_readout_ns,
            fps: 1e9 / (self.geometry.rows as f64 * self.timing.t_row_readout_ns),
        };
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_geom(n_ch: usize) -> SensorGeometry {
        SensorGeometry {
            rows: 8,
            cols: 8,
            n_ch,
        }
    }

    fn ramp_scene() -> Vec<f32> {
        (0..64).map(|i| i as f32 / 63.0).collect()
    }

    fn uniform_weights(n_ch: usize, w: i32) -> Vec<Vec<i32>> {
        vec![vec![w; 16]; n_ch]
    }

    #[test]
    fn capture_produces_ofmap_dims() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        s.program_weights(uniform_weights(4, 6)).unwrap();
        let (ofmap, stats) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(ofmap.dims(), (4, 2, 2));
        assert_eq!(ofmap.codes().len(), 16);
        assert!(stats.energy.total_uj() > 0.0);
        assert!(stats.fps > 0.0);
    }

    #[test]
    fn capture_requires_weights() {
        let s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        assert!(matches!(
            s.capture::<StdRng>(&ramp_scene(), None),
            Err(SensorError::WeightShapeMismatch(_))
        ));
    }

    #[test]
    fn weight_validation() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        assert!(
            s.program_weights(uniform_weights(3, 1)).is_err(),
            "wrong kernel count"
        );
        assert!(s
            .program_weights(vec![vec![1; 15], vec![1; 16], vec![1; 16], vec![1; 16]])
            .is_err());
        assert!(
            s.program_weights(uniform_weights(4, 16)).is_err(),
            "code beyond ±15"
        );
        assert!(s.program_weights(uniform_weights(4, -15)).is_ok());
    }

    #[test]
    fn scene_shape_checked() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        s.program_weights(uniform_weights(4, 5)).unwrap();
        assert!(s.capture::<StdRng>(&vec![0.5; 63], None).is_err());
    }

    #[test]
    fn deterministic_capture_is_repeatable() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        s.program_weights(uniform_weights(4, 7)).unwrap();
        let (a, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        let (b, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_capture_uses_rng() {
        let mut s = LecaSensor::new(small_geom(4), 8.0).unwrap();
        s.program_weights(uniform_weights(4, 7)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (a, _) = s.capture(&ramp_scene(), Some(&mut rng)).unwrap();
        let (b, _) = s.capture(&ramp_scene(), Some(&mut rng)).unwrap();
        // At 8-bit resolution the stochastic chain shows through.
        assert_ne!(a, b);
    }

    #[test]
    fn repetitive_readout_for_8_kernels() {
        let mut s = LecaSensor::new(small_geom(8), 3.0).unwrap();
        s.program_weights(uniform_weights(8, 4)).unwrap();
        let (ofmap, stats) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(ofmap.dims(), (8, 2, 2));
        // Kernels 0 and 4 carry identical weights → identical codes.
        assert_eq!(ofmap.at(0, 1, 1), ofmap.at(4, 1, 1));
        // Two passes double the frame latency.
        let s1 = LecaSensor::new(small_geom(4), 3.0).unwrap();
        assert!((stats.latency_ns / s1.timing.frame_latency_ns(&small_geom(4)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn brighter_blocks_give_lower_codes() {
        // The charge-domain inversion observed at the PE level must survive
        // the full-sensor path.
        let mut s = LecaSensor::new(small_geom(1), 4.0).unwrap();
        s.program_weights(uniform_weights(1, 10)).unwrap();
        let mut scene = vec![0.1f32; 64];
        // Make the bottom-right 4x4 block bright.
        for y in 4..8 {
            for x in 4..8 {
                scene[y * 8 + x] = 0.95;
            }
        }
        let (ofmap, _) = s.capture::<StdRng>(&scene, None).unwrap();
        assert!(ofmap.at(0, 1, 1) < ofmap.at(0, 0, 0));
    }

    #[test]
    fn dequantize_matches_adc() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        s.program_weights(uniform_weights(4, 6)).unwrap();
        let (ofmap, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        let v = s.dequantize(&ofmap);
        assert_eq!(v.len(), ofmap.codes().len());
        // Zero code must dequantize to exactly zero volts differential.
        if let Some(i) = ofmap.codes().iter().position(|&c| c == 0) {
            assert_eq!(v[i], 0.0);
        }
    }

    #[test]
    fn normal_mode_digitizes_frame() {
        let s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        let (img, stats) = s.capture_normal::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(img.len(), 64);
        assert!(img[63] > img[0]);
        // CNV energy exceeds LeCA energy for the same array.
        let mut leca = LecaSensor::new(small_geom(4), 3.0).unwrap();
        leca.program_weights(uniform_weights(4, 5)).unwrap();
        let (_, leca_stats) = leca.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert!(stats.energy.total_uj() > leca_stats.energy.total_uj());
    }

    #[test]
    fn mismatched_sensor_builds_per_pe_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = LecaSensor::with_mismatch(small_geom(4), 3.0, &mut rng).unwrap();
        assert_eq!(s.pes.len(), 2); // 8 columns / 4
    }

    #[test]
    fn none_fault_plan_is_bit_identical() {
        let mut clean = LecaSensor::new(small_geom(4), 3.0).unwrap();
        clean.program_weights(uniform_weights(4, 6)).unwrap();
        let mut planned = clean.clone();
        planned.set_fault_plan(FaultPlan::none()).unwrap();
        let (a, _) = clean.capture::<StdRng>(&ramp_scene(), None).unwrap();
        let (b, _) = planned.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_plan_is_deterministic_and_order_independent() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        s.program_weights(uniform_weights(4, 6)).unwrap();
        s.set_fault_plan(FaultPlan::uniform(13, 0.3)).unwrap();
        let (a, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        // Installing the plan before vs after programming must not matter.
        let mut t = LecaSensor::new(small_geom(4), 3.0).unwrap();
        t.set_fault_plan(FaultPlan::uniform(13, 0.3)).unwrap();
        t.program_weights(uniform_weights(4, 6)).unwrap();
        let (b, _) = t.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_faults_change_the_ofmap() {
        let mut s = LecaSensor::new(small_geom(4), 3.0).unwrap();
        s.program_weights(uniform_weights(4, 6)).unwrap();
        let (clean, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        s.set_fault_plan(FaultPlan::uniform(1, 0.5)).unwrap();
        let (faulty, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_ne!(clean, faulty);
        // Clearing the plan restores the pristine capture exactly.
        s.set_fault_plan(FaultPlan::none()).unwrap();
        let (restored, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        assert_eq!(clean, restored);
    }

    #[test]
    fn faulted_codes_stay_within_adc_range() {
        let mut s = LecaSensor::new(small_geom(8), 3.0).unwrap();
        s.program_weights(uniform_weights(8, 15)).unwrap();
        s.set_fault_plan(FaultPlan::uniform(99, 1.0)).unwrap();
        let (ofmap, _) = s.capture::<StdRng>(&ramp_scene(), None).unwrap();
        let max = AdcResolution::from_qbit(3.0).unwrap().max_code();
        assert!(ofmap.codes().iter().all(|c| c.abs() <= max));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ofmap_index_panics_out_of_bounds() {
        let of = Ofmap {
            n_ch: 1,
            oh: 1,
            ow: 1,
            codes: vec![0],
        };
        of.at(0, 0, 1);
    }
}
