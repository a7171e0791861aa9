//! Deployment: mapping a trained encoder onto the sensor simulator.
//!
//! Closes the hardware/algorithm loop: the trained RGB kernels are
//! flattened onto the 4x4 raw-Bayer grid (Fig. 5(a)), quantized to the
//! SCM's ±4-bit codes, written into the sensor's weight SRAM, and the
//! trained ADC boundary programs the PE array's full scale. A captured
//! ofmap can then be normalized and fed to the software decoder + frozen
//! backbone — the hardware-in-the-loop counterpart of the training-time
//! `Eval(noisy)` bars in Fig. 11.

use crate::encoder::LecaEncoder;
use crate::pipeline::LecaPipeline;
use crate::session::InferenceSession;
use crate::{LecaError, Result as LecaResult};
use leca_circuit::adc::AdcResolution;
use leca_data::bayer::{bayer_site, mosaic};
use leca_data::Dataset;
use leca_nn::quant::signed_magnitude_code;
use leca_sensor::{LecaSensor, SensorGeometry};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exports the trained encoder weights as sensor kernel codes: one
/// flattened 4x4 raw-Bayer kernel of signed ±4-bit codes per channel, in
/// the sensor's row-major block order.
///
/// # Errors
///
/// Returns [`LecaError::InvalidConfig`] for non-K=2 encoders.
pub fn export_weight_codes(enc: &LecaEncoder) -> LecaResult<Vec<Vec<i32>>> {
    if enc.k() != 2 {
        return Err(LecaError::InvalidConfig(
            "sensor deployment requires K = 2 kernels".into(),
        ));
    }
    let w = enc.weight();
    let kernels = (0..enc.n_ch())
        .map(|kern| {
            (0..16)
                .map(|i| {
                    let (row, col) = (i / 4, i % 4);
                    let (c, factor) = bayer_site(row, col);
                    signed_magnitude_code(w.at4(kern, c, row / 2, col / 2) * factor, 4, 1.0)
                })
                .collect()
        })
        .collect();
    Ok(kernels)
}

/// Builds a LeCA sensor sized for `(h, w)` RGB frames, programmed with the
/// trained encoder's weight codes and ADC boundary.
///
/// The encoder's [`FaultPlan`](leca_circuit::fault::FaultPlan) is carried
/// over to the sensor, so a pipeline fine-tuned in `Modality::Noisy` with
/// that plan installed deploys onto hardware exhibiting the very defects
/// it trained against.
///
/// # Errors
///
/// Propagates geometry/weight validation errors.
pub fn program_sensor(enc: &LecaEncoder, h: usize, w: usize) -> LecaResult<LecaSensor> {
    let geometry = SensorGeometry {
        rows: 2 * h,
        cols: 2 * w,
        n_ch: enc.n_ch(),
    };
    let mut sensor = LecaSensor::new(geometry, enc.qbit())?;
    sensor.program_weights(export_weight_codes(enc)?)?;
    sensor.set_adc_vfs(enc.v_fs())?;
    if !enc.fault_plan().is_none() {
        sensor.set_fault_plan(enc.fault_plan().clone())?;
    }
    Ok(sensor)
}

/// Captures one RGB image through the programmed sensor and returns the
/// normalized ofmap tensor `(N_ch, H/2, W/2)` with values in `[-1, 1]` —
/// the same scale the software encoder emits, ready for the decoder.
///
/// With `noisy = true` the full stochastic sensor chain runs.
///
/// # Errors
///
/// Propagates mosaic and capture errors.
pub fn sensor_encode(
    sensor: &LecaSensor,
    rgb: &Tensor,
    noisy: bool,
    seed: u64,
) -> LecaResult<Tensor> {
    let raw = mosaic(rgb)?;
    let scene = raw.as_slice();
    let (ofmap, _) = if noisy {
        let mut rng = StdRng::seed_from_u64(seed);
        sensor.capture(scene, Some(&mut rng))?
    } else {
        sensor.capture::<StdRng>(scene, None)?
    };
    let (n_ch, oh, ow) = ofmap.dims();
    let resolution = AdcResolution::from_qbit(sensor.qbit())?;
    let norm: Vec<f32> = ofmap
        .codes()
        .iter()
        .map(|&c| match resolution {
            AdcResolution::Ternary => c.clamp(-1, 1) as f32 * 2.0 / 3.0,
            AdcResolution::Sar(_) => c as f32 / resolution.max_code() as f32,
        })
        .collect();
    Ok(Tensor::from_vec(norm, &[n_ch, oh, ow])?)
}

/// Hardware-in-the-loop accuracy: every validation image goes through the
/// *sensor simulator* (not the training-time encoder model), then the
/// pipeline's decoder and frozen backbone.
///
/// # Errors
///
/// Propagates capture and layer errors.
pub fn hardware_accuracy(
    pipeline: &mut LecaPipeline,
    ds: &Dataset,
    noisy: bool,
    seed: u64,
) -> LecaResult<f32> {
    let shape = ds
        .image_shape()
        .ok_or_else(|| LecaError::InvalidConfig("empty dataset".into()))?;
    let (h, w) = (shape[1], shape[2]);
    let sensor = program_sensor(pipeline.encoder(), h, w)?;

    // Decoder + backbone run through a workspace session: after the first
    // 32-ofmap batch, every further full batch reuses its buffers.
    let mut session = InferenceSession::for_pipeline(pipeline);
    let mut preds: Vec<usize> = Vec::new();
    let mut correct = 0.0f32;
    let mut count = 0usize;
    let mut ofmaps: Vec<Tensor> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for (i, (img, &label)) in ds.images().iter().zip(ds.labels()).enumerate() {
        let ofmap = sensor_encode(&sensor, img, noisy, seed.wrapping_add(i as u64))?;
        let mut s = vec![1];
        s.extend_from_slice(ofmap.shape());
        ofmaps.push(ofmap.reshape(&s)?);
        labels.push(label);
        if ofmaps.len() >= 32 || i + 1 == ds.len() {
            let views: Vec<&Tensor> = ofmaps.iter().collect();
            let x = Tensor::concat0(&views)?;
            session.classify_ofmaps(&x, &mut preds)?;
            correct += preds
                .iter()
                .zip(labels.iter())
                .filter(|(p, l)| p == l)
                .count() as f32;
            count += labels.len();
            ofmaps.clear();
            labels.clear();
        }
    }
    Ok(if count == 0 {
        0.0
    } else {
        correct / count as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LecaConfig;
    use crate::encoder::Modality;
    use leca_nn::backbone::tiny_cnn;
    use leca_nn::{Layer, Mode};

    fn encoder() -> LecaEncoder {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        LecaEncoder::new(&cfg, Modality::Hard, 3).unwrap()
    }

    #[test]
    fn exported_codes_respect_precision_and_green_halving() {
        let mut enc = encoder();
        enc.set_weight(Tensor::full(&[4, 3, 2, 2], 1.0)).unwrap();
        let codes = export_weight_codes(&enc).unwrap();
        assert_eq!(codes.len(), 4);
        for kernel in &codes {
            assert_eq!(kernel.len(), 16);
            // R and B sites carry the full code 15; green sites the halved
            // code round(0.5 * 15) = 8.
            assert_eq!(kernel[0], 15); // R at (0,0)
            assert_eq!(kernel[1], 8); // G at (0,1)
            assert_eq!(kernel[4], 8); // G at (1,0)
            assert_eq!(kernel[5], 15); // B at (1,1)
        }
    }

    #[test]
    fn exported_codes_are_the_flattened_kernel_codes() {
        // Random, asymmetric weights: a swapped dy/dx or a misplaced green
        // site changes some code.
        let mut enc = encoder();
        let mut rng = StdRng::seed_from_u64(31);
        enc.set_weight(Tensor::rand_uniform(&[4, 3, 2, 2], -1.0, 1.0, &mut rng))
            .unwrap();
        let flat = leca_data::bayer::flatten_kernel(enc.weight()).unwrap();
        let codes = export_weight_codes(&enc).unwrap();
        for (kern, kernel) in codes.iter().enumerate() {
            for (i, &code) in kernel.iter().enumerate() {
                let expect = signed_magnitude_code(flat.at(&[kern, i / 4, i % 4]), 4, 1.0);
                assert_eq!(code, expect, "kernel {kern} site {i}");
            }
        }
    }

    #[test]
    fn program_sensor_roundtrip() {
        let enc = encoder();
        let sensor = program_sensor(&enc, 8, 8).unwrap();
        assert_eq!(sensor.geometry().rows, 16);
        assert_eq!(sensor.geometry().n_ch, 4);
        assert_eq!(sensor.qbit(), 3.0);
    }

    #[test]
    fn sensor_encode_matches_training_encoder_closely() {
        // The deployed sensor and the hard-modality training model share
        // the same math (Eq. (3), linear buffers vs device nonlinearity).
        // On eight random 32x32 images per bit depth, every code agrees to
        // within one step, and the exact share stays at or above a floor
        // just under the measured one (8164, 8083 and 7945 of 8192 codes).
        for (qbit, floor) in [(2.0, 0.996), (3.0, 0.986), (4.0, 0.969)] {
            let cfg = LecaConfig::new(2, 4, qbit).unwrap();
            let mut enc = LecaEncoder::new(&cfg, Modality::Hard, 3).unwrap();
            let sensor = program_sensor(&enc, 32, 32).unwrap();
            let max = AdcResolution::from_qbit(qbit).unwrap().max_code() as f32;
            let mut rng = StdRng::seed_from_u64(9);
            let (mut exact, mut total, mut worst) = (0usize, 0usize, 0i32);
            for _ in 0..8 {
                let img = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
                let hw = sensor_encode(&sensor, &img, false, 0).unwrap();
                let x = img.reshape(&[1, 3, 32, 32]).unwrap();
                let sw = enc.forward(&x, Mode::Eval).unwrap();
                assert_eq!(hw.len(), sw.len());
                for (a, b) in hw.as_slice().iter().zip(sw.as_slice()) {
                    let d = ((a - b) * max).round() as i32;
                    worst = worst.max(d.abs());
                    exact += usize::from(d == 0);
                    total += 1;
                }
            }
            let frac = exact as f32 / total as f32;
            assert!(
                worst <= 1,
                "qbit {qbit}: a code {worst} steps from the model"
            );
            assert!(frac >= floor, "qbit {qbit}: only {frac} of codes exact");
        }
    }

    #[test]
    fn noisy_capture_differs_from_clean() {
        let enc = encoder();
        let mut rng = StdRng::seed_from_u64(10);
        let img = Tensor::rand_uniform(&[3, 8, 8], 0.1, 0.9, &mut rng);
        let sensor = program_sensor(&enc, 8, 8).unwrap();
        let clean = sensor_encode(&sensor, &img, false, 0).unwrap();
        let mean_abs_diff: f32 = (0..5)
            .map(|s| {
                let noisy = sensor_encode(&sensor, &img, true, s).unwrap();
                clean.sub(&noisy).unwrap().map(f32::abs).mean()
            })
            .sum::<f32>()
            / 5.0;
        assert!(mean_abs_diff < 0.5, "noise should perturb, not destroy");
    }

    #[test]
    fn hardware_accuracy_runs_end_to_end() {
        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let bb = tiny_cnn(3, &mut rng);
        let mut p = LecaPipeline::new(&cfg, Modality::Hard, bb, 12).unwrap();
        let images: Vec<Tensor> = (0..6)
            .map(|i| Tensor::full(&[3, 8, 8], 0.2 + 0.1 * i as f32))
            .collect();
        let ds = Dataset::new(images, vec![0, 1, 2, 0, 1, 2], 3).unwrap();
        let acc = hardware_accuracy(&mut p, &ds, false, 0).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn program_sensor_carries_the_encoder_fault_plan() {
        use leca_circuit::fault::FaultPlan;
        let mut enc = encoder();
        let plan = FaultPlan::uniform(21, 0.2);
        enc.set_fault_plan(plan.clone());
        let sensor = program_sensor(&enc, 8, 8).unwrap();
        assert_eq!(sensor.fault_plan(), &plan);
        // The deployed faults actually bite: the faulted sensor's clean
        // capture differs from a pristine sensor's.
        let mut rng = StdRng::seed_from_u64(22);
        let img = Tensor::rand_uniform(&[3, 8, 8], 0.1, 0.9, &mut rng);
        let mut pristine = enc;
        pristine.set_fault_plan(FaultPlan::none());
        let clean = program_sensor(&pristine, 8, 8).unwrap();
        let a = sensor_encode(&sensor, &img, false, 0).unwrap();
        let b = sensor_encode(&clean, &img, false, 0).unwrap();
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn k3_export_rejected() {
        let cfg = LecaConfig::new(3, 4, 3.0).unwrap();
        let enc = LecaEncoder::new(&cfg, Modality::Soft, 0).unwrap();
        assert!(export_weight_codes(&enc).is_err());
    }
}
