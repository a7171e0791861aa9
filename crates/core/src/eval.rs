//! The shared evaluation protocol (Sec. 5.1 / Fig. 9).
//!
//! Every compression method — LeCA pipelines and baseline codecs alike —
//! is scored by feeding its reconstruction to the *same frozen backbone*
//! and measuring end-to-end task accuracy. For baselines we also report
//! the traditional task-agnostic metrics (PSNR/SSIM) so the experiments
//! can contrast the two views (Table 1).

use crate::session::InferenceSession;
use crate::Result as LecaResult;
use leca_baselines::Codec;
use leca_circuit::fault::FaultPlan;
use leca_data::metrics::{psnr, ssim};
use leca_data::Dataset;
use leca_nn::backbone::Backbone;
use leca_tensor::Tensor;

/// Evaluation result for one codec on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecReport {
    /// Codec display name.
    pub name: &'static str,
    /// End-to-end classification accuracy through the frozen backbone.
    pub accuracy: f32,
    /// Mean achieved compression ratio across the dataset.
    pub mean_cr: f32,
    /// Mean reconstruction PSNR (dB; the task-agnostic view).
    pub mean_psnr: f32,
    /// Mean reconstruction SSIM.
    pub mean_ssim: f32,
}

/// Transcodes every image through `codec` and scores the reconstructions
/// with the frozen `backbone`.
///
/// # Errors
///
/// Propagates codec and layer errors.
pub fn evaluate_codec(
    codec: &dyn Codec,
    backbone: &mut Backbone,
    ds: &Dataset,
) -> LecaResult<CodecReport> {
    let mut correct = 0.0f32;
    let mut count = 0usize;
    let mut cr_sum = 0.0f64;
    let mut psnr_sum = 0.0f64;
    let mut ssim_sum = 0.0f64;
    let mut psnr_count = 0usize;

    // Scoring runs through an `InferenceSession`: after the first 64-image
    // batch populates the workspace, every further full batch reuses its
    // activation buffers.
    let mut session = InferenceSession::for_backbone(backbone);
    let mut preds: Vec<usize> = Vec::new();
    let mut batch: Vec<Tensor> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let flush = |batch: &mut Vec<Tensor>,
                 labels: &mut Vec<usize>,
                 session: &mut InferenceSession,
                 preds: &mut Vec<usize>,
                 correct: &mut f32,
                 count: &mut usize|
     -> LecaResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let refs: Vec<Tensor> = batch
            .iter()
            .map(|t| {
                let mut shape = vec![1];
                shape.extend_from_slice(t.shape());
                t.reshape(&shape)
            })
            .collect::<Result<_, _>>()?;
        let views: Vec<&Tensor> = refs.iter().collect();
        let x = Tensor::concat0(&views)?;
        session.classify_batch(&x, preds)?;
        *correct += preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count() as f32;
        *count += labels.len();
        batch.clear();
        labels.clear();
        Ok(())
    };

    for (img, &label) in ds.images().iter().zip(ds.labels()) {
        let out = codec.transcode(img)?;
        cr_sum += out.compression_ratio as f64;
        let p = psnr(img, &out.reconstruction, 1.0)?;
        if p.is_finite() {
            psnr_sum += p as f64;
            psnr_count += 1;
        }
        ssim_sum += ssim(img, &out.reconstruction)? as f64;
        batch.push(out.reconstruction);
        labels.push(label);
        if batch.len() >= 64 {
            flush(
                &mut batch,
                &mut labels,
                &mut session,
                &mut preds,
                &mut correct,
                &mut count,
            )?;
        }
    }
    flush(
        &mut batch,
        &mut labels,
        &mut session,
        &mut preds,
        &mut correct,
        &mut count,
    )?;

    let n = ds.len().max(1) as f64;
    Ok(CodecReport {
        name: codec.name(),
        accuracy: if count == 0 {
            0.0
        } else {
            correct / count as f32
        },
        mean_cr: (cr_sum / n) as f32,
        mean_psnr: if psnr_count == 0 {
            f32::INFINITY
        } else {
            (psnr_sum / psnr_count as f64) as f32
        },
        mean_ssim: (ssim_sum / n) as f32,
    })
}

/// Applies a conventional-sensor defect model to one image: stuck/hot
/// photosites keyed on the linear element index, dead readout columns
/// keyed on the image column.
///
/// This is how the same [`FaultPlan`] manifests on the *baseline* path,
/// where a conventional sensor captures the full image before a codec
/// compresses it — the counterpart of the in-sensor defects the LeCA path
/// injects during capture.
pub fn inject_image_faults(img: &Tensor, plan: &FaultPlan) -> Tensor {
    if plan.is_none() {
        return img.clone();
    }
    let cols = img.shape().last().copied().unwrap_or(1);
    let mut out = img.clone();
    for (idx, v) in out.as_mut_slice().iter_mut().enumerate() {
        *v = if plan.column_dead(idx % cols) {
            0.0
        } else {
            plan.apply_pixel(idx, *v)
        };
    }
    out
}

/// [`evaluate_codec`] on a dataset whose images carry the defects of
/// `plan` (see [`inject_image_faults`]): the codec compresses what a
/// faulty conventional sensor captured.
///
/// # Errors
///
/// Propagates codec and layer errors.
pub fn evaluate_codec_under_faults(
    codec: &dyn Codec,
    backbone: &mut Backbone,
    ds: &Dataset,
    plan: &FaultPlan,
) -> LecaResult<CodecReport> {
    let images: Vec<Tensor> = ds
        .images()
        .iter()
        .map(|img| inject_image_faults(img, plan))
        .collect();
    let faulted = Dataset::new(images, ds.labels().to_vec(), ds.num_classes())?;
    evaluate_codec(codec, backbone, &faulted)
}

/// One point of an accuracy-vs-fault-rate degradation curve.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Per-site defect rate applied uniformly to all fault classes.
    pub rate: f64,
    /// LeCA hardware-in-the-loop accuracy on the faulted sensor.
    pub leca_accuracy: f32,
    /// Baseline codec reports on images from a faulted conventional
    /// sensor, in the order the codecs were passed.
    pub codecs: Vec<CodecReport>,
}

/// Sweeps fault rates and scores LeCA against baseline codecs at each
/// point — the robustness counterpart of the Fig. 11 modality comparison.
///
/// For every rate, one deterministic [`FaultPlan::uniform`]`(seed, rate)`
/// is deployed on the LeCA sensor (via the pipeline's encoder) *and*
/// applied to the baseline images, so both paths face the same defect
/// draw. The pipeline's original fault plan is restored afterwards.
///
/// # Errors
///
/// Propagates capture, codec and layer errors.
pub fn fault_sweep(
    pipeline: &mut crate::pipeline::LecaPipeline,
    codecs: &[&dyn Codec],
    codec_backbone: &mut Backbone,
    ds: &Dataset,
    rates: &[f64],
    seed: u64,
) -> LecaResult<Vec<FaultSweepPoint>> {
    let original = pipeline.encoder().fault_plan().clone();
    let mut points = Vec::with_capacity(rates.len());
    let mut run = || -> LecaResult<()> {
        for &rate in rates {
            let plan = FaultPlan::uniform(seed, rate);
            pipeline.encoder_mut().set_fault_plan(plan.clone());
            let leca_accuracy = crate::deploy::hardware_accuracy(pipeline, ds, true, seed)?;
            let mut reports = Vec::with_capacity(codecs.len());
            for codec in codecs {
                reports.push(evaluate_codec_under_faults(
                    *codec,
                    codec_backbone,
                    ds,
                    &plan,
                )?);
            }
            points.push(FaultSweepPoint {
                rate,
                leca_accuracy,
                codecs: reports,
            });
        }
        Ok(())
    };
    let result = run();
    pipeline.encoder_mut().set_fault_plan(original);
    result.map(|()| points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_backbone, TrainConfig};
    use leca_baselines::cnv::Cnv;
    use leca_baselines::lr::Lr;
    use leca_data::{SynthConfig, SynthVision};
    use leca_nn::backbone::tiny_cnn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_backbone(data: &SynthVision) -> Backbone {
        let mut bb = tiny_cnn(data.train().num_classes(), &mut StdRng::seed_from_u64(0));
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 5;
        train_backbone(&mut bb, data.train(), data.val(), &cfg).unwrap();
        bb
    }

    #[test]
    fn cnv_codec_matches_raw_accuracy() {
        let data = SynthVision::generate(&SynthConfig::tiny_test(), 11);
        let mut bb = trained_backbone(&data);
        let raw = crate::trainer::accuracy(&mut bb, data.val()).unwrap();
        let report = evaluate_codec(&Cnv::new(), &mut bb, data.val()).unwrap();
        // 8-bit quantization of [0,1] images is visually lossless.
        assert!(
            (report.accuracy - raw).abs() < 0.051,
            "{} vs {raw}",
            report.accuracy
        );
        assert_eq!(report.mean_cr, 1.0);
        assert!(report.mean_psnr > 40.0);
        assert!(report.mean_ssim > 0.95);
    }

    #[test]
    fn harsher_quantization_scores_worse_psnr() {
        let data = SynthVision::generate(&SynthConfig::tiny_test(), 12);
        let mut bb = trained_backbone(&data);
        let r3 = evaluate_codec(&Lr::new(3.0).unwrap(), &mut bb, data.val()).unwrap();
        let r1 = evaluate_codec(&Lr::new(1.0).unwrap(), &mut bb, data.val()).unwrap();
        assert!(r3.mean_psnr > r1.mean_psnr);
        assert!(r1.mean_cr > r3.mean_cr);
    }

    #[test]
    fn image_fault_injection_models_defects() {
        let mut rng = StdRng::seed_from_u64(30);
        let img = Tensor::rand_uniform(&[3, 6, 6], 0.2, 0.8, &mut rng);
        // An empty plan is the identity.
        let same = inject_image_faults(&img, &FaultPlan::none());
        assert_eq!(same.as_slice(), img.as_slice());
        // Rate-1 dead columns blank the whole image.
        let dead = FaultPlan::new(31).with_dead_columns(1.0);
        assert!(inject_image_faults(&img, &dead)
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
        // Stuck pixels perturb deterministically.
        let stuck = FaultPlan::new(32).with_stuck_pixels(0.3);
        let a = inject_image_faults(&img, &stuck);
        assert_ne!(a.as_slice(), img.as_slice());
        assert_eq!(a.as_slice(), inject_image_faults(&img, &stuck).as_slice());
    }

    #[test]
    fn fault_sweep_scores_both_paths_and_restores_the_plan() {
        use crate::config::LecaConfig;
        use crate::encoder::Modality;
        use crate::pipeline::LecaPipeline;

        let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let bb = tiny_cnn(3, &mut rng);
        let mut pipeline = LecaPipeline::new(&cfg, Modality::Hard, bb, 34).unwrap();
        let mut codec_bb = tiny_cnn(3, &mut StdRng::seed_from_u64(35));
        let images: Vec<Tensor> = (0..6)
            .map(|i| Tensor::full(&[3, 8, 8], 0.2 + 0.1 * i as f32))
            .collect();
        let ds = Dataset::new(images, vec![0, 1, 2, 0, 1, 2], 3).unwrap();

        let codecs: [&dyn Codec; 1] = [&Cnv::new()];
        let points =
            fault_sweep(&mut pipeline, &codecs, &mut codec_bb, &ds, &[0.0, 0.3], 36).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.leca_accuracy), "rate {}", p.rate);
            assert_eq!(p.codecs.len(), 1);
            assert!((0.0..=1.0).contains(&p.codecs[0].accuracy));
        }
        // The sweep must not leave its last fault plan behind.
        assert!(pipeline.encoder().fault_plan().is_none());
    }
}
