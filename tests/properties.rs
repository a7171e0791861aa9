//! Workspace-level property-based tests.

use leca::circuit::adc::{AdcModel, AdcResolution};
use leca::circuit::scm::ScmModel;
use leca::circuit::CircuitParams;
use leca::core::config::LecaConfig;
use leca::data::bayer;
use leca::tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eq1_compression_ratio_formula(
        n_ch in 1usize..12,
        qsel in 0usize..5,
    ) {
        let qbit = [1.5f32, 2.0, 3.0, 4.0, 8.0][qsel];
        let cfg = LecaConfig::new(2, n_ch, qbit).expect("valid");
        let expected = (2.0 * 2.0 * 3.0 * 8.0) / (n_ch as f32 * qbit);
        prop_assert!((cfg.compression_ratio() - expected).abs() < 1e-4);
        // More channels or more bits always means less compression.
        if n_ch > 1 {
            let smaller = LecaConfig::new(2, n_ch - 1, qbit).expect("valid");
            prop_assert!(smaller.compression_ratio() > cfg.compression_ratio());
        }
    }

    #[test]
    fn flattened_kernel_preserves_inner_products(
        kdata in proptest::collection::vec(-1.0f32..1.0, 12),
        idata in proptest::collection::vec(0.0f32..1.0, 12),
    ) {
        // <k, x>_RGB == <flatten(k), mosaic(x)>_Bayer for any kernel/patch.
        let kernel = Tensor::from_vec(kdata, &[1, 3, 2, 2]).expect("kernel");
        let patch = Tensor::from_vec(idata, &[3, 2, 2]).expect("patch");
        let rgb_dot: f32 = kernel
            .as_slice()
            .iter()
            .zip(patch.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let raw = bayer::mosaic(&patch).expect("mosaic");
        let flat = bayer::flatten_kernel(&kernel).expect("flatten");
        let bayer_dot: f32 = flat
            .as_slice()
            .iter()
            .zip(raw.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        prop_assert!((rgb_dot - bayer_dot).abs() < 1e-4, "{rgb_dot} vs {bayer_dot}");
    }

    #[test]
    fn scm_output_stays_within_rails(
        v0 in 0.2f32..1.0,
        vin in 0.3f32..1.0,
        code in 0u32..16,
        extra in 0usize..20,
    ) {
        // Any MAC chain keeps the o-buffer inside the supply rails: the
        // recursion is a convex combination of its fixed point and state.
        let params = CircuitParams::paper_65nm();
        let scm = ScmModel::new(params.clone());
        let cs = params.csample_for_code(code);
        let mut v = v0;
        for _ in 0..(1 + extra) {
            v = scm.step(v, vin, cs);
            prop_assert!(v >= 0.0 && v <= params.vdd, "rail violation: {v}");
        }
        // And it contracts toward 2*Vcm - Vin.
        let target = 2.0 * params.vcm - vin;
        if cs > 0.0 {
            let before = (v0 - target).abs();
            let one = scm.step(v0, vin, cs);
            prop_assert!((one - target).abs() <= before + 1e-6);
        }
    }

    #[test]
    fn adc_quantize_dequantize_is_projection(
        v in -0.5f32..0.5,
        qsel in 0usize..4,
    ) {
        // quantize(dequantize(quantize(v))) == quantize(v): one pass
        // through the ADC is idempotent.
        let res = [AdcResolution::Ternary, AdcResolution::Sar(2),
                   AdcResolution::Sar(4), AdcResolution::Sar(8)][qsel];
        let adc = AdcModel::new(res, 0.35).expect("adc");
        let c1 = adc.quantize(v);
        let c2 = adc.quantize(adc.dequantize(c1));
        prop_assert_eq!(c1, c2);
        prop_assert!(c1.abs() <= res.max_code());
    }

    #[test]
    fn ofmap_dims_consistent_with_sensor(
        n_ch in 1usize..8,
        blocks_h in 1usize..6,
        blocks_w in 1usize..6,
    ) {
        // Core config ofmap dims (RGB domain) match the sensor's raw-domain
        // block count.
        let cfg = LecaConfig::new(2, n_ch, 3.0).expect("valid");
        let (h, w) = (blocks_h * 2, blocks_w * 2);
        let (oh, ow) = cfg.ofmap_dims(h, w).expect("divisible");
        let geom = leca::sensor::SensorGeometry {
            rows: 2 * h,
            cols: 2 * w,
            n_ch,
        };
        let (sh, sw) = geom.ofmap_dims();
        prop_assert_eq!((oh, ow), (sh, sw));
        prop_assert_eq!(geom.ofmap_elements(), oh * ow * n_ch);
    }
}
