//! Named benchmark workloads: construction separated from measurement.
//!
//! A [`Workload`] captures its inputs in a closure (owned, or borrowed
//! for `'a`) and knows its nominal iteration count; the [`crate::profiler`] decides how to time
//! it and the [`crate::harness`] decides which backends to run it under.
//! `standard_kernels` builds the canonical kernel set whose names are the
//! stable keys in `BENCH_kernels.json` — EXPERIMENTS.md quotes them, so
//! renaming one is a breaking change to the published tables.

use leca_nn::layers::Conv2d;
use leca_nn::qlayers::{quantize_batch, QConv2d, QConvEpilogue};
use leca_tensor::backend::{self, MR, NR};
use leca_tensor::{ops, QuantParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One named, self-contained benchmark body.
pub struct Workload<'a> {
    /// Stable identifier (JSON key and console label).
    pub name: &'static str,
    /// Nominal iterations per timing sample (the profiler may scale it).
    pub iters: u32,
    body: Box<dyn FnMut() + 'a>,
}

impl<'a> Workload<'a> {
    /// Wraps a closure as a named workload.
    pub fn new(name: &'static str, iters: u32, body: impl FnMut() + 'a) -> Workload<'a> {
        Workload {
            name,
            iters,
            body: Box::new(body),
        }
    }

    /// Runs the body once (the profiler calls this in its timed loops).
    pub fn step(&mut self) {
        (self.body)();
    }
}

impl std::fmt::Debug for Workload<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("iters", &self.iters)
            .finish_non_exhaustive()
    }
}

/// The canonical single-threaded kernel set: raw microkernel, GEMM, f32
/// conv (stride 1 and 2), int8 conv and eval BatchNorm + ReLU, at the
/// geometries the published tables use.
pub fn standard_kernels(seed: u64) -> Vec<Workload<'static>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = Vec::new();

    // Raw register-tile microkernel, one packed K=256 panel pair.
    let k = 256;
    let ap: Vec<f32> = (0..k * MR).map(|i| (i % 97) as f32 * 0.013 - 0.5).collect();
    let bp: Vec<f32> = (0..k * NR).map(|i| (i % 89) as f32 * 0.011 - 0.4).collect();
    let rows: Vec<usize> = (0..k).map(|p| p * NR).collect();
    set.push(Workload::new("microkernel_k256", 20_000, move || {
        let mut acc = [[0.0f32; NR]; MR];
        backend::microkernel(k, &ap, &bp, &rows, &mut acc);
        std::hint::black_box(acc);
    }));

    let a = Tensor::rand_uniform(&[64, 144], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[144, 4096], -1.0, 1.0, &mut rng);
    set.push(Workload::new("matmul_64x144x4096", 20, move || {
        std::hint::black_box(a.matmul(&b).expect("matmul"));
    }));

    let x = Tensor::rand_uniform(&[8, 16, 32, 32], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[16, 16, 3, 3], -1.0, 1.0, &mut rng);
    // The stride-2 (strided panel gather) and batch-1 (channel-tile
    // split) paths of the same layer, on the same data.
    let (xs2, ws2) = (x.clone(), w.clone());
    let x1 = Tensor::from_vec(x.as_slice()[..16 * 32 * 32].to_vec(), &[1, 16, 32, 32])
        .expect("batch-1 slice");
    let w1 = w.clone();
    let (xq, wq) = (x.clone(), w.clone());
    set.push(Workload::new("conv2d_8x16x32x32_3x3", 20, move || {
        std::hint::black_box(ops::conv2d(&x, &w, None, 1, 1).expect("conv"));
    }));
    set.push(Workload::new("conv2d_8x16x32x32_3x3_s2", 40, move || {
        std::hint::black_box(ops::conv2d(&xs2, &ws2, None, 2, 1).expect("conv"));
    }));
    set.push(Workload::new("conv2d_1x16x32x32_3x3", 80, move || {
        std::hint::black_box(ops::conv2d(&x1, &w1, None, 1, 1).expect("conv"));
    }));

    // The int8 conv of the same layer on the same data, quantized once
    // at setup: per-channel weights, input on its [-1, 1] grid, output
    // requantized with fused ReLU.
    let grid = QuantParams::from_range(-1.0, 1.0);
    let qc = QConv2d::from_conv(
        &Conv2d::from_weights(wq, None, 1, 1),
        grid,
        QConvEpilogue::Requant {
            out: QuantParams::from_range(0.0, 8.0),
            relu: true,
        },
    )
    .expect("finite weights");
    let mut qx = vec![0i8; xq.len()];
    quantize_batch(xq.as_slice(), grid, &mut qx);
    let mut qout = vec![0i8; qx.len()];
    set.push(Workload::new("qconv2d_8x16x32x32_3x3", 20, move || {
        qc.run_q(&qx, 8, 32, 32, &mut qout).expect("qconv");
        std::hint::black_box(&mut qout);
    }));

    // The eval BatchNorm → ReLU pair on the decoder's middle activation,
    // as the layers run it: `bn_affine` per (image, channel) plane with that
    // channel's statistics, then one `relu_inplace` over the whole tensor.
    let bx = Tensor::rand_uniform(&[8, 16, 32, 32], -2.0, 2.0, &mut rng);
    let stats: Vec<[f32; 4]> = (0..16)
        .map(|c| {
            let c = c as f32;
            [
                0.05 * c - 0.4,
                1.0 / (0.5 + 0.1 * c),
                1.0 - 0.02 * c,
                0.03 * c,
            ]
        })
        .collect();
    let mut bout = vec![0.0f32; bx.len()];
    set.push(Workload::new("bn_relu_8x16x32x32", 200, move || {
        let planes = bx.as_slice().chunks(32 * 32).zip(bout.chunks_mut(32 * 32));
        for (p, (src, dst)) in planes.enumerate() {
            let [mean, inv_std, g, b] = stats[p % 16];
            backend::bn_affine(src, dst, mean, inv_std, g, b);
        }
        backend::relu_inplace(&mut bout);
        std::hint::black_box(&mut bout);
    }));

    // tiny_cnn's second conv: at ow = 4 every panel straddles output rows.
    let xt = Tensor::rand_uniform(&[8, 8, 8, 8], -1.0, 1.0, &mut rng);
    let wt = Tensor::rand_uniform(&[16, 8, 3, 3], -1.0, 1.0, &mut rng);
    set.push(Workload::new("conv2d_8x8x8x8_3x3_s2", 400, move || {
        std::hint::black_box(ops::conv2d(&xt, &wt, None, 2, 1).expect("conv"));
    }));

    // The decoder's first int8 conv (dncnn.0): three input channels, so
    // one reduction pair per tap holds a channel and the zero channel.
    let w3 = Tensor::rand_uniform(&[16, 3, 3, 3], -1.0, 1.0, &mut rng);
    let qc3 = QConv2d::from_conv(
        &Conv2d::from_weights(w3, None, 1, 1),
        grid,
        QConvEpilogue::Requant {
            out: QuantParams::from_range(0.0, 8.0),
            relu: true,
        },
    )
    .expect("finite weights");
    let x3 = Tensor::rand_uniform(&[8, 3, 16, 16], -1.0, 1.0, &mut rng);
    let mut qx3 = vec![0i8; x3.len()];
    quantize_batch(x3.as_slice(), grid, &mut qx3);
    let mut qout3 = vec![0i8; 8 * 16 * 16 * 16];
    set.push(Workload::new("qconv2d_8x3x16x16_3x3", 100, move || {
        qc3.run_q(&qx3, 8, 16, 16, &mut qout3).expect("qconv");
        std::hint::black_box(&mut qout3);
    }));

    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_has_stable_names() {
        let names: Vec<&str> = standard_kernels(7).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "microkernel_k256",
                "matmul_64x144x4096",
                "conv2d_8x16x32x32_3x3",
                "conv2d_8x16x32x32_3x3_s2",
                "conv2d_1x16x32x32_3x3",
                "qconv2d_8x16x32x32_3x3",
                "bn_relu_8x16x32x32",
                "conv2d_8x8x8x8_3x3_s2",
                "qconv2d_8x3x16x16_3x3",
            ]
        );
    }

    #[test]
    fn workloads_are_runnable() {
        for mut wl in standard_kernels(7) {
            wl.step();
            assert!(wl.iters >= 1);
        }
    }
}
