//! Kernel speed table across every backend, emitted as
//! `BENCH_kernels.json` in the current directory.
//!
//! Built on the structured harness (`leca_bench::{workload, profiler,
//! harness}`): every named workload is timed single-threaded under
//! `scalar`, `avx2` and `fastmath` by pinning `LECA_BACKEND` and
//! refreshing the cached decision between runs. The bit-exact backends
//! are bit-identical (see `tests/backend_conformance.rs`), so their
//! columns are purely a latency comparison; the fastmath column trades
//! bounded rounding differences (tolerance-tested) for throughput. Also
//! times the end-to-end `InferenceSession::classify_batch` (f32 and
//! int8).
//!
//! `--smoke` runs every workload end to end with a cut-down timing
//! policy and **does not** rewrite `BENCH_kernels.json` — it is the CI
//! sanity gate, not a measurement.
//!
//! Run from the repo root, where the record is checked in:
//! `cargo run --release -p leca-bench --bin kernel_speed [-- --smoke]`.

use leca_bench::harness::{pin_backend, unpin_backend, Harness, KernelRun};
use leca_bench::profiler::Profiler;
use leca_bench::workload::standard_kernels;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::pipeline::LecaPipeline;
use leca_core::session::{InferenceSession, Precision};
use leca_nn::backbone::tiny_cnn;
use leca_tensor::backend::Backend;
use leca_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Median ns for one (workload, backend) cell out of the harness rows.
fn cell(runs: &[KernelRun], workload: &str, backend: &str) -> Option<f64> {
    runs.iter()
        .find(|r| r.workload == workload && r.backend == backend)
        .and_then(|r| r.stats)
        .map(|s| s.median_ns)
}

fn ratio_str(num: Option<f64>, den: Option<f64>) -> String {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => format!("{:.3}", n / d),
        _ => "null".to_string(),
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_THREADS=1 so every kernel row is timed on one thread"
)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profiler = if smoke {
        Profiler::smoke()
    } else {
        Profiler::standard()
    };

    std::env::set_var("LECA_THREADS", "1");
    parallel::refresh_num_threads();
    let avx2_available = Backend::Avx2.available();
    let fastmath_available = Backend::FastMath.available();

    // ----- named kernel workloads across all backend columns -----
    let harness = Harness::new(profiler, &Backend::ALL.map(Backend::name));
    let mut workloads = standard_kernels(7);
    let runs = harness.run_all(&mut workloads);

    let mut kernel_rows = Vec::new();
    for wl in &workloads {
        let s = cell(&runs, wl.name, "scalar");
        let v = cell(&runs, wl.name, "avx2");
        let f = cell(&runs, wl.name, "fastmath");
        let fmt = |ns: Option<f64>| {
            ns.map(|n| format!("{n:>12.1}"))
                .unwrap_or_else(|| "         n/a".to_string())
        };
        println!(
            "{:<22} scalar {} ns  avx2 {} ns  fastmath {} ns",
            wl.name,
            fmt(s),
            fmt(v),
            fmt(f)
        );
        kernel_rows.push(format!(
            "    {{\"name\": \"{}\", \"scalar_ns\": {}, \"avx2_ns\": {}, \"fastmath_ns\": {}, \
             \"speedup\": {}, \"fastmath_vs_avx2\": {}}}",
            wl.name,
            s.map(|n| format!("{n:.1}")).unwrap_or("null".into()),
            v.map(|n| format!("{n:.1}")).unwrap_or("null".into()),
            f.map(|n| format!("{n:.1}")).unwrap_or("null".into()),
            ratio_str(s, v),
            ratio_str(v, f),
        ));
    }

    // ----- per-backend availability section -----
    let mut backend_rows = Vec::new();
    for be in Backend::ALL {
        let name = be.name();
        let available = be.available();
        let matmul_ns = if available {
            cell(&runs, "matmul_64x144x4096", name)
        } else {
            None
        };
        backend_rows.push(format!(
            "    {{\"backend\": \"{name}\", \"available\": {available}, \
             \"bit_exact\": {}, \"matmul_ns\": {}}}",
            be.bit_exact(),
            matmul_ns
                .map(|n| format!("{n:.1}"))
                .unwrap_or("null".into()),
        ));
    }

    // ----- end-to-end pooled inference: images/sec per backend -----
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let mut p = LecaPipeline::new(&cfg, Modality::Soft, bb, 7).expect("pipeline");
    let mut session = InferenceSession::for_pipeline(&mut p);
    let batch = Tensor::rand_uniform(&[8, 3, 16, 16], 0.1, 0.9, &mut StdRng::seed_from_u64(7));
    let n_imgs = batch.shape()[0] as f64;
    let mut preds = Vec::new();
    session.warm_up(&[8, 3, 16, 16]).expect("warm-up");

    let classify_on = |session: &mut InferenceSession, be: Backend, precision: Precision| {
        if !be.available() {
            return None;
        }
        pin_backend(be.name());
        let mut preds = Vec::new();
        let stats = profiler.time(30, || {
            session
                .classify_batch_with(&batch, &mut preds, precision)
                .expect("classify");
        });
        Some(stats)
    };

    let mut f32_ips = Vec::new();
    for be in Backend::ALL {
        let name = be.name();
        let stats = classify_on(&mut session, be, Precision::F32);
        let ips = stats.map(|s| n_imgs * 1e9 / s.median_ns);
        f32_ips.push(ips);
        if let Some(ips) = ips {
            println!("classify_batch 8x3x16x16 [{name:<8}] {ips:>9.0} imgs/s");
        } else {
            println!("classify_batch 8x3x16x16 [{name:<8}] not available");
        }
    }

    // Same session, int8 mode: calibrate on the bench batch, compile the
    // engine, and time the quantized classify path per backend. The
    // headline number is int8-avx2 vs f32-avx2 throughput.
    pin_backend("scalar");
    session.enable_int8(&batch).expect("int8 engine");
    for _ in 0..2 {
        session
            .classify_batch_with(&batch, &mut preds, Precision::Int8)
            .expect("int8 warm");
    }
    let mut int8_ips = Vec::new();
    for be in Backend::ALL {
        let name = be.name();
        let stats = classify_on(&mut session, be, Precision::Int8);
        let ips = stats.map(|s| n_imgs * 1e9 / s.median_ns);
        int8_ips.push(ips);
        if let Some(ips) = ips {
            println!("classify_batch_int8 8x3x16x16 [{name:<8}] {ips:>9.0} imgs/s");
        } else {
            println!("classify_batch_int8 8x3x16x16 [{name:<8}] not available");
        }
    }
    unpin_backend();

    let ips_str = |v: Option<f64>| v.map(|x| format!("{x:.0}")).unwrap_or("null".into());
    let ips_ratio = |n: Option<f64>, d: Option<f64>| ratio_str(n, d);

    if smoke {
        println!("\nsmoke mode: all workloads exercised; BENCH_kernels.json left untouched");
        return;
    }

    let json = format!(
        "{{\n  \"avx2_available\": {avx2_available},\n  \"fastmath_available\": {fastmath_available},\n  \
         \"threads\": 1,\n  \"backends\": [\n{}\n  ],\n  \
         \"kernels\": [\n{}\n  ],\n  \
         \"classify_batch\": {{\"shape\": [8, 3, 16, 16], \"scalar_imgs_per_sec\": {}, \
         \"avx2_imgs_per_sec\": {}, \"fastmath_imgs_per_sec\": {}, \"speedup\": {}, \
         \"fastmath_vs_avx2\": {}}},\n  \
         \"classify_batch_int8\": {{\"shape\": [8, 3, 16, 16], \"scalar_imgs_per_sec\": {}, \
         \"avx2_imgs_per_sec\": {}, \"fastmath_imgs_per_sec\": {}, \"speedup_vs_f32_avx2\": {}}}\n}}\n",
        backend_rows.join(",\n"),
        kernel_rows.join(",\n"),
        ips_str(f32_ips[0]),
        ips_str(f32_ips[1]),
        ips_str(f32_ips[2]),
        ips_ratio(f32_ips[1], f32_ips[0]),
        ips_ratio(f32_ips[2], f32_ips[1]),
        ips_str(int8_ips[0]),
        ips_str(int8_ips[1]),
        ips_str(int8_ips[2]),
        ips_ratio(int8_ips[1], f32_ips[1]),
    );
    // The current directory: run from the repo root to update the
    // checked-in record, from anywhere else to leave it alone.
    std::fs::write("BENCH_kernels.json", json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json in the current directory");
}
