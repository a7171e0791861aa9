//! Serving load sweep, emitted as `BENCH_serving.json` in the current
//! directory.
//!
//! Drives the `leca-serve` service through a calibrated offered-load
//! sweep — light, at-capacity, overload, and overload-with-chaos — using
//! open-loop producers (requests are submitted on a fixed schedule
//! regardless of reply latency, so queueing and shedding behave like
//! production ingress, not like a closed benchmark loop). Each level
//! reports latency quantiles, achieved images/sec, and the shed / timeout
//! / panic accounting from [`leca_serve::MetricsSnapshot`].
//!
//! `--smoke` (or `LECA_FAST=1`) runs every level on a shrunk sweep
//! and **does not** rewrite `BENCH_serving.json` — it is the CI sanity
//! gate, not a measurement. The chaos level is seeded, so its
//! panic/rebuild schedule replays exactly.
//!
//! Run from the repo root, where the record is checked in:
//! `cargo run --release -p leca-bench --bin serve_bench [-- --smoke]`.

use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::pipeline::LecaPipeline;
use leca_core::session::InferenceSession;
use leca_nn::backbone::tiny_cnn;
use leca_serve::{ChaosPlan, MetricsSnapshot, ServeConfig, Service};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLE_SHAPE: [usize; 4] = [1, 3, 16, 16];
const PRODUCERS: u64 = 4;
const TENANTS: u32 = 4;
const HANG: Duration = Duration::from_secs(60);

fn make_session() -> InferenceSession<'static> {
    let cfg = LecaConfig::new(2, 4, 3.0).expect("config");
    let mut rng = StdRng::seed_from_u64(0);
    let pipeline =
        LecaPipeline::new(&cfg, Modality::Soft, tiny_cnn(4, &mut rng), 7).expect("pipeline");
    InferenceSession::owning(pipeline)
}

fn serve_config(deadline_us: u64) -> ServeConfig {
    ServeConfig {
        deadline_us,
        max_tenants: TENANTS,
        warm_shape: Some(SAMPLE_SHAPE.to_vec()),
        ..ServeConfig::default()
    }
}

/// Closed-loop round trips against a fresh service to estimate the
/// per-request service time, in microseconds.
fn calibrate() -> f64 {
    let service = Service::start(serve_config(1_000_000), make_session).expect("service");
    let payload = Arc::new(Tensor::zeros(&SAMPLE_SHAPE));
    for _ in 0..16 {
        let t = service.submit(0, Arc::clone(&payload)).expect("submit");
        t.wait_for(HANG).expect("resolve").expect("verdict");
    }
    let t0 = Instant::now();
    const N: u32 = 64;
    for _ in 0..N {
        let t = service.submit(0, Arc::clone(&payload)).expect("submit");
        t.wait_for(HANG).expect("resolve").expect("verdict");
    }
    let us = t0.elapsed().as_micros() as f64 / f64::from(N);
    service.shutdown();
    us.max(1.0)
}

struct LevelResult {
    name: &'static str,
    offered_rps: f64,
    achieved_rps: f64,
    elapsed_s: f64,
    snap: MetricsSnapshot,
}

/// Runs one offered-load level: `PRODUCERS` open-loop threads submit
/// `total` requests on an absolute schedule (no drift), then drain every
/// ticket they were issued.
#[allow(
    clippy::disallowed_methods,
    reason = "open-loop load generator: one client thread per producer, each joined before the level reports"
)]
fn run_level(
    name: &'static str,
    offered_rps: f64,
    total: u64,
    deadline_us: u64,
    chaos: ChaosPlan,
) -> LevelResult {
    let service = Arc::new(
        Service::start_with_chaos(serve_config(deadline_us), make_session, chaos).expect("service"),
    );

    // Warm outside the measured window: slots, batch tensors, scratch.
    let payload = Arc::new(Tensor::zeros(&SAMPLE_SHAPE));
    for _ in 0..32 {
        if let Ok(t) = service.submit(0, Arc::clone(&payload)) {
            let _ = t.wait_for(HANG);
        }
    }
    // Each warm-up ticket has returned, and the service counts a request
    // before its ticket can return, so this snapshot balances.
    let warm_snap = service.metrics();

    let per_producer = total / PRODUCERS;
    let gap = Duration::from_secs_f64(PRODUCERS as f64 / offered_rps);
    let t0 = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let service = Arc::clone(&service);
            let payload = Arc::new(Tensor::zeros(&SAMPLE_SHAPE));
            std::thread::spawn(move || {
                let start = Instant::now();
                let mut tickets = Vec::with_capacity(per_producer as usize);
                for i in 0..per_producer {
                    // Absolute schedule: sleep the bulk, spin the tail.
                    let due = start + gap * i as u32;
                    loop {
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        let left = due - now;
                        if left > Duration::from_micros(200) {
                            std::thread::sleep(left - Duration::from_micros(100));
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    let tenant = ((p + i) % u64::from(TENANTS)) as u32;
                    if let Ok(t) = service.submit(tenant, Arc::clone(&payload)) {
                        tickets.push(t);
                    }
                }
                for t in tickets {
                    let _ = t.wait_for(HANG).expect("admitted requests must resolve");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let service = Arc::into_inner(service).expect("producers joined");
    let snap = sub_snapshot(service.shutdown(), warm_snap);
    assert_eq!(snap.admitted, snap.resolved(), "accounting must balance");
    LevelResult {
        name,
        offered_rps,
        achieved_rps: snap.completed as f64 / elapsed_s,
        elapsed_s,
        snap,
    }
}

/// Subtracts the warm-up phase from the final counters so each level
/// reports only its measured window (quantiles keep the warm samples —
/// 32 unloaded round trips cannot move p50/p99 of thousands).
fn sub_snapshot(mut s: MetricsSnapshot, warm: MetricsSnapshot) -> MetricsSnapshot {
    s.submitted -= warm.submitted;
    s.admitted -= warm.admitted;
    s.completed -= warm.completed;
    s.timed_out -= warm.timed_out;
    s.worker_failed -= warm.worker_failed;
    s.invalid_input -= warm.invalid_input;
    s.shed_overload -= warm.shed_overload;
    s.shed_breaker -= warm.shed_breaker;
    s.shed_shutdown -= warm.shed_shutdown;
    s.batches -= warm.batches;
    s.batched_requests -= warm.batched_requests;
    s
}

fn json_level(r: &LevelResult) -> String {
    let s = &r.snap;
    format!(
        "    {{\"name\": \"{}\", \"offered_rps\": {:.0}, \"achieved_imgs_per_sec\": {:.0}, \
         \"elapsed_s\": {:.3},\n     \"submitted\": {}, \"admitted\": {}, \"completed\": {}, \
         \"timed_out\": {}, \"worker_failed\": {},\n     \"shed_overload\": {}, \
         \"shed_breaker\": {}, \"shed_shutdown\": {}, \"worker_panics\": {}, \
         \"session_rebuilds\": {},\n     \"mean_batch\": {:.2}, \"p50_us\": {}, \"p99_us\": {}, \
         \"mean_us\": {:.1}}}",
        r.name,
        r.offered_rps,
        r.achieved_rps,
        r.elapsed_s,
        s.submitted,
        s.admitted,
        s.completed,
        s.timed_out,
        s.worker_failed,
        s.shed_overload,
        s.shed_breaker,
        s.shed_shutdown,
        s.worker_panics,
        s.session_rebuilds,
        s.mean_batch(),
        s.p50_us,
        s.p99_us,
        s.mean_us,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke") || leca_bench::fast_mode();
    let total: u64 = if smoke { 200 } else { 2_000 };

    let svc_us = calibrate();
    // Generous enough that the light level never times out, tight enough
    // that a saturated queue sheds by deadline instead of waiting forever.
    let deadline_us = ((svc_us * 20.0) as u64).clamp(2_000, 50_000);
    let cap_rps = 1e6 / svc_us;
    println!(
        "serve_bench: service time {svc_us:.0} us/req (closed loop), \
         capacity ~{cap_rps:.0} req/s, deadline {deadline_us} us, {total} req/level{}",
        if smoke { " [smoke]" } else { "" }
    );

    // Injected panics are caught by the supervisor; keep their
    // backtraces out of the bench output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("leca-serve-"));
        if !chaos_worker {
            default_hook(info);
        }
    }));

    let chaos = ChaosPlan::new(42)
        .with_worker_panics(0.02)
        .with_latency_spikes(0.05, deadline_us / 4);
    let levels = [
        run_level(
            "light",
            0.25 * cap_rps,
            total,
            deadline_us,
            ChaosPlan::none(),
        ),
        run_level(
            "capacity",
            1.0 * cap_rps,
            total,
            deadline_us,
            ChaosPlan::none(),
        ),
        run_level(
            "overload",
            4.0 * cap_rps,
            total,
            deadline_us,
            ChaosPlan::none(),
        ),
        run_level("overload_chaos", 4.0 * cap_rps, total, deadline_us, chaos),
    ];

    println!(
        "\n{:<15} {:>11} {:>11} {:>8} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8}",
        "level",
        "offered/s",
        "imgs/s",
        "p50us",
        "p99us",
        "timeout",
        "shed",
        "brk",
        "panics",
        "batch"
    );
    for r in &levels {
        let s = &r.snap;
        println!(
            "{:<15} {:>11.0} {:>11.0} {:>8} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8.2}",
            r.name,
            r.offered_rps,
            r.achieved_rps,
            s.p50_us,
            s.p99_us,
            s.timed_out,
            s.shed_overload,
            s.shed_breaker,
            s.worker_panics,
            s.mean_batch(),
        );
    }

    if smoke {
        println!("\nsmoke mode: all levels exercised; BENCH_serving.json left untouched");
        return;
    }

    let cfg = serve_config(deadline_us);
    let rows: Vec<String> = levels.iter().map(json_level).collect();
    let json = format!(
        "{{\n  \"shards\": {},\n  \"max_batch\": {},\n  \
         \"queue_cap\": {},\n  \"deadline_us\": {deadline_us},\n  \
         \"calibrated_service_us\": {svc_us:.1},\n  \"requests_per_level\": {total},\n  \
         \"levels\": [\n{}\n  ]\n}}\n",
        cfg.shards,
        cfg.max_batch,
        cfg.queue_cap,
        rows.join(",\n")
    );
    // The current directory: run from the repo root to update the
    // checked-in record, from anywhere else to leave it alone.
    std::fs::write("BENCH_serving.json", json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json in the current directory");
}
