//! Concurrency stress for the serving queue/batcher/slot machinery.
//!
//! Built for ThreadSanitizer (the CI `tsan` job runs it with
//! `-Zsanitizer=thread`): many producer threads hammer a small service —
//! concurrent submits, overload rejections, short deadlines, chaos
//! panics and latency spikes, plus a shutdown racing in-flight traffic —
//! so any data race in `ShardQueue`, `ReplySlot`/`SlotPool`, the
//! breakers, or the metrics shows up under contention. The assertions
//! are deliberately coarse (accounting only); the point is the
//! interleavings, not the values.

use leca_core::{InferenceSession, LecaConfig, LecaPipeline, Modality};
use leca_nn::backbone::tiny_cnn;
use leca_serve::{BreakerConfig, ChaosPlan, ServeConfig, Service};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const SAMPLE_SHAPE: [usize; 4] = [1, 3, 16, 16];
const HANG: Duration = Duration::from_secs(60);

fn make_session() -> InferenceSession<'static> {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let pipeline = LecaPipeline::new(&cfg, Modality::Soft, tiny_cnn(4, &mut rng), 7).unwrap();
    InferenceSession::owning(pipeline)
}

fn stress_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        max_batch: 4,
        queue_cap: 8,
        deadline_us: 200_000,
        linger_us: 50,
        max_tenants: 4,
        breaker: BreakerConfig {
            window: 64,
            min_volume: 64,
            trip_ratio: 1.0,
            cooldown_us: 1_000,
            half_open_probes: 1,
        },
        warm_shape: Some(SAMPLE_SHAPE.to_vec()),
        ..ServeConfig::default()
    }
}

/// Producers racing each other, the batcher, chaos panics and rebuilds.
#[test]
fn concurrent_producers_with_chaos_race_cleanly() {
    let chaos = ChaosPlan::new(17)
        .with_worker_panics(0.1)
        .with_latency_spikes(0.1, 1_000);
    let service =
        Arc::new(Service::start_with_chaos(stress_config(), make_session, chaos).unwrap());

    let producers: Vec<_> = (0..8u64)
        .map(|p| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let payload = Arc::new(Tensor::zeros(&SAMPLE_SHAPE));
                let mut admitted = 0u64;
                for i in 0..40u64 {
                    let tenant = ((p + i) % 4) as u32;
                    let deadline = if i % 5 == 0 { 300 } else { 200_000 };
                    if let Ok(t) =
                        service.submit_with_deadline(tenant, Arc::clone(&payload), deadline)
                    {
                        let _ = t.wait_for(HANG).expect("admitted requests must resolve");
                        admitted += 1;
                    }
                }
                admitted
            })
        })
        .collect();

    let admitted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
    let service = Arc::into_inner(service).expect("all producers joined");
    let report = service.shutdown();
    assert_eq!(report.admitted, admitted);
    assert_eq!(report.admitted, report.resolved());
}

/// Shutdown racing producers that are still submitting: no deadlock, no
/// lost replies, everything admitted still resolves.
#[test]
fn shutdown_races_inflight_submissions() {
    let service = Arc::new(
        Service::start_with_chaos(stress_config(), make_session, ChaosPlan::none()).unwrap(),
    );

    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let payload = Arc::new(Tensor::zeros(&SAMPLE_SHAPE));
                let mut admitted = 0u64;
                for i in 0..60u64 {
                    // A submit error (Overloaded / ShuttingDown) is expected here.
                    if let Ok(t) = service.submit(((p + i) % 4) as u32, Arc::clone(&payload)) {
                        let _ = t.wait_for(HANG).expect("admitted requests must resolve");
                        admitted += 1;
                    }
                }
                admitted
            })
        })
        .collect();

    // Begin the drain while producers are mid-flight.
    std::thread::sleep(Duration::from_millis(5));
    let service_for_shutdown = Arc::clone(&service);
    let shutdown = std::thread::spawn(move || {
        // The last Arc is dropped by the producers; Drop performs the
        // drain-and-join. Trigger the draining flag path via metrics
        // reads while they race.
        for _ in 0..50 {
            let _ = service_for_shutdown.metrics();
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let admitted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
    shutdown.join().unwrap();
    let service = Arc::into_inner(service).expect("all racers joined");
    let report = service.shutdown();
    assert_eq!(report.admitted, admitted);
    assert_eq!(report.admitted, report.resolved());
}
