//! Deterministic chaos suite for `leca-serve`.
//!
//! Every scenario runs a real service over a real (tiny) LeCA pipeline
//! with a seeded [`ChaosPlan`], then asserts *exact* outcomes — which
//! requests fail, which counters move, and the service-wide accounting
//! invariant `admitted == completed + timed_out + worker_failed` after a
//! graceful drain. Determinism comes from the plan being a pure function
//! of `(seed, domain, site)`: the tests replay the plan's own decisions
//! to predict what the service must have done.

use leca_core::{InferenceSession, LecaConfig, LecaPipeline, Modality};
use leca_nn::backbone::tiny_cnn;
use leca_serve::{BreakerConfig, ChaosPlan, ServeConfig, ServeError, Service};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const SAMPLE_SHAPE: [usize; 4] = [1, 3, 16, 16];
const CLASSES: usize = 4;

/// How long a ticket wait may block before the test declares a hang.
const HANG: Duration = Duration::from_secs(30);

fn make_session() -> InferenceSession<'static> {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let pipeline = LecaPipeline::new(&cfg, Modality::Soft, tiny_cnn(CLASSES, &mut rng), 7).unwrap();
    InferenceSession::owning(pipeline)
}

/// A breaker that cannot trip within these tests (so scenarios that are
/// not *about* the breaker see every request reach a worker).
fn no_trip_breaker() -> BreakerConfig {
    BreakerConfig {
        window: 1024,
        min_volume: 1024,
        trip_ratio: 1.0,
        cooldown_us: 10_000_000,
        half_open_probes: 1,
    }
}

fn base_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch: 4,
        queue_cap: 16,
        deadline_us: 5_000_000,
        linger_us: 100,
        max_tenants: 8,
        breaker: no_trip_breaker(),
        warm_shape: Some(SAMPLE_SHAPE.to_vec()),
        ..ServeConfig::default()
    }
}

fn payload() -> Arc<Tensor> {
    Arc::new(Tensor::zeros(&SAMPLE_SHAPE))
}

#[test]
fn panic_mid_batch_fails_every_rider_and_service_recovers() {
    // Rate 1.0: every batch panics; every admitted request must still be
    // answered — with WorkerFailed, not silence — and shutdown must join.
    let chaos = ChaosPlan::new(3).with_worker_panics(1.0);
    let service = Service::start_with_chaos(base_config(), make_session, chaos).unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|_| service.submit(0, payload()).unwrap())
        .collect();
    for t in tickets {
        let reply = t.wait_for(HANG).expect("ticket must resolve, not hang");
        match reply {
            Err(ServeError::WorkerFailed { reason, .. }) => {
                assert!(reason.contains("panic"), "unexpected reason: {reason}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }
    let report = service.shutdown();
    assert_eq!(report.admitted, 6);
    assert_eq!(report.worker_failed, 6);
    assert_eq!(report.admitted, report.resolved());
    assert!(report.worker_panics >= 1, "panics must be counted");
    assert!(report.session_rebuilds >= 1, "sessions must be rebuilt");
}

#[test]
fn seeded_panic_schedule_replays_exactly() {
    // Sequential submit-and-wait maps request i to batch seq i on shard
    // 0, so the service's failures must match the plan's own decisions
    // bit-for-bit.
    let chaos = ChaosPlan::new(1234).with_worker_panics(0.3);
    let service = Service::start_with_chaos(base_config(), make_session, chaos.clone()).unwrap();
    let mut failed = Vec::new();
    let n = 20u64;
    for _ in 0..n {
        let t = service.submit(0, payload()).unwrap();
        let reply = t.wait_for(HANG).expect("ticket must resolve");
        failed.push(reply.is_err());
        if let Err(e) = reply {
            assert!(matches!(e, ServeError::WorkerFailed { .. }), "{e:?}");
        }
    }
    let expected: Vec<bool> = (0..n).map(|i| chaos.worker_panics(0, i)).collect();
    assert_eq!(failed, expected, "chaos replay must be deterministic");
    assert!(
        expected.iter().any(|&p| p),
        "seed 1234 should panic at least once"
    );
    assert!(
        !expected.iter().all(|&p| p),
        "and also succeed at least once"
    );
    let report = service.shutdown();
    assert_eq!(report.admitted, report.resolved());
}

#[test]
fn accounting_balances_the_moment_each_ticket_returns() {
    // One client with one request in flight at a time: once a ticket's
    // wait returns, the service must already count that request, whether
    // it completed, failed (seeded worker panics) or timed out (a zero
    // deadline expires in the queue).
    let chaos = ChaosPlan::new(1234).with_worker_panics(0.3);
    let service = Service::start_with_chaos(base_config(), make_session, chaos).unwrap();
    let mut paths = [0u32; 3];
    for i in 0..60u64 {
        let deadline_us = if i % 4 == 3 { 0 } else { 5_000_000 };
        let t = service
            .submit_with_deadline(0, payload(), deadline_us)
            .unwrap();
        let reply = t.wait_for(HANG).expect("ticket must resolve");
        let m = service.metrics();
        assert_eq!(
            m.admitted,
            m.resolved(),
            "request {i} ({reply:?}) returned before it was counted: {m:?}"
        );
        paths[match reply {
            Ok(_) => 0,
            Err(ServeError::WorkerFailed { .. }) => 1,
            Err(ServeError::TimedOut { .. }) => 2,
            Err(e) => panic!("unexpected reply {e:?}"),
        }] += 1;
    }
    assert!(
        paths.iter().all(|&n| n > 0),
        "completed / failed / timed-out counts {paths:?}: every path must run"
    );
    service.shutdown();
}

#[test]
fn expired_deadlines_time_out_and_never_ride_batches() {
    // A 200 ms latency spike stalls the worker while short-deadline
    // requests from another tenant expire in the queue.
    let chaos = ChaosPlan::new(5).with_latency_spikes(1.0, 200_000);
    let mut cfg = base_config();
    cfg.linger_us = 0;
    let service = Service::start_with_chaos(cfg, make_session, chaos).unwrap();

    // Tenant 0, generous deadline: rides the (stalled) first batch.
    let slow = service
        .submit_with_deadline(0, payload(), 10_000_000)
        .unwrap();
    // Give the worker time to pop it before the stragglers arrive.
    std::thread::sleep(Duration::from_millis(20));
    // Tenant 1, 1 ms deadlines: expire long before the spike ends.
    let doomed: Vec<_> = (0..4)
        .map(|_| service.submit_with_deadline(1, payload(), 1_000).unwrap())
        .collect();

    assert!(slow.wait_for(HANG).expect("must resolve").is_ok());
    for t in doomed {
        match t.wait_for(HANG).expect("must resolve") {
            Err(ServeError::TimedOut { .. }) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.timed_out, 4);
    assert_eq!(report.admitted, report.resolved());
    // The expired requests never occupied a batch slot: only the slow
    // request's batch (and possibly later empty pops) ran.
    assert_eq!(
        report.batched_requests, 1,
        "expired requests must not be batched"
    );
}

#[test]
fn graceful_drain_completes_every_admitted_request() {
    let mut cfg = base_config();
    cfg.shards = 2;
    let service = Service::start_with_chaos(cfg, make_session, ChaosPlan::none()).unwrap();
    let tickets: Vec<_> = (0..12)
        .map(|i| service.submit(i % 4, payload()).unwrap())
        .collect();
    // Shut down immediately: drain semantics must still answer them all.
    let report = service.shutdown();
    assert_eq!(report.admitted, 12);
    assert_eq!(report.completed, 12, "drain must finish admitted work");
    assert_eq!(report.admitted, report.resolved());
    for t in tickets {
        let v = t
            .wait_for(HANG)
            .expect("replies are delivered before shutdown returns")
            .expect("no chaos: every request succeeds");
        assert!(v.class < CLASSES);
    }
}

#[test]
fn nan_poisoned_payloads_are_rejected_at_ingress() {
    let chaos = ChaosPlan::new(42).with_nan_inputs(0.5);
    let service = Service::start_with_chaos(base_config(), make_session, chaos.clone()).unwrap();
    let n = 20u64;
    let mut rejected = 0;
    for id in 0..n {
        let arc = if let Some(idx) = chaos.poison_request(id) {
            let mut t = Tensor::zeros(&SAMPLE_SHAPE);
            let len = t.as_slice().len();
            t.as_mut_slice()[idx % len] = f32::NAN;
            Arc::new(t)
        } else {
            payload()
        };
        match service.submit(0, arc) {
            Ok(t) => {
                assert!(t.wait_for(HANG).expect("must resolve").is_ok());
                assert!(
                    chaos.poison_request(id).is_none(),
                    "poisoned request got in"
                );
            }
            Err(ServeError::InvalidInput { reason }) => {
                assert!(reason.contains("non-finite"), "{reason}");
                assert!(chaos.poison_request(id).is_some(), "clean request rejected");
                rejected += 1;
            }
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    }
    let report = service.shutdown();
    assert!(rejected > 0, "seed 42 at rate 0.5 must poison something");
    assert_eq!(report.invalid_input, rejected);
    assert_eq!(report.admitted, n - rejected);
    assert_eq!(report.admitted, report.resolved());
}

#[test]
fn breaker_sheds_tenant_whose_batches_keep_panicking() {
    let chaos = ChaosPlan::new(7).with_worker_panics(1.0);
    let mut cfg = base_config();
    cfg.breaker = BreakerConfig {
        window: 8,
        min_volume: 4,
        trip_ratio: 0.5,
        cooldown_us: 10_000_000,
        half_open_probes: 1,
    };
    let service = Service::start_with_chaos(cfg, make_session, chaos).unwrap();
    let mut saw_circuit_open = false;
    for _ in 0..16 {
        match service.submit(0, payload()) {
            Ok(t) => {
                let reply = t.wait_for(HANG).expect("must resolve");
                assert!(matches!(reply, Err(ServeError::WorkerFailed { .. })));
            }
            Err(ServeError::CircuitOpen { tenant }) => {
                assert_eq!(tenant, 0);
                saw_circuit_open = true;
                break;
            }
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    }
    assert!(saw_circuit_open, "repeated failures must trip the breaker");
    let report = service.shutdown();
    assert!(report.shed_breaker >= 1);
    assert_eq!(report.admitted, report.resolved());
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "spawns producer threads to race the service"
)]
fn full_storm_accounting_is_airtight() {
    // Multi-tenant, multi-producer storm under panics, latency spikes,
    // poisoned payloads, short deadlines, and an undersized queue. The
    // one invariant that must survive all of it: every submission is
    // accounted for, every admitted request resolves exactly once.
    let chaos = ChaosPlan::new(99)
        .with_worker_panics(0.15)
        .with_latency_spikes(0.2, 3_000)
        .with_nan_inputs(0.1);
    let cfg = ServeConfig {
        shards: 2,
        max_batch: 4,
        queue_cap: 8,
        deadline_us: 100_000,
        linger_us: 100,
        max_tenants: 4,
        breaker: no_trip_breaker(),
        warm_shape: Some(SAMPLE_SHAPE.to_vec()),
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::start_with_chaos(cfg, make_session, chaos.clone()).unwrap());

    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let service = Arc::clone(&service);
            let chaos = chaos.clone();
            std::thread::spawn(move || {
                let mut outcomes = (0u64, 0u64); // (admitted, rejected)
                for i in 0..50u64 {
                    let id = p * 1000 + i;
                    let tenant = (id % 5) as u32; // tenant 4 is unknown (max_tenants 4)
                    let arc = if let Some(idx) = chaos.poison_request(id) {
                        let mut t = Tensor::zeros(&SAMPLE_SHAPE);
                        let len = t.as_slice().len();
                        t.as_mut_slice()[idx % len] = f32::NAN;
                        Arc::new(t)
                    } else {
                        Arc::new(Tensor::zeros(&SAMPLE_SHAPE))
                    };
                    let deadline = if id % 7 == 0 { 500 } else { 100_000 };
                    match service.submit_with_deadline(tenant, arc, deadline) {
                        Ok(t) => {
                            let _ = t.wait_for(HANG).expect("admitted requests must resolve");
                            outcomes.0 += 1;
                        }
                        Err(_) => outcomes.1 += 1,
                    }
                }
                outcomes
            })
        })
        .collect();

    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for p in producers {
        let (a, r) = p.join().unwrap();
        admitted += a;
        rejected += r;
    }
    let service = Arc::into_inner(service).expect("all producers joined");
    let report = service.shutdown();

    assert_eq!(report.submitted, 200);
    assert_eq!(report.admitted, admitted);
    assert_eq!(
        report.submitted,
        report.admitted
            + report.invalid_input
            + report.shed_overload
            + report.shed_breaker
            + report.shed_shutdown,
        "every submission must be accounted for: {report:?}"
    );
    assert_eq!(rejected, report.submitted - report.admitted);
    assert_eq!(
        report.admitted,
        report.resolved(),
        "every admitted request must resolve exactly once: {report:?}"
    );
    assert!(
        report.invalid_input > 0,
        "storm must exercise ingress rejection"
    );
}
