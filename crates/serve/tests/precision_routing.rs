//! Per-tenant precision routing through the full service stack.
//!
//! Tenants mapped to `Precision::Int8` ride the session's quantized
//! engine; everyone else stays on f32. A service configured for int8
//! whose factory never compiled an engine must fail those batches with
//! a typed `WorkerFailed` — never silently fall back to f32.

use leca_core::{InferenceSession, LecaConfig, LecaPipeline, Modality, Precision};
use leca_nn::backbone::tiny_cnn;
use leca_serve::{ServeConfig, ServeError, Service};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SAMPLE_SHAPE: [usize; 4] = [1, 3, 16, 16];

fn make_pipeline() -> LecaPipeline {
    let lc = LecaConfig::new(2, 4, 3.0).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let backbone = tiny_cnn(4, &mut rng);
    LecaPipeline::new(&lc, Modality::Soft, backbone, 7).unwrap()
}

/// A session whose factory compiled the int8 engine from a fixed
/// calibration batch — what a production int8 deployment does.
fn int8_session() -> InferenceSession<'static> {
    let pipeline = make_pipeline();
    let mut session = InferenceSession::owning(pipeline);
    let mut rng = StdRng::seed_from_u64(12);
    let calib = Tensor::rand_uniform(&[8, 3, 16, 16], 0.1, 0.9, &mut rng);
    session.enable_int8(&calib).unwrap();
    session
}

fn f32_only_session() -> InferenceSession<'static> {
    InferenceSession::owning(make_pipeline())
}

fn payload(seed: u64) -> Arc<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(Tensor::rand_uniform(&SAMPLE_SHAPE, 0.1, 0.9, &mut rng))
}

fn base_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch: 4,
        queue_cap: 16,
        deadline_us: 5_000_000,
        linger_us: 100,
        max_tenants: 4,
        warm_shape: Some(SAMPLE_SHAPE.to_vec()),
        ..ServeConfig::default()
    }
}

#[test]
fn mixed_precision_tenants_are_served_and_agree() {
    let mut cfg = base_config();
    // Tenant 0 stays f32, tenant 1 runs int8; both share one shard and
    // one session.
    cfg.tenant_precision = vec![(1, Precision::Int8)];
    let service = Service::start(cfg, int8_session).unwrap();

    let mut verdicts = Vec::new();
    for i in 0..8u64 {
        let tenant = (i % 2) as u32;
        let ticket = service.submit(tenant, payload(100 + i / 2)).unwrap();
        verdicts.push((tenant, i / 2, ticket));
    }
    let resolved: Vec<(u32, u64, usize)> = verdicts
        .into_iter()
        .map(|(t, s, ticket)| (t, s, ticket.wait().unwrap().class))
        .collect();
    for &(_, _, class) in &resolved {
        assert!(class < 4, "class {class} out of range");
    }
    // Same payload through f32 (tenant 0) and int8 (tenant 1) should
    // agree on most samples at this calibration quality.
    let agree = (0..4u64)
        .filter(|s| {
            let f = resolved.iter().find(|r| r.0 == 0 && r.1 == *s).unwrap().2;
            let q = resolved.iter().find(|r| r.0 == 1 && r.1 == *s).unwrap().2;
            f == q
        })
        .count();
    assert!(agree >= 3, "f32 and int8 verdicts agree on only {agree}/4");

    let report = service.shutdown();
    assert_eq!(report.admitted, report.resolved());
    assert_eq!(report.completed, 8);
}

#[test]
fn int8_without_engine_fails_typed_not_silent() {
    let mut cfg = base_config();
    cfg.default_precision = Precision::Int8;
    // The breaker must not mask the typed error by shedding at admission.
    cfg.breaker.trip_ratio = 1.0;
    cfg.breaker.min_volume = cfg.breaker.window;
    let service = Service::start(cfg, f32_only_session).unwrap();

    let ticket = service.submit(0, payload(7)).unwrap();
    match ticket.wait() {
        Err(ServeError::WorkerFailed { reason }) => {
            assert!(reason.contains("quantized engine"), "{reason}");
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }

    let report = service.shutdown();
    assert_eq!(report.admitted, report.resolved());
    assert_eq!(report.worker_failed, 1);
}

#[test]
fn int8_default_precision_serves_end_to_end() {
    // An int8 default with an int8-capable factory serves every tenant
    // without a per-tenant override.
    let mut cfg = base_config();
    cfg.default_precision = Precision::Int8;
    let service = Service::start(cfg, int8_session).unwrap();
    let ticket = service.submit(2, payload(42)).unwrap();
    let verdict = ticket.wait().unwrap();
    assert!(verdict.class < 4);
    let report = service.shutdown();
    assert_eq!(report.completed, 1);
}
