//! leca-serve: fault-tolerant multi-tenant serving for LeCA inference.
//!
//! The rest of the workspace answers "is the reconstruction accurate?"
//! and "is the kernel fast?". This crate answers the question an edge
//! deployment actually faces: *what happens when many tenants share one
//! LeCA device and things go wrong?* It wraps the zero-allocation
//! [`leca_core::InferenceSession`] in a small serving runtime with
//! explicit, typed answers for every failure mode:
//!
//! * **Sharded warm workers** — each shard pins one owned session to one
//!   supervised thread; tenants map to shards by `tenant % shards`
//!   ([`ServeConfig::shards`]).
//! * **Dynamic batching** — per-shard queues coalesce same-tenant,
//!   same-shape requests into one `classify_batch` call, flushing at
//!   [`ServeConfig::max_batch`] or after a short linger.
//! * **Deadlines** — every request carries one
//!   ([`ServeConfig::deadline_us`]); expired requests are answered
//!   [`ServeError::TimedOut`] and never occupy a batch slot.
//! * **Backpressure** — queues are bounded; a full shard rejects with
//!   [`ServeError::Overloaded`] instead of growing.
//! * **Fail once** — a model error fails the batch with
//!   [`ServeError::WorkerFailed`] on the first attempt: the session is
//!   deterministic, so a retry would fail the same way.
//! * **Per-tenant circuit breakers** — a tenant whose requests keep
//!   failing is shed with [`ServeError::CircuitOpen`] while healthy
//!   tenants keep flowing.
//! * **Per-tenant precision** — each tenant's batches run at
//!   [`Precision::F32`] or [`Precision::Int8`]
//!   ([`ServeConfig::default_precision`] /
//!   [`ServeConfig::tenant_precision`]);
//!   int8 needs sessions whose factory called
//!   [`leca_core::InferenceSession::enable_int8`], and batches never mix
//!   tenants, so every `classify_batch` call runs at one precision.
//! * **Panic-isolating supervision** — a worker panic mid-batch answers
//!   every rider with a typed error, then the supervisor rebuilds the
//!   session and keeps serving; threads are always joined, never
//!   detached.
//! * **Deterministic chaos** — [`ChaosPlan`] injects worker panics,
//!   latency spikes and NaN payloads as a pure function of
//!   `(seed, domain, site)`, so failure storms replay bit-for-bit (the
//!   serving analog of [`leca_circuit::fault::FaultPlan`]).
//!
//! The robustness contract, end to end: **every admitted request
//! receives exactly one typed reply**, and after a graceful
//! [`Service::shutdown`] the books balance:
//! `admitted == completed + timed_out + worker_failed`.
//!
//! ```
//! use leca_core::{InferenceSession, LecaConfig, LecaPipeline, Modality};
//! use leca_nn::backbone::tiny_cnn;
//! use leca_serve::{ServeConfig, Service};
//! use leca_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut cfg = ServeConfig::default();
//! cfg.shards = 1;
//! cfg.max_batch = 2;
//! cfg.warm_shape = Some(vec![1, 3, 16, 16]);
//! let service = Service::start(cfg, || {
//!     let lc = LecaConfig::new(2, 4, 3.0).unwrap();
//!     let mut rng = StdRng::seed_from_u64(0);
//!     let pipeline = LecaPipeline::new(&lc, Modality::Soft, tiny_cnn(4, &mut rng), 7).unwrap();
//!     InferenceSession::owning(pipeline)
//! })
//! .unwrap();
//! let ticket = service
//!     .submit(0, Arc::new(Tensor::zeros(&[1, 3, 16, 16])))
//!     .unwrap();
//! let verdict = ticket.wait().unwrap();
//! assert!(verdict.class < 4);
//! let report = service.shutdown();
//! assert_eq!(report.admitted, report.resolved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod chaos;
mod config;
mod error;
mod metrics;
mod queue;
/// Public under `--cfg loom` only, so the model suite can drive the
/// slot/ticket protocol directly; sealed in normal builds.
#[cfg(loom)]
pub mod reply;
#[cfg(not(loom))]
mod reply;
mod service;
mod supervisor;
mod worker;

pub use breaker::Admission;
pub use chaos::ChaosPlan;
pub use config::{BreakerConfig, ServeConfig};
pub use error::{Reply, ServeError, ServeResult, Verdict};
pub use leca_core::Precision;
pub use metrics::{LatencyHisto, MetricsSnapshot, ServeMetrics};
pub use reply::Ticket;
pub use service::Service;
