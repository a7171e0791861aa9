//! The service facade: admission control, sharding, and lifecycle.
//!
//! [`Service::start`] spawns one supervised worker per shard, each
//! pinning a warm owned [`leca_core::InferenceSession`] built by the
//! caller's factory. [`Service::submit`] is the multi-producer ingress:
//! it validates the payload, consults the tenant's circuit breaker,
//! routes to the tenant's shard (`tenant % shards`), and either admits
//! the request — returning a [`Ticket`] that resolves to exactly one
//! typed [`Reply`] — or rejects it synchronously with a typed error.
//!
//! Admission order is deliberate: shutdown gate → tenant bounds →
//! payload validation → breaker → queue. A request shed at any gate
//! costs the queue nothing; a NaN payload never reaches a worker; a
//! tripped tenant cannot fill a queue that healthy tenants need.
//!
//! [`Service::shutdown`] drains gracefully: queues close (new pushes are
//! refused with [`ServeError::ShuttingDown`]), workers finish every
//! admitted request, supervisor threads are joined, and the final
//! metrics snapshot is returned. Dropping an un-shut-down service
//! performs the same join — the serving layer never leaks a detached
//! thread.

// The request path answers with errors, never panics (DESIGN.md "Lints").
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::unimplemented)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::breaker::{Admission, Breakers};
use crate::chaos::ChaosPlan;
use crate::config::ServeConfig;
use crate::error::{ServeError, ServeResult};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::queue::{Request, ShardQueue};
use crate::reply::{SlotPool, Ticket};
use crate::supervisor::{spawn_supervisor, SessionFactory};
use leca_core::InferenceSession;
use leca_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running multi-tenant inference service.
pub struct Service {
    cfg: ServeConfig,
    queues: Vec<Arc<ShardQueue>>,
    metrics: Arc<ServeMetrics>,
    breakers: Arc<Breakers>,
    slots: Arc<SlotPool>,
    next_id: AtomicU64,
    draining: AtomicBool,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the service: validates `cfg`, builds the shard queues, and
    /// spawns one supervised worker per shard, each owning a session
    /// from `factory` (called again after any worker panic).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] for invalid configuration or if a
    /// supervisor thread cannot be spawned.
    pub fn start<F>(cfg: ServeConfig, factory: F) -> ServeResult<Service>
    where
        F: Fn() -> InferenceSession<'static> + Send + Sync + 'static,
    {
        Service::start_with_chaos(cfg, factory, ChaosPlan::none())
    }

    /// [`Service::start`] with an explicit [`ChaosPlan`] (tests and the
    /// chaos bench; production callers use `start`, which runs the
    /// no-chaos plan).
    pub fn start_with_chaos<F>(
        cfg: ServeConfig,
        factory: F,
        chaos: ChaosPlan,
    ) -> ServeResult<Service>
    where
        F: Fn() -> InferenceSession<'static> + Send + Sync + 'static,
    {
        cfg.validate()?;
        let factory: SessionFactory = Arc::new(factory);
        let metrics = Arc::new(ServeMetrics::default());
        let breakers = Arc::new(Breakers::new(cfg.max_tenants, cfg.breaker.clone()));
        let queues: Vec<Arc<ShardQueue>> = (0..cfg.shards)
            .map(|s| Arc::new(ShardQueue::new(s, cfg.queue_cap)))
            .collect();
        let mut workers = Vec::with_capacity(cfg.shards);
        for (shard, queue) in queues.iter().enumerate() {
            let handle = spawn_supervisor(
                shard,
                Arc::clone(queue),
                Arc::clone(&factory),
                cfg.clone(),
                Arc::clone(&metrics),
                Arc::clone(&breakers),
                chaos.clone(),
            )
            .map_err(|e| ServeError::BadConfig(format!("failed to spawn worker: {e}")))?;
            workers.push(handle);
        }
        // Enough pooled slots for every queue to be full at once.
        let slots = Arc::new(SlotPool::new(cfg.shards * cfg.queue_cap));
        Ok(Service {
            cfg,
            queues,
            metrics,
            breakers,
            slots,
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            workers,
        })
    }

    /// Submits one single-sample payload for `tenant` under the
    /// configured default deadline.
    ///
    /// # Errors
    ///
    /// Synchronous admission failures: [`ServeError::ShuttingDown`],
    /// [`ServeError::UnknownTenant`], [`ServeError::InvalidInput`],
    /// [`ServeError::CircuitOpen`], [`ServeError::Overloaded`].
    pub fn submit(&self, tenant: u32, payload: Arc<Tensor>) -> ServeResult<Ticket> {
        self.submit_with_deadline(tenant, payload, self.cfg.deadline_us)
    }

    /// [`Service::submit`] with an explicit per-request deadline.
    ///
    /// # Errors
    ///
    /// As [`Service::submit`].
    #[expect(
        clippy::indexing_slicing,
        reason = "`shard` is `tenant % cfg.shards` and one queue exists per shard (config validates `shards >= 1`)"
    )]
    pub fn submit_with_deadline(
        &self,
        tenant: u32,
        payload: Arc<Tensor>,
        deadline_us: u64,
    ) -> ServeResult<Ticket> {
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        if self.draining.load(Ordering::Acquire) {
            self.metrics.shed_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        if tenant >= self.cfg.max_tenants {
            self.metrics.invalid_input.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::UnknownTenant {
                tenant,
                max: self.cfg.max_tenants,
            });
        }
        if let Err(reason) = validate_payload(&payload) {
            self.metrics.invalid_input.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::InvalidInput { reason });
        }
        let now = Instant::now();
        if self.breakers.admit(tenant, now) == Admission::Shed {
            self.metrics.shed_breaker.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::CircuitOpen { tenant });
        }

        let shard = (tenant as usize) % self.cfg.shards;
        let slot = self.slots.get();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request {
            id,
            tenant,
            payload,
            slot: Arc::clone(&slot),
            enqueued_at: now,
            deadline: now + Duration::from_micros(deadline_us),
        };
        match self.queues[shard].try_push(req) {
            Ok(()) => {
                self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket::new(slot, Arc::clone(&self.slots), id))
            }
            Err(e) => {
                match &e {
                    ServeError::Overloaded { .. } => {
                        self.metrics.shed_overload.fetch_add(1, Ordering::Relaxed);
                    }
                    ServeError::ShuttingDown => {
                        self.metrics.shed_shutdown.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                // The rejected request (and its slot clone) was dropped
                // inside try_push; ours is now exclusive and reusable.
                self.slots.recycle(slot);
                Err(e)
            }
        }
    }

    /// Point-in-time metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Graceful drain: stop admitting, let workers finish every admitted
    /// request, join every supervisor thread, and return the final
    /// metrics snapshot. After shutdown,
    /// `admitted == completed + timed_out + worker_failed` — the
    /// accounting invariant the chaos suite asserts.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain_and_join();
        self.metrics.snapshot()
    }

    fn drain_and_join(&mut self) {
        self.draining.store(true, Ordering::Release);
        for q in &self.queues {
            q.close();
        }
        for handle in self.workers.drain(..) {
            // A panic escaping a supervisor would be a bug (supervisors
            // catch worker panics); surface it instead of hiding it.
            if let Err(p) = handle.join() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // `shutdown` already drained; this covers direct drops so worker
        // threads are joined, never detached.
        if !self.workers.is_empty() {
            self.drain_and_join();
        }
    }
}

/// Ingress payload validation: single sample, finite values.
#[expect(
    clippy::indexing_slicing,
    reason = "the emptiness check guarantees rank >= 1 before `shape[0]`"
)]
fn validate_payload(payload: &Tensor) -> Result<(), String> {
    let shape = payload.shape();
    if shape.is_empty() || payload.as_slice().is_empty() {
        return Err("empty payload".to_string());
    }
    if shape[0] != 1 {
        return Err(format!(
            "payload must be a single sample with leading batch dim 1, got {shape:?}"
        ));
    }
    if let Some(idx) = payload.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(format!("non-finite value at element {idx}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_validation_rejects_bad_shapes_and_nans() {
        assert!(validate_payload(&Tensor::zeros(&[1, 4])).is_ok());
        assert!(validate_payload(&Tensor::zeros(&[2, 4])).is_err());
        assert!(validate_payload(&Tensor::zeros(&[1, 0])).is_err());
        let mut t = Tensor::zeros(&[1, 4]);
        t.as_mut_slice()[2] = f32::NAN;
        let err = validate_payload(&t).unwrap_err();
        assert!(err.contains("element 2"), "{err}");
        let mut t = Tensor::zeros(&[1, 4]);
        t.as_mut_slice()[0] = f32::INFINITY;
        assert!(validate_payload(&t).is_err());
    }
}
