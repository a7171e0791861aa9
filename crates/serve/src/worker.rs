//! The shard worker: batch assembly, execution, and the
//! answer-exactly-once guarantee.
//!
//! Each shard pins one warm owned [`InferenceSession`] to one worker.
//! The worker pulls coalesced batches from its [`ShardQueue`], copies
//! the (same-shape) payloads into a cached batch tensor, and runs
//! `classify_batch_with` once, replying to every rider exactly once. A
//! model error fails the batch without a retry: the session is
//! deterministic, so the same call on the same batch fails the same way.
//!
//! The load-bearing piece is [`Pending`]: a drop guard wrapping the
//! in-flight batch. However execution ends — success, a model error,
//! or a chaos-injected panic unwinding straight through this module —
//! every request in the batch receives a typed reply, because `Drop`
//! answers whatever `complete`/`fail` did not. The supervisor only has
//! to catch the unwind and rebuild the session; no request is ever lost.
//!
//! Warm-path allocation: batch tensors are cached per shape, the preds
//! vector is reused, and scratch vectors live in [`WorkerState`] across
//! iterations. After [`WorkerState::warm`] the steady-state loop
//! performs no allocation (pinned by `tests/serve_alloc.rs`).

use crate::breaker::Breakers;
use crate::chaos::ChaosPlan;
use crate::config::ServeConfig;
use crate::error::{Reply, ServeError, Verdict};
use crate::metrics::ServeMetrics;
use crate::queue::{Request, ShardQueue};
use leca_core::{InferenceSession, Precision};
use leca_tensor::Tensor;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Immutable per-worker wiring (shared handles and policy).
pub(crate) struct Worker {
    pub shard: usize,
    pub queue: Arc<ShardQueue>,
    pub cfg: ServeConfig,
    pub metrics: Arc<ServeMetrics>,
    pub breakers: Arc<Breakers>,
    pub chaos: ChaosPlan,
}

/// Mutable worker state. Survives panics *by value* in the supervisor
/// frame: after an unwind the supervisor rebuilds `session`, clears the
/// scratch, and re-enters the loop — `seq` keeps counting so a
/// deterministic chaos panic site is not revisited forever.
pub(crate) struct WorkerState {
    pub session: InferenceSession<'static>,
    /// Batch input tensors, cached by exact shape (cold-path insert).
    batch_cache: Vec<Tensor>,
    preds: Vec<usize>,
    batch: Vec<Request>,
    expired: Vec<Request>,
    holdback: Vec<Request>,
    /// Monotone batch counter; the chaos site index.
    pub seq: u64,
}

impl WorkerState {
    pub(crate) fn new(session: InferenceSession<'static>, cfg: &ServeConfig) -> Self {
        WorkerState {
            session,
            batch_cache: Vec::with_capacity(cfg.max_batch),
            preds: Vec::with_capacity(cfg.max_batch),
            batch: Vec::with_capacity(cfg.max_batch),
            expired: Vec::with_capacity(cfg.queue_cap),
            holdback: Vec::with_capacity(cfg.queue_cap),
            seq: 0,
        }
    }

    /// Drops any half-processed scratch after a panic. Requests still in
    /// the scratch were already answered by the [`Pending`] drop guard,
    /// so clearing is bookkeeping, not loss.
    pub(crate) fn clear_scratch(&mut self) {
        self.batch.clear();
        self.expired.clear();
        self.holdback.clear();
        self.preds.clear();
    }

    /// Pre-populates the batch-tensor cache and the session's workspace
    /// for every batch size up to `max_batch` at `warm_shape`, so the
    /// steady-state loop never allocates. Called at start-up and after
    /// every session rebuild.
    pub(crate) fn warm(&mut self, cfg: &ServeConfig) {
        let Some(shape) = cfg.warm_shape.clone() else {
            return;
        };
        // `warm_shape` is the payload shape clients submit (`[1, ...]`);
        // the per-sample part is everything after the batch dim.
        let sample = if shape.len() > 1 {
            &shape[1..] // PANIC-OK: guarded by `shape.len() > 1`.
        } else {
            &shape[..] // PANIC-OK: a full-range slice is always in bounds.
        };
        for b in 1..=cfg.max_batch {
            let input = cached_batch(&mut self.batch_cache, b, sample);
            input.fill(0.0);
            // Warm-up classifications also double as a health check: a
            // broken rebuild panics here, inside the supervisor's catch.
            if let Err(e) = self.session.classify_batch(input, &mut self.preds) {
                // PANIC-OK: warm-up is the pre-traffic health check; the
                // supervisor catches this unwind and rebuilds the worker.
                panic!("session warm-up failed at batch size {b}: {e}");
            }
            // When the session carries a quantized engine, pre-grow its
            // scratch too: any tenant may be routed to the int8 path.
            if self.session.int8_ready() {
                if let Err(e) =
                    self.session
                        .classify_batch_with(input, &mut self.preds, Precision::Int8)
                {
                    // PANIC-OK: same pre-traffic health-check contract as
                    // the f32 warm-up panic above.
                    panic!("int8 warm-up failed at batch size {b}: {e}");
                }
            }
        }
    }
}

/// The cached batch tensor of shape `[n, sample...]`, inserting on miss.
fn cached_batch<'c>(cache: &'c mut Vec<Tensor>, n: usize, sample: &[usize]) -> &'c mut Tensor {
    let pos = cache
        .iter()
        // PANIC-OK: `first() == Some(..)` proves rank >= 1 before `[1..]`.
        .position(|t| t.shape().first() == Some(&n) && &t.shape()[1..] == sample);
    let idx = match pos {
        Some(i) => i,
        None => {
            let mut shape = Vec::with_capacity(sample.len() + 1);
            shape.push(n);
            shape.extend_from_slice(sample);
            cache.push(Tensor::zeros(&shape));
            cache.len() - 1
        }
    };
    // PANIC-OK: `idx` is a found position or `len - 1` right after a push.
    &mut cache[idx]
}

/// Drop guard over the in-flight batch: whatever execution does not
/// answer, `Drop` answers with a typed `WorkerFailed`.
struct Pending<'a> {
    batch: &'a mut Vec<Request>,
    metrics: &'a ServeMetrics,
    breakers: &'a Breakers,
    worker: usize,
}

impl Pending<'_> {
    /// Answers every rider with its verdict and records successes.
    fn complete(&mut self, preds: &[usize]) {
        let n = self.batch.len();
        let now = Instant::now();
        for (req, &class) in self.batch.drain(..).zip(preds) {
            let waited = now.saturating_duration_since(req.enqueued_at);
            let verdict = Ok(Verdict {
                class,
                worker: self.worker,
                batch_size: n,
            });
            req.slot.set(verdict, || {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                self.metrics.latency.record(waited.as_micros() as u64);
            });
            self.breakers.record(req.tenant, false, now);
        }
    }

    /// Answers every rider with `WorkerFailed(reason)` and records the
    /// failures against the tenant's breaker.
    fn fail(&mut self, reason: &str) {
        let now = Instant::now();
        for req in self.batch.drain(..) {
            let failure = Err(ServeError::WorkerFailed {
                reason: reason.to_string(),
            });
            req.slot.set(failure, || {
                self.metrics.worker_failed.fetch_add(1, Ordering::Relaxed);
            });
            self.breakers.record(req.tenant, true, now);
        }
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        // Non-empty only when execution unwound mid-batch.
        self.fail("worker panicked mid-batch");
    }
}

/// Answers `TimedOut` to requests the batcher expired at pop time.
fn answer_expired(expired: &mut Vec<Request>, metrics: &ServeMetrics) {
    let now = Instant::now();
    for req in expired.drain(..) {
        let waited = now.saturating_duration_since(req.enqueued_at);
        let reply: Reply = Err(ServeError::TimedOut {
            waited_us: waited.as_micros() as u64,
        });
        req.slot.set(reply, || {
            metrics.timed_out.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// The worker's main loop. Returns when the queue is closed and drained;
/// unwinds on an injected or organic panic (the supervisor catches it,
/// the [`Pending`] guard has already answered the batch).
pub(crate) fn worker_loop(w: &Worker, st: &mut WorkerState) {
    let linger = Duration::from_micros(w.cfg.linger_us);
    loop {
        let live = w.queue.pop_batch(
            &mut st.batch,
            &mut st.expired,
            &mut st.holdback,
            w.cfg.max_batch,
            linger,
        );
        answer_expired(&mut st.expired, &w.metrics);
        if !live {
            return;
        }
        if st.batch.is_empty() {
            continue;
        }

        let seq = st.seq;
        st.seq = st.seq.wrapping_add(1);

        if let Some(us) = w.chaos.latency_spike(w.shard, seq) {
            std::thread::sleep(Duration::from_micros(us));
        }

        // Split borrows: the batch tensor comes from the cache while the
        // session and the pending guard hold the other fields.
        let WorkerState {
            session,
            batch_cache,
            preds,
            batch,
            ..
        } = st;

        let n = batch.len();
        // Batches never mix tenants, so one precision covers the batch.
        // PANIC-OK: execution only runs on non-empty batches (the drain
        // loop skips empty ones), so `batch[0]` exists.
        let precision = w.cfg.precision_for(batch[0].tenant);
        // PANIC-OK: ingress validation rejects rank-0 payloads, so `[1..]`
        // is in bounds for every admitted request.
        let sample = &batch[0].payload.shape()[1..];
        let sample_len: usize = sample.iter().product();
        let input = cached_batch(batch_cache, n, sample);
        {
            let rows = input.as_mut_slice();
            for (i, req) in batch.iter().enumerate() {
                // PANIC-OK: `input` is `[n, sample..]` with `n = len()`, so
                // row `i < n` spans exactly `sample_len` in-bounds elements.
                rows[i * sample_len..(i + 1) * sample_len].copy_from_slice(req.payload.as_slice());
            }
        }

        let mut pending = Pending {
            batch,
            metrics: &w.metrics,
            breakers: &w.breakers,
            worker: w.shard,
        };

        w.metrics.batches.fetch_add(1, Ordering::Relaxed);
        w.metrics
            .batched_requests
            .fetch_add(n as u64, Ordering::Relaxed);

        if w.chaos.worker_panics(w.shard, seq) {
            // Unwinds through `pending`, which answers the whole batch.
            // PANIC-OK: deliberate fault injection exercising exactly that
            // unwind path; only fires under a chaos-enabled config.
            panic!(
                "chaos: injected panic on worker {} (batch seq {seq})",
                w.shard
            );
        }

        match session.classify_batch_with(input, preds, precision) {
            Ok(()) => pending.complete(preds),
            Err(e) => pending.fail(&e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::ReplySlot;

    fn mk_req(id: u64, tenant: u32, shape: &[usize]) -> Request {
        Request {
            id,
            tenant,
            payload: Arc::new(Tensor::zeros(shape)),
            slot: Arc::new(ReplySlot::default()),
            enqueued_at: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(10),
        }
    }

    #[test]
    fn cached_batch_reuses_by_shape() {
        let mut cache = Vec::new();
        let p1 = cached_batch(&mut cache, 2, &[3, 4]).as_mut_slice().as_ptr();
        let _ = cached_batch(&mut cache, 4, &[3, 4]);
        let p2 = cached_batch(&mut cache, 2, &[3, 4]).as_mut_slice().as_ptr();
        assert_eq!(p1, p2, "same shape must hit the same cached tensor");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn pending_drop_answers_the_whole_batch() {
        let metrics = ServeMetrics::default();
        let breakers = Breakers::new(4, crate::config::BreakerConfig::default());
        let mut batch = vec![mk_req(0, 1, &[1, 4]), mk_req(1, 2, &[1, 4])];
        let slots: Vec<_> = batch.iter().map(|r| Arc::clone(&r.slot)).collect();
        {
            let _pending = Pending {
                batch: &mut batch,
                metrics: &metrics,
                breakers: &breakers,
                worker: 0,
            };
            // Dropped without complete/fail — simulates an unwind.
        }
        for slot in &slots {
            assert!(slot.is_set(), "drop guard must answer every rider");
        }
        assert_eq!(metrics.worker_failed.load(Ordering::Relaxed), 2);
        assert!(batch.is_empty());
    }

    #[test]
    fn pending_complete_reports_batch_size_and_latency() {
        let metrics = ServeMetrics::default();
        let breakers = Breakers::new(4, crate::config::BreakerConfig::default());
        let mut batch = vec![mk_req(0, 1, &[1, 4]), mk_req(1, 1, &[1, 4])];
        let slots: Vec<_> = batch.iter().map(|r| Arc::clone(&r.slot)).collect();
        let mut pending = Pending {
            batch: &mut batch,
            metrics: &metrics,
            breakers: &breakers,
            worker: 3,
        };
        pending.complete(&[5, 9]);
        drop(pending);
        let mut got = Vec::new();
        for slot in &slots {
            // Re-arm a read: set() after take is a fresh write, so peek
            // via is_set + a direct take through a throwaway guard.
            assert!(slot.is_set());
            got.push(slot);
        }
        assert_eq!(metrics.completed.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.latency.count(), 2);
    }
}
