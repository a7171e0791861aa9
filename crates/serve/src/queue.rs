//! Bounded per-shard request queues with an embedded dynamic batcher.
//!
//! Each shard owns one [`ShardQueue`]. Producers push with
//! [`ShardQueue::try_push`], which *rejects* (typed
//! [`ServeError::Overloaded`]) instead of growing when the queue is at
//! capacity — backpressure is explicit, memory is bounded. The shard's
//! worker pulls with [`ShardQueue::pop_batch`], which coalesces up to
//! `max_batch` queued requests from the *same tenant with the same
//! payload shape* into one batch (so a single `classify_batch` call
//! serves them all), optionally lingering briefly for stragglers when
//! the batch is not yet full.
//!
//! Deadlines are enforced lazily at pop time: a request whose deadline
//! has already passed is moved to the caller's `expired` list and never
//! occupies a batch slot. All scratch storage (`batch`, `expired`,
//! `holdback`) is caller-owned and reused across pops, so the warm path
//! does not allocate.

// The request path answers with errors, never panics (DESIGN.md "Lints").
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::unimplemented)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::error::{ServeError, ServeResult};
use crate::reply::ReplySlot;
use leca_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted request, queued on its tenant's shard.
#[derive(Debug)]
pub struct Request {
    /// Unique (per service instance) request id. Mirrored on the
    /// client's `Ticket`; carried here for `Debug` output and test
    /// assertions rather than read on the serving path.
    #[allow(dead_code)]
    pub id: u64,
    /// Owning tenant; batches never mix tenants.
    pub tenant: u32,
    /// Single-sample payload (leading batch dim 1). Shared, not copied:
    /// cloning the `Arc` on the hot path is alloc-free.
    pub payload: Arc<Tensor>,
    /// Where the (exactly one) reply will be delivered.
    pub slot: Arc<ReplySlot>,
    /// Admission timestamp, for latency accounting.
    pub enqueued_at: Instant,
    /// Hard deadline; at expiry the request is answered `TimedOut`.
    pub deadline: Instant,
}

#[derive(Debug)]
struct Inner {
    q: VecDeque<Request>,
    closed: bool,
}

/// A bounded MPSC request queue for one shard.
#[derive(Debug)]
pub struct ShardQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    cap: usize,
    shard: usize,
}

impl ShardQueue {
    /// A queue for `shard` holding at most `cap` requests.
    pub fn new(shard: usize, cap: usize) -> Self {
        ShardQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(cap),
                closed: false,
            }),
            nonempty: Condvar::new(),
            cap,
            shard,
        }
    }

    /// Admits `req` or rejects it without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity,
    /// [`ServeError::ShuttingDown`] once [`ShardQueue::close`] has run.
    pub fn try_push(&self, req: Request) -> ServeResult<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.q.len() >= self.cap {
            return Err(ServeError::Overloaded {
                shard: self.shard,
                depth: inner.q.len(),
            });
        }
        inner.q.push_back(req);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Closes the queue: subsequent pushes fail with `ShuttingDown`;
    /// already-admitted requests remain poppable (drain semantics).
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.nonempty.notify_all();
    }

    /// Current depth (test hook).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).q.len()
    }

    /// True when no requests are queued (test hook).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pulls the next batch for this shard's worker.
    ///
    /// Clears and refills the caller's scratch vectors: `batch` receives
    /// up to `max_batch` same-tenant same-shape requests (FIFO seeded by
    /// the oldest live request); `expired` receives every request whose
    /// deadline had already passed when scanned. Requests matching
    /// neither stay queued in their original order. When the batch comes
    /// back short and `linger` is nonzero, the call waits up to `linger`
    /// (capped by the batch's earliest deadline) for stragglers and
    /// gathers once more.
    ///
    /// Blocks while the queue is empty and open. Returns `false` only
    /// when the queue is closed *and* fully drained — the worker's signal
    /// to exit. A `true` return with two empty lists is a spurious wake;
    /// callers just loop.
    pub fn pop_batch(
        &self,
        batch: &mut Vec<Request>,
        expired: &mut Vec<Request>,
        holdback: &mut Vec<Request>,
        max_batch: usize,
        linger: Duration,
    ) -> bool {
        batch.clear();
        expired.clear();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !inner.q.is_empty() {
                break;
            }
            if inner.closed {
                return false;
            }
            inner = self.nonempty.wait(inner).unwrap_or_else(|e| e.into_inner());
        }

        Self::gather(&mut inner, batch, expired, holdback, max_batch);

        // Linger for stragglers only when a real batch is forming and has
        // room; the wait is capped so no batched request can expire while
        // we hold it.
        if !batch.is_empty() && batch.len() < max_batch && !inner.closed && !linger.is_zero() {
            let now = Instant::now();
            let earliest = batch
                .iter()
                .map(|r| r.deadline)
                .min()
                .unwrap_or(now + linger);
            let cap = earliest.saturating_duration_since(now).min(linger);
            if !cap.is_zero() {
                let (guard, _) = self
                    .nonempty
                    .wait_timeout(inner, cap)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                Self::gather(&mut inner, batch, expired, holdback, max_batch);
            }
        }
        true
    }

    /// One gather pass under the lock: extends `batch` (seeding it from
    /// the oldest live request if empty) and `expired`, leaving
    /// non-matching requests queued in order. `holdback` is scratch.
    fn gather(
        inner: &mut Inner,
        batch: &mut Vec<Request>,
        expired: &mut Vec<Request>,
        holdback: &mut Vec<Request>,
        max_batch: usize,
    ) {
        let now = Instant::now();
        holdback.clear();
        while let Some(req) = inner.q.pop_front() {
            if req.deadline <= now {
                expired.push(req);
                continue;
            }
            if batch.len() >= max_batch {
                holdback.push(req);
                break; // the tail is untouched; order is preserved below
            }
            let matches = batch.first().is_none_or(|seed: &Request| {
                seed.tenant == req.tenant && seed.payload.shape() == req.payload.shape()
            });
            if matches {
                batch.push(req);
            } else {
                holdback.push(req);
            }
        }
        // Restore held-back requests ahead of the untouched tail, in
        // their original order.
        while let Some(req) = holdback.pop() {
            inner.q.push_front(req);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests spawn producer and consumer threads to race the queue"
)]
mod tests {
    use super::*;

    fn req(id: u64, tenant: u32, shape: &[usize], deadline: Instant) -> Request {
        Request {
            id,
            tenant,
            payload: Arc::new(Tensor::zeros(shape)),
            slot: Arc::new(ReplySlot::default()),
            enqueued_at: Instant::now(),
            deadline,
        }
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    fn pop(q: &ShardQueue, max_batch: usize) -> (Vec<Request>, Vec<Request>, bool) {
        let (mut b, mut e, mut h) = (Vec::new(), Vec::new(), Vec::new());
        let live = q.pop_batch(&mut b, &mut e, &mut h, max_batch, Duration::ZERO);
        (b, e, live)
    }

    #[test]
    fn rejects_when_full_with_depth() {
        let q = ShardQueue::new(3, 2);
        q.try_push(req(0, 0, &[1, 4], far())).unwrap();
        q.try_push(req(1, 0, &[1, 4], far())).unwrap();
        match q.try_push(req(2, 0, &[1, 4], far())) {
            Err(ServeError::Overloaded { shard: 3, depth: 2 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn close_rejects_pushes_but_drains_pops() {
        let q = ShardQueue::new(0, 4);
        q.try_push(req(0, 0, &[1, 4], far())).unwrap();
        q.close();
        assert!(matches!(
            q.try_push(req(1, 0, &[1, 4], far())),
            Err(ServeError::ShuttingDown)
        ));
        let (batch, expired, live) = pop(&q, 8);
        assert!(live);
        assert_eq!(batch.len(), 1);
        assert!(expired.is_empty());
        // Fully drained + closed => worker exit signal.
        let (batch, _, live) = pop(&q, 8);
        assert!(!live);
        assert!(batch.is_empty());
    }

    #[test]
    fn coalesces_same_tenant_same_shape_in_fifo_order() {
        let q = ShardQueue::new(0, 16);
        for id in 0..3 {
            q.try_push(req(id, 7, &[1, 4], far())).unwrap();
        }
        let (batch, _, live) = pop(&q, 8);
        assert!(live);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn never_mixes_tenants_or_shapes_and_preserves_order() {
        let q = ShardQueue::new(0, 16);
        q.try_push(req(0, 1, &[1, 4], far())).unwrap();
        q.try_push(req(1, 2, &[1, 4], far())).unwrap();
        q.try_push(req(2, 1, &[1, 8], far())).unwrap();
        q.try_push(req(3, 1, &[1, 4], far())).unwrap();
        // Seed = id 0 (tenant 1, [1,4]); id 3 matches; ids 1 and 2 do not.
        let (batch, _, _) = pop(&q, 8);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 3]);
        // Held-back requests come out next, still FIFO.
        let (batch, _, _) = pop(&q, 8);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [1]);
        let (batch, _, _) = pop(&q, 8);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn max_batch_caps_the_gather() {
        let q = ShardQueue::new(0, 16);
        for id in 0..5 {
            q.try_push(req(id, 0, &[1, 4], far())).unwrap();
        }
        let (batch, _, _) = pop(&q, 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn expired_requests_never_occupy_batch_slots() {
        let q = ShardQueue::new(0, 16);
        let past = Instant::now() - Duration::from_millis(1);
        q.try_push(req(0, 0, &[1, 4], past)).unwrap();
        q.try_push(req(1, 0, &[1, 4], far())).unwrap();
        q.try_push(req(2, 0, &[1, 4], past)).unwrap();
        let (batch, expired, live) = pop(&q, 8);
        assert!(live);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [1]);
        let mut ex: Vec<_> = expired.iter().map(|r| r.id).collect();
        ex.sort_unstable();
        assert_eq!(ex, [0, 2]);
    }

    #[test]
    fn linger_picks_up_stragglers() {
        let q = Arc::new(ShardQueue::new(0, 16));
        q.try_push(req(0, 0, &[1, 4], far())).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            q2.try_push(req(1, 0, &[1, 4], far())).unwrap();
        });
        let (mut b, mut e, mut h) = (Vec::new(), Vec::new(), Vec::new());
        let live = q.pop_batch(&mut b, &mut e, &mut h, 8, Duration::from_millis(250));
        pusher.join().unwrap();
        assert!(live);
        assert_eq!(b.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn pop_blocks_until_push_arrives() {
        let q = Arc::new(ShardQueue::new(0, 4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || pop(&q2, 8));
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(req(9, 0, &[1, 4], far())).unwrap();
        let (batch, _, live) = popper.join().unwrap();
        assert!(live);
        assert_eq!(batch[0].id, 9);
    }
}
