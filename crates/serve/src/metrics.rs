//! Lock-free service counters and a log-bucketed latency histogram.
//!
//! Everything here is atomics over preallocated storage: recording an
//! outcome or a latency sample on the warm request path performs no
//! allocation and takes no lock.

// The request path answers with errors, never panics (DESIGN.md "Lints").
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::unimplemented)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets; bucket `i` covers `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also absorbs 0 us), so 40 buckets span beyond
/// 15 minutes.
const BUCKETS: usize = 40;

/// Latency histogram over microsecond samples.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHisto {
    /// Records one sample.
    pub fn record(&self, us: u64) {
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        #[expect(
            clippy::indexing_slicing,
            reason = "`idx` is clamped to `BUCKETS - 1` on the line above"
        )]
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate quantile (`q` in [0, 1]) in microseconds: the
    /// geometric midpoint of the bucket holding the q-th sample. Bucket
    /// resolution is a factor of two, which is plenty for p50/p99 load
    /// curves.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let lo = 1u64 << i;
                // Geometric midpoint of [2^i, 2^(i+1)): 2^i * sqrt(2).
                return (lo as f64 * std::f64::consts::SQRT_2) as u64;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Service-wide counters. All relaxed atomics: totals are exact once the
/// service has quiesced (shutdown joins every worker), monotone
/// approximations while running.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Submissions attempted (admitted or not).
    pub submitted: AtomicU64,
    /// Requests accepted into a shard queue.
    pub admitted: AtomicU64,
    /// Requests answered with a verdict.
    pub completed: AtomicU64,
    /// Requests answered `TimedOut`.
    pub timed_out: AtomicU64,
    /// Requests answered `WorkerFailed`.
    pub worker_failed: AtomicU64,
    /// Submissions rejected with `InvalidInput` at ingress.
    pub invalid_input: AtomicU64,
    /// Submissions shed with `Overloaded` (full queue).
    pub shed_overload: AtomicU64,
    /// Submissions shed with `CircuitOpen`.
    pub shed_breaker: AtomicU64,
    /// Submissions rejected during drain (`ShuttingDown`).
    pub shed_shutdown: AtomicU64,
    /// Worker panics caught by the supervisor.
    pub worker_panics: AtomicU64,
    /// Sessions rebuilt after a panic.
    pub session_rebuilds: AtomicU64,
    /// `classify_batch` calls issued.
    pub batches: AtomicU64,
    /// Requests carried by those batches (ratio = mean batch size).
    pub batched_requests: AtomicU64,
    /// Submit-to-reply latency of completed requests.
    pub latency: LatencyHisto,
}

impl ServeMetrics {
    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ld = Ordering::Relaxed;
        MetricsSnapshot {
            submitted: self.submitted.load(ld),
            admitted: self.admitted.load(ld),
            completed: self.completed.load(ld),
            timed_out: self.timed_out.load(ld),
            worker_failed: self.worker_failed.load(ld),
            invalid_input: self.invalid_input.load(ld),
            shed_overload: self.shed_overload.load(ld),
            shed_breaker: self.shed_breaker.load(ld),
            shed_shutdown: self.shed_shutdown.load(ld),
            retries: 0,
            worker_panics: self.worker_panics.load(ld),
            session_rebuilds: self.session_rebuilds.load(ld),
            batches: self.batches.load(ld),
            batched_requests: self.batched_requests.load(ld),
            p50_us: self.latency.quantile_us(0.50),
            p99_us: self.latency.quantile_us(0.99),
            mean_us: self.latency.mean_us(),
        }
    }
}

/// Plain-old-data snapshot of [`ServeMetrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Submissions attempted (admitted or not).
    pub submitted: u64,
    /// Requests accepted into a shard queue.
    pub admitted: u64,
    /// Requests answered with a verdict.
    pub completed: u64,
    /// Requests answered `TimedOut`.
    pub timed_out: u64,
    /// Requests answered `WorkerFailed`.
    pub worker_failed: u64,
    /// Submissions rejected with `InvalidInput` at ingress.
    pub invalid_input: u64,
    /// Submissions shed with `Overloaded`.
    pub shed_overload: u64,
    /// Submissions shed with `CircuitOpen`.
    pub shed_breaker: u64,
    /// Submissions rejected during drain.
    pub shed_shutdown: u64,
    /// Always 0: a failed batch is never retried. Kept so code that
    /// builds a snapshot by literal still compiles.
    pub retries: u64,
    /// Worker panics caught.
    pub worker_panics: u64,
    /// Sessions rebuilt after a panic.
    pub session_rebuilds: u64,
    /// `classify_batch` calls issued.
    pub batches: u64,
    /// Requests carried by those batches.
    pub batched_requests: u64,
    /// Median submit-to-reply latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile submit-to-reply latency, microseconds.
    pub p99_us: u64,
    /// Mean submit-to-reply latency, microseconds.
    pub mean_us: f64,
}

impl MetricsSnapshot {
    /// Every admitted request must resolve to exactly one of these;
    /// equality is the service's accounting invariant (asserted by the
    /// chaos suite after shutdown).
    pub fn resolved(&self) -> u64 {
        self.completed + self.timed_out + self.worker_failed
    }

    /// Mean requests per `classify_batch` call (0 with no batches).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHisto::default();
        for us in [10u64, 20, 40, 80, 10_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_us(0.5);
        assert!((16..64).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((8192..16384 * 2).contains(&p99), "p99 = {p99}");
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = LatencyHisto::default();
        assert_eq!(h.quantile_us(0.5), 0);
        h.record(0);
        assert!(h.quantile_us(0.5) >= 1);
    }

    #[test]
    fn snapshot_accounting() {
        let m = ServeMetrics::default();
        m.completed.store(3, Ordering::Relaxed);
        m.timed_out.store(2, Ordering::Relaxed);
        m.worker_failed.store(1, Ordering::Relaxed);
        m.batches.store(2, Ordering::Relaxed);
        m.batched_requests.store(6, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.resolved(), 6);
        assert_eq!(s.mean_batch(), 3.0);
    }
}
