//! Timing discipline for the kernel benchmark harness.
//!
//! One place owns the warmup / median-of-N policy so every workload is
//! measured the same way: warm up (fault in buffers, thread pools and
//! branch predictors), then take `samples` wall-clock samples of `iters`
//! calls each and report the median — robust against scheduler noise
//! without heavier variance bookkeeping.

use std::time::Instant;

/// Summary statistics for one timed workload, in nanoseconds per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Median of the per-sample means — the headline number.
    pub median_ns: f64,
    /// Fastest sample (the "clean machine" estimate).
    pub min_ns: f64,
    /// Slowest sample (how noisy the run was).
    pub max_ns: f64,
    /// Number of samples the summary is over.
    pub samples: usize,
    /// Iterations per sample actually executed.
    pub iters: u32,
}

/// Measurement policy: sample count, warmup fraction, and an iteration
/// scale so `--smoke` runs exercise every workload without paying full
/// measurement cost.
#[derive(Debug, Clone, Copy)]
pub struct Profiler {
    /// Wall-clock samples per workload (median taken across these).
    pub samples: usize,
    /// Warmup calls = `iters / warmup_div` (at least one).
    pub warmup_div: u32,
    /// Divides every workload's nominal iteration count (>= 1 after
    /// division); 1 for real measurement runs.
    pub iters_div: u32,
}

impl Profiler {
    /// The measurement policy behind the published numbers: median of 7
    /// samples, quarter-length warmup, full iteration counts.
    pub const fn standard() -> Profiler {
        Profiler {
            samples: 7,
            warmup_div: 4,
            iters_div: 1,
        }
    }

    /// CI smoke policy: every workload still runs end to end (shape
    /// validation, dispatch, output shape), but with 3 samples and a
    /// tenth of the iterations — numbers are printed, never published.
    pub const fn smoke() -> Profiler {
        Profiler {
            samples: 3,
            warmup_div: 8,
            iters_div: 10,
        }
    }

    /// The iteration count this policy actually runs for a workload's
    /// nominal count.
    pub fn effective_iters(&self, nominal: u32) -> u32 {
        (nominal / self.iters_div).max(1)
    }

    /// Times `body` under this policy: warmup, then `samples` samples of
    /// `effective_iters(nominal)` calls each.
    pub fn time(&self, nominal: u32, mut body: impl FnMut()) -> Stats {
        let iters = self.effective_iters(nominal);
        for _ in 0..iters.div_ceil(self.warmup_div).max(1) {
            body();
        }
        let mut per_call: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    body();
                }
                t0.elapsed().as_nanos() as f64 / f64::from(iters)
            })
            .collect();
        per_call.sort_by(|a, b| a.total_cmp(b));
        Stats {
            median_ns: per_call[per_call.len() / 2],
            min_ns: per_call[0],
            max_ns: per_call[per_call.len() - 1],
            samples: per_call.len(),
            iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_iters_respected() {
        let p = Profiler {
            samples: 5,
            warmup_div: 4,
            iters_div: 1,
        };
        let mut n = 0u64;
        let stats = p.time(100, || n = n.wrapping_add(1));
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.max_ns);
        assert_eq!(stats.samples, 5);
        assert_eq!(stats.iters, 100);
        // warmup + 5 samples all ran the body
        assert!(n >= 525);
    }

    #[test]
    fn smoke_scales_iterations_but_never_to_zero() {
        let smoke = Profiler::smoke();
        assert_eq!(smoke.effective_iters(100), 10);
        assert_eq!(smoke.effective_iters(5), 1);
        assert_eq!(smoke.effective_iters(0), 1);
        assert_eq!(Profiler::standard().effective_iters(100), 100);
    }
}
