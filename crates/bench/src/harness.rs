//! Per-backend measurement driver for the kernel speed table.
//!
//! Runs each [`Workload`] under every requested backend, each column
//! inside [`backend::with_backend`] (the same scoped setter the parity
//! suites use). A backend that is not available on this machine yields a
//! row with no stats rather than being silently skipped, so the emitted
//! JSON says *why* a column is empty.

use crate::profiler::{Profiler, Stats};
use crate::workload::Workload;
use leca_tensor::backend::{self, Backend};

/// One (workload, backend) measurement.
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    /// The workload's stable name.
    pub workload: &'static str,
    /// Backend the row ran under.
    pub backend: &'static str,
    /// `None` when the backend is not available on this machine.
    pub stats: Option<Stats>,
}

/// A measurement plan: one timing policy, one ordered backend list.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The timing policy every row is measured under.
    pub profiler: Profiler,
    /// Backends to run, in emission order (e.g. scalar, avx2, fastmath).
    pub backends: Vec<Backend>,
}

impl Harness {
    /// A harness over the given backends with the given policy.
    pub fn new(profiler: Profiler, backends: &[Backend]) -> Harness {
        Harness {
            profiler,
            backends: backends.to_vec(),
        }
    }

    /// Times one workload under every backend in the plan. The backend
    /// selection is back to what it was on return.
    pub fn run(&self, wl: &mut Workload<'_>) -> Vec<KernelRun> {
        self.backends
            .iter()
            .map(|&be| KernelRun {
                workload: wl.name,
                backend: be.name(),
                stats: be.available().then(|| {
                    backend::with_backend(be, || self.profiler.time(wl.iters, || wl.step()))
                }),
            })
            .collect()
    }

    /// Times every workload; rows are grouped by workload in plan order.
    pub fn run_all(&self, workloads: &mut [Workload<'_>]) -> Vec<KernelRun> {
        workloads.iter_mut().flat_map(|wl| self.run(wl)).collect()
    }
}

/// Renders an optional nanosecond figure for JSON (`null` when the
/// backend column is empty on this machine).
pub fn json_ns(stats: Option<Stats>) -> String {
    match stats {
        Some(s) => format!("{:.1}", s.median_ns),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::Profiler;

    #[test]
    fn rows_are_complete_and_unavailable_backends_yield_null() {
        let h = Harness::new(
            Profiler {
                samples: 1,
                warmup_div: 4,
                iters_div: 1,
            },
            &Backend::ALL,
        );
        let mut wl = Workload::new("noop", 2, || {});
        let runs = h.run(&mut wl);
        assert_eq!(runs.len(), Backend::ALL.len());
        assert_eq!(runs[0].backend, "scalar");
        for (run, be) in runs.iter().zip(Backend::ALL) {
            assert_eq!(run.backend, be.name());
            assert_eq!(run.stats.is_some(), be.available(), "{}", be.name());
            if !be.available() {
                assert_eq!(json_ns(run.stats), "null");
            }
        }
    }
}
