//! Per-backend measurement driver for the kernel speed table.
//!
//! Runs each [`Workload`] under every requested backend by pinning
//! `LECA_BACKEND` and refreshing the cached dispatch between runs (the
//! same in-process hook the parity suites use). A backend that is not
//! available on this machine yields a row with no stats rather than
//! being silently skipped, so the emitted JSON says *why* a column is
//! empty.

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

/// Pins `LECA_BACKEND` to `name` and refreshes the cached dispatch.
pub fn pin_backend(name: &str) {
    std::env::set_var("LECA_BACKEND", name);
    backend::refresh_backend();
}

/// Clears the pin and restores ambient selection.
pub fn unpin_backend() {
    std::env::remove_var("LECA_BACKEND");
    backend::refresh_backend();
}

/// A measurement plan: one timing policy, one ordered backend list.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The timing policy every row is measured under.
    pub profiler: Profiler,
    /// Backends to pin, in emission order (e.g. scalar, avx2, fastmath).
    pub backends: Vec<&'static str>,
}

impl Harness {
    /// A harness over the given backends with the given policy.
    pub fn new(profiler: Profiler, backends: &[&'static str]) -> Harness {
        Harness {
            profiler,
            backends: backends.to_vec(),
        }
    }

    /// Times one workload under every backend in the plan. Leaves the
    /// backend selection unpinned on return.
    pub fn run(&self, wl: &mut Workload<'_>) -> Vec<KernelRun> {
        let runs = self
            .backends
            .iter()
            .map(|&name| {
                let available = Backend::ALL
                    .iter()
                    .any(|be| be.name() == name && be.available());
                let stats = if available {
                    pin_backend(name);
                    Some(self.profiler.time(wl.iters, || wl.step()))
                } else {
                    None
                };
                KernelRun {
                    workload: wl.name,
                    backend: name,
                    stats,
                }
            })
            .collect();
        unpin_backend();
        runs
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
    fn scalar_is_always_available_and_rows_are_complete() {
        // Scalar-only plan: no env mutation races with other tests in
        // this crate (pin/unpin of a backend that always exists).
        let h = Harness::new(
            Profiler {
                samples: 1,
                warmup_div: 4,
                iters_div: 1,
            },
            &["scalar", "definitely-not-a-backend"],
        );
        let mut wl = Workload::new("noop", 2, || {});
        let runs = h.run(&mut wl);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].backend, "scalar");
        assert!(runs[0].stats.is_some());
        assert!(runs[1].stats.is_none(), "unknown backend must yield null");
        assert_eq!(json_ns(runs[1].stats), "null");
    }
}
