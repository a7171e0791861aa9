//! Worker supervision: panic isolation, session rebuild, joined exits.
//!
//! One supervisor thread per shard (named `leca-serve-N`). The
//! supervisor runs the worker loop under `catch_unwind`; when the loop
//! panics — chaos injection or an organic bug — the in-flight batch has
//! already been answered by the worker's drop guard, so the supervisor
//! just counts the panic, rebuilds the shard's session from the
//! service's factory, re-warms, and re-enters the loop. The deterministic
//! chaos site counter (`WorkerState::seq`) survives the rebuild, so a
//! seeded panic site fires once rather than livelocking the shard.
//!
//! If the *factory itself* fails (panics or errors) during a rebuild,
//! the supervisor cannot serve anymore — but it still must not strand
//! admitted requests or deadlock `shutdown`. It closes its queue, drains
//! it answering `WorkerFailed`, and exits; `Service::shutdown` joins it
//! like any other worker.
//!
//! This file is the serving layer's only thread-spawn site (allowlisted
//! in `leca-audit`); every handle is joined by `Service::shutdown` or
//! `Service::drop` — workers are never detached.

use crate::breaker::Breakers;
use crate::chaos::ChaosPlan;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::queue::ShardQueue;
use crate::worker::{worker_loop, Worker, WorkerState};
use leca_core::InferenceSession;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds a fresh owned session for one shard. Called once at start-up
/// and again after every worker panic.
pub type SessionFactory = Arc<dyn Fn() -> InferenceSession<'static> + Send + Sync>;

/// Spawns the supervisor thread for `shard`. The returned handle MUST be
/// joined (the service's shutdown/drop paths do).
pub(crate) fn spawn_supervisor(
    shard: usize,
    queue: Arc<ShardQueue>,
    factory: SessionFactory,
    cfg: ServeConfig,
    metrics: Arc<ServeMetrics>,
    breakers: Arc<Breakers>,
    chaos: ChaosPlan,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("leca-serve-{shard}"))
        .spawn(move || {
            let worker = Worker {
                shard,
                queue,
                cfg,
                metrics,
                breakers,
                chaos,
            };
            supervise(&worker, &factory);
        })
}

/// The supervision loop: build → warm → serve → (on panic) rebuild.
fn supervise(w: &Worker, factory: &SessionFactory) {
    let mut state = match build_state(w, factory) {
        Some(s) => s,
        None => {
            abandon_shard(w);
            return;
        }
    };

    loop {
        let run = catch_unwind(AssertUnwindSafe(|| worker_loop(w, &mut state)));
        match run {
            // Clean return: queue closed and drained.
            Ok(()) => return,
            Err(_panic) => {
                w.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                state.clear_scratch();
                // The panicked session's internals are suspect; replace
                // it wholesale rather than trusting a reset.
                match rebuild_session(w, factory) {
                    Some(session) => {
                        state.session = session;
                        let warmed = catch_unwind(AssertUnwindSafe(|| state.warm(&w.cfg))).is_ok();
                        if !warmed {
                            abandon_shard(w);
                            return;
                        }
                        w.metrics.session_rebuilds.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        abandon_shard(w);
                        return;
                    }
                }
            }
        }
    }
}

/// Initial state construction + warm-up, panic-safe.
fn build_state(w: &Worker, factory: &SessionFactory) -> Option<WorkerState> {
    let session = rebuild_session(w, factory)?;
    let mut state = WorkerState::new(session, &w.cfg);
    catch_unwind(AssertUnwindSafe(|| state.warm(&w.cfg)))
        .ok()
        .map(|()| state)
}

/// Calls the factory under `catch_unwind`; `None` if it panicked.
fn rebuild_session(_w: &Worker, factory: &SessionFactory) -> Option<InferenceSession<'static>> {
    catch_unwind(AssertUnwindSafe(|| factory())).ok()
}

/// Last-resort teardown when the shard cannot get a working session:
/// close the queue and answer everything queued (and everything racing
/// in) with `WorkerFailed`, so no client blocks forever and shutdown's
/// joins still complete.
fn abandon_shard(w: &Worker) {
    w.queue.close();
    let mut batch = Vec::new();
    let mut expired = Vec::new();
    let mut holdback = Vec::new();
    let now = Instant::now();
    while w.queue.pop_batch(
        &mut batch,
        &mut expired,
        &mut holdback,
        w.cfg.max_batch,
        Duration::ZERO,
    ) {
        for req in expired.drain(..).chain(batch.drain(..)) {
            let failure = Err(ServeError::WorkerFailed {
                reason: "shard abandoned: session factory failed".to_string(),
            });
            req.slot.set(failure, || {
                w.metrics.worker_failed.fetch_add(1, Ordering::Relaxed);
            });
            w.breakers.record(req.tenant, true, now);
        }
    }
}
