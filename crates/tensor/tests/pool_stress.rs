//! Thread-pool lifecycle and data-race stress tests.
//!
//! This file is the designated target of the CI ThreadSanitizer job (and
//! runs under the native suite on every push): it hammers the
//! spawn → submit → drop path of [`WorkerPool`] so a detached worker, a
//! missed wakeup, or a racy queue would surface as a hang, a TSan report,
//! or a wrong sum. The shutdown-hygiene guarantee under test: dropping a
//! pool (or calling [`shutdown_global_pool`]) *joins* every worker — no
//! thread may outlive the pool that spawned it.

use leca_tensor::parallel::{
    num_threads, pool_run, refresh_num_threads, shutdown_global_pool, WorkerPool,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn iters(native: usize, miri: usize) -> usize {
    if cfg!(miri) {
        miri
    } else {
        native
    }
}

/// The satellite's core loop: construct a pool, submit work, drop it —
/// repeatedly. Every drop must join the workers, so thread count cannot
/// grow without bound and no closure runs after its pool is gone.
#[test]
fn spawn_submit_drop_loop_joins_every_worker() {
    for round in 0..iters(20, 3) {
        let pool = WorkerPool::new();
        let hits = AtomicUsize::new(0);
        let chunks = 8 + round % 5;
        pool.run(chunks, 4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), chunks);
        assert!(pool.worker_count() > 0, "run(.., 4, ..) must spawn helpers");
        drop(pool); // must block until all workers have exited
    }
}

/// Back-to-back submissions on one pool, with worker counts crossing the
/// ensure-workers growth path, all results checked exactly.
#[test]
fn repeated_submissions_reuse_joined_pool() {
    let pool = WorkerPool::new();
    for threads in [1, 2, 4, 3, 4] {
        for n in [1usize, 7, 32] {
            let sum = AtomicUsize::new(0);
            pool.run(n, threads, |w| {
                sum.fetch_add(w + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }
    pool.shutdown();
    assert_eq!(pool.worker_count(), 0);
    // A shutdown pool revives on the next submission.
    let revived = AtomicUsize::new(0);
    pool.run(5, 2, |_| {
        revived.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(revived.load(Ordering::Relaxed), 5);
}

/// Several threads driving the *global* pool at once: chunk claiming is
/// per-job, so concurrent `pool_run` calls must each see all their own
/// chunks exactly once (TSan watches the queue handoff).
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_THREADS and spawns caller threads to race the pool"
)]
fn concurrent_pool_run_from_many_threads() {
    std::env::set_var("LECA_THREADS", "4");
    refresh_num_threads();
    assert_eq!(num_threads(), 4);

    let drivers = 4;
    let per_driver = iters(25, 3);
    let total = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..drivers)
        .map(|_| {
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for _ in 0..per_driver {
                    let local = AtomicUsize::new(0);
                    pool_run(16, |w| {
                        local.fetch_add(w, Ordering::Relaxed);
                    });
                    assert_eq!(local.load(Ordering::Relaxed), (0..16).sum::<usize>());
                    total.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total.load(Ordering::Relaxed), drivers * per_driver);

    // Global-pool shutdown hygiene: joins workers, then revives on reuse.
    shutdown_global_pool();
    let after = AtomicUsize::new(0);
    pool_run(8, |_| {
        after.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(after.load(Ordering::Relaxed), 8);
}

/// Disjoint mutable row slices under load: every row written by exactly
/// the worker that owns it, verified against a serial reference. This is
/// the `par_rows_mut` `unsafe` (SendPtr + from_raw_parts_mut) under TSan.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "pins LECA_THREADS so the pool has workers to race"
)]
fn par_rows_mut_stress_is_exact_and_race_free() {
    std::env::set_var("LECA_THREADS", "4");
    refresh_num_threads();

    let rows = 64;
    let row_len = 33;
    for round in 0..iters(10, 2) {
        let mut out = vec![0.0f32; rows * row_len];
        leca_tensor::parallel::par_rows_mut(&mut out, rows, row_len, 1, |range, chunk| {
            for (i, r) in range.clone().enumerate() {
                for c in 0..row_len {
                    chunk[i * row_len + c] = (round + r * row_len + c) as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(out[r * row_len + c], (round + r * row_len + c) as f32);
            }
        }
    }
}
