//! Data-parallel helpers on a **persistent worker pool**.
//!
//! The training stack's hot loops (GEMM, im2col packing) are embarrassingly
//! parallel over disjoint output tiles, but they are also *small*: a single
//! conv layer's GEMM lasts tens of microseconds, so spawning OS threads per
//! call (the old `crossbeam::scope` design) paid more for thread creation
//! than for the math. The pool here is spawned once, lazily, and fed
//! through a job queue; per-call overhead is one enqueue plus a condvar
//! wait.
//!
//! # Determinism
//!
//! Work is split into chunks by **chunk index**, and the chunk → data
//! mapping depends only on the problem size and [`num_threads`] — never on
//! which worker happens to run a chunk. Kernels built on these helpers
//! (see [`crate::ops::matmul`]) additionally keep a fixed per-element
//! reduction order, so results are bit-identical across thread counts.
//!
//! # Shutdown hygiene
//!
//! Workers are **joinable, never detached**: every [`WorkerPool`] keeps its
//! `JoinHandle`s and joins them when dropped (or when
//! [`WorkerPool::shutdown`] is called), after raising a shutdown flag the
//! worker loop observes between jobs. The process-wide pool behind
//! [`pool_run`] lives in a static and so is not dropped by Rust; call
//! [`shutdown_global_pool`] to join its workers explicitly (e.g. before a
//! sanitizer-checked process exits). The pool revives transparently on the
//! next [`pool_run`] after a shutdown.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

// Under `--cfg loom` the sync primitives come from the loom shim so the
// model-checking suite (`crates/tensor/tests/loom_pool.rs`) can explore
// every interleaving of the handoff/shutdown protocol. `cfg(loom)` is a
// verification build only — normal builds compile against std directly.
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex};
#[cfg(loom)]
use loom::thread::{Builder as ThreadBuilder, JoinHandle};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::OnceLock;
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex};
#[cfg(not(loom))]
use std::thread::{Builder as ThreadBuilder, JoinHandle};

/// Returns the number of worker threads to use.
///
/// Defaults to the machine's available parallelism, capped at 8 (beyond
/// which the small matrices in this workspace stop scaling). Honors the
/// `LECA_THREADS` environment variable when set to a positive integer.
///
/// # Semantics
///
/// The value is computed **once per process** on first use and cached:
/// later changes to `LECA_THREADS` are intentionally ignored so that a
/// long-running training job cannot change parallelism (and perf
/// characteristics) mid-flight because some library touched the
/// environment. Tests that need to flip thread counts within one process
/// must call [`refresh_num_threads`] after changing the variable.
pub fn num_threads() -> usize {
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = read_thread_env();
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Re-reads `LECA_THREADS` and replaces the cached thread count.
///
/// This is the test hook for the once-per-process caching of
/// [`num_threads`]: determinism tests set `LECA_THREADS=1`, run a
/// workload, then set `LECA_THREADS=8` and call this to re-run the same
/// workload threaded in the same process. Returns the new count.
pub fn refresh_num_threads() -> usize {
    let n = read_thread_env();
    CACHED.store(n, Ordering::Relaxed);
    n
}

static CACHED: AtomicUsize = AtomicUsize::new(0);

fn read_thread_env() -> usize {
    // `positive_u64` already rejects zero, garbage, and empty values; any
    // such error falls back to auto-detection rather than aborting.
    crate::runtime_env::positive_u64("LECA_THREADS")
        .ok()
        .map(|v| v as usize)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8)
        })
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// A unit of fanned-out work: `f(chunk_index)` for every index in
/// `0..total`. The raw pointer erases the closure's lifetime; soundness is
/// argued in [`WorkerPool::run`].
struct Job {
    f: RawClosure,
    next: AtomicUsize,
    total: usize,
    completed: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
    /// First panic payload caught while running a chunk; the dispatcher
    /// rethrows it verbatim so callers see the original message, not a
    /// generic "worker panicked".
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// `*const dyn Fn` made Send+Sync so it can cross the queue. The pointee
/// is `Sync` (bound enforced by [`WorkerPool::run`]) and outlives every
/// access (the dispatcher blocks until all chunks completed).
struct RawClosure(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (the `F: Sync` bound on `WorkerPool::run`
// is the only constructor) and the dispatching stack frame keeps it alive
// until every worker is done touching it, so sending the pointer to
// another thread cannot outlive or race the closure.
unsafe impl Send for RawClosure {}
// SAFETY: same argument as `Send`; workers only ever call the closure
// through `&dyn Fn`, which `F: Sync` makes thread-safe.
unsafe impl Sync for RawClosure {}

impl Job {
    /// Claims and runs chunks until the counter is exhausted.
    fn run_chunks(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.total {
                return;
            }
            debug_assert!(idx < self.total, "claimed chunk out of range");
            // SAFETY: a successful claim (idx < total) implies the
            // dispatcher is still blocked waiting for `completed == total`,
            // so the closure behind the pointer is alive. Stale queue
            // copies that arrive after completion always see idx >= total
            // (all `total` claims already happened) and never get here.
            let f = unsafe { &*self.f.0 };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(idx))) {
                let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(p);
                }
                drop(slot);
                self.panicked.store(true, Ordering::SeqCst);
            }
            let mut c = self.completed.lock().unwrap_or_else(|e| e.into_inner());
            *c += 1;
            if *c == self.total {
                self.done.notify_all();
            }
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    /// Raised (under the queue lock) to tell idle workers to exit; workers
    /// drain the queue before honoring it.
    shutdown: AtomicBool,
}

/// A job-queue thread pool whose workers are **joined, not detached**.
///
/// Dropping the pool (or calling [`WorkerPool::shutdown`]) raises a
/// shutdown flag, wakes every idle worker and joins all of them. The
/// process-wide instance used by [`pool_run`] is created lazily; tests
/// that need tight control over worker lifetime (e.g. the TSan-exercised
/// spawn/submit/drop stress test) construct their own.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned lazily by [`run`].
    ///
    /// [`run`]: WorkerPool::run
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Grows the pool to at least `want` resident workers. Idle workers
    /// block on the queue condvar, so an idle pool costs nothing.
    fn ensure_workers(&self, want: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while workers.len() < want {
            let id = workers.len();
            let shared = Arc::clone(&self.shared);
            let handle = ThreadBuilder::new()
                .name(format!("leca-worker-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
            workers.push(handle);
        }
    }

    /// Current number of resident worker threads (test/diagnostic hook).
    pub fn worker_count(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn submit(&self, job: &Arc<Job>, copies: usize) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..copies {
            q.push_back(Arc::clone(job));
        }
        drop(q);
        self.shared.available.notify_all();
    }

    /// Runs `f(chunk_index)` for every index in `0..chunks`, fanning out
    /// over this pool's workers with at most `threads` participants
    /// (including the calling thread, which always helps).
    ///
    /// Chunk claiming is index-based, so the chunk → data mapping is
    /// independent of which worker runs a chunk (see the module docs on
    /// determinism).
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn run<F>(&self, chunks: usize, threads: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if chunks == 0 {
            return;
        }
        if chunks == 1 || threads <= 1 {
            for idx in 0..chunks {
                f(idx);
            }
            return;
        }

        let helpers = threads.min(chunks) - 1;
        self.ensure_workers(helpers);

        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the transmute only erases the closure's lifetime for the
        // queue crossing. Sound because this frame does not return until
        // `completed == total` below, and workers touch the closure only
        // while executing claimed chunks (each of which bumps `completed`
        // before the dispatcher can observe completion).
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
        let job = Arc::new(Job {
            f: RawClosure(erased as *const (dyn Fn(usize) + Sync)),
            next: AtomicUsize::new(0),
            total: chunks,
            completed: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        });
        self.submit(&job, helpers);

        // Help out, then wait for the stragglers.
        job.run_chunks();
        let mut c = job.completed.lock().unwrap_or_else(|e| e.into_inner());
        while *c < job.total {
            c = job.done.wait(c).unwrap_or_else(|e| e.into_inner());
        }
        drop(c);
        if job.panicked.load(Ordering::SeqCst) {
            // Every chunk has completed (panicked or not), so the pool's
            // queue holds only exhausted stale copies and the workers are
            // back on the condvar: the pool stays fully reusable. Rethrow
            // the original payload so the caller sees the real message.
            let payload = job.payload.lock().unwrap_or_else(|e| e.into_inner()).take();
            match payload {
                Some(p) => resume_unwind(p),
                None => panic!("parallel worker panicked"),
            }
        }
    }

    /// Joins every worker thread after raising the shutdown flag.
    ///
    /// Queued stale job copies are drained first (they are no-ops once a
    /// job's chunks are exhausted). The flag is lowered afterwards so the
    /// pool **revives** — a later [`run`](WorkerPool::run) simply spawns
    /// fresh workers. Idempotent; joining zero workers is a no-op.
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        {
            // Raise the flag under the queue lock so a worker between
            // "queue empty" and "wait" cannot miss the wake-up. Stale job
            // copies are purged here rather than left for workers to
            // drain: every completed (or panicked) job has exhausted its
            // chunk counter, so the copies are pure no-ops, and dropping
            // them now means no queue entry can outlive a shutdown (the
            // panic-in-job regression test pins this down).
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.clear();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for handle in workers.drain(..) {
            // A worker that panicked through `catch_unwind` still exits
            // its loop; surface nothing here (the dispatcher already
            // re-panicked on the calling thread).
            let _ = handle.join();
        }
        self.shared.shutdown.store(false, Ordering::SeqCst);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run_chunks();
    }
}

#[cfg(not(loom))]
fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Joins the process-wide pool's worker threads.
///
/// Statics are never dropped, so the global pool cannot join its workers
/// via `Drop`; call this before process exit when a clean thread shutdown
/// matters (sanitizer runs, leak-checked harnesses). The pool revives on
/// the next [`pool_run`], so calling this mid-workload only costs a
/// re-spawn.
pub fn shutdown_global_pool() {
    #[cfg(not(loom))]
    global_pool().shutdown();
}

/// Runs `f(chunk_index)` for every index in `0..chunks`, fanning out over
/// the persistent process-wide pool. The calling thread participates, so
/// `chunks == 1` (or a single configured thread) runs entirely inline with
/// no queue traffic.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn pool_run<F>(chunks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    // Under loom there is no process-wide pool: a static pool's workers
    // would leak across model iterations. Loom models exercise explicit
    // `WorkerPool` instances; library call sites run inline.
    #[cfg(loom)]
    for idx in 0..chunks {
        f(idx);
    }
    #[cfg(not(loom))]
    global_pool().run(chunks, num_threads(), f);
}

// ---------------------------------------------------------------------
// Range / row helpers (same API as the old scoped-thread versions)
// ---------------------------------------------------------------------

/// Splits `0..len` into at most `num_threads()` contiguous sub-ranges of
/// at least `min_chunk` elements and returns `(chunk_size, chunk_count)`.
fn split(len: usize, min_chunk: usize) -> (usize, usize) {
    let threads = num_threads();
    if threads <= 1 || len <= min_chunk {
        return (len.max(1), 1);
    }
    let workers = threads.min(len / min_chunk.max(1)).max(1);
    let chunk = len.div_ceil(workers);
    (chunk, len.div_ceil(chunk))
}

/// Splits `out` into disjoint row-chunks of `row_len` elements and runs
/// `f(row_range, chunk)` on each in parallel.
///
/// Each chunk owns an exclusive slice of the output buffer, so no locking
/// is needed.
/// Generic over the element type, like the block variant the f32 and
/// int8 convolutions split their outputs with.
///
/// # Panics
///
/// Panics if `out.len() != rows * row_len`, or if a worker panics.
pub fn par_rows_mut<T, F>(out: &mut [T], rows: usize, row_len: usize, min_rows: usize, f: F)
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    par_blocks_mut(out, rows, 1, 1, row_len, min_rows, |range, _, chunk| {
        f(range, chunk);
    });
}

/// [`par_rows_mut`] over *blocks* of rows: `out` holds `groups` groups of
/// `group_rows` rows of `row_len` elements, and each group is cut into
/// `group_rows.div_ceil(block_rows)` blocks of `block_rows` rows (the last
/// block of a group may be shorter). Chunks are runs of whole blocks, and
/// `f(block_range, at, chunk)` receives the global block indices, block
/// `u` being block `u % blocks_per_group` of group `u / blocks_per_group`,
/// and the chunk `out[at..at + chunk.len()]`, so element `e` of `out` is
/// `chunk[e - at]`.
///
/// This is how the forward convolutions (f32 and int8) split
/// `(N, O, oh, ow)` output over image × output-channel tile, so a batch-1
/// call still fans out.
///
/// # Panics
///
/// Panics if `block_rows == 0`, if
/// `out.len() != groups * group_rows * row_len`, or if a worker panics.
pub(crate) fn par_blocks_mut<T, F>(
    out: &mut [T],
    groups: usize,
    group_rows: usize,
    block_rows: usize,
    row_len: usize,
    min_blocks: usize,
    f: F,
) where
    T: Send,
    F: Fn(std::ops::Range<usize>, usize, &mut [T]) + Sync,
{
    assert!(block_rows > 0, "block_rows must be non-zero");
    // Checked, so no offset below can wrap: every one is at most this
    // product.
    assert_eq!(
        groups
            .checked_mul(group_rows)
            .and_then(|rows| rows.checked_mul(row_len)),
        Some(out.len()),
        "output buffer size mismatch"
    );
    let per_group = group_rows.div_ceil(block_rows);
    let blocks = groups * per_group;
    if blocks == 0 {
        f(0..0, 0, out);
        return;
    }
    // Element offset of block `u`: non-decreasing in `u`, and
    // `offset(blocks) == out.len()`.
    let offset = |u: usize| ((u / per_group) * group_rows + (u % per_group) * block_rows) * row_len;
    let (chunk, chunks) = split(blocks, min_blocks);
    let out_len = out.len();
    let base = SendPtr(out.as_mut_ptr());
    pool_run(chunks, |w| {
        let start = w * chunk;
        let end = ((w + 1) * chunk).min(blocks);
        if start >= end {
            return;
        }
        let (lo, hi) = (offset(start), offset(end));
        assert!(
            lo <= hi && hi <= out_len,
            "block chunk {start}..{end} overruns the output buffer"
        );
        // SAFETY: chunk `w` is claimed exactly once and block ranges are
        // disjoint (chunk w covers blocks [w*chunk, (w+1)*chunk)); `offset`
        // is non-decreasing, so their element ranges [lo, hi) are disjoint
        // too and each slice below is exclusively owned. The assert keeps
        // it in bounds of the original allocation.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        f(start..end, lo, slice);
    });
}

/// A raw `*mut T` that may cross thread boundaries; exclusivity is the
/// caller's obligation (disjoint chunk ranges).
struct SendPtr<T>(*mut T);
// SAFETY: the pointer targets a live `&mut [T]` (T: Send) held by the
// dispatching frame for the whole parallel region; workers write disjoint
// chunk ranges, so moving the pointer across threads cannot create
// overlapping access.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same disjointness argument as `Send`; shared access to the
// wrapper only ever yields the raw pointer, never a data access.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// Sync wrapper, not the raw pointer field (edition-2021 closures
    /// capture disjoint fields).
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    /// Tests here mutate `LECA_THREADS`, which is process-global: serialize
    /// the ones that do.
    static ENV_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn refresh_rereads_env() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::env::var("LECA_THREADS").ok();
        std::env::set_var("LECA_THREADS", "3");
        assert_eq!(refresh_num_threads(), 3);
        assert_eq!(num_threads(), 3);
        std::env::set_var("LECA_THREADS", "5");
        // Cached: plain reads must NOT see the change...
        assert_eq!(num_threads(), 3);
        // ...until refreshed.
        assert_eq!(refresh_num_threads(), 5);
        match old {
            Some(v) => std::env::set_var("LECA_THREADS", v),
            None => std::env::remove_var("LECA_THREADS"),
        }
        refresh_num_threads();
    }

    #[test]
    fn par_rows_mut_fills_disjoint_rows() {
        let rows = 37;
        let row_len = 5;
        let mut out = vec![0.0f32; rows * row_len];
        par_rows_mut(&mut out, rows, row_len, 2, |range, chunk| {
            for (i, r) in range.clone().enumerate() {
                for c in 0..row_len {
                    chunk[i * row_len + c] = (r * row_len + c) as f32;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn par_blocks_mut_hands_out_whole_blocks_once() {
        // 3 groups of 11 rows in blocks of 4 (4 + 4 + 3), row_len 2.
        let (groups, group_rows, block_rows, row_len) = (3, 11, 4, 2);
        let mut out = vec![0usize; groups * group_rows * row_len];
        par_blocks_mut(
            &mut out,
            groups,
            group_rows,
            block_rows,
            row_len,
            1,
            |blocks, base, chunk| {
                let mut at = 0;
                for u in blocks {
                    let (g, b) = (u / 3, u % 3);
                    let rows = block_rows.min(group_rows - b * block_rows);
                    for r in 0..rows * row_len {
                        let e = (g * group_rows + b * block_rows) * row_len + r;
                        assert_eq!(e, base + at, "block {u} row {r}");
                        chunk[at] = e + 1;
                        at += 1;
                    }
                }
                assert_eq!(at, chunk.len());
            },
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn pool_survives_many_small_jobs() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::env::var("LECA_THREADS").ok();
        std::env::set_var("LECA_THREADS", "4");
        refresh_num_threads();
        for round in 0..200usize {
            let total = AtomicU64::new(0);
            pool_run(7, |idx| {
                total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 28, "round {round}");
        }
        match old {
            Some(v) => std::env::set_var("LECA_THREADS", v),
            None => std::env::remove_var("LECA_THREADS"),
        }
        refresh_num_threads();
    }

    #[test]
    fn local_pool_joins_workers_on_drop() {
        let pool = WorkerPool::new();
        let total = AtomicU64::new(0);
        pool.run(16, 4, |idx| {
            total.fetch_add(idx as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 120);
        assert!(pool.worker_count() >= 1);
        drop(pool); // joins; a hang or crash here fails the test
    }

    #[test]
    fn shutdown_then_revive() {
        let pool = WorkerPool::new();
        let total = AtomicU64::new(0);
        pool.run(8, 3, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
        pool.shutdown();
        assert_eq!(pool.worker_count(), 0);
        // Revive: a fresh run after shutdown spawns new workers.
        total.store(0, Ordering::Relaxed);
        pool.run(8, 3, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
        pool.shutdown();
        pool.shutdown(); // idempotent
    }

    #[test]
    fn global_pool_shutdown_revives() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::env::var("LECA_THREADS").ok();
        std::env::set_var("LECA_THREADS", "4");
        refresh_num_threads();
        let total = AtomicU64::new(0);
        pool_run(8, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
        shutdown_global_pool();
        total.store(0, Ordering::Relaxed);
        pool_run(8, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
        match old {
            Some(v) => std::env::set_var("LECA_THREADS", v),
            None => std::env::remove_var("LECA_THREADS"),
        }
        refresh_num_threads();
    }

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn par_rows_mut_checks_size() {
        let mut out = vec![0.0f32; 9];
        par_rows_mut(&mut out, 2, 5, 1, |_, _| {});
    }

    /// Regression test for the poisoned-pool edge: a job that panics must
    /// (a) surface the *original* payload to the dispatcher, (b) leave the
    /// pool reusable — later jobs run to completion, `shutdown` joins
    /// without hanging, and no stale queue entry survives.
    #[test]
    fn panic_in_job_leaves_pool_reusable() {
        let pool = WorkerPool::new();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 4, |idx| {
                if idx == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        }));
        let payload = caught.expect_err("panicking job must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap()
        });
        assert_eq!(msg, "chunk 3 exploded", "original payload must survive");

        // The pool must still work: every chunk of a fresh job runs.
        let total = AtomicU64::new(0);
        pool.run(16, 4, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 136);

        // Shutdown/revive cycles must not hang or leak queue entries.
        pool.shutdown();
        assert_eq!(pool.worker_count(), 0);
        assert!(pool
            .shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
        total.store(0, Ordering::Relaxed);
        pool.run(4, 2, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    /// Every-chunk-panics variant: all claims must still be accounted for
    /// (no hung `join`), and repeated panicking jobs must not wedge the
    /// queue.
    #[test]
    fn repeated_panicking_jobs_do_not_wedge_the_pool() {
        let pool = WorkerPool::new();
        for round in 0..10 {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(5, 3, |_| panic!("round {round}"));
            }));
            assert!(r.is_err(), "round {round} must panic");
        }
        let total = AtomicU64::new(0);
        pool.run(5, 3, |idx| {
            total.fetch_add(idx as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 15);
        drop(pool); // must join cleanly
    }
}
