//! Offline subset of [loom](https://docs.rs/loom): exhaustive
//! bounded-preemption exploration of thread interleavings.
//!
//! The real loom crate is unavailable offline, so this shim implements the
//! same *surface* (`loom::model`, `loom::thread`, `loom::sync::{Mutex,
//! Condvar, Arc, atomic}`) on top of a cooperative scheduler:
//!
//! - Model threads are real OS threads, but **exactly one runs at a
//!   time** — every instrumented operation (atomic access, mutex
//!   acquisition, condvar wait, spawn/join, `yield_now`) is a *scheduling
//!   point* where the scheduler picks which thread runs next.
//! - An execution is a sequence of scheduling decisions. [`model`] runs
//!   the closure repeatedly, depth-first enumerating every decision
//!   sequence (replaying the shared prefix each time), so all
//!   interleavings within the preemption bound are explored.
//! - The **preemption bound** (default 2, like loom; override with
//!   `LOOM_MAX_PREEMPTIONS`) caps the number of *involuntary* context
//!   switches per execution: switching away from a thread that could have
//!   kept running. Voluntary switches (blocking on a contended lock, a
//!   condvar wait, `yield_now`) are free. Chen et al. ("Bounded partial
//!   order reduction") and the CHESS work behind loom's bound observe
//!   that almost all real concurrency bugs manifest within 2 preemptions.
//!
//! # Fidelity
//!
//! Memory is modeled as **sequentially consistent**: atomics execute on
//! the host with their requested ordering, but exploration only varies
//! *interleaving*, not weak-memory reordering. Bugs that require a
//! relaxed-ordering reordering to manifest are out of scope (the
//! workspace's TSan CI job covers data races; the orderings in the
//! checked code are either `SeqCst` or `Relaxed`-on-monotonic-counters).
//! Condvars never wake spuriously, and `notify_one` wakes the
//! longest-waiting thread deterministically; checked code must therefore
//! not *depend* on spurious wakeups (predicate loops remain fully
//! exercised via lost-wakeup interleavings, which are modeled exactly —
//! `Condvar::wait` releases its mutex atomically w.r.t. the scheduler).
//!
//! # Deadlocks and leaks
//!
//! If every live thread is blocked, the execution fails with a
//! `deadlock` panic naming each thread's blocking site kind. A model
//! closure returning while spawned threads are still live (not joined,
//! not finished) fails with a `leaked thread` panic: the protocols this
//! shim checks promise *joined, never detached* threads.

#![allow(
    unsafe_code,
    reason = "model-checking shim: one pointer round-trip in Condvar::wait (guard lifetime argued)"
)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, OnceLock};

const NO_THREAD: usize = usize::MAX;

thread_local! {
    /// Model-thread id of the current OS thread; `NO_THREAD` outside a
    /// model (instrumented operations pass through unscheduled).
    static TID: Cell<usize> = const { Cell::new(NO_THREAD) };
}

/// What a model thread is currently doing, keyed by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Runnable,
    /// Blocked acquiring the mutex at this address.
    BlockedMutex(usize),
    /// Waiting on the condvar at this address.
    BlockedCondvar(usize),
    /// Joining the given model thread.
    BlockedJoin(usize),
    Finished,
}

impl Run {
    fn kind(&self) -> &'static str {
        match self {
            Run::Runnable => "runnable",
            Run::BlockedMutex(_) => "blocked on mutex",
            Run::BlockedCondvar(_) => "waiting on condvar",
            Run::BlockedJoin(_) => "joining",
            Run::Finished => "finished",
        }
    }
}

/// One branching scheduling decision (2+ candidates). Single-candidate
/// points are not recorded — they replay identically by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decision {
    /// Runnable thread ids at this point (yielding thread first).
    candidates: Vec<usize>,
    /// Index into `candidates` taken on this execution.
    chosen: usize,
}

#[derive(Default)]
struct State {
    threads: Vec<Run>,
    /// Thread id currently allowed to run.
    current: usize,
    /// Decision sequence: replayed up to `cursor`, extended beyond it.
    trail: Vec<Decision>,
    cursor: usize,
    preemptions: usize,
    max_preemptions: usize,
    /// Set on deadlock/assertion failure; wakes and unwinds every thread.
    failure: Option<String>,
}

impl State {
    /// Picks the next thread to run after `me` yields. `me_runnable`
    /// distinguishes a preemptible yield from a blocking one;
    /// `voluntary` switches are exempt from the preemption budget.
    /// Returns `None` when nothing is left to schedule (all finished).
    fn decide(&mut self, me: usize, me_runnable: bool, voluntary: bool) -> Option<usize> {
        let mut cands: Vec<usize> = Vec::new();
        if me_runnable {
            cands.push(me);
        }
        cands.extend(
            (0..self.threads.len()).filter(|&t| t != me && self.threads[t] == Run::Runnable),
        );
        if cands.is_empty() {
            if self.threads.iter().all(|t| *t == Run::Finished) {
                return None;
            }
            let live: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, r)| **r != Run::Finished)
                .map(|(t, r)| format!("thread {t}: {}", r.kind()))
                .collect();
            self.failure = Some(format!("deadlock — every live thread is blocked ({})", {
                live.join(", ")
            }));
            return Some(me); // unreachable resume; caller panics on failure
        }
        if !voluntary && me_runnable && self.preemptions >= self.max_preemptions {
            // Budget spent: the yielding thread must keep running.
            cands.truncate(1);
        }
        let chosen = if cands.len() == 1 {
            0 // no branch; not recorded
        } else if self.cursor < self.trail.len() {
            let d = &self.trail[self.cursor];
            if d.candidates != cands {
                self.failure = Some(format!(
                    "nondeterministic model: replay expected candidates {:?}, got {cands:?}",
                    d.candidates
                ));
                return Some(me);
            }
            let c = d.chosen;
            self.cursor += 1;
            c
        } else {
            self.trail.push(Decision {
                candidates: cands.clone(),
                chosen: 0,
            });
            self.cursor += 1;
            0
        };
        let next = cands[chosen];
        if next != me && me_runnable && !voluntary {
            self.preemptions += 1;
        }
        Some(next)
    }
}

struct Scheduler {
    state: StdMutex<State>,
    cv: StdCondvar,
}

fn sched() -> &'static Scheduler {
    static SCHED: OnceLock<Scheduler> = OnceLock::new();
    SCHED.get_or_init(|| Scheduler {
        state: StdMutex::new(State::default()),
        cv: StdCondvar::new(),
    })
}

impl Scheduler {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Raises `failure`, wakes everyone, and unwinds the calling thread.
    fn fail(&self, st: std::sync::MutexGuard<'_, State>) -> ! {
        let msg = st
            .failure
            .clone()
            .unwrap_or_else(|| "unknown failure".into());
        drop(st);
        self.cv.notify_all();
        panic!("loom: {msg}");
    }

    /// Blocks the calling OS thread until the scheduler hands it the turn.
    fn wait_for_turn(&self, me: usize) {
        let mut st = self.lock();
        while st.current != me {
            if st.failure.is_some() {
                self.fail(st);
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.failure.is_some() {
            self.fail(st);
        }
    }

    /// A scheduling point for a still-runnable thread.
    fn yield_point(&self, voluntary: bool) {
        let me = TID.get();
        if me == NO_THREAD {
            return;
        }
        let mut st = self.lock();
        if st.failure.is_some() {
            self.fail(st);
        }
        let next = st.decide(me, true, voluntary).unwrap_or(me);
        if st.failure.is_some() {
            self.fail(st);
        }
        if next == me {
            return;
        }
        st.current = next;
        drop(st);
        self.cv.notify_all();
        self.wait_for_turn(me);
    }

    /// Marks `me` blocked for `reason`, hands the turn to another thread
    /// and blocks until some thread makes `me` runnable again *and* the
    /// scheduler picks it.
    fn block(&self, reason: Run) {
        let me = TID.get();
        if me == NO_THREAD {
            panic!("loom: blocking primitive used by a non-model thread inside a model");
        }
        let mut st = self.lock();
        if st.failure.is_some() {
            self.fail(st);
        }
        st.threads[me] = reason;
        let next = st.decide(me, false, true).unwrap_or(me);
        if st.failure.is_some() {
            self.fail(st);
        }
        st.current = next;
        drop(st);
        self.cv.notify_all();
        self.wait_for_turn(me);
    }

    /// Wakes threads blocked on the mutex at `addr` (its lock was
    /// released). Not a scheduling point: the next decision happens at
    /// the releasing thread's next instrumented operation.
    fn on_mutex_release(&self, addr: usize) {
        if TID.get() == NO_THREAD {
            return;
        }
        let mut st = self.lock();
        for t in st.threads.iter_mut() {
            if *t == Run::BlockedMutex(addr) {
                *t = Run::Runnable;
            }
        }
    }

    fn notify_condvar(&self, addr: usize, all: bool) {
        if TID.get() == NO_THREAD {
            return;
        }
        let mut st = self.lock();
        for t in st.threads.iter_mut() {
            if *t == Run::BlockedCondvar(addr) {
                *t = Run::Runnable;
                if !all {
                    break;
                }
            }
        }
    }

    /// Registers a new model thread; returns its id.
    fn register(&self) -> usize {
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads.push(Run::Runnable);
        tid
    }

    /// Marks the calling model thread finished, wakes joiners, and hands
    /// the turn onward.
    fn finish(&self) {
        let me = TID.get();
        let mut st = self.lock();
        st.threads[me] = Run::Finished;
        for t in st.threads.iter_mut() {
            if *t == Run::BlockedJoin(me) {
                *t = Run::Runnable;
            }
        }
        if st.failure.is_some() {
            drop(st);
            self.cv.notify_all();
            return; // already unwinding elsewhere; don't double-fail
        }
        match st.decide(me, false, true) {
            Some(next) => {
                if st.failure.is_some() {
                    self.fail(st);
                }
                st.current = next;
            }
            None => st.current = NO_THREAD, // everyone done
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Drop guard marking a spawned model thread finished even on unwind.
struct FinishGuard;

impl Drop for FinishGuard {
    fn drop(&mut self) {
        sched().finish();
    }
}

// ---------------------------------------------------------------------
// Public surface: model / Builder
// ---------------------------------------------------------------------

/// Model-exploration configuration ([`model`] uses the defaults).
#[derive(Debug, Clone)]
pub struct Builder {
    /// Maximum involuntary context switches per execution (None = read
    /// `LOOM_MAX_PREEMPTIONS`, default 2).
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored executions; exceeding it is a test failure
    /// (catches state-space explosions instead of hanging CI).
    pub max_iterations: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Builder::new()
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "the model checker's own LOOM_* knobs, not LECA_* configuration"
)]
impl Builder {
    /// Defaults: preemption bound from `LOOM_MAX_PREEMPTIONS` (or 2),
    /// iteration cap from `LOOM_MAX_ITERATIONS` (or 1,000,000).
    pub fn new() -> Self {
        Builder {
            preemption_bound: None,
            max_iterations: std::env::var("LOOM_MAX_ITERATIONS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1_000_000),
        }
    }

    fn bound(&self) -> usize {
        self.preemption_bound.unwrap_or_else(|| {
            std::env::var("LOOM_MAX_PREEMPTIONS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(2)
        })
    }

    /// Exhaustively explores `f` under the preemption bound; returns the
    /// number of executions. Panics (with the failing decision schedule
    /// on stderr) if any execution panics, deadlocks, or leaks a thread.
    pub fn check<F: Fn()>(&self, f: F) -> usize {
        // One model at a time per process: the scheduler is global.
        static MODEL_LOCK: StdMutex<()> = StdMutex::new(());
        let _serial = MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        let s = sched();
        let bound = self.bound();
        let mut prefix: Vec<Decision> = Vec::new();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            assert!(
                iterations <= self.max_iterations,
                "loom: exceeded {} executions — shrink the model or raise LOOM_MAX_ITERATIONS",
                self.max_iterations
            );
            {
                let mut st = s.lock();
                *st = State {
                    threads: vec![Run::Runnable],
                    current: 0,
                    trail: std::mem::take(&mut prefix),
                    cursor: 0,
                    preemptions: 0,
                    max_preemptions: bound,
                    failure: None,
                };
            }
            TID.set(0);
            let result = catch_unwind(AssertUnwindSafe(&f));
            TID.set(NO_THREAD);

            let (trail, leak) = {
                let mut st = s.lock();
                let leak = st
                    .threads
                    .iter()
                    .skip(1)
                    .position(|t| *t != Run::Finished)
                    .map(|t| t + 1);
                (std::mem::take(&mut st.trail), leak)
            };
            if let Err(payload) = result {
                eprintln!(
                    "loom: execution {iterations} failed; schedule: {:?}",
                    trail
                        .iter()
                        .map(|d| d.candidates[d.chosen])
                        .collect::<Vec<_>>()
                );
                resume_unwind(payload);
            }
            if let Some(t) = leak {
                panic!("loom: model closure returned while thread {t} is still live (join it)");
            }

            // Depth-first: advance the deepest decision with an untried
            // alternative; drop everything beneath it.
            let mut t = trail;
            loop {
                match t.pop() {
                    None => return iterations,
                    Some(d) if d.chosen + 1 < d.candidates.len() => {
                        t.push(Decision {
                            chosen: d.chosen + 1,
                            candidates: d.candidates,
                        });
                        prefix = t;
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Exhaustively explores every interleaving of `f` (bounded preemption).
///
/// Set `LOOM_LOG=1` to print the number of executions explored.
#[allow(
    clippy::disallowed_methods,
    reason = "the model checker's own LOOM_* knobs, not LECA_* configuration"
)]
pub fn model<F: Fn()>(f: F) {
    let iterations = Builder::new().check(f);
    if std::env::var("LOOM_LOG").is_ok() {
        eprintln!("loom: explored {iterations} executions");
    }
}

// ---------------------------------------------------------------------
// loom::thread
// ---------------------------------------------------------------------

/// Instrumented replacement for `std::thread`.
pub mod thread {
    use super::{sched, FinishGuard, Run, NO_THREAD, TID};

    /// A handle to a spawned model thread; join it before the model
    /// closure returns.
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        tid: usize,
        inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Blocks (a scheduling point) until the thread finishes.
        pub fn join(self) -> std::thread::Result<T> {
            let s = sched();
            loop {
                {
                    let st = s.lock();
                    if st.threads[self.tid] == Run::Finished {
                        break;
                    }
                }
                s.block(Run::BlockedJoin(self.tid));
            }
            // The model thread is finished; the OS thread exits promptly.
            self.inner.join()
        }
    }

    /// Spawns an instrumented model thread (a scheduling point).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("loom spawn cannot fail")
    }

    /// Mirror of `std::thread::Builder` (name is accepted and forwarded).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        pub fn new() -> Self {
            Builder::default()
        }

        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        #[allow(
            clippy::disallowed_methods,
            reason = "the model checker spawns the threads it schedules; every handle is joined at model exit"
        )]
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let s = sched();
            assert!(
                TID.get() != NO_THREAD,
                "loom: threads can only be spawned inside a model"
            );
            let tid = s.register();
            let mut b = std::thread::Builder::new();
            if let Some(n) = self.name {
                b = b.name(n);
            }
            let inner = b.spawn(move || {
                TID.set(tid);
                let _done = FinishGuard;
                sched().wait_for_turn(tid);
                f()
            })?;
            // Let exploration consider running the child immediately.
            s.yield_point(true);
            Ok(JoinHandle { tid, inner })
        }
    }

    /// Voluntary scheduling point (exempt from the preemption budget).
    pub fn yield_now() {
        sched().yield_point(true);
    }
}

/// Instrumented replacement for `std::hint`.
pub mod hint {
    /// Treated as a voluntary scheduling point.
    pub fn spin_loop() {
        super::sched().yield_point(true);
    }
}

// ---------------------------------------------------------------------
// loom::sync
// ---------------------------------------------------------------------

/// Instrumented replacements for `std::sync` types.
pub mod sync {
    use super::{sched, Run, NO_THREAD, TID};
    use std::sync::{LockResult, PoisonError, TryLockError};

    // Arc is re-exported verbatim: refcount traffic is internal to std
    // and not part of any protocol this shim checks (observing
    // `strong_count` from a yield loop interleaves via the loop's own
    // scheduling points).
    pub use std::sync::Arc;

    /// Instrumented mutex: acquisition is a scheduling point; contention
    /// blocks the model thread under the scheduler.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    /// Guard wrapping the std guard; releases wake blocked acquirers.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        // Option so Drop can release the std guard before notifying.
        inner: Option<std::sync::MutexGuard<'a, T>>,
        addr: usize,
    }

    impl<T> Mutex<T> {
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        /// Locks (a scheduling point), blocking while another model
        /// thread holds the guard.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let s = sched();
            loop {
                s.yield_point(false);
                match self.inner.try_lock() {
                    Ok(g) => {
                        return Ok(MutexGuard {
                            inner: Some(g),
                            addr: self.addr(),
                        })
                    }
                    Err(TryLockError::Poisoned(p)) => {
                        return Err(PoisonError::new(MutexGuard {
                            inner: Some(p.into_inner()),
                            addr: self.addr(),
                        }))
                    }
                    Err(TryLockError::WouldBlock) => {
                        if TID.get() == NO_THREAD {
                            // Outside a model: fall back to a real block.
                            return match self.inner.lock() {
                                Ok(g) => Ok(MutexGuard {
                                    inner: Some(g),
                                    addr: self.addr(),
                                }),
                                Err(p) => Err(PoisonError::new(MutexGuard {
                                    inner: Some(p.into_inner()),
                                    addr: self.addr(),
                                })),
                            };
                        }
                        s.block(Run::BlockedMutex(self.addr()));
                    }
                }
            }
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard live")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard live")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None; // release the std lock first
            sched().on_mutex_release(self.addr);
        }
    }

    /// Result of [`Condvar::wait_timeout`]. Time is not modeled: waits
    /// never report a timeout inside a model.
    #[derive(Debug, Clone, Copy)]
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// Instrumented condvar. The wait releases its mutex atomically with
    /// respect to the scheduler, so lost-wakeup interleavings are modeled
    /// exactly. No spurious wakeups.
    #[derive(Debug, Default)]
    pub struct Condvar {
        _priv: (),
    }

    impl Condvar {
        pub const fn new() -> Self {
            Condvar { _priv: () }
        }

        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        /// Releases `guard`'s mutex and blocks until notified, then
        /// re-acquires (both ends are scheduling points).
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let s = sched();
            assert!(
                TID.get() != NO_THREAD,
                "loom: Condvar::wait outside a model would block forever"
            );
            let me = TID.get();
            {
                let mut st = s.lock();
                if st.failure.is_some() {
                    s.fail(st);
                }
                st.threads[me] = Run::BlockedCondvar(self.addr());
            }
            // Reconstruct the mutex pointer before consuming the guard:
            // releasing wakes mutex-blocked threads, and nobody runs until
            // the block() below picks them (atomic release-and-wait).
            let mutex_addr = guard.addr;
            drop(guard);
            {
                // block() requires the *blocked* state we set above; it
                // decides the next thread and parks this one.
                let mut st = s.lock();
                let next = st.decide(me, false, true).unwrap_or(me);
                if st.failure.is_some() {
                    s.fail(st);
                }
                st.current = next;
                drop(st);
                s.cv.notify_all();
                s.wait_for_turn(me);
            }
            // Notified: re-acquire the mutex through the blocking path.
            // SAFETY: the guard's lifetime 'a proves the mutex outlives
            // this call; addr was derived from that same &Mutex<T>.
            let mutex: &Mutex<T> = unsafe { &*(mutex_addr as *const Mutex<T>) };
            mutex.lock()
        }

        /// `wait` with a timeout that is never reported inside a model
        /// (time is not modeled; the protocols under check must not rely
        /// on timeouts for liveness).
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            _dur: std::time::Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            match self.wait(guard) {
                Ok(g) => Ok((g, WaitTimeoutResult(false))),
                Err(p) => Err(PoisonError::new((p.into_inner(), WaitTimeoutResult(false)))),
            }
        }

        /// Wakes the longest-waiting thread (deterministic).
        pub fn notify_one(&self) {
            sched().notify_condvar(self.addr(), false);
        }

        /// Wakes every waiting thread.
        pub fn notify_all(&self) {
            sched().notify_condvar(self.addr(), true);
        }
    }

    /// Instrumented atomics: every access is a scheduling point; values
    /// live in real host atomics (sequentially consistent exploration).
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        macro_rules! int_atomic {
            ($name:ident, $std:ident, $ty:ty) => {
                /// Instrumented atomic (see module docs).
                #[derive(Debug, Default)]
                pub struct $name(std::sync::atomic::$std);

                impl $name {
                    pub const fn new(v: $ty) -> Self {
                        $name(std::sync::atomic::$std::new(v))
                    }

                    pub fn load(&self, order: Ordering) -> $ty {
                        super::sched().yield_point(false);
                        self.0.load(order)
                    }

                    pub fn store(&self, val: $ty, order: Ordering) {
                        super::sched().yield_point(false);
                        self.0.store(val, order);
                    }

                    pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                        super::sched().yield_point(false);
                        self.0.swap(val, order)
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        super::sched().yield_point(false);
                        self.0.compare_exchange(current, new, success, failure)
                    }

                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        // Never fails spuriously: weak failures are a
                        // hardware artifact, not an interleaving.
                        self.compare_exchange(current, new, success, failure)
                    }

                    pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                        super::sched().yield_point(false);
                        self.0.fetch_add(val, order)
                    }

                    pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                        super::sched().yield_point(false);
                        self.0.fetch_sub(val, order)
                    }

                    pub fn fetch_and(&self, val: $ty, order: Ordering) -> $ty {
                        super::sched().yield_point(false);
                        self.0.fetch_and(val, order)
                    }

                    pub fn fetch_or(&self, val: $ty, order: Ordering) -> $ty {
                        super::sched().yield_point(false);
                        self.0.fetch_or(val, order)
                    }
                }
            };
        }

        int_atomic!(AtomicUsize, AtomicUsize, usize);
        int_atomic!(AtomicU8, AtomicU8, u8);
        int_atomic!(AtomicU32, AtomicU32, u32);
        int_atomic!(AtomicU64, AtomicU64, u64);
        int_atomic!(AtomicI64, AtomicI64, i64);

        /// Instrumented atomic bool (see module docs).
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            pub const fn new(v: bool) -> Self {
                AtomicBool(std::sync::atomic::AtomicBool::new(v))
            }

            pub fn load(&self, order: Ordering) -> bool {
                super::sched().yield_point(false);
                self.0.load(order)
            }

            pub fn store(&self, val: bool, order: Ordering) {
                super::sched().yield_point(false);
                self.0.store(val, order);
            }

            pub fn swap(&self, val: bool, order: Ordering) -> bool {
                super::sched().yield_point(false);
                self.0.swap(val, order)
            }

            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                success: Ordering,
                failure: Ordering,
            ) -> Result<bool, bool> {
                super::sched().yield_point(false);
                self.0.compare_exchange(current, new, success, failure)
            }
        }

        /// A fence is a pure scheduling point under SC exploration.
        pub fn fence(_order: Ordering) {
            super::sched().yield_point(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::{Arc, Condvar, Mutex};
    use super::{model, thread, Builder};

    /// The classic store-buffer-free SC litmus: two writers + readers see
    /// at least one write; exploration must cover both final orders.
    #[test]
    fn explores_both_orders_of_two_writers() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let outcomes: StdMutex<HashSet<usize>> = StdMutex::new(HashSet::new());
        let iterations = Builder::new().check(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let a = {
                let x = Arc::clone(&x);
                thread::spawn(move || x.store(1, Ordering::SeqCst))
            };
            let b = {
                let x = Arc::clone(&x);
                thread::spawn(move || x.store(2, Ordering::SeqCst))
            };
            a.join().unwrap();
            b.join().unwrap();
            outcomes.lock().unwrap().insert(x.load(Ordering::SeqCst));
        });
        assert!(iterations >= 2, "must explore more than one schedule");
        let outcomes = outcomes.lock().unwrap();
        assert!(
            outcomes.contains(&1) && outcomes.contains(&2),
            "{outcomes:?}"
        );
    }

    /// A racy unsynchronized check-then-act must be caught: exploration
    /// finds the interleaving where both threads see the flag unset.
    #[test]
    fn finds_check_then_act_race() {
        let raced = std::sync::Mutex::new(false);
        model(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let claims = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let flag = Arc::clone(&flag);
                    let claims = Arc::clone(&claims);
                    thread::spawn(move || {
                        // Broken "once": load then store, not CAS.
                        if !flag.load(Ordering::SeqCst) {
                            flag.store(true, Ordering::SeqCst);
                            claims.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            if claims.load(Ordering::SeqCst) == 2 {
                *raced.lock().unwrap() = true;
            }
        });
        assert!(
            *raced.lock().unwrap(),
            "exploration must reach the double-claim interleaving"
        );
    }

    /// Mutex + condvar handoff: the waiter always observes the value; the
    /// wait releases the lock atomically so no lost wakeup exists.
    #[test]
    fn condvar_handoff_never_hangs() {
        model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let setter = thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut done = m.lock().unwrap_or_else(|e| e.into_inner());
                *done = true;
                cv.notify_all();
                drop(done);
            });
            let (m, cv) = &*pair;
            let mut done = m.lock().unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
            drop(done);
            setter.join().unwrap();
        });
    }

    /// Deterministic single-thread model: exactly one execution.
    #[test]
    fn sequential_model_is_one_execution() {
        let n = Builder::new().check(|| {
            let x = AtomicUsize::new(0);
            x.store(3, Ordering::SeqCst);
            assert_eq!(x.load(Ordering::SeqCst), 3);
        });
        assert_eq!(n, 1);
    }

    /// CAS-based once: never double-claims under full exploration.
    #[test]
    fn cas_once_is_exclusive() {
        model(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let claims = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let flag = Arc::clone(&flag);
                    let claims = Arc::clone(&claims);
                    thread::spawn(move || {
                        if flag
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            claims.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(claims.load(Ordering::SeqCst), 1);
        });
    }
}
