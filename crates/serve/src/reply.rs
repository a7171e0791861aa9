//! One-shot reply delivery with slot recycling.
//!
//! A [`ReplySlot`] is a tiny one-shot channel (Mutex + Condvar): the
//! service writes exactly one [`Reply`], the client's [`Ticket`] takes
//! it. First write wins — late writers (a drop guard racing a timeout
//! sweep) are no-ops, which is what makes "every request answered
//! exactly once" easy to reason about.
//!
//! Slots are pooled: the pool starts full, consuming a ticket returns its
//! slot to the bounded free list at once, and [`SlotPool::get`] hands out
//! only slots the pool holds alone. A service-side handle that outlives
//! the reply therefore delays reuse of its slot but never loses it, and
//! the warm request path performs no allocation however the threads are
//! scheduled (the alloc-regression test `tests/serve_alloc.rs` pins this
//! down end to end).

// The request path answers with errors, never panics (DESIGN.md "Lints").
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::unimplemented)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::error::Reply;
use std::time::Duration;

// Under `--cfg loom` the one-shot protocol runs on the loom shim's
// primitives so `tests/loom_reply.rs` can explore every set/wait/recycle
// interleaving. Normal builds compile against std directly.
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex};

/// A one-shot reply cell. First [`ReplySlot::set`] wins.
///
/// The winning `set` runs its `on_delivery` hook under the slot's lock,
/// before the reply becomes takeable: whoever has taken a reply therefore
/// also sees what the hook did. The service bumps its resolution counters
/// there, so a metrics snapshot taken right after [`Ticket::wait`] returns
/// already counts that request.
#[derive(Debug, Default)]
pub struct ReplySlot {
    state: Mutex<Option<Reply>>,
    ready: Condvar,
}

impl ReplySlot {
    /// Delivers `reply` unless one is already present; returns whether
    /// this call won. A winning call runs `on_delivery` first, under the
    /// lock the waiter must take to see the reply; a losing call does not
    /// run it.
    pub fn set(&self, reply: Reply, on_delivery: impl FnOnce()) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_some() {
            return false;
        }
        on_delivery();
        *state = Some(reply);
        self.ready.notify_all();
        true
    }

    /// True once a reply has been delivered (and not yet consumed)
    /// (test hook).
    #[cfg(test)]
    pub fn is_set(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    fn take_blocking(&self) -> Reply {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = state.take() {
                return r;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn take_timeout(&self, timeout: Duration) -> Option<Reply> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = state.take() {
                return Some(r);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, _timeout) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }
}

/// Bounded free list of reply slots.
#[derive(Debug)]
pub struct SlotPool {
    free: Mutex<Vec<Arc<ReplySlot>>>,
    cap: usize,
}

impl SlotPool {
    /// A pool of `cap` idle slots, allocated up front so the warm path
    /// finds a free one however the threads are scheduled. It never
    /// retains more than `cap`.
    pub fn new(cap: usize) -> Self {
        SlotPool {
            free: Mutex::new((0..cap).map(|_| Arc::default()).collect()),
            cap,
        }
    }

    /// Takes a pooled slot that no one else holds, emptied of any reply a
    /// late writer left in it, or allocates a fresh one when every pooled
    /// slot is still shared (cold path).
    pub fn get(&self) -> Arc<ReplySlot> {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        let Some(i) = free.iter_mut().position(|s| Arc::get_mut(s).is_some()) else {
            return Arc::default();
        };
        let slot = free.swap_remove(i);
        drop(free);
        slot.state.lock().unwrap_or_else(|e| e.into_inner()).take();
        slot
    }

    /// Returns `slot` to the free list when the list has room; otherwise
    /// the slot is simply dropped. The service side may still hold a
    /// clone: [`SlotPool::get`] skips the slot until that clone is gone.
    pub fn recycle(&self, slot: Arc<ReplySlot>) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < self.cap {
            free.push(slot);
        }
    }

    /// Idle slots currently pooled (test hook).
    #[cfg(test)]
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// The client's handle to one in-flight request.
///
/// Consume it with [`Ticket::wait`] (or [`Ticket::wait_for`]); the reply
/// is always typed — a verdict or a [`crate::ServeError`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ReplySlot>,
    pool: Arc<SlotPool>,
    /// Request id (unique per service instance).
    pub id: u64,
}

impl Ticket {
    pub(crate) fn new(slot: Arc<ReplySlot>, pool: Arc<SlotPool>, id: u64) -> Self {
        Ticket { slot, pool, id }
    }

    /// Public constructor for the loom model suite (`tests/loom_reply.rs`
    /// drives the slot/ticket protocol without a running service).
    #[cfg(loom)]
    pub fn for_model(slot: Arc<ReplySlot>, pool: Arc<SlotPool>, id: u64) -> Self {
        Ticket::new(slot, pool, id)
    }

    /// Blocks until the reply arrives, recycling the slot.
    ///
    /// The service guarantees a typed reply for every admitted request —
    /// including through worker panics, deadline expiry and shutdown — so
    /// this wait always terminates once the service is processing (see
    /// the drop-guard in `worker.rs`).
    pub fn wait(self) -> Reply {
        let reply = self.slot.take_blocking();
        self.finish();
        reply
    }

    /// Like [`Ticket::wait`] but gives up after `timeout` (the request
    /// stays in flight; its slot is not recycled). `None` on timeout.
    pub fn wait_for(self, timeout: Duration) -> Option<Reply> {
        match self.slot.take_timeout(timeout) {
            Some(reply) => {
                self.finish();
                Some(reply)
            }
            None => None,
        }
    }

    /// Hands the slot back to the pool, whether or not the service side
    /// has dropped its clone yet.
    fn finish(self) {
        let Ticket { slot, pool, .. } = self;
        pool.recycle(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ServeError, Verdict};

    fn ok(class: usize) -> Reply {
        Ok(Verdict {
            class,
            worker: 0,
            batch_size: 1,
        })
    }

    #[test]
    fn first_write_wins() {
        let slot = ReplySlot::default();
        let mut hooks = 0;
        assert!(slot.set(ok(1), || hooks += 1));
        assert!(!slot.set(Err(ServeError::ShuttingDown), || hooks += 1));
        assert_eq!(hooks, 1, "only the winning write runs its hook");
        assert!(slot.is_set());
        assert_eq!(slot.take_blocking(), ok(1));
        assert!(!slot.is_set());
    }

    #[test]
    fn ticket_waits_and_recycles() {
        let pool = Arc::new(SlotPool::new(1));
        let slot = pool.get();
        let t = Ticket::new(Arc::clone(&slot), Arc::clone(&pool), 7);
        slot.set(ok(3), || {});
        drop(slot); // service side releases its handle
        assert_eq!(t.wait(), ok(3));
        assert_eq!(pool.idle(), 1);
        // The recycled slot is reusable for a fresh request.
        let again = pool.get();
        assert!(!again.is_set());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn slot_outliving_the_reply_is_recycled_once_released() {
        let pool = Arc::new(SlotPool::new(1));
        let slot = pool.get();
        let t = Ticket::new(Arc::clone(&slot), Arc::clone(&pool), 5);
        slot.set(ok(2), || {});
        // The service side still holds its clone when the client consumes.
        assert_eq!(t.wait(), ok(2));
        assert!(
            slot.set(ok(8), || {}),
            "a late write lands in the consumed slot"
        );
        let held = Arc::as_ptr(&slot);
        // While the clone lives, the pooled slot is not handed out.
        let other = pool.get();
        assert!(!std::ptr::eq(Arc::as_ptr(&other), held));
        drop(slot);
        assert_eq!(pool.idle(), 1);
        // Released, it comes back emptied of the late write.
        let again = pool.get();
        assert!(std::ptr::eq(Arc::as_ptr(&again), held));
        assert!(!again.is_set());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn wait_for_times_out_without_consuming() {
        let pool = Arc::new(SlotPool::new(4));
        let slot = pool.get();
        let t = Ticket::new(Arc::clone(&slot), Arc::clone(&pool), 1);
        assert!(t.wait_for(Duration::from_millis(5)).is_none());
        // A reply delivered later is still observable via the slot.
        slot.set(ok(9), || {});
        assert!(slot.is_set());
    }

    #[test]
    fn pool_bounds_its_free_list() {
        let pool = SlotPool::new(1);
        let _taken = pool.get(); // empty the prefilled list first
        let a = Arc::new(ReplySlot::default());
        let b = Arc::new(ReplySlot::default());
        pool.recycle(a);
        pool.recycle(b);
        assert_eq!(pool.idle(), 1);
    }
}
