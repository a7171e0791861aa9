//! Loom model checks for the one-shot reply protocol
//! (`leca_serve::reply::{ReplySlot, SlotPool, Ticket}`).
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p leca-serve --test
//! loom_reply --release`; under a normal build this file is empty.
//!
//! These models explore every interleaving of the service setting a reply
//! and dropping its slot handle against the client waiting, consuming and
//! recycling — the exactly-once delivery story the serving tier's
//! "every admitted request is answered once" guarantee rests on — and the
//! delivery hook the service counts resolutions in, which a waiter must
//! see as soon as it holds the reply.
#![cfg(loom)]

use leca_serve::reply::{SlotPool, Ticket};
use leca_serve::{ServeError, Verdict};
use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;

type Reply = Result<Verdict, ServeError>;

fn ok(class: usize) -> Reply {
    Ok(Verdict {
        class,
        worker: 0,
        batch_size: 1,
    })
}

/// Service delivers one reply and releases its handle; the client's wait
/// must terminate with that reply under every schedule, and the slot is
/// either recycled empty or dropped — never recycled with a stale reply.
#[test]
fn one_shot_delivery_always_completes() {
    loom::model(|| {
        let pool = Arc::new(SlotPool::new(2));
        let slot = pool.get();
        let ticket = Ticket::for_model(Arc::clone(&slot), Arc::clone(&pool), 1);
        let service = loom::thread::spawn(move || {
            assert!(slot.set(ok(5), || {}), "first write must win");
            drop(slot); // service releases its handle after setting
        });
        assert_eq!(ticket.wait(), ok(5));
        service.join().unwrap();
        // Whatever the schedule, a recycled slot must come back empty.
        let fresh = pool.get();
        assert!(
            fresh.set(ok(7), || {}),
            "slot from the pool must accept a new reply"
        );
    });
}

/// Two writers race the slot: exactly one wins, and the client observes
/// the winner's reply (never a torn or doubled delivery).
#[test]
fn racing_writers_deliver_exactly_once() {
    loom::model(|| {
        let pool = Arc::new(SlotPool::new(2));
        let slot = pool.get();
        let ticket = Ticket::for_model(Arc::clone(&slot), Arc::clone(&pool), 2);
        let s1 = {
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || slot.set(ok(1), || {}))
        };
        let s2 = loom::thread::spawn(move || slot.set(Err(ServeError::ShuttingDown), || {}));
        let w1 = s1.join().unwrap();
        let w2 = s2.join().unwrap();
        assert!(w1 ^ w2, "exactly one writer must win");
        let reply = ticket.wait();
        if w1 {
            assert_eq!(reply, ok(1));
        } else {
            assert_eq!(reply, Err(ServeError::ShuttingDown));
        }
    });
}

/// The service counts a resolution in the winning `set`'s hook. Under
/// every schedule, a client whose wait has returned already sees that
/// count, so the accounting invariant `admitted == completed + timed_out
/// + worker_failed` holds the moment a ticket returns.
#[test]
fn delivery_hook_is_visible_once_the_wait_returns() {
    loom::model(|| {
        let pool = Arc::new(SlotPool::new(2));
        let slot = pool.get();
        let ticket = Ticket::for_model(Arc::clone(&slot), Arc::clone(&pool), 3);
        let completed = Arc::new(AtomicU64::new(0));
        let service = {
            let completed = Arc::clone(&completed);
            loom::thread::spawn(move || {
                slot.set(ok(4), || {
                    completed.fetch_add(1, Ordering::Relaxed);
                })
            })
        };
        assert_eq!(ticket.wait(), ok(4));
        assert_eq!(
            completed.load(Ordering::Relaxed),
            1,
            "the delivered reply must already be counted when the wait returns"
        );
        assert!(service.join().unwrap(), "the only writer must win");
    });
}
