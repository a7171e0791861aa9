//! Loom model checks for the backend selection's one-time initialization
//! and refresh (`crate::backend::{active, refresh_backend}`).
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p leca-tensor --test
//! loom_backend --release`; under a normal build this file is empty.
//!
//! The cache is a single atomic index with *idempotent* initialization:
//! racing first-touchers may each run selection, but selection is a pure
//! function of the (stable) environment, so every interleaving must land
//! on the same backend and later loads must never observe the sentinel.
//! Loom statics persist across model iterations, so every model re-arms
//! the not-yet-selected state via `reset_backend_cache` first.
#![cfg(loom)]

use leca_tensor::backend;

/// Concurrent first-touch: two threads race `active()` from the
/// uninitialized state; both must resolve the same backend.
#[test]
fn racing_first_touch_is_idempotent() {
    loom::model(|| {
        backend::reset_backend_cache();
        let a = loom::thread::spawn(|| backend::active().name());
        let b = loom::thread::spawn(|| backend::active().name());
        let na = a.join().unwrap();
        let nb = b.join().unwrap();
        assert_eq!(na, nb, "racing initializers must agree");
        assert_eq!(backend::active().name(), na, "cache settles on the winner");
    });
}

/// `refresh_backend` racing a reader: the reader sees either the old or
/// the new selection (the same one here — env is stable), never the
/// sentinel and never a torn index.
#[test]
fn refresh_racing_reader_stays_valid() {
    loom::model(|| {
        backend::reset_backend_cache();
        let writer = loom::thread::spawn(|| backend::refresh_backend().name());
        let seen = backend::active().name();
        let refreshed = writer.join().unwrap();
        assert_eq!(seen, refreshed, "stable env: every path selects the same");
    });
}
