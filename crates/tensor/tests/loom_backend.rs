//! Loom model checks for the backend selection's one-time initialization
//! and its scoped override (`crate::backend::{active, with_backend}`).
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p leca-tensor --test
//! loom_backend --release`; under a normal build this file is empty.
//!
//! The cache is a single atomic index with *idempotent* initialization:
//! racing first-touchers may each run selection, but selection is a pure
//! function of the (stable) environment, and the first store wins, so
//! every interleaving must land on the same backend and later loads must
//! never observe the sentinel. Loom statics persist across model
//! iterations, so every model re-arms the not-yet-selected state via
//! `reset_backend_cache` first.
#![cfg(loom)]

use leca_tensor::backend::{self, Backend};

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

/// `with_backend` racing a first-touch reader: inside the scope the setter
/// always sees its pin (a racing first touch never overwrites it), the
/// reader sees the pin or the environment's choice, and once the scope
/// ends the environment's choice is back.
#[test]
fn setter_racing_reader_stays_valid() {
    loom::model(|| {
        backend::reset_backend_cache();
        let ambient = backend::active();
        backend::reset_backend_cache();
        let writer =
            loom::thread::spawn(|| backend::with_backend(Backend::Scalar, backend::active));
        let seen = backend::active();
        assert_eq!(writer.join().unwrap(), Backend::Scalar, "the pin holds");
        assert!(seen == Backend::Scalar || seen == ambient, "saw {seen:?}");
        assert_eq!(
            backend::active(),
            ambient,
            "the scope restores the selection"
        );
    });
}
