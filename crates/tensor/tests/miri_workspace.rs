//! Miri-targeted aliasing tests for the [`Workspace`] buffer pool.
//!
//! The pool's whole premise is ownership juggling: a `Vec<f32>` leaves the
//! free list, becomes a [`PooledTensor`], is mutated through `DerefMut`,
//! and its allocation re-enters the pool on drop to be handed to the next
//! checkout. Under Miri's borrow tracking this exercises exactly the
//! places a use-after-return or aliasing bug would hide, so the CI miri
//! job runs this file (plus the tensor unit suite) on every push. The
//! tests are plain `#[test]`s — they also run (fast) under the native
//! suite; iteration counts shrink under Miri's interpreter via `cfg!`.
//!
//! Everything here is single-pool, deterministic, and asserts exact
//! values, so any wrong-buffer or stale-shape bug fails loudly even
//! without Miri.

use leca_tensor::{Tensor, Workspace};

fn iters(native: usize, miri: usize) -> usize {
    if cfg!(miri) {
        miri
    } else {
        native
    }
}

/// A returned buffer is handed verbatim to the next fitting checkout: the
/// new owner must have exclusive, fully-initialized access even though the
/// allocation previously lived inside another tensor.
#[test]
fn checkout_return_checkout_reuses_without_aliasing() {
    let ws = Workspace::new();
    for round in 0..iters(64, 8) {
        let mut a = ws.take(&[4, 8]);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = (round * 100 + i) as f32;
        }
        let expect: Vec<f32> = (0..32).map(|i| (round * 100 + i) as f32).collect();
        assert_eq!(a.as_slice(), &expect[..]);
        drop(a);
        // The very next checkout is served from the buffer just returned;
        // it must observe the zero-fill, not the previous owner's writes.
        let b = ws.take(&[32]);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }
    let s = ws.stats();
    assert_eq!(s.live, 0);
    assert!(s.hits > 0, "reuse path never exercised: {s:?}");
}

/// Two live checkouts from the same bucket must never alias, including
/// when one of them is the recycled buffer of a third, already-dropped
/// tensor.
#[test]
fn concurrent_checkouts_are_disjoint() {
    let ws = Workspace::new();
    for _ in 0..iters(32, 4) {
        let warm = ws.take(&[16]);
        drop(warm);
        let mut a = ws.take(&[16]);
        let mut b = ws.take(&[16]);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.as_slice().iter().all(|&v| v == 1.0));
        assert!(b.as_slice().iter().all(|&v| v == 2.0));
    }
}

/// Shape vectors are recycled independently of data buffers; a stale
/// shape from a prior checkout must never leak through.
#[test]
fn shape_vec_recycling_is_exact() {
    let ws = Workspace::new();
    let shapes: &[&[usize]] = &[&[2, 3], &[6], &[1, 2, 3], &[3, 2, 1, 1], &[6, 1]];
    for i in 0..iters(50, 10) {
        let dims = shapes[i % shapes.len()];
        let t = ws.take(dims);
        assert_eq!(t.shape(), dims);
        assert_eq!(t.len(), 6);
    }
}

/// `detach` transfers ownership out of the pool: the tensor must stay
/// fully usable after the workspace itself is gone.
#[test]
fn detach_outlives_workspace() {
    let detached = {
        let ws = Workspace::new();
        let mut t = ws.take(&[8]);
        t.fill(3.5);
        t.detach()
    };
    assert!(detached.as_slice().iter().all(|&v| v == 3.5));
}

/// `adopt` moves an externally-allocated tensor into the pool's custody;
/// its buffer must serve later checkouts like any pooled one.
#[test]
fn adopt_then_reuse_roundtrip() {
    let ws = Workspace::new();
    {
        let adopted = ws.adopt(Tensor::from_vec(vec![9.0; 16], &[16]).unwrap());
        assert_eq!(adopted.as_slice(), &[9.0; 16]);
    }
    let t = ws.take(&[4, 4]);
    assert!(t.as_slice().iter().all(|&v| v == 0.0));
    assert_eq!(ws.stats().hits, 1, "adopted buffer must serve the checkout");
}

/// `take_from` must produce an independent copy: mutating the pooled copy
/// cannot touch the source, and vice versa.
#[test]
fn take_from_is_a_deep_copy() {
    let ws = Workspace::new();
    let src = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
    let mut copy = ws.take_from(&src);
    copy.fill(-1.0);
    assert_eq!(src.as_slice()[5], 5.0);
    drop(copy);
    let again = ws.take_from(&src);
    assert_eq!(again.as_slice(), src.as_slice());
}

/// Clones of a `Workspace` share one pool; checkouts and returns across
/// clones (and across threads) must keep the free list coherent. Under
/// Miri this doubles as a send/sync smoke test for the `Arc<Mutex<..>>`
/// plumbing.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "spawns caller threads that share one pool"
)]
fn workspace_clones_share_pool_across_threads() {
    let ws = Workspace::new();
    {
        let warm = ws.take(&[64]);
        drop(warm);
    }
    let handles: Vec<_> = (0..2)
        .map(|tid| {
            let ws = ws.clone();
            std::thread::spawn(move || {
                for _ in 0..iters(16, 3) {
                    let mut t = ws.take(&[64]);
                    t.fill(tid as f32 + 1.0);
                    assert!(t.as_slice().iter().all(|&v| v == tid as f32 + 1.0));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = ws.stats();
    assert_eq!(s.live, 0);
    assert!(s.free >= 1);
}
