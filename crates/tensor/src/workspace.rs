//! A size-bucketed buffer pool for allocation-free steady-state inference.
//!
//! [`Workspace`] owns a free list of `Vec<f32>` buffers grouped into
//! power-of-two capacity buckets. [`Workspace::take`] checks a buffer out
//! as a [`PooledTensor`] — a [`Tensor`] that returns its buffer (and its
//! shape allocation) to the pool when dropped. Once a workload's working
//! set has been seen once, every subsequent checkout is a pool hit and the
//! steady state performs **zero heap allocations**; the facade crate's
//! `alloc_regression` test pins this down with a counting allocator.
//!
//! # Invariants
//!
//! * Bucket `b` only holds buffers whose capacity is at least `2^b`, so a
//!   checkout from bucket `ceil(log2(len))` never reallocates.
//! * [`Workspace::take`] zero-fills the checked-out prefix, making its
//!   result bit-identical to [`Tensor::zeros`] of the same shape.
//! * Buffers are exclusively owned while checked out (no aliasing): the
//!   pool only sees them again on drop.

use crate::{Shape, Tensor};
use std::sync::{Arc, Mutex};

/// Capacity buckets cover `2^0 ..= 2^63` elements.
const NUM_BUCKETS: usize = 64;

/// Smallest `b` with `2^b >= len` (the bucket a checkout of `len` elements
/// is served from).
fn bucket_for_len(len: usize) -> usize {
    if len <= 1 {
        0
    } else {
        (usize::BITS - (len - 1).leading_zeros()) as usize
    }
}

/// Largest `b` with `2^b <= cap` (the bucket a returned buffer of capacity
/// `cap` files into).
fn bucket_for_capacity(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

struct PoolInner {
    /// `buckets[b]` holds free buffers with `capacity >= 2^b`.
    buckets: Vec<Vec<Vec<f32>>>,
    /// Recycled shape vectors (cleared).
    shapes: Vec<Vec<usize>>,
    hits: u64,
    misses: u64,
    live: usize,
    live_bytes: usize,
}

impl PoolInner {
    /// Checks a raw buffer + shape vector out of the pool. The buffer's
    /// contents are unspecified; the caller fills it.
    fn checkout(&mut self, len: usize) -> (Vec<f32>, Vec<usize>) {
        let b = bucket_for_len(len).min(NUM_BUCKETS - 1);
        let data = match self.buckets[b].pop() {
            Some(buf) => {
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                let cap = len.max(1).checked_next_power_of_two().unwrap_or(len);
                Vec::with_capacity(cap)
            }
        };
        let shape = self.shapes.pop().unwrap_or_else(|| Vec::with_capacity(4));
        self.live += 1;
        self.live_bytes += data.capacity() * std::mem::size_of::<f32>();
        (data, shape)
    }

    /// Returns a buffer + shape vector to the free lists.
    fn give_back(&mut self, data: Vec<f32>, mut shape: Vec<usize>) {
        let bytes = data.capacity() * std::mem::size_of::<f32>();
        self.live -= 1;
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        if data.capacity() > 0 {
            let b = bucket_for_capacity(data.capacity()).min(NUM_BUCKETS - 1);
            self.buckets[b].push(data);
        }
        shape.clear();
        self.shapes.push(shape);
    }

    /// Adjusts accounting for a tensor leaving the pool's custody without
    /// its buffer coming back ([`PooledTensor::detach`]).
    fn release(&mut self, capacity: usize) {
        self.live -= 1;
        self.live_bytes = self
            .live_bytes
            .saturating_sub(capacity * std::mem::size_of::<f32>());
    }
}

/// Point-in-time counters of a [`Workspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Checkouts served from the free list.
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Tensors currently checked out.
    pub live: usize,
    /// Buffers currently parked in the free list.
    pub free: usize,
    /// Total bytes held by the pool: free-list capacity plus the capacity
    /// of every live checkout.
    pub bytes_resident: usize,
}

impl WorkspaceStats {
    /// Fraction of checkouts served without allocating (1.0 when no
    /// checkout has happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for WorkspaceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} live / {} free buffers, {:.1} KiB resident, hit rate {:.1}% ({} hits / {} misses)",
            self.live,
            self.free,
            self.bytes_resident as f64 / 1024.0,
            self.hit_rate() * 100.0,
            self.hits,
            self.misses
        )
    }
}

/// A shared, thread-safe tensor buffer pool. Cloning is cheap and clones
/// share the same pool.
#[derive(Clone)]
pub struct Workspace {
    inner: Arc<Mutex<PoolInner>>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workspace({})", self.stats())
    }
}

impl Workspace {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Workspace {
            inner: Arc::new(Mutex::new(PoolInner {
                buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
                shapes: Vec::new(),
                hits: 0,
                misses: 0,
                live: 0,
                live_bytes: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A panic while holding the lock leaves only counters inconsistent,
        // never buffer contents, so poisoned state is safe to reuse.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Checks out a zero-filled tensor of the given shape — bit-identical
    /// to [`Tensor::zeros`], but reusing a pooled buffer when one fits.
    pub fn take(&self, dims: &[usize]) -> PooledTensor {
        let len: usize = dims.iter().product();
        let (mut data, mut shape) = self.lock().checkout(len);
        data.clear();
        data.resize(len, 0.0);
        shape.clear();
        shape.extend_from_slice(dims);
        self.wrap(data, shape)
    }

    /// Checks out a copy of `src` (a pooled [`Tensor::clone`]).
    pub fn take_from(&self, src: &Tensor) -> PooledTensor {
        let (mut data, mut shape) = self.lock().checkout(src.len());
        data.clear();
        data.extend_from_slice(src.as_slice());
        shape.clear();
        shape.extend_from_slice(src.shape());
        self.wrap(data, shape)
    }

    /// Wraps an already-allocated tensor so its buffer joins the pool when
    /// dropped. Used by layers whose training path builds its output
    /// together with an owned backward cache (max-pool indices, batch-norm
    /// batch statistics, the hardware encoder traces).
    pub fn adopt(&self, t: Tensor) -> PooledTensor {
        {
            let mut p = self.lock();
            p.live += 1;
            p.live_bytes += t.capacity() * std::mem::size_of::<f32>();
        }
        PooledTensor {
            t: Some(t),
            pool: Arc::clone(&self.inner),
        }
    }

    fn wrap(&self, data: Vec<f32>, shape: Vec<usize>) -> PooledTensor {
        PooledTensor {
            t: Some(Tensor::from_raw_parts(data, Shape::from(shape))),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Current pool counters.
    pub fn stats(&self) -> WorkspaceStats {
        let p = self.lock();
        let free = p.buckets.iter().map(Vec::len).sum();
        let free_bytes: usize = p
            .buckets
            .iter()
            .flat_map(|b| b.iter())
            .map(|v| v.capacity() * std::mem::size_of::<f32>())
            .sum();
        WorkspaceStats {
            hits: p.hits,
            misses: p.misses,
            live: p.live,
            free,
            bytes_resident: free_bytes + p.live_bytes,
        }
    }
}

/// A [`Tensor`] checked out of a [`Workspace`]; the buffer returns to the
/// pool on drop. Derefs to [`Tensor`], so it can be passed anywhere a
/// `&Tensor` is expected.
pub struct PooledTensor {
    /// Always `Some` until drop/detach.
    t: Option<Tensor>,
    pool: Arc<Mutex<PoolInner>>,
}

impl PooledTensor {
    /// Severs the tensor from the pool: the buffer will be freed normally
    /// instead of returning to the free list.
    pub fn detach(mut self) -> Tensor {
        let t = self.t.take().expect("pooled tensor already taken");
        let mut p = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        p.release(t.capacity());
        t
    }
}

impl std::ops::Deref for PooledTensor {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        self.t.as_ref().expect("pooled tensor already taken")
    }
}

impl std::ops::DerefMut for PooledTensor {
    fn deref_mut(&mut self) -> &mut Tensor {
        self.t.as_mut().expect("pooled tensor already taken")
    }
}

impl std::fmt::Debug for PooledTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.t {
            Some(t) => write!(f, "PooledTensor({t})"),
            None => write!(f, "PooledTensor(<taken>)"),
        }
    }
}

impl Drop for PooledTensor {
    fn drop(&mut self) {
        if let Some(t) = self.t.take() {
            let (data, shape) = t.into_parts();
            if let Ok(mut p) = self.pool.lock() {
                p.give_back(data, shape.into_dims());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_matches_zeros() {
        let ws = Workspace::new();
        let t = ws.take(&[2, 3, 4]);
        assert_eq!(&*t, &Tensor::zeros(&[2, 3, 4]));
    }

    #[test]
    fn buffers_are_reused() {
        let ws = Workspace::new();
        let ptr = {
            let t = ws.take(&[16]);
            t.as_slice().as_ptr() as usize
        };
        // Same bucket, smaller request: must come back as the same buffer.
        let t2 = ws.take(&[3, 4]);
        assert_eq!(t2.as_slice().as_ptr() as usize, ptr);
        let stats = ws.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn reused_buffer_is_zeroed() {
        let ws = Workspace::new();
        {
            let mut t = ws.take(&[8]);
            t.fill(7.0);
        }
        let t = ws.take(&[8]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_from_copies() {
        let ws = Workspace::new();
        let src = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let t = ws.take_from(&src);
        assert_eq!(&*t, &src);
    }

    #[test]
    fn adopt_joins_pool_on_drop() {
        let ws = Workspace::new();
        {
            // Power-of-two length: the exact capacity files into the same
            // bucket a checkout of this length is served from.
            let _t = ws.adopt(Tensor::ones(&[16]));
            assert_eq!(ws.stats().live, 1);
        }
        let s = ws.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.free, 1);
        // The adopted buffer now serves checkouts.
        let t = ws.take(&[16]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(ws.stats().hits, 1);

        // Length 3, capacity 8: the pool charges (and later files) the
        // whole 32-byte buffer, exactly as it charges a checkout of
        // capacity 8.
        let ws = Workspace::new();
        let _five = ws.take(&[5]);
        let mut buf = Vec::with_capacity(8);
        buf.extend_from_slice(&[1.0, 2.0, 3.0]);
        let adopted = ws.adopt(Tensor::from_vec(buf, &[3]).unwrap());
        assert_eq!(ws.stats().bytes_resident, 64);
        drop(adopted);
        let s = ws.stats();
        assert_eq!((s.live, s.free, s.bytes_resident), (1, 1, 64));
    }

    #[test]
    fn detach_leaves_pool_accounting_clean() {
        // A power-of-two length hides a length/capacity mix-up; 3 is
        // served from a capacity-4 buffer.
        for dims in [&[4][..], &[3]] {
            let ws = Workspace::new();
            let t = ws.take(dims).detach();
            assert_eq!(t.shape(), dims);
            let s = ws.stats();
            assert_eq!(s.live, 0);
            assert_eq!(s.free, 0);
            assert_eq!(s.bytes_resident, 0);
        }
    }

    #[test]
    fn shapes_round_trip_without_mixups() {
        let ws = Workspace::new();
        {
            let _a = ws.take(&[2, 2]);
            let _b = ws.take(&[1, 3, 5]);
        }
        let c = ws.take(&[15]);
        assert_eq!(c.shape(), &[15]);
        let d = ws.take(&[4]);
        assert_eq!(d.shape(), &[4]);
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_for_len(0), 0);
        assert_eq!(bucket_for_len(1), 0);
        assert_eq!(bucket_for_len(2), 1);
        assert_eq!(bucket_for_len(3), 2);
        assert_eq!(bucket_for_len(1024), 10);
        assert_eq!(bucket_for_len(1025), 11);
        assert_eq!(bucket_for_capacity(1), 0);
        assert_eq!(bucket_for_capacity(1024), 10);
        assert_eq!(bucket_for_capacity(1023), 9);
    }

    #[test]
    fn steady_state_hits_only() {
        let ws = Workspace::new();
        for _ in 0..3 {
            let a = ws.take(&[32, 7]);
            let b = ws.take_from(&a);
            drop(a);
            let _c = ws.take(&[64]);
            drop(b);
        }
        let s = ws.stats();
        // First iteration misses (3), every later checkout hits.
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 6);
        assert!(s.hit_rate() > 0.6);
    }

    #[test]
    fn stats_display_is_humane() {
        let ws = Workspace::new();
        let _t = ws.take(&[10]);
        let s = format!("{}", ws.stats());
        assert!(s.contains("1 live"));
        assert!(s.contains("hit rate"));
    }
}
