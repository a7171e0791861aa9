//! The counting global allocator of the allocation-lockdown tests
//! (`alloc_regression`, `activation_alloc`, `serve_alloc`, `quant_alloc`).
//!
//! Each of those files includes this module with `mod counting_alloc;`,
//! which installs [`CountingAllocator`] as its process's global allocator,
//! and holds exactly one `#[test]`, so no concurrent test pollutes the
//! counter (each integration-test file is its own process and allocator).

#![allow(
    unsafe_code,
    reason = "counting GlobalAlloc delegating verbatim to System, shared by the allocation-lockdown tests"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Wraps `System`, counting every allocation, zeroed allocation and
/// reallocation.
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract (valid layout) verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract; forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract (valid layout) verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract (live `ptr` with matching
        // layout) verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's contract (live `ptr` with matching
        // layout) verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) made so far by the process.
pub fn alloc_count() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}
