//! Counting global allocator shim for the bench harness.
//!
//! Wraps the system allocator and counts every allocation, so bench
//! binaries can assert "this loop performed zero heap allocations". The counter is only active in binaries that install it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: kalstream_bench::alloc_count::CountingAllocator =
//!     kalstream_bench::alloc_count::CountingAllocator;
//! ```
//!
//! The library itself never installs it, so normal builds and tests run on
//! the plain system allocator.
//!
//! This is the one module in the crate allowed to use `unsafe`: a
//! `GlobalAlloc` impl cannot be written without it, and the impl is a pure
//! pass-through to `std::alloc::System` plus a relaxed atomic increment.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` that forwards to [`System`] and counts calls.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as an allocation event: it can hit the allocator.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation events since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` and returns `(allocation events, result)` attributed to it.
///
/// Only meaningful in a binary that installed [`CountingAllocator`];
/// otherwise the counter stays zero and this reports 0.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}
