//! A counting global allocator for allocation-regression tests.
//!
//! The allocator itself only counts; memory management is delegated to
//! [`std::alloc::System`]. Install it in a binary or test crate with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: amp_conformance::alloc_track::TrackingAllocator =
//!     amp_conformance::alloc_track::TrackingAllocator;
//! ```
//!
//! Two counters are kept: a process-wide atomic (for counts that span
//! threads) and a per-thread cell (what tests read, so `cargo test`'s
//! parallel threads cannot pollute each other's deltas). The thread-local
//! is const-initialized and accessed through `try_with`, so counting stays
//! safe even for allocations made during thread teardown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every `alloc`/`realloc`, then delegates to the system
/// allocator.
pub struct TrackingAllocator;

impl TrackingAllocator {
    fn record() {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TrackingAllocator::record();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TrackingAllocator::record();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (including reallocations) across all threads
/// since process start. Zero when the tracking allocator is not
/// installed.
#[must_use]
pub fn global_count() -> u64 {
    GLOBAL_ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations made by the calling thread since it started.
#[must_use]
pub fn thread_count() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns its result together with the number of heap
/// allocations the *calling thread* performed inside it.
pub fn count_thread_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_count();
    let result = f();
    (result, thread_count() - before)
}
