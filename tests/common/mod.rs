//! A global allocator that counts this thread's heap allocations, shared by
//! the integration tests that bound what a solve allocates. Counting per
//! thread lets a test see exactly what its own code allocates while the
//! harness runs other tests concurrently.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// A watched allocation size in bytes, and this thread's allocations
    /// of exactly that size: live, their peak, and how many it made.
    static WATCHED: Cell<(usize, i64, i64, u64)> = const { Cell::new((0, 0, 0, 0)) };
}

fn count_allocation(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = WATCHED.try_with(|w| {
        let (size, live, peak, made) = w.get();
        if bytes == size {
            w.set((size, live + 1, peak.max(live + 1), made + 1));
        }
    });
}

fn count_release(bytes: usize) {
    let _ = WATCHED.try_with(|w| {
        let (size, live, peak, made) = w.get();
        if bytes == size {
            w.set((size, live - 1, peak, made));
        }
    });
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe calls.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_release(layout.size());
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_release(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations this thread has made so far.
pub fn allocations_so_far() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What `f` did on this thread with allocations of exactly `bytes`.
pub struct Watched {
    /// How many it made.
    pub made: u64,
    /// The peak number live beyond those live when `f` started.
    pub peak_live: i64,
}

/// Watches `f`'s allocations of exactly `bytes` on this thread.
pub fn watch_allocations(bytes: usize, f: impl FnOnce()) -> Watched {
    WATCHED.with(|w| w.set((bytes, 0, 0, 0)));
    f();
    let (_, _, peak_live, made) = WATCHED.with(|w| w.replace((0, 0, 0, 0)));
    Watched { made, peak_live }
}

/// Allocations of exactly `bytes` that `f` makes on this thread.
pub fn allocations_of(bytes: usize, f: impl FnOnce()) -> u64 {
    watch_allocations(bytes, f).made
}
