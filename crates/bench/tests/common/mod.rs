//! The counting global allocator the allocation gates share.
//!
//! The counters are per thread and the harness runs every `#[test]` on
//! a thread of its own, so tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread may still allocate while it is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and bytes requested by this thread while `f` ran.
pub fn measured<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (ALLOCATIONS.get(), BYTES.get());
    let result = f();
    (ALLOCATIONS.get() - before.0, BYTES.get() - before.1, result)
}
